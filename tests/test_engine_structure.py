"""Tier-1 structural guard: one time loop, one accept/reject path.

The paper's "no loss of accuracy or convergence" claim rests on every
accepted point — sequential or pipelined — passing the same Newton and
LTE test. That is a property of the *code shape*: the transient engine
owns the only time loop and the only routine that talks to the step
controller about a candidate's fate, and the WavePipe schemes inherit
both. A second loop or a scheme-private accept path would compile and
pass the numeric tests until it drifted; this AST check (no simulation,
well under a second) fails the moment one appears.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Where a controller accept/reject transition may be issued from: the
#: shared routine, its guard fallback, and the forward schemes'
#: corrective re-solve.
ACCEPT_PATHS = {"verify_ascending", "_try_guard", "corrective_commit"}


def _reads(node: ast.AST, name: str) -> bool:
    return any(
        (isinstance(n, ast.Name) and n.id == name)
        or (isinstance(n, ast.Attribute) and n.attr == name)
        for n in ast.walk(node)
    )


def _scan():
    """(time loops, {controller method: [enclosing function, ...]})."""
    loops: list[str] = []
    calls: dict[str, list[str]] = {
        "on_newton_failure": [], "on_reject": [], "on_accept": [],
    }
    for package in ("engine", "core"):
        for path in sorted((SRC / package).glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for func in ast.walk(tree):
                if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                where = f"{package}/{path.name}:{func.name}"
                for node in ast.walk(func):
                    if isinstance(node, ast.While) and _reads(node.test, "tstop"):
                        loops.append(where)
                    if (
                        isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in calls
                    ):
                        calls[node.func.attr].append(where)
    return loops, calls


LOOPS, CALLS = _scan()


def test_one_time_loop_on_the_base_engine():
    assert LOOPS == ["engine/transient.py:run"]


def test_one_newton_failure_call_site():
    assert CALLS["on_newton_failure"] == ["engine/transient.py:verify_ascending"]


def test_accept_and_reject_only_on_the_shared_path():
    calls = CALLS
    sites = calls["on_reject"] + calls["on_accept"]
    assert sites, "the engine no longer reports to the step controller?"
    assert {site.rsplit(":", 1)[1] for site in sites} <= ACCEPT_PATHS
    # the routine itself lives on the base engine, not on a scheme
    assert "engine/transient.py:verify_ascending" in calls["on_accept"]
    assert "engine/transient.py:verify_ascending" in calls["on_reject"]


def test_schemes_inherit_the_loop():
    """``PipelineEngine.run`` resolves (the frozen wallbench tracer wraps
    it by that name) but is the base engine's, not a second definition."""
    from repro.core.pipeline import PipelineEngine
    from repro.core.wavepipe import SCHEMES
    from repro.engine.transient import TransientEngine

    for cls in (PipelineEngine, *SCHEMES.values()):
        assert issubclass(cls, TransientEngine)
        assert cls.run is TransientEngine.run
        assert cls.verify_ascending is TransientEngine.verify_ascending


# -- one way to get the charge vector ---------------------------------------------


def _writes_out_q(func: ast.AST) -> bool:
    """True when *func* reads ``out.q`` (a bank accumulating charge)."""
    return any(
        isinstance(n, ast.Attribute)
        and n.attr == "q"
        and isinstance(n.value, ast.Name)
        and n.value.id == "out"
        for n in ast.walk(func)
    )


def test_every_charge_holding_bank_overrides_charge():
    """A bank whose code accumulates into ``out.q`` must define ``charge``:
    the base default is a no-op, so a missing override would silently drop
    that bank's charge from every ``charge_at``."""
    holders = []
    for path in sorted((SRC / "devices").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef) or not cls.name.endswith("Bank"):
                continue
            methods = {
                f.name: f for f in cls.body if isinstance(f, ast.FunctionDef)
            }
            if any(_writes_out_q(f) for f in methods.values()):
                holders.append(cls.name)
                assert "charge" in methods, f"{path.name}:{cls.name} lacks charge()"
    assert {"CapacitorBank", "InductorBank", "MutualInductanceBank",
            "MosfetBank", "DiodeBank", "BjtBank"} <= set(holders)


def test_no_full_eval_only_to_read_the_charge():
    """Outside AC analysis (which needs the stamps), every ``system.eval``
    call site also uses the resistive side of the evaluation; the charge
    alone comes from ``MnaSystem.charge_at``, the one way to get q."""
    from repro.mna.system import MnaSystem

    assert not hasattr(MnaSystem, "charge")
    sites = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            evals = [
                n for n in ast.walk(func)
                if isinstance(n, ast.Call)
                and isinstance(n.func, ast.Attribute)
                and n.func.attr == "eval"
                and "system" in ast.unparse(n.func.value)
            ]
            if not evals:
                continue
            sites.append(f"{rel}:{func.name}")
            if rel == "analysis/ac.py":
                continue
            assert _reads(func, "resistive_residual") and _reads(func, "jacobian"), (
                f"{rel}:{func.name} runs a full eval without using its stamps"
            )
    assert "solver/newton.py:_newton_iterate" in sites


# -- one point solve; per-solve scratch state lives in the lanes ------------------

#: Where an engine allocates solver scratch state: its lanes, built once
#: per run, and the kernel's solver factory they are built from.
ALLOCATION_SITES = {
    "engine/transient.py:TransientEngine.__init__",
    "engine/transient.py:kernel_for",
}


class _Callers(ast.NodeVisitor):
    """{callee name: [innermost enclosing ``Class.function``, ...]}."""

    def __init__(self, prefix: str, found: dict[str, list[str]]):
        self.prefix = prefix
        self.found = found
        self.scope: list[str] = []

    def _nest(self, node) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _nest

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in self.found:
            self.found[name].append(f"{self.prefix}:{'.'.join(self.scope)}")
        self.generic_visit(node)


def _callers(*names: str) -> dict[str, list[str]]:
    found: dict[str, list[str]] = {name: [] for name in names}
    for package in ("engine", "core"):
        for path in sorted((SRC / package).glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            _Callers(f"{package}/{path.name}", found).visit(tree)
    return found


def test_one_function_solves_a_time_point():
    """Sequential step, stage tasks and corrective re-solves all go
    through ``TransientEngine.solve_point``, which picks the lane."""
    callers = _callers("solve_timepoint")["solve_timepoint"]
    assert callers == ["engine/transient.py:TransientEngine.solve_point"]


def test_scratch_state_is_allocated_only_for_the_lanes():
    """A task that built its own buffers or solver would start cold
    (no factors carried across stages) and price pipelined solves
    differently from the sequential ones."""
    found = _callers("make_buffers", "LinearSolver", "BlockSolver")
    assert found["make_buffers"], "the lanes are no longer built here?"
    for name, sites in found.items():
        assert set(sites) <= ALLOCATION_SITES, (name, sites)


def test_executors_run_closures_without_inspecting_results():
    text = (SRC / "parallel" / "executors.py").read_text(encoding="utf-8")
    assert "getattr(" not in text
