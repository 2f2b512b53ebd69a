"""The package imports whole on its declared dependencies alone.

Every module under ``repro`` is imported in a fresh interpreter with
``networkx`` masked out of ``sys.modules`` (a ``None`` entry makes any
``import networkx`` raise ``ImportError``), so a module that pulls in an
undeclared third-party package fails here rather than on a clean
install.
"""

import subprocess
import sys
from pathlib import Path

SCRIPT = """
import importlib, pkgutil, sys
sys.modules["networkx"] = None
import repro
names = sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.name != "repro.__main__"
)
for name in names:  # walk_packages swallows ImportErrors; this does not
    importlib.import_module(name)
print(len(names))
"""


def test_every_module_imports_without_networkx():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        cwd=Path(__file__).resolve().parent.parent,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) > 50
