"""ResultCache under multi-node contention (satellite 3).

Two real processes race to publish the same spec's result while readers
poll concurrently: the content-addressed atomic-rename protocol must
leave exactly one canonical entry and never expose a partial read.  The
corrupt-entry eviction path is exercised end to end through a FarmNode.
"""

import json
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

from repro.jobs.cache import ResultCache
from repro.jobs.spec import CircuitRef, JobSpec
from repro.jobs.workers import execute_job
from repro.service.node import RESULTS_DIR, FarmNode
from repro.service.queue import JobQueue
from tests.test_service_farm import discard_queue_store

DECK = """rc lowpass
V1 in 0 SIN(0 1 1k)
R1 in out 1k
C1 out 0 1u
.tran 10u 1m
.end
"""


def rc_spec(label="rc") -> JobSpec:
    return JobSpec(circuit=CircuitRef(kind="netlist", netlist=DECK), label=label)


WRITER_SCRIPT = textwrap.dedent(
    """
    import json, sys
    from repro.jobs.cache import ResultCache
    from repro.jobs.spec import JobSpec
    from repro.jobs.workers import execute_job

    cache_dir, spec_json, rounds = sys.argv[1], sys.argv[2], int(sys.argv[3])
    spec = JobSpec.from_dict(json.loads(spec_json))
    result = execute_job(spec)          # deterministic: same bytes everywhere
    cache = ResultCache(cache_dir)
    for _ in range(rounds):
        cache.put(result)
    print(cache.path(spec.content_hash()).read_bytes().hex()[:16])
    """
)


def spawn_writer(cache_dir, spec, rounds=40) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-c", WRITER_SCRIPT, str(cache_dir),
         json.dumps(spec.to_dict()), str(rounds)],
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        cwd=Path(__file__).resolve().parent.parent,
        stdout=subprocess.PIPE,
        text=True,
    )


class TestPublishRace:
    def test_two_nodes_racing_leave_one_canonical_entry(self, tmp_path):
        spec = rc_spec()
        cache_dir = tmp_path / "results"
        expected = execute_job(spec)
        cache = ResultCache(cache_dir)

        torn = []
        stop = threading.Event()

        def reader() -> None:
            # a concurrent reader must only ever see nothing or a full,
            # valid entry — never a torn intermediate state
            while not stop.is_set():
                result = cache.get(spec.content_hash())
                if result is None:
                    continue
                if result.to_dict() != expected.to_dict():
                    torn.append(result)

        threads = [threading.Thread(target=reader) for _ in range(2)]
        for thread in threads:
            thread.start()
        writers = [spawn_writer(cache_dir, spec) for _ in range(2)]
        outputs = [w.communicate(timeout=120)[0].strip() for w in writers]
        stop.set()
        for thread in threads:
            thread.join(timeout=10)

        assert all(w.returncode == 0 for w in writers)
        assert not torn, f"reader saw {len(torn)} torn/partial entries"
        # exactly one canonical entry; both writers observed the same bytes
        entries = sorted(cache_dir.glob("*"))
        assert [e.name for e in entries] == [f"{spec.content_hash()}.json"]
        assert outputs[0] == outputs[1]
        stored = cache.get(spec.content_hash())
        assert stored.to_dict() == expected.to_dict()

    def test_put_is_byte_stable_across_processes(self, tmp_path):
        spec = rc_spec()
        local = ResultCache(tmp_path / "local")
        local.put(execute_job(spec))
        remote_dir = tmp_path / "remote"
        writer = spawn_writer(remote_dir, spec, rounds=1)
        writer.communicate(timeout=120)
        assert writer.returncode == 0
        local_bytes = local.path(spec.content_hash()).read_bytes()
        remote_bytes = (remote_dir / f"{spec.content_hash()}.json").read_bytes()
        assert local_bytes == remote_bytes


class TestCorruptEntryEviction:
    def test_torn_entry_is_evicted_and_rerun_by_farm_node(self, tmp_path):
        root = tmp_path / "farm"
        spec = rc_spec()
        queue = JobQueue(root)
        queue.submit(spec)
        FarmNode(root, node_id="alpha").run(drain=True)
        path = root / RESULTS_DIR / f"{spec.content_hash()}.json"
        clean = path.read_bytes()

        # simulate a torn write from a hard kill predating the rename
        path.write_bytes(clean[: len(clean) // 2])

        # resubmitting a done job dedups, so start a fresh queue over the
        # same (corrupted) cache; the node evicts the torn entry, reruns,
        # and republishes identical bytes
        queue.close()
        discard_queue_store(root)
        JobQueue(root).submit(spec)
        FarmNode(root, node_id="beta").run(drain=True)
        assert path.read_bytes() == clean

    def test_get_evicts_unparseable_entry(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = rc_spec()
        path = cache.path(spec.content_hash())
        path.write_text("{not json", encoding="utf-8")
        assert cache.get(spec.content_hash()) is None
        assert not path.exists()
