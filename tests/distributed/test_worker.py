"""Distributed worker loop: exactly-once execution, recovery, CLI parity.

The two-worker tests are the PR-4 acceptance criteria: a sweep split across
2+ workers over a shared store must produce a merged ResultSet bit-identical
(records and provenance hashes) to the single-engine serial run, with zero
duplicated point executions, and a worker killed mid-sweep must have its
leased points recovered after the lease ttl.
"""

import json
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api import Engine, ResultSet, SweepSpec, register_experiment, unregister_experiment
from repro.api.engine import cache_key
from repro.api.experiment import ParamSpec, get_experiment
from repro.dist import SharedStore, ShardPlan, run_worker

from store_contract import HARNESSES

SPEC = SweepSpec.grid(length_um=[1.0, 5.0, 10.0, 50.0, 100.0, 500.0])


class TestTwoWorkersRegistryDriven:
    """Registry-driven acceptance test against a real registered experiment."""

    def test_merged_equals_serial_with_zero_duplicates(self, tmp_path):
        serial = Engine().sweep("table_density", SPEC)
        store = SharedStore(str(tmp_path))

        with ThreadPoolExecutor(max_workers=2) as pool:
            reports = [
                future.result()
                for future in [
                    pool.submit(
                        run_worker,
                        "table_density",
                        SPEC,
                        store,
                        worker_id=f"w{i}",
                        poll_interval=0.01,
                    )
                    for i in range(2)
                ]
            ]

        # Zero duplicated executions: the executed sets are disjoint and
        # together cover the sweep exactly.
        executed = [set(report.executed) for report in reports]
        assert executed[0].isdisjoint(executed[1])
        assert sorted(executed[0] | executed[1]) == list(range(len(SPEC)))
        assert all(report.ok for report in reports)
        assert all(not report.failed and not report.abandoned for report in reports)

        # Bit-identical merged result: records and provenance hash.
        merged = Engine(store=store).sweep("table_density", SPEC)
        assert merged == serial
        assert merged.content_hash == serial.content_hash

    def test_worker_streams_on_result(self, tmp_path):
        store = SharedStore(str(tmp_path))
        seen = []
        report = run_worker(
            "table_density", SPEC, store, worker_id="w1", on_result=seen.append
        )
        assert sorted(point.index for point in seen) == list(range(len(SPEC)))
        assert all(point.ok and not point.cache_hit for point in seen)
        assert len(report.executed) == len(SPEC)

        # A second worker sees everything as already done -- streamed as
        # cache hits, exactly like the engine's iter_sweep.
        seen_again = []
        report2 = run_worker(
            "table_density", SPEC, store, worker_id="w2", on_result=seen_again.append
        )
        assert not report2.executed
        assert sorted(report2.already_done) == list(range(len(SPEC)))
        assert all(point.cache_hit for point in seen_again)


class TestWorkerRecovery:
    def test_killed_worker_leases_are_recovered(self, tmp_path):
        """A worker that died mid-point blocks only until its ttl lapses."""
        store = SharedStore(str(tmp_path))
        points = SPEC.points()
        # Simulate the kill: a dead worker claimed two points with a short
        # ttl and never published (its process is gone).
        engine = Engine(store=store)
        from repro.api.engine import cache_key
        from repro.api.experiment import get_experiment

        experiment = get_experiment("table_density")
        for point in points[:2]:
            resolved = experiment.resolve_params(point)
            path = store.entry_path(
                experiment.name,
                cache_key(experiment.name, experiment.version, resolved),
            )
            assert store.claim(path, "dead-worker", ttl=0.3) == "acquired"

        # A restarted worker waits the leases out and completes the sweep.
        report = run_worker(
            "table_density", SPEC, store, worker_id="w1", poll_interval=0.05
        )
        assert sorted(report.executed) == list(range(len(SPEC)))
        assert not report.abandoned

        serial = Engine().sweep("table_density", SPEC)
        merged = engine.sweep("table_density", SPEC)
        assert merged.content_hash == serial.content_hash

    def test_no_wait_abandons_foreign_leases(self, tmp_path):
        store = SharedStore(str(tmp_path))
        experiment_points = SPEC.points()
        from repro.api.engine import cache_key
        from repro.api.experiment import get_experiment

        experiment = get_experiment("table_density")
        resolved = experiment.resolve_params(experiment_points[0])
        path = store.entry_path(
            experiment.name, cache_key(experiment.name, experiment.version, resolved)
        )
        store.claim(path, "other-worker", ttl=60.0)

        report = run_worker(
            "table_density", SPEC, store, worker_id="w1", wait=False
        )
        assert report.abandoned == [0]
        assert sorted(report.executed) == list(range(1, len(SPEC)))
        # Handing leased points back to their live owners is the documented
        # success path of wait=False, not a failure.
        assert report.ok

    def test_max_wait_bounds_the_wait(self, tmp_path):
        store = SharedStore(str(tmp_path))
        from repro.api.engine import cache_key
        from repro.api.experiment import get_experiment

        experiment = get_experiment("table_density")
        resolved = experiment.resolve_params(SPEC.points()[0])
        path = store.entry_path(
            experiment.name, cache_key(experiment.name, experiment.version, resolved)
        )
        store.claim(path, "other-worker", ttl=120.0)
        report = run_worker(
            "table_density",
            SPEC,
            store,
            worker_id="w1",
            poll_interval=0.02,
            max_wait=0.1,
        )
        assert report.abandoned == [0]


class TestWorkerFailuresAndShards:
    @pytest.fixture
    def failing_experiment(self):
        @register_experiment(
            "dist_worker_failing",
            params=(ParamSpec("x", "float", 1.0, "input"),),
            replace=True,
        )
        def failing(x: float):
            if x == 2.0:
                raise RuntimeError("boom")
            return [{"x": x, "y": 2.0 * x}]

        yield "dist_worker_failing"
        unregister_experiment("dist_worker_failing")

    def test_failure_releases_lease_and_keeps_siblings(self, tmp_path, failing_experiment):
        store = SharedStore(str(tmp_path))
        spec = SweepSpec.grid(x=[1.0, 2.0, 3.0])
        seen = []
        report = run_worker(
            failing_experiment, spec, store, worker_id="w1", on_result=seen.append
        )
        assert report.failed == [1]
        assert sorted(report.executed) == [0, 2]
        assert not report.ok
        failed_point = next(point for point in seen if not point.ok)
        assert "RuntimeError: boom" in failed_point.error
        # The lease was released, so another worker may retry (and fail) it.
        report2 = run_worker(failing_experiment, spec, store, worker_id="w2")
        assert report2.failed == [1]
        assert sorted(report2.already_done) == [0, 2]

    def test_sharded_workers_split_statically(self, tmp_path):
        store = SharedStore(str(tmp_path))
        plans = ShardPlan.partition(2)
        reports = [
            run_worker(
                "table_density", SPEC, store, worker_id=f"w{i}", shard=plan
            )
            for i, plan in enumerate(plans)
        ]
        executed = [set(report.executed) for report in reports]
        assert executed[0].isdisjoint(executed[1])
        assert sorted(executed[0] | executed[1]) == list(range(len(SPEC)))
        for plan, report in zip(plans, reports):
            assert sorted(report.executed) == plan.indices(SPEC.points())


class TestWorkerCLI:
    """Two real OS processes through ``python -m repro worker``."""

    def _run_workers(self, store_dir: str, n: int = 2):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(os.getcwd(), "src")
        command = [
            sys.executable,
            "-m",
            "repro",
            "worker",
            "table_density",
            "--grid",
            "length_um=1,5,10,50,100,500",
            "--store",
            store_dir,
            "--no-progress",
        ]
        processes = [
            subprocess.Popen(
                command + ["--worker-id", f"cli-w{i}"],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                env=env,
            )
            for i in range(n)
        ]
        outputs = []
        for process in processes:
            stdout, stderr = process.communicate(timeout=120)
            assert process.returncode == 0, stderr
            outputs.append(stdout)
        return outputs

    def test_cli_merge_bad_parts_exit_cleanly(self, tmp_path, capsys):
        """Unreadable or non-ResultSet parts are user errors (exit 2), not tracebacks."""
        from repro.api.cli import main

        assert main(["merge", str(tmp_path / "missing.json")]) == 2
        assert "error: cannot read part" in capsys.readouterr().err

        bogus = tmp_path / "bogus.json"
        bogus.write_text('{"foo": 1}')
        assert main(["merge", str(bogus)]) == 2
        assert "not a ResultSet JSON export" in capsys.readouterr().err

    def test_cli_two_process_sweep_matches_serial(self, tmp_path):
        store_dir = str(tmp_path / "store")
        outputs = self._run_workers(store_dir)
        executed = sum(
            int(line.split("--")[1].split("executed")[0].strip())
            for output in outputs
            for line in output.splitlines()
            if "executed" in line and line.startswith("worker cli-w")
        )
        assert executed == len(SPEC), outputs

        serial = Engine().sweep("table_density", SPEC)
        merged = Engine(store=SharedStore(store_dir)).sweep("table_density", SPEC)
        assert merged.content_hash == serial.content_hash


@pytest.mark.parametrize("harness", HARNESSES, ids=lambda h: h.name)
class TestPassHeartbeat:
    def test_queued_leases_are_renewed_while_an_earlier_point_runs(
        self, harness, tmp_path
    ):
        """A pass leases several points before running the first; the
        heartbeat must renew the queued ones too, or a sibling re-claims
        them once the ttl lapses and the point executes twice."""
        ttl = 0.3
        store = harness.make(tmp_path)
        calls = []
        sibling = {}

        @register_experiment(
            "dist_worker_slow_first",
            params=(ParamSpec("x", "float", 1.0, "input"),),
            replace=True,
        )
        def slow_first(x: float):
            calls.append(x)
            if x == 1.0:
                time.sleep(1.5 * ttl)
                sibling["status"] = store.claim(sibling["path"], "sibling", ttl)
            return [{"x": x, "y": 2.0 * x}]

        try:
            experiment = get_experiment("dist_worker_slow_first")
            queued = experiment.resolve_params({"x": 2.0})
            sibling["path"] = store.entry_path(
                experiment.name,
                cache_key(experiment.name, experiment.version, queued),
            )
            spec = SweepSpec.grid(x=[1.0, 2.0, 3.0, 4.0])
            report = run_worker(
                experiment, spec, store, worker_id="owner", lease_ttl=ttl,
                poll_interval=0.01,
            )
        finally:
            unregister_experiment("dist_worker_slow_first")
        # x=1.0 and x=2.0 were leased in the same (first) pass.
        assert sibling["status"] == "busy"
        assert sorted(calls) == [1.0, 2.0, 3.0, 4.0]
        assert sorted(report.executed) == list(range(len(spec)))
