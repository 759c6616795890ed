"""Tests for the benchmark's own machinery: span arithmetic, percentiles,
wrapper installation, configuration pinning and tracing parity.

Run with ``python -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from perfbench.hostspeed import PAD_S, REFERENCE_S, HostSpeed
from perfbench.layers import (
    BOUNDARIES,
    LayerWrappers,
    SpanRecorder,
    _resolve,
    min_samples_for,
    nearest_rank,
    samples_beyond,
    spearman,
)
from perfbench.workloads import (
    PINNED_FIELDS,
    AdhocStale,
    ServerMixed,
    WriteStep,
    pinned_config,
)

ROOT = Path(__file__).resolve().parents[2]


class ScriptedClock:
    """A per-thread clock that returns scripted instants in call order."""

    def __init__(self) -> None:
        self._local = threading.local()

    def script(self, *instants: float) -> None:
        self._local.instants = list(instants)

    def __call__(self) -> float:
        return self._local.instants.pop(0)


def _nest(recorder: SpanRecorder) -> None:
    """root [0,10] > a [1,6] > b [2,4]; root > c [7,9]."""
    root = recorder.begin("other")
    a = recorder.begin("sql.parse")
    b = recorder.begin("optimizer.optimize")
    recorder.end(b)
    recorder.end(a)
    c = recorder.begin("executor.dispatch")
    recorder.end(c)
    recorder.end(root)


class TestSelfTime:
    def test_nested_spans(self):
        clock = ScriptedClock()
        recorder = SpanRecorder(clock)
        clock.script(0, 1, 2, 4, 6, 7, 9, 10)
        _nest(recorder)
        assert recorder.self_seconds() == {
            "other": 3.0, "sql.parse": 3.0, "optimizer.optimize": 2.0,
            "executor.dispatch": 2.0,
        }
        assert recorder.root_seconds() == 10.0
        assert sum(recorder.self_seconds().values()) == recorder.root_seconds()
        assert recorder.open_spans() == 0

    def test_two_threads_keep_separate_stacks(self):
        clock = ScriptedClock()
        recorder = SpanRecorder(clock)
        barrier = threading.Barrier(2)

        def client(offset: float) -> None:
            clock.script(*(offset + t for t in (0, 1, 2, 4, 6, 7, 9, 10)))
            barrier.wait(timeout=10)
            _nest(recorder)

        threads = [threading.Thread(target=client, args=(o,)) for o in (0.0, 0.5)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert recorder.self_seconds() == {
            "other": 6.0, "sql.parse": 6.0, "optimizer.optimize": 4.0,
            "executor.dispatch": 4.0,
        }
        assert recorder.root_seconds() == 20.0
        assert {event["tid"] for event in recorder.chrome_trace()["traceEvents"]} == {0, 1}

    def test_calls_under_decide_are_reattributed(self):
        clock = ScriptedClock()
        recorder = SpanRecorder(clock)
        clock.script(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)
        root = recorder.begin("other")
        decide = recorder.begin("core.decide")
        for name in ("optimizer.optimize", "sql.parse", "optimizer.annotate"):
            recorder.end(recorder.begin(name))
        memory = recorder.begin("executor.memory")
        recorder.end(memory)
        recorder.end(decide)
        recorder.end(root)
        assert recorder.self_seconds() == {
            "other": 2.0, "core.decide": 5.0, "core.replan": 1.0,
            "core.remainder": 1.0, "optimizer.annotate": 1.0, "executor.memory": 1.0,
        }

    def test_recursion_collapses_into_one_span(self):
        clock = ScriptedClock()
        recorder = SpanRecorder(clock)
        clock.script(0, 1, 3, 4)
        root = recorder.begin("other")
        outer = recorder.begin("optimizer.annotate")
        assert recorder.begin("optimizer.annotate") is None
        recorder.end(None)
        recorder.end(outer)
        recorder.end(root)
        assert recorder.calls()["optimizer.annotate"] == 1
        assert recorder.self_seconds()["optimizer.annotate"] == 2.0

    def test_out_of_order_end_is_an_error(self):
        recorder = SpanRecorder()
        outer = recorder.begin("other")
        recorder.begin("sql.parse")
        with pytest.raises(RuntimeError):
            recorder.end(outer)


class TestPercentiles:
    def test_nearest_rank(self):
        values = list(range(1, 101))
        assert nearest_rank(values, 90) == 90
        assert nearest_rank(values, 50) == 50
        assert nearest_rank(values, 100) == 100
        assert nearest_rank([3.0], 90) == 3.0
        # ceil(0.5 * 6) = 3: the third value, not the fourth.
        assert nearest_rank([6, 5, 4, 3, 2, 1], 50) == 3

    def test_ten_beyond_rule(self):
        assert samples_beyond(100, 90) == 10
        assert samples_beyond(99, 90) == 9
        assert min_samples_for(90) == 100
        assert min_samples_for(50) == 20
        assert samples_beyond(min_samples_for(90), 90) >= 10

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(ValueError):
            nearest_rank([], 50)
        with pytest.raises(ValueError):
            nearest_rank([1.0], 0)

    def test_spearman(self):
        assert spearman([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)
        assert spearman([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)
        assert spearman([1, 2, 2, 3], [1, 2, 3, 4]) == pytest.approx(0.9486833)
        assert spearman([1, 1, 1], [1, 2, 3]) == 0.0


class TestHostSpeed:
    def test_scale_uses_the_timings_near_the_interval(self):
        speed = HostSpeed()
        # A fast spell around t=10 s, a slow one around t=20 s.
        speed.samples = [(10.0, 0.002), (10.5, 0.002), (20.0, 0.008), (20.5, 0.008)]
        assert speed.scale(10.2, 10.3) == pytest.approx(REFERENCE_S / 0.002)
        assert speed.scale(20.1, 20.2) == pytest.approx(REFERENCE_S / 0.008)
        # Timings up to PAD_S outside the interval count for it.
        assert speed.kernel_s(10.5 + PAD_S, 18.0) == pytest.approx(0.002)
        # Nothing near: the whole run's median.
        assert speed.kernel_s(14.0, 15.0) == pytest.approx(0.005)

    def test_samples_while_entered_and_stops_on_exit(self):
        with HostSpeed() as speed:
            deadline = time.perf_counter() + 10
            while len(speed.samples) < 2 and time.perf_counter() < deadline:
                time.sleep(0.05)
        assert not speed._thread.is_alive()
        assert len(speed.samples) >= 2
        assert all(cpu_s > 0 for _, cpu_s in speed.samples)


def _bindings() -> dict:
    """Every name bound in a ``repro`` module or class, by object identity,
    plus the bytecode of every boundary's original function."""
    state = {}
    for name, module in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            for attr, value in vars(module).items():
                state[(name, attr)] = id(value)
                if isinstance(value, type):
                    for member, obj in vars(value).items():
                        state[(name, attr, member)] = id(obj)
    for boundary in BOUNDARIES:
        __, __, original = _resolve(boundary)
        state[("code", boundary.qualname)] = original.__code__.co_code
    return state


class TestWrappers:
    def test_installed_then_restored_exactly(self):
        import repro.engine.database as database
        import repro.engine.server  # noqa: F401 - imported so its bindings are checked
        from repro.optimizer.optimizer import Optimizer
        from repro.sql.parser import parse

        before = _bindings()
        with LayerWrappers(SpanRecorder()):
            assert database.parse is not parse
            assert database.parse.__wrapped__ is parse
            assert "optimize" in vars(Optimizer)
            assert Optimizer.optimize.__wrapped__.__name__ == "optimize"
        assert _bindings() == before
        assert database.parse is parse

    def test_restored_when_the_block_raises(self):
        before = _bindings()
        with pytest.raises(KeyError):
            with LayerWrappers(SpanRecorder()):
                raise KeyError("boom")
        assert _bindings() == before

    def test_every_boundary_resolves(self):
        for boundary in BOUNDARIES:
            __, __, original = _resolve(boundary)
            assert callable(original)


class TestPinnedConfig:
    ENV = {
        "REPRO_EXECUTION_MODE": "row",
        "REPRO_WORKERS": "3",
        "REPRO_PARALLEL_JOINS": "0",
        "REPRO_VECTOR_AGG": "0",
        "REPRO_ZONE_MAPS": "0",
        "REPRO_ZONE_MAP_COST": "free",
        "REPRO_TRACE": "1",
        "REPRO_SERVER": "1",
        "REPRO_MAX_SESSIONS": "2",
        "REPRO_SESSION_MEMORY": "static",
        "REPRO_SERVER_WORKER_MODE": "fork",
        "REPRO_FEEDBACK": "1",
        "REPRO_SLOW_QUERY": "0.5",
    }

    def test_environment_does_not_change_the_config(self, monkeypatch):
        clean = pinned_config()
        for name, value in self.ENV.items():
            monkeypatch.setenv(name, value)
        assert pinned_config() == clean
        assert pinned_config(server_memory_pages=3072).server_memory_pages == 3072

    def test_every_environment_default_is_pinned(self):
        import dataclasses
        import inspect

        from repro import EngineConfig

        from_env = {
            f.name
            for f in dataclasses.fields(EngineConfig)
            if inspect.isfunction(f.default_factory)
        }
        assert "execution_mode" in from_env
        assert from_env <= set(PINNED_FIELDS)


class TinyAdhoc(AdhocStale):
    scale_factor = 0.002


class TinyServer(ServerMixed):
    scale_factor = 0.002


@pytest.fixture(scope="module")
def tiny_adhoc():
    workload = TinyAdhoc(seed=5)
    return workload, workload.setup()


class TestTracedRuns:
    def test_tracing_changes_no_rows_and_no_cost(self, tiny_adhoc):
        from repro.observe.validate import validate_trace

        workload, db = tiny_adhoc
        plain = workload.run_pass(db, max_blocks=2)
        recorder = SpanRecorder()
        traced = workload.run_pass(db, max_blocks=2, recorder=recorder)
        assert [r.sql for r in plain.records] == [r.sql for r in traced.records]
        assert [r.rows for r in plain.records] == [r.rows for r in traced.records]
        assert [r.profile.total_cost for r in plain.records] == [
            r.profile.total_cost for r in traced.records
        ]
        assert not any(r.error for r in plain.records + traced.records)
        self_s = recorder.self_seconds()
        assert {"other", "sql.parse", "optimizer.optimize", "executor.dispatch"} <= set(self_s)
        assert sum(self_s.values()) == pytest.approx(recorder.root_seconds())
        assert recorder.calls()["other"] == len(traced.records) == 14
        assert validate_trace(recorder.chrome_trace()) == []

    def test_reference_check_flags_wrong_rows(self, tiny_adhoc):
        workload, db = tiny_adhoc
        result = workload.run_pass(db, max_blocks=1)
        workload.check(db, result.records)
        assert not any(r.error for r in result.records)
        result.records[0].rows = [("wrong",)]
        workload.check(db, result.records)
        assert "reference" in result.records[0].error

    def test_inputs_follow_the_seed(self):
        first = next(AdhocStale(1).blocks(0))
        assert first == next(AdhocStale(1).blocks(0))
        assert first != next(AdhocStale(2).blocks(0))
        writer = next(ServerMixed(1).blocks(1))
        assert [op for op in writer if isinstance(op, WriteStep)] == [
            op for op in next(ServerMixed(1).blocks(1)) if isinstance(op, WriteStep)
        ]
        assert not any(isinstance(op, WriteStep) for op in next(ServerMixed(1).blocks(0)))

    def test_server_pass_matches_its_serial_replay(self):
        workload = TinyServer(seed=3)
        db = workload.setup()
        result = workload.run_pass(db, max_blocks=1)
        assert len(result.records) == 7 + 9
        assert sum(r.step is not None for r in result.records) == 2
        workload.check(db, result.records)
        assert not any(r.error for r in result.records)
        assert {r.profile.session for r in result.records} == {"client-0", "client-1"}


def test_command_accepts_every_workload():
    from perfbench.run import WORKLOAD_NAMES
    from perfbench.workloads import WORKLOADS

    assert set(WORKLOAD_NAMES) == set(WORKLOADS)


def test_fails_without_the_engine_source(tmp_path):
    """Copied alone, the benchmark exits non-zero and prints no result."""
    import shutil

    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "report-repeat",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
