"""Morsel-driven parallel execution: parity, merges, determinism.

The contract under test (DESIGN.md section 8): ``execution_mode="parallel"``
is an implementation detail of the batch path — byte-identical result rows,
bit-for-bit identical simulated ``CostBreakdown`` and buffer statistics, and
(in the default exact statistics mode) bit-identical observed statistics,
for any worker count, on every TPC-D query.  Plus the mergeable-statistics
primitives the tentpole rides on: ``Reservoir.merge``, ``HybridDistinct``/
``FlajoletMartin.merge``, collector partials, and pickling.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro import Database, DynamicMode, EngineConfig
from repro.bench import ExperimentConfig, build_database
from repro.errors import ConfigError, MemoryGrantError, StatisticsError
from repro.executor import parallel as parallel_mod
from repro.executor.collector import RuntimeCollector
from repro.executor.dispatcher import Dispatcher
from repro.executor.memory import MemoryManager
from repro.executor.runtime import RuntimeContext
from repro.optimizer.cost_model import CostModel
from repro.stats.distinct import ExactDistinct, FlajoletMartin, HybridDistinct
from repro.stats.sampling import Reservoir
from repro.storage import BufferPool, CostClock, TempTableManager
from repro.workloads.tpcd import ALL_QUERIES


@pytest.fixture(scope="module")
def tpcd_db() -> Database:
    return build_database(ExperimentConfig(scale_factor=0.01))


def dispatch(db: Database, plan, execution_mode: str, workers: int = 0, stats: str = "exact"):
    """One dispatcher run on a fresh runtime context; returns (result, ctx)."""
    config = db.config.with_updates(
        execution_mode=execution_mode,
        parallel_workers=workers,
        parallel_stats=stats,
    )
    clock = CostClock(config.cost)
    pool = BufferPool(config.buffer_pool_pages, clock)
    ctx = RuntimeContext(
        catalog=db.catalog,
        config=config,
        clock=clock,
        buffer_pool=pool,
        temp_manager=TempTableManager(db.catalog, pool),
        cost_model=CostModel(config),
        memory_budget_pages=config.query_memory_pages,
    )
    try:
        result = Dispatcher(ctx).run(plan)
    finally:
        ctx.temp_manager.drop_all()
    return result, ctx


def assert_observed_equal(left: dict, right: dict) -> None:
    """Collector-output equality (histograms compared by kind + buckets)."""
    assert set(left) == set(right)
    for node_id, a in left.items():
        b = right[node_id]
        assert a.row_count == b.row_count
        assert a.row_bytes == b.row_bytes
        assert dict(a.minmax) == dict(b.minmax)
        assert dict(a.distincts) == dict(b.distincts)
        assert set(a.histograms) == set(b.histograms)
        for column, ha in a.histograms.items():
            hb = b.histograms[column]
            assert ha.kind == hb.kind
            assert ha.buckets == hb.buckets


# ----------------------------------------------------------------------
# Mergeable statistics primitives
# ----------------------------------------------------------------------


class TestReservoirMerge:
    def test_exhaustive_merge_is_concatenation(self):
        a = Reservoir(100, seed=1)
        b = Reservoir(100, seed=2)
        a.extend(range(10))
        b.extend(range(10, 30))
        a.merge(b)
        assert a.seen == 30
        assert a.is_exhaustive
        assert sorted(a.sample) == list(range(30))

    def test_merge_into_empty_adopts_other(self):
        a = Reservoir(10, seed=1)
        b = Reservoir(10, seed=2)
        b.extend(range(50))
        a.merge(b)
        assert a.seen == 50
        assert sorted(a.sample) == sorted(b.sample)

    def test_merge_empty_other_is_noop(self):
        a = Reservoir(10, seed=1)
        a.extend(range(5))
        before = a.sample
        a.merge(Reservoir(10, seed=9))
        assert a.sample == before and a.seen == 5

    def test_merged_capacity_and_seen(self):
        a = Reservoir(64, seed=1)
        b = Reservoir(64, seed=2)
        a.extend(range(1000))
        b.extend(range(1000, 3000))
        a.merge(b)
        assert a.seen == 3000
        assert len(a.sample) == 64
        assert all(0 <= v < 3000 for v in a.sample)

    def test_capacity_mismatch_rejected(self):
        other = Reservoir(16, seed=1)
        other.extend(range(4))
        with pytest.raises(StatisticsError):
            Reservoir(8, seed=1).merge(other)

    def test_merge_is_deterministic_given_rng(self):
        def merged() -> tuple:
            a = Reservoir(32, seed=5)
            b = Reservoir(32, seed=6)
            a.extend(range(200))
            b.extend(range(200, 500))
            a.merge(b, rng=random.Random(42))
            return a.sample

        assert merged() == merged()

    def test_merge_draws_proportionally(self):
        # 3x the population on one side should yield roughly 3x the sample
        # share — a loose bound, deterministic under the fixed seed.
        rng = random.Random(7)
        from_b = 0
        for trial in range(200):
            a = Reservoir(32, seed=trial)
            b = Reservoir(32, seed=1000 + trial)
            a.extend(range(100))
            b.extend(range(1000, 1300))
            a.merge(b, rng=rng)
            from_b += sum(1 for v in a.sample if v >= 1000)
        share = from_b / (200 * 32)
        assert 0.65 < share < 0.85

    def test_pickle_roundtrip_preserves_rng_stream(self):
        a = Reservoir(16, seed=3)
        a.extend(range(100))
        clone = pickle.loads(pickle.dumps(a))
        assert clone.sample == a.sample and clone.seen == a.seen
        a.extend(range(100, 200))
        clone.extend(range(100, 200))
        assert clone.sample == a.sample


class TestDistinctMerge:
    def test_fm_merge_equals_serial(self):
        serial = FlajoletMartin(seed=9)
        left = FlajoletMartin(seed=9)
        right = FlajoletMartin(seed=9)
        values = [f"v{i}" for i in range(5000)]
        serial.extend(values)
        left.extend(values[:2000])
        right.extend(values[2000:])
        left.merge(right)
        assert left._bitmaps == serial._bitmaps
        assert left.estimate() == serial.estimate()

    def test_fm_merge_rejects_mismatched_geometry(self):
        with pytest.raises(StatisticsError):
            FlajoletMartin(num_maps=64, seed=1).merge(FlajoletMartin(num_maps=32, seed=1))
        with pytest.raises(StatisticsError):
            FlajoletMartin(seed=1).merge(FlajoletMartin(seed=2))

    def test_exact_distinct_merge(self):
        a, b = ExactDistinct(), ExactDistinct()
        a.extend([1, 2, 3])
        b.extend([3, 4])
        a.merge(b)
        assert a.estimate() == 4.0

    def test_hybrid_merge_matches_serial_exact_regime(self):
        serial = HybridDistinct(seed=4, threshold=1000)
        left = HybridDistinct(seed=4, threshold=1000)
        right = HybridDistinct(seed=4, threshold=1000)
        serial.add_batch(list(range(300)))
        left.add_batch(list(range(200)))
        right.add_batch(list(range(100, 300)))
        left.merge(right)
        assert left.estimate() == serial.estimate() == 300.0

    def test_hybrid_merge_matches_serial_sketch_regime(self):
        serial = HybridDistinct(seed=4, threshold=64)
        left = HybridDistinct(seed=4, threshold=64)
        right = HybridDistinct(seed=4, threshold=64)
        values = list(range(10_000))
        serial.add_batch(values)
        left.add_batch(values[:5000])
        right.add_batch(values[5000:])
        left.merge(right)
        # Union exceeds the threshold, so the merged counter trusts the
        # sketch — whose bitmaps equal the serial counter's exactly.
        assert left.estimate() == serial.estimate()

    def test_hybrid_pickle_roundtrip(self):
        h = HybridDistinct(seed=11, threshold=10)
        h.add_batch(list(range(50)))
        clone = pickle.loads(pickle.dumps(h))
        assert clone.estimate() == h.estimate()
        clone.add(999)
        h.add(999)
        assert clone.estimate() == h.estimate()


class TestSplitGrant:
    def test_shares_sum_to_grant(self):
        shares = MemoryManager.split_grant(103, 4)
        assert sum(shares) == 103
        assert max(shares) - min(shares) <= 1

    def test_zero_pages(self):
        assert MemoryManager.split_grant(0, 3) == [0, 0, 0]

    def test_invalid_partitions(self):
        with pytest.raises(MemoryGrantError):
            MemoryManager.split_grant(10, 0)


# ----------------------------------------------------------------------
# Collector partials
# ----------------------------------------------------------------------


def _collector_inputs(db: Database):
    """A TPC-D plan's first collector node plus its observed input rows."""
    q = next(q for q in ALL_QUERIES if q.name == "Q3")
    plan, scia, __opt = db.plan(q.sql, mode=DynamicMode.FULL)
    assert scia is not None and scia.collector_points > 0
    __, ctx = dispatch(db, plan, "batch")
    node_id = sorted(ctx.observed)[0]

    def find(node):
        if node.node_id == node_id:
            return node
        for child in node.children:
            found = find(child)
            if found is not None:
                return found
        return None

    return find(plan)


class TestCollectorPartials:
    def test_absorbed_partials_match_serial_collector(self, tpcd_db):
        node = _collector_inputs(tpcd_db)
        table = tpcd_db.table("lineitem")
        rows = table.rows[: 20_000]
        config = tpcd_db.config
        serial = RuntimeCollector(node, node.child.schema, config)
        for start in range(0, len(rows), 1024):
            serial.observe_batch(rows[start : start + 1024])

        merged = RuntimeCollector(node, node.child.schema, config)
        morsel_size = 4096
        for start in range(0, len(rows), morsel_size):
            chunk = rows[start : start + morsel_size]
            worker = RuntimeCollector(
                node, node.child.schema, config, collect_reservoirs=False
            )
            worker.observe_batch(chunk)
            merged.absorb_partial(pickle.loads(pickle.dumps(worker.export_partial())))
            merged.replay_reservoirs(chunk)
        # Exact mode: every statistic, histograms included, is bit-equal.
        a, b = serial.finalize(), merged.finalize()
        assert_observed_equal({0: a}, {0: b})

    def test_merge_mode_partials_are_chunking_independent(self, tpcd_db):
        node = _collector_inputs(tpcd_db)
        table = tpcd_db.table("lineitem")
        rows = table.rows[: 20_000]
        config = tpcd_db.config

        def run(morsel_size: int):
            merged = RuntimeCollector(node, node.child.schema, config)
            for index, start in enumerate(range(0, len(rows), morsel_size)):
                chunk = rows[start : start + morsel_size]
                worker = RuntimeCollector(
                    node,
                    node.child.schema,
                    config,
                    reservoir_seed=parallel_mod._morsel_seed(config.seed, index),
                )
                worker.observe_batch(chunk)
                merged.absorb_partial(worker.export_partial())
            return merged.finalize()

        # Identical morsel structure must give identical output however the
        # morsels were scheduled — absorb order is morsel order by design —
        # and count/size/minmax/distincts are exact regardless of chunking.
        a, b = run(4096), run(4096)
        assert_observed_equal({0: a}, {0: b})
        c = run(2048)
        assert a.row_count == c.row_count
        assert dict(a.minmax) == dict(c.minmax)
        assert dict(a.distincts) == dict(c.distincts)


# ----------------------------------------------------------------------
# Page groups mirror the serial scan's batch boundaries
# ----------------------------------------------------------------------


class TestPageGroups:
    def test_groups_cover_table_exactly(self, tpcd_db):
        for name in ("lineitem", "orders", "customer"):
            table = tpcd_db.table(name)
            groups = parallel_mod._page_groups(table, 1024)
            assert groups[0][0] == 0
            assert groups[-1][1] == table.page_count
            for (__, a_end), (b_start, __b) in zip(groups, groups[1:]):
                assert a_end == b_start

    def test_groups_match_serial_batch_boundaries(self, tpcd_db):
        table = tpcd_db.table("orders")
        batch_size = 1024
        per_page = table.rows_per_page
        groups = parallel_mod._page_groups(table, batch_size)
        # Reconstruct the serial scan's yields from the geometry.
        serial_batches = []
        batch = 0
        for page_no in range(table.page_count):
            batch += min(per_page, table.row_count - page_no * per_page)
            if batch >= batch_size:
                serial_batches.append(batch)
                batch = 0
        if batch:
            serial_batches.append(batch)
        group_rows = [
            min(last * per_page, table.row_count) - first * per_page
            for first, last in groups
        ]
        assert group_rows == serial_batches

    def test_morsels_align_with_group_boundaries(self, tpcd_db):
        table = tpcd_db.table("lineitem")
        groups = parallel_mod._page_groups(table, 1024)
        morsels = parallel_mod._group_morsels(groups, 64)
        assert morsels[0][0] == 0
        assert morsels[-1][1] == len(groups)
        for (__, a_end), (b_start, __b) in zip(morsels, morsels[1:]):
            assert a_end == b_start
        spans = [groups[last - 1][1] - groups[first][0] for first, last in morsels]
        assert all(s >= 64 for s in spans[:-1])


# ----------------------------------------------------------------------
# Executor parity: parallel vs batch on every TPC-D query
# ----------------------------------------------------------------------


class TestParallelParity:
    @pytest.mark.parametrize("query", ALL_QUERIES, ids=lambda q: q.name)
    def test_bit_identical_to_batch(self, tpcd_db, query):
        plan, __scia, __opt = tpcd_db.plan(query.sql, mode=DynamicMode.FULL)
        batch_result, batch_ctx = dispatch(tpcd_db, plan, "batch")
        par_result, par_ctx = dispatch(tpcd_db, plan, "parallel", workers=2)
        assert par_result.rows == batch_result.rows
        assert par_ctx.clock.breakdown == batch_ctx.clock.breakdown
        assert par_ctx.clock.now == batch_ctx.clock.now
        assert par_ctx.buffer_pool.stats == batch_ctx.buffer_pool.stats
        assert par_ctx.switches == batch_ctx.switches
        assert par_ctx.reallocations == batch_ctx.reallocations
        assert_observed_equal(par_ctx.observed, batch_ctx.observed)

    @pytest.mark.parametrize("query_name", ["Q3", "Q6"])
    def test_worker_count_invariance(self, tpcd_db, query_name):
        query = next(q for q in ALL_QUERIES if q.name == query_name)
        plan, __scia, __opt = tpcd_db.plan(query.sql, mode=DynamicMode.FULL)
        reference, ref_ctx = dispatch(tpcd_db, plan, "parallel", workers=1)
        for workers in (2, 7):
            result, ctx = dispatch(tpcd_db, plan, "parallel", workers=workers)
            assert result.rows == reference.rows
            assert ctx.clock.breakdown == ref_ctx.clock.breakdown
            assert_observed_equal(ctx.observed, ref_ctx.observed)

    @pytest.mark.parametrize("query_name", ["Q3", "Q6"])
    def test_merge_stats_schedule_independent(self, tpcd_db, query_name):
        query = next(q for q in ALL_QUERIES if q.name == query_name)
        plan, __scia, __opt = tpcd_db.plan(query.sql, mode=DynamicMode.FULL)
        reference, ref_ctx = dispatch(tpcd_db, plan, "parallel", workers=1, stats="merge")
        for workers in (2, 7):
            result, ctx = dispatch(
                tpcd_db, plan, "parallel", workers=workers, stats="merge"
            )
            assert result.rows == reference.rows
            assert ctx.clock.breakdown == ref_ctx.clock.breakdown
            assert_observed_equal(ctx.observed, ref_ctx.observed)

    def test_parallel_pipelines_actually_ran(self, tpcd_db):
        query = next(q for q in ALL_QUERIES if q.name == "Q6")
        plan, __scia, __opt = tpcd_db.plan(query.sql, mode=DynamicMode.FULL)
        __, ctx = dispatch(tpcd_db, plan, "parallel", workers=2)
        assert ctx.parallel.pipelines >= 1
        assert ctx.parallel.morsels >= 2
        assert ctx.parallel.workers == 2
        assert sum(ctx.parallel.worker_seconds.values()) > 0.0


class TestEngineIntegration:
    def test_execute_parallel_profile_fields(self, tpcd_db):
        query = next(q for q in ALL_QUERIES if q.name == "Q6")
        batch = tpcd_db.execute(query.sql, mode=DynamicMode.FULL, execution_mode="batch")
        par = tpcd_db.execute(
            query.sql, mode=DynamicMode.FULL, execution_mode="parallel", workers=2
        )
        assert par.rows == batch.rows
        assert par.profile.total_cost == batch.profile.total_cost
        assert par.profile.breakdown == batch.profile.breakdown
        assert par.profile.workers == 2
        assert par.profile.morsels >= 2
        assert par.profile.parallel_pipelines >= 1
        assert par.profile.worker_wall_s
        assert batch.profile.workers == 0 and batch.profile.morsels == 0

    def test_switch_queries_survive_parallel(self, tpcd_db):
        # Q5 and Q8 re-optimize mid-query at this scale; the parallel path
        # must reproduce the switch and the final profile exactly.
        for name in ("Q5", "Q8"):
            query = next(q for q in ALL_QUERIES if q.name == name)
            batch = tpcd_db.execute(query.sql, mode=DynamicMode.FULL, execution_mode="batch")
            par = tpcd_db.execute(
                query.sql, mode=DynamicMode.FULL, execution_mode="parallel", workers=2
            )
            assert par.rows == batch.rows
            assert par.profile.plan_switches == batch.profile.plan_switches
            assert par.profile.total_cost == batch.profile.total_cost

    def test_serial_fallback_without_fork(self, tpcd_db, monkeypatch):
        monkeypatch.setattr(parallel_mod, "_fork_available", lambda: False)
        query = next(q for q in ALL_QUERIES if q.name == "Q6")
        plan, __scia, __opt = tpcd_db.plan(query.sql, mode=DynamicMode.FULL)
        batch_result, batch_ctx = dispatch(tpcd_db, plan, "batch")
        with pytest.warns(RuntimeWarning, match="fork"):
            par_result, par_ctx = dispatch(tpcd_db, plan, "parallel", workers=4)
        assert par_result.rows == batch_result.rows
        assert par_ctx.clock.breakdown == batch_ctx.clock.breakdown
        assert par_ctx.parallel.workers == 1
        assert par_ctx.parallel.fallback_warned

    def test_concurrent_sessions_keep_their_own_pipelines(self):
        """Two server sessions forking morsel workers at the same time.

        Each pipeline reaches its forked workers as a process argument; a
        process-wide slot let one session's workers run the other's
        pipeline (an IndexError on its morsel list, or no runner at all).
        """
        from repro.workloads import (
            assert_parity,
            build_tpcd_scripts,
            run_concurrent,
            run_serial,
        )
        from repro.workloads.tpcd import generate_tpcd

        experiment = ExperimentConfig(scale_factor=0.002, seed=7)
        db = Database(
            experiment.engine_config().with_updates(
                execution_mode="parallel", parallel_workers=2
            )
        )
        generate_tpcd(db, experiment.tpcd_config())
        scripts = build_tpcd_scripts(sessions=2, statements_per_session=6, seed=3)
        serial_rows, __ = run_serial(db, scripts)
        assert_parity(serial_rows, run_concurrent(db.server, scripts))

    def test_small_tables_stay_serial(self):
        db = Database()
        db.create_table("t", [("k", __import__("repro").DataType.INTEGER)])
        db.load_rows("t", [(i,) for i in range(100)])
        db.analyze()
        result = db.execute(
            "SELECT k FROM t WHERE k < 50", execution_mode="parallel", workers=4
        )
        assert result.profile.parallel_pipelines == 0
        assert len(result.rows) == 50


class TestParallelConfig:
    def test_parallel_mode_accepted(self):
        EngineConfig(execution_mode="parallel").validate()

    def test_parallel_knobs_validated(self):
        with pytest.raises(ConfigError):
            EngineConfig(parallel_workers=-1).validate()
        with pytest.raises(ConfigError):
            EngineConfig(morsel_pages=0).validate()
        with pytest.raises(ConfigError):
            EngineConfig(parallel_min_morsels=0).validate()
        with pytest.raises(ConfigError):
            EngineConfig(parallel_stats="sampled").validate()

    def test_env_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTION_MODE", "parallel")
        monkeypatch.setenv("REPRO_WORKERS", "3")
        config = EngineConfig()
        assert config.execution_mode == "parallel"
        assert config.parallel_workers == 3
        monkeypatch.setenv("REPRO_WORKERS", "not-a-number")
        assert EngineConfig().parallel_workers == 0
