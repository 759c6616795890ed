"""Tests for cardinality/selectivity estimation over RelProfiles."""

import dataclasses
import pickle
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro import DynamicMode
from repro.plans.logical import (
    AndPredicate,
    ColumnExpr,
    CompareOp,
    Comparison,
    ConstExpr,
    FuncExpr,
    InPredicate,
    NotPredicate,
    OrPredicate,
)
from repro.stats.estimator import (
    DEFAULT_EQ_SELECTIVITY,
    DEFAULT_RANGE_SELECTIVITY,
    MIN_ROWS,
    Estimator,
    LazyColumns,
    RelProfile,
    _restrict_column,
    _scale_column,
    profile_from_table_stats,
)
from repro.stats.histogram import Bucket, Histogram, HistogramKind
from repro.stats.table_stats import compute_table_stats
from repro.storage import Column, DataType, Schema, Table


def make_profile(rows=1000, domain=100, alias="t"):
    """A profile for a table with columns a (uniform 0..domain-1) and s."""
    schema = Schema(
        [
            Column("id", DataType.INTEGER),
            Column("a", DataType.INTEGER),
            Column("s", DataType.STRING),
        ]
    )
    table = Table("t", schema, 4096)
    table.append_rows([(i, i % domain, f"s{i % 7}") for i in range(rows)])
    stats = compute_table_stats(table, key_columns=["id"])
    return profile_from_table_stats(stats, alias)


def col(name):
    return ColumnExpr(name)


def const(value):
    return ConstExpr(value)


class TestSelectivity:
    def setup_method(self):
        self.estimator = Estimator()
        self.profile = make_profile()

    def test_eq_with_histogram(self):
        pred = Comparison(CompareOp.EQ, col("t.a"), const(5))
        sel = self.estimator.selectivity(pred, self.profile)
        assert sel == pytest.approx(1 / 100, rel=0.2)

    def test_range_with_histogram(self):
        pred = Comparison(CompareOp.LT, col("t.a"), const(50))
        sel = self.estimator.selectivity(pred, self.profile)
        assert sel == pytest.approx(0.5, abs=0.1)

    def test_ne(self):
        pred = Comparison(CompareOp.NE, col("t.a"), const(5))
        sel = self.estimator.selectivity(pred, self.profile)
        assert sel == pytest.approx(0.99, abs=0.02)

    def test_string_eq_uses_distinct(self):
        pred = Comparison(CompareOp.EQ, col("t.s"), const("s3"))
        sel = self.estimator.selectivity(pred, self.profile)
        assert sel == pytest.approx(1 / 7, rel=0.01)

    def test_parameter_based_uses_defaults(self):
        # The actual value (90) would give 0.9 selectivity; the estimator
        # must ignore it because it came from a host variable.
        pred = Comparison(CompareOp.LT, col("t.a"), const(90), param_based=True)
        sel = self.estimator.selectivity(pred, self.profile)
        assert sel == pytest.approx(DEFAULT_RANGE_SELECTIVITY)

    def test_udf_uses_defaults(self):
        fn = FuncExpr("f", lambda x: x, (col("t.a"),))
        pred = Comparison(CompareOp.EQ, fn, const(1))
        sel = self.estimator.selectivity(pred, self.profile)
        assert sel == pytest.approx(DEFAULT_EQ_SELECTIVITY)

    def test_unknown_column_uses_defaults(self):
        profile = RelProfile(rows=100, row_bytes=10, columns={}, aliases=frozenset({"t"}))
        pred = Comparison(CompareOp.EQ, col("t.x"), const(1))
        assert self.estimator.selectivity(pred, profile) == DEFAULT_EQ_SELECTIVITY

    def test_in_sums_equalities(self):
        pred = InPredicate(col("t.a"), (1, 2, 3))
        sel = self.estimator.selectivity(pred, self.profile)
        assert sel == pytest.approx(3 / 100, rel=0.2)

    def test_or_combines_independently(self):
        p1 = Comparison(CompareOp.EQ, col("t.a"), const(1))
        p2 = Comparison(CompareOp.EQ, col("t.a"), const(2))
        sel = self.estimator.selectivity(OrPredicate((p1, p2)), self.profile)
        assert sel == pytest.approx(1 - (1 - 0.01) ** 2, rel=0.2)

    def test_and_multiplies(self):
        p1 = Comparison(CompareOp.LT, col("t.a"), const(50))
        p2 = Comparison(CompareOp.GE, col("t.a"), const(0))
        sel = self.estimator.selectivity(AndPredicate((p1, p2)), self.profile)
        assert 0 < sel <= 0.6

    def test_not_complements(self):
        inner = Comparison(CompareOp.LT, col("t.a"), const(50))
        sel_inner = self.estimator.selectivity(inner, self.profile)
        sel_not = self.estimator.selectivity(NotPredicate(inner), self.profile)
        assert sel_not == pytest.approx(1 - sel_inner)

    def test_out_of_domain_range(self):
        pred = Comparison(CompareOp.GT, col("t.a"), const(1000))
        assert self.estimator.selectivity(pred, self.profile) == 0.0

    @given(st.integers(min_value=-50, max_value=150))
    @settings(max_examples=30, deadline=None)
    def test_property_selectivity_bounded(self, value):
        estimator = Estimator()
        profile = make_profile()
        for op in CompareOp:
            pred = Comparison(op, col("t.a"), const(value))
            assert 0.0 <= estimator.selectivity(pred, profile) <= 1.0


class TestApplyPredicates:
    def setup_method(self):
        self.estimator = Estimator()
        self.profile = make_profile()

    def test_rows_scaled(self):
        pred = Comparison(CompareOp.LT, col("t.a"), const(10))
        new_profile, sel = self.estimator.apply_predicates(self.profile, [pred])
        assert new_profile.rows == pytest.approx(self.profile.rows * sel)

    def test_restricted_column_narrowed(self):
        pred = Comparison(CompareOp.LT, col("t.a"), const(10))
        new_profile, __ = self.estimator.apply_predicates(self.profile, [pred])
        stats = new_profile.column("t.a")
        assert stats.max_value <= 10
        assert stats.distinct <= 12

    def test_eq_pins_distinct_to_one(self):
        pred = Comparison(CompareOp.EQ, col("t.a"), const(5))
        new_profile, __ = self.estimator.apply_predicates(self.profile, [pred])
        assert new_profile.column("t.a").distinct == 1.0

    def test_other_columns_scaled(self):
        pred = Comparison(CompareOp.EQ, col("t.a"), const(5))
        new_profile, __ = self.estimator.apply_predicates(self.profile, [pred])
        id_stats = new_profile.column("t.id")
        assert id_stats.count == pytest.approx(new_profile.rows)
        assert id_stats.distinct <= new_profile.rows

    def test_independence_assumption_compounds(self):
        # Two predicates on the same uniform column multiply, illustrating
        # the correlation blindness the paper exploits.
        p1 = Comparison(CompareOp.LT, col("t.a"), const(50))
        p2 = Comparison(CompareOp.GE, col("t.a"), const(0))
        __, sel = self.estimator.apply_predicates(self.profile, [p1, p2])
        s1 = self.estimator.selectivity(p1, self.profile)
        s2 = self.estimator.selectivity(p2, self.profile)
        assert sel == pytest.approx(s1 * s2, rel=0.01)

    def test_rows_never_below_floor(self):
        preds = [
            Comparison(CompareOp.EQ, col("t.a"), const(1)),
            Comparison(CompareOp.EQ, col("t.a"), const(2)),
            Comparison(CompareOp.EQ, col("t.a"), const(3)),
        ]
        new_profile, __ = self.estimator.apply_predicates(self.profile, preds)
        assert new_profile.rows >= 1.0


class TestJoinEstimation:
    def setup_method(self):
        self.estimator = Estimator()

    def test_key_fk_join_close_to_fk_size(self):
        key_side = make_profile(rows=100, domain=100, alias="d")
        fk_side = make_profile(rows=5000, domain=100, alias="f")
        __, card = self.estimator.join(
            key_side, fk_side, [("d.a", "f.a")]
        )
        assert card == pytest.approx(5000, rel=0.5)

    def test_join_bounded_by_cross_product(self):
        a = make_profile(rows=50, alias="a")
        b = make_profile(rows=70, alias="b")
        __, card = self.estimator.join(a, b, [("a.a", "b.a")])
        assert card <= 50 * 70

    def test_multiple_key_pairs_reduce_cardinality(self):
        a = make_profile(rows=1000, alias="a")
        b = make_profile(rows=1000, alias="b")
        __, single = self.estimator.join(a, b, [("a.a", "b.a")])
        __, double = self.estimator.join(
            a, b, [("a.a", "b.a"), ("a.id", "b.id")]
        )
        assert double < single

    def test_cross_join(self):
        a = make_profile(rows=10, alias="a")
        b = make_profile(rows=20, alias="b")
        __, card = self.estimator.join(a, b, [])
        assert card == pytest.approx(200)

    def test_residual_predicates_reduce(self):
        a = make_profile(rows=100, alias="a")
        b = make_profile(rows=100, alias="b")
        residual = [Comparison(CompareOp.LT, col("a.a"), const(10))]
        __, with_residual = self.estimator.join(a, b, [("a.id", "b.id")], residual)
        __, without = self.estimator.join(a, b, [("a.id", "b.id")])
        assert with_residual < without

    def test_joined_profile_merges_columns(self):
        a = make_profile(rows=100, alias="a")
        b = make_profile(rows=100, alias="b")
        joined, __ = self.estimator.join(a, b, [("a.id", "b.id")])
        assert joined.column("a.a") is not None
        assert joined.column("b.a") is not None
        assert joined.aliases == frozenset({"a", "b"})
        assert joined.row_bytes == a.row_bytes + b.row_bytes


class TestGroupCount:
    def test_no_groups_is_one(self):
        estimator = Estimator()
        assert estimator.group_count(make_profile(), []) == 1.0

    def test_single_column(self):
        estimator = Estimator()
        profile = make_profile(rows=1000, domain=25)
        assert estimator.group_count(profile, ["t.a"]) == pytest.approx(25, rel=0.1)

    def test_product_capped_by_rows(self):
        estimator = Estimator()
        profile = make_profile(rows=50, domain=100)
        groups = estimator.group_count(profile, ["t.a", "t.id"])
        assert groups <= 50


class TestRelProfile:
    def test_pages(self):
        profile = RelProfile(rows=1000, row_bytes=40)
        assert profile.pages(4096) == pytest.approx(-(-1000 // (4096 // 40)))
        assert RelProfile(rows=0, row_bytes=40).pages(4096) == 0.0

    def test_distinct_default(self):
        profile = RelProfile(rows=1000, row_bytes=40)
        assert profile.distinct_of("t.x") == pytest.approx(100)

    def test_profile_from_table_stats_qualifies(self):
        profile = make_profile(alias="q")
        assert "q.a" in profile.columns
        assert profile.column("q.a").name == "q.a"


# ----------------------------------------------------------------------
# Lazy column propagation parity
# ----------------------------------------------------------------------
#
# The functions below are the eager propagation the estimator used before
# columns became lazy: every column of every input rescaled on the spot.
# The lazy mapping must reproduce them key by key, value by value and in
# iteration order.


def eager_apply_predicates(estimator, profile, predicates):
    selectivity = 1.0
    columns = dict(profile.columns)
    restricted = set()
    for pred in predicates:
        selectivity *= estimator.selectivity(pred, profile)
        target = estimator._restriction_target(pred)
        if target is not None:
            column, op, value = target
            stats = columns.get(column)
            if stats is not None:
                columns[column] = _restrict_column(stats, op, value)
                restricted.add(column)
    selectivity = max(0.0, min(1.0, selectivity))
    new_rows = max(MIN_ROWS, profile.rows * selectivity)
    scale = new_rows / max(profile.rows, 1.0)
    final = {}
    for name, stats in columns.items():
        if name in restricted:
            final[name] = dataclasses.replace(stats, count=new_rows)
        else:
            final[name] = _scale_column(stats, scale, new_rows)
    return (
        RelProfile(
            rows=new_rows,
            row_bytes=profile.row_bytes,
            columns=final,
            aliases=profile.aliases,
        ),
        selectivity,
    )


def eager_joined_profile(estimator, left, right, cardinality):
    columns = {}
    for side in (left, right):
        scale = cardinality / max(side.rows, 1.0)
        for name, stats in side.columns.items():
            columns[name] = _scale_column(stats, min(scale, 1.0), cardinality)
    return RelProfile(
        rows=cardinality,
        row_bytes=left.row_bytes + right.row_bytes,
        columns=columns,
        aliases=left.aliases | right.aliases,
    )


@pytest.fixture
def eager_estimator(monkeypatch):
    """Switch :class:`Estimator` back to eager column propagation."""

    def use_eager():
        monkeypatch.setattr(Estimator, "apply_predicates", eager_apply_predicates)
        monkeypatch.setattr(Estimator, "_joined_profile", eager_joined_profile)

    return use_eager


def column_key(stats):
    """A column's statistics as comparable values (histograms have no ==)."""
    histogram = stats.histogram
    shape = None if histogram is None else (histogram.kind, histogram.buckets)
    return dataclasses.replace(stats, histogram=None), shape


def columns_key(columns):
    return [(name, column_key(stats)) for name, stats in columns.items()]


def assert_same_columns(lazy, eager):
    """Equal key by key, in iteration order, through every read path."""
    assert isinstance(eager, dict)
    assert list(lazy) == list(eager)
    assert len(lazy) == len(eager)
    for name in eager:
        assert name in lazy
        assert column_key(lazy.get(name)) == column_key(eager[name])
        assert column_key(lazy[name]) == column_key(eager[name])
    assert "no.such_column" not in lazy
    assert lazy.get("no.such_column") is None
    assert columns_key(lazy) == columns_key(eager)


MIXED_PREDICATES = [
    Comparison(CompareOp.LT, col("t.a"), const(60)),
    Comparison(CompareOp.GE, col("t.a"), const(10)),  # second restriction of t.a
    Comparison(CompareOp.EQ, col("t.s"), const("s3")),
    Comparison(CompareOp.NE, col("t.id"), const(4)),
    Comparison(CompareOp.LT, col("t.id"), const(500), param_based=True),
]


class TestLazyColumns:
    def test_apply_predicates_matches_eager(self):
        estimator = Estimator()
        profile = make_profile()
        for count in range(len(MIXED_PREDICATES) + 1):
            preds = MIXED_PREDICATES[:count]
            lazy, lazy_sel = estimator.apply_predicates(profile, preds)
            eager, eager_sel = eager_apply_predicates(estimator, profile, preds)
            assert lazy_sel == eager_sel
            assert (lazy.rows, lazy.row_bytes, lazy.aliases) == (
                eager.rows, eager.row_bytes, eager.aliases
            )
            assert isinstance(lazy.columns, LazyColumns)
            assert_same_columns(lazy.columns, eager.columns)

    def test_join_chain_matches_eager(self):
        """Joins and filters stacked on lazy inputs, with residuals."""
        estimator = Estimator()
        a = make_profile(rows=300, domain=30, alias="a")
        b = make_profile(rows=2000, domain=30, alias="b")
        c = make_profile(rows=50, domain=30, alias="c")
        residual = [Comparison(CompareOp.LT, col("b.a"), const(20))]
        joined, card = estimator.join(a, b, [("a.a", "b.a")])
        eager_joined = eager_joined_profile(estimator, a, b, card)
        assert_same_columns(joined.columns, eager_joined.columns)
        lazy_ab, card = estimator.join(a, b, [("a.a", "b.a")], residual)
        eager_ab, __ = eager_apply_predicates(estimator, eager_joined, residual)
        assert card == eager_ab.rows
        assert_same_columns(lazy_ab.columns, eager_ab.columns)

        lazy_f, __ = estimator.apply_predicates(lazy_ab, MIXED_PREDICATES[:1])
        eager_f, __ = eager_apply_predicates(estimator, eager_ab, MIXED_PREDICATES[:1])
        lazy_abc, card = estimator.join(lazy_f, c, [("b.id", "c.id")])
        eager_abc = eager_joined_profile(estimator, eager_f, c, card)
        assert_same_columns(lazy_abc.columns, eager_abc.columns)

    def test_duplicate_names_right_side_wins_in_left_position(self):
        estimator = Estimator()
        left = make_profile(rows=400, domain=40, alias="t")
        right, __ = estimator.apply_predicates(
            make_profile(rows=900, domain=90, alias="t"), MIXED_PREDICATES[:1]
        )
        only_right = RelProfile(
            rows=10, row_bytes=4, columns={"u.x": left.column("t.a").renamed("u.x")},
        )
        right = estimator._joined_profile(only_right, right, right.rows)
        joined, card = estimator.join(left, right, [])
        eager = eager_joined_profile(estimator, left, right, card)
        assert list(joined.columns)[:3] == ["t.id", "t.a", "t.s"]
        assert_same_columns(joined.columns, eager.columns)

    def test_unread_columns_are_never_scaled(self, monkeypatch):
        from repro.stats import estimator as estimator_module

        calls = []
        real = estimator_module._scale_column

        def counting(stats, scale, new_rows):
            calls.append(stats.name)
            return real(stats, scale, new_rows)

        monkeypatch.setattr(estimator_module, "_scale_column", counting)
        estimator = Estimator()
        a = make_profile(rows=300, alias="a")
        b = make_profile(rows=2000, alias="b")
        joined, __ = estimator.join(a, b, [("a.a", "b.a")])
        filtered, __ = estimator.apply_predicates(joined, MIXED_PREDICATES[:0])
        assert calls == []
        assert len(filtered.columns) == 6 and "b.s" in filtered.columns
        assert calls == []
        first = filtered.column("b.s")
        assert calls == ["b.s", "b.s"]  # the join's column, then the filter's
        assert filtered.column("b.s") is first  # memoized
        assert calls == ["b.s", "b.s"]

    def test_temp_table_stats_matches_eager(self):
        from repro.core.remainder import temp_column_name, temp_table_stats

        estimator = Estimator()
        a = make_profile(rows=300, alias="a")
        b = make_profile(rows=2000, alias="b")
        lazy, card = estimator.join(a, b, [("a.a", "b.a")])
        eager = eager_joined_profile(estimator, a, b, card)
        schema = Schema(
            [
                Column(temp_column_name(name), DataType.INTEGER)
                for name in ("a.id", "a.a", "b.a", "b.id")
            ]
        )
        got = temp_table_stats("tmp", lazy, schema, 4096)
        want = temp_table_stats("tmp", eager, schema, 4096)
        assert dataclasses.replace(got, columns={}) == dataclasses.replace(
            want, columns={}
        )
        assert len(got.columns) == 4
        assert columns_key(got.columns) == columns_key(want.columns)

    def test_merge_into_profile_matches_eager(self):
        from repro.executor.collector import ObservedStatistics
        from repro.stats.histogram import build_histogram

        estimator = Estimator()
        a = make_profile(rows=300, alias="a")
        b = make_profile(rows=2000, alias="b")
        lazy, card = estimator.join(a, b, [("a.a", "b.a")])
        eager = eager_joined_profile(estimator, a, b, card)
        for observed_rows in (10, int(card), int(card * 3)):
            observed = ObservedStatistics(
                node_id=1,
                row_count=observed_rows,
                row_bytes=lazy.row_bytes,
                minmax={"a.a": (0.0, 9.0), "z.new": (1.0, 2.0)},
                histograms={"b.a": build_histogram(range(10), num_buckets=4)},
                distincts={("a.id",): 7.0},
            )
            got = observed.merge_into_profile(lazy)
            want = observed.merge_into_profile(eager)
            assert (got.rows, got.row_bytes, got.aliases) == (
                want.rows, want.row_bytes, want.aliases
            )
            assert columns_key(got.columns) == columns_key(want.columns)

    def test_annotated_plans_match_eager(self, eager_estimator):
        """Every node's profile, DistinctNode included, through the annotator."""
        from tests.conftest import make_two_table_db

        db = make_two_table_db(r1_rows=400, r2_rows=1500)
        sql = (
            "SELECT DISTINCT r1.a AS a, s.c AS c FROM r1, r2, r2 s "
            "WHERE r1.id = r2.r1_id AND r2.id = s.id AND r1.b < 20 AND s.c = 3"
        )

        def snapshot():
            plan, __, __opt = db.plan(sql, mode=DynamicMode.OFF)
            return [
                (
                    node.label,
                    node.est.rows,
                    node.est.op_cost,
                    node.est.total_cost,
                    node.est.profile.columns,
                )
                for node in plan.walk()
            ]

        lazy = snapshot()
        eager_estimator()
        eager = snapshot()
        assert any(label == "Distinct" for label, *__ in lazy)
        assert [row[:4] for row in lazy] == [row[:4] for row in eager]
        for got, want in zip(lazy, eager):
            if isinstance(got[4], LazyColumns):
                assert_same_columns(got[4], want[4])
            else:
                assert columns_key(got[4]) == columns_key(want[4])

    def test_threads_sharing_one_profile_read_equal_stats(self):
        """Racing first reads through a three-level lazy chain agree."""
        estimator = Estimator()
        a = make_profile(rows=300, alias="a")
        b = make_profile(rows=2000, alias="b")
        c = make_profile(rows=80, alias="c")
        workers = 4  # more threads than cores
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for __ in range(5):
                ab, card = estimator.join(a, b, [("a.a", "b.a")])
                eager_ab = eager_joined_profile(estimator, a, b, card)
                ab_f, __ = estimator.apply_predicates(ab, MIXED_PREDICATES[:1])
                eager_f, __ = eager_apply_predicates(
                    estimator, eager_ab, MIXED_PREDICATES[:1]
                )
                shared, card = estimator.join(ab_f, c, [("b.id", "c.id")])
                eager = eager_joined_profile(estimator, eager_f, c, card)
                names = list(eager.columns)
                barrier = threading.Barrier(workers)
                results = [None] * workers

                def read(slot):
                    order = names[slot:] + names[:slot]
                    if slot % 2:
                        order.reverse()
                    barrier.wait()
                    results[slot] = {
                        name: column_key(shared.columns[name]) for name in order
                    }

                threads = [
                    threading.Thread(target=read, args=(slot,))
                    for slot in range(workers)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                    assert not thread.is_alive()
                expected = dict(columns_key(eager.columns))
                assert all(result == expected for result in results)
                assert_same_columns(shared.columns, eager.columns)
        finally:
            sys.setswitchinterval(interval)

    def test_pickle_round_trip(self):
        estimator = Estimator()
        joined, __ = estimator.join(
            make_profile(rows=300, alias="a"),
            make_profile(rows=2000, alias="b"),
            [("a.a", "b.a")],
        )
        joined.column("a.a")
        clone = pickle.loads(pickle.dumps(joined))
        assert (clone.rows, clone.row_bytes, clone.aliases) == (
            joined.rows, joined.row_bytes, joined.aliases
        )
        assert columns_key(clone.columns) == columns_key(joined.columns)


# ----------------------------------------------------------------------
# Two-pointer histogram join kernel
# ----------------------------------------------------------------------


def nested_loop_join_cardinality(h1, h2):
    """The all-pairs bucket loop the two-pointer kernel replaced."""
    if h1.is_empty or h2.is_empty:
        return 0.0
    total = 0.0
    for b1 in h1.buckets:
        for b2 in h2.buckets:
            lo = max(b1.low, b2.low)
            hi = min(b1.high, b2.high)
            if hi < lo:
                continue
            f1 = b1.overlap_fraction(lo, hi)
            f2 = b2.overlap_fraction(lo, hi)
            n1 = b1.count * f1
            n2 = b2.count * f2
            d1 = max(b1.distinct * f1, 1e-9)
            d2 = max(b2.distinct * f2, 1e-9)
            if n1 > 0 and n2 > 0:
                total += n1 * n2 / max(d1, d2)
    return total


#: One bucket as (gap to the previous bucket's high, width, count, distinct).
#: Gap 0 makes neighbours touch (``nxt.low == prev.high``); width 0 makes a
#: singleton bucket; zero counts exercise the ``n > 0`` guard.
bucket_spec = st.tuples(
    st.sampled_from([0.0, 0.0, 0.5, 1.0, 3.0, 10.0]),
    st.sampled_from([0.0, 0.0, 0.25, 1.0, 2.0, 7.5]),
    st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
)


def histogram_from_specs(start, specs):
    buckets = []
    position = start
    for gap, width, count, distinct in specs:
        low = position + gap if buckets else position
        buckets.append(Bucket(low, low + width, count, distinct))
        position = low + width
    return Histogram(HistogramKind.EQUI_DEPTH, buckets)


class TestJoinKernel:
    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from([-5.0, 0.0, 0.5, 3.0]),
        st.lists(bucket_spec, max_size=12),
        st.sampled_from([-5.0, 0.0, 0.5, 3.0]),
        st.lists(bucket_spec, max_size=12),
    )
    def test_two_pointer_matches_nested_loop(self, start1, specs1, start2, specs2):
        h1 = histogram_from_specs(start1, specs1)
        h2 = histogram_from_specs(start2, specs2)
        assert h1.join_cardinality(h2) == nested_loop_join_cardinality(h1, h2)
        assert h2.join_cardinality(h1) == nested_loop_join_cardinality(h2, h1)

    def test_touching_and_singleton_buckets(self):
        h1 = Histogram(
            HistogramKind.MAXDIFF,
            [Bucket(0, 5, 10, 5), Bucket(5, 5, 4, 1), Bucket(5, 9, 8, 4)],
        )
        h2 = Histogram(
            HistogramKind.MAXDIFF,
            [Bucket(5, 5, 3, 1), Bucket(5, 6, 6, 2), Bucket(9, 9, 2, 1)],
        )
        expected = nested_loop_join_cardinality(h1, h2)
        assert expected > 0
        assert h1.join_cardinality(h2) == expected
        assert h2.join_cardinality(h1) == nested_loop_join_cardinality(h2, h1)
