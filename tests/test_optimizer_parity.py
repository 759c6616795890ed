"""Golden parity: the optimizer's plans and estimates are pinned exactly.

The fixture ``fixtures/optimizer_parity.json`` was captured from the
estimator that propagated every column's statistics eagerly through every
join and filter.  Propagation is now lazy (a column is scaled only when
something reads it), which must defer work without changing any number, so
every comparison here is ``==`` on floats, never approximate.

Covered: the seven TPC-D queries under the FRESH, COARSE and STALE catalog
profiles at SF 0.02.  For every node of the optimized plan (re-optimization
off, and with the FULL mode's statistics collectors) the fixture holds the
label, estimated rows, operator and cumulative cost, row width, maximum
memory demand and a digest of the node's full column statistics (every
column, histogram buckets included); for a FULL execution it holds the
result rows, the total simulated cost and the number of mid-query plan
switches.

Regenerate (only when a change is *meant* to move estimates)::

    PYTHONPATH=src python tests/test_optimizer_parity.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro import DynamicMode
from repro.bench import ExperimentConfig, build_database
from repro.workloads.tpcd import ALL_QUERIES
from repro.workloads.tpcd.datagen import CatalogProfile

FIXTURE = Path(__file__).parent / "fixtures" / "optimizer_parity.json"
SCALE_FACTOR = 0.02
CATALOGS = (CatalogProfile.FRESH, CatalogProfile.COARSE, CatalogProfile.STALE)


def _columns_digest(profile) -> str:
    """sha1 of the multiset of column statistics; float reprs round-trip.

    Names and order are left out on purpose: Q7's two ``nation`` aliases
    tie exactly, and the join enumerator breaks that tie by set iteration
    order, which follows the interpreter's string-hash seed — so which
    alias is joined first (and named first) varies between processes, while
    the statistics themselves do not.  ``tests/test_estimator.py`` checks
    names and iteration order against the eager reference.
    """
    parts = sorted(
        repr((
            cs.dtype.value, cs.count, cs.distinct, cs.min_value, cs.max_value,
            cs.is_key, cs.observed,
            cs.histogram.buckets if cs.histogram is not None else None,
        ))
        for cs in profile.columns.values()
    )
    return hashlib.sha1("\n".join(parts).encode()).hexdigest()


def _plan_nodes(plan) -> list[list]:
    return [
        [
            node.label,
            node.est.rows,
            node.est.op_cost,
            node.est.total_cost,
            node.est.row_bytes,
            node.est.max_memory_pages,
            _columns_digest(node.est.profile),
        ]
        for node in plan.walk()
    ]


def capture(catalog: CatalogProfile) -> dict:
    """Plans, estimates and FULL-mode results of every TPC-D query."""
    db = build_database(
        ExperimentConfig(scale_factor=SCALE_FACTOR, catalog=catalog)
    )
    out = {}
    for query in ALL_QUERIES:
        plain, __, __opt = db.plan(query.sql, mode=DynamicMode.OFF)
        with_collectors, __, __opt = db.plan(query.sql, mode=DynamicMode.FULL)
        result = db.execute(query.sql, mode=DynamicMode.FULL)
        out[query.name] = {
            "plan": _plan_nodes(plain),
            "plan_full": _plan_nodes(with_collectors),
            "full": {
                "rows": [list(row) for row in result.rows],
                "total_cost": result.profile.total_cost,
                "plan_switches": result.profile.plan_switches,
            },
        }
    # JSON round trip so tuples and lists compare alike.
    return json.loads(json.dumps(out))


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("catalog", CATALOGS, ids=lambda c: c.value)
def test_plans_estimates_and_full_results_match_golden(golden, catalog):
    expected = golden[catalog.value]
    actual = capture(catalog)
    assert sorted(actual) == sorted(expected)
    for name, want in expected.items():
        got = actual[name]
        assert got["plan"] == want["plan"], f"{name}: optimized plan moved"
        assert got["plan_full"] == want["plan_full"], (
            f"{name}: plan with collectors moved"
        )
        assert got["full"] == want["full"], f"{name}: FULL execution moved"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_optimizer_parity.py --write")
    FIXTURE.parent.mkdir(exist_ok=True)
    data = {catalog.value: capture(catalog) for catalog in CATALOGS}
    FIXTURE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
