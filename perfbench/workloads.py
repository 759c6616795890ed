"""The three benchmark workloads: their inputs and their client loops.

Every input comes from the run's seed: the TPC-D data-generation seed, the
substitution literals, the order of statements in each pass, the session
scripts and the rows the writer session loads.  The SQL texts are the
benchmark's own copies of the paper's simplified TPC-D queries, so the
inputs do not change when the engine's bundled query set does.

Load is a closed loop: each client submits its next statement only after the
previous one returned its rows.  Clients work in *blocks* (one pass over
their query set) and only stop at a block boundary, so every run holds the
same mix of queries.
"""

from __future__ import annotations

import contextlib
import datetime
import random
import threading
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Iterator

from repro import DataType, Database, DynamicMode, EngineConfig
from repro.bench import rows_equivalent
from repro.workloads.tpcd import CatalogProfile, TpcdConfig, generate_tpcd

from .layers import LayerWrappers, SpanRecorder, min_samples_for

# -- the engine configuration -------------------------------------------------

#: Every EngineConfig field whose default reads a ``REPRO_*`` variable, set to
#: the engine's built-in default so no environment variable changes what is
#: measured.  Workloads override only what they name.
PINNED_FIELDS: dict[str, Any] = {
    "execution_mode": "batch",
    "parallel_workers": 0,
    "parallel_joins": True,
    "parallel_preagg": True,
    "parallel_prefetch": True,
    "parallel_build": True,
    "parallel_spill": True,
    "parallel_sort": True,
    "columnar_parallel": True,
    "vectorized_agg": True,
    "vectorized_probe": True,
    "zone_map_skipping": True,
    "zone_map_cost_mode": "charge",
    "tracing": False,
    "server_mode": False,
    "max_sessions": 4,
    "admission_queue_size": 64,
    "session_memory_policy": "fair",
    "server_worker_mode": "thread",
    "feedback_enabled": False,
    "feedback_path": "",
    "slow_query_s": 0.0,
    "slow_query_path": "",
}


def pinned_config(**overrides: Any) -> EngineConfig:
    """The measured engine configuration, independent of the environment."""
    config = EngineConfig(**{**PINNED_FIELDS, **overrides})
    config.validate()
    return config


# -- TPC-D query texts and substitution parameters ----------------------------

REGIONS = ("AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST")
NATIONS = (
    "ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA", "FRANCE",
    "GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN", "JORDAN", "KENYA",
    "MOROCCO", "MOZAMBIQUE", "PERU", "CHINA", "ROMANIA", "SAUDI ARABIA",
    "VIETNAM", "RUSSIA", "UNITED KINGDOM", "UNITED STATES",
)
SEGMENTS = ("AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY")
PART_TYPES = (
    "ECONOMY ANODIZED STEEL", "ECONOMY BRUSHED COPPER", "LARGE BURNISHED BRASS",
    "MEDIUM POLISHED NICKEL", "PROMO PLATED TIN", "SMALL PLATED COPPER",
    "STANDARD POLISHED BRASS",
)

QUERIES: dict[str, str] = {
    "Q1": (
        "SELECT l_returnflag, l_linestatus, sum(l_quantity) AS sum_qty, "
        "sum(l_extendedprice) AS sum_base_price, avg(l_quantity) AS avg_qty, "
        "avg(l_extendedprice) AS avg_price, avg(l_discount) AS avg_disc, "
        "count(*) AS count_order FROM lineitem "
        "WHERE l_shipdate <= DATE '{shipdate}' "
        "GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus"
    ),
    "Q3": (
        "SELECT l_orderkey, sum(l_extendedprice) AS revenue, o_orderdate, "
        "o_shippriority FROM customer, orders, lineitem "
        "WHERE c_mktsegment = '{segment}' AND c_custkey = o_custkey "
        "AND l_orderkey = o_orderkey AND o_orderdate < DATE '{date}' "
        "AND l_shipdate > DATE '{date}' "
        "GROUP BY l_orderkey, o_orderdate, o_shippriority "
        "ORDER BY revenue DESC, o_orderdate LIMIT 10"
    ),
    "Q5": (
        "SELECT n_name, sum(l_extendedprice) AS revenue "
        "FROM customer, orders, lineitem, supplier, nation, region "
        "WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey "
        "AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey "
        "AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey "
        "AND r_name = '{region}' AND o_orderdate >= DATE '{start}' "
        "AND o_orderdate < DATE '{end}' GROUP BY n_name ORDER BY revenue DESC"
    ),
    "Q6": (
        "SELECT sum(l_extendedprice) AS revenue FROM lineitem "
        "WHERE l_shipdate >= DATE '{start}' AND l_shipdate < DATE '{end}' "
        "AND l_discount BETWEEN {disc_lo} AND {disc_hi} AND l_quantity < {quantity}"
    ),
    "Q7": (
        "SELECT n1.n_name AS supp_nation, n2.n_name AS cust_nation, "
        "sum(l_extendedprice) AS revenue "
        "FROM supplier, lineitem, orders, customer, nation n1, nation n2 "
        "WHERE s_suppkey = l_suppkey AND o_orderkey = l_orderkey "
        "AND c_custkey = o_custkey AND s_nationkey = n1.n_nationkey "
        "AND c_nationkey = n2.n_nationkey "
        "AND ((n1.n_name = '{nation1}' AND n2.n_name = '{nation2}') "
        "OR (n1.n_name = '{nation2}' AND n2.n_name = '{nation1}')) "
        "AND l_shipdate BETWEEN DATE '1995-01-01' AND DATE '1996-12-31' "
        "GROUP BY n1.n_name, n2.n_name ORDER BY supp_nation, cust_nation"
    ),
    "Q8": (
        "SELECT n2.n_name AS nation, avg(l_extendedprice) AS avg_volume "
        "FROM part, supplier, lineitem, orders, customer, nation n1, nation n2, "
        "region WHERE p_partkey = l_partkey AND s_suppkey = l_suppkey "
        "AND l_orderkey = o_orderkey AND o_custkey = c_custkey "
        "AND c_nationkey = n1.n_nationkey AND n1.n_regionkey = r_regionkey "
        "AND r_name = '{region}' AND s_nationkey = n2.n_nationkey "
        "AND o_orderdate BETWEEN DATE '1995-01-01' AND DATE '1996-12-31' "
        "AND p_type = '{ptype}' GROUP BY n2.n_name ORDER BY nation"
    ),
    "Q10": (
        "SELECT c_custkey, c_name, sum(l_extendedprice) AS revenue, c_acctbal, "
        "n_name FROM customer, orders, lineitem, nation "
        "WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey "
        "AND o_orderdate >= DATE '{start}' AND o_orderdate < DATE '{end}' "
        "AND l_returnflag = 'R' AND c_nationkey = n_nationkey "
        "GROUP BY c_custkey, c_name, c_acctbal, n_name "
        "ORDER BY revenue DESC LIMIT 20"
    ),
}
ALL_QUERIES = tuple(QUERIES)


def _add_months(day: datetime.date, months: int) -> datetime.date:
    index = day.month - 1 + months
    return day.replace(year=day.year + index // 12, month=index % 12 + 1)


def _year(year: int) -> dict:
    return {"start": f"{year}-01-01", "end": f"{year + 1}-01-01"}


def _q6(year: int, discount: int, quantity: int) -> dict:
    return {
        **_year(year),
        "disc_lo": f"{(discount - 1) / 100:.2f}",
        "disc_hi": f"{(discount + 1) / 100:.2f}",
        "quantity": quantity,
    }


def _q10(start: datetime.date) -> dict:
    return {"start": start.isoformat(), "end": _add_months(start, 3).isoformat()}


#: The TPC-D validation values: the texts the engine's own query set uses.
VALIDATION_PARAMS: dict[str, dict] = {
    "Q1": {"shipdate": "1998-09-02"},
    "Q3": {"segment": "BUILDING", "date": "1995-03-15"},
    "Q5": {"region": "ASIA", **_year(1994)},
    "Q6": _q6(1994, 6, 24),
    "Q7": {"nation1": "FRANCE", "nation2": "GERMANY"},
    "Q8": {"region": "AMERICA", "ptype": "ECONOMY ANODIZED STEEL"},
    "Q10": _q10(datetime.date(1993, 10, 1)),
}


def draw_params(query: str, rng: random.Random) -> dict:
    """Substitution parameters from the TPC-D ranges, drawn from ``rng``."""
    if query == "Q1":
        delta = rng.randint(60, 120)
        return {"shipdate": (datetime.date(1998, 12, 1) - datetime.timedelta(delta)).isoformat()}
    if query == "Q3":
        day = datetime.date(1995, 3, rng.randint(1, 31))
        return {"segment": rng.choice(SEGMENTS), "date": day.isoformat()}
    if query == "Q5":
        return {"region": rng.choice(REGIONS), **_year(rng.randint(1993, 1997))}
    if query == "Q6":
        return _q6(rng.randint(1993, 1997), rng.randint(2, 9), rng.randint(24, 25))
    if query == "Q7":
        nation1, nation2 = rng.sample(NATIONS, 2)
        return {"nation1": nation1, "nation2": nation2}
    if query == "Q8":
        return {"region": rng.choice(REGIONS), "ptype": rng.choice(PART_TYPES)}
    if query == "Q10":
        return _q10(_add_months(datetime.date(1993, 2, 1), rng.randint(0, 23)))
    raise KeyError(query)


def query_sql(query: str, params: dict | None = None) -> str:
    """The query's text with ``params`` (default: the validation values)."""
    return QUERIES[query].format(**(params or VALIDATION_PARAMS[query]))


# -- the writer session's temp-table step -------------------------------------

WRITE_TABLE = "wtmp"
WRITE_ROWS = 400
WRITE_SQL = (
    f"SELECT n_name, count(*) AS order_count, sum(w_weight) AS weight "
    f"FROM {WRITE_TABLE}, customer, orders, nation "
    f"WHERE w_custkey = c_custkey AND c_custkey = o_custkey "
    f"AND c_nationkey = n_nationkey GROUP BY n_name ORDER BY n_name"
)
WRITE_COLUMNS = (("w_custkey", DataType.INTEGER), ("w_weight", DataType.INTEGER))


@dataclass(frozen=True)
class WriteStep:
    """Create a session temp table, load seeded rows, ANALYZE it, join it to
    TPC-D tables, drop it.  The join is the step's measured statement."""

    index: int
    rows: tuple[tuple[int, int], ...]


def write_rows(seed: int, index: int, customers: int) -> tuple[tuple[int, int], ...]:
    rng = random.Random(f"write:{seed}:{index}")
    return tuple(
        (rng.randrange(customers), rng.randint(1, 100)) for _ in range(WRITE_ROWS)
    )


# -- statement records ----------------------------------------------------------


@dataclass
class Record:
    """One measured statement."""

    client: int
    sql: str
    started: float
    latency_s: float
    rows: list | None = None
    profile: Any = None
    error: str = ""
    step: WriteStep | None = None


@dataclass
class PassResult:
    """What one pass of a workload did."""

    records: list[Record] = field(default_factory=list)
    started: float = 0.0
    wall_s: float = 0.0
    plan_cache: dict[str, int] = field(default_factory=dict)


class _Stop:
    """Shared stop rule: checked by each client before it starts a block."""

    def __init__(self, seconds: float | None, min_statements: int, max_blocks: int | None):
        self.seconds = seconds
        self.min_statements = min_statements
        self.max_blocks = max_blocks
        self.started = perf_counter()
        self.done = 0
        self._lock = threading.Lock()

    def add(self, count: int) -> None:
        with self._lock:
            self.done += count

    def before_block(self, blocks_done: int) -> bool:
        if self.max_blocks is not None:
            return blocks_done >= self.max_blocks
        with self._lock:
            done = self.done
        return perf_counter() - self.started >= self.seconds and done >= self.min_statements


# -- workloads --------------------------------------------------------------------


class Workload:
    """Shared shape: a scale factor, a catalog profile, block generators."""

    name = ""
    scale_factor = 0.02
    catalog = CatalogProfile.STALE
    clients = 1
    #: Timed rounds per measured run (each on a freshly set-up database).
    rounds = 1
    #: Statements a measured run times at least, over all its rounds: enough
    #: for ten beyond the p90.
    min_statements = min_samples_for(90)
    #: Blocks per client in the fixed-length pass the traced run repeats.
    trace_blocks = 8

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def engine_config(self) -> EngineConfig:
        return pinned_config()

    def setup(self) -> Database:
        """Data generation and ANALYZE (the timed set-up)."""
        db = Database(self.engine_config())
        generate_tpcd(
            db,
            TpcdConfig(scale_factor=self.scale_factor, seed=self.seed, catalog=self.catalog),
        )
        return db

    def blocks(self, client: int) -> Iterator[list]:
        raise NotImplementedError

    def run_pass(
        self,
        db: Database,
        seconds: float | None = None,
        min_statements: int = 0,
        max_blocks: int | None = None,
        recorder: SpanRecorder | None = None,
    ) -> PassResult:
        """Run clients until the stop rule holds, from the same cache state
        each pass.  With a ``recorder``, the layer wrappers are installed for
        the statements (not the preparation) and each statement is a root
        span."""
        self.prepare_pass(db)
        before = db.plan_cache.stats.snapshot()
        result = PassResult()
        stop = _Stop(seconds, min_statements, max_blocks)
        lock = threading.Lock()

        def client(index: int, execute: Callable[[Any], Record]) -> None:
            blocks = self.blocks(index)
            done = 0
            while not stop.before_block(done):
                block = next(blocks)
                records = []
                for op in block:
                    if recorder is not None:
                        with recorder.root():
                            records.append(execute(op))
                    else:
                        records.append(execute(op))
                done += 1
                stop.add(len(records))
                with lock:
                    result.records.extend(records)

        with LayerWrappers(recorder) if recorder is not None else contextlib.nullcontext():
            result.started = perf_counter()
            self.drive(db, client)
            result.wall_s = perf_counter() - result.started
        after = db.plan_cache.stats
        result.plan_cache = {
            "hits": after.hits - before.hits,
            "lookups": after.lookups - before.lookups,
            "invalidations": after.invalidations - before.invalidations,
        }
        return result

    def prepare_pass(self, db: Database) -> None:
        db.plan_cache.clear()

    def drive(self, db: Database, client: Callable) -> None:
        client(0, lambda sql: _timed(0, lambda: db.execute(sql, mode=DynamicMode.FULL), sql))

    def check(self, db: Database, records: list[Record]) -> None:
        """Compare each statement's rows to a ``DynamicMode.OFF`` reference
        computed now, outside any timed window; a mismatch becomes the
        record's error."""
        reference: dict[str, list] = {}
        for record in records:
            if record.error:
                continue
            if record.sql not in reference:
                reference[record.sql] = db.execute(record.sql, mode=DynamicMode.OFF).rows
            if not rows_equivalent(reference[record.sql], record.rows):
                record.error = "rows differ from the DynamicMode.OFF reference"


def _timed(client: int, call: Callable, sql: str, step: WriteStep | None = None) -> Record:
    started = perf_counter()
    try:
        result = call()
    except Exception as exc:  # noqa: BLE001 - counted as a failed statement
        return Record(client, sql, started, perf_counter() - started, error=repr(exc), step=step)
    return Record(
        client, sql, started, perf_counter() - started, rows=result.rows,
        profile=result.profile, step=step,
    )


class AdhocStale(Workload):
    """One client; every pass runs all 7 queries, in a seeded order, with
    fresh TPC-D substitution literals, on the STALE catalog in FULL mode."""

    name = "adhoc-stale"

    def blocks(self, client: int) -> Iterator[list]:
        rng = random.Random(f"adhoc:{self.seed}")
        while True:
            order = list(ALL_QUERIES)
            rng.shuffle(order)
            yield [query_sql(q, draw_params(q, rng)) for q in order]


class ReportRepeat(Workload):
    """One client repeating fixed-text Q1, Q3, Q6 and Q10 on the COARSE
    catalog in FULL mode, timed after a warm-up block."""

    name = "report-repeat"
    scale_factor = 0.05
    catalog = CatalogProfile.COARSE
    rounds = 3
    trace_blocks = 14
    STATEMENTS = tuple(query_sql(q) for q in ("Q1", "Q3", "Q6", "Q10"))

    def blocks(self, client: int) -> Iterator[list]:
        while True:
            yield list(self.STATEMENTS)

    def prepare_pass(self, db: Database) -> None:
        """Warm the plan cache: a report's statements are compiled once."""
        super().prepare_pass(db)
        for sql in self.STATEMENTS:
            db.execute(sql, mode=DynamicMode.FULL)


class ServerMixed(Workload):
    """Two sessions on the query server (thread mode), the broker's pool set
    below two full grants.  Session 0 reads; session 1 reads and, twice per
    block, runs a :class:`WriteStep` on a session temp table."""

    name = "server-mixed"
    clients = 2
    trace_blocks = 7
    #: Ten blocks per client.  A short statement takes twice its CPU time
    #: when it overlaps a compile in the other session, and the p50 falls
    #: between two query classes, so the p50 needs more statements than the
    #: p90 to settle.
    min_statements = 160
    #: Pages the broker arbitrates: 1.5 full per-query grants, so two
    #: concurrent statements cannot both hold a full grant.
    SERVER_MEMORY_PAGES = 3072

    def engine_config(self) -> EngineConfig:
        return pinned_config(server_memory_pages=self.SERVER_MEMORY_PAGES)

    def setup(self) -> Database:
        """Data generation, ANALYZE and server start."""
        db = super().setup()
        db.server  # noqa: B018 - the property starts the admission controller and broker
        return db

    def blocks(self, client: int) -> Iterator[list]:
        rng = random.Random(f"server:{self.seed}:{client}")
        customers = max(1, round(150_000 * self.scale_factor))
        steps = 0
        while True:
            block: list = [query_sql(q) for q in rng.sample(ALL_QUERIES, len(ALL_QUERIES))]
            if client == 1:
                for position in (3, 8):
                    block.insert(position, WriteStep(steps, write_rows(self.seed, steps, customers)))
                    steps += 1
            yield block

    def drive(self, db: Database, client: Callable) -> None:
        sessions = [db.create_session(f"client-{i}") for i in range(self.clients)]
        errors: list[BaseException] = []

        def execute(index: int, op) -> Record:
            session = sessions[index]
            if isinstance(op, WriteStep):
                return _write_step(index, session, op)
            return _timed(index, lambda: session.execute(op, mode=DynamicMode.FULL), op)

        def body(index: int) -> None:
            try:
                client(index, lambda op: execute(index, op))
            except BaseException as exc:  # noqa: BLE001 - re-raised after join
                errors.append(exc)

        threads = [threading.Thread(target=body, args=(i,)) for i in range(self.clients)]
        try:
            for thread in threads:
                thread.start()
        finally:
            for thread in threads:
                if thread.ident is not None:
                    thread.join()
            for session in sessions:
                session.close()
        if errors:
            raise errors[0]

    def check(self, db: Database, records: list[Record]) -> None:
        """Compare rows byte for byte with a serial replay on one fresh
        session: each distinct read once (a read's rows do not depend on its
        place in a script) and every write step in full."""
        reference: dict[str, list] = {}
        with db.create_session("serial-replay") as session:
            for record in records:
                if record.error:
                    continue
                if record.step is not None:
                    rows = _write_step(0, session, record.step).rows
                else:
                    if record.sql not in reference:
                        reference[record.sql] = session.execute(
                            record.sql, mode=DynamicMode.FULL
                        ).rows
                    rows = reference[record.sql]
                if rows != record.rows:
                    record.error = "rows differ from the serial replay"


def _write_step(client: int, session, step: WriteStep) -> Record:
    started = perf_counter()
    try:
        session.create_temp_table(WRITE_TABLE, WRITE_COLUMNS)
        try:
            session.load_rows(WRITE_TABLE, step.rows)
            session.analyze(WRITE_TABLE)
            return _timed(
                client,
                lambda: session.execute(WRITE_SQL, mode=DynamicMode.FULL),
                WRITE_SQL,
                step,
            )
        finally:
            session.drop_table(WRITE_TABLE)
    except Exception as exc:  # noqa: BLE001 - counted as a failed statement
        return Record(
            client, WRITE_SQL, started, perf_counter() - started, error=repr(exc), step=step
        )


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (AdhocStale, ReportRepeat, ServerMixed)
}
