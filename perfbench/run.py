"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload report-repeat --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with program tracing off: the
set-up is repeated and its median reported, and timed rounds, together at
least ``--seconds`` long and at least ``min_statements`` of the workload,
run between the set-ups (see :func:`measured_run`).  Every timed interval
is scaled to a reference host speed measured alongside it
(:mod:`perfbench.hostspeed`), because the speed of a shared host drifts by
more than the bounds within a minute; the unscaled figures are printed as a
comment line.  ``--trace 1`` runs a fixed statement
list twice, first plain and then with the layer wrappers of
:mod:`perfbench.layers` installed, and reports the per-layer metrics; it also
writes the spans as a Chrome trace under ``.bench_out/``.

``BENCHMARK.json`` lists ``report-repeat`` and ``server-mixed``.
``adhoc-stale`` runs the same way but is left out of it: every one of its
statements has distinct literals, so its reference costs as much as its
timed window, and one run takes about 85 s on a 2-CPU host.

Every statement's rows are checked against a reference computed outside the
timed window.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 0
only when every statement succeeded with the right rows.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 3
WORKLOAD_NAMES = ("adhoc-stale", "report-repeat", "server-mixed")


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _environment(workload, db, args) -> dict:
    import numpy

    return {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scale_factor": workload.scale_factor,
        "catalog": workload.catalog.value,
        "client_threads": workload.clients,
        "data_pages": sum(entry.table.page_count for entry in db.catalog),
        "engine_config": dataclasses.asdict(db.config),
    }


def measured_run(workload, args) -> tuple[dict, list]:
    """Set-ups interleaved with timed rounds, tracing off.

    The set-up runs ``SETUPS`` times and the last ``workload.rounds`` of
    them are each followed by one timed round on the fresh database, so the
    timed statements are spread over the whole run rather than caught in
    one slow spell of the host.  Each round runs for at least
    ``seconds / rounds`` and its share of ``workload.min_statements``;
    throughput, latency percentiles and the mean simulated cost are taken
    over the statements of all rounds together, so the p90 latency has at
    least ten samples beyond it.  Each statement, round and set-up is
    scaled by the host speed over its own interval.
    """
    from perfbench.hostspeed import REFERENCE_S, HostSpeed
    from perfbench.layers import nearest_rank

    min_statements = workload.min_statements
    setup_s: list[tuple[float, float]] = []
    records: list = []
    rounds: list[tuple[float, float]] = []
    notes: list[str] = []
    with HostSpeed() as speed:
        for index in range(SETUPS):
            db = None
            gc.collect()
            started = perf_counter()
            db = workload.setup()
            setup_s.append((started, perf_counter() - started))
            if index < SETUPS - workload.rounds:
                continue
            timed = workload.run_pass(
                db,
                seconds=args.seconds / workload.rounds,
                min_statements=-(-min_statements // workload.rounds),
            )
            workload.check(db, timed.records)
            records += timed.records
            rounds.append((timed.started, timed.wall_s))
            notes.append(f"round: {len(timed.records)} statements in {timed.wall_s:.3f}s")

    def scaled(intervals) -> list[float]:
        return [span * speed.scale(start, start + span) for start, span in intervals]

    failed = sum(1 for r in records if r.error)
    latencies = [(r.started, r.latency_s) for r in records]
    costs = [r.profile.total_cost for r in records if r.profile is not None]
    measured = {
        "throughput_qps": len(records) / sum(span for _, span in rounds),
        "latency_p50_ms": nearest_rank([s for _, s in latencies], 50) * 1e3,
        "latency_p90_ms": nearest_rank([s for _, s in latencies], 90) * 1e3,
        "setup_s": statistics.median(s for _, s in setup_s),
    }
    metrics = {
        "throughput_qps": _metric(len(records) / sum(scaled(rounds)), "1/s"),
        "latency_p50_ms": _metric(nearest_rank(scaled(latencies), 50) * 1e3, "ms"),
        "latency_p90_ms": _metric(nearest_rank(scaled(latencies), 90) * 1e3, "ms"),
        "sim_cost_per_stmt": _metric(statistics.fmean(costs) if costs else 0.0, "units"),
        "setup_s": _metric(statistics.median(scaled(setup_s)), "s"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
    }
    notes = [
        f"environment {json.dumps(_environment(workload, db, args), default=str)}",
        *notes,
        f"host speed: reference kernel median {speed.kernel_s() * 1e3:.3f} ms "
        f"over {len(speed.samples)} timings (reference {REFERENCE_S * 1e3:g} ms)",
        "unscaled: " + ", ".join(f"{name} {value:.6g}" for name, value in measured.items()),
        f"latency samples {len(latencies)} (at least {min_statements})",
        f"setup_s samples {[round(s, 4) for s in scaled(setup_s)]}",
        f"error_rate {failed / max(len(records), 1):.6f} ({failed} of {len(records)})",
    ]
    notes += [f"error: {r.sql[:80]} -> {r.error}" for r in records if r.error][:10]
    return _result(records, failed, metrics), notes


def traced_run(workload, args) -> tuple[dict, list]:
    """One fixed statement list, plain and then traced, split by layer."""
    from repro.observe.validate import validate_trace

    from perfbench.layers import SpanRecorder, nearest_rank, spearman

    db = workload.setup()
    plain = workload.run_pass(db, max_blocks=workload.trace_blocks)
    recorder = SpanRecorder()
    traced = workload.run_pass(db, max_blocks=workload.trace_blocks, recorder=recorder)
    records = plain.records
    workload.check(db, records)
    failed = sum(1 for r in records if r.error)
    notes = [f"environment {json.dumps(_environment(workload, db, args), default=str)}"]

    # Tracing may not change what the engine computes.  Under concurrency the
    # simulated cost depends on memory grants, so only one client's costs
    # must repeat exactly.
    def outputs(result, client: int) -> list:
        return [
            (r.sql, r.rows, r.profile.total_cost if workload.clients == 1 and r.profile else None)
            for r in result.records
            if r.client == client
        ]

    for client in range(workload.clients):
        if outputs(plain, client) != outputs(traced, client):
            failed += 1
            notes.append(f"error: traced pass of client {client} differs from the plain pass")
    failed += sum(1 for r in traced.records if r.error)

    self_s = recorder.self_seconds()
    calls = recorder.calls()
    measures = recorder.measures()
    busy_s = recorder.root_seconds()
    if recorder.open_spans() or abs(sum(self_s.values()) - busy_s) > 1e-6 * max(busy_s, 1):
        failed += 1
        notes.append("error: layer self times do not add up to the traced busy time")

    trace = recorder.chrome_trace()
    problems = validate_trace(trace)
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    trace_path = out / f"{workload.name}-seed{args.seed}.trace.json"
    trace_path.write_text(json.dumps(trace))
    if problems:
        failed += 1
        notes.append(f"error: invalid Chrome trace: {problems[:3]}")
    notes.append(f"trace {trace_path.relative_to(ROOT)} ({len(trace['traceEvents'])} events)")

    profiles = [r.profile for r in traced.records if r.profile is not None]
    events = [e for p in profiles for e in p.events if e.t_new_total is not None]
    switches = sum(p.plan_switches for p in profiles)
    kept, dropped = measures["core.scia.kept"], measures["core.scia.dropped"]
    hits = sum(p.buffer.hits for p in profiles)
    accesses = sum(p.buffer.hits + p.buffer.misses for p in profiles)
    cache = traced.plan_cache
    waits = [p.admission_wait_s for p in profiles]
    ok = [r for r in plain.records if r.profile is not None]

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    def seconds(name: str) -> dict:
        return _metric(self_s.get(name, 0.0), "s")

    def count(value: float) -> dict:
        return _metric(value, "count")

    metrics = {
        "sql.parse.self_s": seconds("sql.parse"),
        "sql.bind.self_s": seconds("sql.bind"),
        "sql.deparse.calls": count(calls["sql.deparse"]),
        "optimizer.optimize.calls": count(calls["optimizer.optimize"]),
        "optimizer.optimize.self_s": seconds("optimizer.optimize"),
        "optimizer.annotate.self_s": seconds("optimizer.annotate"),
        "core.scia.self_s": seconds("core.scia"),
        "core.scia.kept_ratio": _metric(ratio(kept, kept + dropped), "ratio"),
        "core.decide.calls": count(calls["core.decide"]),
        "core.decide.self_s": seconds("core.decide"),
        "core.replan.self_s": seconds("core.replan"),
        "core.remainder.self_s": seconds("core.remainder"),
        "core.switch.count": count(switches),
        "core.switch.accept_ratio": _metric(ratio(switches, len(events)), "ratio"),
        "executor.dispatch.self_s": seconds("executor.dispatch"),
        "executor.collect.self_s": seconds("executor.collect"),
        "executor.collect.rows": count(measures["executor.collect.rows"]),
        "executor.memory.calls": count(calls["executor.memory"]),
        "executor.memory.reallocs": count(sum(p.memory_reallocations for p in profiles)),
        "stats.reservoir.self_s": seconds("stats.reservoir"),
        "stats.distinct.self_s": seconds("stats.distinct"),
        "storage.temp.self_s": seconds("storage.temp"),
        "storage.temp.rows": count(measures["storage.temp.rows"]),
        "storage.buffer.hit_rate": _metric(ratio(hits, accesses), "ratio"),
        "engine.plan_cache.hit_rate": _metric(ratio(cache["hits"], cache["lookups"]), "ratio"),
        "engine.plan_cache.invalidations": count(cache["invalidations"]),
        "engine.admission.wait_p90_ms": _metric(nearest_rank(waits, 90) * 1e3, "ms"),
        "engine.admission.self_s": seconds("engine.admission"),
        "engine.broker.regrants": count(sum(p.broker_regrants for p in profiles)),
        "engine.broker.reclaims": count(sum(p.broker_reclaims for p in profiles)),
        "observe.trace_overhead_frac": _metric(
            (traced.wall_s - plain.wall_s) / plain.wall_s, "ratio"
        ),
        "observe.sim_wall_rank_corr": _metric(
            spearman([r.profile.total_cost for r in ok], [r.latency_s for r in ok]), "rho"
        ),
        "observe.traced_busy_s": _metric(busy_s, "s"),
        "other.self_s": seconds("other"),
        "error_rate": _metric(failed / max(len(records), 1), "ratio"),
    }
    split = sorted(self_s.items(), key=lambda item: -item[1])
    notes.append(
        "self-time split of traced busy time: "
        + ", ".join(f"{name} {100 * s / busy_s:.1f}%" for name, s in split)
    )
    notes.append(f"plain wall {plain.wall_s:.3f}s, traced wall {traced.wall_s:.3f}s, "
                 f"{len(records)} statements per pass")
    notes += [f"error: {r.sql[:80]} -> {r.error}" for r in records if r.error][:10]
    return _result(records, failed, metrics), notes


def _result(records, failed: int, metrics: dict) -> dict:
    return {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no engine source under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        print(f"perfbench: imported repro from {repro.__file__}, not {src}", file=sys.stderr)
        return 2

    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    run = traced_run if args.trace else measured_run
    result, notes = run(workload, args)
    for line in notes:
        print(f"# {line}")
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
