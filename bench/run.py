#!/usr/bin/env python3
"""The coxl2 benchmark: one workload, end-to-end or per-layer metrics.

    python3 bench/run.py --workload sphere_ladder --seed 1 --seconds 40 --trace 0

Runs from the root of a source checkout and imports the library from its
src/ directory.  One process, one thread, closed loop: each query is issued
after the previous one returns.  The run repeats the workload's fixed batch
of queries (a fresh vertex renaming each time) until --seconds are used,
checks every answer, writes its query records and spans to bench/out/, and
prints as its last line one JSON object with the metrics.

--trace 0 gives the end-to-end metrics.  --trace 1 alternates untraced and
traced batches and gives the per-layer metrics from the traced ones, plus
the tracing overhead (traced minus untraced median batch time).

Every time is reported at a fixed host speed.  A shared host runs the same
pure-Python code up to twice as slow for seconds to minutes at a time, so
the run times a fixed reference task (reference_work) after the library
calls it makes, about once per REF_PERIOD_S of library time, and beside each
set-up import.  Each query latency and set-up time is scaled by
REF_NOMINAL_S over the mean reference time measured during and around it;
the reference samples themselves are not counted in any latency.  The
unscaled medians are printed too.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("sphere_ladder", "random_sparse", "planar_desk")
MIN_BATCHES = 4
# A tail at 1 - 10 / (MIN_BATCHES * queries per batch) has ten samples beyond
# it in every run, and lands mid-way inside one system's samples, so it does
# not jump between systems as the number of batches varies.
TAIL_SAMPLES = 10
SETUP_CODE = (
    "import time; t = time.perf_counter(); import coxeter_l2, coxeter_l2.cli; "
    "print(time.perf_counter() - t)"
)
# Times are scaled to a host that runs reference_work() in this many seconds.
REF_NOMINAL_S = 1e-3
REF_PERIOD_S = 0.01  # one reference sample per this much library time
REF_BURST = 50  # most reference samples taken after one library call
REF_MARGIN = 15  # reference samples on each side of a query's own that also set its scale
REF_SAMPLES = 10  # reference samples on each side of a set-up import

LAYERS = (
    "model.parse_spec", "spherical.classify", "nerve.build_nerve", "nerve.recognize_sphere",
    "nerve.full_subcomplex", "invariants.chi_orb", "invariants.betti",
    "planarity.trace_vanishing", "planarity.cone_construction", "planarity.certify_nonplanar",
    "planarity.brute_force_planar", "planarity.validate_embedding",
    "enumeration.enumerate_order", "cli.main",
)
CALL_COUNTS = ("model.parse_spec", "spherical.classify", "nerve.build_nerve",
               "planarity.brute_force_planar", "cli.main")
# Layer -> the answer fact that counts its units of work per query (None: one per query).
EXPONENTS = {
    "nerve.build_nerve": None,
    "nerve.recognize_sphere": None,
    "planarity.trace_vanishing": "trace_steps",
}


def reference_work(n: int = 150) -> int:
    """Fixed pure-Python work like the library's: set and dict building, intersections, hashing."""
    adj = {v: set() for v in range(n)}
    for v in range(n):
        for u in ((v + 1) % n, (v + 2) % n, (7 * v + 3) % n):
            if u != v:
                adj[v].add(u)
                adj[u].add(v)
    triangles = set()
    for v in range(n):
        for u in adj[v]:
            for w in adj[v] & adj[u]:
                triangles.add(frozenset((v, u, w)))
    return len(sorted(tuple(sorted(t)) for t in triangles))


def reference_s() -> float:
    t0 = perf_counter()
    reference_work()
    return perf_counter() - t0


def host_scale(samples: list[float]) -> float:
    """Factor that brings a time measured beside these reference samples to the nominal host speed.

    The mean, not the median: a measured time also carries the host's slow
    moments, and the mean of samples spread over that time weighs them alike.
    """
    return REF_NOMINAL_S / statistics.fmean(samples)


class Pacer:
    """Reference samples taken between library calls, about one per REF_PERIOD_S of library time."""

    def __init__(self):
        self.samples: list[float] = []  # reference seconds, in the order taken
        self.paused = 0.0  # seconds spent taking them
        self._owed = 0.0  # library time not yet matched by samples
        self._last = perf_counter()

    def resume(self) -> None:
        """Start counting library time again, after work that is not the library's."""
        self._last = perf_counter()

    def tick(self) -> None:
        """Count the time since the last tick as library time; take the samples it is owed."""
        now = perf_counter()
        self._owed += now - self._last
        due = min(REF_BURST, int(self._owed / REF_PERIOD_S))
        if due:
            self.samples += [reference_s() for _ in range(due)]
            self._owed = 0.0 if due == REF_BURST else self._owed - due * REF_PERIOD_S
            self.paused += perf_counter() - now
        self._last = perf_counter()

    def scale(self, first: int, end: int) -> float:
        """Host scale of a query whose own samples are samples[first:end]."""
        return host_scale(self.samples[max(0, first - REF_MARGIN):end + REF_MARGIN])


def fresh_import_s() -> float:
    """Seconds a fresh process takes to import the library and its CLI."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=60,
    )
    return float(done.stdout)


def cold_start(spherical) -> None:
    """Drop the library's process-wide classification memo, as a fresh coxl2 process has none."""
    memo = getattr(spherical, "_classify_cached", None)
    if memo is not None:
        memo.cache_clear()


def run_batch(queries, tracer, pacer: Pacer, spherical, batch_no: int, qid0: int):
    """Run one batch; return its query records, counters and spans.

    A record's latency leaves out the reference samples taken during the
    query; refs gives the range of those samples, for its host scale.
    """
    cold_start(spherical)
    gc.collect()
    tracer.counters.clear()
    first_span = len(tracer.spans)
    records = []
    for i, query in enumerate(queries):
        if query.cold:
            cold_start(spherical)
        tracer.qid = qid0 + i
        first, paused = len(pacer.samples), pacer.paused
        pacer.resume()
        t0 = perf_counter()
        try:
            answer, error = tracer.call("query", query.run, tracer), None
        except Exception as exc:  # any exception, refusal included, fails the query
            answer, error = None, f"{type(exc).__name__}: {exc}"
        latency = perf_counter() - t0 - (pacer.paused - paused)
        records.append({"qid": qid0 + i, "batch": batch_no, "key": query.key, "latency_s": latency,
                        "refs": (first, len(pacer.samples)), "error": error, "answer": answer})
    return records, dict(tracer.counters), tracer.spans[first_span:]


def batch_time(records) -> tuple[float, float]:
    """A batch's wall time (the sum of its query latencies) and its latency-weighted host scale."""
    wall = sum(r["latency_s"] for r in records)
    return wall, sum(r["latency_s"] * r["host_scale"] for r in records) / wall


def check(queries, records, invariants: dict) -> None:
    """Fill each record's error with the first wrong answer, if any."""
    for query, rec in zip(queries, records):
        answer = rec.pop("answer")
        if rec["error"] is not None:
            continue
        rec["vertices"] = answer.vertices
        rec["simplices"] = list(answer.simplices)
        rec["work"] = {f: answer.facts[f] for f in EXPONENTS.values() if f in answer.facts}
        for fact, expected in query.expect.items():
            got = answer.facts.get(fact)
            if got != expected:
                rec["error"] = f"{fact}: expected {expected!r}, got {got!r}"
                break
        else:
            seen = invariants.setdefault(query.key, answer.invariant)
            if seen != answer.invariant:
                rec["error"] = f"renaming changed the answer: {seen!r} vs {answer.invariant!r}"


def tail(latencies: list[float], queries_per_batch: int) -> tuple[float, float, int]:
    """Latency at the fixed tail percentile, the percentile, and the samples beyond it."""
    pct = 1 - TAIL_SAMPLES / (MIN_BATCHES * queries_per_batch)
    ordered = sorted(latencies)
    index = max(0, math.ceil(pct * len(ordered)) - 1)
    return ordered[index], 100 * pct, len(ordered) - index - 1


def end_to_end(setup, walls, records, queries_per_batch, attempted, failed):
    """End-to-end metrics from (raw seconds, host scale) pairs and the query records."""
    scaled = [t * k for t, k in setup], [t * k for t, k in walls]
    latencies = [r["latency_s"] * r["host_scale"] for r in records]
    tail_s, pct, beyond = tail(latencies, queries_per_batch)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    raw = statistics.median(t for t, _ in walls)
    notes = [
        f"setup_s: median of {len(setup)} fresh-process imports, one before each batch",
        f"wall_s: median of {len(walls)} batches of {queries_per_batch} queries",
        f"query_p50_ms, query_tail_ms: {len(latencies)} samples; tail at p{pct:.2f} "
        f"with {beyond} samples beyond it",
        f"correct_frac: {attempted - failed} correct of {attempted} attempted ({failed} failed)",
        f"host speed: median scale {statistics.median(k for _, k in walls):.3f} "
        f"(reference task {REF_NOMINAL_S * 1e3:g} ms nominal); unscaled setup_s "
        f"{statistics.median(t for t, _ in setup):.4f} s, wall_s {raw:.4f} s, query_p50_ms "
        f"{1000 * statistics.median(r['latency_s'] for r in records):.4f} ms",
    ]
    metrics = {
        "setup_s": (statistics.median(scaled[0]), "s"),
        "wall_s": (statistics.median(scaled[1]), "s"),
        "query_p50_ms": (1000 * statistics.median(latencies), "ms"),
        "query_tail_ms": (1000 * tail_s, "ms"),
        "peak_rss_mb": (peak_mb, "MB"),
        "correct_frac": ((attempted - failed) / attempted, "ratio"),
    }
    return metrics, notes


def per_layer(untraced_walls, traced):
    """Per-layer metrics: medians over traced batches, exponents over all traced queries.

    Busy seconds and batch times are scaled by their batch's host scale; the
    exponents use raw span times, since a scale does not change a slope much.
    """
    from tracing import busy_by_name, busy_by_query, loglog_slope

    def med(values):
        return statistics.median(values) if values else 0.0

    def ratio(part, whole):
        return part / whole if whole else 0.0

    busy = [{name: t * k for name, t in busy_by_name(spans).items()}
            for _, k, _, _, spans in traced]
    counts = [c for _, _, _, c, _ in traced]

    def per_batch(counter):
        return med([c.get(counter, 0) for c in counts])

    def share(part, whole):
        return med([ratio(c.get(part, 0), c.get(whole, 0)) for c in counts])

    metrics = {layer + ".s": (med([b.get(layer, 0.0) for b in busy]), "s") for layer in LAYERS}
    for counter in [layer + ".calls" for layer in CALL_COUNTS] + [
        "nerve.simplices", "planarity.trace_vanishing.steps",
        "planarity.cone_construction.cone_vertices",
    ]:
        metrics[counter] = (per_batch(counter), "count")
    metrics["spherical.classify.spherical_frac"] = (
        share("spherical.classify.spherical", "spherical.classify.calls"), "ratio")
    metrics["invariants.betti.unknown_frac"] = (
        share("invariants.betti.unknown", "invariants.betti.entries"), "ratio")
    metrics["planarity.certify_nonplanar.notplanar_frac"] = (
        share("planarity.certify_nonplanar.notplanar", "planarity.certify_nonplanar.calls"), "ratio")
    metrics["nerve.build_nerve.us_per_simplex"] = (med([
        1e6 * ratio(b.get("nerve.build_nerve", 0.0), c.get("nerve.simplices", 0))
        for b, c in zip(busy, counts)]), "us")

    records = {rec["qid"]: rec for _, _, recs, _, _ in traced for rec in recs if rec.get("simplices")}
    all_spans = [s for _, _, _, _, spans in traced for s in spans]
    for layer, work in EXPONENTS.items():
        points = [
            (sum(records[q]["simplices"]), t / (records[q]["work"][work] if work else 1))
            for q, t in busy_by_query(all_spans, layer).items() if q in records
        ]
        metrics[layer + ".exponent"] = (loglog_slope(points), "slope")

    traced_wall = med([wall * k for wall, k, _, _, _ in traced])
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - med([wall * k for wall, k in untraced_walls]), "s")
    notes = [
        f"per-layer: medians over {len(traced)} traced batches; "
        f"tracing overhead against {len(untraced_walls)} untraced batches",
        "exponents: least-squares slope of log(layer seconds per query, per step for "
        "traces) against log(query nerve simplices)",
    ]
    return metrics, notes


def load_library():
    """Import the library from this checkout's src/, or exit with an error."""
    if not (SRC / "coxeter_l2" / "__init__.py").is_file():
        sys.exit(f"error: no library sources at {SRC}; run from a source checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from coxeter_l2 import spherical

    if not spherical.__file__.startswith(str(SRC)):
        sys.exit(f"error: imported the library from {spherical.__file__}, not {SRC}")
    return spherical


def measure(workload, seconds: float, trace: bool):
    """Run batches of the workload for the given time; return the result, notes, records and spans.

    Untraced, a fresh-process import is timed before each batch, so set-up
    time is sampled over the whole run as the batches are.
    """
    from tracing import Tracer

    spherical = load_library()
    pacer = Pacer()
    tracer = Tracer(after_call=pacer.tick)
    invariants: dict = {}
    setup, batches, all_records = [], [], []
    if not trace:
        fresh_import_s()  # compiles bytecode, which users pay once
    started = perf_counter()
    batch_no = 0
    last = 0.0
    while batch_no < MIN_BATCHES or perf_counter() - started + last <= seconds:
        t0 = perf_counter()
        if not trace:
            before = [reference_s() for _ in range(REF_SAMPLES)]
            seconds_taken = fresh_import_s()
            after = [reference_s() for _ in range(REF_SAMPLES)]
            setup.append((seconds_taken, host_scale(before + after)))
        queries = workload.batch(batch_no)
        tracer.enabled = trace and batch_no % 2 == 1
        records, counts, spans = run_batch(
            queries, tracer, pacer, spherical, batch_no, len(all_records))
        check(queries, records, invariants)
        last = perf_counter() - t0
        all_records += records
        batches.append((tracer.enabled, records, counts, spans))
        batch_no += 1
    for _ in range(REF_MARGIN):
        pacer.samples.append(reference_s())  # the last queries' samples after them
    for rec in all_records:
        rec["host_scale"] = pacer.scale(*rec.pop("refs"))
    untraced_walls = [batch_time(records) for on, records, _, _ in batches if not on]
    traced = [(*batch_time(records), records, counts, spans)
              for on, records, counts, spans in batches if on]

    attempted = len(all_records)
    failed = sum(r["error"] is not None for r in all_records)
    if trace:
        metrics, notes = per_layer(untraced_walls, traced)
    else:
        metrics, notes = end_to_end(setup, untraced_walls, all_records,
                                    len(queries), attempted, failed)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, notes, all_records, [s for _, _, _, _, spans in traced for s in spans]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_library()
    from workloads import OUT_DIR, WORKLOADS

    OUT_DIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed)
    result, notes, records, spans = measure(workload, args.seconds, bool(args.trace))

    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "queries": records, "spans": spans,
    }))
    for rec in [r for r in records if r["error"] is not None][:5]:
        print(f"FAILED {rec['key']} (batch {rec['batch']}): {rec['error']}", file=sys.stderr)
    for note in notes:
        print(note)
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
