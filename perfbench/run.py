"""Pipeline benchmark: analyze-bulk, capture-explain and fleet-ingest.

Run from the root of a checkout::

    python3 perfbench/run.py --workload analyze-bulk --seed 1 --seconds 20 --trace 0

Every workload runs the same three stages in turn inside each round:
bulk analysis of a seeded container pair, capture-and-explain of small
simulated runs, and a two-producer push to a replicated daemon pair.  A
workload sets the scale of each stage, so its own stage dominates the
round.  Rounds repeat one fixed, seeded unit of work until ``--seconds``
have passed.  Every time is scaled to a reference host speed; a batch
timing is the median over rounds, and a latency percentile is pooled
over every round's samples.  The last line of standard output is the
result as one JSON object; the lines before it stamp the host and the
scale and list the raw times.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import platform
import resource
import shutil
import statistics
import sys
import time

ROOT = pathlib.Path.cwd()
SRC = ROOT / "src"

#: Stage scales per workload: bulk items per core; capture items of
#: acl, dbpool and the lock convoy; fleet items per core.
WORKLOADS = {
    "analyze-bulk": {"bulk": 10_000, "capture": (60, 60, 24), "fleet": 4_000},
    "capture-explain": {"bulk": 2_000, "capture": (600, 600, 200), "fleet": 4_000},
    "fleet-ingest": {"bulk": 2_000, "capture": (60, 60, 24), "fleet": 20_000},
}
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5
MIN_ROUNDS = 4


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def build(work, speed, seed, scale):
    """One full set-up: every stage's inputs, and the daemon pair."""
    from perfbench.bulk import BulkStage
    from perfbench.capture import CaptureStage
    from perfbench.fleet import FleetStage

    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    bulk = BulkStage(work, speed, seed, scale["bulk"])
    capture = CaptureStage(work, speed, seed, *scale["capture"])
    fleet = FleetStage(work, speed, seed, scale["fleet"], SRC)
    return bulk, capture, fleet


def stamp(args, stages) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sizes": {st.name: st.sizes for st in stages},
    }


def measure(args, stages, tally, tracer) -> list[int]:
    """Run rounds for ``args.seconds``; returns the wrapped rounds.

    One warm-up round runs first, checked but not timed, so that caches
    fill and lazy set-up finishes before timing.  In a traced run odd rounds run with every layer wrapped and then call
    the decomposed layers; even rounds run unwrapped, so the run measures
    its own tracing overhead against untraced rounds.
    """
    for st in stages:
        st.round(tally)
        st.start_measuring()
    wrapped_rounds = []
    start = time.perf_counter()
    r = 0
    while r < MIN_ROUNDS or time.perf_counter() - start < args.seconds:
        wrapped = tracer is not None and r % 2 == 1
        if wrapped:
            wrapped_rounds.append(r)
            tracer.round = r
            wrap_all(tracer, stages)
        for st in stages:
            st.r.round = r
            st.round(tally)
        if wrapped:
            tracer.unwrap_all()
            for st in stages:
                st.decomposed(tracer)
        r += 1
    return wrapped_rounds


def wrap_all(tracer, stages) -> None:
    import repro.api as repro

    for verb in ("integrate", "diagnose", "diff", "record", "explain"):
        tracer.wrap(repro, verb, f"api.{verb}")
    for st in stages:
        st.wrap_layers(tracer)


#: Spans whose per-round self time the traced run reports.
SELF_SPANS = (
    "api.integrate", "api.diagnose", "api.diff", "api.record", "api.explain",
    "streaming.ingest_trace", "tracefile.read_chunk", "tracefile.load_trace",
    "hybrid.integrate", "diagnose.diagnose_trace", "differential.diff_traces",
    "depgraph.window_of_item", "depgraph.blocked_by_chain", "session.trace",
    "tracefile.save", "store.open_store",
)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench.common import Speed, Tally, median, percentile
    from perfbench.spans import Tracer

    scale = WORKLOADS[args.workload]
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    speed = Speed()
    setup_walls, setup_raw, stages = [], [], None
    try:
        for _ in range(SETUPS):
            if stages is not None:
                stages[2].close()
            wall, factor, stages = speed.timed(
                lambda: build(work, speed, args.seed, scale), with_away=True)
            setup_raw.append(wall)
            setup_walls.append(wall * factor)
        print(json.dumps({"stamp": stamp(args, stages)}), flush=True)

        tally = Tally()
        tracer = Tracer() if args.trace else None
        # Every round starts from the same heap: the set-up's objects are
        # collected once and moved out of the collector's sight.
        gc.collect()
        gc.freeze()
        if tracer is not None:
            tracer.watch_gc()
        wrapped_rounds = measure(args, stages, tally, tracer)
        if tracer is not None:
            tracer.unwatch_gc()
        bulk, capture, fleet = stages
    finally:
        if stages is not None:
            stages[2].close()
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics = {}
        for st in stages:
            metrics.update(st.layer_metrics())
        factors = {}
        for st in stages:
            for r, fs in st.r.round_factors().items():
                factors.setdefault(r, []).extend(fs)
        self_times = tracer.self_times()
        for name in SELF_SPANS:
            scaled = [v * statistics.mean(factors[r])
                      for r, v in self_times.get(name, {}).items()]
            metrics[f"self.{name}_s"] = (median(scaled) if scaled else 0.0, "s")
        facade = {}
        for st in stages:
            for r, v in st.r.round_sum(st.FACADE).items():
                facade[r] = facade.get(r, 0.0) + v
        traced = [v for r, v in facade.items() if r in wrapped_rounds]
        plain = [v for r, v in facade.items() if r not in wrapped_rounds]
        n_traced = len(traced)
        metrics["python.gc_s"] = (tracer.gc_s / n_traced, "s")
        metrics["python.gc_collections"] = (tracer.gc_collections / n_traced, "count")
        metrics["trace.overhead_share"] = (median(traced) / median(plain) - 1.0, "ratio")
        metrics["trace.spans_per_round"] = (len(tracer.spans) / n_traced, "count")
        out = ROOT / ".perfbench_out"
        out.mkdir(exist_ok=True)
        tracer.dump(out / f"spans-{args.workload}-seed{args.seed}.json")
    else:
        metrics = {"setup_s": (statistics.median(setup_walls), "s")}
        if args.workload == "fleet-ingest":
            metrics["peak_rss_mb"] = (fleet.peak_rss_mb, "MB")
        else:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics["peak_rss_mb"] = (rss_kb / 1024, "MB")
        for st in stages:
            metrics.update(st.metrics())

    print(json.dumps({"rounds": {
        "raw_setup_s": setup_raw,
        "raw_ack_ms": {f"p{q}": 1e3 * percentile(fleet.r.raw("ack"), q) for q in (50, 90)},
        "raw_s": {f"{st.name}.{key}": st.r.raw(key) for st in stages
                  for key in st.r.keys() if key != "ack"},
        "factor": {f"{st.name}.{key}": st.r.factors(key)
                   for st in stages for key in st.r.keys() if key != "ack"},
        "counts": {k: v for k, (v, _) in
                   {**bulk.counts(), **capture.counts(), **fleet.counts()}.items()},
    }}))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
