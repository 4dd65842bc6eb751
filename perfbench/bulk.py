"""Offline analysis of one seeded container pair.

Loads ``core`` (tracefile read, streaming, records/hybrid) and
``analysis`` (diagnose, differential).  No simulator or service code
runs here.
"""

from __future__ import annotations

import numpy as np

import repro.api as repro
from repro.analysis.diagnose import diagnose_trace
from repro.analysis.differential import diff_traces
from repro.core.options import DEFAULT_CHUNK_SIZE
from repro.core.tracefile import TraceFile, TraceReader, load_trace

from perfbench import inputs
from perfbench.common import Rounds

CORES = 4
SPI = 5
CHUNK = 65_536


class BulkStage:
    name = "bulk"

    #: Samples that time a facade call (the traced run compares them).
    FACADE = ("ingest", "diagnose", "online", "diff")

    def __init__(self, work, speed, seed: int, items: int) -> None:
        self.items = items
        rng = np.random.default_rng([seed, 1])
        self.base = work / "bulk_base.npz"
        self.regressed = work / "bulk_regressed.npz"
        self.planted = inputs.write_trace(
            self.base, rng, cores=CORES, items=items, spi=SPI, chunk=CHUNK,
            plant=True,
        )
        inputs.write_trace(
            self.regressed, rng, cores=CORES, items=items, spi=SPI, chunk=CHUNK,
            regressed=True,
        )
        self.sample_mb = CORES * items * SPI * inputs.SAMPLE_BYTES / 1e6
        self.r = Rounds(speed)
        self.outliers = 0
        self.online_verdicts = 0

    @property
    def sizes(self) -> dict:
        return {"cores": CORES, "items_per_core": self.items,
                "samples_per_item": SPI, "chunk": CHUNK,
                "sample_mb": round(self.sample_mb, 3),
                "planted_slow_per_core": len(self.planted[0])}

    def start_measuring(self) -> None:
        self.r.clear()

    def round(self, tally) -> None:
        base, group_of = self.base, inputs.group_of
        result = self.r.timed("ingest", lambda: repro.integrate(base))
        tally.check(
            sum(len(t.window_columns) for t in result.per_core.values())
            == CORES * self.items,
            "integrate: every item of every core has its window",
        )
        del result

        report = self.r.timed("diagnose", lambda: repro.diagnose(base, group_of=group_of))
        flagged = sorted(v.item_id for v in report.outliers)
        self.outliers = len(flagged)
        tally.check(flagged == self.planted[0],
                    "diagnose flags exactly the planted slow items")

        seen = []
        streamed = self.r.timed("online", lambda: repro.diagnose(
            base, group_of=group_of, stream=True, on_verdict=seen.append))
        self.online_verdicts = len(seen)
        online = {v.item_id for v in seen if v.is_outlier}
        tally.check(
            streamed.verdicts == report.verdicts
            and set(self.planted[0]) <= online,
            "online diagnosis: same verdicts as one-shot, planted items "
            "flagged while streaming",
        )
        del report, streamed, seen

        delta = self.r.timed("diff", lambda: repro.diff(base, self.regressed))
        top = delta.top
        tally.check(
            top is not None and top.fn_name == f"fn_{inputs.REGRESSED_FN}",
            "diff names the regressed function first",
        )

    def decomposed(self, tracer) -> None:
        """Each layer on its own, on the same inputs (traced run only)."""

        def read_chunks():
            with TraceReader(self.base) as reader:
                for core in reader.sample_cores:
                    for _chunk in reader.iter_sample_chunks(core, DEFAULT_CHUNK_SIZE):
                        pass

        def layer(key, name, fn):
            return self.r.timed(key, lambda: tracer.call(name, fn)[1])

        layer("read_chunks", "layer.tracefile.read_chunks", read_chunks)
        tf = layer("load", "layer.tracefile.load", lambda: load_trace(self.base))
        trace = layer("integrate", "layer.hybrid.integrate", lambda: tf.integrate(0))
        layer("classify", "layer.diagnose.classify",
              lambda: diagnose_trace(trace, inputs.group_of))
        other = load_trace(self.regressed).integrate(0)
        layer("rank", "layer.differential.rank", lambda: diff_traces(trace, other))

    def wrap_layers(self, tracer) -> None:
        tracer.wrap(repro, "load_trace", "tracefile.load_trace")
        tracer.wrap(repro, "ingest_trace", "streaming.ingest_trace")
        tracer.wrap(repro, "diagnose_trace", "diagnose.diagnose_trace")
        tracer.wrap(repro, "diff_traces", "differential.diff_traces")
        tracer.wrap(TraceFile, "integrate", "hybrid.integrate")
        tracer.wrap(TraceReader, "iter_sample_chunks",
                    "tracefile.read_chunk", generator=True)

    def metrics(self) -> dict:
        batch = self.r.batch
        return {
            "ingest_mb_per_s": (self.sample_mb / batch("ingest"), "MB/s"),
            "diagnose_s": (batch("diagnose"), "s"),
            "online_diagnose_s": (batch("online"), "s"),
            "diff_s": (batch("diff"), "s"),
        }

    def layer_metrics(self) -> dict:
        batch = self.r.batch
        return {
            "tracefile.read_chunks_s": (batch("read_chunks"), "s"),
            "tracefile.load_s": (batch("load"), "s"),
            "hybrid.integrate_s": (batch("integrate"), "s"),
            "diagnose.classify_s": (batch("classify"), "s"),
            "differential.rank_s": (batch("rank"), "s"),
            **self.counts(),
        }

    def counts(self) -> dict:
        """Exact counts: a change to them is a change in behaviour."""
        return {
            "diagnose.outliers": (self.outliers, "count"),
            "diagnose.online_verdicts": (self.online_verdicts, "count"),
        }

