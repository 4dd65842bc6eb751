"""The interactive loop on small traces: capture, save, explain.

Loads ``machine``, ``runtime``, ``workloads``/``acl``, ``session`` and
container writing (plain and through the durable journal); ``analysis``
and ``depgraph`` run on traces about a thousand times smaller than the
bulk pair, so a fixed per-call cost added to analysis shows here.
"""

from __future__ import annotations

import os

import numpy as np

import repro.api as repro
from repro.analysis import depgraph
from repro.analysis.diagnose import diagnose_trace, item_totals
from repro.core.tracefile import TraceReader, load_trace
from repro.session import TraceSession
from repro.workloads.contention import LockConvoyApp, LockConvoyConfig

from perfbench.common import Rounds, median

EXPLAINED = 3


class CaptureStage:
    name = "capture"

    #: Samples that time a facade call (the traced run compares them).
    FACADE = ("acl", "dbpool", "save", "convoy", "explain")
    #: The capture part of a round: record and save all three runs.
    CAPTURE = ("acl", "dbpool", "save", "convoy")

    def __init__(self, work, speed, seed: int, acl: int, dbpool: int,
                 convoy: int) -> None:
        rng = np.random.default_rng([seed, 2])
        self.acl_seed, self.db_seed = (int(x) for x in rng.integers(0, 2**31, 2))
        # The hog's critical section varies with the seed; the convoy
        # (victim items queueing behind it) holds at every value drawn.
        self.convoy = LockConvoyConfig(
            n_items=convoy, hog_hold_uops=int(rng.integers(50_000, 70_000))
        )
        self.n = {"acl": acl, "dbpool": dbpool, "convoy": convoy}
        self.items = acl + dbpool + convoy
        self.paths = {k: work / f"capture_{k}.npz" for k in self.n}
        self.r = Rounds(speed)
        self.totals = {}
        self.hops = 0

    @property
    def sizes(self) -> dict:
        return {"items": dict(self.n), "convoy_hog_hold_uops": self.convoy.hog_hold_uops,
                "explained_items": EXPLAINED}

    def _clear(self) -> None:
        for path in self.paths.values():
            if path.exists():
                path.unlink()

    def start_measuring(self) -> None:
        self.r.clear()

    def round(self, tally) -> None:
        self._clear()
        paths, n = self.paths, self.n
        timed = self.r.timed
        s_acl = timed("acl", lambda: repro.record(
            "acl", out=paths["acl"], items=n["acl"], seed=self.acl_seed, durable=True))
        s_db = timed("dbpool", lambda: repro.record(
            "dbpool", items=n["dbpool"], seed=self.db_seed))
        timed("save", lambda: s_db.save(paths["dbpool"]))
        s_cv = timed("convoy", lambda: repro.record(
            LockConvoyApp(self.convoy), out=paths["convoy"], sample_cores=[0, 1]))
        tally.check(not s_acl.degraded and paths["acl"].exists(),
                    "durable acl capture finalized into a container")
        sessions = (s_acl, s_db, s_cv)
        self.totals = {
            "cycles": sum(s.machine.max_clock for s in sessions),
            "pebs": sum(u.sample_count for s in sessions for u in s.units.values()),
            "waits": sum(s.wait_log.n_edges for s in sessions),
            "bytes": sum(os.path.getsize(p) for p in paths.values()),
        }

        victim = LockConvoyApp.VICTIM_CORE
        ids, totals = item_totals(s_cv.trace_for(victim).window_columns)
        slowest = [int(i) for i in ids[np.argsort(-totals, kind="stable")[:EXPLAINED]]]
        self.slowest = slowest
        self.hops = 0
        for item in slowest:
            why = timed("explain", lambda: repro.explain(paths["convoy"], item, core=victim))
            self.hops += len(why["blocked_by"])
            hop = why["blocked_by"][0] if why["blocked_by"] else {}
            tally.check(
                hop.get("blocker_fn") == "locked_update"
                and hop.get("blocker_core") == LockConvoyApp.HOG_CORE,
                f"explain({item}) names locked_update on the hog core",
            )

    def decomposed(self, tracer) -> None:
        victim = LockConvoyApp.VICTIM_CORE
        trace = load_trace(self.paths["convoy"]).integrate(victim)
        self.r.timed("classify_small", lambda: tracer.call(
            "layer.diagnose.classify_small", lambda: diagnose_trace(trace, None)))
        with TraceReader(self.paths["convoy"]) as reader:
            waits = {c: reader.wait_columns(c) for c in reader.wait_cores}

        def chains():
            for item in self.slowest:
                lo, hi = depgraph.window_of_item(trace.window_columns, item)
                depgraph.blocked_by_chain(waits, victim, lo, hi, symtab=trace.symtab)

        self.r.timed("chain", lambda: tracer.call("layer.depgraph.chain", chains))

    def wrap_layers(self, tracer) -> None:
        tracer.wrap(repro, "_run_trace", "session.trace")
        tracer.wrap(TraceSession, "save", "tracefile.save")
        tracer.wrap(depgraph, "blocked_by_chain", "depgraph.blocked_by_chain")
        tracer.wrap(depgraph, "window_of_item", "depgraph.window_of_item")

    def metrics(self) -> dict:
        capture = median(list(self.r.round_sum(self.CAPTURE).values()))
        return {
            "capture_items_per_s": (self.items / capture, "items/s"),
            "explain_s": (self.r.batch("explain"), "s"),
        }

    def counts(self) -> dict:
        """Exact counts: a change to them is a change in behaviour."""
        c, items = self.totals, self.items
        return {
            "depgraph.hops": (self.hops, "count"),
            "machine.cycles_per_item": (c["cycles"] / items, "cycles"),
            "machine.pebs_samples": (c["pebs"] / items, "count"),
            "runtime.wait_edges": (c["waits"] / items, "count"),
            "tracefile.bytes_per_item": (c["bytes"] / items, "B"),
        }

    def layer_metrics(self) -> dict:
        batch = self.r.batch
        return {
            "session.record_s.acl": (batch("acl"), "s"),
            "session.record_s.dbpool": (batch("dbpool"), "s"),
            "session.record_s.convoy": (batch("convoy"), "s"),
            "tracefile.save_s": (batch("save"), "s"),
            "diagnose.classify_s.small": (batch("classify_small"), "s"),
            "depgraph.chain_s": (batch("chain"), "s"),
            **self.counts(),
        }
