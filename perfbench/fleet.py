"""Fleet ingest: two producers push to a replicated pair of daemons.

The primary and its follower are ``repro serve`` subprocesses, apart
from the generator, so the benchmark measures the daemon and not the
producer.  Loads ``service`` (protocol, client, daemon, store, replica)
and ``core.durable``; the store read after the pushes catches a commit
path that makes committed containers slower to read.

The producers form a closed loop: each connection sends its next
segment only when the daemon's credit window allows, and a round ends
when both runs have committed.  Every round starts from a fresh daemon
pair on empty stores, so each round does the same work: a store that
grew with every round would make each commit, replication sync and
anti-entropy scrub cost more than the one before.
"""

from __future__ import annotations

import asyncio
import os
import shutil
import signal
import subprocess
import sys
import time

import numpy as np

import repro.api as repro
from repro.core.options import IngestOptions
from repro.core.tracefile import load_trace, save_trace
from repro.service.client import open_transport, push_segments
from repro.service.protocol import (
    KIND_ACK,
    KIND_COMMITTED,
    KIND_FINISH,
    KIND_HELLO,
    KIND_SEGMENT,
    FrameDecoder,
    decode_frame,
)
from repro.service.sources import iter_journal_segments, journal_from_container
from repro.service.store import TraceStore

from perfbench import inputs
from perfbench.common import Rounds, median, percentile

CORES = 2
SPI = 4
CHUNK = 4_096
#: Run ids of a round's two pushes; every round starts on empty stores.
RUNS = {"base": "base", "reg": "regressed"}


class FrameLog:
    """What one producer connection saw, stamped at its transport."""

    def __init__(self) -> None:
        self.hello = self.finish = self.committed = None
        self.sent: dict[int, float] = {}
        self.ack_latency: list[float] = []


class TimedWriter:
    """Stamps each outgoing frame as it is handed to the transport."""

    def __init__(self, writer, log: FrameLog) -> None:
        self._writer, self._log = writer, log

    def write(self, data: bytes) -> None:
        now = time.perf_counter()
        frame = decode_frame(data)
        kind = frame.kind
        if kind == KIND_SEGMENT:
            self._log.sent[frame.meta["seq"]] = now
        elif kind == KIND_HELLO and self._log.hello is None:
            self._log.hello = now
        elif kind == KIND_FINISH:
            self._log.finish = now
        self._writer.write(data)

    def __getattr__(self, name):
        return getattr(self._writer, name)


class TimedReader:
    """Stamps each ACK and the COMMITTED as its bytes are read."""

    def __init__(self, reader, log: FrameLog) -> None:
        self._reader, self._log = reader, log
        self._decoder = FrameDecoder()

    async def read(self, n: int) -> bytes:
        data = await self._reader.read(n)
        now = time.perf_counter()
        for frame in self._decoder.feed(data):
            if frame.kind == KIND_ACK:
                sent = self._log.sent.pop(frame.meta.get("seq"), None)
                if sent is not None:
                    self._log.ack_latency.append(now - sent)
            elif frame.kind == KIND_COMMITTED:
                self._log.committed = now
        return data


class Daemon:
    """One ``repro serve`` subprocess, logging to a file in its directory."""

    def __init__(self, workdir, src_dir, name: str, extra: list[str], cpus) -> None:
        self.name = name
        self.socket = workdir / f"{name}.sock"
        self.store = workdir / name
        self.log_path = workdir / f"{name}.log"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src_dir)
        self._log = open(self.log_path, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--store", name,
             "--socket", f"{name}.sock", *extra],
            cwd=workdir, env=env, stdout=self._log, stderr=subprocess.STDOUT,
        )
        os.sched_setaffinity(self.proc.pid, cpus)

    @property
    def addr(self) -> str:
        return f"unix:{os.path.relpath(self.socket)}"

    def wait_listening(self, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        while b"listening on" not in self.log_path.read_bytes():
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(
                    f"daemon {self.name} did not start:\n"
                    + self.log_path.read_text(errors="replace")
                )
            time.sleep(0.005)

    def _proc_file(self, name: str) -> str:
        with open(f"/proc/{self.proc.pid}/{name}") as fh:
            return fh.read()

    def cpu_s(self) -> float:
        fields = self._proc_file("stat").rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def vm_hwm_mb(self) -> float:
        for line in self._proc_file("status").splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


def _journal_segments(workdir, rng, items: int, regressed: bool):
    samples, switches = {}, {}
    for core in range(CORES):
        samples[core], switches[core] = inputs.make_core(
            rng, core, items, SPI, regressed=regressed
        )
    name = "regressed" if regressed else "base"
    path = workdir / f"fleet_{name}.npz"
    save_trace(path, samples, switches, inputs.SYMTAB, meta={"workload": "perfbench"},
               chunk_size=CHUNK, compress=False)
    jdir = journal_from_container(path, workdir / f"journal_{name}", options=IngestOptions())
    return list(iter_journal_segments(jdir))


def _dir_bytes(root) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(root) for f in files
    )


class FleetStage:
    name = "fleet"

    #: Samples that time a facade call (the traced run compares them).
    FACADE = ("round", "store_diff")

    def __init__(self, work, speed, seed: int, items: int, src_dir) -> None:
        self.work, self.speed, self.src_dir = work, speed, src_dir
        self.items = items
        rng = np.random.default_rng([seed, 3])
        self.segments = {
            "base": _journal_segments(work, rng, items, regressed=False),
            "reg": _journal_segments(work, rng, items, regressed=True),
        }
        self.input_bytes = sum(len(d) for s in self.segments.values() for _, d in s)
        self.primary = self.follower = None
        self._start_daemons()
        self.r = Rounds(speed)
        self.start_measuring()

    @property
    def n_segments(self) -> int:
        return sum(len(s) for s in self.segments.values())

    @property
    def sizes(self) -> dict:
        return {"cores": CORES, "items_per_core": self.items, "samples_per_item": SPI,
                "chunk": CHUNK, "segments_per_run": len(self.segments["base"]),
                "producers": 2}

    def _start_daemons(self) -> None:
        """A fresh daemon pair on empty stores, both listening."""
        for name in ("primary", "follower"):
            shutil.rmtree(self.work / name, ignore_errors=True)
        # The follower shares the benchmark's CPU, which is idle while the
        # producers wait for ACKs, so replicating a committed run does not
        # compete with the primary's admission of the other run.
        self.follower = Daemon(self.work, self.src_dir, "follower", [], self.speed.home)
        self.primary = Daemon(self.work, self.src_dir, "primary",
                              ["--replicate-to", "unix:follower.sock"], self.speed.away)
        try:
            self.follower.wait_listening()
            self.primary.wait_listening()
        except Exception:
            self.close()
            raise
        self.fresh = True
        self.cpu0 = self.primary.cpu_s()

    def close(self) -> None:
        for daemon in (self.primary, self.follower):
            if daemon is not None:
                daemon.stop()

    async def _push(self, run_id: str, segments):
        log = FrameLog()
        reader, writer = await open_transport(self.primary.addr)
        try:
            report = await push_segments(
                TimedReader(reader, log), TimedWriter(writer, log), run_id, segments,
                reply_timeout=60.0,
            )
        finally:
            writer.close()
            await writer.wait_closed()
        return report, log

    async def _push_pair(self):
        return await asyncio.gather(
            *(self._push(run, self.segments[kind]) for kind, run in RUNS.items())
        )

    def _replicated(self, last_commit: float) -> float | None:
        """Wait until the follower holds both runs and the primary has
        confirmed them in its replication ledger, so the sync is over.
        Returns the replica lag: last COMMITTED until the follower's
        catalog shows both runs (None if it never did)."""
        catalog = self.follower.store / "catalog.jsonl"
        ledger = self.primary.store / "replication.jsonl"
        lag = None
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            if lag is None:
                text = catalog.read_text() if catalog.exists() else ""
                if all(f'"run": "{r}"' in text for r in RUNS.values()):
                    lag = time.perf_counter() - last_commit
            if lag is not None:
                text = ledger.read_text() if ledger.exists() else ""
                if all(f'"run": "{r}"' in text for r in RUNS.values()):
                    break
            time.sleep(0.002)
        return lag

    def start_measuring(self) -> None:
        self.r.clear()
        self.nacks = self.credit_stalls = 0
        self.daemon_cpu_s = 0.0
        self.vm_hwm_mb: list[float] = []

    def round(self, tally) -> None:
        if not self.fresh:
            self.close()
            self._start_daemons()
        self.fresh = False

        def push_and_replicate():
            pushed = asyncio.run(self._push_pair())
            last_commit = max(log.committed for _, log in pushed)
            return pushed, self._replicated(last_commit)

        # Only the frame stamps time the push.  The speed readings after
        # it wait for replication to end, so they do not share the CPUs
        # with the daemons' own work.
        _, factor, (pushed, lag) = self.r.speed.timed(push_and_replicate, with_away=True)
        logs = [log for _, log in pushed]
        add = self.r.add
        add("round", max(l.committed for l in logs) - min(l.hello for l in logs), factor)
        for report, log in pushed:
            add("push", log.committed - log.hello, factor)
            add("commit", log.committed - log.finish, factor)
            for latency in log.ack_latency:
                add("ack", latency, factor)
            self.nacks += report.nacks_total
            self.credit_stalls += report.credit_stalls
            tally.check(report.committed and report.nacks_total == 0,
                        f"push {report.run} commits with 0 NACKs")
        if lag is not None:
            add("lag", lag, factor)
        primary, follower = TraceStore(self.primary.store), TraceStore(self.follower.store)
        for run in RUNS.values():
            a, b = primary.container_path(run), follower.container_path(run)
            tally.check(b.exists() and a.read_bytes() == b.read_bytes(),
                        f"follower holds run {run} byte-identical to the primary")

        delta = self.r.timed("store_diff", lambda: repro.diff(
            RUNS["base"], RUNS["reg"], store=self.primary.store))
        tally.check(delta.top is not None
                    and delta.top.fn_name == f"fn_{inputs.REGRESSED_FN}",
                    "store diff names the regressed function first")

        # Daemon-side readings of this round, before the pair is replaced.
        self.daemon_cpu_s += self.primary.cpu_s() - self.cpu0
        self.vm_hwm_mb.append(self.primary.vm_hwm_mb())
        self.store_bytes = _dir_bytes(self.primary.store)
        self.replica_bytes = _dir_bytes(self.follower.store)

    def decomposed(self, tracer) -> None:
        store = TraceStore(self.primary.store)
        self.r.timed("store_read", lambda: tracer.call(
            "layer.store.read", lambda: load_trace(store.path_for(RUNS["base"]))))

    def wrap_layers(self, tracer) -> None:
        tracer.wrap(repro, "open_store", "store.open_store")

    @property
    def peak_rss_mb(self) -> float:
        """The primary daemon's largest ``VmHWM`` over the rounds."""
        return max(self.vm_hwm_mb)

    def metrics(self) -> dict:
        ack = self.r.norm("ack")
        return {
            "commit_seg_per_s": (self.n_segments / self.r.batch("round"),
                                 "segments/s"),
            "ack_latency_p50_ms": (1e3 * percentile(ack, 50), "ms"),
            "ack_latency_p90_ms": (1e3 * percentile(ack, 90), "ms"),
            "store_diff_s": (self.r.batch("store_diff"), "s"),
        }

    def counts(self) -> dict:
        """Exact counts: a change to them is a change in behaviour."""
        return {
            "client.nacks": (self.nacks, "count"),
            "client.credit_stalls": (self.credit_stalls, "count"),
            "client.ack_samples": (len(self.r.raw("ack")), "count"),
            "store.bytes_per_input_byte": (self.store_bytes / self.input_bytes, "ratio"),
            "replica.bytes_per_input_byte": (self.replica_bytes / self.input_bytes, "ratio"),
        }

    def layer_metrics(self) -> dict:
        committed = len(self.vm_hwm_mb) * self.n_segments
        return {
            "client.push_s": (median(self.r.norm("push")), "s"),
            "daemon.commit_s": (median(self.r.norm("commit")), "s"),
            "daemon.cpu_s_per_segment": (self.daemon_cpu_s / committed, "s"),
            "store.read_s": (self.r.batch("store_read"), "s"),
            "replica.lag_s": (median(self.r.norm("lag")), "s"),
            **self.counts(),
        }
