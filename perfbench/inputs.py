"""Seeded inputs for the pipeline benchmark.

Every workload draws its inputs here from the ``--seed`` argument, so the
same seed gives the same bytes; the program under test only ever sees
the generated containers, journals and workload configs.
"""

from __future__ import annotations

import numpy as np

from repro.core.records import SwitchRecords
from repro.core.symbols import SymbolTable
from repro.core.tracefile import save_trace
from repro.machine.pebs import SampleArrays
from repro.runtime.actions import SwitchKind

#: Eight synthetic functions, 100 address units each.
N_FUNCS = 8
SYMTAB = SymbolTable.from_ranges(
    {f"fn_{i}": (i * 100, (i + 1) * 100) for i in range(N_FUNCS)}
)
#: Bytes of one stored sample (three int64 columns: ts, ip, tag).
SAMPLE_BYTES = 24
#: Function the slow items of the base run spend their excess in.
SLOW_FN = 3
#: Function whose cost grows in the regressed run.
REGRESSED_FN = 6
#: Extra cycles a planted slow item spends in SLOW_FN.
SLOW_EXTRA = 8_000
#: Extra cycles every item of the regressed run spends in REGRESSED_FN.
REGRESS_EXTRA = 600


def make_core(rng, core, n_items, spi, *, slow=(), regressed=False):
    """One core's samples and switch marks: ``n_items`` back-to-back
    windows of 600-700 cycles with ``spi`` samples each.

    The narrow width keeps every ordinary item inside diagnosis's band,
    whose upper edge is at least 1.2x the group median (>= 720 cycles).

    Items whose index is in ``slow`` run SLOW_EXTRA cycles longer, and
    their last two samples fall in SLOW_FN inside that excess.  With
    ``regressed`` every item runs REGRESS_EXTRA cycles longer in
    REGRESSED_FN, and its last two samples land there.  The sample count
    per item never changes, so every variant has the same byte size.
    """
    gaps = rng.integers(50, 200, size=n_items)
    durs = rng.integers(600, 700, size=n_items)
    extra = np.zeros(n_items, dtype=np.int64)
    slow_idx = np.asarray(sorted(slow), dtype=np.int64)
    extra[slow_idx] += SLOW_EXTRA
    if regressed:
        extra += REGRESS_EXTRA
    total = durs + extra
    starts = np.cumsum(gaps + total) - total
    ends = starts + total
    items = core * n_items + np.arange(1, n_items + 1)
    n2 = 2 * n_items
    ts2 = np.empty(n2, dtype=np.int64)
    ts2[0::2], ts2[1::2] = starts, ends
    item2 = np.repeat(items, 2)
    kinds = [SwitchKind.ITEM_START, SwitchKind.ITEM_END] * n_items
    switches = SwitchRecords.from_arrays(core, ts2, item2, kinds)

    off = rng.integers(0, 400, size=(n_items, spi))
    off.sort(axis=1)
    fn = rng.integers(0, N_FUNCS, size=(n_items, spi))
    # The last two samples of an item with excess sit inside the excess,
    # in the function that caused it.
    tail = np.linspace(0.05, 0.95, 2)
    has_extra = extra > 0
    tail_off = durs[:, None] + (extra[:, None] * tail[None, :]).astype(np.int64)
    off[has_extra, -2:] = tail_off[has_extra]
    culprit = np.where(np.isin(np.arange(n_items), slow_idx), SLOW_FN, REGRESSED_FN)
    fn[has_extra, -2:] = culprit[has_extra, None]
    ts = (starts[:, None] + off).ravel()
    ip = (fn * 100 + rng.integers(0, 100, size=(n_items, spi))).ravel()
    samples = SampleArrays(
        ts=ts.astype(np.int64),
        ip=ip.astype(np.int64),
        tag=np.full(n_items * spi, -1, dtype=np.int64),
    )
    return samples, switches


#: Similarity groups of the bulk traces; an item's group is
#: ``(item - 1) % GROUPS``.  Diagnosis baselines within a group, and the
#: planted slow items all sit in group 0.
GROUPS = 64


def group_of(item: int) -> int:
    return (item - 1) % GROUPS


#: Items per planted slow item.
ITEMS_PER_SLOW = 2_500
#: Observations a group needs before the online diagnoser judges
#: (``StreamingDiagnoser.min_baseline``); planted items come later.
WARMUP = 5


def write_trace(path, rng, *, cores, items, spi, chunk, plant=False,
                regressed=False):
    """Write one seeded container; returns {core: sorted slow item ids}."""
    samples, switches, planted = {}, {}, {}
    n_slow = max(1, items // ITEMS_PER_SLOW) if plant else 0
    for core in range(cores):
        first = core * items + 1
        in_group0 = np.nonzero((first + np.arange(items) - 1) % GROUPS == 0)[0]
        # One slow item per equal stratum of the group, so each one the
        # online diagnoser judges follows many ordinary items: its running
        # spread is not robust, and two slow items in a row would let the
        # first widen the band past the second.
        strata = np.array_split(in_group0[WARMUP:], n_slow) if n_slow else []
        slow = np.asarray([rng.choice(s) for s in strata], dtype=np.int64)
        samples[core], switches[core] = make_core(
            rng, core, items, spi, slow=slow, regressed=regressed
        )
        planted[core] = sorted(int(first + i) for i in slow)
    save_trace(
        path, samples, switches, SYMTAB, meta={"workload": "perfbench"},
        chunk_size=chunk, compress=False,
    )
    return planted
