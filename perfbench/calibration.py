"""Drift calibration: express host time in units of a fixed reference kernel.

A small shared virtual machine speeds up and slows down in bursts of a few
seconds, so raw wall-clock intervals measured minutes apart are not
comparable. The benchmark therefore times a fixed pure-Python reference
kernel before and after every timed interval and reports

    calibrated = raw * nominal_kernel_s / mean(kernel_before, kernel_after)

i.e. "how long this interval would have taken on a machine where the
kernel takes ``nominal_kernel_s``". The kernel walks a prebuilt
dict-of-int-lists and allocates no containers: interpreter dispatch,
dict/list indexing and integer arithmetic are exactly what the Digest
hot paths (CSR building, BFS, walk-context snapshots, tuple updates) spend
their time on, so it drifts with them far better than a numpy kernel.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

#: shape of the reference structure: KERNEL_KEYS int keys -> KERNEL_WIDTH ints
KERNEL_KEYS = 2000
KERNEL_WIDTH = 8
#: traversals per timing; a timing is the median of KERNEL_REPEATS of them
KERNEL_PASSES = 2
KERNEL_REPEATS = 3


def _build_reference() -> dict[int, list[int]]:
    return {
        key: [(key * 31 + j * 17) % 1009 for j in range(KERNEL_WIDTH)]
        for key in range(KERNEL_KEYS)
    }


def _traverse(table: dict[int, list[int]], passes: int) -> int:
    total = 0
    for _ in range(passes):
        for key in table:
            row = table[key]
            for j in range(KERNEL_WIDTH):
                total += row[j] ^ key
    return total


@dataclass
class Calibrator:
    """Times the reference kernel and converts raw intervals.

    ``nominal_kernel_s`` is the committed kernel time of the reference
    machine (see ``design.json``). Every :meth:`probe` records one kernel
    timing; :meth:`factor` turns the probes bracketing an interval into
    the multiplier applied to that interval's raw seconds.
    """

    nominal_kernel_s: float
    probes: list[float] = field(default_factory=list)
    _table: dict[int, list[int]] = field(default_factory=_build_reference)

    def probe(self) -> float:
        """Time the kernel now (median of repeats); returns seconds."""
        timings = []
        for _ in range(KERNEL_REPEATS):
            start = time.perf_counter()
            _traverse(self._table, KERNEL_PASSES)
            timings.append(time.perf_counter() - start)
        timings.sort()
        kernel_s = timings[len(timings) // 2]
        self.probes.append(kernel_s)
        return kernel_s

    def factor(self, before: float, after: float) -> float:
        """Multiplier for an interval bracketed by two kernel timings."""
        return self.nominal_kernel_s / (0.5 * (before + after))
