"""The walk rounds of :func:`repro.sampling.walker.batch_walk`, in C.

The C function reads the same uniform slots as the Python kernel and does
the same double arithmetic: the pick truncates ``u * (double)degree``
and the coin compares ``u < accept``. It is built with
``-ffp-contract=off`` (and never ``-ffast-math``), so the compiler may not
fuse or reorder that arithmetic, and the ends are the Python kernel's bit
for bit.

It is compiled with the system C compiler on first use, once per process,
into a private temporary directory that is removed once the object is
loaded; nothing is cached on disk. With no compiler, or when building or
loading fails, :func:`walk_rounds` returns ``None`` and ``batch_walk``
runs its Python kernel.
"""

from __future__ import annotations

import ctypes
import functools
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import Callable

#: for each round r, move the first counts[r] agents: agent j picks the
#: edge from slot j and flips its coin from slot k + j; the next round
#: starts 2k slots on. The coin selects the next node without a branch
#: (a conditional move): a branch on a fair coin mispredicts half the
#: time, which made the loop about six times slower
_SOURCE = r"""
#include <stdint.h>

void walk_rounds(const int64_t *offsets, const int64_t *degrees,
                 const int64_t *targets, const double *accept,
                 int64_t *walking, const int64_t *counts, int64_t n_rounds,
                 const double *u) {
    for (int64_t r = 0; r < n_rounds; r++) {
        int64_t k = counts[r];
        for (int64_t j = 0; j < k; j++) {
            int64_t node = walking[j];
            int64_t edge = offsets[node]
                + (int64_t)(u[j] * (double)degrees[node]);
            int64_t next = targets[edge];
            walking[j] = u[k + j] < accept[edge] ? next : node;
        }
        u += 2 * k;
    }
}
"""

_FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")


@functools.cache
def walk_rounds() -> Callable[..., None] | None:
    """The compiled ``walk_rounds``, or ``None`` where it cannot be built.

    Its arguments are the addresses of ``offsets``, ``degrees``,
    ``targets`` (int64), ``accept`` (float64), the agents' positions
    ``walking`` (int64, updated in place), the per-round mover
    ``counts`` (int64), then the number of rounds and the address of the
    uniforms (float64, two per mover per round). Every array must be
    C-contiguous and outlive the call.
    """
    return _build(shutil.which("cc"))


def _build(compiler: str | None) -> Callable[..., None] | None:
    """Compile and load the kernel with ``compiler``; ``None`` on failure."""
    if compiler is None:
        return None
    try:
        with tempfile.TemporaryDirectory() as directory:
            source = Path(directory) / "walk.c"
            library = Path(directory) / "walk.so"
            source.write_text(_SOURCE)
            built = subprocess.run(
                [compiler, *_FLAGS, "-o", str(library), str(source)],
                capture_output=True,
                check=False,
            )
            if built.returncode != 0:
                return None
            function = ctypes.CDLL(str(library)).walk_rounds
    except OSError:
        return None
    function.argtypes = [ctypes.c_void_p] * 6 + [ctypes.c_int64, ctypes.c_void_p]
    function.restype = None
    return function
