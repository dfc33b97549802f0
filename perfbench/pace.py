"""The pace probe: fixed pieces of work that use nothing from derhed,
timed around each op to see how fast the host runs at that moment.

The machine the benchmark was defined on is a 2-core VM on a shared host
whose speed for the same code swings by up to 2x, in stretches from
milliseconds to minutes; a run of ops cannot average that away.  So the
runner times a piece right after every op and, for ops that run in the
benchmark process, one every INTERVAL_S while the op runs, and reports
each op's time scaled by the piece's reference time over the mean time of
the pieces around it.  A slower program moves the op times and not the
pieces; a slower host moves both.

There are two pieces, each like the work it paces:

- ``in_process``, for ops that call derhed in the benchmark process:
  pure-Python dict and list code and small int64 numpy row operations
  mod p, the two kinds of work derhed does;
- ``child``, for CLI processes and set-up: a fresh interpreter that
  imports a few standard modules, as every CLI process does first.
"""

from __future__ import annotations

import contextlib
import signal
import subprocess
import sys
from time import perf_counter

import numpy as np

INTERVAL_S = 0.02

_P = 32003
_M = (np.arange(64, dtype=np.int64).reshape(8, 8) * 7919) % _P
_CHILD = [sys.executable, "-c", "import argparse, dataclasses, json"]


def _in_process() -> None:
    d: dict[int, list[int]] = {}
    s = 0
    for i in range(1200):
        k = (i * 7919) % 211
        row = d.setdefault(k, [])
        row.append(i)
        s += min(row[-3:]) * k % 13
    m = _M.copy()
    for r in range(8):
        for c in range(r + 1, 8):
            m[c] = (m[c] * 3 + m[r] * (c + s)) % _P


def _child() -> None:
    subprocess.run(_CHILD, check=True, stdin=subprocess.DEVNULL)


class Pace:
    # piece and its reference seconds: about its time on the machine the
    # benchmark was defined on (2-core Xeon VM, Python 3.11, numpy 2.4),
    # which sets the scale of the reported times
    KINDS = {"in_process": (_in_process, 0.001), "child": (_child, 0.08)}

    def __init__(self, kind: str):
        self.piece, self.ref_s = self.KINDS[kind]

    def one(self) -> float:
        """Seconds one piece takes now."""
        t0 = perf_counter()
        self.piece()
        return perf_counter() - t0

    @contextlib.contextmanager
    def during(self, on: bool):
        """With `on`, a piece every INTERVAL_S while the body runs, from a
        SIGALRM handler.  Yields [pieces, seconds], filled as they run."""
        got = [0, 0.0]
        if not on:
            yield got
            return

        def handler(signum, frame):
            got[1] += self.one()
            got[0] += 1

        old = signal.signal(signal.SIGALRM, handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield got
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)

    def factor(self, pieces: int, seconds: float) -> float:
        """Reference piece time over the mean of `pieces` pieces that took
        `seconds`: turns a time measured beside them into one at the
        reference pace."""
        return self.ref_s * pieces / seconds
