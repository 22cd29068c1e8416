"""A fixed piece of pure-Python work that gauges the machine's current speed.

The benchmark's host is shared, and its speed drifts by up to a factor of
two over minutes, alike for the package and for any other Python code.
``run.py`` times one chunk of this work after every ``EVERY_S`` seconds of
jobs and scales each pass's times by ``NOMINAL_S`` over the median chunk of
that pass.  The work is sparse polynomial multiplication over ``dict`` with
``Fraction`` coefficients, the same kind of work as the package's scalar
kernel, but it never calls the package, so no change to the package moves it.
"""

from __future__ import annotations

import gc
import random
import time
from fractions import Fraction

# Seconds one chunk is taken to last at the reference speed: about its
# median on the 2-core machine of the README, so scaled times stay near
# the seconds measured there.
NOMINAL_S = 0.065
# Seconds of jobs between two chunks.
EVERY_S = 0.5
REPS = 20

_rng = random.Random(7)


def _poly(terms: int) -> dict:
    return {
        tuple(_rng.randrange(5) for _ in range(3)):
        Fraction(_rng.randint(-99, 99) or 1, _rng.randint(1, 12))
        for _ in range(terms)
    }


_P, _Q = _poly(30), _poly(30)


def _poly_mul(p: dict, q: dict) -> dict:
    """The loop of the package's ``Poly.__mul__``, written out again."""
    out: dict = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            c = c1 * c2
            s = out.get(e)
            if s is None:
                out[e] = c
            else:
                s = s + c
                if s:
                    out[e] = s
                else:
                    del out[e]
    return out


def chunk() -> float:
    """Wall seconds of one chunk.  The cyclic collector is off meanwhile
    (the chunk makes no cycles), so the size of the package's heap does not
    enter the time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(REPS):
            _poly_mul(_P, _Q)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
