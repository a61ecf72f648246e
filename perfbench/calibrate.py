"""Host-speed calibration: a fixed pure-Python kernel timed during a run.

The benchmark's host is shared, and its speed changes by up to 2x, both
within seconds and over minutes; every timing of a run moves with it.  The kernel does the
same kinds of work as pgshapes (string-keyed dicts and sets, graph search,
small allocations, JSON, a backtracking search through nested generators)
but none of pgshapes' code, and its input never
changes.  Its time therefore measures the host alone.  The run times the
kernel after every call that ends at least EVERY_S after the last timing,
and scales each call's time by REFERENCE_S /
(median kernel time within WINDOW_S seconds of it): a timing in reference
seconds, which equals wall time on a host running the kernel in
REFERENCE_S.  The host's speed changes within seconds, so the window is
short.  A change to pgshapes does not move the kernel, so it moves
the scaled timings exactly as much as the wall timings.
"""

from __future__ import annotations

import bisect
import gc
import json
import random
import statistics
import time

# A fixed constant, near the kernel's median time on the busy 2-vCPU Intel
# Xeon host the first numbers were taken on (10 to 17 ms).
REFERENCE_S = 0.015
WINDOW_S = 1.0
EVERY_S = 0.2


def _graph() -> dict[str, list[str]]:
    rng = random.Random("perfbench calibration")
    ids = [f"n{i}" for i in range(1500)]
    return {x: rng.sample(ids, 3) for x in ids}


_ADJ = _graph()
_SOURCES = ("n0", "n250", "n500", "n750", "n1000", "n1250")
_RING = [f"v{i}" for i in range(10)]
_RING_ADJ = {x: (_RING[i - 1], _RING[(i + 1) % 10]) for i, x in enumerate(_RING)}


def _colourings(colours: dict[str, int], i: int):
    """Yield once per proper 3-colouring of the 10-node ring."""
    if i == len(_RING):
        yield 1
        return
    x = _RING[i]
    for c in (0, 1, 2):
        if all(colours.get(y) != c for y in _RING_ADJ[x]):
            colours[x] = c
            yield from _colourings(colours, i + 1)
            del colours[x]


def kernel() -> int:
    found = 0
    for s in _SOURCES:
        seen = {s}
        frontier = [s]
        while frontier:
            nxt = []
            for x in frontier:
                for y in _ADJ[x]:
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
        pairs = {(s, y): len(y) for y in seen}
        found += len(json.loads(json.dumps(sorted(pairs.values()))))
    return found + sum(_colourings({}, 0))


class HostClock:
    """Kernel timings taken during a run, and the scale they give."""

    def __init__(self):
        self.stamps: list[float] = []
        self.samples: list[float] = []

    def sample(self) -> None:
        """Time the kernel once, after an untimed run that brings its data
        back into the caches, with the collector off, so that neither the
        caller's heap nor its cache footprint moves the timing."""
        gc.disable()
        try:
            kernel()
            t0 = time.perf_counter()
            kernel()
            t1 = time.perf_counter()
        finally:
            gc.enable()
        self.stamps.append(t1)
        self.samples.append(t1 - t0)

    def maybe_sample(self) -> None:
        if time.perf_counter() - self.stamps[-1] >= EVERY_S:
            self.sample()

    def scale(self, at: float) -> float:
        """REFERENCE_S over the median kernel time within WINDOW_S of `at`."""
        lo = bisect.bisect_left(self.stamps, at - WINDOW_S)
        hi = bisect.bisect_right(self.stamps, at + WINDOW_S)
        near = self.samples[lo:hi] or self.samples
        return REFERENCE_S / statistics.median(near)

    def overall(self) -> float:
        return REFERENCE_S / statistics.median(self.samples)
