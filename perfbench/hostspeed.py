"""Host-speed scaling from a fixed reference unit.

On a shared host the core's speed drifts by a fifth or more over tens of
seconds to minutes, which no affordable run length averages out. So while
the benchmark measures, it runs one reference unit right before every bag
operation and after every pass ("ticks"), and a timer signal runs one more
every INTERVAL_UNITS nominal unit times wherever the program is, which
reaches inside long operations such as clustering a 1044-instance bag.
An operation's time, less the units that ran inside it, is scaled by
nominal / (mean time of the units inside it or within PAD_UNITS nominal
unit times of its ends): times read as they would on a host where the
unit takes its nominal time.

A unit only tracks the host for hamil's code if it loads the core the same
way, so there is one per pathway: a miniature of hamil's vector bag step
(fc stack, a 1-D merge, a backward pass through a closure tape) and of its
image bag step (conv backbone, per-channel 2-D merges, backward). The
units are benchmark code; a change to hamil does not move them.
"""

from __future__ import annotations

import signal
from bisect import bisect_left, bisect_right
from time import perf_counter
from typing import Callable, Dict, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

_rng = np.random.default_rng(0)
_X = _rng.normal(size=(3, 166))
_FC = [_rng.normal(size=(a, b)) / np.sqrt(a)
       for a, b in ((166, 256), (256, 128), (128, 64))]
_K1 = _rng.normal(size=(2, 7))
_IMG = _rng.uniform(0.0, 0.3, size=(1, 16, 16))
_CONV = [_rng.normal(size=(4, 1, 3, 3)) / 3, _rng.normal(size=(8, 4, 3, 3)) / 6]
_K2 = _rng.normal(size=(1, 2, 3, 3)) / 3


def vector_unit() -> float:
    tape = []
    h = _X
    for w in _FC:
        z = h @ w
        tape.append((h, w, z))
        h = np.maximum(z, 0.0)
    rows = list(h)
    while len(rows) > 1:
        pair = np.pad(np.stack([rows.pop(), rows.pop()]), ((0, 0), (3, 3)))
        rows.insert(0, np.einsum("cdk,ck->d",
                                 sliding_window_view(pair, 7, axis=1), _K1))
    g = np.ones_like(h) * rows[0].sum()
    for h_in, w, z in reversed(tape):
        g = g * (z > 0)
        g, _ = g @ w.T, h_in.T @ g
    return float(g.sum())


def _windows(x: np.ndarray) -> np.ndarray:
    return sliding_window_view(np.pad(x, ((0, 0), (1, 1), (1, 1))), (3, 3),
                               axis=(1, 2))


def image_unit() -> float:
    tape = []
    h = _IMG
    for w in _CONV:
        z = np.einsum("chwij,ocij->ohw", _windows(h), w)
        tape.append((h, z))
        c, s, _ = z.shape
        h = np.maximum(z, 0.0).reshape(c, s // 2, 2, s // 2, 2).max(axis=(2, 4))
    other = h[:, ::-1]
    for c in range(h.shape[0]):
        pair = np.stack([h[c], other[c]])
        z = np.einsum("chwij,ocij->ohw", _windows(pair), _K2)
        tape.append((pair, z))
    total = 0.0
    for x, z in reversed(tape):
        total += float(np.einsum("chwij,ohw->", _windows(x), (z > 0) * 1.0))
    return total


INTERVAL_UNITS = 40                  # timer interval / nominal unit time
PAD_UNITS = 5                        # reach of an operation's ends, in units

# pathway -> (unit, its nominal time in ms: about its time on the 2-core
# development host)
UNITS: Dict[str, Tuple[Callable[[], float], float]] = {
    "vector": (vector_unit, 0.7),
    "image": (image_unit, 2.0),
}


class HostClock:
    """Runs a pathway's reference unit on `tick()` and, while entered, on
    SIGALRM; after exit, scales operation times by the units around them."""

    def __init__(self, pathway: str):
        self.unit, self.nominal_ms = UNITS[pathway]
        self.interval = INTERVAL_UNITS * self.nominal_ms / 1e3
        self.pad = PAD_UNITS * self.nominal_ms / 1e3
        self.samples = []                # (start, duration), as they end
        self.starts, self.durations = [], []

    def tick(self, *signal_args) -> None:
        n = len(self.samples)
        t0 = perf_counter()
        self.unit()
        t1 = perf_counter()
        # a timer unit that ran inside this one is its own sample
        self.samples.append((t0, t1 - t0 - sum(d for _, d in self.samples[n:])))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.sort()
        self.starts = [t for t, _ in self.samples]
        self.durations = [d for _, d in self.samples]

    def _between(self, t0: float, t1: float) -> slice:
        return slice(bisect_left(self.starts, t0), bisect_right(self.starts, t1))

    def inside(self, t0: float, t1: float) -> float:
        """Time the units took inside [t0, t1]."""
        return sum(self.durations[self._between(t0, t1)])

    def factor(self, t0: float, t1: float) -> float:
        """nominal / mean time of the units inside [t0, t1] or within the
        pad of its ends; the nearest unit if there are none."""
        near = self.durations[self._between(t0 - self.pad, t1 + self.pad)]
        if not near:
            i = min(bisect_left(self.starts, t0), len(self.starts) - 1)
            near = self.durations[i:i + 1]
        return 1e-3 * self.nominal_ms * len(near) / sum(near)

    def scaled(self, t0: float, t1: float) -> float:
        """The host-scaled time of an operation from t0 to t1, less the
        units that ran inside it."""
        return (t1 - t0 - self.inside(t0, t1)) * self.factor(t0, t1)

    def mean_unit_ms(self) -> float:
        return 1e3 * sum(self.durations) / len(self.durations)
