"""Spans around hamil's public entry points, recorded from outside the
package by swapping module attributes for timed wrappers.

A span is [name, phase, start, end, parent]; spans stay in memory and are
written out when the run ends. A layer's self time is its span minus the
spans directly under it, and less the host-speed reference units that ran
inside it. Merges are too many and too short for spans, so `aggregate_pair`
only counts calls and keeps their times.
"""

from __future__ import annotations

import contextlib
import json
import statistics
from collections import Counter, defaultdict
from time import perf_counter
from typing import Dict, List

import hamil.aggregators
import hamil.tensor
import hamil.train_eval


def graph_nodes(root) -> int:
    """Interior autodiff nodes (tensors with parents) reachable from root."""
    seen, stack, count = set(), [root], 0
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        if t._parents:
            count += 1
            stack.extend(t._parents)
    return count


class Tracer:
    def __init__(self):
        self.spans: List[list] = []
        self.phase = "setup"             # setup | train | eval
        self.merges: Counter = Counter()
        self.merge_times: List[tuple] = []
        self.nodes: Dict[str, List[int]] = defaultdict(list)
        self._open: List[int] = []
        self._patched: list = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = [name, self.phase, perf_counter(), 0.0,
               self._open[-1] if self._open else -1]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[3] = perf_counter()
            self._open.pop()

    # -- wrappers ------------------------------------------------------------

    def _patch(self, owner, attr: str, make):
        real = getattr(owner, attr)
        self._patched.append((owner, attr, real))
        setattr(owner, attr, make(real))

    def _spanned(self, name: str):
        def make(real):
            def traced(*args, **kwargs):
                with self.span(name):
                    return real(*args, **kwargs)
            return traced
        return make

    def _merge_counter(self, real):
        def traced(*args, **kwargs):
            t0 = perf_counter()
            out = real(*args, **kwargs)
            self.merge_times.append((t0, perf_counter()))
            self.merges[self.phase] += 1
            return out
        return traced

    def _backward(self, real):
        def traced(loss):
            self.nodes["train"].append(graph_nodes(loss))
            with self.span("backward"):
                return real(loss)
        return traced

    def install(self):
        """Wrap the entry points that hamil resolves at call time.
        `forward_bag` and `evaluate` are called by the benchmark itself,
        which opens their spans."""
        self._patch(hamil.aggregators, "aggregate", self._spanned("aggregate"))
        self._patch(hamil.aggregators, "build_hierarchy",
                    self._spanned("build_hierarchy"))
        self._patch(hamil.aggregators, "aggregate_pair", self._merge_counter)
        self._patch(hamil.tensor.Tensor, "backward", self._backward)
        self._patch(hamil.train_eval._Optimizer, "step", self._spanned("step"))

    def uninstall(self):
        while self._patched:
            owner, attr, real = self._patched.pop()
            setattr(owner, attr, real)

    # -- results -------------------------------------------------------------

    def self_times(self, inside) -> Dict[tuple, List[float]]:
        """(name, phase) -> self time of each span, in seconds: its time
        less the reference units that ran inside it (`inside(t0, t1)`),
        less that of the spans directly under it."""
        net = [end - start - inside(start, end)
               for _, _, start, end, _ in self.spans]
        covered = [0.0] * len(self.spans)
        for (_, _, _, _, parent), t in zip(self.spans, net):
            if parent >= 0:
                covered[parent] += t
        out = defaultdict(list)
        for (name, phase, *_), t, child in zip(self.spans, net, covered):
            out[name, phase].append(t - child)
        return out

    def write(self, path: str) -> None:
        t0 = self.spans[0][2] if self.spans else 0.0
        with open(path, "w") as f:
            for name, phase, start, end, parent in self.spans:
                f.write(json.dumps([name, phase, round(start - t0, 9),
                                    round(end - start, 9), parent]) + "\n")


def mean_ms(values: List[float]) -> float:
    return 1e3 * sum(values) / len(values) if values else 0.0


def layer_metrics(tr: Tracer, train_passes: int, inside) -> Dict[str, float]:
    """Per-layer metrics from the traced rounds and set-ups. Times per call
    are means (ms), so that they add up to the bag rates; set-up steps are
    medians over the set-up repetitions (s); counts are per training pass
    or per bag and repeat exactly."""
    self_t = tr.self_times(inside)

    def setup_median(name):
        return statistics.median(self_t[name, "setup"])

    merge_s = sum(t1 - t0 - inside(t0, t1) for t0, t1 in tr.merge_times)
    return {
        "data.load_csv_s": setup_median("data.load_csv"),
        "data.normalize_s": setup_median("data.normalize"),
        "data.synth_s": setup_median("data.synth"),
        "models.build_s": setup_median("models.build"),
        "models.train_forward_self_ms": mean_ms(self_t["forward_bag", "train"]),
        "models.eval_forward_self_ms": mean_ms(self_t["forward_bag", "eval"]),
        "aggregators.train_self_ms": mean_ms(self_t["aggregate", "train"]),
        "aggregators.eval_self_ms": mean_ms(self_t["aggregate", "eval"]),
        "aggregators.merges": tr.merges["train"] / train_passes,
        "aggregators.merge_us": 1e6 * merge_s / len(tr.merge_times)
        if tr.merge_times else 0.0,
        "hierclust.train_ms": mean_ms(self_t["build_hierarchy", "train"]),
        "hierclust.eval_ms": mean_ms(self_t["build_hierarchy", "eval"]),
        "hierclust.calls": len(self_t["build_hierarchy", "train"]) / train_passes,
        "tensor.backward_ms": mean_ms(self_t["backward", "train"]),
        "tensor.train_nodes": statistics.fmean(tr.nodes["train"]),
        "tensor.eval_nodes": statistics.fmean(tr.nodes["eval"]),
        "train_eval.step_ms": mean_ms(self_t["step", "train"]),
        "train_eval.evaluate_self_ms": mean_ms(self_t["evaluate", "eval"]),
    }
