"""Benchmark of hamil's bag loop: train and evaluate HAMIL on one workload
for a fixed time, check the outputs, and print the metrics.

    python3 perfbench/run.py --workload musk1_small --seed 1 --seconds 30 --trace 0

`--workload all` runs every workload, each in its own process. With
`--trace 0` the run reports the end-to-end metrics; with `--trace 1` it
alternates untraced and traced rounds and reports the per-layer metrics.
Every time is scaled to a reference host speed (see hostspeed).
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"           # one BLAS thread, fixed before numpy loads

import argparse
import json
import resource
import statistics
import subprocess
import sys
import tracemalloc
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

import numpy as np

import hamil
import hamil.aggregators

import checks
import hostspeed
import tracing
import workloads as W

if not os.path.abspath(hamil.__file__).startswith(SRC + os.sep):
    sys.exit(f"hamil was imported from {hamil.__file__}, not from {SRC}")

OUT_DIR = os.path.join(HERE, "out")
SETUP_REPS = 15
EVAL_SHARE = 0.5                     # eval time per round / its train pass time
SWEEP_REPS = {5: 200, 50: 20, 200: 5, 800: 1, 1044: 1}
SWEEP_DIM = 64

END_TO_END = {
    "setup_s": "s",
    "train_bags_per_s": "bags/s",
    "train_bag_ms_p50": "ms",
    "eval_bags_per_s": "bags/s",
    "eval_bag_ms_p50": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "data.load_csv_s": "s",
    "data.normalize_s": "s",
    "data.synth_s": "s",
    "models.build_s": "s",
    "models.train_forward_self_ms": "ms",
    "models.eval_forward_self_ms": "ms",
    "aggregators.train_self_ms": "ms",
    "aggregators.eval_self_ms": "ms",
    "aggregators.merges": "count",
    "aggregators.merge_us": "us",
    "hierclust.train_ms": "ms",
    "hierclust.eval_ms": "ms",
    "hierclust.calls": "count",
    **{f"hierclust.sweep_ms.m{m}": "ms" for m in SWEEP_REPS},
    "hierclust.sweep_peak_mb.m1044": "MB",
    "tensor.backward_ms": "ms",
    "tensor.train_nodes": "count",
    "tensor.eval_nodes": "count",
    "train_eval.step_ms": "ms",
    "train_eval.evaluate_self_ms": "ms",
    "trace.train_overhead_ms": "ms",
    "host.ref_unit_ms": "ms",
}
TIME_UNITS = ("s", "ms", "us")


class RunOver(Exception):
    """Raised from the epoch hook to end training after a whole round."""


class Samples:
    """Timed intervals (start, end) of the untraced, or of the traced,
    rounds; host-scaled only once the run is over, when the clock holds
    the units that ran after the last of them."""

    def __init__(self):
        self.train_steps, self.eval_forwards, self.eval_passes = [], [], []
        self.train_passes = 0

    def scaled(self, clock: hostspeed.HostClock) -> dict:
        def ms(intervals):
            return [1e3 * clock.scaled(t0, t1) for t0, t1 in intervals]
        return {"train_ms": ms(self.train_steps),
                "eval_ms": ms(self.eval_forwards),
                "eval_pass_ms": ms(self.eval_passes)}


class Meter:
    """Times the bag loop that `hamil.train` runs.

    A round is one training pass (one epoch) followed, inside the epoch
    hook, by whole `evaluate` passes until they have taken EVAL_SHARE of
    the pass's time. A bag's train step runs from its `forward_bag` call to
    the next one, or to the hook; it covers forward, loss, backward and the
    optimizer step. A reference unit ticks before every `forward_bag` and
    after every pass (see hostspeed). Rounds go on until the run has
    lasted `seconds`.
    """

    def __init__(self, setup: W.Setup, seconds: float,
                 clock: hostspeed.HostClock, tracer=None):
        self.model = setup.model
        self.clock = clock
        self.train_bags = setup.train_bags
        self.test_bags = setup.test_bags
        self.seconds = seconds
        self.tracer = tracer             # alternate rounds are traced if set
        self.active = None               # the tracer while a round is traced
        self.samples = {False: Samples(), True: Samples()}
        self.marks = []                  # train step starts in this pass
        self.last_probs = {}
        self.last_metrics = None
        self._forward = self.model.forward_bag
        self.model.forward_bag = self.forward_bag

    @property
    def current(self) -> Samples:
        return self.samples[self.active is not None]

    def forward_bag(self, bag, mode="eval", rng=None):
        self.clock.tick()
        t0 = perf_counter()
        if mode == "train":
            self.marks.append(t0)
        tr = self.active
        if tr is None:
            out = self._forward(bag, mode, rng)
        else:
            tr.phase = mode
            with tr.span("forward_bag"):
                out = self._forward(bag, mode, rng)
        if mode == "eval":
            self.current.eval_forwards.append((t0, perf_counter()))
            self.last_probs[bag.bag_id] = out.probs.data
            if tr is not None:
                tr.nodes["eval"].append(tracing.graph_nodes(out.probs))
        return out

    def _evaluate(self) -> float:
        """One `evaluate` pass; returns its raw time."""
        tr = self.active
        t0 = perf_counter()
        if tr is None:
            self.last_metrics = hamil.evaluate(self.model, self.test_bags)
        else:
            tr.phase = "eval"
            with tr.span("evaluate"):
                self.last_metrics = hamil.evaluate(self.model, self.test_bags)
        t1 = perf_counter()
        self.clock.tick()
        self.current.eval_passes.append((t0, t1))
        return t1 - t0

    def epoch_hook(self, epoch, mean_loss):
        self.clock.tick()
        marks = self.marks + [perf_counter()]
        self.marks = []
        s = self.current
        s.train_steps += zip(marks, marks[1:])
        s.train_passes += 1
        spent = 0.0
        while spent < EVAL_SHARE * (marks[-1] - marks[0]):
            spent += self._evaluate()
        now = perf_counter()
        # stop at the round end nearest to the deadline
        if now - self.start + 0.5 * (now - marks[0]) >= self.seconds:
            raise RunOver
        if self.tracer is not None:
            if self.active is None:
                self.tracer.install()
                self.active = self.tracer
            else:
                self.tracer.uninstall()
                self.active = None

    def run(self, wl: W.Workload, seed: int):
        self.start = perf_counter()
        try:
            hamil.train(self.model, self.train_bags, wl.optimizer, seed,
                        epoch_hook=self.epoch_hook)
        except RunOver:
            pass
        finally:
            if self.tracer is not None:
                self.tracer.uninstall()
            self.active = None
            del self.model.forward_bag


def warm_up(setup: W.Setup, seed: int) -> None:
    """One untimed train forward/backward and one eval forward, so that
    first-call costs stay out of the timed loop; the gradients are dropped."""
    model = setup.model
    bag = min(setup.train_bags, key=lambda b: b.size)
    out = model.forward_bag(bag, mode="train", rng=np.random.default_rng(seed))
    hamil.loss_bag(out.probs, bag.labels).backward()
    for p in model.parameters().values():
        p.grad = None
    model.forward_bag(min(setup.test_bags, key=lambda b: b.size), mode="eval")


# -- correctness -------------------------------------------------------------

def gradient_entries(model, bag, rng) -> dict:
    """Analytic loss gradient against central differences on the merge
    kernel (every entry) and three entries each of two backbone weights."""
    params = model.parameters()

    def loss():
        return hamil.loss_bag(model.forward_bag(bag, mode="eval").probs,
                              bag.labels)

    for p in params.values():
        p.grad = None
    loss().backward()
    backbone = ("fc0.weight", "fc2.weight") if "fc0.weight" in params \
        else ("conv0.weight", "conv1.weight")
    picks = {"agg.conv0.weight": range(params["agg.conv0.weight"].data.size)}
    for name in backbone:
        picks[name] = rng.choice(params[name].data.size, 3, replace=False)
    entries = {}
    for name, idx in picks.items():
        p = params[name]
        grad, rows = p.grad.copy(), []
        for i in idx:
            x0 = float(p.data.flat[i])

            def f(x):
                p.data.flat[i] = x
                return loss().item()

            numeric, smooth = checks.central_difference(f, x0)
            p.data.flat[i] = x0
            rows.append((float(grad.flat[i]), numeric, smooth))
        entries[name] = rows
    for p in params.values():
        p.grad = None
    return entries


def correctness(setup: W.Setup, meter: Meter, seed: int) -> list:
    """Checks on the trained model, outside the timed loop."""
    model, test = setup.model, setup.test_bags
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x636b]))
    captured = []
    real = hamil.aggregators.build_hierarchy

    def capture(features):
        queue = real(features)
        captured.append((np.stack([np.ravel(f) for f in features]), queue))
        return queue

    hamil.aggregators.build_hierarchy = capture
    try:
        second = {b.bag_id: model.forward_bag(b, mode="eval").probs.data
                  for b in test}
    finally:
        hamil.aggregators.build_hierarchy = real
    problems = checks.probability_problems(meter.last_probs, second)
    for features, queue in captured:
        problems += checks.queue_problems(queue, features)
    problems += checks.auc_problems(
        meter.last_metrics["auc"],
        np.array([second[b.bag_id][0] for b in test]),
        np.array([b.labels[0] for b in test]))

    fd_bag = min((b for b in test if b.size >= 3), key=lambda b: b.size)
    problems += checks.gradient_problems(gradient_entries(model, fd_bag, rng))

    order = sorted(range(len(test)), key=lambda i: test[i].size)
    shuffled = [i for i in order if test[i].size >= 2
                and checks.distinct_distances(captured[i][0])][:4]
    if not shuffled:
        problems.append("no eval bag with pairwise distinct embedding distances")
    for i in shuffled:
        bag = test[i]
        perm = rng.permutation(bag.size)
        if np.all(perm == np.arange(bag.size)):
            perm = perm[::-1]
        moved = hamil.Bag(bag.bag_id, [bag.instances[j] for j in perm], bag.labels)
        p = model.forward_bag(moved, mode="eval").probs.data[0]
        problems += checks.shuffle_problems(bag.bag_id, second[bag.bag_id][0], p)
    return problems


# -- traced-run extras ---------------------------------------------------------

def sweep(seed: int, problems: list) -> dict:
    """build_hierarchy on fixed sizes of ReLU-like D=64 embeddings: the
    median host-scaled time per size (vector unit), and the tracemalloc
    peak at the largest size, taken apart since tracemalloc slows it."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x7377]))
    clock = hostspeed.HostClock("vector")
    runs = {}
    with clock:
        for m, reps in SWEEP_REPS.items():
            X = np.maximum(rng.normal(size=(m, SWEEP_DIM)), 0.0)
            runs[m] = []
            for _ in range(reps):
                clock.tick()
                t0 = perf_counter()
                queue = hamil.build_hierarchy(list(X))
                runs[m].append((t0, perf_counter()))
                clock.tick()
            problems += checks.queue_problems(queue, X)
    out = {f"hierclust.sweep_ms.m{m}": statistics.median(
               1e3 * clock.scaled(t0, t1) for t0, t1 in intervals)
           for m, intervals in runs.items()}
    tracemalloc.start()
    try:
        hamil.build_hierarchy(list(X))
        out[f"hierclust.sweep_peak_mb.m{m}"] = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    return out


def probe_other_loaders(wl: W.Workload, seed: int, tracer) -> None:
    """Time, once, the data loaders this workload's set-up does not call,
    so that every data-layer metric is measured on every workload: the
    image-bag generator on the vector workloads, and the CSV loader and
    normalisation on image_2d's own bags written as CSV. Not part of
    setup_s."""
    tracer.phase = "setup"
    if wl.pathway == "vector":
        with tracer.span("data.synth"):
            W.image_bags(seed)
        return
    path = os.path.join(OUT_DIR, f"{wl.name}-seed{seed}-{os.getpid()}.csv")
    hamil.data.save_bag_csv(W.image_bags(seed), path)
    try:
        with tracer.span("data.load_csv"):
            ds = hamil.load_bag_csv(path)
        with tracer.span("data.normalize"):
            hamil.normalize(ds)
    finally:
        os.remove(path)
        os.remove(path + ".meta.json")


# -- one workload ----------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = W.WORKLOADS[name]
    os.makedirs(OUT_DIR, exist_ok=True)
    csv_path = W.prepare(wl, seed, OUT_DIR)
    tracer = tracing.Tracer() if trace else None
    clock = hostspeed.HostClock(wl.pathway)
    with clock:
        try:
            setups = []
            for _ in range(SETUP_REPS):
                clock.tick()
                t0 = perf_counter()
                setup = W.set_up(wl, csv_path, seed,
                                 tracer.span if trace else W.no_span)
                setups.append((t0, perf_counter()))
            clock.tick()
        finally:
            if csv_path:
                os.remove(csv_path)
                os.remove(csv_path + ".meta.json")
        warm_up(setup, seed)
        meter = Meter(setup, seconds, clock, tracer)
        meter.run(wl, seed)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    print(f"{name}: reference unit {clock.mean_unit_ms():.4f} ms; times "
          f"below are scaled to its nominal {clock.nominal_ms} ms")

    problems = correctness(setup, meter, seed)
    print(f"{name}: AUC on the test bags after the run "
          f"{meter.last_metrics['auc']:.4f}")
    plain = meter.samples[False].scaled(clock)
    attempted = sum(len(s.train_steps) + len(s.eval_forwards)
                    for s in meter.samples.values())
    if not trace:
        metrics = {
            "setup_s": statistics.median(
                clock.scaled(t0, t1) for t0, t1 in setups),
            "train_bags_per_s": 1e3 * len(plain["train_ms"]) / sum(plain["train_ms"]),
            "train_bag_ms_p50": statistics.median(plain["train_ms"]),
            "eval_bags_per_s": 1e3 * len(plain["eval_ms"]) / sum(plain["eval_pass_ms"]),
            "eval_bag_ms_p50": statistics.median(plain["eval_ms"]),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
    else:
        probe_other_loaders(wl, seed, tracer)
        scale = clock.nominal_ms / clock.mean_unit_ms()
        metrics = {k: v * scale if PER_LAYER[k] in TIME_UNITS else v
                   for k, v in tracing.layer_metrics(
                       tracer, meter.samples[True].train_passes,
                       clock.inside).items()}
        traced = meter.samples[True].scaled(clock)
        metrics["trace.train_overhead_ms"] = (statistics.median(traced["train_ms"])
                                             - statistics.median(plain["train_ms"]))
        metrics["host.ref_unit_ms"] = clock.mean_unit_ms()
        metrics.update(sweep(seed, problems))
        tracer.write(os.path.join(OUT_DIR, f"trace-{name}-seed{seed}.jsonl"))
        units = PER_LAYER
    for p in problems:
        print(f"CHECK FAILED [{name}]: {p}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": 0,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }


def print_result(name: str, result: dict) -> None:
    print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']}")
    for key, m in result["metrics"].items():
        print(f"  {key:34s} {m['value']:14.6g} {m['unit']}")


def run_all(args) -> dict:
    """Each workload in a child process, so that peak memory is its own."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in W.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{name}.{k}": v
                                 for k, v in result["metrics"].items()})
    return total


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(W.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
        print_result(args.workload, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
