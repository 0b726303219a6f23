"""Config-driven experiment runner and dataset tooling.

Subcommands:
  run       execute a cross-validation experiment from a config file
  convert   turn a published MIL distribution file into the canonical CSV
  scores    print per-instance cosine scores and the merge queue for a bag
  selftest  quick gradient / clustering / metric oracle checks

Exit codes: 0 success, 1 runtime failure, 2 config error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tomllib
from dataclasses import fields
from typing import Any, Dict

import numpy as np

from . import oracles
from .aggregators import (AGGREGATOR_KINDS, AggregatorSpec, AggUnitParams,
                          aggregate_pair, hamil_aggregate)
from .hierclust import build_hierarchy
from .data import (CONVERTERS, Bag, DataFormatError, MotifSpec, load_bag_csv,
                   save_bag_csv, synth_image_bags)
from .models import ImagePathwayModel, load_model
from .tensor import (Tensor, bce_loss, conv2d, fully_connected, mul, no_grad,
                     sigmoid, stack, sum_all)
from .train_eval import (OptimizerConfig, RunSpec, TrainingDivergedError,
                         auc_score, run_cv)


class ConfigError(ValueError):
    """Configuration problem; message carries the offending field path."""


def load_config_file(path: str) -> Dict[str, Dict[str, Any]]:
    """Parse a TOML config into {section: {key: value}}."""
    with open(path, "rb") as f:
        try:
            sections = tomllib.load(f)
        except tomllib.TOMLDecodeError as e:
            raise ConfigError(f"{path}: expected key = value ({e})") from None
    for key, value in sections.items():
        if not isinstance(value, dict):
            raise ConfigError(f"{path}: key {key!r} outside any [section]")
    return sections


# -- schema ------------------------------------------------------------------

def _default(cls, name: str) -> tuple:
    """(type, default) of one dataclass field, so the default lives there."""
    default = {f.name: f.default for f in fields(cls)}[name]
    return type(default), default


def _defaults(cls) -> Dict[str, tuple]:
    return {f.name: (type(f.default), f.default) for f in fields(cls)}


SCHEMA: Dict[str, Dict[str, tuple]] = {
    # section -> key -> (type, default); default None marks a required key
    "experiment": {
        "name": (str, "experiment"),
        "output_dir": (str, "runs/experiment"),
        "precision": _default(RunSpec, "precision"),
    },
    "data": {
        "source": (str, None),           # "csv" | "synth_image"
        "path": (str, ""),
        "name": (str, ""),
        "n_bags": (int, 80),
        "bag_size_min": (int, 2),
        "bag_size_max": (int, 6),
        "image_size": _default(MotifSpec, "image_size"),
        "motif_size": _default(MotifSpec, "motif_size"),
        "noise_level": _default(MotifSpec, "noise_level"),
        "positive_fraction": _default(MotifSpec, "positive_fraction"),
        "seed": (int, 0),
    },
    "model": {
        "pathway": _default(RunSpec, "pathway"),
        "dropout": _default(RunSpec, "dropout_rate"),
        "cluster_without_dropout": _default(RunSpec, "cluster_without_dropout"),
        "normalize_features": _default(RunSpec, "normalize_features"),
    },
    "aggregator": _defaults(AggregatorSpec),
    "optimizer": _defaults(OptimizerConfig),
    "cv": {key: _default(RunSpec, key)
           for key in ("repetitions", "folds", "base_seed", "workers")},
}


def resolve_config(sections: Dict[str, Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """Validate against the schema, reject unknown keys, fill defaults."""
    resolved: Dict[str, Dict[str, Any]] = {}
    for section in sections:
        if section not in SCHEMA:
            raise ConfigError(f"{section}: unknown section")
    for section, keys in SCHEMA.items():
        given = sections.get(section, {})
        for key in given:
            if key not in keys:
                raise ConfigError(f"{section}.{key}: unknown key")
        out = {}
        for key, (typ, default) in keys.items():
            if key in given:
                val = given[key]
                if typ is float and isinstance(val, int) and not isinstance(val, bool):
                    val = float(val)
                if not isinstance(val, typ) or (typ is not bool and isinstance(val, bool)):
                    raise ConfigError(
                        f"{section}.{key}: expected {typ.__name__}, "
                        f"got {type(val).__name__}")
                out[key] = val
            elif default is None:
                raise ConfigError(f"{section}.{key}: required key missing")
            else:
                out[key] = default
        resolved[section] = out
    _cross_validate(resolved)
    return resolved


def _cross_validate(cfg: Dict[str, Dict[str, Any]]) -> None:
    if cfg["data"]["source"] not in ("csv", "synth_image"):
        raise ConfigError(
            f"data.source: must be 'csv' or 'synth_image', "
            f"got {cfg['data']['source']!r}")
    if cfg["data"]["source"] == "csv" and not cfg["data"]["path"]:
        raise ConfigError("data.path: required when data.source = \"csv\"")
    if cfg["model"]["pathway"] not in ("vector", "image"):
        raise ConfigError(
            f"model.pathway: must be 'vector' or 'image', "
            f"got {cfg['model']['pathway']!r}")
    if cfg["aggregator"]["kind"] not in AGGREGATOR_KINDS:
        raise ConfigError(
            f"aggregator.kind: unknown kind {cfg['aggregator']['kind']!r}")
    if cfg["experiment"]["precision"] not in ("f32", "f64"):
        raise ConfigError(
            f"experiment.precision: must be 'f32' or 'f64', "
            f"got {cfg['experiment']['precision']!r}")


def _load_dataset(cfg: Dict[str, Dict[str, Any]]):
    d = cfg["data"]
    if d["source"] == "csv":
        return load_bag_csv(d["path"], name=d["name"] or None)
    motif = MotifSpec(image_size=d["image_size"], motif_size=d["motif_size"],
                      noise_level=d["noise_level"],
                      positive_fraction=d["positive_fraction"])
    return synth_image_bags(d["n_bags"], (d["bag_size_min"], d["bag_size_max"]),
                            motif, d["seed"])


def _build(section: str, cls, **kwargs):
    """Construct a section's dataclass; its own checks become ConfigErrors."""
    try:
        return cls(**kwargs)
    except ValueError as e:
        raise ConfigError(f"{section}: {e}") from None


def build_run_spec(cfg: Dict[str, Dict[str, Any]], workers=None) -> RunSpec:
    model, cv = cfg["model"], cfg["cv"]
    # RunSpec's own checks cover only the [cv] keys
    return _build(
        "cv", RunSpec,
        dataset=_load_dataset(cfg),
        pathway=model["pathway"],
        aggregator=_build("aggregator", AggregatorSpec, **cfg["aggregator"]),
        optimizer=_build("optimizer", OptimizerConfig, **cfg["optimizer"]),
        repetitions=cv["repetitions"],
        folds=cv["folds"],
        base_seed=cv["base_seed"],
        dropout_rate=model["dropout"],
        image_size=cfg["data"]["image_size"],
        normalize_features=model["normalize_features"],
        cluster_without_dropout=model["cluster_without_dropout"],
        precision=cfg["experiment"]["precision"],
        workers=workers if workers is not None else cv["workers"],
    )


# -- subcommands -------------------------------------------------------------

def cmd_run(args) -> int:
    try:
        cfg = resolve_config(load_config_file(args.config))
        if args.seed is not None:
            cfg["cv"]["base_seed"] = args.seed
        if args.precision is not None:
            cfg["experiment"]["precision"] = args.precision
        workers = args.workers
        if workers is None:
            workers = cfg["cv"]["workers"]
        jobs = cfg["cv"]["repetitions"] * cfg["cv"]["folds"]
        workers = max(1, min(workers or os.cpu_count() or 1, jobs))
        spec = build_run_spec(cfg, workers=workers)
    except (ConfigError, OSError, DataFormatError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    if args.dry_run:
        print(json.dumps(cfg, indent=2))
        print(f"planned: {spec.repetitions} repetitions x {spec.folds} folds "
              f"on {len(spec.dataset.bags)} bags "
              f"({spec.dataset.instance_count} instances), "
              f"workers={spec.workers}")
        return 0
    out_dir = cfg["experiment"]["output_dir"]
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "resolved_config.json"), "w") as f:
        json.dump(cfg, f, indent=2)
    try:
        def progress(fr):
            print(f"rep {fr.repetition} fold {fr.fold}: "
                  + " ".join(f"{k}={v:.4f}" for k, v in fr.metrics.items()))
        result = run_cv(spec, progress=progress)
    except (TrainingDivergedError, ValueError) as e:
        print(f"run failed: {e}", file=sys.stderr)
        return 1
    with open(os.path.join(out_dir, "result.json"), "w") as f:
        f.write(result.to_json())
    with open(os.path.join(out_dir, "result.csv"), "w") as f:
        f.write(result.to_csv())
    s = result.summary()
    lines = [f"dataset: {result.dataset_name}",
             f"config:  {result.config_hash}",
             f"wall:    {result.wall_time_s:.1f}s"]
    for m, v in s.items():
        lines.append(f"{m:>9}: {v['mean']:.4f} +- {v['std_over_folds']:.4f} "
                     f"(std over repetition means: "
                     f"{v['std_over_repetition_means']:.4f})")
    summary = "\n".join(lines)
    with open(os.path.join(out_dir, "summary.txt"), "w") as f:
        f.write(summary + "\n")
    print(summary)
    return 0


def cmd_convert(args) -> int:
    conv = CONVERTERS.get(args.format)
    if conv is None:
        print(f"config error: unknown source format {args.format!r} "
              f"(known: {sorted(CONVERTERS)})", file=sys.stderr)
        return 2
    try:
        with open(args.input) as f:
            first = f.readline()
        if first.startswith("bag_id,label_"):
            raise DataFormatError(
                f"{args.input}: already in canonical format, refusing to convert")
        ds = conv(args.input, name=args.name)
        save_bag_csv(ds, args.output)
    except (DataFormatError, OSError) as e:
        print(f"convert failed: {e}", file=sys.stderr)
        return 1
    print(f"{len(ds.bags)} bags, {ds.instance_count} instances, "
          f"{ds.feature_dim} features")
    return 0


def cmd_scores(args) -> int:
    try:
        model = load_model(args.checkpoint)
        ds = load_bag_csv(args.dataset)
        bag = next((b for b in ds.bags if b.bag_id == args.bag_id), None)
        if bag is None:
            raise ValueError(f"unknown bag_id {args.bag_id!r}")
        if isinstance(model, ImagePathwayModel):
            s = model.image_size
            bag = Bag(bag.bag_id,
                      [np.asarray(i).reshape(model.in_channels, s, s)
                       for i in bag.instances], bag.labels)
        with no_grad():
            out = model.forward_bag(bag, mode="eval")
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(f"bag {bag.bag_id}: {bag.size} instances, "
          f"probs=" + " ".join(f"{p:.4f}" for p in out.probs.data))
    for i, score in enumerate(out.scores):
        print(f"  instance {i}: score {score:+.6f}")
    if out.queue is not None:
        print(f"  merge queue: {out.queue.to_json()}")
    return 0


def cmd_selftest(args) -> int:
    """Fast sanity suite: autodiff vs finite differences, clustering vs a
    literal re-scan agglomerator, AUC vs the pairwise oracle, batched conv2d
    vs a literal loop, the fused merge replay of vectors and of maps vs the
    per-merge tape."""
    failures = 0

    def report(name, ok):
        nonlocal failures
        print(f"[{'PASS' if ok else 'FAIL'}] {name}")
        failures += 0 if ok else 1

    rng = np.random.default_rng(0)
    # gradient check: fc -> sigmoid -> bce
    ok = True
    for trial in range(10):
        x = Tensor(rng.standard_normal((3, 5)))
        w = Tensor(rng.standard_normal((5, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal(4))
        t = Tensor((rng.random((3, 4)) > 0.5).astype(float))

        def loss(wt):
            return bce_loss(sigmoid(fully_connected(x, wt, b)), t)
        loss(w).backward()
        num = oracles.numeric_grad(lambda v: loss(Tensor(v)).item(), w.data)
        ok = ok and oracles.relative_error(num, w.grad) < 1e-5
    report("autodiff matches finite differences", ok)

    ok = True
    tie_rng = np.random.default_rng(1)
    for trial in range(50):
        m = int(rng.integers(1, 10))
        # tied distances: integer features with duplicated and zero rows
        ties = tie_rng.integers(0, 3, (m + 4, 3)).astype(float)
        ties[tie_rng.integers(0, m + 4, 2)] = 0.0
        ties[-2:] = ties[:2]
        for feats in (rng.standard_normal((m, 3)), ties):
            queue = build_hierarchy(feats)
            queue.validate(len(feats))
            ref = oracles.naive_single_link(feats)
            ok = ok and [(t.left, t.right, t.new) for t in queue] == ref
    report("hierarchy matches literal agglomerator", ok)

    ok = True
    for trial in range(50):
        n = int(rng.integers(4, 30))
        scores = rng.random(n)
        targets = (rng.random(n) > 0.5).astype(float)
        if targets.min() == targets.max():
            continue
        a = auc_score(scores, targets)
        ok = ok and abs(a - oracles.pairwise_auc(scores, targets)) < 1e-12
    report("AUC matches pairwise oracle", ok)

    x = rng.standard_normal((3, 2, 6, 6))
    w = rng.standard_normal((4, 2, 3, 3))
    b = rng.standard_normal(4)
    fast = conv2d(Tensor(x), Tensor(w), Tensor(b), padding=1).data
    report("batched conv2d matches direct loop",
           np.allclose(fast, oracles.loop_conv2d(x, w, b, padding=1),
                       rtol=0, atol=1e-12))

    ok = True
    for mode, shape in (("1d", (8,)), ("2d", (3, 4, 4))):
        unit = AggUnitParams(AggregatorSpec(kernel_size=3), mode, rng)
        # four separated clusters of four: merges with a merge on each
        # side, where the kernel gradient's summation order shows
        feats = 4 * rng.standard_normal((4, *shape))[np.arange(16) % 4] \
            + rng.standard_normal((16, *shape))
        queue = build_hierarchy(feats)
        g = Tensor(rng.standard_normal(shape))
        params = list(unit.named_params().values())
        runs = []
        for fused in (True, False):
            for p in params:
                p.grad = None
            xs = [Tensor(f, requires_grad=True) for f in feats]
            if fused:
                out = hamil_aggregate(stack(xs), queue, unit)
            else:
                slots = dict(enumerate(xs, start=1))
                for t in queue:
                    out = slots[t.new] = aggregate_pair(
                        slots.pop(t.left), slots.pop(t.right), unit)
            sum_all(mul(out, g)).backward()
            runs.append([a.tobytes() for a in (out.data, *(x.grad for x in xs),
                                               *(p.grad for p in params))])
        ok = ok and runs[0] == runs[1]
    report("fused merge replay matches per-merge tape", ok)

    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hamil",
        description="Hierarchical aggregation MIL benchmark harness.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a cross-validation experiment")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed", type=int, default=None,
                       help="override cv.base_seed")
    p_run.add_argument("--workers", type=int, default=None,
                       help="worker processes (0 = all cores, capped by "
                            "repetitions x folds)")
    p_run.add_argument("--dry-run", action="store_true")
    p_run.add_argument("--precision", choices=("f32", "f64"), default=None)
    p_run.set_defaults(func=cmd_run)

    p_conv = sub.add_parser("convert", help="convert a MIL distribution file")
    p_conv.add_argument("format", choices=sorted(CONVERTERS))
    p_conv.add_argument("input")
    p_conv.add_argument("output")
    p_conv.add_argument("--name", default=None)
    p_conv.set_defaults(func=cmd_convert)

    p_scores = sub.add_parser("scores", help="per-instance scores for a bag")
    p_scores.add_argument("checkpoint")
    p_scores.add_argument("dataset")
    p_scores.add_argument("bag_id")
    p_scores.set_defaults(func=cmd_scores)

    p_self = sub.add_parser("selftest", help="run quick oracle checks")
    p_self.set_defaults(func=cmd_selftest)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
