import glob
import json
import os

import numpy as np
import pytest

from hamil import cli
from hamil.cli import (ConfigError, build_run_spec, load_config_file, main,
                       resolve_config)
from hamil.data import Bag, Dataset, save_bag_csv
from hamil.models import build_model, load_model, save_model
from hamil.aggregators import AggregatorSpec
from hamil.train_eval import OptimizerConfig, RunSpec


CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")

MINI_CONFIG = """\
[experiment]
name = "smoke"            # inline comment
output_dir = "{out}"

[data]
source = "synth_image"
n_bags = 10
bag_size_min = 2
bag_size_max = 3
image_size = 8
motif_size = 2

[model]
pathway = "image"

[aggregator]
kind = "hamil"
kernel_size = 3

[optimizer]
epochs = 1
learning_rate = 0.001

[cv]
repetitions = 1
folds = 2
"""


def write_config(tmp_path, text=None, out=None):
    path = tmp_path / "exp.toml"
    out = out or str(tmp_path / "runs")
    path.write_text((text or MINI_CONFIG).format(out=out))
    return str(path)


def toy_csv(tmp_path, n_bags=8, dim=3):
    rng = np.random.default_rng(0)
    bags = [Bag(f"b{i}", [rng.standard_normal(dim)
                          for _ in range(int(rng.integers(1, 4)))],
                [float(i % 2)]) for i in range(n_bags)]
    path = str(tmp_path / "toy.csv")
    save_bag_csv(Dataset("toy", bags, dim, 1), path)
    return path


class TestConfigParsing:
    def test_values_and_comments(self, tmp_path):
        p = tmp_path / "c.toml"
        p.write_text('[a]\nx = 3\ny = 1.5\nz = "s # not a comment"\n'
                     'w = true  # trailing\n')
        # section "a" is not in the schema; test the raw parser only
        raw = load_config_file(str(p))
        assert raw == {"a": {"x": 3, "y": 1.5, "z": "s # not a comment",
                             "w": True}}

    def test_defaults_filled(self, tmp_path):
        p = tmp_path / "c.toml"
        p.write_text('[data]\nsource = "synth_image"\n')
        cfg = resolve_config(load_config_file(str(p)))
        assert cfg["optimizer"]["learning_rate"] == 1e-4
        assert cfg["optimizer"]["momentum"] == 0.9
        assert cfg["optimizer"]["weight_decay"] == 0.005
        assert cfg["cv"]["repetitions"] == 5 and cfg["cv"]["folds"] == 10
        assert cfg["aggregator"]["kind"] == "hamil"

    def test_unknown_key_reports_field_path(self, tmp_path):
        p = tmp_path / "c.toml"
        p.write_text('[data]\nsource = "synth_image"\n[optimizer]\nlr = 0.1\n')
        with pytest.raises(ConfigError, match=r"optimizer\.lr"):
            resolve_config(load_config_file(str(p)))

    def test_unknown_section(self, tmp_path):
        p = tmp_path / "c.toml"
        p.write_text('[data]\nsource = "synth_image"\n[extra]\nx = 1\n')
        with pytest.raises(ConfigError, match="extra"):
            resolve_config(load_config_file(str(p)))

    def test_missing_required_key(self, tmp_path):
        p = tmp_path / "c.toml"
        p.write_text("[data]\nn_bags = 5\n")
        with pytest.raises(ConfigError, match=r"data\.source"):
            resolve_config(load_config_file(str(p)))

    def test_type_mismatch(self, tmp_path):
        p = tmp_path / "c.toml"
        p.write_text('[data]\nsource = "synth_image"\n'
                     '[optimizer]\nepochs = 1.5\n')
        with pytest.raises(ConfigError, match=r"optimizer\.epochs"):
            resolve_config(load_config_file(str(p)))

    def test_csv_source_requires_path(self, tmp_path):
        p = tmp_path / "c.toml"
        p.write_text('[data]\nsource = "csv"\n')
        with pytest.raises(ConfigError, match=r"data\.path"):
            resolve_config(load_config_file(str(p)))

    def test_bad_syntax(self, tmp_path):
        p = tmp_path / "c.toml"
        p.write_text("[data]\nnot a key value line\n")
        with pytest.raises(ConfigError, match="key = value"):
            load_config_file(str(p))

    def test_key_outside_section(self, tmp_path):
        p = tmp_path / "c.toml"
        p.write_text("x = 1\n")
        with pytest.raises(ConfigError, match="section"):
            load_config_file(str(p))

    def test_build_run_spec_wires_fields(self, tmp_path):
        csv = toy_csv(tmp_path)
        p = tmp_path / "c.toml"
        p.write_text(f'[data]\nsource = "csv"\npath = "{csv}"\n'
                     '[aggregator]\nkind = "attention"\n'
                     '[cv]\nrepetitions = 2\nfolds = 4\n')
        spec = build_run_spec(resolve_config(load_config_file(str(p))))
        assert spec.aggregator.kind == "attention"
        assert spec.repetitions == 2 and spec.folds == 4
        assert spec.dataset.name == "toy"


class TestRunCommand:
    def test_dry_run_prints_plan(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["run", "--config", cfg, "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "planned: 1 repetitions x 2 folds" in out
        assert json.loads(out[:out.index("planned")])["cv"]["folds"] == 2

    def test_smoke_run_writes_artifacts(self, tmp_path, capsys):
        out_dir = str(tmp_path / "runs")
        cfg = write_config(tmp_path, out=out_dir)
        assert main(["run", "--config", cfg]) == 0
        for name in ("resolved_config.json", "result.json", "result.csv",
                     "summary.txt"):
            assert os.path.exists(os.path.join(out_dir, name)), name
        with open(os.path.join(out_dir, "result.json")) as f:
            payload = json.load(f)
        assert len(payload["folds"]) == 2
        assert "accuracy" in payload["summary"]

    def test_precision_flag_overrides_config(self, tmp_path, monkeypatch,
                                             capsys):
        out_dir = str(tmp_path / "runs")
        text = MINI_CONFIG.replace('output_dir = "{out}"',
                                   'output_dir = "{out}"\nprecision = "f64"')
        cfg = write_config(tmp_path, text=text, out=out_dir)
        seen = []
        real_run_cv = cli.run_cv

        def spy(spec, progress=None):
            seen.append(spec.precision)
            return real_run_cv(spec, progress)
        monkeypatch.setattr(cli, "run_cv", spy)
        assert main(["run", "--config", cfg, "--precision", "f32"]) == 0
        assert seen == ["f32"]
        with open(os.path.join(out_dir, "resolved_config.json")) as f:
            assert json.load(f)["experiment"]["precision"] == "f32"

    def test_diverging_run_exits_1(self, tmp_path, capsys):
        out_dir = str(tmp_path / "runs")
        text = MINI_CONFIG.replace("learning_rate = 0.001",
                                   "learning_rate = 1e300")
        cfg = write_config(tmp_path, text=text, out=out_dir)
        assert main(["run", "--config", cfg, "--workers", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("run failed: rep 0 fold 0: non-finite loss")
        assert not os.path.exists(os.path.join(out_dir, "result.json"))

    def test_config_error_exits_2(self, tmp_path, capsys):
        p = tmp_path / "bad.toml"
        p.write_text('[data]\nsource = "nope"\n')
        assert main(["run", "--config", str(p)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("old,new,message", [
        ('learning_rate = 0.001', 'kind = "rmsprop"',
         "optimizer: unknown optimizer kind"),
        ("kernel_size = 3", "kernel_size = 4",
         "aggregator: kernel size must be odd"),
        ("epochs = 1", "epochs = -3", "optimizer: epochs and bags_per_step"),
        ("epochs = 1", "epochs = 1\nbags_per_step = -1",
         "optimizer: epochs and bags_per_step"),
        ("epochs = 1", "epochs = 1\nbags_per_step = 0",
         "optimizer: epochs and bags_per_step"),
        ("epochs = 1", "epochs = 1\nadam_beta1 = 1.0",
         "optimizer: adam_beta1 and adam_beta2 must be in [0, 1)"),
        ("repetitions = 1", "repetitions = 0",
         "cv: repetitions must be at least 1 and folds at least 2"),
        ("folds = 2", "folds = 0",
         "cv: repetitions must be at least 1 and folds at least 2"),
        ("kernel_size = 3", "kernel_size = 3\nattention_hidden = 0",
         "aggregator: attention_hidden must be at least 1"),
        ("kernel_size = 3", "kernel_size = 3\nlse_r = 0",
         "aggregator: lse_r must be positive"),
    ])
    def test_dataclass_check_exits_2(self, tmp_path, capsys, old, new, message):
        cfg = write_config(tmp_path, text=MINI_CONFIG.replace(old, new))
        assert main(["run", "--config", cfg, "--dry-run"]) == 2
        assert f"config error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("path", sorted(
        glob.glob(os.path.join(CONFIG_DIR, "*.toml"))), ids=os.path.basename)
    def test_shipped_config_is_valid(self, path):
        cfg = resolve_config(load_config_file(path))
        AggregatorSpec(**cfg["aggregator"])
        OptimizerConfig(**cfg["optimizer"])
        RunSpec(dataset=None, repetitions=cfg["cv"]["repetitions"],
                folds=cfg["cv"]["folds"])

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "absent.toml")]) == 2

    def test_workers_capped_by_total_jobs(self, tmp_path, capsys):
        text = MINI_CONFIG.replace("repetitions = 1\nfolds = 2",
                                   "repetitions = 2\nfolds = 5")
        cfg = write_config(tmp_path, text=text)
        assert main(["run", "--config", cfg, "--dry-run",
                     "--workers", "12"]) == 0
        out = capsys.readouterr().out
        assert "planned: 2 repetitions x 5 folds" in out
        assert out.rstrip().endswith("workers=10")

    def test_seed_override(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["run", "--config", cfg, "--dry-run", "--seed", "99"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out[:out.index("planned")])["cv"]["base_seed"] == 99


class TestConvertCommand:
    def test_convert_reports_counts(self, tmp_path, capsys):
        src = tmp_path / "raw.data"
        src.write_text("A,i1,1.0,2.0,1.\nA,i2,3.0,4.0,1.\nB,i3,5.0,6.0,0.\n")
        out = str(tmp_path / "out.csv")
        assert main(["convert", "c45", str(src), out]) == 0
        assert "2 bags, 3 instances, 2 features" in capsys.readouterr().out
        assert os.path.exists(out) and os.path.exists(out + ".meta.json")

    def test_refuses_canonical_input(self, tmp_path, capsys):
        src = tmp_path / "canon.csv"
        src.write_text("bag_id,label_0,f_0\na,1.0,0.5\n")
        assert main(["convert", "c45", str(src),
                     str(tmp_path / "out.csv")]) == 1
        assert "already in canonical format" in capsys.readouterr().err

    def test_malformed_input_exits_1(self, tmp_path, capsys):
        src = tmp_path / "bad.data"
        src.write_text("A,i1,notanumber,1.\n")
        assert main(["convert", "c45", str(src),
                     str(tmp_path / "out.csv")]) == 1


class TestScoresCommand:
    def checkpointed_model(self, tmp_path, dim=3):
        model = build_model("vector", AggregatorSpec(kind="hamil",
                                                     kernel_size=3),
                            feature_dim=dim, seed=0)
        path = str(tmp_path / "model.json")
        save_model(model, path)
        return path

    def test_single_instance_bag_scores_one(self, tmp_path, capsys):
        ckpt = self.checkpointed_model(tmp_path)
        csv = str(tmp_path / "one.csv")
        save_bag_csv(Dataset("one", [Bag("solo", [np.asarray([1.0, 2.0, 3.0])],
                                         [1.0])], 3, 1), csv)
        assert main(["scores", ckpt, csv, "solo"]) == 0
        out = capsys.readouterr().out
        assert "1 instances" in out
        assert "instance 0: score +1.000000" in out

    def test_identical_instances_equal_scores(self, tmp_path, capsys):
        ckpt = self.checkpointed_model(tmp_path)
        inst = np.asarray([0.5, -1.0, 2.0])
        csv = str(tmp_path / "twin.csv")
        save_bag_csv(Dataset("twin", [Bag("t", [inst, inst.copy()], [1.0])],
                             3, 1), csv)
        assert main(["scores", ckpt, csv, "t"]) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if "score" in l]
        assert len(lines) == 2
        assert lines[0].split("score")[1] == lines[1].split("score")[1]
        assert "merge queue" in out

    @pytest.mark.parametrize("pathway,message", [
        ("vector", "instance dim 5, model expects 3"),
        ("image", "cannot reshape array of size 5 into shape (1,8,8)"),
    ])
    def test_dataset_not_fitting_checkpoint_exits_1(self, tmp_path, capsys,
                                                     pathway, message):
        model = build_model(pathway, AggregatorSpec(kernel_size=3),
                            feature_dim=3, image_size=8, seed=0)
        ckpt = str(tmp_path / "model.json")
        save_model(model, ckpt)
        csv = toy_csv(tmp_path, dim=5)
        assert main(["scores", ckpt, csv, "b0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err

    def test_forward_records_no_tape(self, tmp_path, capsys, monkeypatch):
        ckpt = self.checkpointed_model(tmp_path)
        model = load_model(ckpt)
        forward, seen = model.forward_bag, []

        def capture(bag, mode="eval", rng=None):
            seen.append((bag, forward(bag, mode, rng)))
            return seen[-1][1]
        model.forward_bag = capture
        monkeypatch.setattr(cli, "load_model", lambda path: model)
        assert main(["scores", ckpt, toy_csv(tmp_path), "b1"]) == 0
        (bag, out), = seen
        assert out.probs._parents == () and out.aggregated._parents == ()
        taped = forward(bag, mode="eval")
        assert taped.probs._parents
        assert out.probs.data.tobytes() == taped.probs.data.tobytes()
        assert out.scores == taped.scores

    def test_unknown_bag_exits_1(self, tmp_path, capsys):
        ckpt = self.checkpointed_model(tmp_path)
        csv = toy_csv(tmp_path)
        assert main(["scores", ckpt, csv, "missing"]) == 1
        assert "unknown bag_id" in capsys.readouterr().err


class TestSelftest:
    def test_selftest_passes(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 5 and "[FAIL]" not in out
        assert "[PASS] batched conv2d matches direct loop" in out
        assert "[PASS] fused merge replay matches per-merge tape" in out
