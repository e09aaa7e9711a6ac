"""Config parsing contracts and the command-line surface end to end."""

import json
import math
import re
import threading
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np
import pytest

import dualhead.gradcheck as gradcheck_mod
import dualhead.ndgrad as nd
import dualhead.trainer as trainer_mod
from dualhead.cli import ABLATION_COMBOS, main
from dualhead.gradcheck import run_gradcheck
from dualhead.config import (
    ConfigError,
    RunConfig,
    apply_overrides,
    config_hash,
    load_config,
    serialize_config,
    validate_config,
)

FAST_TRAIN = [
    "--set", "dataset.classes=2",
    "--set", "dataset.per_class=10",
    "--set", "dataset.dim=3",
    "--set", "dataset.seed=5",
    "--set", "model.hidden=6",
    "--set", "model.feature_dim=5",
    "--set", "model.projector_dim=4",
    "--set", "optimizer.iterations=20",
    "--set", "optimizer.batch_size=4",
    "--set", "optimizer.base_lr=0.003",
    "--set", "losses.reduction=mean",
    "--set", "keys.queue_size=4",
]


class TestConfigDefaults:
    def test_reference_constants(self):
        cfg = RunConfig()
        assert cfg.losses.tau == 0.07
        assert cfg.keys.momentum == 0.999
        assert cfg.keys.bank_momentum == 0.5
        assert cfg.optimizer.head_lr_multiplier == 10.0
        assert cfg.optimizer.sgd_momentum == 0.9
        assert cfg.losses.weights() == (1.0, 1.0, 1.0)

    def test_defaults_validate(self):
        validate_config(RunConfig())


class TestConfigParsing:
    def test_load_and_types(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text(
            "[run]\nseed = 9\n\n[dataset]\nkind = rings\nnoise = 0.25\n\n"
            "[model]\nhidden = 16,8\nclassifier_bias = true\n\n"
            "[optimizer]\nschedule = 50:0.1,80:0.5\n"
        )
        cfg = load_config(str(path))
        assert cfg.seed == 9
        assert cfg.dataset.kind == "rings" and cfg.dataset.noise == 0.25
        assert cfg.model.hidden == (16, 8) and cfg.model.classifier_bias is True
        assert cfg.optimizer.schedule == ((50, 0.1), (80, 0.5))

    def test_unknown_key_is_fatal_and_named(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[losses]\ntemperature = 0.1\n")
        with pytest.raises(ConfigError, match="temperature"):
            load_config(str(path))

    def test_unknown_section_is_fatal(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[exotic]\nx = 1\n")
        with pytest.raises(ConfigError, match="exotic"):
            load_config(str(path))

    def test_bad_value_reports_key(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[optimizer]\nbase_lr = fast\n")
        with pytest.raises(ConfigError, match=r"\[optimizer\] base_lr"):
            load_config(str(path))

    def test_overrides(self):
        cfg = RunConfig()
        apply_overrides(cfg, ["losses.tau=0.2", "keys.generator=membank", "dataset.sampling_rate=0.5"])
        assert cfg.losses.tau == 0.2
        assert cfg.keys.generator == "membank"
        assert cfg.dataset.sampling_rate == 0.5

    def test_override_unknown_key(self):
        with pytest.raises(ConfigError):
            apply_overrides(RunConfig(), ["losses.alpha=1"])

    def test_serialize_round_trip(self, tmp_path):
        cfg = RunConfig()
        apply_overrides(cfg, ["model.hidden=12,6", "optimizer.schedule=30:0.1", "dataset.seed=4"])
        path = tmp_path / "c.ini"
        path.write_text(serialize_config(cfg))
        again = load_config(str(path))
        assert again == cfg
        assert config_hash(again) == config_hash(cfg)

    @pytest.mark.parametrize(
        "override",
        [
            "losses.tau=0",
            "dataset.sampling_rate=1.5",
            "keys.momentum=1.2",
            "optimizer.sgd_momentum=1.0",
            "dataset.kind=images",
            "losses.reduction=median",
        ],
    )
    def test_validation_ranges(self, override):
        cfg = RunConfig()
        apply_overrides(cfg, [override])
        with pytest.raises(ConfigError):
            validate_config(cfg)

    def test_all_weights_zero_rejected(self):
        cfg = RunConfig()
        apply_overrides(cfg, ["losses.ce=0", "losses.cce=0", "losses.ccl=0"])
        with pytest.raises(ConfigError):
            validate_config(cfg)


# One valid, non-default text for every settable key.
NON_DEFAULT = {
    "run.seed": "7",
    "run.log_every": "3",
    "run.eval_every": "9",
    "run.out": "runs/elsewhere",
    "dataset.kind": "rings",
    "dataset.classes": "4",
    "dataset.per_class": "12",
    "dataset.dim": "5",
    "dataset.separation": "2.5",
    "dataset.noise": "0.125",
    "dataset.seed": "11",
    "dataset.path": "table.csv",
    "dataset.delimiter": ";",
    "dataset.label_column": "2",
    "dataset.has_header": "true",
    "dataset.train_fraction": "0.6",
    "dataset.sampling_rate": "0.25",
    "model.hidden": "16,8",
    "model.feature_dim": "7",
    "model.projector_dim": "9",
    "model.classifier_bias": "yes",
    "keys.generator": "membank",
    "keys.queue_size": "8",
    "keys.keys_per_class": "3",
    "keys.momentum": "0.99",
    "keys.bank_momentum": "0.25",
    "keys.bank_uniform": "on",
    "keys.warmup_mode": "defer",
    "losses.tau": "0.1",
    "losses.ce": "0.5",
    "losses.cce": "0",
    "losses.ccl": "2.0",
    "losses.cce_variant": "per_key",
    "losses.reduction": "mean",
    "optimizer.base_lr": "3e-3",
    "optimizer.head_lr_multiplier": "1.0",
    "optimizer.sgd_momentum": "0.5",
    "optimizer.weight_decay": "0",
    "optimizer.iterations": "40",
    "optimizer.batch_size": "8",
    "optimizer.schedule": "20:0.1,30:0.5",
}

# serialize_config(RunConfig()) as released: output directory names and
# summary.json carry its hash, so neither may drift.
DEFAULT_INI = (
    "[run]\nseed = 0\nlog_every = 10\neval_every = 100\nout = \n\n"
    "[dataset]\nkind = blobs\nclasses = 3\nper_class = 60\ndim = 4\nseparation = 6.0\nnoise = 1.0\nseed = \n"
    "path = \ndelimiter = ,\nlabel_column = 0\nhas_header = false\ntrain_fraction = 0.7\nsampling_rate = 1.0\n\n"
    "[model]\nhidden = 64\nfeature_dim = 32\nprojector_dim = 128\nclassifier_bias = false\n\n"
    "[keys]\ngenerator = moco\nqueue_size = 32\nkeys_per_class = 2\nmomentum = 0.999\nbank_momentum = 0.5\n"
    "bank_uniform = false\nwarmup_mode = prefill\n\n"
    "[losses]\ntau = 0.07\nce = 1.0\ncce = 1.0\nccl = 1.0\ncce_variant = literal\nreduction = sum\n\n"
    "[optimizer]\nbase_lr = 0.0001\nhead_lr_multiplier = 10.0\nsgd_momentum = 0.9\nweight_decay = 0.0001\n"
    "iterations = 500\nbatch_size = 32\nschedule = auto\n\n"
)
DEFAULT_HASH = "d3dcdd0b5c22a3d82c1ca614df486ec3b046b227c267c9ee3059c58cd64dab65"


def schema_keys() -> list[str]:
    """Every settable key, read off the dataclasses: RunConfig's scalars are [run]."""
    cfg = RunConfig()
    keys, sections = [], []
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if is_dataclass(value):
            sections += [f"{f.name}.{g.name}" for g in fields(value)]
        else:
            keys.append(f"run.{f.name}")
    return keys + sections


def read_back(cfg: RunConfig, tmp_path) -> RunConfig:
    path = tmp_path / "c.ini"
    path.write_text(serialize_config(cfg))
    return load_config(str(path))


def field_value(cfg: RunConfig, dotted: str):
    section, key = dotted.split(".")
    return getattr(cfg if section == "run" else getattr(cfg, section), key)


class TestSchema:
    def test_table_covers_every_key(self):
        assert len(schema_keys()) == 41
        assert sorted(NON_DEFAULT) == sorted(schema_keys())

    @pytest.mark.parametrize("dotted", sorted(NON_DEFAULT))
    def test_every_key_round_trips(self, tmp_path, dotted):
        cfg = RunConfig()
        apply_overrides(cfg, [f"{dotted}={NON_DEFAULT[dotted]}"])
        assert field_value(cfg, dotted) != field_value(RunConfig(), dotted)
        again = read_back(cfg, tmp_path)
        assert again == cfg
        assert serialize_config(again) == serialize_config(cfg)
        assert config_hash(again) == config_hash(cfg)

    @pytest.mark.parametrize(
        "dotted,text,value",
        [
            ("dataset.kind", " rings ", "rings"),
            ("dataset.delimiter", "\t", "\t"),
            ("run.out", "", None),
            ("run.out", " d ", "d"),
            ("dataset.seed", "none", None),
            ("dataset.seed", "", None),
            ("model.hidden", "", ()),
            ("model.hidden", "none", ()),
            ("optimizer.schedule", "none", "none"),
            ("optimizer.schedule", "5:0.5", ((5, 0.5),)),
            ("keys.bank_uniform", "Off", False),
            ("optimizer.iterations", " 12 ", 12),
            ("losses.tau", "1e-1", 0.1),
            ("dataset.delimiter", " ", " "),
            ("dataset.delimiter", " tab", "\t"),
            ("dataset.delimiter", "space", " "),
        ],
    )
    def test_text_forms(self, dotted, text, value):
        cfg = RunConfig()
        apply_overrides(cfg, [f"{dotted}={text}"])
        assert field_value(cfg, dotted) == value
        assert type(field_value(cfg, dotted)) is type(value)

    @pytest.mark.parametrize("delimiter,text", [("\t", "tab"), (" ", "space"), (";", ";"), ("|", "|")])
    def test_delimiter_survives_config_ini(self, tmp_path, delimiter, text):
        # configparser strips values, so a whitespace delimiter is written by name.
        cfg = RunConfig()
        apply_overrides(cfg, [f"dataset.delimiter={delimiter}"])
        assert f"\ndelimiter = {text}\n" in serialize_config(cfg)
        again = read_back(cfg, tmp_path)
        assert again.dataset.delimiter == delimiter
        assert config_hash(again) == config_hash(cfg)

    @pytest.mark.parametrize("delimiter", ["", ";;", "tab;"])
    def test_delimiter_must_be_one_character(self, tmp_path, capsys, delimiter):
        # The table does not exist: a delimiter that got past validation would exit 3, not 1.
        code = main([
            "train", "--out", str(tmp_path / "o"), "--set", "dataset.kind=file",
            "--set", f"dataset.path={tmp_path / 'missing.csv'}", "--set", f"dataset.delimiter={delimiter}",
        ])
        assert code == 1
        assert "dataset.delimiter must be exactly one character" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "override,message",
        [
            ("optimizer.iterations=2.5", "bad value for [optimizer] iterations: '2.5' (invalid literal"),
            ("keys.bank_uniform=maybe", "bad value for [keys] bank_uniform: 'maybe' ('maybe' is not a boolean)"),
            ("run.model=1", "unknown config key [run] model"),
            ("extra.seed=1", "unknown config key [extra] seed"),
        ],
    )
    def test_error_messages(self, override, message):
        with pytest.raises(ConfigError) as info:
            apply_overrides(RunConfig(), [override])
        assert str(info.value).startswith(message)

    def test_all_non_default_values_together(self, tmp_path):
        cfg = RunConfig()
        apply_overrides(cfg, [f"{k}={v}" for k, v in NON_DEFAULT.items()])
        validate_config(cfg)
        assert all(field_value(cfg, k) != field_value(RunConfig(), k) for k in NON_DEFAULT)
        assert read_back(cfg, tmp_path) == cfg

    def test_default_serialization_is_pinned(self):
        assert serialize_config(RunConfig()) == DEFAULT_INI
        assert config_hash(RunConfig()) == DEFAULT_HASH

    def test_readme_lists_every_key_with_its_default(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## Configuration", 1)[1].split("```ini\n", 1)[1].split("```", 1)[0]
        documented = [line.split("#", 1)[0].rstrip() for line in block.splitlines() if line.strip()]
        serialized = [line.rstrip() for line in serialize_config(RunConfig()).splitlines() if line.strip()]
        assert documented == serialized


class TestTrainCommand:
    def run_train(self, tmp_path, name, extra=()):
        out = tmp_path / name
        code = main(["train", "--out", str(out), *FAST_TRAIN, *extra])
        return code, out

    def test_minimal_run_writes_artifacts(self, tmp_path):
        code, out = self.run_train(
            tmp_path, "a",
            ["--set", "losses.cce=0", "--set", "losses.ccl=0", "--set", "run.log_every=1",
             "--set", "optimizer.iterations=50"],
        )
        assert code == 0
        lines = (out / "metrics.csv").read_text().splitlines()
        assert lines[0] == "iteration,ce,cce,ccl,total,val_acc"
        loss_rows = [l for l in lines[1:] if l.split(",")[1]]
        assert len(loss_rows) == 50
        assert (out / "checkpoint.json").exists()
        assert (out / "config.ini").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert 0.0 <= summary["final_val_acc"] <= 1.0

    def test_seed_flag_beats_file_value(self, tmp_path):
        cfg_file = tmp_path / "c.ini"
        cfg_file.write_text("[run]\nseed = 3\n")
        out = tmp_path / "o"
        code = main(["train", "--config", str(cfg_file), "--seed", "7", "--out", str(out), *FAST_TRAIN])
        assert code == 0
        assert json.loads((out / "summary.json").read_text())["seed"] == 7
        assert "seed = 7" in (out / "config.ini").read_text()

    def test_repeat_runs_byte_identical(self, tmp_path):
        _, out1 = self.run_train(tmp_path, "r1")
        _, out2 = self.run_train(tmp_path, "r2")
        assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()

    def test_rerun_from_emitted_config_reproduces(self, tmp_path):
        _, out1 = self.run_train(tmp_path, "orig")
        out2 = tmp_path / "replay"
        code = main(["train", "--config", str(out1 / "config.ini"), "--out", str(out2)])
        assert code == 0
        assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()

    @pytest.mark.parametrize("delimiter", ["\t", " ", ";", "|"])
    def test_file_run_reruns_from_its_config(self, tmp_path, delimiter):
        table = tmp_path / "table.csv"
        rows = [(0.1 * i, (-1.0) ** i * 0.3 + i % 2, i % 2) for i in range(20)]
        table.write_text("".join(f"{a!r}{delimiter}{b!r}{delimiter}{label}\n" for a, b, label in rows))
        code, out1 = self.run_train(tmp_path, "orig", [
            "--set", "dataset.kind=file", "--set", f"dataset.path={table}",
            "--set", f"dataset.delimiter={delimiter}", "--set", "dataset.label_column=2",
        ])
        assert code == 0
        assert load_config(str(out1 / "config.ini")).dataset.delimiter == delimiter
        out2 = tmp_path / "replay"
        assert main(["train", "--config", str(out1 / "config.ini"), "--out", str(out2)]) == 0
        assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()

    def test_unknown_key_exit_code(self, tmp_path):
        cfg_file = tmp_path / "c.ini"
        cfg_file.write_text("[model]\nwidth = 9\n")
        assert main(["train", "--config", str(cfg_file)]) == 1

    def test_missing_data_file_exit_code(self, tmp_path):
        code = main([
            "train", "--out", str(tmp_path / "o"),
            "--set", "dataset.kind=file",
            "--set", f"dataset.path={tmp_path / 'nope.csv'}",
        ])
        assert code == 3

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflows on purpose
    def test_numerical_blowup_exit_code(self, tmp_path):
        code = main([
            "train", "--out", str(tmp_path / "o"), *FAST_TRAIN,
            "--set", "losses.reduction=sum",
            "--set", "optimizer.base_lr=1e150",
            "--set", "optimizer.iterations=60",
        ])
        assert code == 2


class TestEvalCommand:
    def test_checkpoint_round_trip_accuracy(self, tmp_path, capsys):
        out = tmp_path / "train"
        assert main(["train", "--out", str(out), *FAST_TRAIN]) == 0
        summary = json.loads((out / "summary.json").read_text())
        capsys.readouterr()
        code = main([
            "eval", "--checkpoint", str(out / "checkpoint.json"),
            "--split", "val", *FAST_TRAIN,
        ])
        assert code == 0
        printed = capsys.readouterr().out.strip().split()[-1]
        assert abs(float(printed) - summary["final_val_acc"]) <= 1e-12

    def eval_on_csv(self, tmp_path, capsys, params, rows, name):
        """Accuracy of a saved model on a CSV dataset, via the CLI."""
        import dualhead.model as model_mod

        ckpt = tmp_path / f"{name}.json"
        model_mod.save_checkpoint(params, str(ckpt))
        csv_path = tmp_path / f"{name}.csv"
        csv_path.write_text("".join(f"{a},{b},{lab}\n" for a, b, lab in rows))
        capsys.readouterr()
        code = main([
            "eval", "--checkpoint", str(ckpt), "--split", "all",
            "--set", "dataset.kind=file",
            "--set", f"dataset.path={csv_path}",
            "--set", "dataset.label_column=2",
        ])
        assert code == 0
        return float(capsys.readouterr().out.strip().split()[-1])

    def constant_predictor(self, class_count):
        from dualhead.model import ModelDims, ModelParams

        dims = ModelDims(in_dim=2, hidden=(), feature_dim=2, class_count=class_count, projector_dim=2)
        params = ModelParams(dims)
        params.projector_w.data[:] = 1.0
        return params

    @pytest.mark.parametrize(
        "path,named",
        [
            (("tensors", "projector.bias"), "projector.bias"),
            (("tensors", "projector.bias", "data"), "projector.bias"),
            (("dims", "feature_dim"), "feature_dim"),
        ],
    )
    def test_checkpoint_missing_a_field_is_a_validation_error(self, tmp_path, capsys, path, named):
        import dualhead.model as model_mod

        ckpt = tmp_path / "ckpt.json"
        model_mod.save_checkpoint(self.constant_predictor(3), str(ckpt))
        doc = json.loads(ckpt.read_text())
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        del parent[path[-1]]
        ckpt.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(ckpt), *FAST_TRAIN]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and repr(named) in err

    @pytest.mark.parametrize(
        "path,value,named,shape",
        [
            # A 3x2 classifier under class_count = 2 used to load and yield 3 logits.
            (("dims", "class_count"), 2, "classifier.weight", "[2, 2]"),
            # Same value count, wrong shape; right shape, wrong value count.
            (("tensors", "projector.weight", "shape"), [1, 4], "projector.weight", "[2, 2]"),
            (("tensors", "projector.bias", "data"), [0.0], "projector.bias", "[2]"),
        ],
    )
    def test_checkpoint_shape_disagreeing_with_dims_is_a_validation_error(self, tmp_path, capsys, path, value, named, shape):
        import dualhead.model as model_mod

        ckpt = tmp_path / "ckpt.json"
        model_mod.save_checkpoint(self.constant_predictor(3), str(ckpt))
        doc = json.loads(ckpt.read_text())
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        ckpt.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(ckpt), *FAST_TRAIN]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and repr(named) in err and f"its dims give shape {shape}" in err

    @pytest.mark.parametrize("edit", ["flip_bias_flag", "extra_tensor"])
    def test_checkpoint_tensor_outside_the_layout_is_a_validation_error(self, tmp_path, capsys, edit):
        # A tensor the layout does not name used to be dropped without a word.
        import dualhead.model as model_mod
        from dualhead.model import ModelParams

        params = self.constant_predictor(3)
        ckpt = tmp_path / "ckpt.json"
        model_mod.save_checkpoint(ModelParams(params.dims, classifier_bias=True), str(ckpt))
        doc = json.loads(ckpt.read_text())
        if edit == "flip_bias_flag":
            doc["classifier_bias"], named = False, "classifier.bias"
        else:
            doc["tensors"]["encoder.1.weight"], named = doc["tensors"]["encoder.0.weight"], "encoder.1.weight"
        ckpt.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(ckpt), *FAST_TRAIN]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and repr(named) in err and "parameter layout does not name" in err

    def test_checkpoint_with_nan_is_a_numerical_failure(self, tmp_path, capsys):
        import dualhead.model as model_mod

        ckpt = tmp_path / "ckpt.json"
        model_mod.save_checkpoint(self.constant_predictor(3), str(ckpt))
        doc = json.loads(ckpt.read_text())
        doc["tensors"]["projector.bias"]["data"][1] = float("nan")
        ckpt.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(ckpt), *FAST_TRAIN]) == 2
        assert "'projector.bias'" in capsys.readouterr().err

    def test_constant_predictor_all_class_zero(self, tmp_path, capsys):
        rows = [(0.4, -1.2, 0), (2.0, 0.3, 0), (-0.7, 0.9, 0)]
        acc = self.eval_on_csv(tmp_path, capsys, self.constant_predictor(3), rows, "const")
        assert acc == 1.0

    def test_constant_predictor_balanced_labels(self, tmp_path, capsys):
        rows = [(0.1 * i, -0.2 * i, i % 2) for i in range(10)]
        acc = self.eval_on_csv(tmp_path, capsys, self.constant_predictor(2), rows, "bal")
        assert acc == 0.5

    def test_hand_built_logits_table(self, tmp_path, capsys):
        import numpy as np

        from dualhead.model import ModelDims, ModelParams

        dims = ModelDims(in_dim=2, hidden=(), feature_dim=2, class_count=2, projector_dim=2)
        params = ModelParams(dims)
        params.encoder_layers[0][0].data[:] = np.eye(2)
        params.classifier_W.data[:] = np.eye(2)
        params.projector_w.data[:] = 1.0
        # features double as logits; predictions 0, 1, 0 (tie), 0 -> 2/4
        rows = [(2.0, 1.0, 0), (0.0, 3.0, 1), (5.0, 5.0, 1), (1.0, 0.0, 1)]
        acc = self.eval_on_csv(tmp_path, capsys, params, rows, "table")
        assert acc == 0.5


class TestGradcheckCommand:
    def test_passes_and_covers_every_loss(self, capsys):
        assert main(["gradcheck", "--instances", "1"]) == 0
        out = capsys.readouterr().out
        for name in ("ce", "info_nce", "cce_literal", "cce_per_key", "ccl", "joint_total"):
            assert sum(1 for line in out.splitlines() if f" {name} " in line) == 1

    @pytest.mark.parametrize("instances", ["0", "-3"])
    def test_no_instances_is_a_validation_error(self, capsys, instances):
        # Zero instances would check nothing and still print "all gradients verified".
        assert main(["gradcheck", "--instances", instances]) == 1
        captured = capsys.readouterr()
        assert "verified" not in captured.out
        assert captured.err.startswith("error: gradcheck needs at least one instance")
        with pytest.raises(ValueError):
            run_gradcheck(instances=int(instances))

    def test_detects_corrupted_backward_rule(self, capsys, monkeypatch):
        real_relu = nd.relu

        def broken_relu(a):
            out = real_relu(a)
            if out._backward is not None:
                orig = out._backward
                out._backward = lambda g: orig(g * 1.5)  # wrong by 50%
            return out

        monkeypatch.setattr(nd, "relu", broken_relu)
        assert main(["gradcheck", "--instances", "1"]) == 2
        assert "FAIL" in capsys.readouterr().out

    overflows = pytest.mark.filterwarnings("ignore::RuntimeWarning")  # an infinite gradient overflows on purpose

    @pytest.mark.parametrize("bad", [np.nan, pytest.param(np.inf, marks=overflows), pytest.param(-np.inf, marks=overflows)])
    def test_non_finite_backward_rule_fails_its_case(self, capsys, monkeypatch, bad):
        # Python's max(worst, nan) keeps worst: a NaN error must not read as a pass.
        real_relu = nd.relu

        def broken_relu(a):
            out = real_relu(a)
            if out._backward is not None:
                out._backward = lambda g: nd._accumulate(a, np.full_like(g, bad))
            return out

        monkeypatch.setattr(nd, "relu", broken_relu)
        assert main(["gradcheck", "--instances", "2"]) == 2
        out = capsys.readouterr().out
        assert re.search(r"^op +relu +max rel err nan +FAIL$", out, re.M), out
        assert re.search(r"^loss +ce +max rel err nan +FAIL$", out, re.M), out

    @pytest.mark.parametrize("errors", [(float("nan"), 1e-9), (1e-9, float("nan"))])
    def test_a_nan_instance_fails_its_case(self, monkeypatch, errors):
        per_call = iter(errors * (len(gradcheck_mod.OP_CASES) + len(gradcheck_mod.LOSS_CASES)))
        monkeypatch.setattr(gradcheck_mod, "worst_relative_error", lambda forward, wrt: next(per_call))
        report = run_gradcheck(instances=2)
        assert all(math.isnan(r.max_rel_err) and not r.passed for r in report.results)
        assert not report.passed


class TestAblateCommand:
    def test_five_rows_and_header_order(self, tmp_path, capsys):
        out = tmp_path / "ab"
        code = main([
            "ablate", "--out", str(out), "--rates", "0.5", "--seeds", "0", *FAST_TRAIN,
            "--set", "optimizer.iterations=10",
        ])
        assert code == 0
        lines = (out / "ablation.csv").read_text().splitlines()
        assert lines[0].startswith("ce,cce,ccl,")
        assert len(lines) == 6
        flags = [l.split(",")[:3] for l in lines[1:]]
        assert flags == [["1", "0", "0"], ["1", "1", "0"], ["1", "0", "1"], ["0", "1", "1"], ["1", "1", "1"]]

    def test_parallel_jobs_byte_identical(self, tmp_path):
        base = [
            "ablate", "--rates", "0.5", "--seeds", "0", "1", *FAST_TRAIN,
            "--set", "optimizer.iterations=8",
        ]
        out1, out2 = tmp_path / "a1", tmp_path / "a2"
        assert main([*base, "--out", str(out1), "--jobs", "1"]) == 0
        assert main([*base, "--out", str(out2), "--jobs", "3"]) == 0
        assert (out1 / "ablation.csv").read_bytes() == (out2 / "ablation.csv").read_bytes()

    def test_ce_row_matches_standalone_train(self, tmp_path):
        out = tmp_path / "ab"
        args = [*FAST_TRAIN, "--set", "optimizer.iterations=15", "--set", "dataset.sampling_rate=0.5"]
        code = main(["ablate", "--out", str(out), "--rates", "0.5", "--seeds", "3", *args])
        assert code == 0
        ce_row = (out / "ablation.csv").read_text().splitlines()[1].split(",")
        ablate_acc = float(ce_row[3])

        t_out = tmp_path / "tr"
        code = main([
            "train", "--out", str(t_out), "--seed", "3", *args,
            "--set", "losses.cce=0", "--set", "losses.ccl=0",
        ])
        assert code == 0
        standalone = json.loads((t_out / "summary.json").read_text())["final_val_acc"]
        assert abs(ablate_acc - standalone) <= 1e-12


class TestSweepCommand:
    def test_cardinality_and_sorting(self, tmp_path):
        out = tmp_path / "sw"
        code = main([
            "sweep", "--out", str(out), "--axis", "keys_per_class",
            "--values", "4", "1", "2", "--seeds", "0", "1", *FAST_TRAIN,
            "--set", "optimizer.iterations=8",
        ])
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "axis,value,seed,final_val_acc,best_val_acc"
        assert len(lines) == 7
        values = [int(l.split(",")[1]) for l in lines[1:]]
        assert values == sorted(values)

    def test_projector_dim_sweep_includes_reference_width(self, tmp_path):
        out = tmp_path / "sw"
        code = main([
            "sweep", "--out", str(out), "--axis", "projector_dim",
            "--values", "128", "8", "--seeds", "0", *FAST_TRAIN,
            "--set", "optimizer.iterations=8",
        ])
        assert code == 0
        values = {int(l.split(",")[1]) for l in (out / "sweep.csv").read_text().splitlines()[1:]}
        assert 128 in values

    def test_parallel_jobs_byte_identical(self, tmp_path):
        base = [
            "sweep", "--axis", "tau", "--values", "0.07", "0.2",
            "--seeds", "0", "1", *FAST_TRAIN, "--set", "optimizer.iterations=8",
        ]
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert main([*base, "--out", str(out1), "--jobs", "1"]) == 0
        assert main([*base, "--out", str(out2), "--jobs", "4"]) == 0
        assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()

    def test_unparseable_value_rejected(self, tmp_path):
        code = main(["sweep", "--axis", "tau", "--values", "abc", *FAST_TRAIN])
        assert code == 1


class TestFitMany:
    """``ablate`` and ``sweep`` run their fits on the calling thread, in input order."""

    @pytest.fixture
    def fits(self, monkeypatch):
        calls = []
        real_fit = trainer_mod.fit

        def spy(cfg):
            calls.append((threading.get_ident(), cfg))
            return real_fit(cfg)

        monkeypatch.setattr(trainer_mod, "fit", spy)
        return calls

    def test_ablate_fits_in_order_on_calling_thread(self, tmp_path, fits):
        code = main([
            "ablate", "--out", str(tmp_path / "ab"), "--rates", "0.5", "0.25", "--seeds", "1", "0",
            "--jobs", "2", *FAST_TRAIN, "--set", "optimizer.iterations=3",
        ])
        assert code == 0
        assert [ident for ident, _ in fits] == [threading.get_ident()] * 20
        got = [(cfg.losses.weights(), cfg.dataset.sampling_rate, cfg.seed) for _, cfg in fits]
        assert got == [(combo, rate, seed) for combo in ABLATION_COMBOS for rate in (0.5, 0.25) for seed in (1, 0)]

    def test_sweep_fits_in_order_on_calling_thread(self, tmp_path, fits):
        code = main([
            "sweep", "--out", str(tmp_path / "sw"), "--axis", "tau", "--values", "0.2", "0.07",
            "--seeds", "1", "0", "--jobs", "4", *FAST_TRAIN, "--set", "optimizer.iterations=3",
        ])
        assert code == 0
        assert [ident for ident, _ in fits] == [threading.get_ident()] * 4
        assert [(cfg.losses.tau, cfg.seed) for _, cfg in fits] == [(0.07, 1), (0.07, 0), (0.2, 1), (0.2, 0)]

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    @pytest.mark.parametrize("command", [
        ["ablate", "--rates", "0.5", "--seeds", "0"],
        ["sweep", "--axis", "tau", "--values", "0.2"],
    ])
    def test_jobs_below_one_rejected(self, tmp_path, capsys, fits, command, jobs):
        code = main([*command, "--out", str(tmp_path / "o"), "--jobs", jobs, *FAST_TRAIN])
        assert code == 1
        assert capsys.readouterr().err == f"error: --jobs must be >= 1, got {jobs}\n"
        assert fits == []
