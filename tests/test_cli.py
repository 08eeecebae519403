import dataclasses
import hashlib
import json
import os
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import aptattrib_console
from aptattrib import cli
from aptattrib.cli import derive_seed, load_config, main
from aptattrib.corpus import SynthSpec
from aptattrib.featurize import encode_labels, load_matrix, load_vocabulary, save_matrix
from aptattrib.interpret import TsneConfig
from aptattrib.network import ArchSpec, TrainConfig, init_model, load_model, save_model, train


def test_derive_seed_is_stable_and_stage_dependent():
    expected = int.from_bytes(
        hashlib.sha256((7).to_bytes(8, "little") + b"train").digest()[:8], "little"
    )
    assert derive_seed(7, "train") == expected
    assert derive_seed(7, "train") != derive_seed(7, "synth")
    assert derive_seed(7, "train") != derive_seed(8, "train")


def test_load_config_rejects_unknown_root_key(tmp_path):
    path = tmp_path / "c.json"
    path.write_text('{"seeds": 1}')
    with pytest.raises(ValueError, match="seeds"):
        load_config(str(path))


def test_load_config_rejects_unknown_section_key(tmp_path):
    path = tmp_path / "c.json"
    for section, key in (
        ("train", "momentum"),
        ("train", "shuffle"),
        ("tsne", "step_size"),
        ("tsne", "momentum_init"),
    ):
        path.write_text(json.dumps({section: {key: 0.5}}))
        with pytest.raises(ValueError, match=f"unknown config key.*{section}.*: {key}$"):
            load_config(str(path))


def test_load_config_rejects_non_object(tmp_path):
    path = tmp_path / "c.json"
    path.write_text("[1, 2]")
    with pytest.raises(ValueError, match="object"):
        load_config(str(path))


def test_load_config_rejects_bad_seed(tmp_path):
    path = tmp_path / "c.json"
    path.write_text('{"seed": -3}')
    with pytest.raises(ValueError, match="seed"):
        load_config(str(path))


def _write_pipeline_config(tmp_path, **overrides):
    cfg = {
        "seed": 5,
        "synth": {
            "nations": 2,
            "families_per_nation": 2,
            "reports_per_family": 25,
            "nation_sig_size": 8,
            "family_sig_size": 6,
            "noise_pool_size": 40,
            "tokens_per_report": 30,
        },
        "vocab": {"max_size": 150},
        "train": {"epochs": 3, "batch_size": 16, "lr_final": 1e-3},
        "tsne": {"perplexity": 6.0, "iterations": 40},
        "paths": {
            "corpus_dir": str(tmp_path / "corpus"),
            "vocab": str(tmp_path / "vocab.json"),
            "matrix": str(tmp_path / "features.bin"),
            "model": str(tmp_path / "family.model"),
            "train_report": str(tmp_path / "train_report.json"),
            "transfer_model": str(tmp_path / "nation.model"),
            "eval_model": str(tmp_path / "nation.model"),
            "embed_model": str(tmp_path / "nation.model"),
            "importance_csv": str(tmp_path / "importance.csv"),
            "embedding_csv": str(tmp_path / "embedding.csv"),
            "embedding_svg": str(tmp_path / "embedding.svg"),
        },
    }
    for key, value in overrides.items():
        if isinstance(value, dict):
            cfg.setdefault(key, {}).update(value)
        else:
            cfg[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


@pytest.fixture()
def pipeline(tmp_path):
    config_path, cfg = _write_pipeline_config(tmp_path)
    args = ["--config", str(config_path)]
    assert main(["synth", *args]) == 0
    assert main(["vocab", *args]) == 0
    assert main(["vectorize", *args]) == 0
    vocab = load_vocabulary(cfg["paths"]["vocab"])
    arch = f"{len(vocab)},24,12,4"
    assert main(["train", *args, "--task", "family", "--arch", arch]) == 0
    assert main(["transfer", *args]) == 0
    return config_path, cfg, tmp_path


def test_pipeline_products(pipeline, capsys):
    config_path, cfg, tmp_path = pipeline
    args = ["--config", str(config_path)]

    rows, nations, families = load_matrix(cfg["paths"]["matrix"])
    assert rows.shape[0] == 100
    assert all(n is not None for n in nations)

    fam_model = load_model(cfg["paths"]["model"])
    assert fam_model.arch.output_size == 4
    nat_model = load_model(cfg["paths"]["transfer_model"])
    assert nat_model.arch.output_size == 2
    for l in range(len(fam_model.weights) - 1):
        assert nat_model.weights[l].tobytes() == fam_model.weights[l].tobytes()
    assert nat_model.trainable[:-1] == [False] * (len(nat_model.trainable) - 1)

    text = (tmp_path / "train_report.json").read_text()
    report = json.loads(text)
    assert [list(r) for r in report] == [["epoch", "lr", "train_loss", "val_acc"]] * 3
    # The same training in the library gives the file's exact text: one
    # object per epoch in that key order, indented by 2, then a newline.
    _, _, families = load_matrix(cfg["paths"]["matrix"])
    _, labels = encode_labels(families)
    model = init_model(fam_model.arch, derive_seed(5, "train-init"))
    config = TrainConfig(epochs=3, batch_size=16, lr_final=1e-3, seed=derive_seed(5, "train"))
    records = [
        {"epoch": r.epoch, "lr": r.lr, "train_loss": r.train_loss, "val_acc": r.val_acc}
        for r in train(model, rows, labels, config)
    ]
    assert text == json.dumps(records, indent=2) + "\n"
    assert text.startswith('[\n  {\n    "epoch": 0,\n    "lr": 0.01,\n    "train_loss": ')

    assert main(["eval", *args, "--task", "nation"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["task"] == "nation"
    assert 0.0 <= payload["accuracy"] <= 1.0
    assert len(payload["confusion"]) == 2
    assert sum(sum(r) for r in payload["confusion"]) == 100

    assert main(["importance", *args, "--top", "7"]) == 0
    csv_text = (tmp_path / "importance.csv").read_text()
    lines = csv_text.strip().split("\n")
    assert lines[0].startswith("rank,feature_index,token,score")
    assert len(lines) == 8

    assert main(["embed", *args]) == 0
    coords = (tmp_path / "embedding.csv").read_text().strip().split("\n")
    assert coords[0] == "id,label,x,y"
    assert len(coords) == 101
    svg = (tmp_path / "embedding.svg").read_text()
    assert svg.count("<circle") == 100


def test_pipeline_rerun_is_byte_identical(pipeline):
    config_path, cfg, tmp_path = pipeline
    args = ["--config", str(config_path)]
    assert main(["embed", *args]) == 0
    first = {
        name: (tmp_path / name).read_bytes()
        for name in (
            "vocab.json",
            "features.bin",
            "family.model",
            "nation.model",
            "embedding.csv",
            "embedding.svg",
        )
    }
    vocab = load_vocabulary(cfg["paths"]["vocab"])
    arch = f"{len(vocab)},24,12,4"
    assert main(["synth", *args]) == 0
    assert main(["vocab", *args]) == 0
    assert main(["vectorize", *args]) == 0
    assert main(["train", *args, "--task", "family", "--arch", arch]) == 0
    assert main(["transfer", *args]) == 0
    assert main(["embed", *args]) == 0
    for name, blob in first.items():
        assert (tmp_path / name).read_bytes() == blob, name


def test_synth_manifest_line_count_matches_parameters(tmp_path):
    out = tmp_path / "c"
    assert main(["synth", "--out-dir", str(out), "--nations", "2",
                 "--families-per-nation", "3", "--reports-per-family", "4"]) == 0
    manifest = (out / "manifest.jsonl").read_text().strip().split("\n")
    assert len(manifest) == 24


def test_synth_invalid_spec_exits_2(tmp_path, capsys):
    rc = main(["synth", "--out-dir", str(tmp_path / "c"), "--p-nation", "1.5"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_vocab_missing_manifest_exits_2(tmp_path, capsys):
    rc = main(["vocab", "--manifest", str(tmp_path / "nope.jsonl"),
               "--out", str(tmp_path / "v.json")])
    assert rc == 2


def test_vocab_empty_corpus_exits_2(tmp_path):
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text("")
    rc = main(["vocab", "--manifest", str(manifest), "--out", str(tmp_path / "v.json")])
    assert rc == 2


def test_vocab_flag_overrides_config(tmp_path):
    config_path, cfg = _write_pipeline_config(tmp_path)
    args = ["--config", str(config_path)]
    assert main(["synth", *args]) == 0
    assert main(["vocab", *args, "--max-size", "5"]) == 0
    assert len(load_vocabulary(cfg["paths"]["vocab"])) == 5


def test_train_arch_mismatch_exits_2(tmp_path, capsys):
    config_path, cfg = _write_pipeline_config(tmp_path)
    args = ["--config", str(config_path)]
    assert main(["synth", *args]) == 0
    assert main(["vocab", *args]) == 0
    assert main(["vectorize", *args]) == 0
    assert main(["train", *args, "--arch", "9,4,4"]) == 2
    assert "input size" in capsys.readouterr().err
    vocab = load_vocabulary(cfg["paths"]["vocab"])
    assert main(["train", *args, "--arch", f"{len(vocab)},4,2"]) == 2
    assert "output size" in capsys.readouterr().err


def test_train_epochs_zero_equals_initialization(tmp_path):
    config_path, cfg = _write_pipeline_config(tmp_path, train={"epochs": 0})
    args = ["--config", str(config_path)]
    assert main(["synth", *args]) == 0
    assert main(["vocab", *args]) == 0
    assert main(["vectorize", *args]) == 0
    vocab = load_vocabulary(cfg["paths"]["vocab"])
    assert main(["train", *args, "--task", "family", "--arch", f"{len(vocab)},8,4"]) == 0
    saved = load_model(cfg["paths"]["model"])
    fresh = init_model(ArchSpec((len(vocab), 8, 4)), seed=derive_seed(5, "train-init"))
    assert all(
        a.tobytes() == b.tobytes() for a, b in zip(saved.weights, fresh.weights)
    )


def test_transfer_missing_base_model_exits_2(tmp_path, capsys):
    config_path, _ = _write_pipeline_config(tmp_path)
    args = ["--config", str(config_path)]
    assert main(["synth", *args]) == 0
    assert main(["vocab", *args]) == 0
    assert main(["vectorize", *args]) == 0
    assert main(["transfer", *args]) == 2


def test_eval_class_count_mismatch_exits_2(tmp_path, capsys):
    config_path, cfg = _write_pipeline_config(tmp_path)
    args = ["--config", str(config_path)]
    assert main(["synth", *args]) == 0
    assert main(["vocab", *args]) == 0
    assert main(["vectorize", *args]) == 0
    vocab = load_vocabulary(cfg["paths"]["vocab"])
    assert main(["train", *args, "--task", "family", "--arch", f"{len(vocab)},8,4"]) == 0
    rc = main(["eval", *args, "--model", cfg["paths"]["model"], "--task", "nation"])
    assert rc == 2
    assert "2 distinct" in capsys.readouterr().err


def test_oversized_header_exits_2(tmp_path, capsys):
    model = tmp_path / "huge.model"
    huge = struct.pack("<2I", 0xFFFFFFFF, 0xFFFFFFFF)
    model.write_bytes(b"APTM" + struct.pack("<IH", 1, 2) + huge + b"\x01")
    matrix = tmp_path / "huge.bin"
    matrix.write_bytes(b"APTV" + struct.pack("<I", 1) + huge)
    assert main(["eval", "--model", str(model), "--matrix", str(matrix)]) == 2
    assert "truncated" in capsys.readouterr().err
    assert main(["train", "--matrix", str(matrix), "--model-out", str(tmp_path / "m")]) == 2
    assert "truncated" in capsys.readouterr().err


@pytest.mark.parametrize(
    "override",
    [
        {"entries": [[None, 3], [7, True], ["ok", 2.9]]},
        {"entries": [["ok", 2.0]]},
        {"corpus_docs": True},
        {"max_size": 5.0},
    ],
)
def test_vocabulary_value_types_exit_2(tmp_path, capsys, override):
    doc = {"version": 1, "corpus_docs": 4, "max_size": 5, "entries": [["a", 2]], **override}
    vocab = tmp_path / "vocab.json"
    vocab.write_text(json.dumps(doc))
    model = tmp_path / "m.model"
    save_model(init_model(ArchSpec((len(doc["entries"]), 2)), seed=0), model)
    assert main(["importance", "--model", str(model), "--vocab", str(vocab)]) == 2
    assert f"vocabulary file {vocab}" in capsys.readouterr().err


def test_matrix_label_not_utf8_exits_2(tmp_path, capsys):
    matrix = tmp_path / "x.bin"
    save_matrix(matrix, np.ones((1, 2), dtype=np.uint8), ["ab"], ["cd"])
    matrix.write_bytes(matrix.read_bytes().replace(b"ab", b"\xff\xfe"))
    model = tmp_path / "m.model"
    save_model(init_model(ArchSpec((2, 1)), seed=0), model)
    assert main(["eval", "--model", str(model), "--matrix", str(matrix)]) == 2
    assert f"feature-matrix file {matrix}: label is not UTF-8" in capsys.readouterr().err


def test_embed_too_few_points_exits_2(tmp_path, capsys):
    config_path, cfg = _write_pipeline_config(
        tmp_path, synth={"reports_per_family": 2}, tsne={"perplexity": 30.0}
    )
    args = ["--config", str(config_path)]
    assert main(["synth", *args]) == 0
    assert main(["vocab", *args]) == 0
    assert main(["vectorize", *args]) == 0
    vocab = load_vocabulary(cfg["paths"]["vocab"])
    assert main(["train", *args, "--task", "family", "--arch", f"{len(vocab)},8,4"]) == 0
    rc = main(["embed", *args, "--model", cfg["paths"]["model"]])
    assert rc == 2
    assert "perplexity" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, flags, section",
    [
        ("perplexity", ["--perplexity", "nan"], {}),
        # not TsneConfig fields, so unknown config keys
        ("step_size", [], {"step_size": float("inf")}),
        ("momentum_final", [], {"momentum_final": 1.5}),
        ("exaggeration_iters", [], {"exaggeration_iters": -5}),
        ("momentum_switch_iter", [], {"momentum_switch_iter": -1}),
    ],
)
def test_embed_rejects_bad_tsne_settings_and_writes_nothing(pipeline, capsys, key, flags, section):
    config_path, cfg, tmp_path = pipeline
    cfg["tsne"].update(section)
    config_path.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert main(["embed", "--config", str(config_path), *flags]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "embedding.csv").exists()
    assert not (tmp_path / "embedding.svg").exists()


def test_importance_stdout_when_no_out(tmp_path, capsys):
    model_path = tmp_path / "m.model"
    save_model(init_model(ArchSpec((3, 2)), seed=0), model_path)
    vocab_path = tmp_path / "v.json"
    vocab_path.write_text(
        '{"version": 1, "corpus_docs": 4, "max_size": 5, "entries": [["a", 2], ["b", 1], ["c", 1]]}'
    )
    rc = main(["importance", "--model", str(model_path), "--vocab", str(vocab_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("rank,feature_index,token,score")
    assert len(out.strip().split("\n")) == 4


def test_importance_vocab_model_width_mismatch_exits_2(tmp_path):
    model_path = tmp_path / "m.model"
    save_model(init_model(ArchSpec((5, 2)), seed=0), model_path)
    vocab_path = tmp_path / "v.json"
    vocab_path.write_text(
        '{"version": 1, "corpus_docs": 4, "max_size": 5, "entries": [["a", 2]]}'
    )
    assert main(["importance", "--model", str(model_path), "--vocab", str(vocab_path)]) == 2


def test_missing_required_path_exits_2(capsys):
    assert main(["vocab"]) == 2
    assert "manifest" in capsys.readouterr().err


def test_cli_seed_flag_changes_synth(tmp_path):
    out_a, out_b, out_c = (tmp_path / n for n in ("a", "b", "c"))
    for out, seed in ((out_a, "1"), (out_b, "1"), (out_c, "2")):
        assert main(["synth", "--out-dir", str(out), "--seed", seed,
                     "--reports-per-family", "3"]) == 0
    read = lambda d: (d / "manifest.jsonl").read_text() + "".join(
        sorted(p.read_text() for p in d.glob("*.txt"))
    )
    assert read(out_a) == read(out_b)
    assert read(out_a) != read(out_c)


def _tree(root):
    return {p: p.read_bytes() for p in root.rglob("*") if p.is_file()}


@pytest.mark.parametrize(
    "argv, section, seed",
    [(["train", "--task", "family"], "train", -1), (["embed"], "tsne", 2**64)],
)
def test_a_section_seed_out_of_range_exits_2_before_any_work(
    pipeline, capsys, argv, section, seed
):
    _, cfg, tmp_path = pipeline
    cfg[section] = {**cfg[section], "seed": seed}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    before = _tree(tmp_path)
    capsys.readouterr()
    assert main([*argv, "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: config {section}.seed must be an unsigned 64-bit integer, got {seed}\n"
    assert _tree(tmp_path) == before


def test_a_noise_pool_over_2_63_exits_2_naming_the_setting(tmp_path, capsys):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"synth": {"noise_pool_size": 2**64}}))
    out = tmp_path / "corpus"
    assert main(["synth", "--config", str(config), "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == f"error: noise_pool_size must be <= 2**63, got {2**64}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "command, override, where",
    [
        ("train", {"train": {"epochs": "5"}}, "train.epochs"),
        ("train", {"train": {"arch": 5}}, "train.arch"),
        ("train", {"train": {"arch": [640, 8.5, 4]}}, "train.arch"),
        ("train", {"train": {"epochs": True}}, "train.epochs"),
        ("synth", {"synth": {"nations": 2.5}}, "synth.nations"),
        ("embed", {"tsne": {"perplexity": "5"}}, "tsne.perplexity"),
        ("vocab", {"paths": {"vocab": 3}}, "paths.vocab"),
        ("synth", {"seed": True}, "seed"),
    ],
)
def test_mistyped_config_value_exits_2_and_writes_nothing(
    pipeline, capsys, command, override, where
):
    _, cfg, tmp_path = pipeline
    for key, value in override.items():
        cfg[key] = {**cfg[key], **value} if isinstance(value, dict) else value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    before = _tree(tmp_path)
    capsys.readouterr()
    assert main([command, "--config", str(bad)]) == 2
    assert f"config {where} " in capsys.readouterr().err
    assert _tree(tmp_path) == before


def test_every_dataclass_field_at_its_default_passes_load_config(tmp_path):
    cfg = {
        section: {f.name: f.default for f in dataclasses.fields(cls)}
        for section, cls in (("synth", SynthSpec), ("train", TrainConfig), ("tsne", TsneConfig))
    }
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    assert load_config(str(path)) == cfg


def test_float_keys_accept_integers(tmp_path):
    path = tmp_path / "c.json"
    path.write_text('{"train": {"lr_init": 1}, "tsne": {"perplexity": 5}}')
    assert load_config(str(path))["tsne"]["perplexity"] == 5


@pytest.mark.parametrize(
    "flag, config_nations, expected",
    [(["--nations", "3"], 2, 3), ([], 3, 3), ([], None, SynthSpec().nations)],
)
def test_synth_flag_beats_config_beats_default(tmp_path, flag, config_nations, expected):
    config_path, cfg = _write_pipeline_config(tmp_path)
    if config_nations is None:
        del cfg["synth"]["nations"]
    else:
        cfg["synth"]["nations"] = config_nations
    config_path.write_text(json.dumps(cfg))
    assert main(["synth", "--config", str(config_path), *flag]) == 0
    manifest = (tmp_path / "corpus" / "manifest.jsonl").read_text().strip().split("\n")
    assert len({json.loads(line)["nation"] for line in manifest}) == expected


def _train_family(args, cfg, *extra):
    vocab = load_vocabulary(cfg["paths"]["vocab"])
    arch = f"{len(vocab)},24,12,4"
    return main(["train", *args, "--task", "family", "--arch", arch, *extra])


def test_train_epochs_flag_beats_config(pipeline):
    config_path, cfg, tmp_path = pipeline
    args = ["--config", str(config_path)]
    assert cfg["train"]["epochs"] == 3
    assert _train_family(args, cfg, "--epochs", "2") == 0
    assert len(json.loads((tmp_path / "train_report.json").read_text())) == 2


def test_embed_flag_beats_config(pipeline, capsys):
    config_path, cfg, _ = pipeline
    args = ["--config", str(config_path)]
    capsys.readouterr()
    assert main(["embed", *args, "--iterations", "7"]) == 0
    assert "(perplexity 6.0, 7 iterations)" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["train", "--no-shuffle"], ["embed", "--step-size", "9"]])
def test_removed_flags_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err


def test_config_only_tsne_key_reaches_embedding(pipeline):
    config_path, cfg, tmp_path = pipeline
    assert main(["embed", "--config", str(config_path)]) == 0
    default = (tmp_path / "embedding.csv").read_bytes()
    assert cfg["tsne"]["iterations"] < TsneConfig().exaggeration_iters
    cfg["tsne"]["exaggeration_iters"] = 5
    config_path.write_text(json.dumps(cfg))
    assert main(["embed", "--config", str(config_path)]) == 0
    assert (tmp_path / "embedding.csv").read_bytes() != default


def test_importance_rejects_top_before_loading_model(tmp_path, capsys, monkeypatch):
    def no_load(path):
        raise AssertionError("model loaded before --top was checked")

    monkeypatch.setattr(cli, "load_model", no_load)
    out = tmp_path / "importance.csv"
    rc = main(["importance", "--model", str(tmp_path / "m.model"),
               "--vocab", str(tmp_path / "v.json"), "--top", "0", "--out", str(out)])
    assert rc == 2
    assert "--top" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, key",
    [
        (["--lr-init", "inf", "--lr-final", "inf"], "lr_init"),
        (["--lr-final", "nan"], "lr_final"),
        (["--dropout-rate=-inf"], "dropout_rate"),
    ],
)
def test_train_rejects_non_finite_settings_and_writes_nothing(tmp_path, capsys, flags, key):
    config_path, cfg = _write_pipeline_config(tmp_path)
    args = ["--config", str(config_path)]
    for command in ("synth", "vocab", "vectorize"):
        assert main([command, *args]) == 0
    vocab = load_vocabulary(cfg["paths"]["vocab"])
    capsys.readouterr()
    rc = main(["train", *args, "--arch", f"{len(vocab)},8,4", *flags])
    assert rc == 2
    assert f"error: {key} must be finite" in capsys.readouterr().err
    assert not (tmp_path / "family.model").exists()


def test_diverging_training_exits_2_and_writes_no_model(tmp_path, capsys):
    config_path, cfg = _write_pipeline_config(tmp_path)
    args = ["--config", str(config_path)]
    for command in ("synth", "vocab", "vectorize"):
        assert main([command, *args]) == 0
    vocab = load_vocabulary(cfg["paths"]["vocab"])
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["train", *args, "--arch", f"{len(vocab)},16,4", "--lr-init", "1e30"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error: epoch 0, batch at " in err and "non-finite training loss" in err
    assert "internal error" not in err
    # The one-line error is all: numpy's overflow warnings are not printed.
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert "RuntimeWarning" not in err
    assert not (tmp_path / "family.model").exists()
    assert not (tmp_path / "train_report.json").exists()


_COMMON_FLAGS = {"--config config - None", "--seed seed int None"}
_TRAINING_FLAGS = {
    "--lr-init lr_init float None",
    "--lr-final lr_final float None",
    "--epochs epochs int None",
    "--dropout-rate dropout_rate float None",
    "--input-noise-rate input_noise_rate float None",
    "--batch-size batch_size int None",
    "--matrix matrix - None",
    "--model-out model_out - None",
    "--report-out report_out - None",
}
# Each subcommand's flags as "flag dest type default", type "-" for a plain string.
_PARSER_SURFACE = {
    "synth": {
        "--out-dir out_dir - None",
        "--nations nations int None",
        "--families-per-nation families_per_nation int None",
        "--reports-per-family reports_per_family int None",
        "--p-nation p_nation float None",
        "--p-family p_family float None",
    },
    "vocab": {"--manifest manifest - None", "--out out - None", "--max-size max_size int None"},
    "vectorize": {"--manifest manifest - None", "--vocab vocab - None", "--out out - None"},
    "train": _TRAINING_FLAGS
    | {"--task task - family", "--arch arch _parse_arch_flag None"},
    "transfer": _TRAINING_FLAGS | {"--base-model base_model - None"},
    "eval": {"--model model - None", "--matrix matrix - None", "--task task - nation"},
    "importance": {
        "--model model - None",
        "--vocab vocab - None",
        "--top top int 100",
        "--out out - None",
    },
    "embed": {
        "--model model - None",
        "--matrix matrix - None",
        "--label-kind label_kind - nation",
        "--csv-out csv_out - None",
        "--svg-out svg_out - None",
        "--perplexity perplexity float None",
        "--iterations iterations int None",
    },
}


def test_parser_and_schema_surface_is_pinned():
    parser = cli._build_parser()
    (commands,) = [a for a in parser._actions if a.dest == "command"]
    surface = {
        name: {
            f"{a.option_strings[0]} {a.dest} {getattr(a.type, '__name__', '-')} {a.default}"
            for a in sub._actions
            if a.dest != "help"
        }
        for name, sub in commands.choices.items()
    }
    assert surface == {name: _COMMON_FLAGS | flags for name, flags in _PARSER_SURFACE.items()}
    fields = {cls: {f.name for f in dataclasses.fields(cls)} for cls in (SynthSpec, TrainConfig)}
    assert {section: set(keys) for section, keys in cli._SCHEMA.items()} == {
        "synth": fields[SynthSpec],
        "vocab": {"max_size"},
        "train": fields[TrainConfig] | {"arch"},
        "tsne": {f.name for f in dataclasses.fields(TsneConfig)},
        "paths": set(
            "corpus_dir manifest vocab matrix model train_report transfer_model "
            "transfer_report eval_model embed_model importance_csv embedding_csv "
            "embedding_svg".split()
        ),
    }


@pytest.mark.parametrize("body", [b"[" * 5000, b'{"seed": "\xff"}'], ids=["deep", "not-utf8"])
@pytest.mark.parametrize("kind", ["config", "vocabulary", "manifest"])
def test_unreadable_json_input_exits_2_naming_the_file(tmp_path, capsys, kind, body):
    path = tmp_path / "input.json"
    path.write_bytes(body)
    model = tmp_path / "m.model"
    save_model(init_model(ArchSpec((1, 2)), seed=0), model)
    argv = {
        "config": ["synth", "--config", str(path), "--out-dir", str(tmp_path / "c")],
        "vocabulary": ["importance", "--model", str(model), "--vocab", str(path)],
        "manifest": ["vocab", "--manifest", str(path), "--out", str(tmp_path / "v.json")],
    }[kind]
    assert main(argv) == 2
    named = f"manifest {path} line 1" if kind == "manifest" else f"{kind} file {path}"
    assert capsys.readouterr().err.startswith(f"error: {named}: invalid JSON (")


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_flag_and_config_seed_share_one_range_check(tmp_path, capsys, seed):
    out = ["--out-dir", str(tmp_path / "c")]
    assert main(["synth", *out, "--seed", str(seed)]) == 2
    assert "--seed must be an unsigned 64-bit integer" in capsys.readouterr().err
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"seed": seed}))
    assert main(["synth", *out, "--config", str(config)]) == 2
    assert "config seed must be an unsigned 64-bit integer" in capsys.readouterr().err
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize(
    "command, seed", [("vocab", "-1"), ("vectorize", str(2**64)), ("eval", str(2**70))]
)
def test_every_command_checks_the_root_seed(tmp_path, capsys, command, seed):
    config_path, _ = _write_pipeline_config(tmp_path)
    assert main([command, "--config", str(config_path), "--seed", seed]) == 2
    expected = f"error: --seed must be an unsigned 64-bit integer, got {seed}\n"
    assert capsys.readouterr().err == expected
    assert not (tmp_path / "vocab.json").exists()


def test_manifest_path_outside_its_directory_exits_2(tmp_path, capsys):
    (tmp_path / "secret.txt").write_text("secret")
    (tmp_path / "corpus").mkdir()
    manifest = tmp_path / "corpus" / "manifest.jsonl"
    manifest.write_text(json.dumps({"id": "a", "path": "../secret.txt"}) + "\n")
    out = tmp_path / "v.json"
    assert main(["vocab", "--manifest", str(manifest), "--out", str(out)]) == 2
    assert "leaves the manifest's directory" in capsys.readouterr().err
    assert not out.exists()


def test_manifest_symlink_outside_its_directory_exits_2(tmp_path, capsys):
    (tmp_path / "outside.txt").write_text("secret")
    (tmp_path / "corpus").mkdir()
    (tmp_path / "corpus" / "link.txt").symlink_to(Path("..") / "outside.txt")
    manifest = tmp_path / "corpus" / "manifest.jsonl"
    manifest.write_text(json.dumps({"id": "a", "path": "link.txt"}) + "\n")
    out = tmp_path / "v.json"
    assert main(["vocab", "--manifest", str(manifest), "--out", str(out)]) == 2
    assert "resolves outside the manifest's directory" in capsys.readouterr().err
    assert not out.exists()


def test_inconsistent_vocabulary_exits_2_through_importance(tmp_path, capsys):
    vocab = tmp_path / "v.json"
    doc = {"version": 1, "corpus_docs": -5, "max_size": -1, "entries": [["a", -3], ["", 0]]}
    vocab.write_text(json.dumps(doc))
    model = tmp_path / "m.model"
    save_model(init_model(ArchSpec((2, 2)), seed=0), model)
    assert main(["importance", "--model", str(model), "--vocab", str(vocab)]) == 2
    assert capsys.readouterr().err.startswith(f"error: vocabulary file {vocab}: malformed")


def test_bad_arch_flag_names_the_problem(capsys):
    with pytest.raises(SystemExit) as info:
        main(["train", "--matrix", "x.bin", "--model-out", "m.model", "--arch", "4,x"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "argument --arch: must be comma-separated integers, got '4,x'" in err


def test_config_type_error_shows_at_most_80_characters_of_the_value(tmp_path, capsys):
    config = tmp_path / "c.json"
    config.write_text('{"train": {"arch": ' + "[" * 950 + "]" * 950 + "}}")
    assert main(["synth", "--config", str(config), "--out-dir", str(tmp_path / "c")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config train.arch must be a list of integers, got [[[")
    assert len(err.split("got ", 1)[1].rstrip("\n")) == 80


def test_eval_width_mismatch_exits_2_before_inference(tmp_path, capsys):
    matrix = tmp_path / "x.bin"
    save_matrix(matrix, np.ones((2, 3), dtype=np.uint8), ["a", "b"], ["f", "g"])
    model = tmp_path / "m.model"
    save_model(init_model(ArchSpec((4, 2)), seed=0), model)
    assert main(["eval", "--model", str(model), "--matrix", str(matrix)]) == 2
    assert "model input size 4 does not match matrix width 3" in capsys.readouterr().err


def test_embed_width_mismatch_exits_2_before_embedding(tmp_path, capsys):
    matrix = tmp_path / "x.bin"
    save_matrix(matrix, np.ones((2, 3), dtype=np.uint8), ["a", "b"], ["f", "g"])
    model = tmp_path / "m.model"
    save_model(init_model(ArchSpec((4, 2)), seed=0), model)
    out = tmp_path / "e.csv"
    argv = ["embed", "--model", str(model), "--matrix", str(matrix), "--csv-out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "model input size 4 does not match matrix width 3" in err
    assert "embedding" not in err
    assert not out.exists()


# Records the BLAS thread variables as numpy starts to load (OpenBLAS reads
# them then), then runs the given statement.
_AT_NUMPY_LOAD = """
import os, sys
seen = []
class Watch:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append([os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")])
sys.meta_path.insert(0, Watch())
try:
    exec(sys.argv[1])
except SystemExit:
    pass
print(seen[0], file=sys.stderr)
"""


def _threads_at_numpy_load(statement, **env):
    base = {k: v for k, v in os.environ.items() if k not in aptattrib_console.THREAD_VARIABLES}
    base["PYTHONPATH"] = str(Path(aptattrib_console.__file__).parent)
    done = subprocess.run(
        [sys.executable, "-c", _AT_NUMPY_LOAD, statement],
        env={**base, **env}, capture_output=True, text=True, check=True,
    )
    return done.stderr.splitlines()[-1]


@pytest.mark.parametrize(
    "env, expected",
    [
        ({}, "['1', None]"),
        ({"OPENBLAS_NUM_THREADS": "2"}, "['2', None]"),
        ({"OMP_NUM_THREADS": "2"}, "[None, '2']"),
    ],
    ids=["unset", "openblas-set", "omp-set"],
)
def test_console_script_sets_one_blas_thread_unless_the_user_set_a_count(env, expected):
    script = "import aptattrib_console; aptattrib_console.main(['--help'])"
    assert _threads_at_numpy_load(script, **env) == expected


def test_importing_the_library_sets_no_thread_count():
    assert _threads_at_numpy_load("import aptattrib") == "[None, None]"
