"""Fuzz the input loaders with truncated, bit-flipped and deeply nested files.

Every loader must either load a damaged file or reject it with a ValueError
subclass (FormatError, CorpusError or ValueError), and the command that reads
it must then exit 2, never 1. Examples are derandomized and capped so the
module stays a few seconds long.
"""

import contextlib
import io
import json

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from aptattrib.cli import load_config, main  # noqa: E402
from aptattrib.corpus import (  # noqa: E402
    SynthSpec,
    export_corpus,
    generate_synthetic_corpus,
    load_corpus,
)
from aptattrib.featurize import (  # noqa: E402
    build_vocabulary,
    load_matrix,
    load_vocabulary,
    save_matrix,
    save_vocabulary,
    vectorize_corpus,
)
from aptattrib.network import ArchSpec, init_model, load_model, save_model  # noqa: E402

FUZZ = settings(
    max_examples=40,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """One valid file of each kind, plus the model and vocabulary the commands pair them with."""
    root = tmp_path_factory.mktemp("fuzz")
    spec = SynthSpec(
        nations=2,
        families_per_nation=1,
        reports_per_family=3,
        nation_sig_size=3,
        family_sig_size=2,
        noise_pool_size=5,
        tokens_per_report=6,
    )
    corpus = generate_synthetic_corpus(spec)
    manifest = export_corpus(corpus, root / "corpus")
    vocab = build_vocabulary(corpus, max_size=8)
    save_vocabulary(vocab, root / "vocab.json")
    rows, nations, families = vectorize_corpus(corpus, vocab)
    save_matrix(root / "x.bin", rows, nations, families)
    save_model(init_model(ArchSpec((len(vocab), 3, 2)), seed=0), root / "m.model")
    config = {
        "seed": 7,
        "synth": {"nations": 2, "p_nation": 0.6},
        "vocab": {"max_size": 8},
        "train": {"epochs": 3, "lr_init": 0.01, "arch": [len(vocab), 3, 2]},
        "tsne": {"perplexity": 5.0},
        "paths": {"corpus_dir": "c", "vocab": "v.json", "model": "m.model"},
    }
    (root / "config.json").write_text(json.dumps(config))
    return {
        "root": root,
        "config": root / "config.json",
        "manifest": manifest,
        "vocabulary": root / "vocab.json",
        "matrix": root / "x.bin",
        "model": root / "m.model",
    }


@st.composite
def damaged(draw, blob: bytes, nest: bool):
    """blob truncated, with one bit flipped, or (JSON only) with an array nested deep inside."""
    how = draw(st.sampled_from(("truncate", "flip", "nest") if nest else ("truncate", "flip")))
    if how == "truncate":
        return blob[: draw(st.integers(0, len(blob) - 1))]
    if how == "flip":
        at = draw(st.integers(0, len(blob) - 1))
        return blob[:at] + bytes([blob[at] ^ (1 << draw(st.integers(0, 7)))]) + blob[at + 1 :]
    depth = draw(st.sampled_from((1, 2, 900, 990, 1000, 1100, 5000)))
    opens = [i + 1 for i, byte in enumerate(blob) if byte == ord("[")]
    if not opens or draw(st.booleans()):
        return b"[" * depth + blob + b"]" * depth
    at = draw(st.sampled_from(opens))
    return blob[:at] + b"[" * depth + b"0" + b"]" * depth + b"," + blob[at:]


def _damage(files, kind: str, data, nest: bool):
    """Write a damaged copy of the kind's file next to it; returns its path."""
    source = files[kind]
    target = source.with_name("damaged-" + source.name)
    target.write_bytes(data.draw(damaged(source.read_bytes(), nest)))
    return target


def _exit_code(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def _check(load, path, argv):
    """load(path) gives a value or a ValueError; the command exits 2 on the latter, never 1."""
    try:
        load(path)
        rejected = False
    except ValueError:
        rejected = True
    rc = _exit_code(argv)
    assert rc == 2 if rejected else rc in (0, 2)


@FUZZ
@given(data=st.data())
def test_damaged_config(files, data):
    path = _damage(files, "config", data, nest=True)
    out = files["root"] / "importance.csv"
    argv = ["importance", "--config", str(path), "--model", str(files["model"])]
    _check(load_config, str(path), [*argv, "--vocab", str(files["vocabulary"]), "--out", str(out)])


@FUZZ
@given(data=st.data())
def test_damaged_manifest(files, data):
    path = _damage(files, "manifest", data, nest=True)
    out = files["root"] / "v.json"
    _check(load_corpus, path, ["vocab", "--manifest", str(path), "--out", str(out)])


@FUZZ
@given(data=st.data())
def test_damaged_vocabulary(files, data):
    path = _damage(files, "vocabulary", data, nest=True)
    out = files["root"] / "importance.csv"
    argv = ["importance", "--model", str(files["model"]), "--vocab", str(path), "--out", str(out)]
    _check(load_vocabulary, path, argv)


@FUZZ
@given(data=st.data())
def test_damaged_matrix(files, data):
    path = _damage(files, "matrix", data, nest=False)
    _check(load_matrix, path, ["eval", "--model", str(files["model"]), "--matrix", str(path)])


@FUZZ
@given(data=st.data())
def test_damaged_model(files, data):
    path = _damage(files, "model", data, nest=False)
    _check(load_model, path, ["eval", "--model", str(path), "--matrix", str(files["matrix"])])


def test_fixture_files_load_and_run(files):
    """The undamaged files pass, so the fuzz tests start from working input."""
    assert load_config(str(files["config"]))["seed"] == 7
    assert len(load_corpus(files["manifest"])) == 6
    assert len(load_vocabulary(files["vocabulary"])) == load_model(files["model"]).arch.input_size
    assert np.array_equal(np.unique(load_matrix(files["matrix"])[0]), [0, 1])
    argv = ["eval", "--model", str(files["model"]), "--matrix", str(files["matrix"])]
    assert _exit_code([*argv, "--task", "nation"]) == 0
