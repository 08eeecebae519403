"""Each benchmark output check must reject a deliberately corrupted artifact.

Run from the repository root with:

    python3 -m pytest -q pipebench/test_checks.py

A tiny pipeline pass produces real artifacts once; every test then corrupts
one of them in a copy and asserts that the check meant to catch it fails,
so no check passes vacuously.
"""

from __future__ import annotations

import json
import shutil
import struct
import sys

import numpy as np
import pytest

import checks
import run

sys.path.insert(0, str(run.SRC))

TINY = run.Workload(
    synth=dict(
        nations=2, families_per_nation=3, reports_per_family=60,
        nation_sig_size=20, family_sig_size=10, noise_pool_size=60, tokens_per_report=40,
    ),
    train_per_family=60,
    held_per_family=60,
    vocab_max=200,
    hidden=(32, 16),
    train_epochs=150,
    transfer_epochs=75,
    tsne=dict(perplexity=10.0, iterations=300, exaggeration_iters=100, momentum_switch_iter=100),
    accuracy_floor=0.90,
    knn_floor=0.80,
)


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    d = tmp_path_factory.mktemp("pass")
    _, corpora = run.set_up(TINY, 5, d)
    vocab_size = len(checks.expected_vocabulary([r.raw_text for r in corpora.train], TINY.vocab_max))
    (d / "tsne.json").write_text(json.dumps({"tsne": TINY.tsne}))
    result = run.run_pass(run.commands(TINY, d, 5, vocab_size))
    assert result.error is None, result.error
    return d, corpora, result.eval_stdout


@pytest.fixture
def copy(artifacts, tmp_path):
    d, corpora, eval_stdout = artifacts
    shutil.copytree(d, tmp_path / "pass")
    return tmp_path / "pass", corpora, eval_stdout


def test_intact_pass_passes_every_check(artifacts):
    d, corpora, eval_stdout = artifacts
    quality = run.check_pass(TINY, d, corpora, eval_stdout)
    assert quality["accuracy"] >= TINY.accuracy_floor


def _fails(copy, match: str, eval_stdout: str | None = None):
    d, corpora, original_stdout = copy
    with pytest.raises(checks.CheckFailed, match=match):
        run.check_pass(TINY, d, corpora, original_stdout if eval_stdout is None else eval_stdout)


def test_vocabulary_rank_swap_fails(copy):
    path = copy[0] / "vocab.json"
    doc = json.loads(path.read_text())
    doc["entries"][0], doc["entries"][1] = doc["entries"][1], doc["entries"][0]
    path.write_text(json.dumps(doc))
    _fails(copy, "vocabulary entries")


def test_flipped_matrix_bit_fails(copy):
    path = copy[0] / "train.bin"
    raw = bytearray(path.read_bytes())
    raw[16 + 7] ^= 1
    path.write_bytes(bytes(raw))
    _fails(copy, "matrix rows")


def test_swapped_matrix_label_fails(copy):
    path = copy[0] / "held.bin"
    matrix = checks.read_matrix(path.read_bytes())
    raw = path.read_bytes()
    first, other = matrix.nations[0], next(n for n in matrix.nations if n != matrix.nations[0])
    body_end = 16 + matrix.rows.size
    label_start = body_end + 2
    assert raw[label_start : label_start + len(first)] == first.encode()
    path.write_bytes(raw[:label_start] + other.encode() + raw[label_start + len(first) :])
    _fails(copy, "nation labels")


def test_perturbed_trunk_weight_fails(copy):
    path = copy[0] / "nation.model"
    raw = bytearray(path.read_bytes())
    model = checks.read_model(bytes(raw))
    (value,) = struct.unpack_from("<f", raw, model.data_start)
    struct.pack_into("<f", raw, model.data_start, value + 1e-3)
    path.write_bytes(bytes(raw))
    _fails(copy, "trunk bytes")


def test_perturbed_head_weight_fails(copy):
    path = copy[0] / "nation.model"
    raw = bytearray(path.read_bytes())
    model = checks.read_model(bytes(raw))
    head = model.layer_ends[-2]
    (value,) = struct.unpack_from("<f", raw, head)
    struct.pack_into("<f", raw, head, value * 1.5 + 0.5)
    path.write_bytes(bytes(raw))
    _fails(copy, "float64 reference")


def test_swapped_eval_labels_fail(copy):
    payload = json.loads(copy[2])
    payload["labels"] = payload["labels"][::-1]
    _fails(copy, "eval labels", json.dumps(payload))


def test_swapped_eval_confusion_rows_fail(copy):
    payload = json.loads(copy[2])
    payload["confusion"] = payload["confusion"][::-1]
    _fails(copy, "eval confusion", json.dumps(payload))


def test_moved_eval_prediction_fails(copy):
    payload = json.loads(copy[2])
    confusion = np.array(payload["confusion"])
    confusion[0, 0] -= 2
    confusion[0, 1] += 2
    payload["confusion"] = confusion.tolist()
    payload["accuracy"] = float(np.trace(confusion) / confusion.sum())
    _fails(copy, "eval", json.dumps(payload))


def test_shuffled_importance_csv_fails(copy):
    path = copy[0] / "importance.csv"
    lines = path.read_text().splitlines()
    body = lines[1:]
    np.random.default_rng(0).shuffle(body)
    path.write_text("\n".join([lines[0], *body]) + "\n")
    _fails(copy, "importance")


def test_perturbed_importance_score_fails(copy):
    path = copy[0] / "importance.csv"
    lines = path.read_text().splitlines()
    cells = lines[1].split(",")
    cells[3] = repr(float(cells[3]) * (1 + 1e-4))
    lines[1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    _fails(copy, "importance score")


def test_importance_missing_top_feature_fails(copy):
    path = copy[0] / "importance.csv"
    lines = path.read_text().splitlines()
    path.write_text("\n".join([lines[0], *lines[2:]]) + "\n")
    _fails(copy, "importance")


def test_non_finite_embedding_fails(copy):
    path = copy[0] / "embedding.csv"
    lines = path.read_text().splitlines()
    cells = lines[3].split(",")
    cells[2] = "nan"
    lines[3] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    _fails(copy, "non-finite")


def test_dropped_embedding_row_fails(copy):
    path = copy[0] / "embedding.csv"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    _fails(copy, "embedding row count")


def test_scrambled_map_fails_quality_floor(copy):
    path = copy[0] / "embedding.csv"
    lines = path.read_text().splitlines()
    rng = np.random.default_rng(1)
    body = []
    for line in lines[1:]:
        i, label, _, _ = line.split(",")
        x, y = (float(v) for v in rng.normal(size=2))
        body.append(f"{i},{label},{x!r},{y!r}")
    path.write_text("\n".join([lines[0], *body]) + "\n")
    _fails(copy, "map")


def test_changed_artifact_changes_digest(artifacts, copy):
    d, _, eval_stdout = artifacts
    assert run.artifact_digest(copy[0], eval_stdout) == run.artifact_digest(d, eval_stdout)
    svg = copy[0] / "embedding.svg"
    svg.write_text(svg.read_text().replace("white", "black"))
    assert run.artifact_digest(copy[0], eval_stdout) != run.artifact_digest(d, eval_stdout)


def test_child_process_checks_agree(artifacts, copy):
    d, corpora, eval_stdout = artifacts
    assert run.check_pass_apart(TINY, d, corpora, eval_stdout) == run.check_pass(TINY, d, corpora, eval_stdout)
    path = copy[0] / "importance.csv"
    lines = path.read_text().splitlines()
    path.write_text("\n".join([lines[0], *reversed(lines[1:])]) + "\n")
    with pytest.raises(checks.CheckFailed, match="importance"):
        run.check_pass_apart(TINY, copy[0], corpora, eval_stdout)
