"""Output checks for the pipeline benchmark, computed apart from the program.

Nothing here imports aptattrib. The vocabulary and feature matrix are
recomputed from the report texts with an independent tokenizer and
document-frequency count, the model and matrix files are parsed by readers
written against the documented byte layouts, and the eval and importance
outputs are recomputed in float64 in a different association order than
the program uses. Each check raises CheckFailed with a short reason.
"""

from __future__ import annotations

import csv
import io
import json
import re
import struct
from collections import Counter
from dataclasses import dataclass

import numpy as np

TOKEN_RE = re.compile(r"[A-Za-z0-9_]+")
MAX_TOKEN_LEN = 256
# Rows of W0 converted to float64 at a time, so the checks never hold a
# float64 copy of a paper-scale input layer.
ROW_BLOCK = 2048


class CheckFailed(Exception):
    """An artifact disagrees with the independent computation."""


def expect(condition: bool, reason: str) -> None:
    if not condition:
        raise CheckFailed(reason)


def token_set(text: str) -> set[str]:
    return {tok[:MAX_TOKEN_LEN] for tok in TOKEN_RE.findall(text)}


# --- featurize -------------------------------------------------------------


def expected_vocabulary(texts: list[str], max_size: int) -> list[tuple[str, int]]:
    """Document frequency descending, then token ascending; drop tokens in every report."""
    df: Counter[str] = Counter()
    for text in texts:
        df.update(token_set(text))
    kept = sorted(((t, n) for t, n in df.items() if n < len(texts)), key=lambda e: (-e[1], e[0]))
    return kept[:max_size]


def check_vocabulary(raw: bytes, texts: list[str], max_size: int) -> list[str]:
    """Check vocab.json against an independent count; returns its tokens in rank order."""
    doc = json.loads(raw)
    entries = [(str(t), int(n)) for t, n in doc["entries"]]
    expect(doc["corpus_docs"] == len(texts), "vocabulary corpus_docs differs from report count")
    expect(doc["max_size"] == max_size, "vocabulary max_size differs from the requested cap")
    expect(
        entries == expected_vocabulary(texts, max_size),
        "vocabulary entries differ from the independent document-frequency ranking",
    )
    return [t for t, _ in entries]


@dataclass
class Matrix:
    rows: np.ndarray
    nations: list[str | None]
    families: list[str | None]


def read_matrix(raw: bytes) -> Matrix:
    """Parse an APTV v1 file: magic, <III version/rows/cols, cells, labels."""
    expect(raw[:4] == b"APTV", "matrix magic")
    version, n, cols = struct.unpack_from("<III", raw, 4)
    expect(version == 1, "matrix version")
    body_end = 16 + n * cols
    expect(len(raw) >= body_end, "matrix body truncated")
    rows = np.frombuffer(raw, dtype=np.uint8, count=n * cols, offset=16).reshape(n, cols)
    pos = body_end
    labels: list[str | None] = []
    for _ in range(2 * n):
        (length,) = struct.unpack_from("<H", raw, pos)
        labels.append(raw[pos + 2 : pos + 2 + length].decode("utf-8") or None)
        pos += 2 + length
    expect(pos == len(raw), "matrix has trailing bytes")
    return Matrix(rows=rows, nations=labels[0::2], families=labels[1::2])


def check_matrix(
    raw: bytes,
    texts: list[str],
    nations: list[str],
    families: list[str],
    tokens: list[str],
) -> Matrix:
    """Every row must equal independent presence bits; labels must follow the corpus."""
    matrix = read_matrix(raw)
    column = {t: i for i, t in enumerate(tokens)}
    expected = np.zeros((len(texts), len(tokens)), dtype=np.uint8)
    for i, text in enumerate(texts):
        expected[i, [column[t] for t in token_set(text) if t in column]] = 1
    expect(matrix.rows.shape == expected.shape, "matrix shape differs from reports x vocabulary")
    expect(np.array_equal(matrix.rows, expected), "matrix rows differ from independent presence bits")
    expect(matrix.nations == list(nations), "matrix nation labels differ from the corpus")
    expect(matrix.families == list(families), "matrix family labels differ from the corpus")
    return matrix


# --- network and transfer ---------------------------------------------------


@dataclass
class Model:
    sizes: tuple[int, ...]
    flags: tuple[int, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    data_start: int
    # File offset just past each layer's bias.
    layer_ends: list[int]


def read_model(raw: bytes) -> Model:
    """Parse an APTM v1 file: magic, <IH, sizes, flags, then per layer W and b as <f4."""
    expect(raw[:4] == b"APTM", "model magic")
    version, n_layers = struct.unpack_from("<IH", raw, 4)
    expect(version == 1 and n_layers >= 2, "model header")
    sizes = struct.unpack_from(f"<{n_layers}I", raw, 10)
    pos = 10 + 4 * n_layers
    flags = struct.unpack_from(f"<{n_layers - 1}B", raw, pos)
    pos += n_layers - 1
    data_start = pos
    weights, biases, layer_ends = [], [], []
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        expect(len(raw) >= pos + 4 * (fan_in * fan_out + fan_out), "model data truncated")
        weights.append(
            np.frombuffer(raw, dtype="<f4", count=fan_in * fan_out, offset=pos).reshape(fan_in, fan_out)
        )
        pos += 4 * fan_in * fan_out
        biases.append(np.frombuffer(raw, dtype="<f4", count=fan_out, offset=pos))
        pos += 4 * fan_out
        layer_ends.append(pos)
    expect(pos == len(raw), "model has trailing bytes")
    return Model(sizes, flags, weights, biases, data_start, layer_ends)


def check_trunk(family_raw: bytes, nation_raw: bytes) -> None:
    """The nation model's trunk bytes equal the family model's; only the head trains."""
    family = read_model(family_raw)
    nation = read_model(nation_raw)
    expect(family.sizes[:-1] == nation.sizes[:-1], "transfer changed the trunk layer sizes")
    trunk = slice(family.data_start, family.layer_ends[-2])
    expect(family_raw[trunk] == nation_raw[trunk], "nation trunk bytes differ from the family trunk")
    expect(
        nation.flags == (0,) * (len(nation.flags) - 1) + (1,),
        "nation model trainable flags are not frozen-trunk, trainable-head",
    )


def first_layer64(x: np.ndarray, w0: np.ndarray) -> np.ndarray:
    """x @ w0 in float64, converting w0 one row block at a time."""
    out = np.zeros((x.shape[0], w0.shape[1]))
    for lo in range(0, w0.shape[0], ROW_BLOCK):
        out += x[:, lo : lo + ROW_BLOCK].astype(np.float64) @ w0[lo : lo + ROW_BLOCK].astype(np.float64)
    return out


def logits64(model: Model, x: np.ndarray) -> np.ndarray:
    """Infer-mode forward pass in float64; softmax is monotone so logits suffice."""
    a = first_layer64(x, model.weights[0]) + model.biases[0]
    for w, b in zip(model.weights[1:], model.biases[1:]):
        a = np.maximum(a, 0.0) @ w.astype(np.float64) + b
    return a


def check_eval(
    stdout_text: str, model_raw: bytes, matrix: Matrix, near_tie: float = 1e-4
) -> float:
    """Eval JSON must match an independent float64 forward pass; returns the reference accuracy.

    A row whose two largest logits lie within near_tie (relative to the
    logit scale) may be predicted either way by the float32 program, so each
    such row lets the confusion differ by one move and the accuracy by 1/n.
    """
    payload = json.loads(stdout_text)
    model = read_model(model_raw)
    classes = sorted(set(matrix.nations))
    y = np.array([classes.index(label) for label in matrix.nations])
    n = len(y)
    expect(payload["task"] == "nation", "eval task is not nation")
    expect(payload["samples"] == n, "eval sample count differs from the held-out rows")
    expect(payload["labels"] == classes, "eval labels differ from the sorted held-out nations")
    confusion = np.asarray(payload["confusion"], dtype=np.int64)
    expect(confusion.shape == (len(classes), len(classes)), "eval confusion shape")
    expect(int(confusion.sum()) == n, "eval confusion does not sum to the held-out row count")
    expect(
        np.array_equal(confusion.sum(axis=1), np.bincount(y, minlength=len(classes))),
        "eval confusion rows do not match the true label counts",
    )
    logits = logits64(model, matrix.rows)
    top2 = np.sort(logits, axis=1)[:, -2:]
    ties = int((top2[:, 1] - top2[:, 0] <= near_tie * (1.0 + np.abs(top2).max(axis=1))).sum())
    preds = logits.argmax(axis=1)
    reference = np.zeros_like(confusion)
    np.add.at(reference, (y, preds), 1)
    expect(
        int(np.abs(confusion - reference).sum()) <= 2 * ties,
        f"eval confusion differs from the float64 reference beyond {ties} near-tie row(s)",
    )
    accuracy = float((preds == y).mean())
    expect(
        abs(payload["accuracy"] - accuracy) <= ties / n + 1e-12,
        "eval accuracy differs from the float64 reference",
    )
    expect(
        abs(payload["accuracy"] - np.trace(confusion) / n) <= 1e-12,
        "eval accuracy disagrees with its own confusion matrix",
    )
    return accuracy


# --- interpret ----------------------------------------------------------------


def reference_contributions(model: Model) -> np.ndarray:
    """W0 @ (W1 @ (... @ WL)) in float64, associated right to left."""
    tail = model.weights[-1].astype(np.float64)
    for w in reversed(model.weights[1:-1]):
        tail = w.astype(np.float64) @ tail
    return np.vstack(
        [
            model.weights[0][lo : lo + ROW_BLOCK].astype(np.float64) @ tail
            for lo in range(0, model.weights[0].shape[0], ROW_BLOCK)
        ]
    )


def check_importance(
    csv_text: str, model_raw: bytes, tokens: list[str], top: int, rtol: float = 1e-6
) -> None:
    """Importance CSV rows must be the top max_c |W0..WL| scores, ranked, with their tokens."""
    model = read_model(model_raw)
    contrib = reference_contributions(model)
    scores = np.abs(contrib).max(axis=1)
    atol = rtol * float(scores.max())
    n_classes = contrib.shape[1]
    rows = list(csv.reader(io.StringIO(csv_text)))
    header = ["rank", "feature_index", "token", "score"] + [
        f"contrib_class_{c}" for c in range(n_classes)
    ]
    expect(rows[0] == header, "importance CSV header")
    body = rows[1:]
    expect(len(body) == min(top, len(tokens)), "importance CSV row count")
    listed = []
    previous = np.inf
    for rank, row in enumerate(body):
        idx = int(row[1])
        score = float(row[3])
        expect(int(row[0]) == rank, f"importance rank column at row {rank}")
        expect(0 <= idx < len(tokens) and row[2] == tokens[idx], f"importance token at rank {rank}")
        expect(
            abs(score - scores[idx]) <= atol + rtol * scores[idx],
            f"importance score at rank {rank} differs from the float64 reference",
        )
        expect(
            np.allclose([float(v) for v in row[4:]], contrib[idx], rtol=rtol, atol=atol),
            f"importance contributions at rank {rank} differ from the float64 reference",
        )
        expect(score <= previous, f"importance scores increase at rank {rank}")
        previous = score
        listed.append(idx)
    expect(len(set(listed)) == len(listed), "importance lists a feature twice")
    unlisted = np.ones(len(tokens), dtype=bool)
    unlisted[listed] = False
    if unlisted.any() and listed:
        expect(
            scores[unlisted].max() <= scores[listed].min() + 2 * atol,
            "importance omits a feature that outscores a listed one",
        )


@dataclass
class Map:
    points: np.ndarray
    labels: list[str]


def check_embedding(csv_text: str, nations: list[str]) -> Map:
    """One finite row per held-out report, in order, carrying its nation label."""
    rows = list(csv.reader(io.StringIO(csv_text)))
    expect(rows[0] == ["id", "label", "x", "y"], "embedding CSV header")
    body = rows[1:]
    expect(len(body) == len(nations), "embedding row count differs from the held-out reports")
    expect([int(r[0]) for r in body] == list(range(len(body))), "embedding ids out of order")
    expect([r[1] for r in body] == list(nations), "embedding labels differ from the held-out nations")
    points = np.array([[float(r[2]), float(r[3])] for r in body])
    expect(bool(np.isfinite(points).all()), "embedding has non-finite coordinates")
    return Map(points=points, labels=[r[1] for r in body])


def map_quality(emb: Map, k: int) -> tuple[float, float, float]:
    """(mean intra-nation distance, mean inter-nation distance, k-NN nation agreement)."""
    p = emb.points
    sq = (p * p).sum(axis=1)
    dist = np.sqrt(np.maximum(sq[:, None] + sq[None, :] - 2.0 * (p @ p.T), 0.0))
    labels = np.array(emb.labels)
    same = labels[:, None] == labels[None, :]
    off_diag = ~np.eye(len(p), dtype=bool)
    np.fill_diagonal(dist, np.inf)
    neighbours = np.argpartition(dist, k, axis=1)[:, :k]
    agreement = float((labels[neighbours] == labels[:, None]).mean())
    np.fill_diagonal(dist, 0.0)
    return float(dist[same & off_diag].mean()), float(dist[~same].mean()), agreement
