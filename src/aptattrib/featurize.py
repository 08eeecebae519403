"""Raw-word featurization: tokenize reports, rank a dictionary, emit binary vectors.

Reports are treated as flat text. A token is a maximal run of [A-Za-z0-9_],
case-sensitive, so API names and hexadecimal values survive intact. The
dictionary keeps the top max_size tokens by document frequency after dropping
tokens that appear in every report; a report's feature vector has bit i set
iff the rank-i dictionary token occurs in it.
"""

from __future__ import annotations

import json
import os
import re
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import Corpus, CorpusError, LabeledReport, _parse_json

TOKEN_RE = re.compile(r"[A-Za-z0-9_]+")
MAX_TOKEN_LEN = 256  # bytes; alphabet is ASCII so chars == bytes
DEFAULT_VOCAB_SIZE = 50_000

MATRIX_MAGIC = b"APTV"
MATRIX_VERSION = 1


class FormatError(ValueError):
    """Malformed vocabulary or feature-matrix file."""


def tokenize(raw_text: str) -> list[str]:
    """Return maximal alphabet runs in order of appearance, duplicates kept."""
    return [t[:MAX_TOKEN_LEN] for t in TOKEN_RE.findall(raw_text)]


@dataclass(frozen=True)
class Vocabulary:
    """Rank-ordered (token, document frequency) entries built from a corpus.

    Checked when built, by build_vocabulary, load_vocabulary or a caller:
    distinct non-empty string tokens, integer counts, each frequency in
    [1, corpus_docs], and at most max_size >= 1 entries.
    """

    entries: tuple[tuple[str, int], ...]
    corpus_docs: int
    max_size: int

    def __post_init__(self):
        counts = (self.corpus_docs, self.max_size, *(df for _, df in self.entries))
        tokens = [t for t, _ in self.entries]
        if any(type(t) is not str for t in tokens) or any(type(c) is not int for c in counts):
            raise TypeError("tokens must be strings, and counts and sizes integers")
        if len(set(tokens)) != len(tokens):
            raise ValueError("vocabulary tokens must be distinct")
        if not all(tokens):
            raise ValueError("vocabulary tokens must be non-empty")
        if self.max_size < 1:
            raise ValueError(f"max_size must be >= 1, got {self.max_size}")
        if len(self.entries) > self.max_size:
            raise ValueError(f"{len(self.entries)} entries exceed max_size {self.max_size}")
        bad = [df for _, df in self.entries if not 1 <= df <= self.corpus_docs]
        if bad:
            raise ValueError(
                f"document frequency {bad[0]} outside [1, corpus_docs={self.corpus_docs}]"
            )

    def __len__(self) -> int:
        return len(self.entries)

    def tokens(self) -> list[str]:
        return [t for t, _ in self.entries]

    def index(self) -> dict[str, int]:
        return {t: i for i, (t, _) in enumerate(self.entries)}


def build_vocabulary(corpus: Corpus, max_size: int = DEFAULT_VOCAB_SIZE) -> Vocabulary:
    """Rank tokens by document frequency, dropping those present in all reports.

    Ties break by ascending token, so the ranking is a total order.
    """
    if len(corpus) == 0:
        raise CorpusError("cannot build a vocabulary from an empty corpus")
    doc_freq: dict[str, int] = {}
    for report in corpus.reports:
        for token in set(tokenize(report.raw_text)):
            doc_freq[token] = doc_freq.get(token, 0) + 1
    n_docs = len(corpus)
    kept = [(t, df) for t, df in doc_freq.items() if df < n_docs]
    kept.sort(key=lambda item: (-item[1], item[0]))
    return Vocabulary(entries=tuple(kept[:max_size]), corpus_docs=n_docs, max_size=max_size)


def _set_columns(report: LabeledReport, index: dict[str, int]) -> list[int]:
    return [index[t] for t in set(tokenize(report.raw_text)) if t in index]


def vectorize(report: LabeledReport, vocab: Vocabulary) -> np.ndarray:
    """Binary presence vector over the vocabulary, dtype uint8, length |vocab|."""
    bits = np.zeros(len(vocab), dtype=np.uint8)
    bits[_set_columns(report, vocab.index())] = 1
    return bits


def vectorize_corpus(
    corpus: Corpus, vocab: Vocabulary
) -> tuple[np.ndarray, list[str | None], list[str | None]]:
    """Vectorize every report; returns (matrix, nation labels, family labels) row-aligned."""
    index = vocab.index()
    rows = np.zeros((len(corpus), len(vocab)), dtype=np.uint8)
    for i, report in enumerate(corpus.reports):
        rows[i, _set_columns(report, index)] = 1
    nations = [r.nation for r in corpus.reports]
    families = [r.family for r in corpus.reports]
    return rows, nations, families


def encode_labels(labels: Sequence[str]) -> tuple[list[str], np.ndarray]:
    """Map label strings to class indices by sorted order; returns (classes, indices)."""
    classes = sorted(set(labels))
    lookup = {c: i for i, c in enumerate(classes)}
    return classes, np.array([lookup[label] for label in labels], dtype=np.int64)


def save_vocabulary(vocab: Vocabulary, path: str | Path) -> None:
    doc = {
        "version": 1,
        "corpus_docs": vocab.corpus_docs,
        "max_size": vocab.max_size,
        "entries": [[t, df] for t, df in vocab.entries],
    }
    Path(path).write_text(json.dumps(doc), encoding="utf-8")


def load_vocabulary(path: str | Path) -> Vocabulary:
    doc = _parse_json(Path(path).read_bytes(), FormatError, f"vocabulary file {path}")
    if not isinstance(doc, dict) or doc.get("version") != 1:
        raise FormatError(f"vocabulary file {path}: expected version 1")
    try:
        entries = tuple((t, df) for t, df in doc["entries"])
        return Vocabulary(entries, doc["corpus_docs"], doc["max_size"])
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"vocabulary file {path}: malformed entries ({exc})") from exc


def save_matrix(
    path: str | Path,
    rows: np.ndarray,
    nations: Sequence[str | None],
    families: Sequence[str | None],
) -> None:
    """Write the binary feature-matrix file; empty label strings mean unlabeled."""
    rows = np.ascontiguousarray(rows, dtype=np.uint8)
    if rows.ndim != 2:
        raise ValueError(f"matrix must be 2-D, got shape {rows.shape}")
    if rows.size and rows.max() > 1:
        raise ValueError("matrix cells must be 0 or 1")
    n, cols = rows.shape
    if len(nations) != n or len(families) != n:
        raise ValueError("label lists must align with matrix rows")
    with open(path, "wb") as fh:
        fh.write(MATRIX_MAGIC)
        fh.write(struct.pack("<III", MATRIX_VERSION, n, cols))
        fh.write(rows)
        for nation, family in zip(nations, families):
            for label in (nation, family):
                raw = (label or "").encode("utf-8")
                if len(raw) > 0xFFFF:
                    raise ValueError(f"label too long: {label!r}")
                fh.write(struct.pack("<H", len(raw)))
                fh.write(raw)


def _read_exact(fh, where: str, count: int, what: str) -> bytes:
    raw = fh.read(count)
    if len(raw) != count:
        raise FormatError(f"{where}: truncated {what}")
    return raw


def _read_array(fh, where: str, shape: tuple, dtype: str, what: str) -> np.ndarray:
    """Read exactly the bytes of one C-order array straight into a new array."""
    array = np.empty(shape, dtype=dtype)
    if fh.readinto(array) != array.nbytes:
        raise FormatError(f"{where}: truncated {what}")
    return array


def _read_header(fh, where: str, magic: bytes, version: int, fmt: str) -> tuple:
    """Check the magic, then the uint32 version; return the header fields after it."""
    got = fh.read(len(magic))
    if len(got) != len(magic):
        raise FormatError(f"{where}: truncated before magic")
    if got != magic:
        raise FormatError(f"{where}: bad magic {got!r}, expected {magic!r}")
    fmt = "<I" + fmt
    found, *fields = struct.unpack(fmt, _read_exact(fh, where, struct.calcsize(fmt), "header"))
    if found != version:
        raise FormatError(f"{where}: version {found}, expected {version}")
    return tuple(fields)


def _check_remaining(fh, where: str, need: int, what: str) -> None:
    """Fail before allocating when the header asks for more bytes than the file holds."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if need > left:
        raise FormatError(f"{where}: truncated: {what} need {need} bytes, but {left} remain")


def _check_end(fh, where: str) -> None:
    if fh.read(1):
        raise FormatError(f"{where}: trailing bytes after the data")


def load_matrix(path: str | Path) -> tuple[np.ndarray, list[str | None], list[str | None]]:
    where = f"feature-matrix file {path}"
    with open(path, "rb") as fh:
        n, cols = _read_header(fh, where, MATRIX_MAGIC, MATRIX_VERSION, "II")
        _check_remaining(fh, where, n * cols + 4 * n, f"{n}x{cols} cells and {n} label pairs")
        rows = _read_array(fh, where, (n, cols), "u1", "matrix body")
        if rows.size and rows.max() > 1:
            raise FormatError(f"{where}: cell values must be 0 or 1")
        labels: list[str | None] = []
        try:
            for _ in range(2 * n):
                (length,) = struct.unpack("<H", _read_exact(fh, where, 2, "labels"))
                labels.append(_read_exact(fh, where, length, "labels").decode("utf-8") or None)
        except UnicodeDecodeError as exc:
            raise FormatError(f"{where}: label is not UTF-8 ({exc})") from exc
        _check_end(fh, where)
    return rows, labels[0::2], labels[1::2]
