import json
import re
import string

import numpy as np
import pytest

from aptattrib.corpus import Corpus, CorpusError, LabeledReport
from aptattrib.featurize import (
    DEFAULT_VOCAB_SIZE,
    FormatError,
    Vocabulary,
    build_vocabulary,
    encode_labels,
    load_matrix,
    load_vocabulary,
    save_matrix,
    save_vocabulary,
    tokenize,
    vectorize,
    vectorize_corpus,
)


def _corpus(*texts, nations=None, families=None):
    nations = nations or [None] * len(texts)
    families = families or [None] * len(texts)
    return Corpus(
        [
            LabeledReport(id=f"r{i}", raw_text=t, nation=n, family=f)
            for i, (t, n, f) in enumerate(zip(texts, nations, families))
        ]
    )


# --- tokenize ---


def test_tokenize_splits_on_non_alphabet():
    assert tokenize("api: CreateFileW") == ["api", "CreateFileW"]


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_keeps_duplicates_and_hex():
    assert tokenize("0x401000,0x401000") == ["0x401000", "0x401000"]


def test_tokenize_case_sensitive():
    assert tokenize("Foo foo FOO") == ["Foo", "foo", "FOO"]


def test_tokenize_underscore_is_part_of_token():
    assert tokenize("a_b-c") == ["a_b", "c"]


def test_tokenize_truncates_long_runs():
    long = "a" * 300
    assert tokenize(long) == ["a" * 256]


def test_tokenize_concat_property():
    rng = np.random.default_rng(0)
    alphabet = string.ascii_letters + string.digits + "_"
    for _ in range(50):
        a = "".join(rng.choice(list(alphabet + " .,;")) for _ in range(30))
        b = "".join(rng.choice(list(alphabet + " .,;")) for _ in range(30))
        assert tokenize(a + "|" + b) == tokenize(a) + tokenize(b)


# --- build_vocabulary ---


def test_vocab_excludes_ubiquitous_and_sorts():
    c = _corpus("a b", "a c", "a c")
    v = build_vocabulary(c, max_size=2)
    assert v.entries == (("c", 2), ("b", 1))


def test_vocab_single_report_is_empty():
    v = build_vocabulary(_corpus("alpha beta gamma"))
    assert len(v) == 0


def test_vocab_default_cap():
    assert DEFAULT_VOCAB_SIZE == 50_000
    v = build_vocabulary(_corpus("a b", "b c"))
    assert v.max_size == 50_000


def test_vocab_tie_break_is_token_ascending():
    c = _corpus("b a", "c d")
    v = build_vocabulary(c)
    assert v.tokens() == ["a", "b", "c", "d"]


def test_vocab_truncates_to_max_size():
    c = _corpus("a b c d e", "f")
    v = build_vocabulary(c, max_size=3)
    assert len(v) == 3


def test_vocab_empty_corpus_errors():
    with pytest.raises(CorpusError):
        build_vocabulary(Corpus([]))


def test_vocab_max_size_must_be_positive():
    with pytest.raises(ValueError):
        build_vocabulary(_corpus("a", "b"), max_size=0)


def _oracle_vocab(texts, max_size):
    doc_sets = [set(t[:256] for t in re.findall(r"[A-Za-z0-9_]+", text)) for text in texts]
    df = {}
    for s in doc_sets:
        for tok in s:
            df[tok] = df.get(tok, 0) + 1
    entries = [(t, n) for t, n in df.items() if n < len(doc_sets)]
    entries.sort(key=lambda e: (-e[1], e[0]))
    return entries[:max_size]


def _oracle_vector(text, vocab_tokens):
    present = set(re.findall(r"[A-Za-z0-9_]+", text))
    present = {t[:256] for t in present}
    return [1 if tok in present else 0 for tok in vocab_tokens]


def test_vocab_and_vectorize_match_oracle_on_random_corpora():
    rng = np.random.default_rng(2024)
    pool = [f"tok{i}" for i in range(20)]
    for _ in range(100):
        n_docs = int(rng.integers(1, 11))
        texts = [
            " ".join(rng.choice(pool, size=rng.integers(0, 30)).tolist())
            for _ in range(n_docs)
        ]
        max_size = int(rng.integers(1, 25))
        corpus = _corpus(*texts)
        v = build_vocabulary(corpus, max_size=max_size)
        assert list(v.entries) == _oracle_vocab(texts, max_size)
        for report in corpus.reports:
            got = vectorize(report, v)
            assert got.tolist() == _oracle_vector(report.raw_text, v.tokens())


# --- vectorize ---


def test_vectorize_membership_bits():
    v = Vocabulary(entries=(("c", 2), ("b", 1)), corpus_docs=3, max_size=10)
    r = LabeledReport(id="x", raw_text="b x")
    assert vectorize(r, v).tolist() == [0, 1]


def test_vectorize_empty_text_is_zero_vector():
    v = Vocabulary(entries=(("a", 1), ("b", 1)), corpus_docs=2, max_size=10)
    assert vectorize(LabeledReport(id="x", raw_text=""), v).tolist() == [0, 0]


def test_vectorize_full_coverage_is_ones():
    v = Vocabulary(entries=(("a", 1), ("b", 1)), corpus_docs=2, max_size=10)
    assert vectorize(LabeledReport(id="x", raw_text="b a b"), v).tolist() == [1, 1]


def test_vectorize_dtype_and_purity():
    v = Vocabulary(entries=(("a", 1),), corpus_docs=2, max_size=10)
    r = LabeledReport(id="x", raw_text="a")
    first = vectorize(r, v)
    assert first.dtype == np.uint8
    assert np.array_equal(first, vectorize(r, v))


def test_vectorize_corpus_rows_align_with_labels():
    c = _corpus("a b", "b", nations=["n0", "n1"], families=[None, "f1"])
    v = build_vocabulary(c)
    rows, nations, families = vectorize_corpus(c, v)
    assert rows.shape == (2, len(v))
    assert nations == ["n0", "n1"]
    assert families == [None, "f1"]
    for i, report in enumerate(c.reports):
        assert np.array_equal(rows[i], vectorize(report, v))


def test_vectorize_corpus_empty_vocab():
    c = _corpus("a", "a")
    v = build_vocabulary(c)
    rows, _, _ = vectorize_corpus(c, v)
    assert rows.shape == (2, 0)


# --- encode_labels ---


def test_encode_labels_sorted_classes():
    classes, idx = encode_labels(["b", "a", "b", "c"])
    assert classes == ["a", "b", "c"]
    assert idx.tolist() == [1, 0, 1, 2]


# --- vocabulary file format ---


def test_vocabulary_round_trip(tmp_path):
    c = _corpus("a b c", "c d", "d e")
    v = build_vocabulary(c, max_size=4)
    path = tmp_path / "vocab.json"
    save_vocabulary(v, path)
    back = load_vocabulary(path)
    assert back.entries == v.entries
    assert back.corpus_docs == v.corpus_docs
    assert back.max_size == v.max_size


def test_vocabulary_file_schema(tmp_path):
    v = build_vocabulary(_corpus("a b", "b c"), max_size=9)
    path = tmp_path / "vocab.json"
    save_vocabulary(v, path)
    data = json.loads(path.read_text())
    assert data["version"] == 1
    assert data["corpus_docs"] == 2
    assert data["max_size"] == 9
    assert all(isinstance(t, str) and isinstance(n, int) for t, n in data["entries"])


def test_vocabulary_rejects_wrong_version(tmp_path):
    path = tmp_path / "vocab.json"
    path.write_text('{"version": 9, "corpus_docs": 1, "max_size": 5, "entries": []}')
    with pytest.raises(FormatError, match="version"):
        load_vocabulary(path)


def test_vocabulary_rejects_repeated_tokens(tmp_path):
    path = tmp_path / "vocab.json"
    doc = {"version": 1, "corpus_docs": 3, "max_size": 5, "entries": [["a", 2], ["a", 1]]}
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError, match="distinct"):
        load_vocabulary(path)


def test_vocabulary_rejects_malformed_json(tmp_path):
    path = tmp_path / "vocab.json"
    path.write_text("{not json")
    with pytest.raises(FormatError):
        load_vocabulary(path)


def test_vocabulary_rejects_missing_fields(tmp_path):
    path = tmp_path / "vocab.json"
    path.write_text('{"version": 1}')
    with pytest.raises(FormatError):
        load_vocabulary(path)


@pytest.mark.parametrize(
    "entries, corpus_docs, max_size, message",
    [
        ((("", 1),), 3, 5, "non-empty"),
        ((("a", 0),), 3, 5, "document frequency 0"),
        ((("a", 4),), 3, 5, "document frequency 4"),
        ((("a", 1),), 3, 0, "max_size must be >= 1"),
        ((("a", 1), ("b", 1)), 3, 1, "2 entries exceed max_size 1"),
    ],
)
def test_vocabulary_checks_itself_when_built(entries, corpus_docs, max_size, message):
    with pytest.raises(ValueError, match=message):
        Vocabulary(entries, corpus_docs, max_size)


@pytest.mark.parametrize(
    "entries, corpus_docs, max_size",
    [((("a", 1.0),), 3, 5), (((1, 1),), 3, 5), ((("a", 1),), True, 5), ((("a", 1),), 3, "5")],
)
def test_vocabulary_type_checks_library_built_values(entries, corpus_docs, max_size):
    with pytest.raises(TypeError, match="integers"):
        Vocabulary(entries, corpus_docs, max_size)


# --- matrix file format ---


def _sample_matrix():
    rows = np.array([[1, 0, 1], [0, 0, 0], [1, 1, 1]], dtype=np.uint8)
    nations = ["n0", None, "n1"]
    families = ["f0", "f1", None]
    return rows, nations, families


def test_matrix_round_trip(tmp_path):
    rows, nations, families = _sample_matrix()
    path = tmp_path / "m.bin"
    save_matrix(path, rows, nations, families)
    back_rows, back_nations, back_families = load_matrix(path)
    assert np.array_equal(back_rows, rows)
    assert back_rows.dtype == np.uint8
    assert back_nations == nations
    assert back_families == families


def test_matrix_save_is_deterministic(tmp_path):
    rows, nations, families = _sample_matrix()
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_matrix(p1, rows, nations, families)
    save_matrix(p2, rows, nations, families)
    assert p1.read_bytes() == p2.read_bytes()


def test_matrix_header_layout(tmp_path):
    rows, nations, families = _sample_matrix()
    path = tmp_path / "m.bin"
    save_matrix(path, rows, nations, families)
    raw = path.read_bytes()
    assert raw[:4] == b"APTV"
    assert int.from_bytes(raw[4:8], "little") == 1
    assert int.from_bytes(raw[8:12], "little") == 3
    assert int.from_bytes(raw[12:16], "little") == 3


def test_matrix_rejects_bad_magic(tmp_path):
    path = tmp_path / "m.bin"
    rows, nations, families = _sample_matrix()
    save_matrix(path, rows, nations, families)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"XXXX"
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="APTV"):
        load_matrix(path)


def test_matrix_rejects_truncation(tmp_path):
    path = tmp_path / "m.bin"
    rows, nations, families = _sample_matrix()
    save_matrix(path, rows, nations, families)
    raw = path.read_bytes()
    for cut in (2, 10, len(raw) - 1):
        path.write_bytes(raw[:cut])
        with pytest.raises(FormatError, match="truncated"):
            load_matrix(path)


def test_matrix_rejects_wrong_version(tmp_path):
    path = tmp_path / "m.bin"
    rows, nations, families = _sample_matrix()
    save_matrix(path, rows, nations, families)
    raw = bytearray(path.read_bytes())
    raw[4] = 9
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="version"):
        load_matrix(path)


def test_matrix_rejects_trailing_bytes(tmp_path):
    path = tmp_path / "m.bin"
    rows, nations, families = _sample_matrix()
    save_matrix(path, rows, nations, families)
    path.write_bytes(path.read_bytes() + b"garbage")
    with pytest.raises(FormatError, match="trailing"):
        load_matrix(path)


def test_matrix_rejects_non_binary_cell(tmp_path):
    path = tmp_path / "m.bin"
    rows, nations, families = _sample_matrix()
    save_matrix(path, rows, nations, families)
    raw = bytearray(path.read_bytes())
    raw[16] = 7
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="0 or 1"):
        load_matrix(path)


def test_matrix_rejects_non_binary_input(tmp_path):
    rows = np.array([[2]], dtype=np.uint8)
    with pytest.raises(ValueError):
        save_matrix(tmp_path / "m.bin", rows, [None], [None])


def test_matrix_label_alignment_checked(tmp_path):
    rows = np.zeros((2, 1), dtype=np.uint8)
    with pytest.raises(ValueError):
        save_matrix(tmp_path / "m.bin", rows, ["a"], [None, None])


def test_matrix_unicode_labels(tmp_path):
    rows = np.array([[1]], dtype=np.uint8)
    path = tmp_path / "m.bin"
    save_matrix(path, rows, ["nation_é"], ["fam_中"])
    _, nations, families = load_matrix(path)
    assert nations == ["nation_é"]
    assert families == ["fam_中"]
