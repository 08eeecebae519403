import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aptattrib.corpus import (
    Corpus,
    CorpusError,
    LabeledReport,
    SynthSpec,
    export_corpus,
    family_disjoint_split,
    generate_synthetic_corpus,
    load_corpus,
)
from aptattrib.interpret import TsneConfig
from aptattrib.network import TrainConfig


def _report(rid, text="alpha beta", nation=None, family=None):
    return LabeledReport(id=rid, raw_text=text, nation=nation, family=family)


def _ids(corpus):
    return [r.id for r in corpus.reports]


def test_corpus_rejects_duplicate_ids():
    with pytest.raises(CorpusError, match="duplicate"):
        Corpus([_report("a"), _report("a")])


def test_corpus_allows_zero_reports():
    c = Corpus([])
    assert len(c) == 0
    assert c.families == frozenset()


def test_corpus_rejects_empty_id():
    with pytest.raises(CorpusError, match="empty id"):
        Corpus([_report("")])


def test_corpus_collects_label_sets():
    c = Corpus(
        [
            _report("a", nation="n0", family="f0"),
            _report("b", nation="n1", family="f0"),
            _report("c"),
        ]
    )
    assert c.families == frozenset({"f0"})
    assert len(c) == 3
    assert _ids(c) == ["a", "b", "c"]


_COUNT_FIELDS = (
    "nations",
    "families_per_nation",
    "reports_per_family",
    "nation_sig_size",
    "family_sig_size",
    "noise_pool_size",
    "tokens_per_report",
)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"nations": -1},
        {"p_nation": 1.5},
        {"p_family": -0.1},
        {"seed": -1},
        {"tokens_per_report": -5},
        *({name: -1} for name in _COUNT_FIELDS[1:-1]),
    ],
)
def test_synth_spec_validation(kwargs):
    (name,) = kwargs
    match = f"{name} must be >= 0" if name in _COUNT_FIELDS else name
    with pytest.raises(ValueError, match=match):
        SynthSpec(**kwargs)


def test_synth_spec_checks_itself_when_built():
    with pytest.raises(CorpusError, match="p_nation"):
        SynthSpec(p_nation=1.5)


def test_synth_spec_bounds_the_noise_pool_at_2_63():
    assert SynthSpec(noise_pool_size=2**63).noise_pool_size == 2**63
    with pytest.raises(CorpusError, match=r"^noise_pool_size must be <= 2\*\*63, got 9223372036854775809$"):
        SynthSpec(noise_pool_size=2**63 + 1)


@pytest.mark.parametrize("cls", [SynthSpec, TrainConfig, TsneConfig])
def test_every_config_seed_follows_the_one_seed_rule(cls):
    for seed in (0, 2**64 - 1, np.uint64(2**64 - 1), np.int8(3)):
        assert cls(seed=seed).seed == seed
    for seed in (-1, 2**64, np.int64(-1)):
        message = f"seed must be an unsigned 64-bit integer, got {seed!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cls(seed=seed)


def _scalar_reference(spec: SynthSpec) -> Corpus:
    """The generator as one scalar draw per token: the oracle for the array draws."""
    rng = np.random.default_rng(spec.seed)
    reports: list[LabeledReport] = []
    for n in range(spec.nations):
        nation_sig = [f"nsig_{n}_{k}" for k in range(spec.nation_sig_size)]
        for f in range(spec.families_per_nation):
            family_sig = [f"fsig_{n}_{f}_{k}" for k in range(spec.family_sig_size)]
            for r in range(spec.reports_per_family):
                tokens = [t for t in nation_sig if rng.random() < spec.p_nation]
                tokens += [t for t in family_sig if rng.random() < spec.p_family]
                if spec.noise_pool_size > 0:
                    missing = spec.tokens_per_report - len(tokens)
                    for _ in range(max(0, missing)):
                        tokens.append(f"noise_{rng.integers(spec.noise_pool_size)}")
                reports.append(
                    LabeledReport(
                        id=f"report_{n}_{f}_{r}",
                        raw_text=" ".join(tokens),
                        nation=f"nation_{n}",
                        family=f"family_{n}_{f}",
                    )
                )
    return Corpus(reports)


_WORKLOAD_SPECS = {  # the benchmark workloads' synth settings
    "desk-pipeline": dict(nations=2, families_per_nation=3, reports_per_family=300),
    "paper-train": dict(
        nations=2,
        families_per_nation=3,
        reports_per_family=160,
        noise_pool_size=40000,
        tokens_per_report=360,
    ),
    "embed-large": dict(nations=2, families_per_nation=3, reports_per_family=600),
}
_SMALL = dict(reports_per_family=20)


@pytest.mark.parametrize(
    "spec",
    [
        *(
            pytest.param(SynthSpec(**w, seed=s), id=f"{name}-seed{s}")
            for name, w in _WORKLOAD_SPECS.items()
            for s in (0, 1, 2**64 - 1)
        ),
        pytest.param(SynthSpec(), id="default"),
        pytest.param(SynthSpec(noise_pool_size=0, **_SMALL), id="pool0"),
        pytest.param(SynthSpec(nation_sig_size=0, family_sig_size=0, **_SMALL), id="sig0"),
        # The signatures fill ten tokens, so no noise is drawn.
        pytest.param(SynthSpec(tokens_per_report=10, **_SMALL), id="tokens10"),
        *(
            pytest.param(SynthSpec(noise_pool_size=p, **_SMALL), id=f"pool{p}")
            for p in (1, 2**31 + 3, 2**32, 2**32 + 5, 2**63)
        ),
    ],
)
def test_synth_corpus_equals_the_scalar_reference(spec):
    # LabeledReport equality compares id, raw_text, nation and family.
    assert generate_synthetic_corpus(spec).reports == _scalar_reference(spec).reports


_SIZE = st.integers(0, 5)
_PROBABILITY = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))


@settings(max_examples=60, deadline=None)
@given(
    st.builds(
        SynthSpec,
        nations=_SIZE,
        families_per_nation=_SIZE,
        reports_per_family=_SIZE,
        nation_sig_size=_SIZE,
        family_sig_size=_SIZE,
        noise_pool_size=st.sampled_from([0, 1, 2, 2**32 + 5, 2**63]),
        tokens_per_report=st.integers(0, 60),
        p_nation=_PROBABILITY,
        p_family=_PROBABILITY,
        seed=st.integers(0, 2**64 - 1),
    )
)
def test_random_specs_equal_the_scalar_reference(spec):
    assert generate_synthetic_corpus(spec).reports == _scalar_reference(spec).reports


def test_synth_corpus_shape_and_labels():
    spec = SynthSpec(nations=2, families_per_nation=3, reports_per_family=4, seed=9)
    c = generate_synthetic_corpus(spec)
    assert len(c) == 2 * 3 * 4
    assert {r.nation for r in c.reports} == {"nation_0", "nation_1"}
    assert c.families == frozenset(
        {"family_0_0", "family_0_1", "family_0_2", "family_1_0", "family_1_1", "family_1_2"}
    )
    for r in c.reports:
        n, f, _ = r.id.split("_")[1:]
        assert r.nation == f"nation_{n}"
        assert r.family == f"family_{n}_{f}"


def test_synth_corpus_deterministic():
    spec = SynthSpec(reports_per_family=10, seed=42)
    texts1 = [r.raw_text for r in generate_synthetic_corpus(spec).reports]
    texts2 = [r.raw_text for r in generate_synthetic_corpus(spec).reports]
    assert texts1 == texts2
    other = [
        r.raw_text
        for r in generate_synthetic_corpus(SynthSpec(reports_per_family=10, seed=43)).reports
    ]
    assert texts1 != other


def test_synth_corpus_noise_fills_to_length():
    spec = SynthSpec(
        nations=1,
        families_per_nation=1,
        reports_per_family=50,
        nation_sig_size=3,
        family_sig_size=3,
        tokens_per_report=40,
        seed=1,
    )
    for r in generate_synthetic_corpus(spec).reports:
        tokens = r.raw_text.split()
        assert len(tokens) == 40
        assert any(t.startswith("noise_") for t in tokens)


def test_synth_corpus_without_noise_pool():
    spec = SynthSpec(
        nations=1,
        families_per_nation=1,
        reports_per_family=20,
        noise_pool_size=0,
        tokens_per_report=100,
        seed=2,
    )
    for r in generate_synthetic_corpus(spec).reports:
        assert all(t.startswith(("nsig_", "fsig_")) for t in r.raw_text.split())


def test_synth_corpus_signature_tokens_reflect_probabilities():
    spec = SynthSpec(
        nations=1,
        families_per_nation=1,
        reports_per_family=2000,
        nation_sig_size=10,
        family_sig_size=10,
        noise_pool_size=0,
        p_nation=0.6,
        p_family=0.3,
        seed=7,
    )
    c = generate_synthetic_corpus(spec)
    n_hits = sum(sum(1 for t in r.raw_text.split() if t.startswith("nsig_")) for r in c.reports)
    f_hits = sum(sum(1 for t in r.raw_text.split() if t.startswith("fsig_")) for r in c.reports)
    assert abs(n_hits / (2000 * 10) - 0.6) < 0.02
    assert abs(f_hits / (2000 * 10) - 0.3) < 0.02


def test_export_and_load_round_trip(tmp_path):
    spec = SynthSpec(nations=2, families_per_nation=2, reports_per_family=3, seed=5)
    c = generate_synthetic_corpus(spec)
    manifest = export_corpus(c, tmp_path / "corpus")
    loaded = load_corpus(manifest)
    assert _ids(loaded) == _ids(c)
    for orig, back in zip(c.reports, loaded.reports):
        assert back.raw_text == orig.raw_text
        assert back.nation == orig.nation
        assert back.family == orig.family


def test_export_is_deterministic(tmp_path):
    c = generate_synthetic_corpus(SynthSpec(reports_per_family=3, seed=5))
    m1 = export_corpus(c, tmp_path / "one")
    m2 = export_corpus(c, tmp_path / "two")
    assert m1.read_bytes() == m2.read_bytes()


def test_load_corpus_empty_manifest(tmp_path):
    path = tmp_path / "manifest.jsonl"
    path.write_text("")
    c = load_corpus(path)
    assert len(c) == 0


def test_family_disjoint_split_empty_test_families():
    c = _labeled_corpus()
    split = family_disjoint_split(c, set(), val_per_family=0)
    assert len(split.test) == 0
    assert len(split.validation) == 0
    assert _ids(split.train) == _ids(c)


def test_load_corpus_missing_manifest(tmp_path):
    with pytest.raises(CorpusError, match="not found"):
        load_corpus(tmp_path / "nope.jsonl")


def test_load_corpus_bad_json_line(tmp_path):
    path = tmp_path / "manifest.jsonl"
    path.write_text('{"id": "a", "path": "a.txt"}\nnot json\n')
    (tmp_path / "a.txt").write_text("x")
    with pytest.raises(CorpusError, match="line 2"):
        load_corpus(path)


@pytest.mark.parametrize(
    "line, problem",
    [(b'{"id": "a\xff", "path": "a.txt"}', "can't decode"), (b"[" * 5000, "recursion")],
    ids=["not-utf8", "deep"],
)
def test_load_corpus_names_the_file_and_line_of_unreadable_json(tmp_path, line, problem):
    (tmp_path / "a.txt").write_text("x")
    path = tmp_path / "manifest.jsonl"
    path.write_bytes(b'{"id": "ok", "path": "a.txt"}\r\n' + line + b"\n")
    with pytest.raises(CorpusError, match=problem) as info:
        load_corpus(path)
    assert str(info.value).startswith(f"manifest {path} line 2: invalid JSON")


def test_load_corpus_missing_report_file(tmp_path):
    path = tmp_path / "manifest.jsonl"
    path.write_text('{"id": "a", "path": "gone.txt"}\n')
    with pytest.raises(CorpusError, match="gone.txt"):
        load_corpus(path)


def test_load_corpus_requires_id_and_path(tmp_path):
    path = tmp_path / "manifest.jsonl"
    path.write_text('{"id": "a"}\n')
    with pytest.raises(CorpusError, match="line 1"):
        load_corpus(path)


@pytest.mark.parametrize(
    "fields, key",
    [
        ({"id": "a", "path": 5}, "path"),
        ({"id": "a", "path": ""}, "path"),
        ({"id": 7, "path": "a.txt"}, "id"),
        ({"id": "", "path": "a.txt"}, "id"),
        ({"id": "a", "path": "a.txt", "nation": ["x"]}, "nation"),
        ({"id": "a", "path": "a.txt", "family": 3}, "family"),
    ],
)
def test_load_corpus_type_checks_manifest_fields(tmp_path, fields, key):
    (tmp_path / "a.txt").write_text("x")
    path = tmp_path / "manifest.jsonl"
    path.write_text('{"id": "ok", "path": "a.txt"}\n' + json.dumps(fields) + "\n")
    with pytest.raises(CorpusError, match=f"line 2: {key} must be"):
        load_corpus(path)


@pytest.mark.parametrize("report_path", ["../secret.txt", "sub/../../secret.txt", "/abs.txt"])
def test_load_corpus_keeps_report_paths_inside_the_manifest_directory(tmp_path, report_path):
    (tmp_path / "secret.txt").write_text("secret")
    (tmp_path / "corpus").mkdir()
    path = tmp_path / "corpus" / "manifest.jsonl"
    path.write_text(json.dumps({"id": "a", "path": report_path}) + "\n")
    with pytest.raises(CorpusError, match="line 1: path .* leaves the manifest's directory"):
        load_corpus(path)


def _manifest_with_links(tmp_path):
    """A corpus directory holding a plain report, a link to it, and links that lead out."""
    (tmp_path / "outside.txt").write_text("outside")
    (tmp_path / "shared").mkdir()
    (tmp_path / "shared" / "r.txt").write_text("shared")
    corpus = tmp_path / "corpus"
    (corpus / "reports").mkdir(parents=True)
    (corpus / "reports" / "inside.txt").write_text("inside text")
    (corpus / "link_in.txt").symlink_to(Path("reports") / "inside.txt")
    (corpus / "link_out.txt").symlink_to(Path("..") / "outside.txt")
    (corpus / "dir_out").symlink_to(tmp_path / "shared", target_is_directory=True)
    return corpus


@pytest.mark.parametrize("report_path", ["link_out.txt", "dir_out/r.txt"])
def test_load_corpus_rejects_a_symlink_that_leads_out(tmp_path, report_path):
    corpus = _manifest_with_links(tmp_path)
    path = corpus / "manifest.jsonl"
    path.write_text(json.dumps({"id": "a", "path": report_path}) + "\n")
    with pytest.raises(CorpusError, match="line 1: path .* resolves outside the manifest's directory"):
        load_corpus(path)


def test_load_corpus_follows_a_symlink_that_stays_inside(tmp_path):
    corpus = _manifest_with_links(tmp_path)
    lines = [{"id": "a", "path": "link_in.txt"}, {"id": "b", "path": "reports/inside.txt"}]
    (corpus / "manifest.jsonl").write_text("".join(json.dumps(e) + "\n" for e in lines))
    # a manifest reached through a linked directory is judged by where it resolves
    (tmp_path / "alias").symlink_to(corpus, target_is_directory=True)
    for manifest in (corpus / "manifest.jsonl", tmp_path / "alias" / "manifest.jsonl"):
        assert [r.raw_text for r in load_corpus(manifest).reports] == ["inside text"] * 2


def test_load_corpus_shows_at_most_80_characters_of_a_bad_value(tmp_path):
    path = tmp_path / "manifest.jsonl"
    path.write_text(json.dumps({"id": "a", "path": [[[1] * 500]]}) + "\n")
    with pytest.raises(CorpusError) as info:
        load_corpus(path)
    shown = str(info.value).split("got ", 1)[1]
    assert len(shown) == 80 and shown.endswith("...")


def test_export_rejects_an_id_that_is_not_a_plain_file_name(tmp_path):
    corpus = Corpus([_report("fine"), _report("../escaped")])
    with pytest.raises(CorpusError, match="plain file name"):
        export_corpus(corpus, tmp_path / "out")
    assert not (tmp_path / "out").exists()
    assert not (tmp_path / "escaped.txt").exists()


@pytest.mark.parametrize(
    "cls, field, value",
    [
        (TrainConfig, "batch_size", True),
        (TrainConfig, "epochs", 2.5),
        (TsneConfig, "iterations", 2.5),
        (SynthSpec, "nations", 2.5),
        (SynthSpec, "p_nation", True),
    ],
)
def test_config_dataclasses_apply_the_config_type_rule(cls, field, value):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        cls(**{field: value})


def test_config_dataclasses_accept_numpy_scalars():
    assert TrainConfig(epochs=np.int64(3), lr_init=np.float32(0.5)).epochs == 3
    assert SynthSpec(nations=np.int32(1), p_family=np.float64(0.5)).nations == 1


def test_load_corpus_replaces_invalid_utf8(tmp_path):
    (tmp_path / "a.txt").write_bytes(b"alpha \xff\xfe beta")
    (tmp_path / "manifest.jsonl").write_text('{"id": "a", "path": "a.txt"}\n')
    c = load_corpus(tmp_path / "manifest.jsonl")
    assert "alpha" in c.reports[0].raw_text
    assert "beta" in c.reports[0].raw_text


def _labeled_corpus():
    reports = []
    for fam, nation, count in (("f0", "n0", 5), ("f1", "n0", 4), ("f2", "n1", 6)):
        for i in range(count):
            reports.append(
                _report(f"{fam}-{i}", text=f"tok_{fam}", nation=nation, family=fam)
            )
    return Corpus(reports)


def test_family_disjoint_split_partitions():
    c = _labeled_corpus()
    split = family_disjoint_split(c, {"f2"}, val_per_family=2)
    assert {r.family for r in split.test.reports} == {"f2"}
    assert len(split.test) == 6
    tv_families = {r.family for r in split.train.reports} | {
        r.family for r in split.validation.reports
    }
    assert "f2" not in tv_families
    assert len(split.validation) == 4
    assert len(split.train) == 5 + 4 - 4
    parts = (split.train, split.validation, split.test)
    assert sorted(i for part in parts for i in _ids(part)) == sorted(_ids(c))


def test_family_disjoint_split_validation_takes_first_by_order():
    c = _labeled_corpus()
    split = family_disjoint_split(c, {"f2"}, val_per_family=2)
    assert [r.id for r in split.validation.reports] == ["f0-0", "f0-1", "f1-0", "f1-1"]


def test_family_disjoint_split_unknown_family():
    with pytest.raises(CorpusError, match="not present"):
        family_disjoint_split(_labeled_corpus(), {"ghost"}, val_per_family=1)


def test_family_disjoint_split_val_too_large():
    with pytest.raises(CorpusError, match="val_per_family"):
        family_disjoint_split(_labeled_corpus(), {"f2"}, val_per_family=5)


def test_family_disjoint_split_rejects_negative_val_per_family():
    with pytest.raises(CorpusError, match="val_per_family must be >= 0, got -2"):
        family_disjoint_split(_labeled_corpus(), {"f2"}, val_per_family=-2)


def test_family_disjoint_split_needs_remaining_family():
    with pytest.raises(CorpusError, match="no training families"):
        family_disjoint_split(_labeled_corpus(), {"f0", "f1", "f2"}, val_per_family=0)


def test_family_disjoint_split_requires_family_labels():
    c = Corpus([_report("a", family="f0"), _report("b")])
    with pytest.raises(CorpusError, match="no family label"):
        family_disjoint_split(c, {"f0"}, val_per_family=0)


def test_manifest_is_sorted_json(tmp_path):
    c = generate_synthetic_corpus(SynthSpec(reports_per_family=2, seed=3))
    manifest = export_corpus(c, tmp_path / "c")
    for line in manifest.read_text().splitlines():
        entry = json.loads(line)
        assert list(entry) == sorted(entry)


def test_random_specs_generate_valid_corpora():
    rng = np.random.default_rng(123)
    for _ in range(20):
        spec = SynthSpec(
            nations=int(rng.integers(1, 4)),
            families_per_nation=int(rng.integers(1, 4)),
            reports_per_family=int(rng.integers(1, 6)),
            nation_sig_size=int(rng.integers(0, 8)),
            family_sig_size=int(rng.integers(0, 8)),
            noise_pool_size=int(rng.integers(0, 30)),
            tokens_per_report=int(rng.integers(0, 40)),
            p_nation=float(rng.random()),
            p_family=float(rng.random()),
            seed=int(rng.integers(0, 2**32)),
        )
        c = generate_synthetic_corpus(spec)
        assert len(c) == spec.nations * spec.families_per_nation * spec.reports_per_family
