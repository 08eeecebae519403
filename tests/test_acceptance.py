"""End-to-end acceptance checks for the toolkit.

Each test prints one "criterion N: PASS/FAIL" line with the measured value,
then asserts it. Criteria 3, 4, 5 and 10 share a module-scoped synthetic
dataset and the models trained on it, so each model is trained exactly
once. Where a criterion carries a runtime budget the
elapsed wall time is asserted too.
"""

import dataclasses
import itertools
import json
import re
import time
from types import SimpleNamespace

import numpy as np
import pytest

from aptattrib.cli import main as cli_main
from aptattrib.corpus import (
    Corpus,
    LabeledReport,
    SynthSpec,
    family_disjoint_split,
    generate_synthetic_corpus,
)
from aptattrib.featurize import (
    Vocabulary,
    build_vocabulary,
    encode_labels,
    load_matrix,
    load_vocabulary,
    save_matrix,
    save_vocabulary,
    vectorize,
    vectorize_corpus,
)
from aptattrib.interpret import (
    TsneConfig,
    joint_affinities,
    olden_importance,
    tsne_embed,
)
from aptattrib.network import (
    ArchSpec,
    TrainConfig,
    default_arch,
    evaluate,
    init_model,
    load_model,
    save_model,
    train,
)
from aptattrib.transfer import transfer_train

from gradcheck import gradient_check

_FIT_CFG = TrainConfig(lr_init=1e-2, lr_final=1e-4, epochs=100, seed=11)


def _verdict(capsys, num: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\ncriterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


# --- shared synthetic dataset for criteria 3, 4, 5 ---


@pytest.fixture(scope="module")
def dataset():
    t0 = time.monotonic()
    base = SynthSpec(
        nations=2, families_per_nation=2, reports_per_family=400,
        p_nation=0.6, p_family=0.6, seed=101,
    )
    # A second generator run contributes one extra family per nation that the
    # models never see during training.
    extra = SynthSpec(
        nations=2, families_per_nation=3, reports_per_family=250,
        p_nation=0.6, p_family=0.6, seed=202,
    )
    held_out = [
        r for r in generate_synthetic_corpus(extra).reports
        if r.family.endswith("_2")
    ]
    merged = Corpus(list(generate_synthetic_corpus(base).reports) + held_out)
    split = family_disjoint_split(
        merged, {"family_0_2", "family_1_2"}, val_per_family=100
    )
    vocab = build_vocabulary(split.train)
    xtr, ntr, ftr = vectorize_corpus(split.train, vocab)
    xva, nva, fva = vectorize_corpus(split.validation, vocab)
    xte, nte, _ = vectorize_corpus(split.test, vocab)
    _, ytr_f = encode_labels(ftr)
    _, yva_f = encode_labels(fva)
    _, ytr_n = encode_labels(ntr)
    _, yva_n = encode_labels(nva)
    _, yte_n = encode_labels(nte)
    return SimpleNamespace(
        vocab=vocab,
        vocab_size=len(vocab),
        xtr=xtr, ytr_f=ytr_f, ytr_n=ytr_n,
        xva=xva, yva_f=yva_f, yva_n=yva_n,
        xte=xte, yte_n=yte_n,
        prep_seconds=time.monotonic() - t0,
    )


@pytest.fixture(scope="module")
def family_model(dataset):
    t0 = time.monotonic()
    model = init_model(ArchSpec((dataset.vocab_size, 128, 64, 32, 4)), seed=21)
    records = train(
        model, dataset.xtr, dataset.ytr_f, _FIT_CFG,
        validation=(dataset.xva, dataset.yva_f),
    )
    return model, records, time.monotonic() - t0


@pytest.fixture(scope="module")
def direct_model(dataset):
    t0 = time.monotonic()
    model = init_model(ArchSpec((dataset.vocab_size, 128, 64, 32, 2)), seed=22)
    train(
        model, dataset.xtr, dataset.ytr_n, _FIT_CFG,
        validation=(dataset.xva, dataset.yva_n),
    )
    accuracy = evaluate(model, dataset.xte, dataset.yte_n).accuracy
    return model, accuracy, time.monotonic() - t0


# --- criteria ---


def test_criterion_1_gradient_correctness(capsys):
    t0 = time.monotonic()
    worst = 0.0
    for sizes in ((4, 3, 2), (6, 5, 4, 3), (8, 8, 8, 2)):
        arch = ArchSpec(sizes)
        for seed in range(5):
            rng = np.random.default_rng(1000 + seed)
            sample = (
                rng.normal(size=arch.input_size),
                int(rng.integers(arch.output_size)),
            )
            worst = max(worst, gradient_check(arch, seed, sample, epsilon=1e-5))
    elapsed = time.monotonic() - t0
    ok = worst < 1e-4 and elapsed < 10.0
    _verdict(capsys, 1, ok, f"max gradient rel err {worst:.2e} (limit 1e-4), {elapsed:.1f}s")


def _oracle_vocab(texts, max_size):
    doc_sets = [set(t[:256] for t in re.findall(r"[A-Za-z0-9_]+", text)) for text in texts]
    df = {}
    for s in doc_sets:
        for tok in s:
            df[tok] = df.get(tok, 0) + 1
    entries = [(t, n) for t, n in df.items() if n < len(doc_sets)]
    entries.sort(key=lambda e: (-e[1], e[0]))
    return entries[:max_size]


def _oracle_vector(text, tokens):
    present = {t[:256] for t in re.findall(r"[A-Za-z0-9_]+", text)}
    return [1 if tok in present else 0 for tok in tokens]


def test_criterion_2_featurizer_matches_oracle(capsys):
    t0 = time.monotonic()
    rng = np.random.default_rng(97)
    pool = [f"tok{i}" for i in range(20)]
    mismatches = 0
    for case in range(100):
        n_docs = int(rng.integers(1, 11))
        texts = [
            " ".join(rng.choice(pool, size=rng.integers(0, 25)).tolist())
            for _ in range(n_docs)
        ]
        corpus = Corpus(tuple(
            LabeledReport(id=f"r{case}_{i}", raw_text=t) for i, t in enumerate(texts)
        ))
        max_size = int(rng.integers(1, 25))
        vocab = build_vocabulary(corpus, max_size=max_size)
        if list(vocab.entries) != _oracle_vocab(texts, max_size):
            mismatches += 1
            continue
        for report in corpus.reports:
            if vectorize(report, vocab).tolist() != _oracle_vector(
                report.raw_text, vocab.tokens()
            ):
                mismatches += 1
                break
    elapsed = time.monotonic() - t0
    ok = mismatches == 0 and elapsed < 5.0
    _verdict(capsys, 2, ok, f"{100 - mismatches}/100 random corpora exact, {elapsed:.1f}s")


def test_criterion_3_family_classification(dataset, family_model, capsys):
    _, records, fit_seconds = family_model
    val_acc = records[-1].val_acc
    elapsed = dataset.prep_seconds + fit_seconds
    ok = val_acc is not None and val_acc >= 0.95 and elapsed < 300.0
    _verdict(capsys, 3, ok, f"family validation accuracy {val_acc:.4f} (floor 0.95), {elapsed:.1f}s")


def test_criterion_4_held_out_family_attribution(direct_model, capsys):
    _, accuracy, elapsed = direct_model
    ok = accuracy >= 0.90 and elapsed < 300.0
    _verdict(capsys, 4, ok, f"held-out-family attribution accuracy {accuracy:.4f} (floor 0.90), {elapsed:.1f}s")


def test_criterion_5_transfer_learning(dataset, family_model, direct_model, capsys):
    base, _, _ = family_model
    _, direct_acc, _ = direct_model
    trunk = [a.tobytes() for a in base.weights[:-1] + base.biases[:-1]]
    t0 = time.monotonic()
    cfg = TrainConfig(lr_init=1e-2, lr_final=1e-4, epochs=50, seed=33)
    model, _ = transfer_train(base, 2, dataset.xtr, dataset.ytr_n, cfg)
    accuracy = evaluate(model, dataset.xte, dataset.yte_n).accuracy
    elapsed = time.monotonic() - t0
    trunk_intact = [a.tobytes() for a in model.weights[:-1] + model.biases[:-1]] == trunk
    ok = accuracy >= direct_acc - 0.05 and trunk_intact and elapsed < 120.0
    _verdict(
        capsys, 5, ok,
        f"transfer accuracy {accuracy:.4f} vs direct {direct_acc:.4f} "
        f"(allowed gap 0.05), trunk bytes intact: {trunk_intact}, {elapsed:.1f}s",
    )


def test_default_stack_learns_held_out_attribution(dataset):
    """The paper's default stack (640-2000-1000x6-500-2 here) with every
    TrainConfig default but the epoch count, whose budget is 20 epochs. At
    dropout 0.5 it stayed near chance on this dataset (0.50-0.61 held-out
    over init seeds 1-3); at the default 0.2 it reads 1.000."""
    model = init_model(default_arch(dataset.vocab_size, 2), seed=1)
    train(model, dataset.xtr, dataset.ytr_n, TrainConfig(epochs=20))
    accuracy = evaluate(model, dataset.xte, dataset.yte_n).accuracy
    assert accuracy >= 0.90, f"held-out nation accuracy {accuracy:.4f} (floor 0.90)"


def _paths_oracle(weights):
    sizes = [w.shape[0] for w in weights] + [weights[-1].shape[1]]
    out = np.zeros((sizes[0], sizes[-1]))
    for i in range(sizes[0]):
        for c in range(sizes[-1]):
            total = 0.0
            for mids in itertools.product(*(range(s) for s in sizes[1:-1])):
                nodes = (i, *mids, c)
                prod = 1.0
                for l, w in enumerate(weights):
                    prod *= float(w[nodes[l], nodes[l + 1]])
                total += prod
            out[i, c] = total
    return out


def _tiny_model(weights):
    sizes = tuple(w.shape[0] for w in weights) + (weights[-1].shape[1],)
    m = init_model(ArchSpec(sizes), seed=0)
    m.weights = [np.asarray(w, dtype=np.float32) for w in weights]
    m.biases = [np.zeros(w.shape[1], dtype=np.float32) for w in weights]
    return m


def _tiny_vocab(n):
    return Vocabulary(
        entries=tuple((f"t{i}", 1) for i in range(n)), corpus_docs=n + 1, max_size=n
    )


def test_criterion_6_importance_matches_path_enumeration(capsys):
    t0 = time.monotonic()
    rng = np.random.default_rng(61)
    worst = 0.0
    for _ in range(20):
        n_mats = int(rng.integers(1, 5))
        sizes = [int(rng.integers(2, 6)) for _ in range(n_mats + 1)]
        weights = [rng.normal(size=(a, b)) for a, b in zip(sizes, sizes[1:])]
        model = _tiny_model(weights)
        ranking = olden_importance(model, _tiny_vocab(sizes[0]))
        # The oracle must see the same float32-rounded values the model stores.
        oracle = _paths_oracle([w.astype(np.float64) for w in model.weights])
        worst = max(worst, float(np.abs(ranking.contributions - oracle).max()))
    rng = np.random.default_rng(62)
    sizes = [5, 4, 3, 2]
    weights = [rng.normal(size=(a, b)) for a, b in zip(sizes, sizes[1:])]
    base_order = olden_importance(_tiny_model(weights), _tiny_vocab(5)).order.tolist()
    rescale_stable = True
    for k in range(len(weights)):
        scaled = [w.copy() for w in weights]
        scaled[k] *= 2.25
        order = olden_importance(_tiny_model(scaled), _tiny_vocab(5)).order.tolist()
        rescale_stable = rescale_stable and order == base_order
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-9 and rescale_stable and elapsed < 5.0
    _verdict(
        capsys, 6, ok,
        f"max |olden - path enumeration| {worst:.1e} (limit 1e-9), "
        f"rescale keeps order: {rescale_stable}, {elapsed:.1f}s",
    )


# The share of the top 60 that must be nation tokens. Direct models from init
# seeds 22-41 read 0.467-0.683 (median 0.600; family-token share 0.117-0.367)
# at held-out 1.000; untrained nets from the same seeds read 0.017-0.200, and
# ten shuffled rankings 0.033-0.133.
RECOVERY_FLOOR = 0.40


def _top_shares(ranking, top=60):
    """The shares of the ranking's top tokens that carry the nation (nsig_*)
    and the family (fsig_*), as the synthetic generator names them."""
    tokens = [ranking.tokens[i] for i in ranking.order[:top]]
    return (
        sum(t.startswith("nsig_") for t in tokens) / top,
        sum(t.startswith("fsig_") for t in tokens) / top,
    )


def test_criterion_10_importance_recovers_nation_tokens(dataset, direct_model, capsys):
    """Connection-weight importance must rank the planted nation tokens (60 of
    the 640-token vocabulary, so chance is 0.094) near the top; criterion 6
    checks only its arithmetic. An untrained net and a shuffled ranking must
    stay under the floor, or the floor tells nothing."""
    model, _, _ = direct_model
    t0 = time.monotonic()
    ranking = olden_importance(model, dataset.vocab)
    nation, family = _top_shares(ranking)
    untrained = init_model(model.arch, seed=22)
    untrained_nation, _ = _top_shares(olden_importance(untrained, dataset.vocab))
    order = np.random.default_rng(10).permutation(ranking.order)
    shuffled_nation, _ = _top_shares(dataclasses.replace(ranking, order=order))
    elapsed = time.monotonic() - t0
    ok = (
        nation >= RECOVERY_FLOOR
        and untrained_nation < RECOVERY_FLOOR
        and shuffled_nation < RECOVERY_FLOOR
        and elapsed < 5.0
    )
    _verdict(
        capsys, 10, ok,
        f"top-60 nation-token share {nation:.3f} (floor {RECOVERY_FLOOR:.2f}, chance 0.094), "
        f"family-token share {family:.3f}; untrained {untrained_nation:.3f} and "
        f"shuffled {shuffled_nation:.3f} under the floor, {elapsed:.1f}s",
    )


def test_criterion_7_embedding_sanity(capsys):
    t0 = time.monotonic()
    rng = np.random.default_rng(71)
    centers = np.zeros((3, 50))
    for k in range(3):
        centers[k, k] = 25.0
    points = np.vstack([
        centers[k] + rng.normal(size=(50, 50)) for k in range(3)
    ]).astype(np.float64)
    labels = np.repeat(np.arange(3), 50)

    # P comes as its upper-triangle tiles: the diagonal tiles must be exactly
    # symmetric, and the sum counts each off-diagonal tile twice.
    p = joint_affinities(points, 30.0)
    symmetric = all(np.array_equal(t, t.T) for a, b, _, t in p if a == b)
    total = 0.0
    for _, _, w, t in p:
        total += w * float(t.sum())

    emb = tsne_embed(points, config=TsneConfig())
    y = emb.points
    dists = np.sqrt(((y[:, None, :] - y[None, :, :]) ** 2).sum(-1))
    same = labels[:, None] == labels[None, :]
    off_diag = ~np.eye(len(y), dtype=bool)
    intra = float(dists[same & off_diag].mean())
    inter = float(dists[~same].mean())
    (_, kl_first), (_, kl_last) = emb.kl_trace[0], emb.kl_trace[-1]
    kl_drops = kl_last < kl_first
    elapsed = time.monotonic() - t0
    ok = (
        intra < inter
        and symmetric
        and abs(total - 1.0) <= 1e-9
        and kl_drops
        and elapsed < 60.0
    )
    _verdict(
        capsys, 7, ok,
        f"intra {intra:.2f} < inter {inter:.2f}, affinities symmetric: {symmetric}, "
        f"sum {total:.12f}, KL {kl_first:.3f} -> {kl_last:.3f}, {elapsed:.1f}s",
    )


def _run_cli_pipeline(tmp_path, config_path, arch):
    args = ["--config", str(config_path)]
    for cmd in (
        ["synth", *args],
        ["vocab", *args],
        ["vectorize", *args],
        ["train", *args, "--task", "family", "--arch", arch],
        ["transfer", *args],
        ["importance", *args],
        ["embed", *args],
    ):
        rc = cli_main(cmd)
        assert rc == 0, f"{cmd[0]} exited {rc}"
    names = (
        "vocab.json", "features.bin", "family.model", "nation.model",
        "importance.csv", "embedding.csv", "embedding.svg",
    )
    return {name: (tmp_path / name).read_bytes() for name in names}


def test_criterion_8_pipeline_determinism(tmp_path, capsys):
    t0 = time.monotonic()
    cfg = {
        "seed": 7,
        "synth": {
            "nations": 2, "families_per_nation": 2, "reports_per_family": 30,
            "nation_sig_size": 8, "family_sig_size": 6,
            "noise_pool_size": 60, "tokens_per_report": 30,
        },
        "vocab": {"max_size": 200},
        "train": {"epochs": 20, "batch_size": 16, "lr_final": 1e-3},
        "tsne": {"perplexity": 8.0, "iterations": 120},
        "paths": {
            "corpus_dir": str(tmp_path / "corpus"),
            "vocab": str(tmp_path / "vocab.json"),
            "matrix": str(tmp_path / "features.bin"),
            "model": str(tmp_path / "family.model"),
            "transfer_model": str(tmp_path / "nation.model"),
            "embed_model": str(tmp_path / "nation.model"),
            "importance_csv": str(tmp_path / "importance.csv"),
            "embedding_csv": str(tmp_path / "embedding.csv"),
            "embedding_svg": str(tmp_path / "embedding.svg"),
        },
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(cfg))

    args = ["--config", str(config_path)]
    assert cli_main(["synth", *args]) == 0
    assert cli_main(["vocab", *args]) == 0
    vocab_size = len(load_vocabulary(cfg["paths"]["vocab"]))
    arch = f"{vocab_size},32,16,4"
    first = _run_cli_pipeline(tmp_path, config_path, arch)
    second = _run_cli_pipeline(tmp_path, config_path, arch)
    stale = [name for name in first if first[name] != second[name]]
    elapsed = time.monotonic() - t0
    ok = not stale
    _verdict(
        capsys, 8, ok,
        f"{len(first)}/{len(first)} pipeline outputs byte-identical across reruns"
        + (f" (diffs: {stale})" if stale else "") + f", {elapsed:.1f}s",
    )


def test_criterion_9_format_round_trips(tmp_path, capsys):
    checks = []

    model = init_model(ArchSpec((7, 5, 3)), seed=4)
    model.trainable[0] = False
    model_path = tmp_path / "m.model"
    save_model(model, model_path)
    blob = model_path.read_bytes()
    loaded = load_model(model_path)
    resaved = tmp_path / "m2.model"
    save_model(loaded, resaved)
    checks.append(("model save/load byte-exact", resaved.read_bytes() == blob))
    checks.append((
        "model arrays survive",
        all(a.tobytes() == b.tobytes() for a, b in zip(loaded.weights, model.weights))
        and loaded.trainable == model.trainable,
    ))

    rng = np.random.default_rng(91)
    rows = (rng.random((12, 9)) < 0.4).astype(np.uint8)
    nations = [f"n{i % 3}" if i % 4 else None for i in range(12)]
    families = [f"f{i % 2}" for i in range(12)]
    matrix_path = tmp_path / "m.bin"
    save_matrix(matrix_path, rows, nations, families)
    r2, n2, f2 = load_matrix(matrix_path)
    resaved_matrix = tmp_path / "m2.bin"
    save_matrix(resaved_matrix, r2, n2, f2)
    checks.append((
        "matrix semantics survive",
        np.array_equal(rows, r2) and list(nations) == list(n2) and list(families) == list(f2),
    ))
    checks.append((
        "matrix re-save byte-exact",
        resaved_matrix.read_bytes() == matrix_path.read_bytes(),
    ))

    corpus = Corpus(tuple(
        LabeledReport(id=f"r{i}", raw_text=t)
        for i, t in enumerate(["alpha beta", "beta gamma", "alpha delta"])
    ))
    vocab = build_vocabulary(corpus, max_size=10)
    vocab_path = tmp_path / "v.json"
    save_vocabulary(vocab, vocab_path)
    v2 = load_vocabulary(vocab_path)
    checks.append((
        "vocabulary semantics survive",
        v2.entries == vocab.entries
        and v2.corpus_docs == vocab.corpus_docs
        and v2.max_size == vocab.max_size,
    ))

    bad_magic = tmp_path / "bad.model"
    bad_magic.write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(ValueError, match="bad magic"):
        load_model(bad_magic)
    truncated = tmp_path / "cut.model"
    truncated.write_bytes(blob[: len(blob) - 5])
    with pytest.raises(ValueError, match="truncated"):
        load_model(truncated)
    matrix_blob = matrix_path.read_bytes()
    bad_matrix = tmp_path / "bad.bin"
    bad_matrix.write_bytes(b"YYYY" + matrix_blob[4:])
    with pytest.raises(ValueError, match="bad magic"):
        load_matrix(bad_matrix)
    cut_matrix = tmp_path / "cut.bin"
    cut_matrix.write_bytes(matrix_blob[: len(matrix_blob) - 3])
    with pytest.raises(ValueError, match="truncated"):
        load_matrix(cut_matrix)
    checks.append(("corrupt magic and truncation rejected", True))

    failed = [name for name, ok in checks if not ok]
    _verdict(
        capsys, 9, not failed,
        f"{len(checks) - len(failed)}/{len(checks)} format checks passed"
        + (f" (failed: {failed})" if failed else ""),
    )
