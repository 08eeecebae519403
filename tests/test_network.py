import concurrent.futures
import dataclasses
import re
import struct
import tracemalloc

import numpy as np
import pytest

from aptattrib import network
from aptattrib.corpus import SynthSpec, generate_synthetic_corpus
from aptattrib.featurize import FormatError, build_vocabulary, encode_labels, vectorize_corpus
from aptattrib.network import (
    BLOCK_BYTES,
    ArchSpec,
    MlpModel,
    NumericalError,
    TrainConfig,
    _backward_pass,
    _forward_pass,
    _row_blocks,
    _row_sparse,
    default_arch,
    evaluate,
    forward,
    init_model,
    learning_rate,
    load_model,
    penultimate_activations,
    save_model,
    train,
    train_step,
)

from gradcheck import gradient_check


def _model_bytes(model):
    return b"".join(w.tobytes() + b.tobytes() for w, b in zip(model.weights, model.biases))


def _copy_model(model):
    return MlpModel(
        arch=model.arch,
        weights=[w.copy() for w in model.weights],
        biases=[b.copy() for b in model.biases],
        trainable=list(model.trainable),
    )


# --- ArchSpec / init_model ---


def test_arch_requires_two_layers():
    with pytest.raises(ValueError):
        ArchSpec((5,))


def test_arch_requires_positive_sizes():
    with pytest.raises(ValueError):
        ArchSpec((5, 0, 2))


def test_default_arch_shapes():
    att = default_arch(50_000, 2)
    assert att.layer_sizes == (50_000, 2000, 1000, 1000, 1000, 1000, 1000, 1000, 500, 2)
    assert len(att.layer_sizes) - 1 == 9
    assert att.layer_sizes[-2] == 500
    fam = default_arch(50_000, 4)
    assert fam.layer_sizes[-1] == 4
    assert fam.layer_sizes[:-1] == att.layer_sizes[:-1]


def test_init_model_shapes_and_zero_biases():
    m = init_model(ArchSpec((3, 2, 2)), seed=0)
    assert [w.shape for w in m.weights] == [(3, 2), (2, 2)]
    assert [b.shape for b in m.biases] == [(2,), (2,)]
    assert all(not b.any() for b in m.biases)
    assert m.trainable == [True, True]
    assert all(w.dtype == np.float32 for w in m.weights)


def test_init_model_weight_scale():
    m = init_model(ArchSpec((100, 50, 2)), seed=7)
    samples = m.weights[0].reshape(-1)[:10_000]
    expected = np.sqrt(2.0 / 100)
    assert abs(samples.std() - expected) / expected < 0.05


def test_init_model_deterministic():
    a = init_model(ArchSpec((6, 4, 3)), seed=5)
    b = init_model(ArchSpec((6, 4, 3)), seed=5)
    assert _model_bytes(a) == _model_bytes(b)
    c = init_model(ArchSpec((6, 4, 3)), seed=6)
    assert _model_bytes(a) != _model_bytes(c)


@pytest.mark.parametrize("sizes", [(640, 128, 64, 32, 4), (1024, 128, 16, 3)])
def test_init_model_one_block_layers_match_one_stream_and_start_no_thread(sizes, monkeypatch):
    # 1024 x 128 float32 is exactly one block, drawn in two float64 pieces.
    assert all(4 * i * o <= BLOCK_BYTES for i, o in zip(sizes, sizes[1:]))
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", None)  # calling it would fail
    m = init_model(ArchSpec(sizes), seed=11)
    rng = np.random.default_rng(11)
    for w, (fan_in, fan_out) in zip(m.weights, zip(sizes, sizes[1:])):
        expected = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out))
        assert w.tobytes() == expected.astype(np.float32).tobytes()


# Layer 0 is 10 float32 blocks of 128 rows (the last 48 rows), layer 1 is 3
# blocks of 436 rows, and layer 2 fits one block.
_MULTI_BLOCK = (1200, 1024, 300, 3)


def _reference_init(sizes, seed):
    """Block 0 of each layer from one stream in layer order, block k of a layer from its child."""
    rng = np.random.default_rng(seed)
    seeds = np.random.SeedSequence(seed)
    weights = []
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        sd = np.sqrt(2.0 / fan_in)
        rows = BLOCK_BYTES // (4 * fan_out)
        blocks = [rng.normal(0.0, sd, size=(min(rows, fan_in), fan_out))]
        starts = range(rows, fan_in, rows)
        for start, child in zip(starts, seeds.spawn(len(starts))):
            size = (min(rows, fan_in - start), fan_out)
            blocks.append(np.random.default_rng(child).normal(0.0, sd, size=size))
        weights.append(np.vstack(blocks).astype(np.float32))
    return weights


@pytest.mark.parametrize("cpus", [1, 8])
def test_init_model_multi_block_layers_draw_each_block_from_its_own_stream(cpus, monkeypatch):
    pools = []
    pool_class = concurrent.futures.ThreadPoolExecutor

    def recording_pool(workers):
        pools.append(workers)
        return pool_class(workers)

    monkeypatch.setattr(network, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", recording_pool)
    m = init_model(ArchSpec(_MULTI_BLOCK), seed=11)
    assert pools == [cpus], "one pool, one worker per CPU (more workers than cores at 8)"
    for w, expected in zip(m.weights, _reference_init(_MULTI_BLOCK, 11)):
        assert w.tobytes() == expected.tobytes()


# --- forward ---


def _single_layer_identity():
    m = init_model(ArchSpec((2, 2)), seed=0)
    m.weights[0] = np.eye(2, dtype=np.float32)
    m.biases[0] = np.zeros(2, dtype=np.float32)
    return m


def test_forward_softmax_symmetry():
    m = _single_layer_identity()
    _, probs = forward(m, np.zeros(2))
    assert np.allclose(probs, [0.5, 0.5])


def test_forward_hand_computed_softmax():
    m = _single_layer_identity()
    _, probs = forward(m, np.array([1.0, -1.0]))
    assert np.allclose(probs, [0.8808, 0.1192], atol=1e-4)


def test_forward_batch_matches_single():
    m = init_model(ArchSpec((5, 4, 3)), seed=2)
    rng = np.random.default_rng(0)
    batch = rng.random((6, 5)).astype(np.float32)
    _, batch_probs = forward(m, batch)
    for i in range(6):
        _, single = forward(m, batch[i])
        assert np.allclose(single, batch_probs[i], atol=1e-6)


def test_forward_probabilities_sum_to_one():
    m = init_model(ArchSpec((8, 6, 5)), seed=3)
    rng = np.random.default_rng(1)
    _, probs = forward(m, rng.random((20, 8)))
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-6)
    assert (probs >= 0).all() and (probs <= 1).all()


def test_forward_softmax_stable_at_large_magnitude():
    m = _single_layer_identity()
    _, probs = forward(m, np.array([1e4, -1e4]))
    assert np.isfinite(probs).all()
    assert abs(probs.sum() - 1.0) < 1e-6


def test_forward_width_mismatch():
    m = init_model(ArchSpec((4, 3, 2)), seed=0)
    with pytest.raises(ValueError, match="width"):
        forward(m, np.ones(5))


def test_forward_rejects_non_finite():
    m = init_model(ArchSpec((4, 3, 2)), seed=0)
    with pytest.raises(ValueError, match="finite"):
        forward(m, np.array([1.0, np.nan, 0.0, 0.0]))


def test_penultimate_activations_width_and_relu():
    m = init_model(ArchSpec((3, 2, 2)), seed=0)
    m.weights[0] = np.array([[1.0, -1.0], [0.0, 0.0], [0.0, 0.0]], dtype=np.float32)
    out = penultimate_activations(m, np.array([1.0, 0.0, 0.0]))
    assert out.tolist() == [1.0, 0.0]


def test_penultimate_zero_input_zero_biases():
    m = init_model(ArchSpec((4, 3, 2)), seed=0)
    assert not penultimate_activations(m, np.zeros(4)).any()


def test_penultimate_width_matches_second_topmost():
    m = init_model(default_arch(100, 2), seed=0)
    out = penultimate_activations(m, np.ones(100, dtype=np.float32))
    assert out.shape == (500,)


# --- dropout / input noise expectations ---


def test_inverted_dropout_preserves_expectation():
    m = init_model(ArchSpec((4, 6, 3)), seed=9)
    x = np.array([0.5, 1.0, -0.3, 2.0], dtype=np.float32)
    infer_acts, _ = forward(m, x)
    h_infer = infer_acts[1]
    reps = np.tile(x, (100_000, 1))
    rng = np.random.default_rng(42)
    train_acts, _ = _forward_pass(m.weights, m.biases, reps, rng=rng, dropout_rate=0.5)
    mean_h = train_acts[1].mean(axis=0)
    assert np.allclose(mean_h, h_infer, rtol=0.02, atol=1e-6)


def test_input_noise_preserves_scaled_expectation():
    m = init_model(ArchSpec((4, 6, 3)), seed=9)
    x = np.array([0.5, 1.0, -0.3, 2.0], dtype=np.float32)
    reps = np.tile(x, (100_000, 1))
    rng = np.random.default_rng(42)
    train_acts, _ = _forward_pass(m.weights, m.biases, reps, rng=rng, input_noise_rate=0.2)
    mean_input = train_acts[0].mean(axis=0)
    assert np.allclose(mean_input, 0.8 * x, rtol=0.02, atol=1e-6)


def test_input_noise_zeroes_only():
    m = init_model(ArchSpec((4, 3, 2)), seed=0)
    x = np.ones((200, 4), dtype=np.float32)
    rng = np.random.default_rng(3)
    acts, _ = _forward_pass(m.weights, m.biases, x, rng=rng, input_noise_rate=0.5)
    assert set(np.unique(acts[0])) <= {0.0, 1.0}


# --- learning_rate ---


def test_learning_rate_endpoints():
    cfg = TrainConfig(epochs=1000)
    assert learning_rate(0, cfg) == pytest.approx(1e-2)
    assert learning_rate(999, cfg) == pytest.approx(1e-5)


def test_learning_rate_geometric_midpoint():
    cfg = TrainConfig(epochs=1000)
    assert learning_rate(333, cfg) == pytest.approx(1e-3, rel=1e-9)


def test_learning_rate_single_epoch():
    cfg = TrainConfig(epochs=1)
    assert learning_rate(0, cfg) == 1e-2


def test_learning_rate_strictly_decreasing():
    cfg = TrainConfig(epochs=50)
    values = [learning_rate(e, cfg) for e in range(50)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_learning_rate_epoch_out_of_range():
    cfg = TrainConfig(epochs=10)
    with pytest.raises(ValueError):
        learning_rate(10, cfg)
    with pytest.raises(ValueError):
        learning_rate(-1, cfg)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"dropout_rate": 1.0},
        {"input_noise_rate": -0.1},
        {"lr_final": 0.0},
        {"lr_init": 1e-6, "lr_final": 1e-3},
        {"epochs": -1},
        {"batch_size": 0},
    ],
)
def test_train_config_validation(kwargs):
    with pytest.raises(ValueError):
        TrainConfig(**kwargs)


def test_train_config_checks_itself_when_built():
    with pytest.raises(ValueError, match="batch_size"):
        TrainConfig(batch_size=0)


# --- train_step ---


def test_train_step_zero_lr_leaves_model_unchanged():
    m = init_model(ArchSpec((4, 3, 2)), seed=1)
    before = _model_bytes(m)
    loss = train_step(m, np.ones((2, 4)), np.array([0, 1]), lr=0.0)
    assert loss > 0
    assert _model_bytes(m) == before


def test_train_step_respects_frozen_layers():
    m = init_model(ArchSpec((4, 3, 2)), seed=1)
    m.trainable[0] = False
    w0, b0 = m.weights[0].tobytes(), m.biases[0].tobytes()
    w1 = m.weights[1].tobytes()
    train_step(m, np.ones((2, 4)), np.array([0, 1]), lr=0.1)
    assert m.weights[0].tobytes() == w0
    assert m.biases[0].tobytes() == b0
    assert m.weights[1].tobytes() != w1


def test_train_step_converges_on_single_sample():
    m = init_model(ArchSpec((4, 3, 2)), seed=0)
    x = np.array([[1.0, 0.0, 1.0, 0.0]])
    y = np.array([1])
    loss = None
    for _ in range(500):
        loss = train_step(m, x, y, lr=0.1)
    assert loss < 0.01


def test_train_step_label_out_of_range():
    m = init_model(ArchSpec((4, 3, 2)), seed=1)
    with pytest.raises(ValueError, match="labels"):
        train_step(m, np.ones((1, 4)), np.array([2]), lr=0.1)
    with pytest.raises(ValueError, match="labels are required"):
        train_step(m, np.ones((1, 4)), None, lr=0.1)


def test_train_step_rejects_empty_batch():
    m = init_model(ArchSpec((4, 3, 2)), seed=1)
    with pytest.raises(ValueError):
        train_step(m, np.ones((0, 4)), np.array([], dtype=np.int64), lr=0.1)


def test_train_step_requires_rng_for_stochastic_regularizers():
    m = init_model(ArchSpec((4, 3, 2)), seed=1)
    with pytest.raises(ValueError, match="rng"):
        train_step(m, np.ones((1, 4)), np.array([0]), lr=0.1, dropout_rate=0.5)


def _all_gradients(weights, biases, acts, mults, labels):
    """Every layer's weight and bias gradient, assembled whole from _backward_pass's yields.

    An array that backprop never yields has no entry, so looking it up fails.
    """
    full = {}
    trainable = [True] * len(weights)
    for array, rows, grad in _backward_pass(weights, biases, acts, mults, labels, trainable):
        full.setdefault(id(array), np.zeros_like(array))[rows] = grad
    return [full[id(w)] for w in weights], [full[id(b)] for b in biases]


def test_zero_weights_zero_input_give_zero_weight_gradients():
    weights = [np.zeros((3, 2)), np.zeros((2, 2))]
    biases = [np.zeros(2), np.zeros(2)]
    acts, mults = _forward_pass(weights, biases, np.zeros((1, 3)))
    grads_w, _ = _all_gradients(weights, biases, acts, mults, np.array([0]))
    assert not grads_w[0].any()
    assert not grads_w[1].any()


def test_backward_pass_yields_only_trainable_layers_top_down():
    m = init_model(ArchSpec((5, 4, 4, 3)), seed=0)
    acts, mults = _forward_pass(m.weights, m.biases, np.ones((2, 5), dtype=np.float32))
    y = np.array([0, 2])
    names = {
        id(a): (kind, l)
        for l in range(3)
        for kind, a in (("w", m.weights[l]), ("b", m.biases[l]))
    }
    for trainable, layers in (([True, False, True], [2, 0]), ([False, True, False], [1])):
        got = [
            (names[id(a)], rows)
            for a, rows, _ in _backward_pass(m.weights, m.biases, acts, mults, y, trainable)
        ]
        # Every weight matrix is one block here, so every array comes once,
        # weight then bias; a weight's rows are that block, all its fan-in.
        assert [name for name, _ in got] == [(k, l) for l in layers for k in "wb"]
        assert [rows for _, rows in got] == [
            slice(0, (5, 4, 4)[l]) if kind == "w" else slice(None) for (kind, l), _ in got
        ]


# --- row-sparse layer 0 against the dense reference ---


def _dense_reference_step(model, x, y, lr, rng, dropout_rate, input_noise_rate):
    """Layer-0-dense train step: full x @ W0, full W0 gradient and full update.

    Draws noise and dropout in the same shapes and order as train_step.
    Returns (activations, weight gradients, bias gradients, updated model).
    """
    w, b = model.weights, model.biases
    a = np.asarray(x, dtype=np.float32)
    if input_noise_rate > 0.0:
        a = a * (rng.random(a.shape) >= input_noise_rate)
    acts, hidden = [a], []
    for l in range(len(w) - 1):
        h = np.maximum(a @ w[l] + b[l], 0.0)
        mult = np.ones_like(h)
        if dropout_rate > 0.0:
            mult = (rng.random(h.shape) >= dropout_rate) / np.float32(1.0 - dropout_rate)
        a = h * mult
        hidden.append((h, mult))
        acts.append(a)
    logits = a @ w[-1] + b[-1]
    probs = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    acts.append(probs)
    dz = probs.copy()
    dz[np.arange(len(y)), y] -= 1.0
    dz /= np.float32(len(y))
    grads_w, grads_b = [None] * len(w), [None] * len(w)
    for l in range(len(w) - 1, -1, -1):
        grads_w[l] = acts[l].T @ dz
        grads_b[l] = dz.sum(axis=0)
        if l > 0:
            h, mult = hidden[l - 1]
            dz = (dz @ w[l].T) * mult * (h > 0)
    updated = _copy_model(model)
    for l in range(len(w)):
        if updated.trainable[l]:
            updated.weights[l] -= np.float32(lr) * grads_w[l]
            updated.biases[l] -= np.float32(lr) * grads_b[l]
    return acts, grads_w, grads_b, updated


def _assert_rel_close(actual, expected, rtol=1e-6):
    scale = max(float(np.abs(expected).max()), 1e-30)
    assert float(np.abs(actual - expected).max()) <= rtol * scale


def _sparse_batch(rng, rows, cols, density):
    return (rng.random((rows, cols)) < density).astype(np.float32)


# A 3000-48-8-3 net: W0 is 576,000 bytes, more than one BLOCK_BYTES row block,
# so the row-sparse path is reachable and the dense update runs in two blocks.
_L0_ARCH = ArchSpec((3000, 48, 8, 3))
_L0_RNG = np.random.default_rng(17)
_L0_CASES = {
    "sparse": (_sparse_batch(_L0_RNG, 8, 3000, 0.015), True),
    "all-zero row": (
        np.vstack([_sparse_batch(_L0_RNG, 5, 3000, 0.015), np.zeros((1, 3000))]),
        True,
    ),
    "every column": (
        np.vstack([np.ones((1, 3000)), _sparse_batch(_L0_RNG, 3, 3000, 0.3)]),
        False,
    ),
    "frozen layer 0": (_sparse_batch(_L0_RNG, 8, 3000, 0.015), True),
    "one row": (_sparse_batch(_L0_RNG, 1, 3000, 0.015), True),
    "non-binary": (0.5 * _sparse_batch(_L0_RNG, 8, 3000, 0.015), True),
}


@pytest.mark.parametrize("case", sorted(_L0_CASES))
def test_layer0_matches_dense_reference(case):
    x, sparse = _L0_CASES[case]
    x = x.astype(np.float32)
    y = np.arange(len(x)) % 3
    model = init_model(_L0_ARCH, seed=4)
    assert model.weights[0].nbytes > BLOCK_BYTES
    model.biases = [np.full_like(b, 0.05) for b in model.biases]
    if case == "frozen layer 0":
        model.trainable[0] = False
    regs = dict(dropout_rate=0.3, input_noise_rate=0.2)

    ref_acts, ref_gw, ref_gb, ref_model = _dense_reference_step(
        model, x, y, 0.1, np.random.default_rng(9), **regs
    )
    acts, mults = _forward_pass(
        model.weights, model.biases, x, rng=np.random.default_rng(9), **regs
    )
    assert _row_sparse(model.weights[0], acts[0]) == sparse
    for a, ref in zip(acts, ref_acts):
        _assert_rel_close(a, ref)
    grads_w, grads_b = _all_gradients(model.weights, model.biases, acts, mults, y)
    for g, ref in zip(grads_w + grads_b, ref_gw + ref_gb):
        _assert_rel_close(g, ref)

    stepped = _copy_model(model)
    train_step(stepped, x, y, 0.1, rng=np.random.default_rng(9), **regs)
    for w, ref in zip(stepped.weights + stepped.biases, ref_model.weights + ref_model.biases):
        _assert_rel_close(w, ref)
    unset = ~acts[0].any(axis=0)
    assert unset.any()
    assert stepped.weights[0][unset].tobytes() == model.weights[0][unset].tobytes()
    if case == "frozen layer 0":
        assert stepped.weights[0].tobytes() == model.weights[0].tobytes()
        assert stepped.biases[0].tobytes() == model.biases[0].tobytes()


def test_layer0_row_sparse_gate():
    rng = np.random.default_rng(2)
    desk_w0 = np.zeros((640, 128), dtype=np.float32)
    wide_w0 = np.zeros((20000, 64), dtype=np.float32)
    assert desk_w0.nbytes <= BLOCK_BYTES < wide_w0.nbytes
    for w0, density, sparse in (
        (desk_w0, 0.176, False),
        (desk_w0, 0.012, False),
        (wide_w0, 0.012, True),
        (wide_w0, 0.176, False),
    ):
        assert _row_sparse(w0, _sparse_batch(rng, 4, w0.shape[0], density)) == sparse


def test_train_step_holds_no_full_size_w0_buffer():
    model = init_model(ArchSpec((8000, 512, 32, 4)), seed=0)
    x = _sparse_batch(np.random.default_rng(1), 32, 8000, 0.01)
    y = np.arange(32) % 4
    rng = np.random.default_rng(2)
    peak = _peak_traced_bytes(
        lambda: train_step(model, x, y, 0.01, dropout_rate=0.5, input_noise_rate=0.2, rng=rng)
    )
    assert peak <= 0.2 * model.weights[0].nbytes


# --- fused backprop-and-update step against the two-phase step ---


def _two_phase_step(model, x, y, lr, rng, dropout_rate, input_noise_rate):
    """The step before fusion: a full backward pass into gradient lists, then every update.

    x must already be float32 rows, as the two-phase step cast every batch.
    """
    w = model.weights
    acts, mults = _forward_pass(
        w, model.biases, x, rng=rng, dropout_rate=dropout_rate, input_noise_rate=input_noise_rate
    )
    trainable = [l for l, flag in enumerate(model.trainable) if flag]
    probs = acts[-1]
    dz = probs.copy()
    dz[np.arange(len(y)), y] -= 1.0
    dz /= np.asarray(len(y), dtype=dz.dtype)
    grads_w, grads_b = [None] * len(w), [None] * len(w)
    for l in range(len(w) - 1, trainable[0] - 1, -1):
        if l:
            grads_w[l] = acts[l].T @ dz
        grads_b[l] = dz.sum(axis=0)
        if l > trainable[0]:
            da = dz @ w[l].T
            if mults[l] is not None:
                da = da * mults[l]
            dz = da * (acts[l] > 0)
    lr32 = np.float32(lr)
    for l in trainable:
        if l:
            np.multiply(grads_w[l], lr32, out=grads_w[l])
            w[l] -= grads_w[l]
        np.multiply(grads_b[l], lr32, out=grads_b[l])
        model.biases[l] -= grads_b[l]
    if model.trainable[0]:
        # W0 in row blocks: over the set columns on the row-sparse path, all rows otherwise.
        x0 = acts[0]
        cols = np.flatnonzero(x0.any(axis=0)) if _row_sparse(w[0], x0) else None
        for s in _row_blocks(x0.shape[1] if cols is None else cols.size, 4 * dz.shape[1]):
            rows = s if cols is None else cols[s]
            g = x0[:, rows].T @ dz
            g *= lr32
            w[0][rows] -= g


_FUSED_RNG = np.random.default_rng(23)
# A 64-1024-512-3 net: W1 is 2 MB, four blocks, and W0 is one.
_WIDE_ARCH = ArchSpec((64, 1024, 512, 3))
# (architecture, rows, layer-0 path, frozen layers, input noise rate)
_FUSED_CASES = {
    "sparse": (_L0_ARCH, _sparse_batch(_FUSED_RNG, 8, 3000, 0.015), True, (), 0.2),
    "dense": (_L0_ARCH, _sparse_batch(_FUSED_RNG, 8, 3000, 0.3), False, (), 0.2),
    "frozen layer 0": (_L0_ARCH, _sparse_batch(_FUSED_RNG, 8, 3000, 0.015), True, (0,), 0.2),
    "frozen hidden layer": (_L0_ARCH, _sparse_batch(_FUSED_RNG, 8, 3000, 0.015), True, (1,), 0.2),
    "uint8 sparse, no noise": (_L0_ARCH, _sparse_batch(_FUSED_RNG, 8, 3000, 0.015), True, (), 0.0),
    "uint8 dense, no noise": (_L0_ARCH, _sparse_batch(_FUSED_RNG, 8, 3000, 0.3), False, (), 0.0),
    "wide hidden layers": (_WIDE_ARCH, _sparse_batch(_FUSED_RNG, 8, 64, 0.3), False, (), 0.2),
}


@pytest.mark.parametrize("case", sorted(_FUSED_CASES))
def test_fused_step_matches_the_two_phase_step_bit_for_bit(case):
    arch, x, sparse, frozen, noise = _FUSED_CASES[case]
    rows = x.astype(np.uint8) if case.startswith("uint8") else x
    y = np.arange(len(x)) % 3
    model = init_model(arch, seed=4)
    model.biases = [np.full_like(b, 0.05) for b in model.biases]
    for l in frozen:
        model.trainable[l] = False
    ref = _copy_model(model)
    regs = dict(dropout_rate=0.3, input_noise_rate=noise)
    assert _row_sparse(model.weights[0], rows) == sparse
    rng, ref_rng = np.random.default_rng(9), np.random.default_rng(9)
    for _ in range(3):
        train_step(model, rows, y, 0.1, rng=rng, **regs)
        _two_phase_step(ref, x, y, 0.1, ref_rng, **regs)
        assert _model_bytes(model) == _model_bytes(ref)
    assert rng.random() == ref_rng.random()


def test_train_step_holds_gradient_blocks_not_layers():
    # Every hidden matrix is 4 MB, eight blocks; W0 is 512 KiB, one block.
    model = init_model(ArchSpec((128, 1024, 1024, 1024, 4)), seed=0)
    x = _sparse_batch(np.random.default_rng(1), 8, 128, 0.2)
    y = np.arange(8) % 4
    rng = np.random.default_rng(2)
    peak = _peak_traced_bytes(
        lambda: train_step(model, x, y, 0.01, dropout_rate=0.5, input_noise_rate=0.2, rng=rng)
    )
    # One gradient block (each is dropped once applied, before the next is
    # formed) and the forward pass's activations, about half a block.
    assert peak < 2 * BLOCK_BYTES


# --- integer rows at inference ---


@pytest.mark.parametrize("density, sparse", [(0.015, True), (0.3, False)])
def test_forward_on_uint8_rows_matches_float32_rows_bit_for_bit(density, sparse):
    model = init_model(_L0_ARCH, seed=4)
    model.biases = [np.full_like(b, 0.05) for b in model.biases]
    x = _sparse_batch(np.random.default_rng(5), 12, 3000, density)
    rows = x.astype(np.uint8)
    assert _row_sparse(model.weights[0], rows) == sparse
    acts, probs = forward(model, rows)
    ref_acts, ref_probs = forward(model, x)
    assert acts[0] is rows  # the input layer is the rows as given, never cast
    pairs = zip(acts[1:], ref_acts[1:])
    assert all(a.dtype == np.float32 and a.tobytes() == r.tobytes() for a, r in pairs)
    assert probs.tobytes() == ref_probs.tobytes()
    y = np.arange(12) % 3
    got, ref = evaluate(model, rows, y), evaluate(model, x, y)
    assert got.accuracy == ref.accuracy
    assert got.confusion.tolist() == ref.confusion.tolist()
    assert penultimate_activations(model, rows).tobytes() == acts[-2].tobytes()


def test_row_sparse_inference_never_casts_the_whole_input():
    model = init_model(_L0_ARCH, seed=4)
    assert model.weights[0].nbytes > BLOCK_BYTES
    rows = _sparse_batch(np.random.default_rng(6), 200, 3000, 0.015).astype(np.uint8)
    y = np.arange(200) % 3
    assert _row_sparse(model.weights[0], rows)
    assert _peak_traced_bytes(evaluate, model, rows, y) < rows.size * 4
    assert _peak_traced_bytes(penultimate_activations, model, rows) < rows.size * 4


def test_frozen_trunk_head_matches_full_backward():
    arch = ArchSpec((30, 10, 8, 6, 3))
    frozen, full = init_model(arch, seed=2), init_model(arch, seed=2)
    frozen.trainable = [False, False, False, True]
    trunk = [a.tobytes() for a in frozen.weights[:-1] + frozen.biases[:-1]]
    x = _sparse_batch(np.random.default_rng(5), 6, 30, 0.1)
    y = np.array([0, 1, 2, 0, 1, 2])
    for m in (frozen, full):
        rng = np.random.default_rng(1)
        train_step(m, x, y, 0.05, dropout_rate=0.5, input_noise_rate=0.2, rng=rng)
    assert frozen.weights[-1].tobytes() == full.weights[-1].tobytes()
    assert frozen.biases[-1].tobytes() == full.biases[-1].tobytes()
    assert [a.tobytes() for a in frozen.weights[:-1] + frozen.biases[:-1]] == trunk
    assert full.weights[1].tobytes() != trunk[1]


# --- train ---


def test_train_zero_epochs_is_identity():
    m = init_model(ArchSpec((4, 3, 2)), seed=3)
    before = _model_bytes(m)
    records = train(m, np.ones((4, 4)), np.array([0, 1, 0, 1]), TrainConfig(epochs=0))
    assert records == []
    assert _model_bytes(m) == before


def test_train_deterministic_across_runs():
    cfg = TrainConfig(epochs=3, batch_size=2, seed=11, lr_final=1e-3)
    rng = np.random.default_rng(5)
    x = rng.random((12, 6)).astype(np.float32)
    y = rng.integers(0, 2, size=12)
    m1 = init_model(ArchSpec((6, 5, 2)), seed=4)
    m2 = init_model(ArchSpec((6, 5, 2)), seed=4)
    r1 = train(m1, x, y, cfg)
    r2 = train(m2, x, y, cfg)
    assert _model_bytes(m1) == _model_bytes(m2)
    assert r1 == r2


def test_train_loss_decreases_on_synthetic_corpus():
    corpus = generate_synthetic_corpus(
        SynthSpec(reports_per_family=50, noise_pool_size=100, seed=13)
    )
    vocab = build_vocabulary(corpus)
    rows, _, families = vectorize_corpus(corpus, vocab)
    _, labels = encode_labels(families)
    m = init_model(ArchSpec((len(vocab), 64, 32, 16, 4)), seed=5)
    cfg = TrainConfig(epochs=50, lr_final=1e-4, seed=6)
    records = train(m, rows, labels, cfg)
    assert len(records) == 50
    assert records[-1].train_loss < records[0].train_loss


def test_train_records_validation_accuracy():
    rng = np.random.default_rng(8)
    x = rng.random((20, 5)).astype(np.float32)
    y = rng.integers(0, 2, size=20)
    m = init_model(ArchSpec((5, 4, 2)), seed=0)
    records = train(m, x, y, TrainConfig(epochs=2, seed=1), validation=(x, y))
    assert all(r.val_acc is not None for r in records)
    records = train(m, x, y, TrainConfig(epochs=2, seed=1))
    assert all(r.val_acc is None for r in records)


def test_train_empty_set_errors():
    m = init_model(ArchSpec((4, 3, 2)), seed=0)
    with pytest.raises(ValueError, match="empty"):
        train(m, np.ones((0, 4)), np.array([], dtype=np.int64), TrainConfig(epochs=1))


def test_train_checks_every_row_before_the_first_step():
    m = init_model(ArchSpec((4, 3, 2)), seed=0)
    before = _model_bytes(m)
    x = np.ones((40, 4))
    x[-1, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        train(m, x, np.zeros(40, dtype=np.int64), TrainConfig(epochs=1))
    x[-1, 0] = 1.0
    with pytest.raises(ValueError, match="labels"):
        train(m, x, np.r_[np.zeros(39, dtype=np.int64), 2], TrainConfig(epochs=1))
    with pytest.raises(ValueError, match="align"):
        train(m, x, np.zeros(39, dtype=np.int64), TrainConfig(epochs=1))
    with pytest.raises(ValueError, match="labels are required"):
        train(m, x, None, TrainConfig(epochs=1))
    assert _model_bytes(m) == before


@pytest.mark.parametrize(
    "vx, vy, match",
    [
        (np.ones((6, 5)), np.zeros(6, dtype=np.int64), "width"),
        (np.full((6, 4), np.inf), np.zeros(6, dtype=np.int64), "finite"),
        (np.ones((6, 4)), np.full(6, 2), "labels"),
        (np.ones((6, 4)), np.zeros(5, dtype=np.int64), "align"),
        (np.ones((6, 4)), None, "labels are required"),
    ],
)
def test_train_checks_the_validation_pair_before_the_first_step(vx, vy, match):
    m = init_model(ArchSpec((4, 3, 2)), seed=0)
    before = _model_bytes(m)
    x = np.ones((8, 4), dtype=np.uint8)
    y = np.array([0, 1] * 4)
    with pytest.raises(ValueError, match=match):
        train(m, x, y, TrainConfig(epochs=2), validation=(vx, vy))
    assert _model_bytes(m) == before


def test_uint8_and_float32_rows_give_the_same_bits():
    rng = np.random.default_rng(4)
    x = (rng.random((16, 6)) < 0.3).astype(np.uint8)
    y = rng.integers(0, 3, size=16)
    models = [init_model(ArchSpec((6, 5, 3)), seed=2) for _ in range(2)]
    cfg = TrainConfig(epochs=3, batch_size=4, seed=9)
    records = [train(m, rows, y, cfg) for m, rows in zip(models, (x, x.astype(np.float32)))]
    assert _model_bytes(models[0]) == _model_bytes(models[1])
    assert records[0] == records[1]
    acts = [forward(models[0], rows)[0][1:] for rows in (x, x.astype(np.float32))]
    assert all(a.dtype == np.float32 and a.tobytes() == b.tobytes() for a, b in zip(*acts))


def test_train_frozen_layer_untouched_over_epochs():
    m = init_model(ArchSpec((5, 4, 3, 2)), seed=1)
    m.trainable[1] = False
    frozen_w = m.weights[1].tobytes()
    rng = np.random.default_rng(2)
    x = rng.random((16, 5)).astype(np.float32)
    y = rng.integers(0, 2, size=16)
    train(m, x, y, TrainConfig(epochs=3, seed=3))
    assert m.weights[1].tobytes() == frozen_w


def test_train_reports_numeric_failure_with_context():
    m = init_model(ArchSpec((4, 3, 2)), seed=1)
    m.weights[0][:] = np.nan
    with pytest.raises(NumericalError, match="epoch 0"):
        train(m, np.ones((4, 4)), np.array([0, 1, 0, 1]), TrainConfig(epochs=1))


def test_train_report_json_shape():
    m = init_model(ArchSpec((4, 3, 2)), seed=1)
    records = train(m, np.ones((4, 4)), np.array([0, 1, 0, 1]), TrainConfig(epochs=2))
    data = [dataclasses.asdict(r) for r in records]  # what --report-out writes
    assert [r["epoch"] for r in data] == [0, 1]
    assert all(list(r) == ["epoch", "lr", "train_loss", "val_acc"] for r in data)


# --- evaluate ---


def test_evaluate_tie_predicts_lowest_class():
    m = init_model(ArchSpec((3, 2)), seed=0)
    m.weights[0][:] = 0.0
    x = np.ones((4, 3), dtype=np.float32)
    y = np.array([0, 0, 1, 1])
    result = evaluate(m, x, y)
    assert result.accuracy == 0.5
    assert result.confusion.tolist() == [[2, 0], [2, 0]]


def test_evaluate_hand_built_separator():
    m = init_model(ArchSpec((2, 2)), seed=0)
    m.weights[0] = np.array([[5.0, -5.0], [-5.0, 5.0]], dtype=np.float32)
    m.biases[0][:] = 0.0
    x = np.array([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0], [0.2, 0.8]], dtype=np.float32)
    y = np.array([0, 0, 1, 1])
    result = evaluate(m, x, y)
    assert result.accuracy == 1.0
    assert result.confusion.tolist() == [[2, 0], [0, 2]]


def test_evaluate_confusion_sums_to_sample_count():
    m = init_model(ArchSpec((6, 4, 3)), seed=2)
    rng = np.random.default_rng(0)
    x = rng.random((30, 6))
    y = rng.integers(0, 3, size=30)
    result = evaluate(m, x, y)
    assert result.confusion.sum() == 30
    assert result.confusion.shape == (3, 3)


def test_evaluate_requires_labels():
    m = init_model(ArchSpec((4, 3, 2)), seed=0)
    with pytest.raises(ValueError, match="labels are required"):
        evaluate(m, np.ones((2, 4)), None)


# --- gradient_check ---


def test_gradient_check_small_net():
    x = np.random.default_rng(0).random(4)
    err = gradient_check(ArchSpec((4, 3, 2)), seed=1, sample=(x, 1), epsilon=1e-5)
    assert err < 1e-6


def test_gradient_check_multiple_seeds():
    rng = np.random.default_rng(3)
    for seed in range(5):
        x = rng.random(6)
        err = gradient_check(ArchSpec((6, 5, 4, 3)), seed=seed, sample=(x, 2), epsilon=1e-5)
        assert err < 1e-6


def test_gradient_check_through_row_sparse_layer0(monkeypatch):
    # The check's 16-unit limit keeps W0 under one block, so force the path;
    # a one-row block budget makes the gradient come from several blocks.
    taken = []
    monkeypatch.setattr(network, "_row_sparse", lambda w0, x: taken.append(w0.shape) or True)
    monkeypatch.setattr(network, "BLOCK_BYTES", 8 * 6)
    x = np.zeros(8)
    x[[2, 5]] = [1.0, 0.5]
    err = gradient_check(ArchSpec((8, 6, 5, 3)), seed=2, sample=(x, 1), epsilon=1e-5)
    assert taken and err < 1e-6


def test_gradient_check_guards_large_arch():
    with pytest.raises(ValueError, match="limited"):
        gradient_check(ArchSpec((40, 3, 2)), seed=0, sample=(np.ones(40), 0))
    with pytest.raises(ValueError, match="limited"):
        gradient_check(
            ArchSpec((4, 4, 4, 4, 4, 4)), seed=0, sample=(np.ones(4), 0)
        )


@pytest.mark.parametrize("label", [-1, 2])
def test_gradient_check_rejects_a_label_outside_the_classes(label):
    with pytest.raises(ValueError, match="label"):
        gradient_check(ArchSpec((4, 3, 2)), seed=0, sample=(np.ones(4), label))


def test_gradient_check_epsilon_guard():
    with pytest.raises(ValueError, match="epsilon"):
        gradient_check(ArchSpec((4, 3, 2)), seed=0, sample=(np.ones(4), 0), epsilon=1e-2)


# --- save / load ---


def test_model_round_trip_bit_exact(tmp_path):
    m = init_model(ArchSpec((7, 5, 4, 3)), seed=8)
    m.trainable[0] = False
    path = tmp_path / "m.model"
    save_model(m, path)
    back = load_model(path)
    assert back.arch == m.arch
    assert back.trainable == m.trainable
    assert _model_bytes(back) == _model_bytes(m)
    path2 = tmp_path / "again.model"
    save_model(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def _peak_traced_bytes(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_model_io_holds_no_second_copy(tmp_path):
    m = init_model(ArchSpec((4000, 256, 64, 4)), seed=0)
    path = tmp_path / "m.model"
    save_model(m, path)
    size = path.stat().st_size
    assert _peak_traced_bytes(load_model, path) <= 1.1 * size
    assert _peak_traced_bytes(save_model, m, path) <= 0.1 * size


def test_model_file_header(tmp_path):
    m = init_model(ArchSpec((3, 2)), seed=0)
    path = tmp_path / "m.model"
    save_model(m, path)
    raw = path.read_bytes()
    assert raw[:4] == b"APTM"
    assert int.from_bytes(raw[4:8], "little") == 1
    assert int.from_bytes(raw[8:10], "little") == 2


def test_model_rejects_bad_magic(tmp_path):
    path = tmp_path / "m.model"
    save_model(init_model(ArchSpec((3, 2)), seed=0), path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"NOPE"
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="APTM"):
        load_model(path)


def test_model_rejects_truncation(tmp_path):
    path = tmp_path / "m.model"
    save_model(init_model(ArchSpec((3, 2)), seed=0), path)
    raw = path.read_bytes()
    for cut in (3, 8, len(raw) - 2):
        path.write_bytes(raw[:cut])
        with pytest.raises(ValueError, match="truncated"):
            load_model(path)


def test_model_rejects_wrong_version(tmp_path):
    path = tmp_path / "m.model"
    save_model(init_model(ArchSpec((3, 2)), seed=0), path)
    raw = bytearray(path.read_bytes())
    raw[4] = 2
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="version"):
        load_model(path)


def test_model_rejects_a_trainable_flag_other_than_0_or_1(tmp_path):
    path = tmp_path / "m.model"
    save_model(init_model(ArchSpec((3, 2)), seed=0), path)
    raw = bytearray(path.read_bytes())
    assert raw[18] == 1  # after magic, version, layer count and two layer sizes
    raw[18] = 2
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="trainable flags must be 0 or 1"):
        load_model(path)


def test_model_rejects_a_layer_size_of_0_naming_the_file(tmp_path):
    path = tmp_path / "m.model"
    # sizes 4, 0, 2 and both flags set, then exactly the bytes those sizes
    # need: W1 is 0 x 2 and its bias 2 floats; W0 and its bias are empty.
    path.write_bytes(b"APTM" + struct.pack("<IH3I2B", 1, 3, 4, 0, 2, 1, 1) + bytes(4 * 2))
    with pytest.raises(FormatError, match=f"model file {re.escape(str(path))}: layer sizes"):
        load_model(path)


def test_model_rejects_trailing_bytes(tmp_path):
    path = tmp_path / "m.model"
    save_model(init_model(ArchSpec((3, 2)), seed=0), path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(ValueError, match="trailing"):
        load_model(path)

