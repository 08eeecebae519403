import tracemalloc

import numpy as np
import pytest

from aptattrib.network import (
    ArchSpec,
    TrainConfig,
    evaluate,
    init_model,
    load_model,
    save_model,
    train_step,
)
from aptattrib.transfer import replace_head, transfer_train


def _trunk_bytes(model):
    return b"".join(
        w.tobytes() + b.tobytes()
        for w, b in zip(model.weights[:-1], model.biases[:-1])
    )


def test_replace_head_keeps_trunk_bytes():
    base = init_model(ArchSpec((10, 8, 5, 4)), seed=1)
    swapped = replace_head(base, 2, seed=2)
    assert swapped.arch.layer_sizes == (10, 8, 5, 2)
    assert _trunk_bytes(swapped) == _trunk_bytes(base)
    assert swapped.weights[-1].shape == (5, 2)
    assert not swapped.biases[-1].any()


def test_replace_head_same_size_still_reinitializes():
    base = init_model(ArchSpec((6, 5, 4)), seed=1)
    swapped = replace_head(base, 4, seed=9)
    assert swapped.arch == base.arch
    assert _trunk_bytes(swapped) == _trunk_bytes(base)
    assert swapped.weights[-1].tobytes() != base.weights[-1].tobytes()


def test_replace_head_draws_init_models_head():
    base = init_model(ArchSpec((10, 8, 5, 4)), seed=1)
    swapped = replace_head(base, 3, seed=7)
    fresh = init_model(ArchSpec((5, 3)), seed=7)
    assert swapped.weights[-1].tobytes() == fresh.weights[0].tobytes()
    assert swapped.biases[-1].tobytes() == fresh.biases[0].tobytes()


def test_replace_head_deterministic_in_seed():
    base = init_model(ArchSpec((6, 5, 4)), seed=1)
    a = replace_head(base, 2, seed=3)
    b = replace_head(base, 2, seed=3)
    assert a.weights[-1].tobytes() == b.weights[-1].tobytes()
    c = replace_head(base, 2, seed=4)
    assert a.weights[-1].tobytes() != c.weights[-1].tobytes()


def test_replace_head_is_independent_copy():
    base = init_model(ArchSpec((6, 5, 4)), seed=1)
    before = _trunk_bytes(base)
    swapped = replace_head(base, 2, seed=3)
    with pytest.raises(ValueError, match="read-only"):
        swapped.weights[0][0, 0] += 1.0
    assert _trunk_bytes(base) == before


def test_replace_head_shares_a_read_only_trunk():
    base = init_model(ArchSpec((8, 7, 6, 5, 4)), seed=1)
    swapped = replace_head(base, 2, seed=3)
    assert swapped.trainable == [False, False, False, True]
    trunk = zip(swapped.weights[:-1] + swapped.biases[:-1], base.weights[:-1] + base.biases[:-1])
    for mine, theirs in trunk:
        assert np.shares_memory(mine, theirs)
        assert not mine.flags.writeable
        with pytest.raises(ValueError):
            mine += 1.0
    assert base.weights[0].flags.writeable
    assert swapped.weights[-1].flags.writeable and swapped.biases[-1].flags.writeable


def test_replace_head_allocates_no_trunk():
    base = init_model(ArchSpec((4000, 256, 64, 4)), seed=1)
    size = sum(w.nbytes + b.nbytes for w, b in zip(base.weights, base.biases))
    tracemalloc.start()
    try:
        replace_head(base, 2, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 0.01 * size


def test_replace_head_rejects_single_matrix_model():
    base = init_model(ArchSpec((5, 2)), seed=0)
    with pytest.raises(ValueError, match="too small"):
        replace_head(base, 2, seed=0)


def test_replace_head_rejects_bad_class_count():
    base = init_model(ArchSpec((6, 5, 4)), seed=1)
    with pytest.raises(ValueError):
        replace_head(base, 0, seed=0)


def test_frozen_head_moves_when_gradient_nonzero():
    m = replace_head(init_model(ArchSpec((6, 5, 4)), seed=1), 2, seed=2)
    head_before = m.weights[-1].tobytes()
    trunk_before = _trunk_bytes(m)
    train_step(m, np.ones((2, 6)), np.array([0, 1]), lr=0.1)
    assert m.weights[-1].tobytes() != head_before
    assert _trunk_bytes(m) == trunk_before


def _toy_task(rng, n=60):
    x = np.zeros((n, 8), dtype=np.float32)
    y = rng.integers(0, 2, size=n)
    x[y == 0, :4] = rng.random((int((y == 0).sum()), 4)) > 0.3
    x[y == 1, 4:] = rng.random((int((y == 1).sum()), 4)) > 0.3
    return x, y


def test_transfer_train_trunk_byte_identity():
    rng = np.random.default_rng(0)
    x, y = _toy_task(rng)
    base = init_model(ArchSpec((8, 6, 4, 3)), seed=5)
    before = _trunk_bytes(base)
    cfg = TrainConfig(epochs=10, lr_final=1e-3, seed=6, dropout_rate=0.0, input_noise_rate=0.0)
    model, records = transfer_train(base, 2, x, y, cfg)
    assert model.arch.layer_sizes == (8, 6, 4, 2)
    assert _trunk_bytes(model) == _trunk_bytes(base) == before
    assert np.shares_memory(model.weights[0], base.weights[0])
    assert model.trainable == [False, False, True]
    assert len(records) == 10


def test_transfer_train_zero_epochs_keeps_fresh_head():
    base = init_model(ArchSpec((8, 6, 4)), seed=5)
    cfg = TrainConfig(epochs=0, seed=6)
    model, records = transfer_train(base, 2, np.ones((4, 8)), np.array([0, 1, 0, 1]), cfg)
    fresh = replace_head(base, 2, seed=cfg.seed)
    assert model.weights[-1].tobytes() == fresh.weights[-1].tobytes()
    assert records == []


def test_saved_transferred_model_loads_writable(tmp_path):
    base = init_model(ArchSpec((8, 6, 4, 3)), seed=5)
    cfg = TrainConfig(epochs=1)
    model, _ = transfer_train(base, 2, np.ones((4, 8)), np.array([0, 1, 0, 1]), cfg)
    assert not model.weights[0].flags.writeable
    path = tmp_path / "nation.model"
    save_model(model, path)
    back = load_model(path)
    assert back.trainable == [False, False, True]
    assert _trunk_bytes(back) == _trunk_bytes(model)
    assert all(a.flags.writeable for a in back.weights + back.biases)


def test_transfer_learns_head_only_task():
    # A head retrained on a random (untrained) trunk cannot reach full accuracy,
    # but it must beat chance by a wide margin on its own training data.
    rng = np.random.default_rng(1)
    x, y = _toy_task(rng, n=120)
    base = init_model(ArchSpec((8, 16, 8, 3)), seed=8)
    cfg = TrainConfig(
        epochs=60, lr_init=0.5, lr_final=0.01, seed=9, dropout_rate=0.0, input_noise_rate=0.0
    )
    model, _ = transfer_train(base, 2, x, y, cfg)
    assert evaluate(model, x, y).accuracy >= 0.75
