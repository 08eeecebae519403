import csv
import dataclasses
import itertools
import tracemalloc
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from aptattrib.featurize import Vocabulary
from aptattrib.interpret import (
    EXAGGERATION,
    KL_EVERY,
    MOMENTUM_FINAL,
    MOMENTUM_INIT,
    P_FLOOR,
    STEP_SIZE,
    TILE,
    Embedding2D,
    TsneConfig,
    _search_block,
    _tile_pairs,
    _TsneIteration,
    embed_corpus,
    export_embedding_csv,
    export_scatter_svg,
    importance_csv,
    joint_affinities,
    olden_importance,
    tsne_embed,
)
from aptattrib.network import BLOCK_BYTES, ArchSpec, MlpModel, _row_blocks, init_model


def _vocab(n):
    return Vocabulary(
        entries=tuple((f"tok{i}", 1) for i in range(n)), corpus_docs=2, max_size=n
    )


def _model_from(weights):
    sizes = tuple(w.shape[0] for w in weights) + (weights[-1].shape[1],)
    m = init_model(ArchSpec(sizes), seed=0)
    m.weights = [np.asarray(w, dtype=np.float32) for w in weights]
    m.biases = [np.zeros(w.shape[1], dtype=np.float32) for w in weights]
    return m


def _paths_oracle(weights):
    """Sum of edge-weight products over every input-to-output path."""
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


# --- olden_importance ---


def test_olden_single_matrix_equals_weights():
    w = np.array([[1.0, -2.0], [3.0, 0.5], [-1.0, 1.0]])
    m = _model_from([w])
    ranking = olden_importance(m, _vocab(3))
    assert np.allclose(ranking.contributions, w, atol=1e-6)
    assert np.allclose(ranking.scores, [2.0, 3.0, 1.0], atol=1e-6)


def test_olden_identity_right_factor():
    w1 = np.array([[1.0, 2.0], [3.0, 4.0]])
    m = _model_from([w1, np.eye(2)])
    ranking = olden_importance(m, _vocab(2))
    assert np.allclose(ranking.contributions, w1, atol=1e-6)


def test_olden_matches_path_enumeration():
    rng = np.random.default_rng(17)
    for _ in range(10):
        n_mats = int(rng.integers(1, 5))
        sizes = [int(rng.integers(1, 6)) for _ in range(n_mats + 1)]
        weights = [rng.normal(size=(a, b)) for a, b in zip(sizes, sizes[1:])]
        m = _model_from(weights)
        ranking = olden_importance(m, _vocab(sizes[0]))
        oracle = _paths_oracle([w.astype(np.float64) for w in m.weights])
        assert np.abs(ranking.contributions - oracle).max() <= 1e-9


def test_olden_matches_left_to_right_product():
    rng = np.random.default_rng(8)
    for sizes in ((7, 5, 3), (9, 6, 6, 4, 2), (12, 10, 8, 6, 5, 3)):
        weights = [rng.normal(size=(a, b)) for a, b in zip(sizes, sizes[1:])]
        m = _model_from(weights)
        expected = m.weights[0].astype(np.float64)
        for w in m.weights[1:]:
            expected = expected @ w.astype(np.float64)
        ranking = olden_importance(m, _vocab(sizes[0]))
        np.testing.assert_allclose(ranking.contributions, expected, rtol=1e-12, atol=0)


def test_olden_widens_every_matrix_a_block_at_a_time():
    # W1 is 1024 x 512: 4 MB in float64, eight blocks; W0 is 12 MB in float64.
    m = init_model(ArchSpec((3000, 1024, 512, 3)), seed=5)
    assert m.weights[1].nbytes > 2 * BLOCK_BYTES
    vocab = _vocab(3000)
    tracemalloc.start()
    try:
        ranking = olden_importance(m, vocab)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The whole-matrix float64 chain, to 1e-12 of the summed |path products|:
    # blocks sum in another order, and entries that cancel to near zero
    # cannot keep a plain relative tolerance.
    w = [a.astype(np.float64) for a in m.weights]
    error = np.abs(ranking.contributions - w[0] @ (w[1] @ w[2]))
    assert (error <= 1e-12 * (np.abs(w[0]) @ (np.abs(w[1]) @ np.abs(w[2])))).all()
    # one float64 block, the narrow products and the ranking's own arrays
    assert peak < 2 * BLOCK_BYTES + 3 * ranking.contributions.nbytes


def test_olden_ranking_invariant_under_positive_rescale():
    rng = np.random.default_rng(23)
    sizes = [6, 4, 3, 2]
    weights = [rng.normal(size=(a, b)) for a, b in zip(sizes, sizes[1:])]
    base = olden_importance(_model_from(weights), _vocab(6))
    for k in range(len(weights)):
        scaled = [w.copy() for w in weights]
        scaled[k] *= 3.5
        ranking = olden_importance(_model_from(scaled), _vocab(6))
        assert ranking.order.tolist() == base.order.tolist()
        assert np.allclose(ranking.scores, 3.5 * base.scores, rtol=1e-5)


def test_olden_sorted_descending_ties_by_index():
    w = np.array([[2.0], [5.0], [-5.0], [1.0]])
    ranking = olden_importance(_model_from([w]), _vocab(4))
    assert ranking.order.tolist() == [1, 2, 0, 3]
    assert ranking.scores[ranking.order].tolist() == [5.0, 5.0, 2.0, 1.0]
    assert ranking.scores.tolist() == [2.0, 5.0, 5.0, 1.0]


def test_olden_width_mismatch():
    m = _model_from([np.ones((3, 2))])
    with pytest.raises(ValueError, match="vocabulary"):
        olden_importance(m, _vocab(4))


def test_importance_csv_shape():
    w = np.array([[2.0, 1.0], [5.0, 0.0], [1.0, -3.0]])
    ranking = olden_importance(_model_from([w]), _vocab(3))
    text = importance_csv(ranking)
    lines = text.strip().split("\n")
    assert lines[0] == "rank,feature_index,token,score,contrib_class_0,contrib_class_1"
    assert len(lines) == 4
    assert lines[1].startswith("0,1,tok1,5.0,")
    for top in (0, 2, 3, 5):
        assert importance_csv(ranking, top).splitlines() == lines[: 1 + min(top, 3)]


# --- t-SNE ---


def _clusters(rng, n_per=20, dim=10, spread=1.0, sep=40.0):
    centers = np.array(
        [[sep] * dim, [-sep] * dim, [sep] * (dim // 2) + [-sep] * (dim - dim // 2)]
    )
    pts = np.vstack([rng.normal(c, spread, size=(n_per, dim)) for c in centers])
    labels = np.repeat([0, 1, 2], n_per)
    return pts, labels


def test_tsne_config_validation():
    with pytest.raises(ValueError):
        TsneConfig(perplexity=0.5)
    with pytest.raises(ValueError):
        TsneConfig(iterations=0)
    for name in ("exaggeration_iters", "momentum_switch_iter"):
        with pytest.raises(ValueError, match=f"^{name} must be >= 0, got -1$"):
            TsneConfig(**{name: -1})
        assert getattr(TsneConfig(**{name: 0}), name) == 0


@pytest.mark.parametrize(
    "name", [f.name for f in dataclasses.fields(TsneConfig) if f.type == "float"]
)
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_tsne_config_rejects_non_finite(name, value):
    with pytest.raises(ValueError, match=name):
        TsneConfig(**{name: value})


def test_tsne_requires_enough_points():
    rng = np.random.default_rng(0)
    pts = rng.random((10, 5))
    with pytest.raises(ValueError, match="points"):
        tsne_embed(pts, config=TsneConfig(perplexity=5.0, iterations=5))


def test_tsne_rejects_non_finite():
    pts = np.ones((20, 3))
    pts[3, 1] = np.inf
    with pytest.raises(ValueError, match="finite"):
        tsne_embed(pts, config=TsneConfig(perplexity=2.0, iterations=5))


def test_tsne_rejects_label_mismatch():
    pts = np.random.default_rng(0).random((20, 3))
    with pytest.raises(ValueError, match="labels"):
        tsne_embed(pts, labels=["a"] * 19, config=TsneConfig(perplexity=2.0, iterations=5))


def _dense_p(tiles):
    """P as one n x n array, from the (a, b, w, tile) tuples joint_affinities returns."""
    n = tiles[-1][1].stop
    p = np.empty((n, n))
    for a, b, _, t in tiles:
        p[a, b] = t
        p[b, a] = t.T
    return p


def _search_rows(n):
    """The row blocks joint_affinities searches: each tile band's rows (TILE
    rows, the last band fewer) in sub-blocks of at most BLOCK_BYTES."""
    for band in _row_blocks(n, 8 * TILE):
        for s in _row_blocks(band.stop - band.start, 8 * n):
            yield slice(band.start + s.start, band.start + s.stop)


def _searched_blocks(x, perplexity, **kwargs):
    """The conditional affinities of each row block, searched as joint_affinities does."""
    sq = (x * x).sum(axis=1)
    return [_search_block(x, sq, s, np.log(perplexity), **kwargs) for s in _search_rows(len(x))]


def _dense_conditionals(x, perplexity, **kwargs):
    """The conditional affinities as one n x n array, from the search's row blocks."""
    return np.vstack(_searched_blocks(x, perplexity, **kwargs))


def test_joint_affinities_invariants():
    rng = np.random.default_rng(4)
    pts = rng.normal(size=(40, 8))
    p = _dense_p(joint_affinities(pts, perplexity=10.0))
    assert np.array_equal(p, p.T)
    assert (p >= 0).all()
    assert abs(p.sum() - 1.0) <= 1e-9


def test_joint_affinities_cast_integer_points():
    pts = np.random.default_rng(4).integers(0, 5, size=(40, 8))
    p = joint_affinities(pts, perplexity=10.0)
    expected = joint_affinities(pts.astype(np.float64), perplexity=10.0)
    assert len(p) == len(expected)
    for (a, b, w, t), (ea, eb, ew, e) in zip(p, expected):
        assert (a, b, w) == (ea, eb, ew) and np.array_equal(t, e)


@pytest.mark.parametrize("n", [40, 513])
def test_joint_affinities_return_contiguous_upper_tiles(n):
    p = joint_affinities(_cluster_points(n, seed=n), perplexity=10.0)
    cover = np.zeros((n, n), dtype=np.int64)
    for a, b, w, t in p:
        assert a.start <= b.start and w == (1.0 if a == b else 2.0)
        assert t.dtype == np.float64 and t.flags.c_contiguous
        assert t.shape == (a.stop - a.start, b.stop - b.start)
        assert max(t.shape) <= TILE
        cover[a, b] += 1
        if a != b:
            cover[b, a] += 1
    # every pair once, its mirror's tile included; tiles in row-major order
    assert (cover == 1).all()
    starts = [(a.start, b.start) for a, b, _, _ in p]
    assert starts == sorted(starts)


def test_bandwidth_search_hits_target_perplexity():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(60, 10))
    target = 12.0
    cond = _dense_conditionals(pts, target)
    for i in range(60):
        row = cond[i][cond[i] > 0]
        entropy = -(row * np.log(row)).sum()
        assert abs(entropy - np.log(target)) / np.log(2) < 1e-3


def test_tsne_deterministic_byte_exact():
    rng = np.random.default_rng(6)
    pts, labels = _clusters(rng)
    cfg = TsneConfig(perplexity=5.0, iterations=60, seed=3)
    e1 = tsne_embed(pts, labels=[str(l) for l in labels], config=cfg)
    e2 = tsne_embed(pts, labels=[str(l) for l in labels], config=cfg)
    assert e1.points.tobytes() == e2.points.tobytes()
    assert e1.kl_trace == e2.kl_trace


def test_tsne_separates_clusters_and_reduces_kl():
    rng = np.random.default_rng(7)
    pts, labels = _clusters(rng)
    cfg = TsneConfig(
        perplexity=5.0, iterations=300, seed=1, exaggeration_iters=50, momentum_switch_iter=50
    )
    emb = tsne_embed(pts, config=cfg)
    y = emb.points
    assert y.shape == (60, 2)
    assert np.isfinite(y).all()
    d = np.sqrt(((y[:, None, :] - y[None, :, :]) ** 2).sum(-1))
    same = labels[:, None] == labels[None, :]
    off_diag = ~np.eye(len(y), dtype=bool)
    assert d[same & off_diag].mean() < d[~same].mean()
    assert emb.kl_trace[-1][1] < emb.kl_trace[0][1]
    # the KL is computed at iteration 0, every KL_EVERY-th and the last
    assert KL_EVERY == 50
    assert [it for it, _ in emb.kl_trace] == [0, 50, 100, 150, 200, 250, 299]


def test_tsne_carries_labels():
    rng = np.random.default_rng(8)
    pts, labels = _clusters(rng, n_per=7)
    cfg = TsneConfig(perplexity=3.0, iterations=10, seed=0)
    emb = tsne_embed(pts, labels=[f"c{l}" for l in labels], config=cfg)
    assert emb.labels == tuple(f"c{l}" for l in labels)
    bare = tsne_embed(pts, config=cfg)
    assert bare.labels == tuple([None] * 21)


# --- row-blocked t-SNE against the dense per-row references ---


def _dense_squared_distances(x):
    sq = (x * x).sum(axis=1)
    d = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    np.fill_diagonal(d, 0.0)
    return np.maximum(d, 0.0)


def _blocked_squared_distances(x):
    """The squared distances _search_block forms for each row block
    (same blocks, same matmuls, so the same bits), as one n x n array."""
    sq = (x * x).sum(axis=1)
    d = np.add.outer(sq, sq)
    for s in _search_rows(len(x)):
        d[s] -= 2.0 * (x[s] @ x.T)
    np.fill_diagonal(d, 0.0)
    return np.maximum(d, 0.0)


def _dense_step(p, y, update, factor, momentum):
    """One exact t-SNE iteration on whole n x n arrays; returns (y, update, grad, KL)."""
    num = 1.0 / (1.0 + _dense_squared_distances(y))
    np.fill_diagonal(num, 0.0)
    q = np.maximum(num / num.sum(), P_FLOOR)
    pq_num = (p * factor - q) * num
    grad = 4.0 * (np.diag(pq_num.sum(axis=1)) - pq_num) @ y
    update = momentum * update - STEP_SIZE * grad
    y = y + update
    return y - y.mean(axis=0), update, grad, float((p * np.log(p / q)).sum())


def _per_row_affinities(sq_dists, perplexity, tol=1e-5, max_iter=50, steps=None):
    """The safeguarded Newton bandwidth search one point at a time.

    Each point starts from the mean of its distances, then measures them
    from its nearest other point, as the row-blocked search does. Its row
    holds its own zero distance, so its sums run over the same n terms in
    the same order as the row-blocked search's, but its own affinity is
    zeroed after the exp. steps, a list, gets one string per point: "N" for
    each Newton update, "F" for each double, halve or bisect.
    """

    def evaluate(row, i, beta):
        """Entropy, Var_p(d) and the normalized row at beta."""
        p = np.exp(-row * beta)
        p[i] = 0.0
        sum_p = p.sum()
        mean = np.einsum("i,i->", row, p) / sum_p
        var = np.einsum("i,i,i->", row, row, p) / sum_p - mean * mean
        return np.log(sum_p) + beta * mean, var, p / sum_p

    n = sq_dists.shape[0]
    target = np.log(perplexity)
    cond = np.zeros((n, n))
    for i in range(n):
        row = sq_dists[i]
        total = row.sum()
        beta = (n - 1) / total if total > 0.0 else 1.0
        row = row - np.delete(row, i).min()
        row[i] = 0.0
        beta_min, beta_max = 0.0, np.inf
        h, var, p = evaluate(row, i, beta)
        taken = ""
        for _ in range(max_iter):
            if abs(h - target) < tol:
                break
            if h > target:
                beta_min = beta
                fallback = beta * 2.0 if beta_max == np.inf else (beta + beta_max) / 2.0
            else:
                beta_max = beta
                fallback = (beta + beta_min) / 2.0
            with np.errstate(divide="ignore", over="ignore"):
                newton = beta + (h - target) / (beta * var) if var > 0.0 else np.nan
            if beta_min < newton < beta_max:
                beta, taken = newton, taken + "N"
            else:
                beta, taken = fallback, taken + "F"
            h, var, p = evaluate(row, i, beta)
        cond[i] = p
        if steps is not None:
            steps.append(taken)
    return cond


def _cluster_points(n, seed, dim=10):
    rng = np.random.default_rng(seed)
    centers = rng.normal(0.0, 15.0, size=(3, dim))
    return np.maximum(centers[np.arange(n) % 3] + rng.normal(0.0, 1.5, size=(n, dim)), 0.0)


def _assert_close(actual, expected, rtol):
    """Largest difference within rtol of the reference's largest magnitude."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert np.abs(actual - expected).max() <= rtol * np.abs(expected).max()


# Point counts and the search blocks they give: each tile band of TILE rows
# is cut in sub-blocks of BLOCK_BYTES // (8 n) rows. One sub-block inside
# the one band (200) or filling it exactly (256); a band ending in a 1-row
# sub-block, then a 1-row band (257); a band ending in a short sub-block
# (361, 362); two sub-blocks exactly filling each band (512); and several
# bands with a short last one (571).
EDGE_SIZES = {
    200: (200,),
    256: (256,),
    257: (255, 1, 1),
    361: (181, 75, 105),
    362: (181, 75, 106),
    512: (128,) * 4,
    571: (114, 114, 28) * 2 + (59,),
}


def test_row_blocks_cover_the_edge_sizes():
    assert BLOCK_BYTES == 1 << 19 and TILE == 256, "EDGE_SIZES follows the block budget and tile side"
    for n, sizes in EDGE_SIZES.items():
        blocks = list(_search_rows(n))
        assert tuple(s.stop - s.start for s in blocks) == sizes
        assert blocks[0].start == 0 and blocks[-1].stop == n
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))


# Point counts whose upper-triangle tiles (TILE = 256 points a side) end:
# inside one tile, filling exactly one, one point past it, one short of two,
# filling two, one past two, and a short third tile.
TILE_EDGE_SIZES = (200, 256, 257, 511, 512, 513, 571)


def _assert_step_matches_dense(tiles, y, update, factor, momentum, rows=slice(None)):
    step = _TsneIteration(tiles)
    p = _dense_p(tiles)
    y_ref, update_ref, grad_ref, kl_ref = _dense_step(p, y, update, factor, momentum)
    y_new, update_new, kl = step(y, update, factor, momentum, kl=True)
    _assert_close(step.grad[rows], grad_ref[rows], 1e-12)
    _assert_close(update_new, update_ref, 1e-12)
    _assert_close(y_new, y_ref, 1e-12)
    assert abs(kl - kl_ref) <= 1e-12 * abs(kl_ref)


@pytest.mark.parametrize("n", sorted(set(EDGE_SIZES) | set(TILE_EDGE_SIZES)))
def test_blocked_iteration_matches_dense_reference(n):
    assert TILE == 256, "TILE_EDGE_SIZES follows the tile side"
    p = joint_affinities(_cluster_points(n, seed=n), perplexity=20.0)
    rng = np.random.default_rng(n)
    y = rng.normal(0.0, 5.0, size=(n, 2))
    update = rng.normal(0.0, 0.5, size=(n, 2))
    # before the exaggeration and momentum switch, then after it
    for factor, momentum in ((EXAGGERATION, MOMENTUM_INIT), (1.0, MOMENTUM_FINAL)):
        _assert_step_matches_dense(p, y, update, factor, momentum)


# At 1,200 points the search's sub-blocks are 54 rows, so every band of 256
# rows ends in a short sub-block of 40.
@pytest.mark.parametrize("n", TILE_EDGE_SIZES + (1200,))
def test_joint_affinities_symmetrize_in_place_exactly(n):
    x = _cluster_points(n, seed=n)
    c = _dense_conditionals(x, 20.0)
    expected = (c + c.T) / (2.0 * n)
    np.maximum(expected, P_FLOOR, out=expected)
    p = joint_affinities(x, perplexity=20.0)
    # the sum over the upper-triangle tiles, an off-diagonal tile counting twice
    total = 0.0
    for a, b, w, _ in p:
        total += w * float(np.ascontiguousarray(expected[a, b]).sum())
    expected /= total
    assert np.array_equal(_dense_p(p), expected)


def _tile_step_case(n, far=()):
    """P of n cluster points, and y and update for one step; the far points
    are moved about 1e6 out, so thousands of their pairs have Q floored."""
    p = joint_affinities(_cluster_points(n, seed=7), perplexity=20.0)
    rng = np.random.default_rng(7)
    y = rng.normal(0.0, 5.0, size=(n, 2))
    y[np.asarray(far, dtype=np.intp)] = rng.normal(0.0, 1e6, size=(len(far), 2))
    update = rng.normal(0.0, 0.5, size=(n, 2))
    num = 1.0 / (1.0 + _dense_squared_distances(y))
    np.fill_diagonal(num, 0.0)
    floored = num / num.sum() < P_FLOOR
    np.fill_diagonal(floored, False)
    assert floored.sum() > 4000 if len(far) else not floored.any()
    return p, y, update


FAR = np.array([3, 200, 260, 400, 512])  # in the first, second and third tiles of 513


def test_tiled_iteration_keeps_the_q_floor_exact():
    p, y, update = _tile_step_case(513, FAR)
    for factor, momentum in ((EXAGGERATION, MOMENTUM_INIT), (1.0, MOMENTUM_FINAL)):
        _assert_step_matches_dense(p, y, update, factor, momentum)
        # the floor's repulsion shows in the far points' own gradient rows
        _assert_step_matches_dense(p, y, update, factor, momentum, rows=FAR)


@pytest.mark.parametrize("far", [(), FAR], ids=["ordinary", "far-points"])
def test_tsne_step_without_the_kl_keeps_its_bits(far):
    # the KL's passes only read the kernel, so skipping them (and, with far
    # points, the floored pairs' log gaps) leaves every gradient bit alone
    p, y, update = _tile_step_case(513, far)
    for factor, momentum in ((EXAGGERATION, MOMENTUM_INIT), (1.0, MOMENTUM_FINAL)):
        with_kl, without = _TsneIteration(p), _TsneIteration(p)
        y_on, update_on, kl = with_kl(y, update, factor, momentum, kl=True)
        y_off, update_off, no_kl = without(y, update, factor, momentum)
        assert np.isfinite(kl) and no_kl is None
        assert y_off.tobytes() == y_on.tobytes()
        assert update_off.tobytes() == update_on.tobytes()
        assert without.grad.tobytes() == with_kl.grad.tobytes()


def test_tsne_embed_matches_dense_loop_across_the_switch():
    n = 362
    x = _cluster_points(n, seed=4)
    cfg = TsneConfig(
        perplexity=20.0, iterations=12, exaggeration_iters=5, momentum_switch_iter=7, seed=9
    )
    emb = tsne_embed(x, config=cfg)
    p = _dense_p(joint_affinities(x, cfg.perplexity))
    y = np.random.default_rng(cfg.seed).normal(0.0, 1e-4, size=(n, 2))
    update = np.zeros_like(y)
    kl_trace = []
    for it in range(cfg.iterations):
        factor = EXAGGERATION if it < cfg.exaggeration_iters else 1.0
        momentum = MOMENTUM_INIT if it < cfg.momentum_switch_iter else MOMENTUM_FINAL
        y, update, _, kl = _dense_step(p, y, update, factor, momentum)
        kl_trace.append(kl)
    _assert_close(emb.points, y, 1e-12)
    # 12 iterations record the KL at the first and the last alone
    assert [it for it, _ in emb.kl_trace] == [0, 11]
    _assert_close([kl for _, kl in emb.kl_trace], [kl_trace[0], kl_trace[11]], 1e-12)


@pytest.mark.parametrize("n", sorted(EDGE_SIZES))
def test_conditional_affinities_match_per_row_search(n):
    x = _cluster_points(n, seed=n + 1)
    fast = _dense_conditionals(x, 15.0)
    ref = _per_row_affinities(_blocked_squared_distances(x), 15.0)
    assert np.array_equal(fast == 0.0, ref == 0.0)
    assert (ref == 0.0).any()
    np.testing.assert_allclose(fast, ref, rtol=1e-14, atol=np.finfo(np.float64).tiny)


def test_conditional_affinities_cap_at_max_iter_and_ignore_the_diagonal():
    x = _cluster_points(120, seed=3)
    sq_dists = _blocked_squared_distances(x)
    for max_iter in (0, 1, 4):
        fast = _dense_conditionals(x, 10.0, max_iter=max_iter)
        # the reference zeroes each point's own affinity in its row
        assert (np.diagonal(fast) == 0.0).all()
        ref = _per_row_affinities(sq_dists, 10.0, max_iter=max_iter)
        np.testing.assert_allclose(fast, ref, rtol=1e-14, atol=np.finfo(np.float64).tiny)


def test_conditional_affinities_clamp_rounded_distances_at_zero():
    x = 1e4 + _cluster_points(120, seed=3)
    x[60:] = x[:60]  # duplicates far from the origin
    sq = (x * x).sum(axis=1)
    assert (np.add.outer(sq, sq) - 2.0 * (x @ x.T) < 0.0).any()
    fast = _dense_conditionals(x, 10.0)
    ref = _per_row_affinities(_blocked_squared_distances(x), 10.0)
    np.testing.assert_allclose(fast, ref, rtol=1e-14, atol=np.finfo(np.float64).tiny)


def _entropies(cond):
    """Each row's entropy in nats, from its normalized conditional affinities."""
    return -np.einsum("ij,ij->i", cond, np.log(np.where(cond > 0.0, cond, 1.0)))


def test_bandwidth_search_takes_few_evaluations_per_block(monkeypatch):
    x = _cluster_points(1200, seed=1)
    evaluations = []
    exp = np.exp

    def counting_exp(a, *args, **kwargs):
        evaluations.append(np.ndim(a) == 2)  # each evaluation exps a whole row block
        return exp(a, *args, **kwargs)

    monkeypatch.setattr(np, "exp", counting_exp)
    entropies = [_entropies(c) for c in _searched_blocks(x, 30.0)]
    monkeypatch.undo()
    # bisection from beta = 1 takes about 21 evaluations per block here
    assert sum(evaluations) <= 10 * len(entropies)
    # recomputed from the normalized rows, so within rounding of the search's own
    off = np.abs(np.concatenate(entropies) - np.log(30.0))
    assert off.max() < 1e-5 + 1e-10


def test_conditional_affinities_fall_back_off_the_newton_step():
    x = 1e4 + _cluster_points(120, seed=3)
    x[60:] = x[:60]  # duplicates far from the origin
    # an outlier whose affinities, unless measured from its nearest other
    # point, all underflow at the betas it needs
    x[0] += 1e3
    steps = []
    ref = _per_row_affinities(_blocked_squared_distances(x), 10.0, steps=steps)
    fast = _dense_conditionals(x, 10.0)
    np.testing.assert_allclose(fast, ref, rtol=1e-14, atol=np.finfo(np.float64).tiny)
    # Newton steps do most of the work; the outlier and some rows that
    # converge still leave their bracket, and every row, the outlier
    # included, ends within tol long before max_iter
    assert sum(s.count("N") for s in steps) > 100
    assert "F" in steps[0]
    assert sum(s.count("F") for s in steps[1:]) > 0
    assert max(len(s) for s in steps) < 50
    assert (np.abs(_entropies(fast) - np.log(10.0)) < 1e-5 + 1e-10).all()


def test_tsne_embed_peaks_in_the_affinities():
    n = 800
    x = _cluster_points(n, seed=1)
    tracemalloc.start()
    try:
        tsne_embed(x, config=TsneConfig(perplexity=20.0, iterations=3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # joint_affinities holds P's upper-triangle tiles (3.35 MB at n = 800,
    # against 5.12 MB for n x n) and two blocks of search scratch; the
    # iterations hold the tiles and two tile buffers. No n x n array.
    tile_bytes = sum(8 * (a.stop - a.start) * (b.stop - b.start) for a, b, _ in _tile_pairs(n))
    assert peak < tile_bytes + 3 * BLOCK_BYTES


def test_tsne_iteration_holds_two_tiles_and_o_n():
    n = 800
    p = joint_affinities(_cluster_points(n, seed=1), perplexity=20.0)
    rng = np.random.default_rng(1)
    y = rng.normal(0.0, 5.0, size=(n, 2))
    update = np.zeros_like(y)
    tracemalloc.start()
    try:
        step = _TsneIteration(p)
        step(y, update, EXAGGERATION, MOMENTUM_INIT)
        y[:5] *= 1e6  # a second step, with the KL, that passes over floored tiles
        step(y, update, 1.0, MOMENTUM_FINAL, kl=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # two tile buffers of BLOCK_BYTES and about 29 n float64 values (1.23 MB)
    assert peak < 2 * BLOCK_BYTES + 64 * n * 8


# --- embed_corpus ---


def test_embed_corpus_uses_penultimate_and_carries_labels():
    model = init_model(ArchSpec((12, 8, 5, 2)), seed=3)
    rng = np.random.default_rng(9)
    rows = (rng.random((30, 12)) > 0.5).astype(np.uint8)
    nations = [f"n{i % 2}" for i in range(30)]
    families = [f"f{i % 3}" for i in range(30)]
    cfg = TsneConfig(perplexity=4.0, iterations=15, seed=2)
    emb = embed_corpus(model, rows, nations, cfg)
    assert len(emb.points) == 30
    assert emb.labels == tuple(nations)
    emb_f = embed_corpus(model, rows, families, cfg)
    assert emb_f.labels == tuple(families)
    assert emb_f.points.tobytes() == emb.points.tobytes()


# --- exports ---


def _tiny_embedding():
    points = np.array([[0.0, 0.0], [1.0, 2.0], [-1.0, -2.0], [0.5, 0.5]])
    return Embedding2D(points=points, labels=("a", "b", "a", None), kl_trace=[(0, 0.5), (1, 0.4)])


def test_export_embedding_csv(tmp_path):
    path = tmp_path / "e.csv"
    export_embedding_csv(_tiny_embedding(), path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "id,label,x,y"
    assert len(lines) == 5
    assert lines[1] == "0,a,0.0,0.0"
    assert lines[4].startswith("3,,")


def _awkward_embedding():
    points = np.array([[0.0, 0.0], [1.0, 2.0], [-1.0, -2.0], [0.5, 0.5]])
    return Embedding2D(points=points, labels=("A&B", "<x>", '"q"', "x,y\nz"), kl_trace=[(0, 0.5)])


def test_export_embedding_csv_keeps_each_label_one_field(tmp_path):
    path = tmp_path / "e.csv"
    embedding = _awkward_embedding()
    export_embedding_csv(embedding, path)
    rows = list(csv.reader(path.open(newline="")))
    assert rows[0] == ["id", "label", "x", "y"]
    assert [r[1] for r in rows[1:]] == list(embedding.labels)
    assert [[float(r[2]), float(r[3])] for r in rows[1:]] == embedding.points.tolist()


def test_export_embedding_csv_quotes_a_bare_carriage_return(tmp_path):
    plain = _awkward_embedding()
    embedding = Embedding2D(
        points=np.vstack([plain.points, [[3.0, -0.25]]]),
        labels=(*plain.labels, "a\rb"),
        kl_trace=[(0, 0.5)],
    )
    export_embedding_csv(plain, tmp_path / "plain.csv")
    export_embedding_csv(embedding, tmp_path / "e.csv")
    rows = list(csv.reader((tmp_path / "e.csv").open(newline="")))
    assert [r[1] for r in rows[1:]] == list(embedding.labels)
    assert [[float(r[2]), float(r[3])] for r in rows[1:]] == embedding.points.tolist()
    written = (tmp_path / "e.csv").read_bytes()
    assert written == (tmp_path / "plain.csv").read_bytes() + b'4,"a\rb",3.0,-0.25\n'


def test_export_scatter_svg_escapes_labels(tmp_path):
    path = tmp_path / "e.svg"
    embedding = _awkward_embedding()
    export_scatter_svg(embedding, path)
    root = ET.parse(path).getroot()
    texts = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
    assert texts == sorted(embedding.labels)


def test_export_scatter_svg_keeps_a_carriage_return_in_a_legend_label(tmp_path):
    emb = Embedding2D(points=np.array([[0.0, 1.0], [2.0, 3.0]]), labels=("a\rb", "c"))
    export_scatter_svg(emb, tmp_path / "e.svg")
    root = ET.parse(tmp_path / "e.svg").getroot()
    assert [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")] == ["a\rb", "c"]
    assert b"a&#13;b" in (tmp_path / "e.svg").read_bytes()


def test_export_scatter_svg_structure(tmp_path):
    path = tmp_path / "e.svg"
    export_scatter_svg(_tiny_embedding(), path)
    svg = path.read_text()
    assert svg.count("<circle") == 4
    assert svg.count("<text") == 3
    assert 'width="800"' in svg and 'height="600"' in svg


def test_export_scatter_svg_single_point_centered(tmp_path):
    emb = Embedding2D(points=np.array([[3.0, 7.0]]), labels=("only",), kl_trace=[(0, 0.1)])
    path = tmp_path / "one.svg"
    export_scatter_svg(emb, path)
    assert '<circle cx="400.00" cy="300.00"' in path.read_text()


def test_export_scatter_svg_empty_errors(tmp_path):
    emb = Embedding2D(points=np.zeros((0, 2)), labels=(), kl_trace=[])
    with pytest.raises(ValueError, match="empty"):
        export_scatter_svg(emb, tmp_path / "x.svg")


def test_export_scatter_svg_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
    export_scatter_svg(_tiny_embedding(), p1)
    export_scatter_svg(_tiny_embedding(), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_penultimate_feeds_tsne_width():
    model = init_model(default_arch_small(), seed=0)
    from aptattrib.network import penultimate_activations

    rows = np.ones((3, 20), dtype=np.float32)
    assert penultimate_activations(model, rows).shape == (3, 6)


def default_arch_small():
    return ArchSpec((20, 10, 6, 2))
