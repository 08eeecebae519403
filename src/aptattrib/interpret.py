"""Model interpretation: connection-weight feature importance and 2D embedding.

Importance follows the connection-weights idea: multiply the weight matrices
straight through (biases and nonlinearities excluded) so entry [i, c] sums
the products of edge weights over every input-i to class-c path. It is
one right-to-left float64 chain, so every intermediate product is as
narrow as the class count, and each weight matrix is widened to float64 a
row block of at most network.BLOCK_BYTES at a time, never whole. The
embedding is exact O(n^2) t-SNE driven by the penultimate layer's
activations, in pieces of at most network.BLOCK_BYTES, the budget
init_model's draws also use. P is kept only as its TILE x TILE tiles on and
above the diagonal, each its own contiguous array, and joint_affinities
hands each one back with its coordinates, as (a, b, w, tile). The bandwidth
search takes safeguarded Newton steps on the entropy for a row block of
points at once, on that block's squared distances, starting each point at
1 / its mean distance and bisecting where a Newton step would leave the
point's bracket. The blocks nest in the tile bands (the rows of one
diagonal tile), so each finished block goes straight into its band's
tiles: its rows into the tiles on or above the diagonal, their transposes
added into the mirror tiles above. Each iteration is one sweep over the
same tiles. P and the Student-t kernel are symmetric, so each pair's
kernel is formed once and gives the normalizer z and both gradient terms
of the pair and its mirror, and the KL at the iterations that record it
(0, every KL_EVERY-th and the last); the others skip its log and P log k
passes. Building P and iterating each hold P's tiles, about
n^2 / 2 + n TILE / 2 float64 values, and a few blocks; no n x n array is
made.
"""

from __future__ import annotations

import csv
import html
from dataclasses import dataclass, field
from math import isqrt
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import _check_fields
from .featurize import Vocabulary
from .network import BLOCK_BYTES, MlpModel, _row_blocks, penultimate_activations

P_FLOOR = 1e-12
# The fixed schedule of van der Maaten's reference t-SNE code (JMLR 15, 2014):
# step size, early exaggeration factor, and momentum before and after the switch.
STEP_SIZE = 200.0
EXAGGERATION = 12.0
MOMENTUM_INIT = 0.5
MOMENTUM_FINAL = 0.8
# Like that code, the KL is computed only every KL_EVERY iterations and at the last.
KL_EVERY = 50
# Side of a t-SNE tile: TILE x TILE float64 pairs fill one block.
TILE = isqrt(BLOCK_BYTES // 8)
SVG_WIDTH = 800
SVG_HEIGHT = 600
SVG_MARGIN = 20
PALETTE = (
    "#1f77b4",
    "#ff7f0e",
    "#2ca02c",
    "#d62728",
    "#9467bd",
    "#8c564b",
    "#e377c2",
    "#7f7f7f",
)


@dataclass
class ImportanceRanking:
    """Per-feature contributions and the descending-score rank order.

    tokens, contributions, and scores are in feature-index order; order[r]
    is the feature index at rank r (score descending, ties by index).
    """

    tokens: tuple[str, ...]
    contributions: np.ndarray
    scores: np.ndarray
    order: np.ndarray


@dataclass(frozen=True)
class TsneConfig:
    perplexity: float = 30.0
    iterations: int = 1000
    exaggeration_iters: int = 250
    momentum_switch_iter: int = 250
    seed: int = 0

    def __post_init__(self):
        _check_fields(self)
        if self.perplexity < 1.0:
            raise ValueError(f"perplexity must be >= 1, got {self.perplexity}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        for name in ("exaggeration_iters", "momentum_switch_iter"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")


@dataclass
class Embedding2D:
    """2D coordinates per sample, carried labels, and the KL trace: one
    (iteration, KL) pair per iteration the KL was computed at (tsne_embed's
    are 0, every KL_EVERY-th and the last)."""

    points: np.ndarray
    labels: tuple[str | None, ...]
    kl_trace: list[tuple[int, float]] = field(default_factory=list)


def olden_importance(model: MlpModel, vocab: Vocabulary) -> ImportanceRanking:
    """Rank vocabulary features by connection-weight contribution.

    M = W1 @ (W2 @ (... @ WL)) in float64; score_i = max_c |M[i, c]|. One
    loop goes right to left from the identity, so every intermediate
    product is as narrow as the class count, and multiplies each matrix,
    widened to float64 one row block at a time, into the running product.
    Beyond the output it holds one float64 block and the narrow products.
    """
    if model.arch.input_size != len(vocab):
        raise ValueError(
            f"model input size {model.arch.input_size} does not match "
            f"vocabulary size {len(vocab)}"
        )
    contrib = np.eye(model.arch.output_size)
    for w in reversed(model.weights):
        tail, contrib = contrib, np.empty((w.shape[0], contrib.shape[1]))
        for s in _row_blocks(w.shape[0], 8 * w.shape[1]):
            contrib[s] = w[s].astype(np.float64) @ tail
    scores = np.abs(contrib).max(axis=1)
    order = np.argsort(-scores, kind="stable")
    return ImportanceRanking(
        tokens=vocab.tokens(), contributions=contrib, scores=scores, order=order
    )


def _search_block(points, sq, s: slice, target: float, tol: float = 1e-5, max_iter: int = 50):
    """The conditional affinities of rows s to every point: per row, the
    Gaussian bandwidth whose affinities reach entropy target (the log of the
    perplexity), found by safeguarded Newton steps on the entropy. sq holds
    every point's squared norm.

    The distances to every point (sq_i + sq_j - 2 x_i . x_j, clamped at 0,
    the own point's 0) are formed here, so no n x n distance matrix is made.
    Each row starts at beta = 1 / its mean distance to the n - 1 other
    points (1 if they are all 0). Its distances are then measured from its
    nearest other point: that distance is subtracted, and the own point's
    stays 0. This scales the row's p by a constant and shifts E_p[d] by that
    distance, so H and the normalized row are unchanged in exact arithmetic,
    but the nearest point's p is exp(0) = 1 at every beta, so no row's
    affinities all underflow. Each evaluation takes p = exp(-beta d) with
    the own point's p zeroed and gives the entropy
    H = log sum p + beta E_p[d] and Var_p(d). H falls in beta with
    dH/dbeta = -beta Var_p(d). A row takes the Newton step
    beta + (H - target) / (beta Var_p(d)) when it lands strictly inside the
    row's bracket, which every step narrows; otherwise it doubles (halves)
    beta until the entropy is bracketed, then bisects. A row stops within
    tol of target or after max_iter updates. Every row is evaluated at each
    step and only the rows still off target are updated, so a converged row
    keeps its beta; the rows are the last evaluation's, normalized. Holds
    two blocks: the distances and the affinities.
    """
    diag = (np.arange(s.stop - s.start), np.arange(s.start, s.stop))  # each row's own point
    dists = points[s] @ points.T
    # -2 x_i . x_j + (sq_i + sq_j) has the bits of (sq_i + sq_j) - 2 x_i . x_j
    dists *= -2.0
    dists += np.add.outer(sq[s], sq)
    dists[diag] = 0.0
    np.maximum(dists, 0.0, out=dists)
    p = np.empty_like(dists)
    total = dists.sum(axis=1)
    beta = (len(sq) - 1) / np.where(total > 0.0, total, len(sq) - 1)  # 1 if all 0
    dists[diag] = np.inf  # so the row minimum is over the other points
    dists -= dists.min(axis=1)[:, None]
    dists[diag] = 0.0
    beta_min = np.zeros_like(beta)  # halving is bisecting toward 0
    beta_max = np.full_like(beta, np.inf)
    for step in range(max_iter + 1):
        np.multiply(dists, -beta[:, None], out=p)
        np.exp(p, out=p)
        p[diag] = 0.0
        sum_p = p.sum(axis=1)
        mean = np.einsum("ij,ij->i", dists, p) / sum_p
        h = np.log(sum_p) + beta * mean
        moving = ~(np.abs(h - target) < tol)  # a NaN entropy is off target
        if step == max_iter or not moving.any():
            break
        up = h > target  # a NaN entropy goes down
        beta_min = np.where(moving & up, beta, beta_min)
        beta_max = np.where(moving & ~up, beta, beta_max)
        var = np.einsum("ij,ij,ij->i", dists, dists, p) / sum_p - mean * mean
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            newton = beta + (h - target) / (beta * var)
        # the comparisons fail for a NaN or infinite step
        newton_ok = (var > 0.0) & (newton > beta_min) & (newton < beta_max)
        raised = np.where(beta_max == np.inf, beta * 2.0, (beta + beta_max) / 2.0)
        fallback = np.where(up, raised, (beta + beta_min) / 2.0)
        beta = np.where(moving, np.where(newton_ok, newton, fallback), beta)
    return np.divide(p, sum_p[:, None], out=p)


def _tile_pairs(n: int):
    """Yield (a, b, w) for each TILE x TILE tile of an n x n array with a <= b;
    w = 2 counts its mirror tile (b, a), w = 1 a diagonal tile."""
    tiles = list(_row_blocks(n, 8 * TILE))  # TILE rows of TILE float64 each
    for i, a in enumerate(tiles):
        for b in tiles[i:]:
            yield a, b, 1.0 if a == b else 2.0


def joint_affinities(
    points: np.ndarray, perplexity: float
) -> list[tuple[slice, slice, float, np.ndarray]]:
    """Symmetrized, floored, exactly renormalized joint affinities P, as tiles.

    One (a, b, w, tile) per (a, b, w) of _tile_pairs(n), in that order: tile
    is P[a, b] as its own contiguous float64 array, for the tiles on and
    above the diagonal, each P[b, a] being its transpose; w = 2 counts that
    mirror. Points are widened to float64 first. Each tile band's rows (a
    band is the rows of one diagonal tile) get their conditional affinities
    from _search_block in sub-blocks of at most BLOCK_BYTES, which are
    copied into the band's tiles on or above the diagonal and their
    transpose added into the band's mirror tiles above, so an off-diagonal
    entry is c_ij + c_ji. Once every row is in, a diagonal tile d becomes
    d + d.T, and P is divided by 2n, floored at P_FLOOR and divided by its
    sum, an off-diagonal tile counting twice. Building P holds the tiles and
    two blocks of search scratch; no n x n array is made.
    """
    x = np.asarray(points, dtype=np.float64)
    n = len(x)
    sq = (x * x).sum(axis=1)
    target = np.log(perplexity)
    p = [(a, b, w, np.empty((a.stop - a.start, b.stop - b.start))) for a, b, w in _tile_pairs(n)]
    for band in [a for a, b, _, _ in p if a == b]:
        for s in _row_blocks(band.stop - band.start, 8 * n):
            cond = _search_block(x, sq, slice(band.start + s.start, band.start + s.stop), target)
            for a, b, _, t in p:
                if a == band:
                    t[s] = cond[:, b]
                elif b == band:
                    t[:, s] += cond[:, a].T
            del cond  # so the next sub-block is searched without this one
    total = 0.0
    for a, b, w, t in p:
        if a == b:
            t += t.T  # numpy buffers the overlapping transpose
        t /= 2.0 * n
        np.maximum(t, P_FLOOR, out=t)
        total += w * float(t.sum())
    for *_, t in p:
        t /= total
    return p


class _TsneIteration:
    """Exact t-SNE iterations in one sweep over the upper-triangle tiles.

    P and the Student-t kernel are symmetric, so each pair's kernel is formed
    once, in the tile (a, b) with a <= b, and an off-diagonal tile counts
    twice. p is P's (a, b, w, tile) tuples as joint_affinities returns them;
    the last tile's columns end at n. A tile is at most TILE x TILE pairs,
    one block of BLOCK_BYTES, in a flat buffer reshaped to the tile (a slice
    of a square buffer would be strided). Holds P's tiles and two tile
    buffers; no n x n array is made. grad keeps the last step's gradient.
    """

    def __init__(self, p: Sequence[tuple[slice, slice, float, np.ndarray]]):
        self.p = p
        self.k_buf = np.empty(TILE * TILE)
        self.t_buf = np.empty(TILE * TILE)
        self.grad = np.empty((p[-1][1].stop, 2))
        self.p_sum = self.p_trace = self.p_log_p = 0.0
        for a, b, w, pt in p:
            self.p_sum += w * float(pt.sum())
            if a == b:
                self.p_trace += float(np.trace(pt))
            log_p = np.log(pt, out=self._tile(self.t_buf, a, b))
            self.p_log_p += w * float(np.einsum("ij,ij->", pt, log_p))

    @staticmethod
    def _tile(buf: np.ndarray, a: slice, b: slice) -> np.ndarray:
        rows, cols = a.stop - a.start, b.stop - b.start
        return buf[: rows * cols].reshape(rows, cols)

    def _kernel(self, left, right, a: slice, b: slice) -> np.ndarray:
        """k = 1 + |y_i - y_j|^2 for the tile (a, b), in k_buf; 1 on the diagonal."""
        k = np.matmul(left[a], right[b].T, out=self._tile(self.k_buf, a, b))
        # the clamp at 1 drops the negative distances that rounding can leave
        np.maximum(k, 1.0, out=k)
        if a == b:
            np.fill_diagonal(k, 1.0)
        return k

    @staticmethod
    def _pull(m, y1, a: slice, b: slice, acc) -> None:
        """Add m @ y1[b] to acc's rows a and, off the diagonal, m.T @ y1[a] to rows b."""
        acc[a] += m @ y1[b]
        if a != b:
            acc[b] += m.T @ y1[a]

    def __call__(self, y, update, factor: float, momentum: float, kl: bool = False):
        """One gradient step on KL(factor * P || Q); returns (y, update, KL(P || Q)
        at y when kl, else None).

        The KL alone reads log k and P log k, so without kl those passes are
        skipped; the gradient, and so y, update and grad, keep their bits.
        """
        grad, n = self.grad, len(y)
        # left[i] . right[j] is 1 + sq[i] - 2 y_i . y_j + sq[j]
        sq = (y * y).sum(axis=1)
        ones = np.ones(n)
        left = np.column_stack((-2.0 * y, sq + 1.0, ones))
        right = np.column_stack((y, ones, sq))
        y1 = right[:, :3]
        # att and rep gather (P * num) @ [y, 1] and (num * num) @ [y, 1]: the
        # products and, in the last column, the row sums.
        att = np.zeros((n, 3))
        rep = np.zeros((n, 3))
        z = p_log_k = 0.0
        k_max = []
        for a, b, w, pt in self.p:
            k = self._kernel(left, right, a, b)
            k_max.append(float(k.max()))
            if kl:
                log_k = np.log(k, out=self._tile(self.t_buf, a, b))
                p_log_k += w * float(np.einsum("ij,ij->", pt, log_k))
            num = np.reciprocal(k, out=k)
            if a == b:
                np.fill_diagonal(num, 0.0)
            z += w * float(num.sum())
            self._pull(np.multiply(pt, num, out=self._tile(self.t_buf, a, b)), y1, a, b, att)
            self._pull(np.multiply(num, num, out=num), y1, a, b, rep)
        # Q = num / z off the diagonal and P_FLOOR on it, so
        # sum(P log Q) = -sum(P log k) - log z (sum P - tr P) + tr P log P_FLOOR
        # (scalars; without kl, p_log_k is 0 and p_log_q is never returned)
        p_log_q = -p_log_k - np.log(z) * (self.p_sum - self.p_trace)
        p_log_q += self.p_trace * np.log(P_FLOOR)
        # A pair with num / z below P_FLOOR has Q floored at P_FLOOR: its log Q
        # is log P_FLOOR and its repulsion P_FLOOR * num, not num^2 / z. Only
        # a tile whose largest k exceeds 1 / (P_FLOOR z) can hold one.
        for (a, b, w, pt), most in zip(self.p, k_max):
            if most * P_FLOOR * z <= 1.0:
                continue
            k = self._kernel(left, right, a, b)
            num = np.reciprocal(k, out=self._tile(self.t_buf, a, b))
            floored = np.less(num, z * P_FLOOR)
            if a == b:
                np.fill_diagonal(floored, False)
            if kl:
                log_gap = np.log(k, out=k)
                log_gap += np.log(z * P_FLOOR)
                np.multiply(log_gap, floored, out=log_gap)
                p_log_q += w * float(np.einsum("ij,ij->", pt, log_gap))
            # rep is divided by z below, so a floored pair adds z P_FLOOR num - num^2
            np.subtract(z * P_FLOOR, num, out=k)
            np.multiply(num, k, out=num)
            self._pull(np.multiply(num, floored, out=num), y1, a, b, rep)
        # grad = 4 [factor (s_att y - A y) - (s_rep y - R y) / z]
        np.multiply(att[:, 2:], y, out=grad)
        grad -= att[:, :2]
        grad *= factor
        grad -= (rep[:, 2:] * y - rep[:, :2]) / z
        grad *= 4.0
        update = momentum * update - STEP_SIZE * grad
        y = y + update
        return y - y.mean(axis=0), update, self.p_log_p - p_log_q if kl else None


def tsne_embed(
    points: np.ndarray,
    labels: Sequence[str | None] | None = None,
    config: TsneConfig | None = None,
) -> Embedding2D:
    """Exact t-SNE to 2 dimensions; deterministic given config.seed.

    Gradient descent on KL(P || Q) with step size STEP_SIZE, P exaggerated by
    EXAGGERATION for the first config.exaggeration_iters iterations, and
    momentum MOMENTUM_INIT before config.momentum_switch_iter and
    MOMENTUM_FINAL from it. The KL against the true (unexaggerated) P is
    computed and recorded, with its iteration, only at iteration 0, every
    KL_EVERY-th iteration and the last. P is held only as its
    upper-triangle tiles (see joint_affinities), and the iterations hold
    them and two tile buffers (see _TsneIteration); no n x n array is made.
    """
    config = config or TsneConfig()
    x = np.asarray(points, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("points must be a 2-D array of row vectors")
    n = x.shape[0]
    if not np.isfinite(x).all():
        raise ValueError("points contain non-finite values")
    if n <= 3 * config.perplexity:
        raise ValueError(
            f"need more than {3 * config.perplexity:.0f} points for "
            f"perplexity {config.perplexity}, got {n}"
        )
    if labels is not None and len(labels) != n:
        raise ValueError("labels must align with points")

    step = _TsneIteration(joint_affinities(x, config.perplexity))
    rng = np.random.default_rng(config.seed)
    y = rng.normal(0.0, 1e-4, size=(n, 2))
    update = np.zeros_like(y)
    kl_trace: list[tuple[int, float]] = []
    for it in range(config.iterations):
        factor = EXAGGERATION if it < config.exaggeration_iters else 1.0
        momentum = MOMENTUM_INIT if it < config.momentum_switch_iter else MOMENTUM_FINAL
        record = it % KL_EVERY == 0 or it == config.iterations - 1
        y, update, kl = step(y, update, factor, momentum, kl=record)
        if record:
            kl_trace.append((it, kl))
    final_labels = tuple(labels) if labels is not None else tuple([None] * n)
    return Embedding2D(points=y, labels=final_labels, kl_trace=kl_trace)


def embed_corpus(
    model: MlpModel,
    rows: np.ndarray,
    labels: Sequence[str | None],
    config: TsneConfig | None = None,
) -> Embedding2D:
    """Embed feature rows via the model's last hidden layer, carrying one label per row."""
    acts = penultimate_activations(model, rows)
    return tsne_embed(acts, labels=labels, config=config)


def importance_csv(ranking: ImportanceRanking, top: int | None = None) -> str:
    """CSV text for the top-ranked features (all of them when top is None)."""
    n_classes = ranking.contributions.shape[1]
    header = "rank,feature_index,token,score," + ",".join(
        f"contrib_class_{c}" for c in range(n_classes)
    )
    lines = [header]
    for rank, idx in enumerate(ranking.order[:top]):
        cells = [str(rank), str(idx), ranking.tokens[idx], repr(float(ranking.scores[idx]))]
        cells.extend(repr(float(v)) for v in ranking.contributions[idx])
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def export_embedding_csv(embedding: Embedding2D, path: str | Path) -> None:
    """Write id,label,x,y rows, quoted as csv needs; an unlabeled sample's label is empty.

    With a newline line terminator, csv quotes a newline but not a bare
    carriage return, which csv.reader then rejects, so a row whose label holds
    a carriage return is written with its label (not its numbers) quoted.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        quoted = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_NONNUMERIC)
        writer.writerow(["id", "label", "x", "y"])
        for i, (point, label) in enumerate(zip(embedding.points, embedding.labels)):
            row = [i, label, float(point[0]), float(point[1])]
            (quoted if label and "\r" in label else writer).writerow(row)


def _scale_axis(values: np.ndarray, lo: float, hi: float) -> np.ndarray:
    vmin, vmax = float(values.min()), float(values.max())
    if vmin == vmax:
        return np.full(len(values), (lo + hi) / 2.0)
    return lo + (values - vmin) / (vmax - vmin) * (hi - lo)


def export_scatter_svg(embedding: Embedding2D, path: str | Path) -> None:
    """Render a fixed 800x600 scatter, one circle per sample, colored by label.

    Labels are sorted and assigned palette colors round-robin; a degenerate
    axis (all values equal) maps to the viewport midline. The y axis is
    flipped so larger values plot upward.
    """
    if len(embedding.points) == 0:
        raise ValueError("embedding is empty")
    xs = _scale_axis(embedding.points[:, 0], SVG_MARGIN, SVG_WIDTH - SVG_MARGIN)
    ys = _scale_axis(embedding.points[:, 1], SVG_HEIGHT - SVG_MARGIN, SVG_MARGIN)
    shown = [label or "" for label in embedding.labels]
    color_of = {
        label: PALETTE[i % len(PALETTE)] for i, label in enumerate(sorted(set(shown)))
    }
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_WIDTH}" '
        f'height="{SVG_HEIGHT}" viewBox="0 0 {SVG_WIDTH} {SVG_HEIGHT}">',
        f'<rect width="{SVG_WIDTH}" height="{SVG_HEIGHT}" fill="white"/>',
    ]
    for x, y, label in zip(xs, ys, shown):
        parts.append(
            f'<circle cx="{x:.2f}" cy="{y:.2f}" r="4" fill="{color_of[label]}" '
            f'fill-opacity="0.7"/>'
        )
    for i, (label, color) in enumerate(sorted(color_of.items())):
        ly = SVG_MARGIN + 16 * i
        parts.append(f'<rect x="{SVG_MARGIN}" y="{ly}" width="10" height="10" fill="{color}"/>')
        # XML parsers read a bare carriage return back as a newline; &#13; keeps it
        text = html.escape(label or "(unlabeled)").replace("\r", "&#13;")
        parts.append(
            f'<text x="{SVG_MARGIN + 14}" y="{ly + 9}" font-family="sans-serif" '
            f'font-size="12">{text}</text>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")
