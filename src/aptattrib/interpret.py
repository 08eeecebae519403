"""Model interpretation: connection-weight feature importance and 2D embedding.

Importance follows the connection-weights idea: multiply the weight matrices
straight through (biases and nonlinearities excluded) so entry [i, c] sums
the products of edge weights over every input-i to class-c path. The
embedding is exact O(n^2) t-SNE driven by the penultimate layer's
activations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .featurize import Vocabulary
from .network import MlpModel, penultimate_activations

P_FLOOR = 1e-12
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

    def __len__(self) -> int:
        return len(self.tokens)

    def ranked(self):
        """Yield (rank, feature_index, token, score, per-class contributions)."""
        for rank, idx in enumerate(self.order):
            idx = int(idx)
            yield rank, idx, self.tokens[idx], float(self.scores[idx]), self.contributions[idx]


@dataclass(frozen=True)
class TsneConfig:
    perplexity: float = 30.0
    iterations: int = 1000
    early_exaggeration_factor: float = 12.0
    exaggeration_iters: int = 250
    step_size: float = 200.0
    momentum_init: float = 0.5
    momentum_final: float = 0.8
    momentum_switch_iter: int = 250
    seed: int = 0

    def validate(self) -> None:
        if self.perplexity < 1.0:
            raise ValueError(f"perplexity must be >= 1, got {self.perplexity}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if self.step_size <= 0.0:
            raise ValueError(f"step_size must be > 0, got {self.step_size}")
        if self.early_exaggeration_factor < 1.0:
            raise ValueError(
                f"early_exaggeration_factor must be >= 1, got {self.early_exaggeration_factor}"
            )


@dataclass
class Embedding2D:
    """2D coordinates per sample, carried labels, and the KL trace per iteration."""

    points: np.ndarray
    labels: tuple[str | None, ...]
    kl_trace: list[float] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.points)

    @property
    def final_kl(self) -> float:
        return self.kl_trace[-1]


def olden_importance(model: MlpModel, vocab: Vocabulary) -> ImportanceRanking:
    """Rank vocabulary features by connection-weight contribution.

    M = W1 @ (W2 @ (... @ WL)) in float64; score_i = max_c |M[i, c]|. Going
    right to left keeps every intermediate product as narrow as the class
    count.
    """
    if model.arch.input_size != len(vocab):
        raise ValueError(
            f"model input size {model.arch.input_size} does not match "
            f"vocabulary size {len(vocab)}"
        )
    contrib = model.weights[-1].astype(np.float64)
    for w in reversed(model.weights[:-1]):
        contrib = w.astype(np.float64) @ contrib
    scores = np.abs(contrib).max(axis=1)
    order = np.argsort(-scores, kind="stable")
    return ImportanceRanking(
        tokens=vocab.tokens(), contributions=contrib, scores=scores, order=order
    )


def _entropy_and_row(dist_row: np.ndarray, beta: float) -> tuple[float, np.ndarray]:
    """Shannon entropy (nats) and conditional affinities for one bandwidth."""
    p = np.exp(-dist_row * beta)
    sum_p = p.sum()
    if sum_p <= 0.0:
        return 0.0, np.zeros_like(p)
    h = np.log(sum_p) + beta * float(dist_row @ p) / sum_p
    return h, p / sum_p


def _conditional_affinities(
    sq_dists: np.ndarray, perplexity: float, tol: float = 1e-5, max_iter: int = 50
) -> np.ndarray:
    """Per-point binary search for the Gaussian bandwidth hitting the target perplexity."""
    n = sq_dists.shape[0]
    target = np.log(perplexity)
    cond = np.zeros((n, n), dtype=np.float64)
    mask = ~np.eye(n, dtype=bool)
    for i in range(n):
        row = sq_dists[i][mask[i]]
        beta = 1.0
        beta_min, beta_max = -np.inf, np.inf
        h, p = _entropy_and_row(row, beta)
        for _ in range(max_iter):
            if abs(h - target) < tol:
                break
            if h > target:
                beta_min = beta
                beta = beta * 2.0 if beta_max == np.inf else (beta + beta_max) / 2.0
            else:
                beta_max = beta
                beta = beta / 2.0 if beta_min == -np.inf else (beta + beta_min) / 2.0
            h, p = _entropy_and_row(row, beta)
        cond[i][mask[i]] = p
    return cond


def _squared_distances(x: np.ndarray) -> np.ndarray:
    sq = (x * x).sum(axis=1)
    d = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    np.fill_diagonal(d, 0.0)
    return np.maximum(d, 0.0)


def joint_affinities(points: np.ndarray, perplexity: float) -> np.ndarray:
    """Symmetrized, floored, exactly renormalized joint affinity matrix P."""
    cond = _conditional_affinities(_squared_distances(points), perplexity)
    p = (cond + cond.T) / (2.0 * points.shape[0])
    p = np.maximum(p, P_FLOOR)
    return p / p.sum()


def tsne_embed(
    points: np.ndarray,
    labels: Sequence[str | None] | None = None,
    config: TsneConfig | None = None,
) -> Embedding2D:
    """Exact t-SNE to 2 dimensions; deterministic given config.seed.

    Gradient descent on KL(P || Q) with early exaggeration and a two-phase
    momentum schedule; the KL trace is recorded each iteration against the
    true (unexaggerated) P.
    """
    config = config or TsneConfig()
    config.validate()
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

    p_true = joint_affinities(x, config.perplexity)
    rng = np.random.default_rng(config.seed)
    y = rng.normal(0.0, 1e-4, size=(n, 2))
    update = np.zeros_like(y)
    kl_trace: list[float] = []
    for it in range(config.iterations):
        p_eff = (
            p_true * config.early_exaggeration_factor
            if it < config.exaggeration_iters
            else p_true
        )
        momentum = (
            config.momentum_init if it < config.momentum_switch_iter else config.momentum_final
        )
        num = 1.0 / (1.0 + _squared_distances(y))
        np.fill_diagonal(num, 0.0)
        q = np.maximum(num / num.sum(), P_FLOOR)
        pq_num = (p_eff - q) * num
        grad = 4.0 * (np.diag(pq_num.sum(axis=1)) - pq_num) @ y
        update = momentum * update - config.step_size * grad
        y = y + update
        y = y - y.mean(axis=0)
        kl_trace.append(float((p_true * np.log(p_true / q)).sum()))
    final_labels = tuple(labels) if labels is not None else tuple([None] * n)
    return Embedding2D(points=y, labels=final_labels, kl_trace=kl_trace)


def embed_corpus(
    model: MlpModel,
    rows: np.ndarray,
    nations: Sequence[str | None],
    families: Sequence[str | None],
    label_kind: str = "nation",
    config: TsneConfig | None = None,
) -> Embedding2D:
    """Embed feature rows via the model's last hidden layer, carrying chosen labels."""
    if label_kind not in ("nation", "family"):
        raise ValueError(f"label_kind must be 'nation' or 'family', got {label_kind!r}")
    labels = nations if label_kind == "nation" else families
    if len(labels) != len(rows):
        raise ValueError("labels must align with rows")
    acts = penultimate_activations(model, rows)
    return tsne_embed(acts, labels=labels, config=config)


def importance_csv(ranking: ImportanceRanking, top: int | None = None) -> str:
    """CSV text for the top-ranked features (all of them when top is None)."""
    n_classes = ranking.contributions.shape[1]
    header = "rank,feature_index,token,score," + ",".join(
        f"contrib_class_{c}" for c in range(n_classes)
    )
    kept = len(ranking) if top is None else min(top, len(ranking))
    lines = [header]
    for rank, idx, token, score, contribs in ranking.ranked():
        if rank >= kept:
            break
        cells = [str(rank), str(idx), token, repr(score)]
        cells.extend(repr(float(v)) for v in contribs)
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def export_importance_csv(
    ranking: ImportanceRanking, path: str | Path, top: int | None = None
) -> None:
    Path(path).write_text(importance_csv(ranking, top), encoding="utf-8")


def export_embedding_csv(embedding: Embedding2D, path: str | Path) -> None:
    lines = ["id,label,x,y"]
    for i, (point, label) in enumerate(zip(embedding.points, embedding.labels)):
        lines.append(f"{i},{label or ''},{float(point[0])!r},{float(point[1])!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


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
    if len(embedding) == 0:
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
        parts.append(
            f'<text x="{SVG_MARGIN + 14}" y="{ly + 9}" font-family="sans-serif" '
            f'font-size="12">{label or "(unlabeled)"}</text>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")
