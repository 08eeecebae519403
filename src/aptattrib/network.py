"""Dense feedforward classifier built from scratch on numpy.

Node layers are ReLU-activated except the last, whose affine output goes
through a max-subtracted softmax. Training is plain mini-batch gradient
descent on softmax cross-entropy with inverted dropout on hidden layers,
zeroing noise on the input layer, and a geometric learning-rate decay.
Weights live in float32; the forward and backward passes keep float64
weights in float64, which the tests' gradient check relies on. Rows and
labels are checked once where they enter (_inputs): forward (and so
penultimate_activations), train_step and evaluate check each call's batch,
and train checks its training set and validation pair before the first
step. Every caller but forward reads labels, so for them missing labels
are an error like any other bad label.

The binary inputs are sparse, so layer 0 has a row-sparse path. When W0
spans more than one row block and at most SPARSE_MAX_DENSITY of a batch's
cells are set after input noise, each row's pre-activation is built from its
own set columns alone, row[idx] @ W0[idx], so rows of W0 that a row does not
set are never read. Every other batch takes the dense x @ W0. The two
paths differ only in float32 summation order. Integer rows (a uint8 feature
matrix) enter layer 0 as they are: the row-sparse path casts each row's set
values alone, and only the dense path casts the batch, once, so forward,
evaluate and penultimate_activations never hold a float copy of the whole
input.

Backprop (_backward_pass) is one loop and the one place that knows how a
parameter's gradient is shaped. It yields (array, rows, grad) for each
weight and bias of each trainable layer, top down, as soon as the gradient
passed below that layer is formed. train_step applies every yield the same
way, array[rows] -= lr * grad; the tests' gradient check assembles them
into whole gradients. No weight gradient is formed whole: every weight
matrix's comes in row blocks of at most BLOCK_BYTES (one row where a row
is wider), over all its rows, except that W0's on the row-sparse path
covers only the batch's set columns and leaves every other row as it is.
A bias gradient is one vector, rows slice(None). So train_step holds gradient blocks, never a
whole layer's gradient. Backprop stops at the lowest trainable layer, and a
frozen layer above it passes the gradient down without forming its own.

init_model is the one place weights are drawn: transfer.replace_head takes a
new head from it. It draws each layer in float32 row blocks of at most
BLOCK_BYTES: block 0 from the seed's generator, every later block from a
child stream of its own, filled on a thread per usable CPU. So the bytes never depend on the thread count,
and a net whose layers each fit one block (the desk nets, transfer heads)
draws from the seed's generator alone.
Model files are read with the same strict checks as feature-matrix files
(magic, version, sizes against the file, trainable flags 0 or 1, exact
reads, no trailing bytes).
Each array is read straight into a new array and written from its own
buffer, so loading or saving a model makes no second copy of its weights. A
model may hold read-only arrays (transfer.replace_head's shared trunk), and
training writes only its trainable layers.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import _check_fields
from .featurize import FormatError, _check_end, _check_remaining, _read_array, _read_header

MODEL_MAGIC = b"APTM"
MODEL_VERSION = 1
PROB_FLOOR = 1e-12
# Block budget of scratch: init_model's float32 row blocks, each with its own
# random stream past a layer's first, and their float64 draws, backprop's
# weight-gradient blocks, the t-SNE bandwidth search and kernel tiles
# (interpret.TILE is the side of a square block) and olden_importance's
# float64 row blocks of each weight matrix. The init bytes of a layer wider
# than one block and, through summation order, the embedding's bits follow
# the block size, which is why it is fixed here and not derived from the
# machine.
BLOCK_BYTES = 1 << 19
# Largest share of set cells at which layer 0 goes row by row. With one BLAS
# thread and a 20000x2000 W0, the per-row path beats the dense matmul below
# about 2.5% density on 320-row batches and below about 5% on 32-row ones.
SPARSE_MAX_DENSITY = 1 / 40

# Hidden widths of the default architecture; attribution nets end in 2
# classes, family nets in 4.
DEFAULT_HIDDEN_SIZES = (2000, 1000, 1000, 1000, 1000, 1000, 1000, 500)


class NumericalError(RuntimeError):
    """Training produced a non-finite loss."""


@dataclass(frozen=True)
class ArchSpec:
    """Node-layer widths, input first, class count last."""

    layer_sizes: tuple[int, ...]

    def __post_init__(self):
        if len(self.layer_sizes) < 2:
            raise ValueError("architecture needs at least input and output layers")
        if any(s < 1 for s in self.layer_sizes):
            raise ValueError(f"layer sizes must be >= 1, got {self.layer_sizes}")

    @property
    def input_size(self) -> int:
        return self.layer_sizes[0]

    @property
    def output_size(self) -> int:
        return self.layer_sizes[-1]


def default_arch(input_size: int, classes: int) -> ArchSpec:
    """The paper's stack: input_size inputs, DEFAULT_HIDDEN_SIZES, then classes."""
    return ArchSpec((input_size, *DEFAULT_HIDDEN_SIZES, classes))


def _row_blocks(n_rows: int, row_bytes: int):
    """Consecutive row slices of n_rows rows, at most BLOCK_BYTES each (at least one row)."""
    rows = max(1, BLOCK_BYTES // row_bytes)
    for start in range(0, n_rows, rows):
        yield slice(start, min(start + rows, n_rows))


@dataclass
class MlpModel:
    """Weight matrices (fan_in x fan_out), biases, and per-layer trainable flags."""

    arch: ArchSpec
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    trainable: list[bool]


@dataclass(frozen=True)
class TrainConfig:
    lr_init: float = 1e-2
    lr_final: float = 1e-5
    epochs: int = 1000
    dropout_rate: float = 0.2
    input_noise_rate: float = 0.2
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        _check_fields(self)
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must be in [0,1), got {self.dropout_rate}")
        if not 0.0 <= self.input_noise_rate < 1.0:
            raise ValueError(f"input_noise_rate must be in [0,1), got {self.input_noise_rate}")
        if not self.lr_init >= self.lr_final > 0.0:
            raise ValueError(
                f"need lr_init >= lr_final > 0, got {self.lr_init}, {self.lr_final}"
            )
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    lr: float
    train_loss: float
    val_acc: float | None


@dataclass
class EvalResult:
    accuracy: float
    confusion: np.ndarray


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity where the OS reports one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fill_normal(out: np.ndarray, rng: np.random.Generator, sd: float) -> None:
    """Fill the float32 block out with N(0, sd) drawn in float64 pieces of at most BLOCK_BYTES.

    The pieces follow one another in rng's stream, so the bytes are those of
    one float64 draw of the whole block cast at once.
    """
    for s in _row_blocks(out.shape[0], 8 * out.shape[1]):
        out[s] = rng.normal(0.0, sd, size=(s.stop - s.start, out.shape[1]))


def init_model(arch: ArchSpec, seed: int) -> MlpModel:
    """He-style init: weights ~ N(0, 2/fan_in), zero biases, all layers trainable.

    Each layer is cut into float32 row blocks of at most BLOCK_BYTES. Block 0
    of every layer is drawn from one generator seeded with seed, in layer
    order, on the calling thread. Every later block has a child stream of its
    own, spawned from seed's SeedSequence in layer and block order, and the
    child blocks are filled on a thread per usable CPU. So the bytes depend
    on seed and BLOCK_BYTES alone, never on the thread count, and a net whose
    layers each fit one block starts no thread and gets one stream's draws,
    layer after layer.
    """
    seeds = np.random.SeedSequence(seed)
    rng = np.random.default_rng(seeds)
    weights = []
    biases = []
    later = []  # (block, sd) of every block but a layer's first, in layer and block order
    for fan_in, fan_out in zip(arch.layer_sizes, arch.layer_sizes[1:]):
        w = np.empty((fan_in, fan_out), dtype=np.float32)
        sd = np.sqrt(2.0 / fan_in)
        first, *rest = _row_blocks(fan_in, 4 * fan_out)
        _fill_normal(w[first], rng, sd)
        later += [(w[s], sd) for s in rest]
        weights.append(w)
        biases.append(np.zeros(fan_out, dtype=np.float32))
    if later:
        # Imported only here, so a process whose nets each fit one block per
        # layer never loads the pool's modules (about 0.6 MB of peak RSS).
        from concurrent.futures import ThreadPoolExecutor

        # Children are spawned one per block as it is submitted, so the
        # workers start drawing while the rest are spawned.
        with ThreadPoolExecutor(min(_usable_cpus(), len(later))) as pool:
            jobs = [
                pool.submit(_fill_normal, block, np.random.default_rng(seeds.spawn(1)[0]), sd)
                for block, sd in later
            ]
            for job in jobs:
                job.result()
    return MlpModel(arch=arch, weights=weights, biases=biases, trainable=[True] * len(weights))


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def _row_sparse(w0: np.ndarray, x: np.ndarray) -> bool:
    """Whether _layer0 takes the row-sparse path for this W0 and batch."""
    return w0.nbytes > BLOCK_BYTES and np.count_nonzero(x) <= SPARSE_MAX_DENSITY * x.size


def _layer0(w0: np.ndarray, b0: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Layer-0 pre-activation z in w0's dtype.

    On the row-sparse path (when _row_sparse(w0, x) holds) each row's
    nonzero values, cast to w0's dtype, are multiplied by the rows of w0 at
    those columns only; the values need not be binary. Otherwise z is the
    dense x @ w0 + b0, with x cast once. x may hold integers.
    """
    if not _row_sparse(w0, x):
        return np.asarray(x, dtype=w0.dtype) @ w0 + b0
    z = np.empty((x.shape[0], w0.shape[1]), dtype=w0.dtype)
    for i, row in enumerate(x):
        idx = np.flatnonzero(row)
        np.matmul(np.asarray(row[idx], dtype=w0.dtype), w0[idx], out=z[i])
    z += b0
    return z


def _forward_pass(
    weights: Sequence[np.ndarray],
    biases: Sequence[np.ndarray],
    a0: np.ndarray,
    *,
    rng: np.random.Generator | None = None,
    dropout_rate: float = 0.0,
    input_noise_rate: float = 0.0,
):
    """Batched forward pass of the array a0; returns (activations, multipliers).

    Every layer computes in the weights' dtype. A positive input_noise_rate
    zeroes each input coordinate with that probability, and a positive
    dropout_rate applies inverted dropout after each hidden ReLU, in place;
    either needs a seeded rng. Noise makes the input a new array in the
    weights' dtype; without it, a0 reaches _layer0 as it is, integer rows
    included. acts[0] is that (post-noise) input and acts[l] each hidden
    node-layer's post-dropout output. mults[l] is that layer's dropout
    multiplier, None without dropout (mults[0] is always None): what
    backprop needs to route gradients through inverted dropout.
    """
    if (dropout_rate > 0.0 or input_noise_rate > 0.0) and rng is None:
        raise ValueError("dropout or input noise requires a seeded rng")
    a = a0
    if input_noise_rate > 0.0:
        a = np.multiply(a0, rng.random(a0.shape) >= input_noise_rate, dtype=weights[0].dtype)
    z = _layer0(weights[0], biases[0], a)
    acts, mults = [a], [None]
    for l in range(1, len(weights)):
        a = np.maximum(z, 0.0)
        mult = None
        if dropout_rate > 0.0:
            mult = (rng.random(a.shape) >= dropout_rate) / np.asarray(
                1.0 - dropout_rate, dtype=a.dtype
            )
            a *= mult
        acts.append(a)
        mults.append(mult)
        z = a @ weights[l] + biases[l]
    acts.append(_softmax(z))
    return acts, mults


def _backward_pass(
    weights: Sequence[np.ndarray],
    biases: Sequence[np.ndarray],
    acts: Sequence[np.ndarray],
    mults: Sequence[np.ndarray | None],
    labels: np.ndarray,
    trainable: Sequence[bool],
):
    """Backprop of mean cross-entropy; yields (array, rows, grad) per parameter, top down.

    The one backward loop, and the one place that knows how a gradient is
    shaped: grad is the gradient of array[rows], for each weight and bias of
    each trainable layer. Every weight gradient comes in row blocks of at
    most BLOCK_BYTES (one row where a row is wider), the same way for every
    layer: over all rows of the matrix, except that W0's on the row-sparse
    path covers only the columns the batch sets (every other row's gradient
    is exactly zero). A bias gradient comes whole, rows slice(None). A
    layer's gradients are formed and yielded only once the gradient it
    passes down, dz @ W[l].T, exists, so the consumer may update each array
    in place and drop each block before the next is formed. The ReLU mask
    is taken from the post-dropout acts[l] > 0, which gives the same bits as
    the pre-dropout mask: where a dropout multiplier is 0 the gradient is
    already 0, and every other multiplier is at least 1. A frozen layer
    yields nothing and forms no gradient of its own, and the loop stops at
    the lowest trainable layer. Needs at least one trainable layer.
    """
    lowest = trainable.index(True)
    probs = acts[-1]
    batch = probs.shape[0]
    dz = probs.copy()
    dz[np.arange(batch), labels] -= 1.0
    dz /= np.asarray(batch, dtype=dz.dtype)
    for l in range(len(weights) - 1, lowest - 1, -1):
        da = dz @ weights[l].T if l > lowest else None
        if trainable[l]:
            x = acts[l]
            cols = np.flatnonzero(x.any(axis=0)) if l == 0 and _row_sparse(weights[0], x) else None
            n_rows = x.shape[1] if cols is None else cols.size
            for s in _row_blocks(n_rows, dz.itemsize * dz.shape[1]):
                rows = s if cols is None else cols[s]
                yield weights[l], rows, np.asarray(x[:, rows], dtype=dz.dtype).T @ dz
            # The small bias gradient last: it is what a consumer still holds
            # while the next layer's gradients are formed.
            yield biases[l], slice(None), dz.sum(axis=0)
        if da is None:
            return
        if mults[l] is not None:
            da *= mults[l]
        dz = da * (acts[l] > 0)


def _inputs(
    model: MlpModel, x, y=None, *, labeled: bool = True
) -> tuple[np.ndarray, np.ndarray | None]:
    """Check input rows and, unless labeled is False, their labels; returns
    (rows, int64 labels or None).

    The one check of what enters the network. Every caller that reads labels
    (train and its validation pair, train_step, evaluate) is labeled, so
    labels of None are a ValueError there, before any step; only forward
    checks rows alone. One vector becomes one row. Float rows become
    float32, the dtype the network computes in, before the finite check, so
    a value that overflows float32 is caught. Integer and boolean rows are
    always finite and keep their dtype, so neither train nor inference
    holds a float copy of a uint8 matrix (see _layer0).
    """
    x = np.asarray(x)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != model.arch.input_size:
        raise ValueError(
            f"input width {x.shape[-1] if x.ndim else 0} does not match "
            f"model input size {model.arch.input_size}"
        )
    if x.dtype.kind not in "biu":
        x = x.astype(np.float32, copy=False)
        if not np.isfinite(x).all():
            raise ValueError("input contains non-finite values")
    if labeled:
        if y is None:
            raise ValueError("labels are required")
        y = np.asarray(y, dtype=np.int64)
        if y.shape != x.shape[:1]:
            raise ValueError("labels must align with rows")
        if y.size and (y.min() < 0 or y.max() >= model.arch.output_size):
            raise ValueError(f"labels must lie in [0, {model.arch.output_size})")
    return x, y


def forward(model: MlpModel, x: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Run the network on a vector or batch; returns (node-layer activations, probabilities).

    Inference only, so deterministic: no input noise, no dropout. The input
    layer comes back as the checked rows, so integer rows keep their dtype;
    every other layer is in the weights' dtype.
    """
    single = np.ndim(x) == 1
    batch, _ = _inputs(model, x, labeled=False)
    acts, _ = _forward_pass(model.weights, model.biases, batch)
    if single:
        acts = [a[0] for a in acts]
    return acts, acts[-1]


def learning_rate(epoch: int, config: TrainConfig) -> float:
    """Geometric decay from lr_init to lr_final across the configured epochs."""
    if not 0 <= epoch < config.epochs:
        raise ValueError(f"epoch {epoch} outside [0, {config.epochs})")
    if config.epochs == 1:
        return config.lr_init
    ratio = config.lr_final / config.lr_init
    return config.lr_init * ratio ** (epoch / (config.epochs - 1))


def train_step(
    model: MlpModel,
    batch_x: np.ndarray,
    batch_y: np.ndarray,
    lr: float,
    *,
    dropout_rate: float = 0.0,
    input_noise_rate: float = 0.0,
    rng: np.random.Generator | None = None,
) -> float:
    """One gradient-descent step on a mini-batch; returns the mean batch loss.

    Only layers flagged trainable are updated (biases move with their layer),
    and backprop stops at the lowest of them. Every yield of _backward_pass
    is applied in place the same way as it arrives, a weight gradient a row
    block of at most BLOCK_BYTES at a time; the result is the same, bit for
    bit, as updating every layer after a full backward pass. So the step
    holds no layer's full-size gradient and no gathered copy of W0: it
    drops each block once applied, so it holds one block at a time.
    """
    x, y = _inputs(model, batch_x, batch_y)
    if x.shape[0] == 0:
        raise ValueError("batch must be non-empty")
    acts, mults = _forward_pass(
        model.weights,
        model.biases,
        x,
        rng=rng,
        dropout_rate=dropout_rate,
        input_noise_rate=input_noise_rate,
    )
    probs = acts[-1]
    loss = float(-np.mean(np.log(np.maximum(probs[np.arange(len(y)), y], PROB_FLOOR))))
    if not np.isfinite(loss):
        raise NumericalError(f"non-finite training loss {loss}")
    if lr == 0.0 or not any(model.trainable):
        return loss
    lr32 = np.float32(lr)
    for array, rows, grad in _backward_pass(
        model.weights, model.biases, acts, mults, y, model.trainable
    ):
        grad *= lr32
        array[rows] -= grad
        del grad  # so the next block is formed without this one
    return loss


def train(
    model: MlpModel,
    train_x: np.ndarray,
    train_y: np.ndarray,
    config: TrainConfig,
    validation: tuple[np.ndarray, np.ndarray] | None = None,
) -> list[EpochRecord]:
    """Train in place for config.epochs; returns one EpochRecord per epoch.

    Deterministic given config.seed: each epoch's permutation of the rows,
    input noise, and dropout all draw from one generator seeded once at the
    start, so identical configs give byte-identical models. The whole
    training set and the validation pair are checked before the first step,
    so bad input leaves the model untouched.
    """
    x, y = _inputs(model, train_x, train_y)
    n = x.shape[0]
    if n == 0:
        raise ValueError("training set is empty")
    if validation is not None:
        validation = _inputs(model, *validation)
    rng = np.random.default_rng(config.seed)
    records = []
    # A diverging run ends in one NumericalError, not numpy overflow warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            lr = learning_rate(epoch, config)
            order = rng.permutation(n)
            total_loss = 0.0
            for start in range(0, n, config.batch_size):
                idx = order[start : start + config.batch_size]
                try:
                    loss = train_step(
                        model,
                        x[idx],
                        y[idx],
                        lr,
                        dropout_rate=config.dropout_rate,
                        input_noise_rate=config.input_noise_rate,
                        rng=rng,
                    )
                except NumericalError as exc:
                    raise NumericalError(f"epoch {epoch}, batch at {start}: {exc}") from exc
                total_loss += loss * len(idx)
            val_acc = None
            if validation is not None:
                val_acc = evaluate(model, validation[0], validation[1]).accuracy
            records.append(
                EpochRecord(epoch=epoch, lr=lr, train_loss=total_loss / n, val_acc=val_acc)
            )
    return records


def evaluate(model: MlpModel, data_x: np.ndarray, data_y: np.ndarray) -> EvalResult:
    """Infer-mode accuracy and confusion matrix; argmax ties go to the lowest class."""
    x, y = _inputs(model, data_x, data_y)
    acts, _ = _forward_pass(model.weights, model.biases, x)
    preds = acts[-1].argmax(axis=1)
    confusion = np.zeros((model.arch.output_size, model.arch.output_size), dtype=np.int64)
    np.add.at(confusion, (y, preds), 1)
    accuracy = float((preds == y).mean()) if len(y) else 0.0
    return EvalResult(accuracy=accuracy, confusion=confusion)


def penultimate_activations(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Infer-mode activations of the last hidden node-layer (post-ReLU)."""
    return forward(model, x)[0][-2]


def save_model(model: MlpModel, path: str | Path) -> None:
    """Write the binary model file; round-trips bit-exactly through load_model."""
    sizes = model.arch.layer_sizes
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<IH", MODEL_VERSION, len(sizes)))
        fh.write(struct.pack(f"<{len(sizes)}I", *sizes))
        fh.write(struct.pack(f"<{len(model.trainable)}B", *map(int, model.trainable)))
        for w, b in zip(model.weights, model.biases):
            fh.write(np.ascontiguousarray(w, dtype="<f4"))
            fh.write(np.ascontiguousarray(b, dtype="<f4"))


def load_model(path: str | Path) -> MlpModel:
    where = f"model file {path}"
    with open(path, "rb") as fh:
        (n_layers,) = _read_header(fh, where, MODEL_MAGIC, MODEL_VERSION, "H")
        if n_layers < 2:
            raise FormatError(f"{where}: needs >= 2 node-layers, got {n_layers}")
        sizes = tuple(_read_array(fh, where, (n_layers,), "<u4", "layer sizes").tolist())
        if min(sizes) < 1:
            raise FormatError(f"{where}: layer sizes must be >= 1, got {sizes}")
        flags = _read_array(fh, where, (n_layers - 1,), "u1", "trainable flags")
        if flags.max() > 1:
            raise FormatError(f"{where}: trainable flags must be 0 or 1")
        shapes = list(zip(sizes, sizes[1:]))
        need = sum(4 * (fan_in + 1) * fan_out for fan_in, fan_out in shapes)
        _check_remaining(fh, where, need, f"layer sizes {sizes}")
        weights = []
        biases = []
        for shape in shapes:
            weights.append(_read_array(fh, where, shape, "<f4", "weights"))
            biases.append(_read_array(fh, where, shape[1:], "<f4", "biases"))
        _check_end(fh, where)
    return MlpModel(
        arch=ArchSpec(sizes),
        weights=weights,
        biases=biases,
        trainable=[bool(f) for f in flags],
    )
