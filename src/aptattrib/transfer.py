"""Transfer learning between classification tasks sharing one feature space.

A model trained on a source task keeps its trunk (every weighted layer but
the last); the head is re-initialized for the target task's class count and
is the only part that trains. The trunk is not copied: the new model's trunk
arrays are read-only views of the source model's, so it stays byte-identical
throughout and transfer results are directly attributable to the learned
representation. A stray in-place write to it raises instead of reaching the
source model.
"""

from __future__ import annotations

import numpy as np

from .network import ArchSpec, EpochRecord, MlpModel, TrainConfig, init_model, train


def _read_only(array: np.ndarray) -> np.ndarray:
    view = array.view()
    view.flags.writeable = False
    return view


def replace_head(model: MlpModel, new_classes: int, seed: int) -> MlpModel:
    """Return a model on model's frozen trunk with a fresh final layer for new_classes.

    Trunk weights and biases are read-only views sharing memory with model's
    arrays, and the trunk layers are flagged non-trainable; the new head is
    init_model's single layer for (fan_in, new_classes) under seed, and is
    trainable. Saving the result and loading it back gives writable arrays.
    """
    if new_classes < 1:
        raise ValueError(f"new_classes must be >= 1, got {new_classes}")
    if len(model.weights) < 2:
        raise ValueError("model too small: head replacement needs at least 2 weighted layers")
    head = init_model(ArchSpec((model.arch.layer_sizes[-2], new_classes)), seed)
    return MlpModel(
        arch=ArchSpec((*model.arch.layer_sizes[:-1], new_classes)),
        weights=[_read_only(w) for w in model.weights[:-1]] + head.weights,
        biases=[_read_only(b) for b in model.biases[:-1]] + head.biases,
        trainable=[False] * (len(model.weights) - 1) + [True],
    )


def transfer_train(
    base: MlpModel,
    new_classes: int,
    train_x: np.ndarray,
    train_y: np.ndarray,
    config: TrainConfig,
    validation: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[MlpModel, list[EpochRecord]]:
    """Put a head for new_classes, drawn under config.seed, on base's trunk and train it.

    Returns the model and train's per-epoch records. The model shares base's
    trunk arrays (see replace_head), which training leaves byte-identical.
    """
    model = replace_head(base, new_classes, config.seed)
    return model, train(model, train_x, train_y, config, validation=validation)
