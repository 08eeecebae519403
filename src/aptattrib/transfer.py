"""Transfer learning between classification tasks sharing one feature space.

A model trained on a source task keeps its trunk (every weighted layer but
the last); the head is re-initialized for the target task's class count and
is the only part that trains. The trunk stays byte-identical throughout, so
transfer results are directly attributable to the learned representation.
"""

from __future__ import annotations

import numpy as np

from .network import ArchSpec, MlpModel, TrainConfig, TrainReport, init_model, train


def replace_head(model: MlpModel, new_classes: int, seed: int) -> MlpModel:
    """Return a copy with a freshly initialized final layer sized for new_classes.

    Trunk weights, biases, and trainable flags are copied unchanged; the new
    head is init_model's single layer for (fan_in, new_classes) under seed,
    and is trainable.
    """
    if new_classes < 1:
        raise ValueError(f"new_classes must be >= 1, got {new_classes}")
    if len(model.weights) < 2:
        raise ValueError("model too small: head replacement needs at least 2 weighted layers")
    head = init_model(ArchSpec((model.arch.layer_sizes[-2], new_classes)), seed)
    return MlpModel(
        arch=ArchSpec((*model.arch.layer_sizes[:-1], new_classes)),
        weights=[w.copy() for w in model.weights[:-1]] + head.weights,
        biases=[b.copy() for b in model.biases[:-1]] + head.biases,
        trainable=list(model.trainable[:-1]) + [True],
    )


def freeze_trunk(model: MlpModel) -> MlpModel:
    """Mark every weighted layer except the last as non-trainable, in place."""
    for l in range(len(model.trainable) - 1):
        model.trainable[l] = False
    model.trainable[-1] = True
    return model


def transfer_train(
    base: MlpModel,
    new_classes: int,
    train_x: np.ndarray,
    train_y: np.ndarray,
    config: TrainConfig,
    validation: tuple[np.ndarray, np.ndarray] | None = None,
    head_seed: int | None = None,
) -> tuple[MlpModel, TrainReport]:
    """Swap the head for new_classes, freeze the trunk, and train the head.

    head_seed defaults to config.seed. The returned model's trunk is
    byte-identical to the base model's trunk.
    """
    seed = config.seed if head_seed is None else head_seed
    model = freeze_trunk(replace_head(base, new_classes, seed))
    report = train(model, train_x, train_y, config, validation=validation)
    return model, report
