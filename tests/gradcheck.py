"""Central-difference gradient check of the network's backpropagation.

A test harness, not library code: test_network and criterion 1 import it.
"""

import numpy as np

from aptattrib.network import PROB_FLOOR, ArchSpec, _backward_pass, _forward_pass, init_model


def gradient_check(
    arch: ArchSpec,
    seed: int,
    sample: tuple[np.ndarray, int],
    epsilon: float = 1e-5,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    Runs a float64 path with no dropout or noise on init_model's weights,
    widened to float64, and nonzero biases drawn from a generator of their
    own. _backward_pass yields each parameter's gradient in pieces (array,
    rows, grad); they are assembled into whole gradients here. Guarded to
    small architectures, since every parameter costs two forward passes.
    """
    if len(arch.layer_sizes) > 5 or max(arch.layer_sizes) > 16:
        raise ValueError("gradient_check is limited to <= 5 node-layers of <= 16 units")
    if not 0.0 < epsilon <= 1e-3:
        raise ValueError(f"epsilon must be in (0, 1e-3], got {epsilon}")
    x, label = sample
    x = np.asarray(x, dtype=np.float64)[None, :]
    if x.shape[1] != arch.input_size:
        raise ValueError("sample width does not match architecture input")
    if not 0 <= label < arch.output_size:
        raise ValueError(f"sample label {label} outside [0, {arch.output_size})")
    y = np.array([label], dtype=np.int64)
    weights = [w.astype(np.float64) for w in init_model(arch, seed).weights]
    bias_rng = np.random.default_rng([seed, 1])
    biases = [bias_rng.normal(0.0, 0.1, size=fan_out) for fan_out in arch.layer_sizes[1:]]

    def loss_at() -> float:
        acts, _ = _forward_pass(weights, biases, x)
        return float(-np.log(max(acts[-1][0, label], PROB_FLOOR)))

    acts, mults = _forward_pass(weights, biases, x)
    grads = {}  # id(array) -> (array, its whole gradient)
    for arr, rows, grad in _backward_pass(weights, biases, acts, mults, y, [True] * len(weights)):
        grads.setdefault(id(arr), (arr, np.zeros_like(arr)))[1][rows] = grad

    max_rel = 0.0
    for arr, grad in grads.values():
        flat = arr.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + epsilon
            plus = loss_at()
            flat[i] = orig - epsilon
            minus = loss_at()
            flat[i] = orig
            numeric = (plus - minus) / (2.0 * epsilon)
            analytic = gflat[i]
            denom = max(abs(analytic) + abs(numeric), 1e-12)
            max_rel = max(max_rel, abs(analytic - numeric) / denom)
    return max_rel
