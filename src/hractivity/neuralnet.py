"""Small 1-D conv nets over heart-rate windows, with optional fusion of
handcrafted features.

Four architectures share one conv stack (16 filters, kernel 5, ReLU,
dropout, max pool 2/2, flatten):

  Baseline   windows only: flatten -> FC 64 -> ReLU -> FC 5
  Model1     handcrafted vector joins after the first FC layer
  Model2     handcrafted vector is appended to the raw window before conv
  Model3     handcrafted vector passes through its own FC 32 first

Everything is plain numpy with a hand-written backward pass; gradient_check
verifies it against central differences.  All randomness (init, shuffling,
dropout) comes from separate seeded streams so training is reproducible to
the bit.  A net computes in its parameters' dtype: build draws float64, and
evaluation.NetSpec.fit trains a float32 copy of those draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from .artifacts import write_json
from .errors import ConfigError, DataError, InternalError
from .series import N_CLASSES

CONV_CHANNELS = 16
CONV_KERNEL = 5
POOL_STRIDE = 2  # max pool over non-overlapping (left, right) pairs
FC1_OUT = 64
HC_FC_OUT = 32  # Model3's handcrafted branch
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


class ArchitectureId(Enum):
    BASELINE = "baseline"
    MODEL1 = "model1"
    MODEL2 = "model2"
    MODEL3 = "model3"


@dataclass(frozen=True)
class NetConfig:
    window_size: int
    hc_dim: int = 0
    dropout_p: float = 0.3
    seed: int = 0
    learning_rate: float = 1e-3
    epochs: int = 50
    batch_size: int = 32

    def __post_init__(self):
        if self.window_size < CONV_KERNEL:
            raise ConfigError("window_size must be >= conv kernel size")
        if self.hc_dim < 0:
            raise ConfigError("hc_dim must be >= 0")
        for name in ("epochs", "batch_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ConfigError("dropout_p must be in [0, 1)")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(f"learning_rate must be a finite number > 0, "
                              f"got {self.learning_rate!r}")


def flatten_dim(arch: ArchitectureId, cfg: NetConfig) -> int:
    # Model2 convolves the window with the handcrafted vector appended
    conv_in = cfg.window_size + (cfg.hc_dim if arch is ArchitectureId.MODEL2 else 0)
    conv_len = conv_in - (CONV_KERNEL - 1)
    return CONV_CHANNELS * (conv_len // POOL_STRIDE)


@dataclass
class NetModel:
    arch: ArchitectureId
    config: NetConfig
    params: dict  # name -> array; every tensor has the one dtype the net computes in
    training_log: list = field(default_factory=list)  # per-epoch mean loss


def _layer_sizes(arch: ArchitectureId, cfg: NetConfig) -> list[tuple[str, int, int]]:
    """(name, out_dim, in_dim) for the dense layers, in initialization order."""
    flat = flatten_dim(arch, cfg)
    layers = [("fc1", FC1_OUT, flat)]
    if arch is ArchitectureId.MODEL3:
        layers.append(("hc", HC_FC_OUT, cfg.hc_dim))
    if arch in (ArchitectureId.MODEL1, ArchitectureId.MODEL3):
        tail = HC_FC_OUT if arch is ArchitectureId.MODEL3 else cfg.hc_dim
        layers.append(("mid", FC1_OUT, FC1_OUT + tail))
    layers.append(("out", N_CLASSES, FC1_OUT))
    return layers


def parameter_count(arch: ArchitectureId, cfg: NetConfig) -> int:
    total = CONV_CHANNELS * CONV_KERNEL + CONV_CHANNELS
    for _, out_dim, in_dim in _layer_sizes(arch, cfg):
        total += out_dim * in_dim + out_dim
    return total


def build(arch: ArchitectureId, cfg: NetConfig) -> NetModel:
    """Allocate and initialize weights: uniform +-1/sqrt(fan_in), one stream."""
    # Model2 with hc_dim 0 degenerates to Baseline, which is a documented
    # equivalence; the branching models need a non-empty vector to fuse.
    if arch in (ArchitectureId.MODEL1, ArchitectureId.MODEL3) and cfg.hc_dim == 0:
        raise ConfigError(f"{arch.value} needs hc_dim > 0")
    if flatten_dim(arch, cfg) <= 0:
        raise ConfigError("conv output too short to pool and flatten")

    rng = np.random.default_rng(np.random.SeedSequence(entropy=(int(cfg.seed), 0)))
    params: dict[str, np.ndarray] = {}

    bound = 1.0 / np.sqrt(CONV_KERNEL)  # one input channel
    params["conv_w"] = rng.uniform(-bound, bound, size=(CONV_CHANNELS, CONV_KERNEL))
    params["conv_b"] = rng.uniform(-bound, bound, size=CONV_CHANNELS)
    for name, out_dim, in_dim in _layer_sizes(arch, cfg):
        bound = 1.0 / np.sqrt(in_dim)
        params[f"{name}_w"] = rng.uniform(-bound, bound, size=(out_dim, in_dim))
        params[f"{name}_b"] = rng.uniform(-bound, bound, size=out_dim)

    total = sum(p.size for p in params.values())
    if total != parameter_count(arch, cfg):
        raise InternalError("parameter count does not match the architecture formula")
    return NetModel(arch=arch, config=cfg, params=params)


def _check_batch(model: NetModel, windows, hc):
    """Windows and features as 2-D arrays of the parameters' dtype."""
    dtype = model.params["conv_w"].dtype
    windows = np.atleast_2d(np.asarray(windows, dtype=dtype))
    cfg = model.config
    if windows.ndim != 2 or windows.shape[1] != cfg.window_size:
        raise DataError(f"window batch must be (n, {cfg.window_size}), got {windows.shape}")
    if cfg.hc_dim == 0:
        hc = np.zeros((windows.shape[0], 0), dtype=dtype)
    else:
        hc = np.atleast_2d(np.asarray(hc, dtype=dtype))
        if hc.shape != (windows.shape[0], cfg.hc_dim):
            raise DataError(f"handcrafted batch must be ({windows.shape[0]}, {cfg.hc_dim}), "
                            f"got {hc.shape}")
    return windows, hc


def _to_pool_order(out: np.ndarray, natural: np.ndarray) -> None:
    """Write (n, L-4, ...) ``natural`` into ``out`` with each sample's positions reordered.

    The order is even positions 0, 2, ..., then odd ones 1, 3, ..., then the
    last position when L-4 is odd (no pool pair reads it), so each side of
    the 2/2 max pool is one contiguous block of a sample's rows.
    """
    n, conv_len = natural.shape[:2]
    end = conv_len - conv_len % POOL_STRIDE
    rest = natural.shape[2:]
    out[:, :end].reshape(n, POOL_STRIDE, end // POOL_STRIDE, *rest)[...] = (
        natural[:, :end].reshape(n, end // POOL_STRIDE, POOL_STRIDE, *rest).swapaxes(1, 2)
    )
    out[:, end:] = natural[:, end:]


def _im2col(model: NetModel, windows, hc) -> np.ndarray:
    """The (n, L-4, 6) conv input patches plus a ones column, in pool order.

    One contiguous array: the ones column carries the bias, so the conv and
    its [weight | bias] gradient are one product each.
    """
    if model.arch is ArchitectureId.MODEL2:
        signal = np.concatenate([windows, hc], axis=1)
    else:
        signal = windows
    patches = np.lib.stride_tricks.sliding_window_view(signal, CONV_KERNEL, axis=1)
    cols = np.empty(patches.shape[:2] + (CONV_KERNEL + 1,), dtype=signal.dtype)
    _to_pool_order(cols[..., :CONV_KERNEL], patches)
    cols[..., CONV_KERNEL] = 1.0
    return cols


def _keep_mask(rng: np.random.Generator, shape, dtype, p: float) -> np.ndarray:
    """``rng.random(shape, dtype) >= p`` bit for bit, its positions in pool order.

    ``rng`` is a PCG64 generator, as ``train`` makes.  ``random`` turns the
    top 53 bits k of a raw word into the float64 k / 2**53, and the top 24
    bits of each 32-bit half, low half first, into the float32 k / 2**24;
    the comparison rounds p to that dtype.  So u >= p exactly when
    k >= ceil(p * 2**bits), and a whole word compares with that threshold
    shifted left as its top bits do.  ``shape`` (n, L-4, 16) has an even
    size, so a float32 draw leaves no half word buffered and the generator
    ends in the state ``random`` would leave.
    """
    size = math.prod(shape)
    if np.dtype(dtype) == np.float32:
        bits = 24
        threshold = math.ceil(float(np.float32(p)) * 2**bits)
        words = rng.bit_generator.random_raw(size // 2).astype("<u8", copy=False).view("<u4")
    else:
        bits = 53
        threshold = math.ceil(p * 2**bits)
        words = rng.bit_generator.random_raw(size)
    if threshold >= 2**bits:  # p rounds to 1.0: no word reaches it
        return np.zeros(shape, dtype=bool)
    drawn = words.reshape(shape) >= words.dtype.type(threshold << (8 * words.itemsize - bits))
    # drawn in natural order; a position's channels move as one element
    keep = np.empty(shape, dtype=bool)
    row = np.dtype((np.void, shape[2] * keep.itemsize))
    _to_pool_order(keep.view(row)[..., 0], drawn.view(row)[..., 0])
    return keep


def _forward(model: NetModel, cols, hc, rng=None):
    """Class scores plus every intermediate needed by _backward.

    ``rng`` is the dropout generator of a training step; None means eval
    mode, with no dropout. Conv activations are channels-last, (n, L-4, 16),
    their positions in pool order (_to_pool_order); only the pooled block is
    transposed to the channel-major flat vector that fc1 reads.
    """
    cfg = model.config
    p = model.params
    cache: dict = {}

    n, conv_len, _ = cols.shape
    weights = np.concatenate([p["conv_w"], p["conv_b"][:, None]], axis=1)
    act = (cols.reshape(-1, CONV_KERNEL + 1) @ weights.T).reshape(n, conv_len, CONV_CHANNELS)
    # ReLU and inverted dropout as one multiplier that _backward reuses
    gate = act > 0.0
    if rng is not None and cfg.dropout_p > 0.0:
        gate &= _keep_mask(rng, gate.shape, act.dtype, cfg.dropout_p)
        gate = gate.astype(act.dtype)
        gate *= 1.0 / (1.0 - cfg.dropout_p)
    act *= gate

    # max pool 2/2 over the even and odd blocks; take_right routes the
    # gradient, so ties keep the left element (np.maximum may return either
    # zero of a +0/-0 tie)
    half = conv_len // POOL_STRIDE
    left, right = act[:, :half], act[:, half : 2 * half]
    take_right = right > left
    pooled = np.maximum(right, left)
    flat = pooled.transpose(0, 2, 1).reshape(n, -1)

    fc1_pre = flat @ p["fc1_w"].T
    fc1_pre += p["fc1_b"]
    fc1_act = np.maximum(fc1_pre, 0.0)

    if model.arch in (ArchitectureId.MODEL1, ArchitectureId.MODEL3):
        tail = hc
        if model.arch is ArchitectureId.MODEL3:
            cache["hc_pre"] = hc @ p["hc_w"].T + p["hc_b"]
            tail = np.maximum(cache["hc_pre"], 0.0)
        joined = np.concatenate([fc1_act, tail], axis=1)
        mid_pre = joined @ p["mid_w"].T + p["mid_b"]
        mid_act = np.maximum(mid_pre, 0.0)
        scores = mid_act @ p["out_w"].T + p["out_b"]
        cache.update(joined=joined, mid_pre=mid_pre, mid_act=mid_act)
    else:
        scores = fc1_act @ p["out_w"].T + p["out_b"]

    cache.update(
        hc=hc, cols=cols, gate=gate, take_right=take_right,
        flat=flat, fc1_pre=fc1_pre, fc1_act=fc1_act,
    )
    return scores, cache


def forward(model: NetModel, windows, hc=None) -> np.ndarray:
    """Eval-mode class scores."""
    windows, hc = _check_batch(model, windows, hc)
    scores, _ = _forward(model, _im2col(model, windows, hc), hc)
    return scores


def _exp_scores(scores: np.ndarray):
    """(scores - row max, its exp, the exp's row sums): shared by softmax and loss."""
    shifted = scores - np.maximum.reduce(scores, axis=1, keepdims=True)
    e = np.exp(shifted)
    return shifted, e, np.add.reduce(e, axis=1, keepdims=True)


def _mean_nll(shifted: np.ndarray, z: np.ndarray, labels: np.ndarray) -> float:
    """np.mean of the rows' -log softmax at their labels, in np.mean's own reduce."""
    n = shifted.shape[0]
    nll = np.log(z[:, 0])
    nll -= shifted[np.arange(n), labels]
    return float(np.add.reduce(nll) / n)


def softmax(scores: np.ndarray) -> np.ndarray:
    _, e, z = _exp_scores(scores)
    return e / z


def cross_entropy(scores: np.ndarray, labels: np.ndarray) -> float:
    shifted, _, z = _exp_scores(scores)
    return _mean_nll(shifted, z, labels)


def _backward(model: NetModel, cache, probs, labels, grads=None):
    """Mean cross-entropy gradients for every parameter tensor.

    ``probs`` is the softmax of the scores; it is overwritten.  ``grads``
    maps each parameter name to the array its gradient is written into
    (``train`` passes views into Adam's flat buffer); None allocates them.
    """
    p = model.params
    n = probs.shape[0]
    if grads is None:
        grads = {name: np.empty_like(arr) for name, arr in p.items()}

    dscores = probs
    dscores[np.arange(n), labels] -= 1.0
    dscores /= n

    if model.arch in (ArchitectureId.MODEL1, ArchitectureId.MODEL3):
        np.matmul(dscores.T, cache["mid_act"], out=grads["out_w"])
        np.sum(dscores, axis=0, out=grads["out_b"])
        dmid = dscores @ p["out_w"]
        dmid *= cache["mid_pre"] > 0.0
        np.matmul(dmid.T, cache["joined"], out=grads["mid_w"])
        np.sum(dmid, axis=0, out=grads["mid_b"])
        djoined = dmid @ p["mid_w"]
        dfc1_act = djoined[:, :FC1_OUT]
        dtail = djoined[:, FC1_OUT:]
        if model.arch is ArchitectureId.MODEL3:
            dhc_act = dtail * (cache["hc_pre"] > 0.0)
            np.matmul(dhc_act.T, cache["hc"], out=grads["hc_w"])
            np.sum(dhc_act, axis=0, out=grads["hc_b"])
    else:
        np.matmul(dscores.T, cache["fc1_act"], out=grads["out_w"])
        np.sum(dscores, axis=0, out=grads["out_b"])
        dfc1_act = dscores @ p["out_w"]

    dfc1 = dfc1_act * (cache["fc1_pre"] > 0.0)
    np.matmul(dfc1.T, cache["flat"], out=grads["fc1_w"])
    np.sum(dfc1, axis=0, out=grads["fc1_b"])
    dflat = dfc1 @ p["fc1_w"]

    # unpool and gate into the two halves of dconv: each pair's gradient
    # goes to the side take_right names, times that side's gate; the other
    # side gets gate * 0 * dpool, which is -0.0 where dpool < 0.  A -0 term
    # changes no sum that has a nonzero term, and Adam's b1 m + (1 - b1) g
    # is the same for g = +0 and -0, so training keeps the bytes of np.where
    # selects that write +0 (tests/oracles.py::net_train_blas_reference).
    gate = cache["gate"]
    take_right = cache["take_right"]
    half = take_right.shape[1]
    dpool = np.ascontiguousarray(dflat.reshape(n, CONV_CHANNELS, half).transpose(0, 2, 1))
    to_right = take_right.astype(dpool.dtype)
    to_right *= dpool
    to_left = (~take_right).astype(dpool.dtype)
    to_left *= dpool
    dconv = np.empty(gate.shape, dtype=dpool.dtype)
    np.multiply(gate[:, :half], to_left, out=dconv[:, :half])
    np.multiply(gate[:, half : 2 * half], to_right, out=dconv[:, half : 2 * half])
    dconv[:, 2 * half :] = 0.0  # the unpooled last position of an odd L-4
    # [conv_w | conv_b] by one product with the patches' ones column
    both = dconv.reshape(-1, CONV_CHANNELS).T @ cache["cols"].reshape(-1, CONV_KERNEL + 1)
    grads["conv_w"][...] = both[:, :CONV_KERNEL]
    grads["conv_b"][...] = both[:, CONV_KERNEL]
    return grads


def train(model: NetModel, windows, hc, labels) -> NetModel:
    """Adam on mean softmax cross-entropy; in-place, returns the same model.

    Every dropout mask of the call comes from one (seed, 1) generator. All
    parameters live in one flat vector for the run, ``model.params``
    holding reshaped views into it, and ``_backward`` writes each gradient
    into the same views of one flat gradient vector, so each Adam step is a
    few whole-vector in-place operations.
    """
    cfg = model.config
    windows, hc = _check_batch(model, windows, hc)
    labels = np.asarray(labels, dtype=np.int64)
    n = windows.shape[0]
    if n == 0:
        raise DataError("no training samples")
    if labels.shape != (n,):
        raise DataError("labels must be one per sample")
    if labels.min() < 0 or labels.max() >= N_CLASSES:
        raise DataError("labels must lie in [0, N_CLASSES)")

    cols = _im2col(model, windows, hc)
    theta = np.concatenate([arr.reshape(-1) for arr in model.params.values()])
    grad = np.empty_like(theta)
    grads = {}
    offset = 0
    for k, arr in model.params.items():
        size = arr.size
        model.params[k] = theta[offset : offset + size].reshape(arr.shape)
        grads[k] = grad[offset : offset + size].reshape(arr.shape)
        offset += size
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    scratch = np.empty_like(theta)
    step = 0
    dropout_rng = np.random.default_rng(np.random.SeedSequence(entropy=(int(cfg.seed), 1)))
    shuffle_rng = np.random.default_rng(np.random.SeedSequence(entropy=(int(cfg.seed), 2)))

    for _ in range(cfg.epochs):
        order = shuffle_rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            scores, cache = _forward(model, cols[batch], hc[batch], dropout_rng)
            shifted, e, z = _exp_scores(scores)
            epoch_loss += _mean_nll(shifted, z, labels[batch]) * batch.size
            _backward(model, cache, e / z, labels[batch], grads)
            step += 1
            bias1 = 1.0 - ADAM_BETA1**step
            bias2 = 1.0 - ADAM_BETA2**step
            # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g g
            m *= ADAM_BETA1
            np.multiply(grad, 1.0 - ADAM_BETA1, out=scratch)
            m += scratch
            v *= ADAM_BETA2
            np.multiply(grad, 1.0 - ADAM_BETA2, out=scratch)
            scratch *= grad
            v += scratch
            # theta -= lr (m / bias1) / (sqrt(v / bias2) + eps), the step formed
            # in grad, which nothing reads until _backward overwrites it
            np.divide(m, bias1, out=grad)
            grad *= cfg.learning_rate
            np.divide(v, bias2, out=scratch)
            np.sqrt(scratch, out=scratch)
            scratch += ADAM_EPSILON
            grad /= scratch
            theta -= grad
        model.training_log.append(epoch_loss / n)
    return model


def predict(model: NetModel, windows, hc=None) -> np.ndarray:
    return np.argmax(forward(model, windows, hc), axis=1)


def gradient_check(model: NetModel, windows, hc, labels, n_params: int = 200,
                   step: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    Dropout stays off; parameters are sampled without replacement from the
    flattened concatenation of every tensor.  Both sides are evaluated on a
    float64 copy of the parameters: a central difference with a 1e-5 step
    needs float64's precision, and a float32 model is then checked by the
    same arithmetic as the float64 model with its values.
    """
    model = NetModel(model.arch, model.config,
                     {name: arr.astype(np.float64) for name, arr in model.params.items()})
    windows, hc = _check_batch(model, windows, hc)
    labels = np.asarray(labels, dtype=np.int64)
    cols = _im2col(model, windows, hc)
    scores, cache = _forward(model, cols, hc)
    grads = _backward(model, cache, softmax(scores), labels)

    names = sorted(model.params)
    sizes = np.array([model.params[k].size for k in names])
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    total = int(offsets[-1])
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(int(model.config.seed), 3)))
    chosen = (
        np.arange(total)
        if total <= n_params
        else np.sort(rng.choice(total, size=n_params, replace=False))
    )

    worst = 0.0
    for flat_index in chosen:
        tensor = int(np.searchsorted(offsets, flat_index, side="right") - 1)
        name = names[tensor]
        local = int(flat_index - offsets[tensor])
        view = model.params[name].reshape(-1)
        saved = view[local]
        view[local] = saved + step
        up = cross_entropy(_forward(model, cols, hc)[0], labels)
        view[local] = saved - step
        down = cross_entropy(_forward(model, cols, hc)[0], labels)
        view[local] = saved
        numeric = (up - down) / (2.0 * step)
        analytic = grads[name].reshape(-1)[local]
        err = abs(analytic - numeric) / max(1.0, abs(analytic), abs(numeric))
        worst = max(worst, err)
    return worst


def save_net(model: NetModel, path: str | Path) -> None:
    """Versioned JSON; reloaded forward passes are bit-exact.

    ``dtype`` names the parameters' dtype, which a reloaded net must compute
    in; each value is written as the double it widens to exactly.
    """
    cfg = model.config
    payload = {
        "schema": "net_model.v3",
        "arch": model.arch.value,
        "dtype": model.params["conv_w"].dtype.name,
        "config": {f: getattr(cfg, f) for f in cfg.__dataclass_fields__},
        "training_log": model.training_log,
        "params": {
            name: {"shape": list(arr.shape), "data": arr.reshape(-1).tolist()}
            for name, arr in sorted(model.params.items())
        },
    }
    write_json(payload, path)

