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
the bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import EmptyDataset, InvalidConfig, InternalError, ShapeMismatch, UnknownLabel

CONV_CHANNELS = 16
CONV_KERNEL = 5
POOL_STRIDE = 2  # max pool over non-overlapping (left, right) pairs


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
    fc1_out: int = 64
    hc_fc_out: int = 32
    n_classes: int = 5
    seed: int = 0
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_epsilon: float = 1e-8
    epochs: int = 50
    batch_size: int = 32

    def __post_init__(self):
        if self.window_size < CONV_KERNEL:
            raise InvalidConfig("window_size must be >= conv kernel size")
        if self.hc_dim < 0:
            raise InvalidConfig("hc_dim must be >= 0")
        for name in ("fc1_out", "hc_fc_out", "n_classes", "epochs", "batch_size"):
            if getattr(self, name) < 1:
                raise InvalidConfig(f"{name} must be positive")
        if not 0.0 <= self.dropout_p < 1.0:
            raise InvalidConfig("dropout_p must be in [0, 1)")
        if self.learning_rate <= 0:
            raise InvalidConfig("learning_rate must be positive")


def conv_input_length(arch: ArchitectureId, cfg: NetConfig) -> int:
    if arch is ArchitectureId.MODEL2:
        return cfg.window_size + cfg.hc_dim
    return cfg.window_size


def flatten_dim(arch: ArchitectureId, cfg: NetConfig) -> int:
    conv_len = conv_input_length(arch, cfg) - (CONV_KERNEL - 1)
    return CONV_CHANNELS * (conv_len // POOL_STRIDE)


@dataclass
class NetModel:
    arch: ArchitectureId
    config: NetConfig
    params: dict  # name -> float64 array
    training_log: list = field(default_factory=list)  # per-epoch mean loss
    dropout_calls: int = 0  # counts train-mode forwards; names the mask stream


def _layer_sizes(arch: ArchitectureId, cfg: NetConfig) -> list[tuple[str, int, int]]:
    """(name, out_dim, in_dim) for the dense layers, in initialization order."""
    flat = flatten_dim(arch, cfg)
    layers = [("fc1", cfg.fc1_out, flat)]
    if arch is ArchitectureId.MODEL1:
        layers.append(("mid", cfg.fc1_out, cfg.fc1_out + cfg.hc_dim))
        layers.append(("out", cfg.n_classes, cfg.fc1_out))
    elif arch is ArchitectureId.MODEL3:
        layers.append(("hc", cfg.hc_fc_out, cfg.hc_dim))
        layers.append(("mid", cfg.fc1_out, cfg.fc1_out + cfg.hc_fc_out))
        layers.append(("out", cfg.n_classes, cfg.fc1_out))
    else:
        layers.append(("out", cfg.n_classes, cfg.fc1_out))
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
        raise InvalidConfig(f"{arch.value} needs hc_dim > 0")
    if flatten_dim(arch, cfg) <= 0:
        raise InvalidConfig("conv output too short to pool and flatten")

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
    windows = np.atleast_2d(np.asarray(windows, dtype=np.float64))
    cfg = model.config
    if windows.ndim != 2 or windows.shape[1] != cfg.window_size:
        raise ShapeMismatch(
            f"window batch must be (n, {cfg.window_size}), got {windows.shape}"
        )
    if cfg.hc_dim == 0:
        hc = np.zeros((windows.shape[0], 0))
    else:
        hc = np.atleast_2d(np.asarray(hc, dtype=np.float64))
        if hc.shape != (windows.shape[0], cfg.hc_dim):
            raise ShapeMismatch(
                f"handcrafted batch must be ({windows.shape[0]}, {cfg.hc_dim}), "
                f"got {hc.shape}"
            )
    return windows, hc


def _im2col(model: NetModel, windows, hc) -> np.ndarray:
    """The (n, L-4, 5) conv input patches, as one contiguous array."""
    if model.arch is ArchitectureId.MODEL2:
        signal = np.concatenate([windows, hc], axis=1)
    else:
        signal = windows
    return np.ascontiguousarray(
        np.lib.stride_tricks.sliding_window_view(signal, CONV_KERNEL, axis=1)
    )


def _forward(model: NetModel, cols, hc, train_mode: bool):
    """Class scores plus every intermediate needed by _backward.

    Conv activations are channels-last, (n, L-4, 16); only the pooled block
    is transposed to the channel-major flat vector that fc1 reads.
    """
    cfg = model.config
    p = model.params
    cache: dict = {}

    n, conv_len, _ = cols.shape
    conv_pre = (cols.reshape(-1, CONV_KERNEL) @ p["conv_w"].T + p["conv_b"]).reshape(
        n, conv_len, CONV_CHANNELS
    )
    # ReLU and inverted dropout as one multiplier that _backward reuses
    gate = conv_pre > 0.0
    if train_mode and cfg.dropout_p > 0.0:
        mask_rng = np.random.default_rng(
            np.random.SeedSequence(entropy=(int(cfg.seed), 1, model.dropout_calls))
        )
        model.dropout_calls += 1
        keep = mask_rng.random((n, CONV_CHANNELS, conv_len)) >= cfg.dropout_p
        gate &= keep.transpose(0, 2, 1)
        gate = gate * (1.0 / (1.0 - cfg.dropout_p))
    act = conv_pre * gate

    # max pool 2/2; ties keep the left element
    end = conv_len - conv_len % POOL_STRIDE
    left, right = act[:, 0:end:POOL_STRIDE], act[:, 1:end:POOL_STRIDE]
    take_right = right > left
    pooled = np.where(take_right, right, left)
    flat = pooled.transpose(0, 2, 1).reshape(n, -1)

    fc1_pre = flat @ p["fc1_w"].T + p["fc1_b"]
    fc1_act = np.maximum(fc1_pre, 0.0)

    if model.arch is ArchitectureId.MODEL1:
        joined = np.concatenate([fc1_act, hc], axis=1)
        mid_pre = joined @ p["mid_w"].T + p["mid_b"]
        mid_act = np.maximum(mid_pre, 0.0)
        scores = mid_act @ p["out_w"].T + p["out_b"]
        cache.update(joined=joined, mid_pre=mid_pre, mid_act=mid_act)
    elif model.arch is ArchitectureId.MODEL3:
        hc_pre = hc @ p["hc_w"].T + p["hc_b"]
        hc_act = np.maximum(hc_pre, 0.0)
        joined = np.concatenate([fc1_act, hc_act], axis=1)
        mid_pre = joined @ p["mid_w"].T + p["mid_b"]
        mid_act = np.maximum(mid_pre, 0.0)
        scores = mid_act @ p["out_w"].T + p["out_b"]
        cache.update(hc_pre=hc_pre, joined=joined, mid_pre=mid_pre, mid_act=mid_act)
    else:
        scores = fc1_act @ p["out_w"].T + p["out_b"]

    cache.update(
        hc=hc, cols=cols, gate=gate, take_right=take_right,
        flat=flat, fc1_pre=fc1_pre, fc1_act=fc1_act,
    )
    return scores, cache


def forward(model: NetModel, windows, hc=None, train_mode: bool = False) -> np.ndarray:
    windows, hc = _check_batch(model, windows, hc)
    scores, _ = _forward(model, _im2col(model, windows, hc), hc, train_mode)
    return scores


def softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def cross_entropy(scores: np.ndarray, labels: np.ndarray) -> float:
    shifted = scores - scores.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    picked = shifted[np.arange(scores.shape[0]), labels]
    return float(np.mean(log_z - picked))


def _backward(model: NetModel, cache, scores, labels):
    """Mean cross-entropy gradients for every parameter tensor."""
    p = model.params
    n = scores.shape[0]
    grads: dict[str, np.ndarray] = {}

    dscores = softmax(scores)
    dscores[np.arange(n), labels] -= 1.0
    dscores /= n

    if model.arch in (ArchitectureId.MODEL1, ArchitectureId.MODEL3):
        grads["out_w"] = dscores.T @ cache["mid_act"]
        grads["out_b"] = dscores.sum(axis=0)
        dmid = (dscores @ p["out_w"]) * (cache["mid_pre"] > 0.0)
        grads["mid_w"] = dmid.T @ cache["joined"]
        grads["mid_b"] = dmid.sum(axis=0)
        djoined = dmid @ p["mid_w"]
        dfc1_act = djoined[:, : model.config.fc1_out]
        dtail = djoined[:, model.config.fc1_out:]
        if model.arch is ArchitectureId.MODEL3:
            dhc_act = dtail * (cache["hc_pre"] > 0.0)
            grads["hc_w"] = dhc_act.T @ cache["hc"]
            grads["hc_b"] = dhc_act.sum(axis=0)
    else:
        grads["out_w"] = dscores.T @ cache["fc1_act"]
        grads["out_b"] = dscores.sum(axis=0)
        dfc1_act = dscores @ p["out_w"]

    dfc1 = dfc1_act * (cache["fc1_pre"] > 0.0)
    grads["fc1_w"] = dfc1.T @ cache["flat"]
    grads["fc1_b"] = dfc1.sum(axis=0)
    dflat = dfc1 @ p["fc1_w"]

    gate = cache["gate"]
    take_right = cache["take_right"]
    end = take_right.shape[1] * POOL_STRIDE
    dpool = dflat.reshape(n, CONV_CHANNELS, -1).transpose(0, 2, 1)
    dact = np.zeros(gate.shape)
    dact[:, 0:end:POOL_STRIDE] = np.where(take_right, 0.0, dpool)
    dact[:, 1:end:POOL_STRIDE] = np.where(take_right, dpool, 0.0)
    dconv = (dact * gate).reshape(-1, CONV_CHANNELS)
    grads["conv_w"] = dconv.T @ cache["cols"].reshape(-1, CONV_KERNEL)
    grads["conv_b"] = dconv.sum(axis=0)
    return grads


def train(model: NetModel, windows, hc, labels) -> NetModel:
    """Adam on mean softmax cross-entropy; in-place, returns the same model.

    All parameters live in one flat vector for the run, ``model.params``
    holding reshaped views into it, so each Adam step is a few whole-vector
    in-place operations.
    """
    cfg = model.config
    windows, hc = _check_batch(model, windows, hc)
    labels = np.asarray(labels, dtype=np.int64)
    n = windows.shape[0]
    if n == 0:
        raise EmptyDataset("no training samples")
    if labels.shape != (n,):
        raise ShapeMismatch("labels must be one per sample")
    if labels.min() < 0 or labels.max() >= cfg.n_classes:
        raise UnknownLabel("label outside [0, n_classes)")

    cols = _im2col(model, windows, hc)
    names = list(model.params)
    theta = np.concatenate([model.params[k].reshape(-1) for k in names])
    offset = 0
    for k in names:
        size = model.params[k].size
        model.params[k] = theta[offset : offset + size].reshape(model.params[k].shape)
        offset += size
    grad = np.empty_like(theta)
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    scratch = np.empty_like(theta)
    denom = np.empty_like(theta)
    step = 0
    shuffle_rng = np.random.default_rng(np.random.SeedSequence(entropy=(int(cfg.seed), 2)))

    for _ in range(cfg.epochs):
        order = shuffle_rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            scores, cache = _forward(model, cols[batch], hc[batch], train_mode=True)
            epoch_loss += cross_entropy(scores, labels[batch]) * batch.size
            grads = _backward(model, cache, scores, labels[batch])
            np.concatenate([grads[k].reshape(-1) for k in names], out=grad)
            step += 1
            bias1 = 1.0 - cfg.beta1**step
            bias2 = 1.0 - cfg.beta2**step
            # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g g
            m *= cfg.beta1
            np.multiply(grad, 1.0 - cfg.beta1, out=scratch)
            m += scratch
            v *= cfg.beta2
            np.multiply(grad, 1.0 - cfg.beta2, out=scratch)
            scratch *= grad
            v += scratch
            # theta -= lr (m / bias1) / (sqrt(v / bias2) + eps)
            np.divide(m, bias1, out=scratch)
            scratch *= cfg.learning_rate
            np.divide(v, bias2, out=denom)
            np.sqrt(denom, out=denom)
            denom += cfg.adam_epsilon
            scratch /= denom
            theta -= scratch
        model.training_log.append(epoch_loss / n)
    return model


def predict(model: NetModel, windows, hc=None) -> np.ndarray:
    return np.argmax(forward(model, windows, hc, train_mode=False), axis=1)


def gradient_check(model: NetModel, windows, hc, labels, n_params: int = 200,
                   step: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    Dropout stays off; parameters are sampled without replacement from the
    flattened concatenation of every tensor.
    """
    windows, hc = _check_batch(model, windows, hc)
    labels = np.asarray(labels, dtype=np.int64)
    cols = _im2col(model, windows, hc)
    scores, cache = _forward(model, cols, hc, train_mode=False)
    grads = _backward(model, cache, scores, labels)

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
        up = cross_entropy(_forward(model, cols, hc, train_mode=False)[0], labels)
        view[local] = saved - step
        down = cross_entropy(_forward(model, cols, hc, train_mode=False)[0], labels)
        view[local] = saved
        numeric = (up - down) / (2.0 * step)
        analytic = grads[name].reshape(-1)[local]
        err = abs(analytic - numeric) / max(1.0, abs(analytic), abs(numeric))
        worst = max(worst, err)
    return worst


def save_net(model: NetModel, path: str | Path) -> None:
    """Versioned JSON; reloaded forward passes are bit-exact."""
    cfg = model.config
    payload = {
        "schema": "net_model.v1",
        "arch": model.arch.value,
        "config": {f: getattr(cfg, f) for f in cfg.__dataclass_fields__},
        "training_log": model.training_log,
        "params": {
            name: {"shape": list(arr.shape), "data": arr.reshape(-1).tolist()}
            for name, arr in sorted(model.params.items())
        },
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def load_net(path: str | Path) -> NetModel:
    payload = json.loads(Path(path).read_text())
    if payload.get("schema") != "net_model.v1":
        raise InvalidConfig("not a net_model.v1 file")
    cfg = NetConfig(**payload["config"])
    params = {
        name: np.asarray(entry["data"], dtype=np.float64).reshape(entry["shape"])
        for name, entry in payload["params"].items()
    }
    return NetModel(
        arch=ArchitectureId(payload["arch"]),
        config=cfg,
        params=params,
        training_log=list(payload["training_log"]),
    )
