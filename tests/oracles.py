"""Independent reference implementations used to cross-check the library.

Everything here is written for clarity over speed and deliberately avoids
the library's own code paths. The SVM reference solver takes the library's
kernel and returns its model class, so that fits compare field by field, and
the model file readers at the end build the library's model classes, since
they check that saved models round-trip. The routed-evaluation reference
calls the library's clustering and classifiers: what it writes out is the
per-fold loop that the library's shared cluster fits replace.
"""

import csv
import datetime as dt
import json
import math
from pathlib import Path

import numpy as np

from hractivity.clustering import (
    ClusterSpace,
    assign_many,
    fit_cluster_model,
    window_space_matrix,
)
from hractivity.errors import ConfigError, DataError
from hractivity.evaluation import RoutingMode, fit_classifier
from hractivity.metrics import FoldRecord, accuracy, balanced_accuracy, confusion_matrix
from hractivity.neuralnet import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPSILON,
    CONV_CHANNELS,
    CONV_KERNEL,
    FC1_OUT,
    POOL_STRIDE,
    ArchitectureId,
    NetConfig,
    NetModel,
    _check_batch,
    _exp_scores,
    _im2col,
    _mean_nll,
)
from hractivity.series import N_CLASSES, ActivityLabel
from hractivity.svm import ALPHA_KEEP, TAU, BinarySvm, KernelKind, KernelSpec, OvoSvm


def exhaustive_kmeans_inertia(vectors, k):
    """Globally optimal k-means inertia by enumerating all k^n labelings."""
    x = np.asarray(vectors, dtype=np.float64)
    n = x.shape[0]
    total_sq = (x**2).sum()
    best = np.inf
    total = k**n
    chunk = 1 << 16
    for start in range(0, total, chunk):
        codes = np.arange(start, min(start + chunk, total))
        labelings = np.empty((codes.size, n), dtype=np.int64)
        for pos in range(n):
            labelings[:, pos] = codes % k
            codes = codes // k
        onehot = np.eye(k)[labelings]  # (L, n, k)
        counts = onehot.sum(axis=1)  # (L, k)
        sums = np.einsum("lnk,nd->lkd", onehot, x)
        with np.errstate(invalid="ignore", divide="ignore"):
            centroids = np.where(counts[:, :, None] > 0, sums / counts[:, :, None], 0.0)
        explained = (counts * (centroids**2).sum(axis=2)).sum(axis=1)
        best = min(best, float((total_sq - explained).min()))
    return best


def adjusted_rand_index(labels_a, labels_b):
    """ARI from the pair-counting contingency table."""
    a = np.asarray(labels_a)
    b = np.asarray(labels_b)
    assert a.shape == b.shape
    classes_a = sorted(set(a.tolist()))
    classes_b = sorted(set(b.tolist()))
    table = np.zeros((len(classes_a), len(classes_b)), dtype=np.int64)
    for x, y in zip(a, b):
        table[classes_a.index(x), classes_b.index(y)] += 1

    def comb2(v):
        return v * (v - 1) / 2.0

    sum_cells = comb2(table).sum()
    sum_rows = comb2(table.sum(axis=1)).sum()
    sum_cols = comb2(table.sum(axis=0)).sum()
    total = comb2(a.size)
    expected = sum_rows * sum_cols / total
    max_index = (sum_rows + sum_cols) / 2.0
    if max_index == expected:
        return 1.0
    return float((sum_cells - expected) / (max_index - expected))


def svm_dual_objective(alpha, y, gram):
    """W(alpha) = sum(alpha) - 1/2 sum_ij alpha_i alpha_j y_i y_j K_ij."""
    alpha = np.asarray(alpha, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    q = (y[:, None] * y[None, :]) * np.asarray(gram)
    return float(alpha.sum() - 0.5 * alpha @ q @ alpha)


def solve_svm_dual_qp(gram, y, c, iterations=200_000):
    """Projected-gradient ascent on the SVM dual with exact feasibility.

    Maximizes W(alpha) subject to 0 <= alpha <= C and sum alpha_i y_i = 0.
    The projection onto the box intersected with the hyperplane is exact:
    alpha = clip(v - t*y, 0, C) where the residual g(t) = alpha @ y is
    piecewise linear and nonincreasing in the multiplier t, so the root is
    found by linear interpolation between the two bracketing breakpoints
    (the 2n values of t where a coordinate enters or leaves the box).
    Step size 1/lambda_max guarantees monotone convergence.
    """
    y = np.asarray(y, dtype=np.float64)
    gram = np.asarray(gram, dtype=np.float64)
    n = y.size
    q = (y[:, None] * y[None, :]) * gram
    lam_max = float(np.linalg.eigvalsh(q).max())
    step = 1.0 / max(lam_max, 1e-12)

    def project(v):
        b = np.concatenate([y * v, y * (v - c)])
        b.sort()
        g = np.clip(v[None, :] - b[:, None] * y[None, :], 0.0, c) @ y
        below = g <= 0.0
        if not below.any():
            t = b[-1]
        else:
            k = int(np.argmax(below))  # first breakpoint with g <= 0
            if k == 0:
                t = b[0]
            else:
                g_lo, g_hi = g[k - 1], g[k]
                width = b[k] - b[k - 1]
                t = b[k - 1] + (width * g_lo / (g_lo - g_hi) if g_lo > g_hi else 0.0)
        return np.clip(v - t * y, 0.0, c)

    alpha = project(np.zeros(n))
    for _ in range(iterations):
        grad = 1.0 - q @ alpha
        new = project(alpha + step * grad)
        if np.abs(new - alpha).max() < 1e-12:
            alpha = new
            break
        alpha = new
    return alpha


def kkt_violation(model: BinarySvm, x, y, tol_bound: float = 1e-9) -> float:
    """Largest stationarity violation over the training set the model saw.

    Uses the full multiplier vector stashed at training time; a violation of
    v means some margin condition is off by v (0 for a perfect KKT point).
    """
    if model.alpha is None:
        raise ConfigError("model carries no training multipliers")
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    margins = y * model.decision(x)
    a = model.alpha
    violation = np.where(
        a <= tol_bound,
        1.0 - margins,
        np.where(a >= model.c - tol_bound, margins - 1.0, np.abs(margins - 1.0)),
    )
    return float(np.max(violation, initial=0.0))


def kernel_matrix_reference(kernel, a, b):
    """K(a_i, b_j) as one expression per kernel kind, each operation on a
    fresh array.

    KernelSpec.matrix must return the same bytes when called the same way:
    ``a @ a.T`` (b is a) and ``a @ b.T`` go to different BLAS routines, so
    compare matrix(x, x) with kernel_matrix_reference(kernel, x, x).
    """
    if kernel.kind is KernelKind.LINEAR:
        return a @ b.T
    sq = (a**2).sum(axis=1)[:, None] + (b**2).sum(axis=1)[None, :] - 2.0 * (a @ b.T)
    return np.exp(-kernel.gamma * np.maximum(sq, 0.0))


def train_binary_reference(x, y, kernel=KernelSpec(), c=1.0, tol=1e-3, max_iter=10_000_000):
    """WSS2 SMO written step by step: every set, curvature row and candidate
    vector is recomputed over all n rows at each step.

    The library's train_binary must return the same multipliers bit for bit,
    the same step count and the same model.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    kernel = kernel.resolve(x)
    gram = kernel_matrix_reference(kernel, x, x)
    diag = gram.diagonal().copy()
    n = x.shape[0]
    alpha = np.zeros(n)
    # v = -y * (gradient of the dual) = y - K (alpha * y); starts at alpha = 0
    v = y.copy()
    pos = y > 0
    iterations = 0
    converged = False
    while True:
        # I_up: y * alpha may still grow; I_low: it may still shrink
        v_up = np.where(np.where(pos, alpha < c, alpha > 0.0), v, -np.inf)
        low = np.where(pos, alpha > 0.0, alpha < c)
        i = int(v_up.argmax())
        if v_up[i] - np.where(low, v, np.inf).min() <= tol:
            converged = True
            break
        if iterations >= max_iter:
            break
        iterations += 1
        # j: the violating partner with the largest second-order gain b^2 / a
        b = v[i] - v
        a = diag[i] + diag - 2.0 * gram[i]
        a = np.where(a > 0.0, a, TAU)
        j = int(np.where(low & (b > 0.0), -(b * b) / a, np.inf).argmin())
        # move alpha_i by y_i * t and alpha_j by -y_j * t, clipped to the box
        room_i = c - alpha[i] if pos[i] else alpha[i]
        room_j = alpha[j] if pos[j] else c - alpha[j]
        t = min(b[j] / a[j], room_i, room_j)
        alpha[i] = (c if pos[i] else 0.0) if t == room_i else alpha[i] + y[i] * t
        alpha[j] = (0.0 if pos[j] else c) if t == room_j else alpha[j] - y[j] * t
        v -= t * (gram[i] - gram[j])

    # Threshold from the final multipliers: the mean over free ones, or the
    # middle of the feasible interval when every multiplier sits at a bound.
    g = (alpha * y) @ gram
    bias = 0.0
    eps_b = 1e-10 * max(1.0, c)
    free = (alpha > eps_b) & (alpha < c - eps_b)
    if np.any(free):
        bias = float(np.mean(y[free] - g[free]))
    else:
        at_zero = alpha <= eps_b
        at_c = alpha >= c - eps_b
        lows = np.concatenate(
            [(1.0 - g)[at_zero & (y > 0)], (-1.0 - g)[at_c & (y < 0)]]
        )
        highs = np.concatenate(
            [(1.0 - g)[at_c & (y > 0)], (-1.0 - g)[at_zero & (y < 0)]]
        )
        if lows.size and highs.size:
            bias = float((lows.max() + highs.min()) / 2.0)
        elif lows.size:
            bias = float(lows.max())
        elif highs.size:
            bias = float(highs.min())

    keep = alpha > ALPHA_KEEP
    return BinarySvm(
        support_vectors=x[keep].copy(),
        coef=(alpha * y)[keep],
        bias=bias,
        kernel=kernel,
        c=float(c),
        alpha=alpha,
        iterations=iterations,
        converged=converged,
    )


# -- conv net: the einsum / argmax / per-tensor Adam formulation -------------

def _net_signal(model, windows, hc):
    windows = np.atleast_2d(np.asarray(windows, dtype=np.float64))
    if hc is None or model.config.hc_dim == 0:
        hc = np.zeros((windows.shape[0], 0))
    hc = np.atleast_2d(np.asarray(hc, dtype=np.float64))
    signal = np.concatenate([windows, hc], axis=1) if model.arch.value == "model2" else windows
    return signal, hc


def _softmax(scores):
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _cross_entropy(scores, labels):
    shifted = scores - scores.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    return float(np.mean(log_z - shifted[np.arange(scores.shape[0]), labels]))


def net_forward_reference(model, windows, hc, rng=None):
    """Scores and intermediates with channel-major conv activations (n, 16, L-4).

    The conv is an einsum over shifted views and the 2/2 max pool an argmax,
    so ties go to the left element.  With a generator ``rng`` (train mode)
    the dropout uniforms are drawn from it in (n, L-4, 16) order, as the
    library draws them, and transposed to channel-major.
    """
    cfg = model.config
    p = model.params
    arch = model.arch.value
    signal, hc = _net_signal(model, windows, hc)
    cache = {"hc": hc}
    cols = np.lib.stride_tricks.sliding_window_view(signal, p["conv_w"].shape[1], axis=1)
    conv_pre = np.einsum("nlk,ck->ncl", cols, p["conv_w"]) + p["conv_b"][None, :, None]
    act = np.maximum(conv_pre, 0.0)
    drop_mask = None
    if rng is not None and cfg.dropout_p > 0.0:
        n, channels, conv_len = act.shape
        uniforms = rng.random((n, conv_len, channels)).transpose(0, 2, 1)
        drop_mask = (uniforms >= cfg.dropout_p) / (1.0 - cfg.dropout_p)
        act = act * drop_mask

    n, channels, conv_len = act.shape
    pooled_len = conv_len // 2
    pairs = act[:, :, : pooled_len * 2].reshape(n, channels, pooled_len, 2)
    pool_idx = pairs.argmax(axis=3)
    pooled = np.take_along_axis(pairs, pool_idx[..., None], axis=3)[..., 0]
    flat = pooled.reshape(n, channels * pooled_len)

    fc1_pre = flat @ p["fc1_w"].T + p["fc1_b"]
    fc1_act = np.maximum(fc1_pre, 0.0)
    if arch in ("model1", "model3"):
        if arch == "model3":
            cache["hc_pre"] = hc @ p["hc_w"].T + p["hc_b"]
            tail = np.maximum(cache["hc_pre"], 0.0)
        else:
            tail = hc
        joined = np.concatenate([fc1_act, tail], axis=1)
        mid_pre = joined @ p["mid_w"].T + p["mid_b"]
        mid_act = np.maximum(mid_pre, 0.0)
        scores = mid_act @ p["out_w"].T + p["out_b"]
        cache.update(joined=joined, mid_pre=mid_pre, mid_act=mid_act)
    else:
        scores = fc1_act @ p["out_w"].T + p["out_b"]
    cache.update(cols=cols, conv_pre=conv_pre, act=act, drop_mask=drop_mask,
                 pairs_shape=pairs.shape, pool_idx=pool_idx, conv_len=conv_len,
                 flat=flat, fc1_pre=fc1_pre, fc1_act=fc1_act)
    return scores, cache


def net_backward_reference(model, cache, scores, labels):
    """Mean cross-entropy gradient of every parameter tensor, by name."""
    p = model.params
    n = scores.shape[0]
    grads = {}
    dscores = _softmax(scores)
    dscores[np.arange(n), labels] -= 1.0
    dscores /= n
    if model.arch.value in ("model1", "model3"):
        grads["out_w"] = dscores.T @ cache["mid_act"]
        grads["out_b"] = dscores.sum(axis=0)
        dmid = (dscores @ p["out_w"]) * (cache["mid_pre"] > 0.0)
        grads["mid_w"] = dmid.T @ cache["joined"]
        grads["mid_b"] = dmid.sum(axis=0)
        djoined = dmid @ p["mid_w"]
        dfc1_act = djoined[:, :FC1_OUT]
        if model.arch.value == "model3":
            dhc_act = djoined[:, FC1_OUT:] * (cache["hc_pre"] > 0.0)
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

    n_, channels, pooled_len, _ = cache["pairs_shape"]
    dpairs = np.zeros(cache["pairs_shape"])
    np.put_along_axis(dpairs, cache["pool_idx"][..., None],
                      dflat.reshape(n_, channels, pooled_len)[..., None], axis=3)
    dact = np.zeros((n_, channels, cache["conv_len"]))
    dact[:, :, : pooled_len * 2] = dpairs.reshape(n_, channels, -1)
    if cache["drop_mask"] is not None:
        dact = dact * cache["drop_mask"]
    dconv = dact * (cache["conv_pre"] > 0.0)
    grads["conv_w"] = np.einsum("ncl,nlk->ck", dconv, cache["cols"])
    grads["conv_b"] = dconv.sum(axis=(0, 2))
    return grads


def net_train_reference(model, windows, hc, labels):
    """Minibatch Adam with one (m, v) pair per parameter tensor, updated in turn.

    Every batch's dropout mask comes from one (seed, 1) generator.
    """
    cfg = model.config
    windows = np.asarray(windows, dtype=np.float64)
    _, hc = _net_signal(model, windows, hc)
    labels = np.asarray(labels, dtype=np.int64)
    n = windows.shape[0]
    m = {k: np.zeros_like(v) for k, v in model.params.items()}
    v = {k: np.zeros_like(vv) for k, vv in model.params.items()}
    step = 0
    dropout_rng = np.random.default_rng(np.random.SeedSequence(entropy=(int(cfg.seed), 1)))
    shuffle_rng = np.random.default_rng(np.random.SeedSequence(entropy=(int(cfg.seed), 2)))
    for _ in range(cfg.epochs):
        order = shuffle_rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            scores, cache = net_forward_reference(model, windows[batch], hc[batch], dropout_rng)
            epoch_loss += _cross_entropy(scores, labels[batch]) * batch.size
            grads = net_backward_reference(model, cache, scores, labels[batch])
            step += 1
            bias1 = 1.0 - ADAM_BETA1**step
            bias2 = 1.0 - ADAM_BETA2**step
            for key, grad in grads.items():
                m[key] = ADAM_BETA1 * m[key] + (1.0 - ADAM_BETA1) * grad
                v[key] = ADAM_BETA2 * v[key] + (1.0 - ADAM_BETA2) * grad * grad
                model.params[key] -= cfg.learning_rate * (m[key] / bias1) / (
                    np.sqrt(v[key] / bias2) + ADAM_EPSILON
                )
        model.training_log.append(epoch_loss / n)
    return model


# -- conv net: the BLAS step as it was before the branch-free pool ----------
#
# _forward, _backward and train as they stood before the max pool became
# np.maximum, the unpool a pair of products and the gradients views into
# Adam's flat buffer.  Kept as written then, as train_binary_reference keeps
# the old SMO loop: the library must train to the same bytes.  Two later
# edits follow the library's layout and dtype rule.  The conv runs on
# _im2col's patches, whose rows put each sample's even positions before
# its odd ones and whose ones column carries the bias, so the conv and its
# [weight | bias] gradient are one product each and the pool pairs the two
# halves.  Dropout uniforms, the gate and the unpool buffer take the
# activations' dtype, so a float32 copy of the parameters is pinned down
# byte for byte too.  The masks are still drawn by rng.random, in natural
# position order, and moved to _im2col's order, so they check the library's
# draw from raw generator words.  Unlike the oracles above it calls the
# library's batch checks, im2col and softmax helpers, which are not part of
# the step it pins down.

def pool_order(conv_len):
    """Natural conv positions in _im2col's row order: even, odd, unpaired last."""
    end = conv_len - conv_len % POOL_STRIDE
    return np.concatenate([np.arange(0, end, 2), np.arange(1, end, 2), np.arange(end, conv_len)])


def net_forward_blas_reference(model: NetModel, cols, hc, rng=None):
    """Class scores plus every intermediate needed by _backward.

    ``rng`` is the dropout generator of a training step; None means eval
    mode, with no dropout. Conv activations are channels-last, (n, L-4, 16),
    in _im2col's position order; only the pooled block is transposed to the
    channel-major flat vector that fc1 reads.
    """
    cfg = model.config
    p = model.params
    cache: dict = {}

    n, conv_len, _ = cols.shape
    weights = np.concatenate([p["conv_w"], p["conv_b"][:, None]], axis=1)
    conv_pre = (cols.reshape(-1, CONV_KERNEL + 1) @ weights.T).reshape(
        n, conv_len, CONV_CHANNELS
    )
    # ReLU and inverted dropout as one multiplier that _backward reuses
    gate = conv_pre > 0.0
    if rng is not None and cfg.dropout_p > 0.0:
        uniforms = rng.random(gate.shape, dtype=conv_pre.dtype)[:, pool_order(conv_len)]
        gate &= uniforms >= cfg.dropout_p
        gate = gate.astype(conv_pre.dtype) * (1.0 / (1.0 - cfg.dropout_p))
    act = conv_pre * gate

    # max pool 2/2 over the even and odd halves; ties keep the left element
    half = conv_len // POOL_STRIDE
    left, right = act[:, :half], act[:, half : 2 * half]
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


def net_backward_blas_reference(model: NetModel, cache, probs, labels):
    """Mean cross-entropy gradients for every parameter tensor.

    ``probs`` is the softmax of the scores; it is overwritten.
    """
    p = model.params
    n = probs.shape[0]
    grads: dict[str, np.ndarray] = {}

    dscores = probs
    dscores[np.arange(n), labels] -= 1.0
    dscores /= n

    if model.arch in (ArchitectureId.MODEL1, ArchitectureId.MODEL3):
        grads["out_w"] = dscores.T @ cache["mid_act"]
        grads["out_b"] = dscores.sum(axis=0)
        dmid = (dscores @ p["out_w"]) * (cache["mid_pre"] > 0.0)
        grads["mid_w"] = dmid.T @ cache["joined"]
        grads["mid_b"] = dmid.sum(axis=0)
        djoined = dmid @ p["mid_w"]
        dfc1_act = djoined[:, :FC1_OUT]
        dtail = djoined[:, FC1_OUT:]
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
    half = take_right.shape[1]
    dpool = dflat.reshape(n, CONV_CHANNELS, -1).transpose(0, 2, 1)
    dact = np.zeros(gate.shape, dtype=dpool.dtype)
    dact[:, :half] = np.where(take_right, 0.0, dpool)
    dact[:, half : 2 * half] = np.where(take_right, dpool, 0.0)
    dconv = (dact * gate).reshape(-1, CONV_CHANNELS)
    both = dconv.T @ cache["cols"].reshape(-1, CONV_KERNEL + 1)
    grads["conv_w"] = both[:, :CONV_KERNEL]
    grads["conv_b"] = both[:, CONV_KERNEL]
    return grads


def net_train_blas_reference(model: NetModel, windows, hc, labels) -> NetModel:
    """Adam on mean softmax cross-entropy; in-place, returns the same model.

    Every dropout mask of the call comes from one (seed, 1) generator. All
    parameters live in one flat vector for the run, ``model.params``
    holding reshaped views into it, so each Adam step is a few whole-vector
    in-place operations.
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
    dropout_rng = np.random.default_rng(np.random.SeedSequence(entropy=(int(cfg.seed), 1)))
    shuffle_rng = np.random.default_rng(np.random.SeedSequence(entropy=(int(cfg.seed), 2)))

    for _ in range(cfg.epochs):
        order = shuffle_rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            scores, cache = net_forward_blas_reference(model, cols[batch], hc[batch],
                                                       dropout_rng)
            shifted, e, z = _exp_scores(scores)
            epoch_loss += _mean_nll(shifted, z, labels[batch]) * batch.size
            grads = net_backward_blas_reference(model, cache, e / z, labels[batch])
            np.concatenate([grads[k].reshape(-1) for k in names], out=grad)
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
            # theta -= lr (m / bias1) / (sqrt(v / bias2) + eps)
            np.divide(m, bias1, out=scratch)
            scratch *= cfg.learning_rate
            np.divide(v, bias2, out=denom)
            np.sqrt(denom, out=denom)
            denom += ADAM_EPSILON
            scratch /= denom
            theta -= scratch
        model.training_log.append(epoch_loss / n)
    return model


# -- permutation importance: every dimension shuffled and predicted ----------

def permutation_importance_reference(clf, windows, hc, labels, repeats=5, seed=0):
    """Mean balanced-accuracy drop per shuffled column, with no dimension skipped.

    Columns are the window timesteps, then the handcrafted features; the
    shuffle of (dim, repeat) comes from the (seed, dim, repeat) stream.
    """
    def balanced(pred):
        recalls = [np.mean(pred[labels == c] == c) for c in np.unique(labels)]
        return float(np.mean(recalls))

    windows = np.asarray(windows, dtype=np.float64)
    hc = np.asarray(hc, dtype=np.float64)
    labels = np.asarray(labels)
    joined = np.column_stack([windows, hc])
    w_dim = windows.shape[1]
    base = balanced(clf.predict(windows, hc))
    out = np.zeros(joined.shape[1])
    for dim in range(joined.shape[1]):
        drops = []
        for r in range(repeats):
            order = np.random.default_rng(
                np.random.SeedSequence(entropy=(int(seed), dim, r))
            ).permutation(joined.shape[0])
            shuffled = joined.copy()
            shuffled[:, dim] = joined[order, dim]
            drops.append(base - balanced(clf.predict(shuffled[:, :w_dim], shuffled[:, w_dim:])))
        out[dim] = np.mean(drops)
    return out


# -- routed evaluation: every cluster of every fold fitted on its own --------

def routed_eval_reference(ds, k, routing, space, spec, seed=0, restarts=10):
    """(summed confusion, fold records) of a routed leave-subject-out run in
    which each fold clusters its train subjects, fits a classifier for each
    of its clusters and routes its test windows, before the next fold starts.

    Nothing is shared between folds. The clustering, the classifiers and the
    metrics are the library's; only the fold loop is written out here.
    """
    def seed_of(base, i):
        return int(np.random.SeedSequence(entropy=(int(base), int(i))).generate_state(1)[0])

    vectors = window_space_matrix(ds.windows, space)
    subjects = np.asarray(ds.subject_ids)[ds.subject_index]
    total = np.zeros((N_CLASSES, N_CLASSES), dtype=np.int64)
    folds = []
    for fold_id, held_out in enumerate(ds.subject_ids):
        fold_seed = seed_of(seed, fold_id)
        train_ids = [s for s in ds.subject_ids if s != held_out]
        summaries = np.stack([vectors[subjects == s].mean(axis=0) for s in train_ids])
        model, assign = fit_cluster_model(train_ids, summaries, space, k, fold_seed,
                                          restarts=restarts, with_scaler=True)
        classifiers = {}
        for cluster in sorted(set(assign.values())):
            rows = np.flatnonzero(np.isin(subjects, [s for s in train_ids
                                                     if assign[s] == cluster]))
            classifiers[cluster] = fit_classifier(spec, ds, rows, seed_of(fold_seed, 10 + cluster))
        test = np.flatnonzero(subjects == held_out)
        if routing is RoutingMode.PER_SUBJECT:  # by the held-out subject's mean vector
            routed = np.full(test.size, assign_many(model, vectors[test].mean(axis=0)[None])[0])
        else:
            routed = assign_many(model, vectors[test])
        preds = np.zeros(test.size, dtype=np.int64)
        for cluster in np.unique(routed):
            here = routed == cluster
            sel = test[here]
            preds[here] = classifiers[int(cluster)].predict(ds.windows[sel], ds.hc[sel])
        cm = confusion_matrix(ds.labels[test], preds)
        total += cm
        folds.append(FoldRecord(fold_id, held_out, int(test.size), accuracy(cm),
                                balanced_accuracy(cm)))
    return total, tuple(folds)


# -- MFCC: a loop-based DFT, the triangle formula and a loop-based DCT-II -----

def _mel(f):
    return 2595.0 * math.log10(1.0 + f / 700.0)


def _inverse_mel(m):
    return 700.0 * (10.0 ** (m / 2595.0) - 1.0)


def dft_magnitudes_reference(frame, n_fft):
    """|X_k| for k = 0..n_fft/2 of the zero-padded frame, one bin at a time."""
    padded = np.zeros(n_fft)
    padded[: len(frame)] = frame
    t = np.arange(n_fft)
    mags = np.empty(n_fft // 2 + 1)
    for k in range(mags.size):
        angle = -2.0 * np.pi * k * t / n_fft
        mags[k] = math.hypot(float(padded @ np.cos(angle)), float(padded @ np.sin(angle)))
    return mags


def mel_band_energies_reference(x, n_mel_bands=10):
    """Filterbank outputs of one window, on normalized frequency (Nyquist 0.5)."""
    x = np.asarray(x, dtype=np.float64)
    n_fft = 1
    while n_fft < len(x):
        n_fft *= 2
    mags = dft_magnitudes_reference((x - x.mean()) * np.hanning(len(x)), n_fft)
    freqs = np.arange(mags.size) / n_fft
    top = _mel(0.5)
    edges = [_inverse_mel(top * i / (n_mel_bands + 1)) for i in range(n_mel_bands + 2)]
    energies = np.zeros(n_mel_bands)
    for b in range(n_mel_bands):
        left, center, right = edges[b], edges[b + 1], edges[b + 2]
        for f, mag in zip(freqs, mags):
            weight = max(0.0, min((f - left) / (center - left), (right - f) / (right - center)))
            energies[b] += weight * mag
    return energies


def dct2_ortho_reference(values):
    """Orthonormal DCT-II, one coefficient at a time."""
    n = len(values)
    out = np.empty(n)
    for k in range(n):
        total = sum(v * math.cos(math.pi * k * (2 * i + 1) / (2 * n)) for i, v in enumerate(values))
        out[k] = total * math.sqrt((1.0 if k == 0 else 2.0) / n)
    return out


def mfcc_reference(x, n_mel_bands=10):
    """The first five coefficients of the DCT-II of the floored log band energies."""
    energies = mel_band_energies_reference(x, n_mel_bands)
    logs = [math.log(max(e, 1e-10)) for e in energies]
    return dct2_ortho_reference(logs)[:5]


# -- timeline: the nearest window center by a dense distance matrix ------------

def nearest_window_reference(n_samples, window_size, stride):
    """Index of the window whose center is nearest each timestep; ties to the earlier."""
    starts = np.arange(0, n_samples - window_size + 1, stride)
    centers = starts + (window_size - 1) / 2.0
    dist = np.abs(np.arange(n_samples)[:, None] - centers[None, :])
    return dist.argmin(axis=1)


# -- windowing: one window at a time ------------------------------------------

def window_label_reference(labels):
    """Majority label; a tie goes to the last sample's label, else the lowest."""
    counts = [int(np.sum(np.asarray(labels) == c)) for c in range(5)]
    top = max(counts)
    tied = [c for c in range(5) if counts[c] == top]
    last = int(labels[-1])
    if len(tied) == 1:
        return tied[0]
    return last if last in tied else tied[0]


def segment_reference(bpm, labels, window_size, stride):
    """(values, labels, starts) of every window, cut one by one."""
    values, window_labels, starts = [], [], []
    start = 0
    while start + window_size <= len(bpm):
        values.append(np.array(bpm[start : start + window_size], dtype=np.float64))
        window_labels.append(window_label_reference(labels[start : start + window_size]))
        starts.append(start)
        start += stride
    return values, window_labels, starts


# -- order statistics: numpy's own median and linear percentiles -------------

def order_statistics_reference(mat):
    """Row-wise (median, 25th, 75th percentile) straight from numpy."""
    q25, q75 = np.percentile(mat, [25.0, 75.0], axis=1)
    return np.median(mat, axis=1), q25, q75


def statistical_matrix_reference(mat):
    """The twelve statistical features per row, one numpy reduction each.

    Variance and Std come from numpy's own ``var``/``std``; the histogram
    entropy bins only the non-constant rows, on a copy of them.
    """
    n, w = mat.shape
    mean = mat.mean(axis=1)
    centered = mat - mean[:, None]
    sq = centered * centered
    m2 = sq.mean(axis=1)
    m3 = (sq * centered).mean(axis=1)
    m4 = (sq * sq).mean(axis=1)
    nonzero = m2 > 0
    skew = np.zeros(n)
    kurt = np.zeros(n)
    skew[nonzero] = m3[nonzero] / m2[nonzero] ** 1.5
    kurt[nonzero] = m4[nonzero] / m2[nonzero] ** 2 - 3.0

    lo = mat.min(axis=1)
    hi = mat.max(axis=1)
    median, q25, q75 = order_statistics_reference(mat)

    bins = 10
    entropy = np.zeros(n)
    spread = hi - lo
    live = spread > 0
    if live.any():
        sub = mat[live]
        width = spread[live][:, None]
        idx = np.floor((sub - lo[live][:, None]) / width * bins).astype(np.int64)
        np.clip(idx, 0, bins - 1, out=idx)
        rows = np.repeat(np.arange(idx.shape[0]), w)
        counts = np.bincount(
            rows * bins + idx.ravel(), minlength=idx.shape[0] * bins
        ).reshape(idx.shape[0], bins)
        p = counts / w
        with np.errstate(divide="ignore", invalid="ignore"):
            plogp = np.where(p > 0, p * np.log(p), 0.0)
        entropy[live] = -plogp.sum(axis=1)

    return np.column_stack([
        mean, mat.std(axis=1, ddof=1), mat.var(axis=1, ddof=1), lo, hi, median, q75 - q25,
        skew, kurt, np.sqrt((mat**2).mean(axis=1)), np.abs(centered).mean(axis=1), entropy,
    ])


# -- CSV corpus: a DictReader over rows, grouped in Python lists -------------

_LABELS = ("Rest", "Breathe", "Activity", "RestAC", "Type")


class ReferenceRowError(Exception):
    """(error kind, message) of the first bad row, as the library words it."""


def _reference_timestamp(text, mode):
    if mode in ("", "epoch"):
        try:
            t = float(text)
        except ValueError:
            if mode == "epoch":
                raise ReferenceRowError(
                    "DataError", f"mixed timestamp formats near {text!r}") from None
        else:
            if not math.isfinite(t):
                raise ReferenceRowError("DataError", f"non-finite timestamp {text!r}")
            return t, "epoch"
    try:
        stamp = dt.datetime.fromisoformat(text.replace("Z", "+00:00"))
    except ValueError:
        raise ReferenceRowError("DataError", f"cannot parse timestamp {text!r}") from None
    if stamp.tzinfo is None:
        stamp = stamp.replace(tzinfo=dt.timezone.utc)
    return stamp.timestamp(), "iso"


def parse_corpus_reference(path, columns=("subject_id", "device", "timestamp", "bpm", "label"),
                           device_filter="Apple Watch"):
    """[(subject, device, timestamps, bpm, labels)] in (subject, device) order.

    Raises ReferenceRowError(kind, message) where the library raises a
    DataError; the message carries the file and the 1-based line.
    """
    path = Path(path)
    files = sorted(path.glob("*.csv")) if path.is_dir() else [path]
    subject_col, device_col, ts_col, bpm_col, label_col = columns
    groups = {}
    for f in files:
        with open(f, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            header = reader.fieldnames or []
            for col in columns:
                if col not in header:
                    raise ReferenceRowError("DataError", f"missing column {col!r} in {f}")
            mode = ""
            for row in reader:
                try:
                    if None in row.values():
                        raise ReferenceRowError(
                            "DataError", f"row has fewer than {len(header)} cells")
                    t, mode = _reference_timestamp(row[ts_col], mode)
                    try:
                        bpm = float(row[bpm_col])
                    except ValueError:
                        raise ReferenceRowError(
                            "DataError", f"bpm {row[bpm_col]!r} is not a number") from None
                    if not 20.0 < bpm < 250.0:
                        raise ReferenceRowError(
                            "DataError", f"bpm {bpm} outside the accepted (20, 250) range")
                    if row[label_col] not in _LABELS:
                        raise ReferenceRowError(
                            "DataError", f"unknown activity label {row[label_col]!r}")
                except ReferenceRowError as exc:
                    kind, message = exc.args
                    raise ReferenceRowError(kind, f"{f}, line {reader.line_num}: {message}") from None
                if device_filter is not None and row[device_col] != device_filter:
                    continue
                key = (row[subject_col], row[device_col])
                groups.setdefault(key, []).append((t, bpm, _LABELS.index(row[label_col])))

    out = []
    for (subject, device), rows in sorted(groups.items()):
        rows.sort(key=lambda r: r[0])
        t0 = rows[0][0]  # runs of equal timestamps are found after the shift to t=0
        ts, bpms, labels = [], [], []
        i = 0
        while i < len(rows):
            j = i
            while j + 1 < len(rows) and rows[j + 1][0] - t0 == rows[i][0] - t0:
                j += 1
            run = rows[i : j + 1]
            if len({r[2] for r in run}) > 1:
                raise ReferenceRowError("DataError",
                                        f"subject {subject!r}: conflicting labels at t={rows[i][0]}")
            ts.append(rows[i][0] - t0)
            bpms.append(sum(r[1] for r in run) / len(run))
            labels.append(rows[i][2])
            i = j + 1
        out.append((subject, device, np.asarray(ts), np.asarray(bpms), np.asarray(labels)))
    return out


def serialize_corpus_reference(corpus, out_dir):
    """One CSV per series through csv.writer, one writer call per row."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for series in corpus:
        path = out_dir / f"{series.subject_id}.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(("subject_id", "device", "timestamp", "bpm", "label"))
            for t, bpm, label in zip(series.timestamps.tolist(), series.bpm.tolist(),
                                     series.labels.tolist()):
                writer.writerow((series.subject_id, series.device_id, repr(t), repr(bpm),
                                 _LABELS[label]))
        paths.append(path)
    return paths


# -- subject profiles: one window at a time ------------------------------------

def build_profiles_reference(values, labels, subjects):
    """{subject: 5-point profile}, adding each window's mean in window order."""
    sums, counts = {}, {}
    for row, label, subject in zip(values, labels, subjects):
        sums.setdefault(subject, np.zeros(5))[int(label)] += float(np.asarray(row).mean())
        counts.setdefault(subject, np.zeros(5, dtype=np.int64))[int(label)] += 1
    return {s: sums[s] / counts[s] for s in sorted(sums)}


def subject_summaries_reference(values, labels, subjects, space, vectors=None):
    """(sorted subject ids, summary matrix) from the full (n, W) window matrix.

    The whole-cohort form the library replaced with per-subject blocks:
    profiles add every window's mean into one ``np.bincount`` over
    (subject, activity) cells, and a window-space summary copies each
    subject's rows out of ``values`` (or ``vectors``) and averages their
    vectors.
    """
    ids = sorted(set(subjects))
    code = {subject: i for i, subject in enumerate(ids)}
    codes = np.fromiter(map(code.__getitem__, subjects), np.int64, len(subjects))
    if space is ClusterSpace.MEAN_BPM_PROFILE:
        cells = codes * N_CLASSES + np.asarray(labels, dtype=np.int64)
        size = len(ids) * N_CLASSES
        sums = np.bincount(cells, weights=np.asarray(values).mean(axis=1), minlength=size)
        counts = np.bincount(cells, minlength=size)
        sums, counts = sums.reshape(-1, N_CLASSES), counts.reshape(-1, N_CLASSES)
        for i, subject in enumerate(ids):
            for a in range(N_CLASSES):
                if counts[i, a] == 0:
                    raise DataError(f"subject {subject!r} has no {ActivityLabel(a).name} windows")
        return ids, sums / counts
    order = np.argsort(codes, kind="stable")
    per_subject = np.split(order, np.cumsum(np.bincount(codes, minlength=len(ids)))[:-1])
    if vectors is None:
        blocks = (window_space_matrix(values[rows], space) for rows in per_subject)
    else:
        blocks = (vectors[rows] for rows in per_subject)
    return ids, np.stack([block.mean(axis=0) for block in blocks])


# -- model file readers ---------------------------------------------------------
# No command reads model.json; these readers check that save_ovo and save_net
# round-trip bit-exactly.

def _kernel_from_json(obj):
    return KernelSpec(kind=KernelKind(obj["kind"]), gamma=obj["gamma"])


def load_ovo(path):
    """OvoSvm from an ovo_svm.v2 file written by save_ovo."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("schema") != "ovo_svm.v2":
        raise ValueError(f"unsupported model schema {payload.get('schema')!r}")
    machines = {}
    for entry in payload["machines"]:
        a, b = entry["pair"]
        d = len(entry["support_vectors"][0]) if entry["support_vectors"] else 0
        machines[(int(a), int(b))] = BinarySvm(
            support_vectors=np.asarray(entry["support_vectors"], dtype=np.float64).reshape(-1, d),
            coef=np.asarray(entry["coef"], dtype=np.float64),
            bias=float(entry["bias"]),
            kernel=_kernel_from_json(entry["kernel"]),
            c=float(entry["c"]),
        )
    return OvoSvm(
        classes=tuple(int(v) for v in payload["classes"]),
        machines=machines,
        kernel=_kernel_from_json(payload["kernel"]),
        c=float(payload["c"]),
        tol=float(payload["tol"]),
    )


def load_net(path):
    """NetModel from a net_model.v3 file written by save_net, in its recorded dtype."""
    payload = json.loads(Path(path).read_text())
    if payload.get("schema") != "net_model.v3":
        raise ValueError("not a net_model.v3 file")
    dtype = np.dtype(payload["dtype"])
    params = {
        name: np.asarray(entry["data"], dtype=dtype).reshape(entry["shape"])
        for name, entry in payload["params"].items()
    }
    return NetModel(
        arch=ArchitectureId(payload["arch"]),
        config=NetConfig(**payload["config"]),
        params=params,
        training_log=list(payload["training_log"]),
    )
