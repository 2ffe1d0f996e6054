"""Independent reference implementations used to cross-check the library.

Everything here is written for clarity over speed and deliberately avoids
the library's own code paths.
"""

import numpy as np


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


def net_forward_reference(model, windows, hc, train_mode):
    """Scores and intermediates with channel-major conv activations (n, 16, L-4).

    The conv is an einsum over shifted views and the 2/2 max pool an argmax,
    so ties go to the left element.  A train-mode call draws its dropout mask
    from the same (seed, 1, dropout_calls) stream as the library and advances
    ``model.dropout_calls``.
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
    if train_mode and cfg.dropout_p > 0.0:
        mask_rng = np.random.default_rng(
            np.random.SeedSequence(entropy=(int(cfg.seed), 1, model.dropout_calls))
        )
        model.dropout_calls += 1
        drop_mask = (mask_rng.random(act.shape) >= cfg.dropout_p) / (1.0 - cfg.dropout_p)
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
    fc1_out = model.config.fc1_out
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
        dfc1_act = djoined[:, :fc1_out]
        if model.arch.value == "model3":
            dhc_act = djoined[:, fc1_out:] * (cache["hc_pre"] > 0.0)
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
    """Minibatch Adam with one (m, v) pair per parameter tensor, updated in turn."""
    cfg = model.config
    windows = np.asarray(windows, dtype=np.float64)
    _, hc = _net_signal(model, windows, hc)
    labels = np.asarray(labels, dtype=np.int64)
    n = windows.shape[0]
    m = {k: np.zeros_like(v) for k, v in model.params.items()}
    v = {k: np.zeros_like(vv) for k, vv in model.params.items()}
    step = 0
    shuffle_rng = np.random.default_rng(np.random.SeedSequence(entropy=(int(cfg.seed), 2)))
    for _ in range(cfg.epochs):
        order = shuffle_rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            scores, cache = net_forward_reference(model, windows[batch], hc[batch], True)
            epoch_loss += _cross_entropy(scores, labels[batch]) * batch.size
            grads = net_backward_reference(model, cache, scores, labels[batch])
            step += 1
            bias1 = 1.0 - cfg.beta1**step
            bias2 = 1.0 - cfg.beta2**step
            for key, grad in grads.items():
                m[key] = cfg.beta1 * m[key] + (1.0 - cfg.beta1) * grad
                v[key] = cfg.beta2 * v[key] + (1.0 - cfg.beta2) * grad * grad
                model.params[key] -= cfg.learning_rate * (m[key] / bias1) / (
                    np.sqrt(v[key] / bias2) + cfg.adam_epsilon
                )
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
