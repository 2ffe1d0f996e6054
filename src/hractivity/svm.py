"""Soft-margin kernel SVM trained by sequential minimal optimization.

Multiclass wraps one-against-one binary machines. Training uses second-order
working-set selection (WSS2; Fan, Chen & Lin, "Working Set Selection Using
Second Order Information for Training SVM", JMLR 2005), the LIBSVM solver:
each step takes the maximal violator i over I_up and the partner j over I_low
with the largest second-order gain, both by vectorized scans of the gradient,
and moves the pair analytically. Each curvature row is computed once per
machine, and the two index sets are masks that each step updates only at the
pair it moved. Training stops when the maximal-violating-pair gap is at
most ``tol``; a fit that hits the iteration cap says so through
``BinarySvm.converged``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from itertools import combinations
from pathlib import Path

import numpy as np

from .artifacts import write_json
from .errors import ConfigError, DataError, GramTooLarge

ALPHA_KEEP = 1e-12  # multipliers at or below this are dropped from the model
TAU = 1e-12  # curvature used for pairs with a non-positive a_ij (LIBSVM's TAU)
# Step cap.  LIBSVM uses max(10^7, 100 n); 100 n only binds past 10^5 rows,
# where the dense Gram matrix this trainer holds would not fit in memory.
MAX_ITER = 10_000_000
# Entries of the dense n x n Gram matrix a machine may hold: 10^4 rows, 0.8 GB
# of float64.
MAX_GRAM_ENTRIES = 10**8
# Entries of |a|^2 + |b|^2 that KernelSpec.matrix holds at once: 64 KB.
OUTER_BLOCK_ENTRIES = 8192


class KernelKind(enum.Enum):
    LINEAR = "linear"
    RBF = "rbf"


@dataclass(frozen=True)
class KernelSpec:
    kind: KernelKind = KernelKind.RBF
    gamma: float | None = None  # None: resolve 1/(d * mean per-dim variance) at fit

    def resolve(self, x: np.ndarray) -> "KernelSpec":
        if self.kind is KernelKind.LINEAR or self.gamma is not None:
            return self
        d = x.shape[1]
        variance = float(x.var(axis=0).mean())
        if variance <= 0:
            variance = 1.0
        return replace(self, gamma=1.0 / (d * variance))

    def matrix(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.kind is KernelKind.LINEAR:
            return a @ b.T
        if self.gamma is None or not np.isfinite(self.gamma) or self.gamma <= 0:
            raise ConfigError("rbf kernel requires a positive resolved gamma")
        # exp(-gamma * max(|a|^2 + |b|^2 - 2 a.b, 0)) in one n x m buffer, each
        # step the same IEEE operation on the same operands as the expression
        # written out: doubling is exact and -gamma * m equals m * -gamma.
        # The outer sum is formed a block of rows at a time.
        sq_a = (a**2).sum(axis=1)
        sq_b = sq_a if b is a else (b**2).sum(axis=1)
        k = a @ b.T
        k *= 2.0
        rows = max(1, OUTER_BLOCK_ENTRIES // max(1, k.shape[1]))
        for start in range(0, k.shape[0], rows):
            block = k[start : start + rows]
            np.subtract(np.add.outer(sq_a[start : start + rows], sq_b), block, out=block)
        np.maximum(k, 0.0, out=k)
        k *= -self.gamma
        return np.exp(k, out=k)


@dataclass(frozen=True)
class BinarySvm:
    support_vectors: np.ndarray  # (m, d)
    coef: np.ndarray  # alpha_i * y_i, shape (m,)
    bias: float
    kernel: KernelSpec
    c: float
    alpha: np.ndarray | None = None  # full training multipliers; not serialized
    iterations: int | None = None  # solver steps taken; not serialized
    converged: bool | None = None  # gap <= tol reached before MAX_ITER; not serialized

    def decision(self, x) -> np.ndarray:
        mat = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if mat.shape[1] != self.support_vectors.shape[1]:
            raise DataError(f"expected dimension {self.support_vectors.shape[1]}, "
                            f"got {mat.shape[1]}")
        if self.support_vectors.shape[0] == 0:
            return np.full(mat.shape[0], self.bias)
        return self.kernel.matrix(mat, self.support_vectors) @ self.coef + self.bias


def train_binary(
    x,
    y,
    kernel: KernelSpec = KernelSpec(),
    c: float = 1.0,
    tol: float = 1e-3,
) -> BinarySvm:
    """WSS2 SMO on the soft-margin dual; no randomness, so fits are repeatable.

    Stops when the maximal-violating-pair gap m(alpha) - M(alpha) is at most
    tol, or after MAX_ITER steps, which the model reports as converged=False.
    More than ``MAX_GRAM_ENTRIES`` Gram entries (n^2) raises GramTooLarge
    before anything n x n is allocated.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != y.shape[0]:
        raise DataError("x must be (n, d) with matching labels")
    if not np.isfinite(x).all():
        raise DataError("non-finite training feature")
    pos = y == 1.0
    if not (pos | (y == -1.0)).all():
        raise DataError("labels must be -1/+1")
    if pos.all() or not pos.any():
        raise DataError("need both classes to train")
    if c <= 0:
        raise ConfigError("C must be positive")
    n = x.shape[0]
    if n * n > MAX_GRAM_ENTRIES:
        raise GramTooLarge(f"an SVM machine on {n} rows needs a {n} x {n} Gram matrix, "
                           f"more than MAX_GRAM_ENTRIES = {MAX_GRAM_ENTRIES} entries")

    kernel = kernel.resolve(x)
    gram = kernel.matrix(x, x)
    diag = gram.diagonal().copy()
    # Curvature rows a_ij = K_ii + K_jj - 2 K_ij, non-positive entries set to
    # TAU, each built the first time its i is picked.  A fit picks the same i
    # many times and builds from a third to a twentieth of the n rows, so the
    # full n x n matrix up front would cost more than the steps themselves.
    curv = {}
    c = float(c)
    max_iter = MAX_ITER
    alpha = [0.0] * n
    # v = -y * (gradient of the dual) = y - K (alpha * y); starts at alpha = 0
    v = y.copy()
    # I_up (y * alpha may still grow) and I_low (it may still shrink) as
    # masks added to a vector: 0 inside the set, -inf outside.  At alpha = 0
    # I_up holds the positives and I_low the negatives.
    up = np.where(pos, 0.0, -np.inf)
    low = np.where(pos, -np.inf, 0.0)
    pos = pos.tolist()
    signs = y.tolist()
    b = np.empty(n)
    work = np.empty(n)
    iterations = 0
    converged = False
    while True:
        np.add(v, up, out=work)
        i = int(work.argmax())
        np.subtract(v[i], v, out=b)
        # max over I_low of v_i - v is m(alpha) - M(alpha): subtraction
        # rounds monotonically, so it equals v_i - min over I_low of v
        np.add(b, low, out=work)
        if work[work.argmax()] <= tol:  # argmax: cheaper than max() on short vectors
            converged = True
            break
        if iterations >= max_iter:
            break
        iterations += 1
        curv_i = curv.get(i)
        if curv_i is None:
            curv_i = curv[i] = diag[i] + diag
            curv_i -= 2.0 * gram[i]
            curv_i[curv_i <= 0.0] = TAU
        # j: the violating partner with the largest second-order gain b^2 / a.
        # Rows with b <= 0 score 0.  Some row of I_low has b = gap > tol, so
        # its gain is positive (unless b * b / a underflows, which takes a tol
        # far below 1e-100), and argmax keeps the first of tied rows, as
        # argmin of -(b * b) / a over I_low with b > 0 would.
        np.maximum(b, 0.0, out=work)
        np.multiply(work, work, out=work)
        np.divide(work, curv_i, out=work)
        np.add(work, low, out=work)
        j = int(work.argmax())
        # move alpha_i by y_i * t and alpha_j by -y_j * t, clipped to the box
        a_i, a_j = alpha[i], alpha[j]
        room_i = c - a_i if pos[i] else a_i
        room_j = a_j if pos[j] else c - a_j
        t = min(float(b[j]) / float(curv_i[j]), room_i, room_j)
        a_i = alpha[i] = (c if pos[i] else 0.0) if t == room_i else a_i + signs[i] * t
        a_j = alpha[j] = (0.0 if pos[j] else c) if t == room_j else a_j - signs[j] * t
        up[i] = 0.0 if (a_i < c if pos[i] else a_i > 0.0) else -np.inf
        low[i] = 0.0 if (a_i > 0.0 if pos[i] else a_i < c) else -np.inf
        up[j] = 0.0 if (a_j < c if pos[j] else a_j > 0.0) else -np.inf
        low[j] = 0.0 if (a_j > 0.0 if pos[j] else a_j < c) else -np.inf
        np.subtract(gram[i], gram[j], out=work)
        np.multiply(work, t, out=work)
        np.subtract(v, work, out=v)
    alpha = np.array(alpha)

    # Threshold from the final multipliers: the mean over free ones, or the
    # middle of the feasible interval when every multiplier sits at a bound.
    r = y - (alpha * y) @ gram
    bias = 0.0
    eps_b = 1e-10 * max(1.0, c)
    free = (alpha > eps_b) & (alpha < c - eps_b)
    if np.any(free):
        bias = float(np.mean(r[free]))
    else:
        at_zero = alpha <= eps_b
        at_c = alpha >= c - eps_b
        lows = r[np.where(y > 0, at_zero, at_c)]
        highs = r[np.where(y > 0, at_c, at_zero)]
        if lows.size and highs.size:
            bias = float((lows.max() + highs.min()) / 2.0)
        elif lows.size:
            bias = float(lows.max())
        elif highs.size:
            bias = float(highs.min())

    keep = alpha > ALPHA_KEEP
    return BinarySvm(
        support_vectors=x[keep],  # boolean indexing copies
        coef=(alpha * y)[keep],
        bias=bias,
        kernel=kernel,
        c=float(c),
        alpha=alpha,
        iterations=iterations,
        converged=converged,
    )


@dataclass(frozen=True)
class OvoSvm:
    classes: tuple[int, ...]
    machines: dict  # (class_a, class_b) with a < b -> BinarySvm; +1 means a
    kernel: KernelSpec
    c: float
    tol: float


def train_ovo(
    x,
    y,
    kernel: KernelSpec = KernelSpec(),
    c: float = 1.0,
    tol: float = 1e-3,
) -> OvoSvm:
    """One binary machine per class pair; +1 encodes the lower class id."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    classes = tuple(int(v) for v in np.unique(y))
    if len(classes) < 2:
        raise DataError("need at least two classes")
    kernel = kernel.resolve(x)  # shared gamma across all machines
    machines = {}
    for a, b in combinations(classes, 2):
        mask = (y == a) | (y == b)
        pair_y = np.where(y[mask] == a, 1.0, -1.0)
        machines[(a, b)] = train_binary(x[mask], pair_y, kernel, c, tol)
    return OvoSvm(classes=classes, machines=machines, kernel=kernel, c=float(c),
                  tol=float(tol))


def predict_ovo(model: OvoSvm, x) -> np.ndarray:
    """Vote of all machines; ties by largest signed decision sum, then lowest id."""
    mat = np.atleast_2d(np.asarray(x, dtype=np.float64))
    n = mat.shape[0]
    index = {cls: i for i, cls in enumerate(model.classes)}
    votes = np.zeros((n, len(model.classes)), dtype=np.int64)
    sums = np.zeros((n, len(model.classes)))
    for (a, b), machine in model.machines.items():
        d = machine.decision(mat)
        wins_a = d > 0
        votes[:, index[a]] += wins_a
        votes[:, index[b]] += ~wins_a
        sums[:, index[a]] += d
        sums[:, index[b]] -= d
    tied = votes == votes.max(axis=1, keepdims=True)
    tied_sums = np.where(tied, sums, -np.inf)
    best = tied_sums == tied_sums.max(axis=1, keepdims=True)
    # argmax takes the first True: the lowest class id among the best
    return np.asarray(model.classes, dtype=np.int64)[best.argmax(axis=1)]


def _kernel_to_json(kernel: KernelSpec) -> dict:
    return {"kind": kernel.kind.value, "gamma": kernel.gamma}


def save_ovo(model: OvoSvm, path: str | Path) -> None:
    """Versioned JSON; float repr round-trips make reloaded predictions bit-exact."""
    payload = {
        "schema": "ovo_svm.v2",
        "classes": list(model.classes),
        "kernel": _kernel_to_json(model.kernel),
        "c": model.c,
        "tol": model.tol,
        "machines": [
            {
                "pair": [a, b],
                "bias": m.bias,
                "coef": [float(v) for v in m.coef],
                "support_vectors": [[float(v) for v in row] for row in m.support_vectors],
                "kernel": _kernel_to_json(m.kernel),
                "c": m.c,
            }
            for (a, b), m in sorted(model.machines.items())
        ],
    }
    write_json(payload, path)

