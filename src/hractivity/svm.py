"""Soft-margin kernel SVM trained by sequential minimal optimization.

Multiclass wraps one-against-one binary machines. Training uses second-order
working-set selection (WSS2; Fan, Chen & Lin, "Working Set Selection Using
Second Order Information for Training SVM", JMLR 2005), the LIBSVM solver:
each step takes the maximal violator i over I_up and the partner j over I_low
with the largest second-order gain, both by vectorized scans of the gradient,
and moves the pair analytically. Training stops when the maximal-violating-pair
gap is at most ``tol``; a fit that hits the iteration cap says so through
``BinarySvm.converged``.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, replace
from itertools import combinations
from pathlib import Path

import numpy as np

from .errors import DimensionMismatch, InvalidConfig, NonFiniteFeature, SingleClassInput

ALPHA_KEEP = 1e-12  # multipliers at or below this are dropped from the model
TAU = 1e-12  # curvature used for pairs with a non-positive a_ij (LIBSVM's TAU)
# Step cap.  LIBSVM uses max(10^7, 100 n); 100 n only binds past 10^5 rows,
# where the dense Gram matrix this trainer holds would not fit in memory.
MAX_ITER = 10_000_000


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
            raise InvalidConfig("rbf kernel requires a positive resolved gamma")
        sq = (a**2).sum(axis=1)[:, None] + (b**2).sum(axis=1)[None, :] - 2.0 * (a @ b.T)
        return np.exp(-self.gamma * np.maximum(sq, 0.0))


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
            raise DimensionMismatch(
                f"expected dimension {self.support_vectors.shape[1]}, got {mat.shape[1]}"
            )
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
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != y.shape[0]:
        raise DimensionMismatch("x must be (n, d) with matching labels")
    if not np.isfinite(x).all():
        raise NonFiniteFeature("non-finite training feature")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise SingleClassInput("labels must be -1/+1")
    if np.unique(y).size < 2:
        raise SingleClassInput("need both classes to train")
    if c <= 0:
        raise InvalidConfig("C must be positive")

    kernel = kernel.resolve(x)
    gram = kernel.matrix(x, x)
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
        if iterations >= MAX_ITER:
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


def dual_objective(svm_alpha, y, gram) -> float:
    """W(alpha) for diagnostics and oracle comparison."""
    a = np.asarray(svm_alpha, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    q = (y[:, None] * y[None, :]) * gram
    return float(a.sum() - 0.5 * a @ q @ a)


def kkt_violation(model: BinarySvm, x, y, tol_bound: float = 1e-9) -> float:
    """Largest stationarity violation over the training set the model saw.

    Uses the full multiplier vector stashed at training time; a violation of
    v means some margin condition is off by v (0 for a perfect KKT point).
    """
    if model.alpha is None:
        raise InvalidConfig("model carries no training multipliers")
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


@dataclass(frozen=True)
class OvoSvm:
    classes: tuple[int, ...]
    machines: dict  # (class_a, class_b) with a < b -> BinarySvm; +1 means a
    kernel: KernelSpec
    c: float
    tol: float

    def decision_rows(self, x) -> dict:
        return {pair: m.decision(x) for pair, m in self.machines.items()}


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
        raise SingleClassInput("need at least two classes")
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


def _kernel_from_json(obj: dict) -> KernelSpec:
    return KernelSpec(kind=KernelKind(obj["kind"]), gamma=obj["gamma"])


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
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_ovo(path: str | Path) -> OvoSvm:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("schema") != "ovo_svm.v2":
        raise InvalidConfig(f"unsupported model schema {payload.get('schema')!r}")
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
