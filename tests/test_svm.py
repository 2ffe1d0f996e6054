"""WSS2 SMO solver vs analytic cases, a dense QP oracle, convergence reports,
and the OvO vote rules."""

from itertools import combinations

import numpy as np
import pytest

from oracles import solve_svm_dual_qp, svm_dual_objective

from hractivity import svm
from hractivity.errors import DimensionMismatch, NonFiniteFeature, SingleClassInput
from hractivity.evaluation import build_dataset
from hractivity.features import FeatureSetKind
from hractivity.preprocess import StandardizationMode, WindowConfig, apply_scaler, fit_scaler
from hractivity.svm import (
    BinarySvm,
    KernelKind,
    KernelSpec,
    OvoSvm,
    dual_objective,
    kkt_violation,
    load_ovo,
    predict_ovo,
    save_ovo,
    train_binary,
    train_ovo,
)
from hractivity.synthetic import SyntheticCohortSpec, generate_synthetic

LINEAR = KernelSpec(KernelKind.LINEAR)


def violating_pair_gap(model, x, y):
    """m(alpha) - M(alpha): the stopping quantity of the WSS2 solver."""
    a, c = model.alpha, model.c
    v = y - model.kernel.matrix(x, x) @ (a * y)
    up = np.where(y > 0, a < c, a > 0)
    low = np.where(y > 0, a > 0, a < c)
    return v[up].max() - v[low].min()


def kkt_violation_loop(model, x, y, tol_bound=1e-9):
    """Per-multiplier reference for kkt_violation."""
    margins = y * model.decision(x)
    worst = 0.0
    for a, margin in zip(model.alpha, margins):
        if a <= tol_bound:
            worst = max(worst, 1.0 - margin)
        elif a >= model.c - tol_bound:
            worst = max(worst, margin - 1.0)
        else:
            worst = max(worst, abs(margin - 1.0))
    return worst


def predict_ovo_loop(model, x):
    """Per-row reference for predict_ovo: votes, then decision sums, then lowest id."""
    classes = list(model.classes)
    out = []
    for row in np.atleast_2d(x):
        votes = dict.fromkeys(classes, 0)
        sums = dict.fromkeys(classes, 0.0)
        for (a, b), machine in model.machines.items():
            d = machine.decision(row[None, :])[0]
            votes[a if d > 0 else b] += 1
            sums[a] += d
            sums[b] -= d
        out.append(min(classes, key=lambda k: (-votes[k], -sums[k], k)))
    return out


def test_analytic_max_margin_two_points():
    x = np.array([[-1.0], [1.0]])
    y = np.array([-1.0, 1.0])
    model = train_binary(x, y, LINEAR, c=10.0)
    # true solution: w=1, b=0, margin boundary at the origin
    assert abs(model.decision([[0.0]])[0]) < 1e-3
    w = float(model.coef @ model.support_vectors[:, 0])
    assert abs(w - 1.0) < 1e-3
    assert abs(model.bias) < 1e-3
    assert abs(model.decision([[1.0]])[0] - 1.0) < 1e-3


def test_xor_rbf_separates():
    x = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
    y = np.array([1.0, 1.0, -1.0, -1.0])
    model = train_binary(x, y, KernelSpec(KernelKind.RBF, gamma=1.0), c=10.0)
    assert np.all(np.sign(model.decision(x)) == y)
    # dual optimum agrees with the projected-gradient oracle
    gram = model.kernel.matrix(x, x)
    oracle_alpha = solve_svm_dual_qp(gram, y, 10.0)
    w_oracle = svm_dual_objective(oracle_alpha, y, gram)
    w_smo = dual_objective(model.alpha, y, gram)
    assert abs(w_smo - w_oracle) <= 1e-3 * max(1.0, abs(w_oracle))


def test_duplicated_training_set_same_decisions():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(12, 2))
    y = np.where(x[:, 0] + 0.3 * x[:, 1] > 0, 1.0, -1.0)
    kernel = KernelSpec(KernelKind.RBF, gamma=0.7)
    base = train_binary(x, y, kernel, c=1.0, tol=1e-4)
    # duplicating every point doubles the loss weight, so halve C to compensate
    doubled = train_binary(
        np.concatenate([x, x]), np.concatenate([y, y]), kernel, c=0.5, tol=1e-4
    )
    probe = rng.normal(size=(40, 2))
    assert np.max(np.abs(base.decision(probe) - doubled.decision(probe))) < 1e-3 * 2


def test_dual_matches_qp_oracle_random_instances():
    rng = np.random.default_rng(17)
    for trial in range(12):
        n = int(rng.integers(6, 21))
        d = int(rng.integers(1, 4))
        x = rng.normal(size=(n, d))
        y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        if np.unique(y).size < 2:
            y[0] = -y[0]
        kernel = (
            LINEAR if trial % 2 == 0 else KernelSpec(KernelKind.RBF, gamma=1.0)
        )
        model = train_binary(x, y, kernel, c=1.0, tol=1e-4)
        gram = model.kernel.matrix(x, x)
        w_oracle = svm_dual_objective(solve_svm_dual_qp(gram, y, 1.0), y, gram)
        w_smo = dual_objective(model.alpha, y, gram)
        assert abs(w_smo - w_oracle) <= 1e-3 * max(1.0, abs(w_oracle)), trial
        assert kkt_violation(model, x, y) <= 1e-4 + 1e-6
        assert kkt_violation(model, x, y) == kkt_violation_loop(model, x, y)


def test_feasibility_invariants_random_datasets():
    rng = np.random.default_rng(23)
    for trial in range(100):
        n = int(rng.integers(4, 26))
        x = rng.normal(size=(n, 2)) + rng.integers(-2, 3, size=(n, 2))
        y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        if np.unique(y).size < 2:
            y[0] = -y[0]
        model = train_binary(x, y, c=1.0)
        assert np.all(model.alpha >= -1e-12)
        assert np.all(model.alpha <= 1.0 + 1e-12)
        assert abs(model.alpha @ y) < 1e-6


def test_prediction_invariant_to_training_order():
    rng = np.random.default_rng(6)
    x = np.concatenate([rng.normal(size=(20, 2)) + 3.0, rng.normal(size=(20, 2)) - 3.0])
    y = np.array([1.0] * 20 + [-1.0] * 20)
    probe = rng.normal(scale=4.0, size=(200, 2))
    model = train_binary(x, y, c=1.0)
    perm = rng.permutation(40)
    shuffled = train_binary(x[perm], y[perm], c=1.0)
    disagree = (np.sign(model.decision(probe)) != np.sign(shuffled.decision(probe))).mean()
    assert disagree == 0.0  # separable data: no flips allowed


def test_gamma_default_resolution():
    x = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 4.0], [2.0, 4.0]])
    resolved = KernelSpec().resolve(x)
    expect = 1.0 / (2 * np.mean([x[:, 0].var(), x[:, 1].var()]))
    assert resolved.gamma == pytest.approx(expect, rel=1e-12)


def test_input_validation():
    with pytest.raises(SingleClassInput):
        train_binary(np.zeros((3, 1)), np.ones(3), LINEAR)
    with pytest.raises(SingleClassInput):
        train_binary(np.zeros((3, 1)), np.array([1.0, 2.0, -1.0]), LINEAR)
    with pytest.raises(NonFiniteFeature):
        train_binary(np.array([[np.nan], [1.0]]), np.array([1.0, -1.0]), LINEAR)
    model = train_binary(np.array([[-1.0], [1.0]]), np.array([-1.0, 1.0]), LINEAR)
    with pytest.raises(DimensionMismatch):
        model.decision(np.zeros((2, 3)))


def test_ovo_machine_count_and_classes():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(60, 3)) + 4.0 * rng.integers(0, 5, size=60)[:, None]
    y = np.arange(60) % 5
    model = train_ovo(x, y)
    assert model.classes == (0, 1, 2, 3, 4)
    assert len(model.machines) == 10
    assert set(model.machines) == {(a, b) for a in range(5) for b in range(a + 1, 5)}


def fixed_machine(decision_value):
    # no support vectors: decision is constant at the bias
    return BinarySvm(np.zeros((0, 1)), np.zeros(0), float(decision_value), LINEAR, 1.0)


def ovo_from(machine_decisions):
    classes = sorted({c for pair in machine_decisions for c in pair})
    return OvoSvm(
        classes=tuple(classes),
        machines={pair: fixed_machine(d) for pair, d in machine_decisions.items()},
        kernel=LINEAR,
        c=1.0,
        tol=1e-3,
    )


def test_ovo_ties_resolved_per_row():
    # linear machines over one-hot rows: machine decision on row r is values[r]
    def per_row(values):
        return BinarySvm(np.eye(4), np.asarray(values), 0.0, LINEAR, 1.0)

    # row 0: majority for 2; rows 1 and 3: vote cycles whose sums pick 1
    # and 2; row 2: full tie, lowest id
    model = OvoSvm(
        classes=(0, 1, 2),
        machines={
            (0, 1): per_row([0.9, 0.25, 0.2, 0.25]),
            (0, 2): per_row([-0.8, -0.5, -0.2, -0.5]),
            (1, 2): per_row([-0.7, 0.5, 0.2, 0.1]),
        },
        kernel=LINEAR,
        c=1.0,
        tol=1e-3,
    )
    assert list(predict_ovo(model, np.eye(4))) == [2, 1, 0, 2]
    assert list(predict_ovo(model, np.eye(4)[::-1])) == [2, 0, 1, 2]

    # coarse decision values make vote and sum ties common
    rng = np.random.default_rng(5)
    n = 300
    model = OvoSvm(
        classes=(0, 1, 2, 3),
        machines={
            pair: BinarySvm(np.eye(n), 0.5 * rng.integers(-2, 3, n), 0.0, LINEAR, 1.0)
            for pair in combinations((0, 1, 2, 3), 2)
        },
        kernel=LINEAR,
        c=1.0,
        tol=1e-3,
    )
    assert list(predict_ovo(model, np.eye(n))) == predict_ovo_loop(model, np.eye(n))


def test_ovo_vote_majority():
    # 0 beats 1, 0 beats 2, 1 beats 2: votes 2/1/0
    model = ovo_from({(0, 1): 0.9, (0, 2): 0.8, (1, 2): 0.7})
    assert predict_ovo(model, [[0.0]])[0] == 0


def test_ovo_vote_cycle_breaks_by_decision_sum():
    # cycle 0>1, 2>0, 1>2: one vote each; sums 0:-0.25, 1:+0.25, 2:0 -> class 1
    model = ovo_from({(0, 1): 0.25, (0, 2): -0.5, (1, 2): 0.5})
    assert predict_ovo(model, [[0.0]])[0] == 1


def test_ovo_all_tie_lowest_class():
    model = ovo_from({(0, 1): 0.2, (0, 2): -0.2, (1, 2): 0.2})
    # cycle with sums 0: 0.0, 1: 0.0, 2: 0.0 -> lowest class id
    assert predict_ovo(model, [[0.0]])[0] == 0


def test_ovo_trains_and_separates_blobs():
    rng = np.random.default_rng(9)
    centers = np.array([[0.0, 0.0], [6.0, 0.0], [0.0, 6.0], [6.0, 6.0], [3.0, 10.0]])
    x = np.concatenate([c + 0.5 * rng.normal(size=(20, 2)) for c in centers])
    y = np.repeat(np.arange(5), 20)
    model = train_ovo(x, y)
    assert (predict_ovo(model, x) == y).mean() >= 0.99


def test_ovo_serialization_bit_exact(tmp_path):
    rng = np.random.default_rng(14)
    x = np.concatenate([rng.normal(size=(15, 3)), rng.normal(size=(15, 3)) + 2.5])
    y = np.array([0] * 15 + [3] * 15)
    model = train_ovo(x, y)
    path = tmp_path / "svm.json"
    save_ovo(model, path)
    loaded = load_ovo(path)
    probe = rng.normal(size=(100, 3))
    for pair in model.machines:
        a = model.machines[pair].decision(probe)
        b = loaded.machines[pair].decision(probe)
        assert np.array_equal(a, b)  # bit-exact
    assert np.array_equal(predict_ovo(model, probe), predict_ovo(loaded, probe))
    save_ovo(model, tmp_path / "svm2.json")
    assert (tmp_path / "svm.json").read_bytes() == (tmp_path / "svm2.json").read_bytes()


def test_every_ovo_machine_converges_under_feature_standardization():
    series, _ = generate_synthetic(SyntheticCohortSpec(n_subjects=8, n_groups=2, seed=1))
    ds = build_dataset(series, WindowConfig(50, 10), StandardizationMode.FEATURE,
                       FeatureSetKind.STAT_TEMPORAL)
    x = apply_scaler(fit_scaler(ds.hc), ds.hc)
    model = train_ovo(x, ds.labels, tol=1e-3)
    assert len(model.machines) == 10
    for (a, b), machine in model.machines.items():
        mask = (ds.labels == a) | (ds.labels == b)
        pair_y = np.where(ds.labels[mask] == a, 1.0, -1.0)
        assert machine.converged is True, (a, b)
        assert 0 < machine.iterations < svm.MAX_ITER
        assert violating_pair_gap(machine, x[mask], pair_y) <= 1e-3, (a, b)


def test_iteration_cap_reports_not_converged(monkeypatch):
    rng = np.random.default_rng(31)
    x = rng.normal(size=(30, 2))
    y = np.where(x[:, 0] + 0.5 * rng.normal(size=30) > 0, 1.0, -1.0)
    assert train_binary(x, y).converged is True
    monkeypatch.setattr(svm, "MAX_ITER", 1)
    capped = train_binary(x, y)
    assert capped.converged is False
    assert capped.iterations == 1
    assert violating_pair_gap(capped, x, y) > 1e-3


def test_refit_gives_bit_identical_multipliers():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(40, 3))
    y = np.where(x[:, 0] * x[:, 1] > 0, 1.0, -1.0)
    first = train_binary(x, y, c=2.0)
    second = train_binary(x, y, c=2.0)
    assert first.alpha.tobytes() == second.alpha.tobytes()
    assert first.bias == second.bias
    assert first.iterations == second.iterations
