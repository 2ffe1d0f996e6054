"""Release gate: one test per shipping criterion.

Each test prints a single PASS/FAIL line (visible under pytest's capture) and
enforces its wall-clock budget. Numeric expectations follow the module test
suites; the trend criteria (7-11, 14 and 15) rerun the frozen synthetic cohorts
across seeds 1-5 and require the stated majority.
"""

import hashlib
import os
import time
from pathlib import Path

import numpy as np
import pytest

from cohorts import shape_groups_cohort
from oracles import (
    exhaustive_kmeans_inertia,
    kkt_violation,
    solve_svm_dual_qp,
    svm_dual_objective,
)

from hractivity.cli import main as cli_main
from hractivity.clustering import ClusterSpace, fit_cluster_model, kmeans_fit, subject_summaries
from hractivity.evaluation import (
    DatasetSpec,
    RoutingMode,
    SplitKind,
    SplitPlan,
    SvmSpec,
    build_dataset,
    fit_classifier,
    mean_fold_balanced,
    misclassification_timeline,
    routed_eval,
    run_split,
    run_sweep,
    subject_segments,
    within_cluster_loso,
)
from hractivity.features import (
    BASE_NAMES,
    STATISTICAL_NAMES,
    TEMPORAL_NAMES,
    FeatureSetKind,
    base_matrix,
    feature_matrix,
    statistical_matrix,
    temporal_matrix,
)
from hractivity.ingest import parse_corpus, resample_uniform
from hractivity.metrics import accuracy, balanced_accuracy, confusion_matrix
from hractivity.neuralnet import (
    ArchitectureId,
    NetConfig,
    build,
    gradient_check,
    predict,
    train,
)
from hractivity.preprocess import (
    StandardizationMode,
    WindowConfig,
    apply_scaler,
    fit_scaler,
    standardize_series,
    window_count,
)
from hractivity.svm import KernelKind, KernelSpec, train_binary
from hractivity.synthetic import SyntheticCohortSpec, generate_synthetic

LINEAR = KernelSpec(KernelKind.LINEAR)
SEEDS = (1, 2, 3, 4, 5)


def _verdict(capsys, num, label, ok, detail, t0, limit_s):
    elapsed = time.perf_counter() - t0
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"criterion {num:2d} [{label}] {status}: {detail} ({elapsed:.1f}s, limit {limit_s:.0f}s)")
    assert ok, f"criterion {num} [{label}]: {detail}"
    assert elapsed < limit_s, f"criterion {num} over budget: {elapsed:.1f}s >= {limit_s:.0f}s"


def test_criterion_01_window_count_arithmetic(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    for _ in range(1000):
        w = int(rng.integers(2, 300))
        s = int(rng.integers(1, 300))
        n = int(rng.integers(0, 2000))
        expected = (n - w) // s + 1 if n >= w else 0
        got = window_count(n, WindowConfig(w, s))
        assert got == expected, (n, w, s, got, expected)
    _verdict(capsys, 1, "windowing", True, "1000 random (N, W, S) exact", t0, 1.0)


def test_criterion_02_standardization_contracts(capsys):
    t0 = time.perf_counter()
    series, _ = generate_synthetic(SyntheticCohortSpec(n_subjects=6, n_groups=2, seed=42))
    worst_mean = worst_std = 0.0
    for s in series:
        z = standardize_series(s)
        worst_mean = max(worst_mean, abs(float(z.bpm.mean())))
        worst_std = max(worst_std, abs(float(z.bpm.std(ddof=1)) - 1.0))
    ok_data = worst_mean < 1e-12 and worst_std <= 1e-12

    # feature scaler: statistics come from training rows and nothing else
    rng = np.random.default_rng(2)
    train_mat = rng.normal(size=(40, 7)) * rng.uniform(0.5, 3.0, 7) + rng.uniform(-5, 5, 7)
    test_mat = rng.normal(size=(25, 7)) + 10.0  # shifted on purpose
    sc = fit_scaler(train_mat)
    ok_fit = np.allclose(sc.mean, train_mat.mean(axis=0), atol=1e-12) and np.allclose(
        sc.std, train_mat.std(axis=0, ddof=1), atol=1e-12
    )
    zt = apply_scaler(sc, train_mat)
    ok_train = (
        np.max(np.abs(zt.mean(axis=0))) < 1e-12
        and np.max(np.abs(zt.std(axis=0, ddof=1) - 1.0)) <= 1e-12
    )
    zq = apply_scaler(sc, test_mat)
    want = (test_mat.mean(axis=0) - train_mat.mean(axis=0)) / train_mat.std(axis=0, ddof=1)
    ok_test = np.max(np.abs(zq.mean(axis=0) - want)) < 1e-10  # test shift survives: train stats only
    ok = ok_data and ok_fit and ok_train and ok_test
    _verdict(
        capsys, 2, "standardization", ok,
        f"per-subject |mean|<{worst_mean:.1e}, |std-1|<{worst_std:.1e}; scaler train-only",
        t0, 1.0,
    )


def test_criterion_03_feature_values_and_invariances(capsys):
    t0 = time.perf_counter()
    tol = 1e-9

    def base(values):
        return base_matrix(np.asarray(values, dtype=np.float64)[None, :])[0]

    got = dict(zip(BASE_NAMES, base([60.0, 70.0, 80.0])))
    ok = (
        got["0_Max"] == 80.0
        and got["0_Min"] == 60.0
        and got["0_Mean"] == 70.0
        and abs(got["0_Std"] - 10.0) < tol
        and abs(got["0_FirstDerivativeMean"] - 10.0) < tol
        and abs(got["0_SecondDerivativeMean"]) < tol
    )
    ok = ok and np.allclose(base([72.0] * 5), [72, 72, 72, 0, 0, 0], atol=tol)
    quad = dict(zip(BASE_NAMES, base([0.0, 1.0, 4.0, 9.0])))
    ok = ok and abs(quad["0_FirstDerivativeMean"] - 3.0) < tol
    ok = ok and abs(quad["0_SecondDerivativeMean"] - 2.0) < tol
    assert ok, "hand-computed feature examples"

    def stat_temp(values):
        mat = np.asarray(values, dtype=np.float64)[None, :]
        out = dict(zip(STATISTICAL_NAMES, statistical_matrix(mat)[0]))
        out.update(zip(TEMPORAL_NAMES, temporal_matrix(mat)[0]))
        return out

    shift_by_c = {"0_Mean", "0_Min", "0_Max", "0_Median"}
    shift_free = {
        "0_Std", "0_Variance", "0_InterquartileRange", "0_Skewness", "0_Kurtosis",
        "0_HistogramEntropy", "0_MeanAbsoluteDeviation", "0_Autocorrelation",
        "0_ZeroCrossings", "0_MeanAbsoluteDiff", "0_MeanDiff", "0_SumAbsoluteDiff",
        "0_Slope", "0_PeakToPeak", "0_LocalMaximaCount",
    }
    rng = np.random.default_rng(7)
    for _ in range(500):
        x = rng.uniform(50, 150, int(rng.integers(8, 60)))
        c = float(rng.uniform(-40, 40))
        a, b = stat_temp(x), stat_temp(x + c)
        for name in shift_by_c:
            assert abs(b[name] - (a[name] + c)) < tol, name
        for name in shift_free:
            assert abs(b[name] - a[name]) < tol, name

    scale_by_a = {"0_Std", "0_InterquartileRange", "0_PeakToPeak"}
    scale_free = {"0_Skewness", "0_Kurtosis", "0_Autocorrelation"}
    rng = np.random.default_rng(9)
    for _ in range(500):
        x = rng.uniform(50, 150, int(rng.integers(8, 60)))
        a = float(rng.uniform(0.1, 5.0))
        before, after = stat_temp(x), stat_temp(a * x)
        for name in scale_by_a:
            assert abs(after[name] - a * before[name]) < tol * max(1.0, abs(before[name])), name
        for name in scale_free:
            assert abs(after[name] - before[name]) < tol, name
    _verdict(capsys, 3, "features", True, "frozen examples to 1e-9 + 1000-window invariances", t0, 5.0)


def test_criterion_04_kmeans_matches_exhaustive_optimum(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    hits = 0
    for trial in range(50):
        k = int(rng.integers(2, 4))
        d = int(rng.integers(1, 4))
        n = int(rng.integers(6, 13))
        centers = rng.uniform(-8.0, 8.0, size=(k, d))
        vectors = centers[rng.integers(0, k, size=n)] + 0.6 * rng.normal(size=(n, d))
        optimum = exhaustive_kmeans_inertia(vectors, k)
        _, _, inertia = kmeans_fit(vectors, k, seed=trial)
        assert inertia >= optimum - 1e-9, trial
        hits += abs(inertia - optimum) < 1e-9
    _verdict(capsys, 4, "k-means oracle", hits >= 48, f"{hits}/50 instances at the optimum", t0, 30.0)


def test_criterion_05_svm_matches_qp_oracle(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(55)
    worst_rel = worst_kkt = 0.0
    for trial in range(50):
        n = int(rng.integers(6, 21))
        d = int(rng.integers(1, 4))
        x = rng.normal(size=(n, d))
        y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        if np.unique(y).size < 2:
            y[0] = -y[0]
        kernel = LINEAR if trial % 2 == 0 else KernelSpec(KernelKind.RBF, gamma=1.0)
        model = train_binary(x, y, kernel, c=1.0, tol=1e-4)
        gram = model.kernel.matrix(x, x)
        w_oracle = svm_dual_objective(solve_svm_dual_qp(gram, y, 1.0), y, gram)
        rel = abs(svm_dual_objective(model.alpha, y, gram) - w_oracle) / max(1.0, abs(w_oracle))
        worst_rel = max(worst_rel, rel)
        worst_kkt = max(worst_kkt, kkt_violation(model, x, y))
        assert rel <= 1e-3, trial
        assert worst_kkt <= 1e-4 + 1e-6, trial
    # separable two-point problem with the known closed-form solution w=1, b=0
    m = train_binary(np.array([[-1.0], [1.0]]), np.array([-1.0, 1.0]), LINEAR, c=10.0)
    ok_analytic = (
        abs(m.decision([[0.0]])[0]) < 1e-3
        and abs(m.decision([[1.0]])[0] - 1.0) < 1e-3
        and abs(m.bias) < 1e-3
    )
    _verdict(
        capsys, 5, "svm oracle", ok_analytic,
        f"50 instances, worst dual rel err {worst_rel:.1e}, worst KKT {worst_kkt:.1e}",
        t0, 30.0,
    )


def test_criterion_06_gradient_checks_all_architectures(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = 0.0
    for arch, f in (
        (ArchitectureId.BASELINE, 0),
        (ArchitectureId.MODEL1, 22),
        (ArchitectureId.MODEL2, 22),
        (ArchitectureId.MODEL3, 22),
    ):
        model = build(arch, NetConfig(window_size=50, hc_dim=f, seed=7))
        w = rng.normal(size=(6, 50))
        h = rng.normal(size=(6, f)) if f else None
        y = rng.integers(0, 5, size=6)
        err = gradient_check(model, w, h, y)
        worst = max(worst, err)
        assert err < 1e-4, arch
    _verdict(capsys, 6, "gradients", True, f"4 architectures, worst rel err {worst:.1e}", t0, 60.0)


# --- trend criteria: frozen synthetic cohorts, seeds 1-5 -----------------

DUR7 = (150.0, 120.0, 120.0, 120.0, 270.0)
PROF7 = ((0.0, 14.0, 28.0, 42.0, 56.0), (7.0, 23.0, 39.0, 55.0, 71.0))


def _stride_trend_one_seed(seed):
    # Both arms are scored on a fixed dense-stride probe grid of the held-out
    # subject, so the training stride controls only class coverage and the
    # pooled split controls only train/test subject overlap.
    spec = SvmSpec(inputs="windows")
    std = StandardizationMode.NONE
    series, _ = generate_synthetic(SyntheticCohortSpec(
        n_subjects=30, n_groups=2, seed=seed, noise_std=2.5, lag_tau_s=10.0,
        segment_durations_s=DUR7, group_offset_profiles=PROF7))
    probe = build_dataset(series, DatasetSpec(WindowConfig(80, 10), std))
    probe_subjects = np.asarray(probe.subject_ids)[probe.subject_index]
    ids = probe.subject_ids
    out = {}
    for stride in (10, 120):
        ds = probe if stride == 10 else build_dataset(series,
                                                      DatasetSpec(WindowConfig(80, stride), std))
        subjects = np.asarray(ds.subject_ids)[ds.subject_index]
        for arm in ("held_out", "pooled"):
            cm = np.zeros((5, 5), dtype=np.int64)
            for k, sid in enumerate(ids):
                if arm == "held_out":
                    tr = np.flatnonzero(subjects != sid)
                else:
                    # stratified 70% of all subjects' windows, held-out included
                    rng = np.random.default_rng(np.random.SeedSequence((seed, stride, k)))
                    parts = []
                    for lab in np.unique(ds.labels):
                        rows = np.flatnonzero(ds.labels == lab)
                        parts.append(rng.permutation(rows)[: max(1, int(round(0.7 * rows.size)))])
                    tr = np.sort(np.concatenate(parts))
                clf = fit_classifier(spec, ds, tr, seed)
                m = probe_subjects == sid
                cm += confusion_matrix(probe.labels[m], clf.predict(probe.windows[m], probe.hc[m]))
            out[(arm, stride)] = (balanced_accuracy(cm), accuracy(cm))
    return out


def test_criterion_07_stride_and_split_trends(capsys):
    t0 = time.perf_counter()
    stride_wins = pool_wins = 0
    for seed in SEEDS:
        o = _stride_trend_one_seed(seed)
        stride_wins += o[("held_out", 10)][0] > o[("held_out", 120)][0]
        pool_wins += all(o[("pooled", s)][1] >= o[("held_out", s)][1] for s in (10, 120))
    ok = stride_wins >= 4 and pool_wins >= 4
    _verdict(
        capsys, 7, "stride/split trends", ok,
        f"stride-10 beats stride-120 in {stride_wins}/5, pooled >= held-out in {pool_wins}/5",
        t0, 600.0,
    )


PROF8 = ((0.0, 12.0, 48.0, 24.0, 36.0), (46.0, 58.0, 70.0, 64.0, 52.0))


def _rest_activity_confusions(cm):
    return int(cm[0, 1:].sum() + cm[1:, 0].sum())


def test_criterion_08_routing_trends(capsys):
    t0 = time.perf_counter()
    spec = SvmSpec(inputs="windows")
    bal_wins = conf_wins = 0
    for seed in SEEDS:
        series, _ = generate_synthetic(SyntheticCohortSpec(
            n_subjects=25, n_groups=2, seed=seed, group_offset_profiles=PROF8))
        ds = build_dataset(series, DatasetSpec(WindowConfig(50, 25), StandardizationMode.NONE))
        rep = {}
        for k in (3, 4):
            for mode in (RoutingMode.PER_SUBJECT, RoutingMode.PER_WINDOW):
                rep[(k, mode)] = routed_eval(
                    ds, k, mode, ClusterSpace.STATISTICAL_WINDOW, spec, seed=seed)
        bal_wins += all(
            rep[(k, RoutingMode.PER_SUBJECT)].balanced_accuracy
            >= rep[(k, RoutingMode.PER_WINDOW)].balanced_accuracy
            for k in (3, 4)
        )
        conf_wins += all(
            _rest_activity_confusions(rep[(k, RoutingMode.PER_SUBJECT)].confusion)
            < _rest_activity_confusions(rep[(k, RoutingMode.PER_WINDOW)].confusion)
            for k in (3, 4)
        )
    ok = bal_wins >= 4 and conf_wins >= 4
    _verdict(
        capsys, 8, "routing trends", ok,
        f"per-subject >= per-window balanced in {bal_wins}/5, "
        f"fewer rest<->activity confusions in {conf_wins}/5 (k in 3,4)",
        t0, 600.0,
    )


PROF9 = tuple(tuple(40.0 * g + o for o in (0.0, 10.0, 42.0, 20.0, 30.0)) for g in range(3))


def test_criterion_09_within_cluster_gains(capsys):
    t0 = time.perf_counter()
    spec = SvmSpec(inputs="windows")
    per_seed = []
    all_aligned = True
    for seed in SEEDS:
        series, groups = generate_synthetic(SyntheticCohortSpec(
            n_subjects=24, n_groups=3, seed=seed, group_offset_profiles=PROF9))
        cfg = DatasetSpec(WindowConfig(50, 25), StandardizationMode.NONE)
        space = ClusterSpace.MEAN_BPM_PROFILE
        ds = build_dataset(series, cfg)
        _, assignment = fit_cluster_model(
            *subject_summaries(subject_segments(series, cfg), space), space, 3, seed)
        for c in range(3):
            members = [s for s, cc in assignment.items() if cc == c]
            all_aligned = all_aligned and len({groups[s] for s in members}) == 1
        res = within_cluster_loso(ds, assignment, spec, seed=seed)
        n_better = 0
        for c, rep in sorted(res.clusters.items()):
            members = {s for s, cc in assignment.items() if cc == c}
            base = float(np.mean(
                [f.balanced_accuracy for f in res.baseline.folds if f.held_out in members]))
            n_better += mean_fold_balanced(rep) >= base
        per_seed.append(n_better)
    ok = all_aligned and all(n >= 2 for n in per_seed)
    _verdict(
        capsys, 9, "within-cluster gains", ok,
        f"clusters beating the global baseline per seed: {per_seed} (need >=2/3, aligned={all_aligned})",
        t0, 600.0,
    )


SIGMAS10 = (0.25, 0.5, 1.0, 2.0, 4.0)


def _dispersion_split(rng, n_per_class, width):
    rows, labels = [], []
    for c, s in enumerate(SIGMAS10):
        rows.append(s * rng.standard_normal((n_per_class, width)))
        labels.extend([c] * n_per_class)
    x = np.concatenate(rows)
    y = np.array(labels, dtype=np.int64)
    perm = rng.permutation(y.size)
    return x[perm], y[perm]


def test_criterion_10_feature_fusion_benefit(capsys):
    # classes differ only in spread, which the handcrafted set measures directly
    t0 = time.perf_counter()
    width = 50
    wins = 0
    scores = []
    for seed in SEEDS:
        rng = np.random.default_rng(np.random.SeedSequence((seed, 10)))
        xtr, ytr = _dispersion_split(rng, 100, width)
        xte, yte = _dispersion_split(rng, 50, width)

        def hc_of(x):
            return feature_matrix(x, FeatureSetKind.STAT_TEMPORAL)

        htr, hte = hc_of(xtr), hc_of(xte)
        sc = fit_scaler(htr)
        htr_s, hte_s = apply_scaler(sc, htr), apply_scaler(sc, hte)
        base = build(ArchitectureId.BASELINE, NetConfig(window_size=width, seed=seed, epochs=50))
        train(base, xtr, None, ytr)
        b_bal = balanced_accuracy(confusion_matrix(yte, predict(base, xte, None)))
        fused = build(ArchitectureId.MODEL2, NetConfig(
            window_size=width, hc_dim=htr.shape[1], seed=seed, epochs=50))
        train(fused, xtr, htr_s, ytr)
        f_bal = balanced_accuracy(confusion_matrix(yte, predict(fused, xte, hte_s)))
        wins += f_bal >= b_bal
        scores.append((f_bal, b_bal))
    detail = ", ".join(f"{f:.3f}/{b:.3f}" for f, b in scores)
    _verdict(capsys, 10, "feature fusion", wins >= 4, f"fused/plain per seed: {detail}", t0, 600.0)


def test_criterion_11_post_transition_errors(capsys):
    t0 = time.perf_counter()
    spec = SvmSpec(inputs="windows")
    cfg = DatasetSpec(WindowConfig(50, 10), StandardizationMode.NONE)
    wins = 0
    rates = []
    for seed in SEEDS:
        series, _ = generate_synthetic(SyntheticCohortSpec(n_subjects=10, n_groups=2, seed=seed))
        ds = build_dataset(series, cfg)
        subjects = np.asarray(ds.subject_ids)[ds.subject_index]
        post_err = steady_err = 0.0
        n_post = n_steady = 0
        for s in series:
            tr = np.flatnonzero(subjects != s.subject_id)
            clf = fit_classifier(spec, ds, tr, seed)
            rec = misclassification_timeline(clf, s, cfg)
            t = rec.timestamps
            after = np.zeros(t.size, dtype=bool)
            for idx in np.nonzero(rec.transition)[0]:
                after |= (t >= t[idx]) & (t < t[idx] + 60.0)
            err = ~rec.correct
            post_err += err[after].sum()
            n_post += after.sum()
            steady_err += err[~after].sum()
            n_steady += (~after).sum()
        post = post_err / n_post  # error counts pooled so every subject weighs equally
        steady = steady_err / n_steady
        wins += post > steady
        rates.append((post, steady))
    detail = ", ".join(f"{p:.2f}>{s:.2f}" for p, s in rates)
    _verdict(capsys, 11, "transition errors", wins >= 4, f"post/steady per seed: {detail}", t0, 300.0)


def _dir_digest(run_dir: Path) -> dict:
    out = {}
    for p in sorted(run_dir.rglob("*")):
        if p.is_file():
            out[p.relative_to(run_dir).as_posix()] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


def test_criterion_12_cli_worker_determinism(tmp_path, capsys):
    t0 = time.perf_counter()
    gen_out = tmp_path / "gen"
    assert cli_main(["--seed", "7", "--out", str(gen_out), "generate",
                     "--subjects", "6", "--groups", "2"]) == 0
    gen_dirs = [p for p in gen_out.iterdir() if p.is_dir()]
    assert len(gen_dirs) == 1
    corpus = gen_dirs[0] / "corpus"
    ini = tmp_path / "exp.ini"
    ini.write_text(
        f"[corpus]\nsource = {corpus}\ndevice_filter = synthetic\n"
        "[windows]\nwindow_size = 50\nstride = 30\n"
        "[model]\nkind = svm\ninputs = features\n"
        f"[run]\nseed = 7\nout = {tmp_path / 'runs'}\n",
        encoding="utf-8",
    )
    digests = {}
    names = {}
    for workers in ("1", "8"):
        assert cli_main(["--config", str(ini), "--workers", workers, "eval"]) == 0
        run_dirs = [p for p in (tmp_path / "runs").iterdir() if p.is_dir()]
        assert len(run_dirs) == 1, run_dirs
        names[workers] = run_dirs[0].name
        digests[workers] = _dir_digest(run_dirs[0])
    ok = names["1"] == names["8"] and digests["1"] == digests["8"]
    _verdict(
        capsys, 12, "cli determinism", ok,
        f"run {names['1']}: {len(digests['1'])} artifacts byte-identical at workers 1 vs 8",
        t0, 120.0,
    )


def test_criterion_13_real_corpus_trends(capsys):
    root = Path(os.environ.get("HRACTIVITY_STEP_DIR", "data/BigIdeasLab_STEP"))
    if not root.is_dir() or not any(root.glob("**/*.csv")):
        pytest.skip("real corpus not provided; set HRACTIVITY_STEP_DIR to its CSV directory")
    t0 = time.perf_counter()
    # windows are cut by sample index, so the irregular watch series go on a 1 s grid first
    series = [resample_uniform(s, 1.0)[0] for s in parse_corpus(root)]
    spec = SvmSpec(inputs="features")
    ds = build_dataset(series, DatasetSpec(WindowConfig(50, 25), StandardizationMode.DATA,
                                           FeatureSetKind.STAT_TEMPORAL))
    by_subject = routed_eval(ds, 4, RoutingMode.PER_SUBJECT, ClusterSpace.STATISTICAL_WINDOW,
                             spec, seed=1)
    by_window = routed_eval(ds, 4, RoutingMode.PER_WINDOW, ClusterSpace.STATISTICAL_WINDOW,
                            spec, seed=1)
    plan = SplitPlan(SplitKind.LEAVE_SUBJECT_OUT)
    sweep = run_sweep(series, ds.spec, [80], [10, 120], plan, spec, seed=1)
    ok = (
        by_subject.balanced_accuracy > by_window.balanced_accuracy
        and sweep[(80, 10)].balanced_accuracy > sweep[(80, 120)].balanced_accuracy
    )
    _verdict(
        capsys, 13, "real corpus", ok,
        f"per-subject {by_subject.balanced_accuracy:.3f} vs per-window "
        f"{by_window.balanced_accuracy:.3f}; stride 10 {sweep[(80, 10)].balanced_accuracy:.3f} "
        f"vs 120 {sweep[(80, 120)].balanced_accuracy:.3f}",
        t0, 1800.0,
    )


def test_criterion_14_normalization_lever(capsys):
    t0 = time.perf_counter()
    spec, plan = SvmSpec(inputs="features"), SplitPlan(SplitKind.LEAVE_SUBJECT_OUT)
    modes = (StandardizationMode.DATA, StandardizationMode.FEATURE, StandardizationMode.NONE)
    scores, ordered = [], 0
    for seed in SEEDS:
        series, _ = generate_synthetic(SyntheticCohortSpec(n_subjects=12, n_groups=2, seed=seed))
        bal = [run_split(build_dataset(series, DatasetSpec(WindowConfig(50, 25), mode,
                                                           FeatureSetKind.STAT_TEMPORAL)),
                         plan, spec, seed).balanced_accuracy for mode in modes]
        scores.append("/".join(f"{b:.3f}" for b in bal))
        ordered += bal[0] > bal[1] > bal[2]
    _verdict(
        capsys, 14, "normalization lever", ordered >= 4,
        f"data > feature > none in {ordered}/5 (data/feature/none: {', '.join(scores)})",
        t0, 120.0,
    )


def test_criterion_15_grouping_lever(capsys):
    # the 15 + 15 cohort's groups differ in shape, not level, so grouping
    # still pays after `data` removes each subject's level
    t0 = time.perf_counter()
    spec, plan = SvmSpec(inputs="features"), SplitPlan(SplitKind.LEAVE_SUBJECT_OUT)
    spaces = (ClusterSpace.STATISTICAL_WINDOW, ClusterSpace.TEMPORAL_WINDOW)
    wins = dict.fromkeys(spaces, 0)
    scores = []
    for seed in SEEDS:
        ds = build_dataset(shape_groups_cohort(seed, n=15), DatasetSpec(
            WindowConfig(50, 25), StandardizationMode.DATA, FeatureSetKind.STAT_TEMPORAL))
        plain = run_split(ds, plan, spec, seed).balanced_accuracy
        routed = [routed_eval(ds, 2, RoutingMode.PER_SUBJECT, space, spec,
                              seed=seed).balanced_accuracy for space in spaces]
        for space, bal in zip(spaces, routed):
            wins[space] += bal > plain
        scores.append("/".join(f"{b:.3f}" for b in (*routed, plain)))
    _verdict(
        capsys, 15, "grouping lever", min(wins.values()) >= 4,
        f"per-subject routed > plain LOSO in {wins[spaces[0]]}/5 (statistical), "
        f"{wins[spaces[1]]}/5 (temporal) (statistical/temporal/plain: {', '.join(scores)})",
        t0, 120.0,
    )
