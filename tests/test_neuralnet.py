"""Conv-net shapes, analytic gradients vs finite differences, training contracts."""

import numpy as np
import pytest
from oracles import net_backward_reference, net_forward_reference, net_train_reference

from hractivity.errors import EmptyDataset, InvalidConfig, ShapeMismatch, UnknownLabel
from hractivity.neuralnet import (
    ArchitectureId,
    _backward,
    _forward,
    _im2col,
    NetConfig,
    build,
    cross_entropy,
    flatten_dim,
    forward,
    gradient_check,
    load_net,
    parameter_count,
    predict,
    save_net,
    softmax,
    train,
)

ALL_ARCHS = [
    (ArchitectureId.BASELINE, 0),
    (ArchitectureId.MODEL1, 22),
    (ArchitectureId.MODEL2, 22),
    (ArchitectureId.MODEL3, 22),
]


def smoke_task(seed):
    # class-scaled ramps: linearly separable after the conv stack
    rng = np.random.default_rng(seed + 100)
    labels = rng.integers(0, 5, size=200)
    base = np.linspace(0.0, 1.0, 50)
    wins = labels[:, None] * 2.0 * base[None, :] + 0.2 * rng.normal(size=(200, 50))
    return wins, labels


def test_flatten_dims():
    assert flatten_dim(ArchitectureId.BASELINE, NetConfig(window_size=50)) == 368
    assert flatten_dim(ArchitectureId.MODEL2, NetConfig(window_size=80, hc_dim=22)) == 784


def test_model1_mid_concat_width():
    model = build(ArchitectureId.MODEL1, NetConfig(window_size=50, hc_dim=22))
    assert model.params["mid_w"].shape == (64, 86)


def test_parameter_count_formula():
    for arch, f in ALL_ARCHS:
        cfg = NetConfig(window_size=50, hc_dim=f)
        model = build(arch, cfg)
        assert sum(p.size for p in model.params.values()) == parameter_count(arch, cfg)


def test_zero_weights_uniform_softmax():
    model = build(ArchitectureId.BASELINE, NetConfig(window_size=50))
    for key in model.params:
        model.params[key] = np.zeros_like(model.params[key])
    probs = softmax(forward(model, np.random.default_rng(0).normal(size=(4, 50))))
    assert np.allclose(probs, 0.2, atol=1e-12)


def test_eval_forward_deterministic_and_pure():
    model = build(ArchitectureId.MODEL3, NetConfig(window_size=30, hc_dim=4, seed=2))
    rng = np.random.default_rng(5)
    w, h = rng.normal(size=(8, 30)), rng.normal(size=(8, 4))
    first = forward(model, w, h)
    assert np.array_equal(first, forward(model, w, h))
    assert model.dropout_calls == 0  # eval passes must not touch the mask stream


def test_train_mode_dropout_differs_and_counts():
    model = build(ArchitectureId.BASELINE, NetConfig(window_size=30, seed=2))
    rng = np.random.default_rng(5)
    w = rng.normal(size=(8, 30))
    a = forward(model, w, train_mode=True)
    b = forward(model, w, train_mode=True)
    assert model.dropout_calls == 2
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, forward(model, w))


def test_batch_of_one_matches_batch_row():
    model = build(ArchitectureId.MODEL1, NetConfig(window_size=40, hc_dim=6, seed=1))
    rng = np.random.default_rng(3)
    w, h = rng.normal(size=(32, 40)), rng.normal(size=(32, 6))
    full = forward(model, w, h)
    for i in (0, 13, 31):
        single = forward(model, w[i : i + 1], h[i : i + 1])
        assert np.max(np.abs(single[0] - full[i])) < 1e-9


def test_model2_without_hc_equals_baseline():
    base = build(ArchitectureId.BASELINE, NetConfig(window_size=50, seed=3))
    two = build(ArchitectureId.MODEL2, NetConfig(window_size=50, hc_dim=0, seed=3))
    for key in base.params:
        assert np.array_equal(base.params[key], two.params[key])
    probe = np.random.default_rng(8).normal(size=(6, 50))
    assert np.array_equal(forward(base, probe), forward(two, probe, np.zeros((6, 0))))


def test_gradient_check_all_architectures():
    rng = np.random.default_rng(0)
    for arch, f in ALL_ARCHS:
        model = build(arch, NetConfig(window_size=50, hc_dim=f, seed=7))
        w = rng.normal(size=(6, 50))
        h = rng.normal(size=(6, f)) if f else None
        y = rng.integers(0, 5, size=6)
        assert gradient_check(model, w, h, y) < 1e-4, arch


def test_zero_input_gradients_finite():
    model = build(ArchitectureId.BASELINE, NetConfig(window_size=50, seed=4))
    err = gradient_check(model, np.zeros((2, 50)), None, np.array([0, 3]), n_params=50)
    assert np.isfinite(err)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(1)
    model = build(ArchitectureId.BASELINE, NetConfig(window_size=50, seed=1))
    probs = softmax(forward(model, rng.normal(size=(64, 50))))
    assert np.max(np.abs(probs.sum(axis=1) - 1.0)) < 1e-9


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_smoke_train_reaches_95_percent(seed):
    wins, labels = smoke_task(seed)
    model = build(ArchitectureId.BASELINE, NetConfig(window_size=50, seed=seed))
    train(model, wins, None, labels)
    assert (predict(model, wins) == labels).mean() >= 0.95
    assert len(model.training_log) == 50


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_first_epoch_reduces_loss(seed):
    wins, labels = smoke_task(seed)
    model = build(ArchitectureId.BASELINE, NetConfig(window_size=50, seed=seed, epochs=1))
    init_loss = cross_entropy(forward(model, wins), labels)
    train(model, wins, None, labels)
    assert cross_entropy(forward(model, wins), labels) < init_loss
    assert model.training_log[0] < init_loss


def test_same_seed_bit_identical_weights():
    rng = np.random.default_rng(11)
    w, h = rng.normal(size=(40, 30)), rng.normal(size=(40, 5))
    y = rng.integers(0, 5, size=40)
    cfg = NetConfig(window_size=30, hc_dim=5, seed=9, epochs=3)
    runs = []
    for _ in range(2):
        model = train(build(ArchitectureId.MODEL3, cfg), w, h, y)
        runs.append(model.params)
    assert all(np.array_equal(runs[0][k], runs[1][k]) for k in runs[0])


def test_save_load_bit_exact(tmp_path):
    rng = np.random.default_rng(12)
    w, h = rng.normal(size=(20, 30)), rng.normal(size=(20, 5))
    y = rng.integers(0, 5, size=20)
    model = train(build(ArchitectureId.MODEL1, NetConfig(window_size=30, hc_dim=5, epochs=2)), w, h, y)
    save_net(model, tmp_path / "net.json")
    loaded = load_net(tmp_path / "net.json")
    probe_w, probe_h = rng.normal(size=(7, 30)), rng.normal(size=(7, 5))
    assert np.array_equal(forward(model, probe_w, probe_h), forward(loaded, probe_w, probe_h))
    assert loaded.training_log == model.training_log


def test_config_and_shape_errors():
    with pytest.raises(InvalidConfig):
        NetConfig(window_size=4)
    with pytest.raises(InvalidConfig):
        NetConfig(window_size=50, dropout_p=1.0)
    with pytest.raises(InvalidConfig):
        build(ArchitectureId.MODEL1, NetConfig(window_size=50, hc_dim=0))
    with pytest.raises(InvalidConfig):
        build(ArchitectureId.MODEL3, NetConfig(window_size=50, hc_dim=0))
    model = build(ArchitectureId.MODEL1, NetConfig(window_size=50, hc_dim=3))
    with pytest.raises(ShapeMismatch):
        forward(model, np.zeros((2, 49)), np.zeros((2, 3)))
    with pytest.raises(ShapeMismatch):
        forward(model, np.zeros((2, 50)), np.zeros((2, 4)))
    with pytest.raises(EmptyDataset):
        train(model, np.zeros((0, 50)), np.zeros((0, 3)), np.zeros(0, dtype=int))
    with pytest.raises(UnknownLabel):
        train(model, np.zeros((2, 50)), np.zeros((2, 3)), np.array([0, 5]))


# -- the BLAS step against the einsum / argmax / per-tensor Adam reference ----


def rel_err(got, want):
    return float(np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-300))


def step_task(arch, f, window_size, seed):
    rng = np.random.default_rng(seed)
    cfg = NetConfig(window_size=window_size, hc_dim=f, seed=seed, epochs=3)
    w = rng.normal(size=(70, window_size))
    h = rng.normal(size=(70, f)) if f else None
    y = rng.integers(0, 5, size=70)
    return cfg, w, h, y


@pytest.mark.parametrize("window_size", [30, 31])  # even and odd conv lengths
@pytest.mark.parametrize("arch,f", ALL_ARCHS)
def test_eval_step_matches_reference(arch, f, window_size):
    cfg, w, h, y = step_task(arch, f, window_size, seed=21)
    model = build(arch, cfg)
    hc = h if f else np.zeros((70, 0))
    scores, cache = _forward(model, _im2col(model, w, hc), hc, train_mode=False)
    ref_scores, ref_cache = net_forward_reference(model, w, h, train_mode=False)
    assert rel_err(scores, ref_scores) < 1e-12
    grads = _backward(model, cache, scores, y)
    ref_grads = net_backward_reference(model, ref_cache, ref_scores, y)
    assert sorted(grads) == sorted(model.params) == sorted(ref_grads)
    for name, grad in grads.items():
        assert grad.shape == model.params[name].shape
        assert rel_err(grad, ref_grads[name]) < 1e-12, name


@pytest.mark.parametrize("arch,f", ALL_ARCHS)
def test_train_mode_drops_the_same_activations(arch, f):
    cfg, w, h, _ = step_task(arch, f, 31, seed=22)
    model, ref = build(arch, cfg), build(arch, cfg)
    model.dropout_calls = ref.dropout_calls = 5
    hc = h if f else np.zeros((70, 0))
    scores, cache = _forward(model, _im2col(model, w, hc), hc, train_mode=True)
    ref_scores, ref_cache = net_forward_reference(ref, w, h, train_mode=True)
    assert model.dropout_calls == ref.dropout_calls == 6
    zeroed = cache["gate"] == 0.0  # channels-last (n, L-4, 16)
    ref_zeroed = ref_cache["act"].transpose(0, 2, 1) == 0.0
    assert np.array_equal(zeroed, ref_zeroed)
    assert ref_cache["drop_mask"].min() == 0.0  # some units really were dropped
    assert rel_err(scores, ref_scores) < 1e-12


@pytest.mark.parametrize("arch,f", ALL_ARCHS)
def test_train_matches_reference(arch, f):
    cfg, w, h, y = step_task(arch, f, 31, seed=23)
    model = train(build(arch, cfg), w, h, y)
    ref = net_train_reference(build(arch, cfg), w, h, y)
    assert model.dropout_calls == ref.dropout_calls == 3 * 3
    for name, want in ref.params.items():
        assert rel_err(model.params[name], want) < 1e-9, name
    assert len(model.training_log) == 3
    assert rel_err(np.array(model.training_log), np.array(ref.training_log)) < 1e-12


@pytest.mark.parametrize("arch,f", ALL_ARCHS)
def test_trained_params_keep_layout_and_round_trip(arch, f, tmp_path):
    cfg, w, h, y = step_task(arch, f, 30, seed=24)
    model = build(arch, cfg)
    layout = [(name, arr.shape) for name, arr in model.params.items()]
    train(model, w, h, y)
    assert [(name, arr.shape) for name, arr in model.params.items()] == layout
    assert all(arr.dtype == np.float64 for arr in model.params.values())
    save_net(model, tmp_path / "net.json")
    loaded = load_net(tmp_path / "net.json")
    assert sorted(loaded.params) == sorted(model.params)
    for name, arr in model.params.items():
        assert loaded.params[name].shape == arr.shape
        assert np.array_equal(loaded.params[name], arr), name
    assert loaded.training_log == model.training_log
    assert np.array_equal(forward(model, w, h), forward(loaded, w, h))
