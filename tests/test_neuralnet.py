"""Conv-net shapes, analytic gradients vs finite differences, training contracts."""

import numpy as np
import pytest
from oracles import (
    load_net,
    net_backward_blas_reference,
    net_backward_reference,
    net_forward_blas_reference,
    net_forward_reference,
    net_train_blas_reference,
    net_train_reference,
)

from hractivity import neuralnet
from hractivity.errors import ConfigError, DataError
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
    params = {k: v.copy() for k, v in model.params.items()}
    first = forward(model, w, h)
    assert np.array_equal(first, forward(model, w, h))
    assert all(np.array_equal(model.params[k], params[k]) for k in params)


def dropout_stream(seed):
    """The generator ``train`` draws every dropout mask of one call from."""
    return np.random.default_rng(np.random.SeedSequence(entropy=(seed, 1)))


def test_train_mode_dropout_differs_per_step():
    model = build(ArchitectureId.BASELINE, NetConfig(window_size=30, seed=2))
    rng = np.random.default_rng(5)
    w, hc = rng.normal(size=(8, 30)), np.zeros((8, 0))
    cols = _im2col(model, w, hc)
    stream = dropout_stream(2)
    a, _ = _forward(model, cols, hc, stream)
    b, _ = _forward(model, cols, hc, stream)
    assert not np.array_equal(a, b)  # the stream advances between steps
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
    with pytest.raises(ConfigError, match="^window_size must be >= conv kernel size$"):
        NetConfig(window_size=4)
    with pytest.raises(ConfigError, match=r"^dropout_p must be in \[0, 1\)$"):
        NetConfig(window_size=50, dropout_p=1.0)
    with pytest.raises(ConfigError, match="^model1 needs hc_dim > 0$"):
        build(ArchitectureId.MODEL1, NetConfig(window_size=50, hc_dim=0))
    with pytest.raises(ConfigError, match="^model3 needs hc_dim > 0$"):
        build(ArchitectureId.MODEL3, NetConfig(window_size=50, hc_dim=0))
    model = build(ArchitectureId.MODEL1, NetConfig(window_size=50, hc_dim=3))
    with pytest.raises(DataError, match=r"^window batch must be \(n, 50\), got \(2, 49\)$"):
        forward(model, np.zeros((2, 49)), np.zeros((2, 3)))
    with pytest.raises(DataError, match=r"^handcrafted batch must be \(2, 3\), got \(2, 4\)$"):
        forward(model, np.zeros((2, 50)), np.zeros((2, 4)))
    with pytest.raises(DataError, match="^no training samples$"):
        train(model, np.zeros((0, 50)), np.zeros((0, 3)), np.zeros(0, dtype=int))
    with pytest.raises(DataError, match=r"^labels must lie in \[0, N_CLASSES\)$"):
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
    scores, cache = _forward(model, _im2col(model, w, hc), hc)
    ref_scores, ref_cache = net_forward_reference(model, w, h)
    assert rel_err(scores, ref_scores) < 1e-12
    grads = _backward(model, cache, softmax(scores), y)
    ref_grads = net_backward_reference(model, ref_cache, ref_scores, y)
    assert sorted(grads) == sorted(model.params) == sorted(ref_grads)
    for name, grad in grads.items():
        assert grad.shape == model.params[name].shape
        assert rel_err(grad, ref_grads[name]) < 1e-12, name


@pytest.mark.parametrize("arch,f", ALL_ARCHS)
def test_train_mode_drops_the_same_activations(arch, f):
    cfg, w, h, _ = step_task(arch, f, 31, seed=22)
    model, ref = build(arch, cfg), build(arch, cfg)
    hc = h if f else np.zeros((70, 0))
    stream, ref_stream = dropout_stream(22), dropout_stream(22)
    for _ in range(2):  # the second step draws the stream's next uniforms
        scores, cache = _forward(model, _im2col(model, w, hc), hc, stream)
        ref_scores, ref_cache = net_forward_reference(ref, w, h, ref_stream)
        zeroed = cache["gate"] == 0.0  # channels-last (n, L-4, 16)
        ref_zeroed = ref_cache["act"].transpose(0, 2, 1) == 0.0
        assert np.array_equal(zeroed, ref_zeroed)
        assert ref_cache["drop_mask"].min() == 0.0  # some units really were dropped
        assert rel_err(scores, ref_scores) < 1e-12
    assert stream.random() == ref_stream.random()  # both drew the same count


def test_train_draws_every_mask_from_one_stream(monkeypatch):
    # one (seed, 1) generator per train call, masks drawn channels-last in step order
    cfg, w, _, y = step_task(ArchitectureId.BASELINE, 0, 31, seed=25)
    model = build(ArchitectureId.BASELINE, cfg)
    steps = []

    def recording_forward(model, cols, hc, rng=None):
        pre = cols @ model.params["conv_w"].T + model.params["conv_b"]
        scores, cache = _forward(model, cols, hc, rng)
        steps.append((pre > 0.0, cache["gate"] != 0.0))
        return scores, cache

    monkeypatch.setattr(neuralnet, "_forward", recording_forward)
    for _ in range(2):  # a second call starts the same stream again
        steps.clear()
        train(model, w, None, y)
        stream = dropout_stream(25)
        assert len(steps) == cfg.epochs * 3
        for positive, alive in steps:  # both (batch, L-4, 16)
            keep = stream.random(alive.shape) >= cfg.dropout_p
            assert np.array_equal(alive, positive & keep)


@pytest.mark.parametrize("arch,f", ALL_ARCHS)
def test_train_matches_reference(arch, f):
    cfg, w, h, y = step_task(arch, f, 31, seed=23)
    model = train(build(arch, cfg), w, h, y)
    ref = net_train_reference(build(arch, cfg), w, h, y)
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


# -- the step against its own earlier form, byte for byte ----------------------
#
# The max pool is np.maximum and the unpool two products, where the earlier
# step (tests/oracles.py::net_train_blas_reference) used np.where.  They can
# differ only in the sign of an exact zero: a pair's unrouted side gets
# 0 * gate * dpool, which is -0.0 where dpool < 0, and np.maximum may return
# either zero of a +0/-0 pair.  A -0 term changes no sum that has a nonzero
# term, a sum of zeros enters Adam as g = +-0, and b1 m + (1 - b1) g and
# b2 v + (1 - b2) g g give the same m and v for either sign, so no sign
# reaches the parameters, the loss or the scores.


def assert_same_bytes(model, ref, w, h):
    assert list(model.params) == list(ref.params)
    for name, arr in model.params.items():
        assert arr.tobytes() == ref.params[name].tobytes(), name
    assert np.array(model.training_log).tobytes() == np.array(ref.training_log).tobytes()
    assert forward(model, w, h).tobytes() == forward(ref, w, h).tobytes()


@pytest.mark.parametrize("batch_size", [7, 32])
@pytest.mark.parametrize("dropout_p", [0.0, 0.3, 0.5])
@pytest.mark.parametrize("window_size", [30, 31, 50])
@pytest.mark.parametrize("arch,f", ALL_ARCHS)
def test_train_matches_blas_oracle_byte_for_byte(arch, f, window_size, dropout_p, batch_size):
    for seed in (1, 2):
        rng = np.random.default_rng(seed)
        w = rng.normal(size=(70, window_size))
        h = rng.normal(size=(70, f)) if f else None
        y = rng.integers(0, 5, size=70)
        cfg = NetConfig(window_size=window_size, hc_dim=f, seed=seed, epochs=3,
                        dropout_p=dropout_p, batch_size=batch_size)
        model = train(build(arch, cfg), w, h, y)
        assert_same_bytes(model, net_train_blas_reference(build(arch, cfg), w, h, y), w, h)


@pytest.mark.parametrize("window_size", [30, 31])
@pytest.mark.parametrize("arch,f", ALL_ARCHS)
def test_step_gradients_match_blas_oracle(arch, f, window_size):
    cfg, w, h, y = step_task(arch, f, window_size, seed=26)
    model = build(arch, cfg)
    hc = h if f else np.zeros((70, 0))
    cols = _im2col(model, w, hc)
    stream, ref_stream = dropout_stream(26), dropout_stream(26)
    for _ in range(2):
        scores, cache = _forward(model, cols, hc, stream)
        ref_scores, ref_cache = net_forward_blas_reference(model, cols, hc, ref_stream)
        assert scores.tobytes() == ref_scores.tobytes()
        assert cache["gate"].tobytes() == ref_cache["gate"].tobytes()
        assert np.array_equal(cache["take_right"], ref_cache["take_right"])
        _, e, z = neuralnet._exp_scores(scores)
        ref_grads = net_backward_blas_reference(model, ref_cache, e / z, y)
        grads = _backward(model, cache, e / z, y)
        flat = np.full(parameter_count(arch, cfg), np.nan)
        views, offset = {}, 0
        for name, arr in model.params.items():
            views[name] = flat[offset : offset + arr.size].reshape(arr.shape)
            offset += arr.size
        assert _backward(model, cache, e / z, y, views) is views
        assert not np.isnan(flat).any()  # every entry of the buffer was written
        for name, want in ref_grads.items():
            assert np.array_equal(grads[name], want), name  # +0 == -0
            assert grads[name].tobytes() == views[name].tobytes(), name


def test_pool_ties_keep_the_left_element():
    # Constant windows tie every pool pair at one positive value in each
    # channel whose conv output is positive; random ones put a ReLU-dead
    # unit (-0.0 after the gate) next to a dropped live one (+0.0).
    cfg = NetConfig(window_size=31, seed=27, epochs=3, dropout_p=0.5)
    rng = np.random.default_rng(27)
    levels = np.repeat(np.linspace(-2.0, 2.0, 35)[:, None], 31, axis=1)
    w = np.concatenate([levels, rng.normal(size=(35, 31))])
    y = rng.integers(0, 5, size=70)
    model = build(ArchitectureId.BASELINE, cfg)
    hc = np.zeros((70, 0))
    cols = _im2col(model, w, hc)
    scores, cache = _forward(model, cols, hc, dropout_stream(27))
    pre = cols.reshape(-1, 5) @ model.params["conv_w"].T
    pre += model.params["conv_b"]
    act = pre.reshape(cache["gate"].shape) * cache["gate"]
    left, right = act[:, 0:26:2], act[:, 1:27:2]
    ties = left == right
    assert not cache["take_right"][ties].any()
    assert (ties & (left > 0.0)).sum() > 100
    assert (ties & np.signbit(left) & ~np.signbit(right)).sum() > 100
    assert (ties & ~np.signbit(left) & np.signbit(right)).sum() > 100
    ref_scores, _ = net_forward_blas_reference(model, cols, hc, dropout_stream(27))
    assert scores.tobytes() == ref_scores.tobytes()
    trained = train(model, w, None, y)
    assert_same_bytes(trained, net_train_blas_reference(build(ArchitectureId.BASELINE, cfg),
                                                        w, None, y), w, None)


def test_softmax_and_loss_share_one_exponential_bit_for_bit():
    # the training step derives both from one exp; each must equal its own formula
    rng = np.random.default_rng(12)
    scores = rng.normal(scale=4.0, size=(40, 5))
    labels = rng.integers(0, 5, size=40)
    shifted = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    assert softmax(scores).tobytes() == (e / e.sum(axis=1, keepdims=True)).tobytes()
    log_z = np.log(np.exp(shifted).sum(axis=1))
    assert cross_entropy(scores, labels) == float(np.mean(log_z - shifted[np.arange(40), labels]))
