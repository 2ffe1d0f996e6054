"""Conv-net shapes, analytic gradients vs finite differences, training contracts."""

import math

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
    pool_order,
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


def natural_layout(cols, cache):
    """A step's patches (taps only), gate and take_right, conv positions in natural order.

    _im2col puts each sample's even positions before its odd ones; a pool
    pair's index is the same in either order, so take_right is as it is.
    """
    natural = np.argsort(pool_order(cols.shape[1]))
    return cols[:, natural, :-1], cache["gate"][:, natural], cache["take_right"]


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
    for rate in (float("nan"), float("inf"), 0.0, -1e-3):
        with pytest.raises(ConfigError,
                           match=rf"^learning_rate must be a finite number > 0, got {rate!r}$"):
            NetConfig(window_size=30, learning_rate=rate)
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
    cols = _im2col(model, w, hc)
    for _ in range(2):  # the second step draws the stream's next uniforms
        scores, cache = _forward(model, cols, hc, stream)
        ref_scores, ref_cache = net_forward_reference(ref, w, h, ref_stream)
        _, gate, _ = natural_layout(cols, cache)
        zeroed = gate == 0.0  # channels-last (n, L-4, 16)
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
        scores, cache = _forward(model, cols, hc, rng)
        taps, gate, _ = natural_layout(cols, cache)
        pre = taps @ model.params["conv_w"].T + model.params["conv_b"]
        steps.append((pre > 0.0, gate != 0.0))
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
    taps, gate, take_right = natural_layout(cols, cache)
    pre = taps.reshape(-1, 5) @ model.params["conv_w"].T
    pre += model.params["conv_b"]
    act = pre.reshape(gate.shape) * gate
    left, right = act[:, 0:26:2], act[:, 1:27:2]
    ties = left == right
    assert not take_right[ties].any()
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
    for dtype in (np.float64, np.float32):
        for n in (1, 7, 32, 40, 517):  # pairwise summation changes form past 8 and 128
            rng = np.random.default_rng(12)
            scores = rng.normal(scale=4.0, size=(n, 5)).astype(dtype)
            labels = rng.integers(0, 5, size=n)
            shifted = scores - scores.max(axis=1, keepdims=True)
            e = np.exp(shifted)
            z = e.sum(axis=1, keepdims=True)
            probs = softmax(scores)
            assert probs.dtype == dtype
            assert probs.tobytes() == (e / z).tobytes()
            log_z = np.log(np.exp(shifted).sum(axis=1))
            want = float(np.mean(log_z - shifted[np.arange(n), labels]))
            assert cross_entropy(scores, labels) == want
            got_shifted, got_e, got_z = neuralnet._exp_scores(scores)
            assert got_shifted.tobytes() == shifted.tobytes()
            assert (got_e.tobytes(), got_z.tobytes()) == (e.tobytes(), z.tobytes())
            assert neuralnet._mean_nll(shifted, z, labels) == want


# -- the conv stage's layout: even positions, odd positions, unpaired last -----

def float32_rounding_step():
    """Two p just below and just above the midpoint of two float32 neighbours.

    From 0.5 up, float32's step is 2**-24, the step of a float32 draw, so
    the lower p rounds down onto a value a draw can take and the upper p up
    onto the next one: a threshold taken from p unrounded would drop the
    draws equal to the lower neighbour.
    """
    low = np.float32(0.7)
    mid = (float(low) + float(np.nextafter(low, np.float32(1.0)))) / 2.0
    return [float(np.nextafter(mid, 0.0)), float(np.nextafter(mid, 1.0))]


class RawWords:
    """A stand-in generator whose raw words are given: ``rng.bit_generator.random_raw``."""

    def __init__(self, words):
        self.bit_generator = self
        self.words = np.asarray(words, dtype=np.uint64)

    def random_raw(self, size):
        assert size == self.words.size
        return self.words.copy()


@pytest.mark.parametrize("p", [0.3, 0.5, *float32_rounding_step(), 1.0 - 2.0**-26])
@pytest.mark.parametrize("conv_len", [26, 27])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_keep_mask_is_the_uniform_draw_in_pool_order(dtype, conv_len, p):
    stream, twin = dropout_stream(28), dropout_stream(28)
    shape = (9, conv_len, 16)
    for _ in range(2):
        keep = neuralnet._keep_mask(stream, shape, dtype, p)
        want = twin.random(shape, dtype=dtype) >= p
        assert keep.shape == shape and keep.dtype == bool
        assert np.array_equal(keep, want[:, pool_order(conv_len)])
    if dtype is np.float32 and np.float32(p) == 1.0:
        assert not keep.any()  # p rounds to 1.0 in float32: nothing is kept
    elif p < 0.9:
        assert keep.any() and not keep.all()
    assert stream.random() == twin.random()  # the same words drawn, none left buffered


@pytest.mark.parametrize("p", [0.3, 0.5, *float32_rounding_step(), 1.0 - 2.0**-26])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_keep_mask_threshold_splits_the_words_at_p(dtype, p):
    # words whose uniforms sit on and next to p, written as numpy's random()
    # maps them: float32 from each 32-bit half's top 24 bits (low half first),
    # float64 from the word's top 53 bits
    bits, width = (24, 32) if dtype is np.float32 else (53, 64)
    edge = min(math.ceil(float(dtype(p)) * 2**bits), 2**bits - 1)
    tops = [edge - 2, edge - 1, edge, edge + 1, 2**bits - 1, 0, 1, edge]
    tops = np.array([min(t, 2**bits - 1) for t in tops], dtype=np.uint64)
    low_bits = np.uint64(2 ** (width - bits) - 1)
    values = np.concatenate([tops << np.uint64(width - bits),
                             (tops << np.uint64(width - bits)) | low_bits])  # 16
    if dtype is np.float32:
        words = values[0::2] | (values[1::2] << np.uint64(32))
        uniforms = (values >> np.uint64(8)).astype(np.float32) * np.float32(2.0**-24)
    else:
        words = values
        uniforms = (values >> np.uint64(11)).astype(np.float64) * 2.0**-53
    keep = neuralnet._keep_mask(RawWords(words), (1, 1, 16), dtype, p)
    assert np.array_equal(keep.reshape(-1), uniforms >= p)


@pytest.mark.parametrize("window_size", [30, 31])  # even and odd conv lengths
@pytest.mark.parametrize("arch,f", [(ArchitectureId.BASELINE, 0), (ArchitectureId.MODEL2, 7)])
def test_conv_rows_are_even_then_odd_positions(arch, f, window_size):
    cfg, w, h, _ = step_task(arch, f, window_size, seed=29)
    model = build(arch, cfg)
    hc = h if f else np.zeros((70, 0))
    cols = _im2col(model, w, hc)
    signal = np.concatenate([w, hc], axis=1)  # Model2 convolves the appended features
    patches = np.lib.stride_tricks.sliding_window_view(signal, 5, axis=1)
    conv_len = signal.shape[1] - 4
    assert cols.shape == (70, conv_len, 6) and cols.flags.c_contiguous
    assert cols[..., :5].tobytes() == patches[:, pool_order(conv_len)].tobytes()
    assert (cols[..., 5] == 1.0).all()

    _, cache = _forward(model, cols, hc, dropout_stream(29))
    weights = np.concatenate([model.params["conv_w"], model.params["conv_b"][:, None]], axis=1)
    act = (cols.reshape(-1, 6) @ weights.T).reshape(cache["gate"].shape) * cache["gate"]
    natural = act[:, np.argsort(pool_order(conv_len))]
    end = conv_len - conv_len % 2
    left, right = natural[:, 0:end:2], natural[:, 1:end:2]
    pooled = cache["flat"].reshape(70, 16, -1).transpose(0, 2, 1)
    assert pooled.tobytes() == np.ascontiguousarray(np.maximum(right, left)).tobytes()
    assert np.array_equal(cache["take_right"], right > left)
