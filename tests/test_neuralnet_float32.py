"""A net whose parameters are float32 computes, trains, saves and is checked in float32.

``build`` draws float64; the pipeline trains a float32 copy of those draws
(``evaluation.NetSpec.fit``).  The float64 path stays the reference of
``tests/test_neuralnet.py``.
"""

import json

import numpy as np
import pytest
from oracles import load_net, net_train_blas_reference

from hractivity.neuralnet import (
    ArchitectureId,
    NetConfig,
    NetModel,
    build,
    forward,
    gradient_check,
    save_net,
    train,
)

ALL_ARCHS = [
    (ArchitectureId.BASELINE, 0),
    (ArchitectureId.MODEL1, 22),
    (ArchitectureId.MODEL2, 22),
    (ArchitectureId.MODEL3, 22),
]


def as_dtype(model, dtype):
    return NetModel(model.arch, model.config,
                    {name: arr.astype(dtype) for name, arr in model.params.items()})


def task(arch, f, window_size, seed, **cfg):
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(70, window_size))
    h = rng.normal(size=(70, f)) if f else None
    y = rng.integers(0, 5, size=70)
    return NetConfig(window_size=window_size, hc_dim=f, seed=seed, epochs=3, **cfg), w, h, y


@pytest.mark.parametrize("dropout_p", [0.0, 0.3])
@pytest.mark.parametrize("window_size", [30, 31])
@pytest.mark.parametrize("arch,f", ALL_ARCHS)
def test_float32_train_matches_blas_oracle_byte_for_byte(arch, f, window_size, dropout_p):
    cfg, w, h, y = task(arch, f, window_size, seed=31, dropout_p=dropout_p, batch_size=7)
    model = train(as_dtype(build(arch, cfg), np.float32), w, h, y)
    ref = net_train_blas_reference(as_dtype(build(arch, cfg), np.float32), w, h, y)
    assert list(model.params) == list(ref.params)
    for name, arr in model.params.items():
        assert arr.dtype == np.float32, name
        assert arr.tobytes() == ref.params[name].tobytes(), name
    assert np.array(model.training_log).tobytes() == np.array(ref.training_log).tobytes()
    scores = forward(model, w, h)
    assert scores.dtype == np.float32
    assert scores.tobytes() == forward(ref, w, h).tobytes()


@pytest.mark.parametrize("arch,f", ALL_ARCHS)
def test_a_saved_float32_net_reloads_to_the_same_scores(arch, f, tmp_path):
    cfg, w, h, y = task(arch, f, 30, seed=32)
    model = train(as_dtype(build(arch, cfg), np.float32), w, h, y)
    save_net(model, tmp_path / "net.json")
    payload = json.loads((tmp_path / "net.json").read_text(encoding="utf-8"))
    assert (payload["schema"], payload["dtype"]) == ("net_model.v3", "float32")
    loaded = load_net(tmp_path / "net.json")
    for name, arr in model.params.items():
        assert loaded.params[name].dtype == np.float32, name
        assert loaded.params[name].tobytes() == arr.tobytes(), name
    assert forward(loaded, w, h).tobytes() == forward(model, w, h).tobytes()


@pytest.mark.parametrize("arch,f", ALL_ARCHS)
def test_gradient_check_reads_a_float32_model_as_its_float64_values(arch, f):
    cfg, w, h, y = task(arch, f, 30, seed=33)
    single = as_dtype(train(build(arch, cfg), w, h, y), np.float32)
    before = {name: arr.copy() for name, arr in single.params.items()}
    worst = gradient_check(single, w[:12], None if h is None else h[:12], y[:12])
    assert worst == gradient_check(as_dtype(single, np.float64), w[:12],
                                   None if h is None else h[:12], y[:12])
    assert worst < 1e-4
    for name, arr in single.params.items():  # checked on a copy: the model is untouched
        assert arr.dtype == np.float32 and arr.tobytes() == before[name].tobytes(), name
