"""Trace filters and the PSP decomposition identity."""

import math

import numpy as np
import pytest

from spikeshot.dynamics import NeuronParams
from spikeshot.network import DenseLayer, LayerSpec
from spikeshot.traces import TraceConfig, psp_matched_trace_configs, update_trace


def test_spike_sets_increment_from_zero():
    cfg = TraceConfig(tau=20, increment=1.0)
    assert update_trace(0.0, True, cfg) == pytest.approx(1.0)


def test_decay_without_spike():
    cfg = TraceConfig(tau=20, increment=1.0)
    assert update_trace(1.0, False, cfg) == pytest.approx(math.exp(-1 / 20), abs=1e-12)
    assert update_trace(1.0, False, cfg) == pytest.approx(0.95123, abs=1e-5)


def test_config_validation():
    assert TraceConfig(tau=1.0).alpha == math.exp(-1.0)  # the shortest tau, one timestep
    with pytest.raises(ValueError):
        TraceConfig(tau=0.5)
    with pytest.raises(ValueError):
        TraceConfig(tau=5, increment=0.0)


def test_vector_update():
    cfg = TraceConfig(tau=10, increment=2.0)
    t = update_trace(np.array([0.0, 1.0]), np.array([1.0, 0.0]), cfg)
    assert t[0] == pytest.approx(2.0)
    assert t[1] == pytest.approx(math.exp(-0.1))


def test_traces_stay_nonnegative():
    cfg = TraceConfig(tau=7, increment=0.3)
    rng = np.random.default_rng(0)
    t = np.zeros(4)
    for _ in range(300):
        t = update_trace(t, (rng.random(4) < 0.3).astype(float), cfg)
        assert np.all(t >= 0.0)


def test_linearity_in_spike_trains():
    cfg = TraceConfig(tau=12, increment=0.7)
    rng = np.random.default_rng(1)
    a = (rng.random(200) < 0.2).astype(float)
    b = (rng.random(200) < 0.2).astype(float)
    ta = tb = tab = 0.0
    for k in range(200):
        ta = update_trace(ta, a[k], cfg)
        tb = update_trace(tb, b[k], cfg)
        tab = update_trace(tab, a[k] + b[k], cfg)  # multiplicity counts
        assert tab == pytest.approx(ta + tb, abs=1e-12)


def test_matched_configs_require_slower_psp():
    with pytest.raises(ValueError):
        psp_matched_trace_configs(16, 8)


def test_matched_configs_refuse_decays_that_round_to_one_float():
    assert math.exp(-1.0 / 1.0e15) == math.exp(-1.0 / 1.0000001e15)
    with pytest.raises(ValueError, match="distinct decays"):
        psp_matched_trace_configs(1.0e15, 1.0000001e15)


def unit_dense(params):
    """One neuron behind one synapse of weight 1: its p is the input's PSP."""
    return DenseLayer(LayerSpec("dense", (1,), (1,)), params, np.ones((1, 1)), 0)


def test_difference_kernel_matches_psp_single_spike():
    params = NeuronParams(tau_u=4, tau_v=16)
    c1, c2 = psp_matched_trace_configs(4, 16)
    layer = unit_dense(params)
    x1 = x2 = 0.0
    for t in range(500):
        s = 1.0 if t == 0 else 0.0
        layer.step(np.array([s]))
        x1 = update_trace(x1, s, c1)
        x2 = update_trace(x2, s, c2)
        assert (x2 - x1) == pytest.approx(layer.p[0], abs=1e-9)


def test_difference_kernel_matches_psp_random_train():
    params = NeuronParams(tau_u=8, tau_v=16)
    c1, c2 = psp_matched_trace_configs(8, 16)
    rng = np.random.default_rng(4)
    layer = unit_dense(params)
    x1 = x2 = 0.0
    for t in range(500):
        s = float(rng.random() < 0.15)
        layer.step(np.array([s]))
        x1 = update_trace(x1, s, c1)
        x2 = update_trace(x2, s, c2)
        assert (x2 - x1) == pytest.approx(layer.p[0], abs=1e-6)
