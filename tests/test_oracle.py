"""Reference-oracle checks: raster equivalence, rounding drift."""

import numpy as np
import pytest

from spikeshot.dynamics import NeuronParams
from spikeshot.network import DenseLayer, LayerSpec
from spikeshot.plasticity import QuantizedWeightStore
from spikeshot.readout import ReadoutLayer, ReadoutParams, solve_baseline_bias
from spikeshot.ruledsl import parse_rule

from oracle import OracleDenseLayer, OracleReadout, StepTraces, label_drives


def dense(w_int, params, scale_exp):
    w_int = np.asarray(w_int)
    return DenseLayer(LayerSpec("dense", (w_int.shape[1],), (w_int.shape[0],)), params, w_int, scale_exp)


def test_zero_input_zero_trajectory():
    p = NeuronParams(tau_u=4, tau_v=8)
    w = np.arange(6).reshape(3, 2)
    sim, orc = dense(w, p, -4), OracleDenseLayer((w * 2.0**-4).tolist(), p)
    for _ in range(20):
        assert not sim.step(np.zeros(2)).any() and not any(orc.step([0.0, 0.0]))
        assert not sim.v.any() and orc.v == [0.0, 0.0, 0.0]


def test_single_spike_psp_closed_form_full_precision():
    p = NeuronParams(tau_u=4, tau_v=16)
    layer = OracleDenseLayer([[0.0]], p)
    aq, ap = p.alpha_q, p.alpha_p
    for m in range(1, 200):
        layer.step([1.0 if m == 1 else 0.0])
        expect = (ap**m - aq**m) / (p.tau_u * p.tau_v * (ap - aq))
        assert layer.p[0] == pytest.approx(expect, abs=1e-12)


def test_simulator_matches_oracle_state_trajectories():
    p = NeuronParams(tau_u=5, tau_v=12, v_th=0.4)
    rng = np.random.default_rng(0)
    w = rng.normal(size=(4, 6))
    w = np.rint(w / np.abs(w).max() * 127)
    sim = dense(w, p, -5)
    orc = OracleDenseLayer((w * 2.0**-5).tolist(), p)
    n_spikes = 0
    for _ in range(500):
        s = (rng.random(6) < 0.25).astype(float)
        n_spikes += np.count_nonzero(sim.step(s))
        orc.step(s.tolist())
        assert np.allclose(sim.v, orc.v, atol=1e-12)
        assert np.allclose(sim.r, orc.r, atol=1e-12)
        assert np.array_equal(sim.spiked, np.array(orc.spiked))
    assert 0 < n_spikes < 500 * 4


def random_config(rng):
    """Random layer parameters and full-range int8 weights at scale ``2**-5``."""
    fan_in = int(rng.integers(3, 9))
    n_out = int(rng.integers(2, 6))
    params = NeuronParams(
        tau_u=float(rng.uniform(2, 12)),
        tau_v=float(rng.uniform(12, 30)),
        v_th=float(rng.uniform(0.2, 1.0)),
    )
    w = rng.normal(size=(n_out, fan_in)) * float(rng.uniform(0.1, 0.6))
    return np.rint(w / np.abs(w).max() * 127), params, fan_in


def test_spike_rasters_identical_5_random_configs_10k_steps():
    rng = np.random.default_rng(123)
    for _ in range(5):
        w, params, fan_in = random_config(rng)
        sim = dense(w, params, -5)
        orc = OracleDenseLayer((w * 2.0**-5).tolist(), params)
        inputs = rng.random((10_000, fan_in)) < 0.2
        raster = np.empty((10_000, len(w)), dtype=bool)
        for t in range(10_000):
            s = inputs[t].astype(float)
            raster[t] = sim.step(s)
            b = orc.step(s.tolist())
            assert np.array_equal(raster[t], np.array(b)), f"raster diverged at step {t}"
        assert 0 < np.count_nonzero(raster) < raster.size


def test_network_dense_layer_rasters_match_oracle_5_random_int8_configs():
    # the layer Network runs (post-synaptic, int8 weights) against the scalar
    # pre-synaptic oracle with the same real-valued weights
    rng = np.random.default_rng(2024)
    for _ in range(5):
        fan_in, n_out = int(rng.integers(4, 17)), int(rng.integers(2, 7))
        params = NeuronParams(tau_u=float(rng.uniform(2, 12)), tau_v=float(rng.uniform(12, 30)),
                              v_th=float(rng.uniform(0.2, 1.0)), bias=float(rng.uniform(-0.1, 0.1)))
        w = rng.integers(-128, 128, size=(n_out, fan_in))
        w[:, : fan_in // 2] = np.abs(w[:, : fan_in // 2])  # excitatory enough to spike
        scale_exp = int(rng.integers(-6, -3))
        sim = dense(w, params, scale_exp)
        orc = OracleDenseLayer((w * 2.0**scale_exp).tolist(), params)
        inputs = rng.random((3000, fan_in)) < 0.2
        raster = []
        for t, s in enumerate(inputs):
            raster.append(sim.step(s).copy())
            assert np.array_equal(raster[-1], np.array(orc.step(s.astype(float).tolist()))), f"raster diverged at step {t}"
            assert np.allclose(sim.v, orc.v, rtol=0, atol=1e-9)
        assert 0 < np.count_nonzero(raster) < np.size(raster)


def test_readout_step_rasters_match_oracle_5_random_int8_configs():
    # the readout's plasticity-off step that Network runs (post-synaptic, no
    # label) against the scalar pre-synaptic oracle with the same real-valued
    # weights and no label spikes
    rng = np.random.default_rng(2025)
    for _ in range(5):
        fan_in, n_out = int(rng.integers(4, 17)), int(rng.integers(2, 7))
        neuron = NeuronParams(tau_u=float(rng.uniform(2, 12)), tau_v=float(rng.uniform(12, 30)),
                              v_th=float(rng.uniform(0.2, 1.0)))
        params = ReadoutParams(neuron=neuron, baseline_period=int(rng.integers(5, 30)))
        w = rng.integers(-128, 128, size=(n_out, fan_in))
        w[:, : fan_in // 2] = np.abs(w[:, : fan_in // 2])  # excitatory enough to spike
        store = QuantizedWeightStore((n_out, fan_in), int(rng.integers(-6, -3)), 0, init=w)
        sim = ReadoutLayer(fan_in, n_out, store, params)
        orc = OracleReadout(fan_in, n_out, params, solve_baseline_bias(params))
        orc.w = store.effective().tolist()
        no_label = [False] * n_out
        inputs = rng.random((3000, fan_in)) < 0.2
        raster = []
        for t, s in enumerate(inputs):
            raster.append(sim.step(s).copy())
            expect = np.array(orc.step(s.astype(float).tolist(), no_label))
            assert np.array_equal(raster[-1], expect), f"raster diverged at step {t}"
            assert np.allclose(sim.v_err, orc.v_err, rtol=0, atol=1e-9)
            assert np.allclose(sim.v_out, orc.v_out, rtol=0, atol=1e-9)
        assert 0 < np.count_nonzero(raster) < np.size(raster)


def test_readout_matches_oracle_readout():
    params = ReadoutParams(neuron=NeuronParams(tau_u=8, tau_v=16))
    b_err = solve_baseline_bias(params)
    store = QuantizedWeightStore((2, 4), -6, 0, init=np.full((2, 4), 25))
    sim = ReadoutLayer(4, 2, store, params)
    traces = StepTraces(sim)
    orc = OracleReadout(4, 2, params, b_err)
    orc.w = store.effective().tolist()
    rng = np.random.default_rng(8)
    drives = label_drives(sim, 0, 4, 800)  # the oracle filters the label spikes itself
    for t in range(800):
        s = (rng.random(4) < 0.3).astype(float)
        traces.step(s, drives[t])
        orc.step(s.tolist(), [t % 4 == 0, False])
        assert np.allclose(sim.v_err, orc.v_err, atol=1e-9)
        assert np.allclose(sim.v_out, orc.v_out, atol=1e-9)
        assert np.array_equal(sim.spiked_out, np.array(orc.spiked_out))
        assert np.allclose(traces.post["y1"], orc.y1, atol=1e-9)


def test_quantized_drift_bounded_by_rounding_budget():
    # lr small: the quantized weights stay within one integer step of the
    # unrounded oracle weights (clamp never reached)
    params = ReadoutParams(neuron=NeuronParams(tau_u=8, tau_v=16))
    b_err = solve_baseline_bias(params)
    rule = parse_rule("dw = 0.001*x1*y1")
    store = QuantizedWeightStore((1, 2), -6, 42)
    sim = ReadoutLayer(2, 1, store, params)
    sim.attach_engine(rule, lr_exp=0, learn_period=1)
    orc = OracleReadout(2, 1, params, b_err, w_scale=2.0**-6)
    orc.set_rule(rule, lr_exp=0, learn_period=1)
    rng = np.random.default_rng(10)
    n_updates = 1000
    stream = np.array([(rng.random(2) < 0.4).astype(float) for _ in range(n_updates)])
    for t in range(n_updates):
        orc.step(stream[t].tolist(), [t % 5 == 0], learn=True)
    sim.train([stream], [0], [0], target_period=5)  # label spikes at t % 5 == 0
    dev = np.abs(store.effective() - np.array(orc.w)).max()
    assert dev <= 2.0**-6  # within one integer step of the oracle
    # the updates are far below one step, so the store's weights stay 0 and
    # the deviation is the oracle's own unrounded drift
    assert dev > 0


def test_quantized_drift_that_moves_the_store():
    # dw = 0.04*x1 adds ~0.016 integer steps per update whatever the
    # spikes, so the unrounded oracle drifts by D ~ 16 steps over 1,000
    # updates. Stochastic rounding makes the store's error against it a
    # sum of zero-mean steps whose variance is at most D: every seed stays
    # within 5 sqrt(D) of the oracle, and the mean over 20 seeds within
    # 5 sqrt(D / 20), which a store that never moved, or rounded one way
    # only, misses by far.
    params = ReadoutParams(neuron=NeuronParams(tau_u=8, tau_v=16))
    b_err = solve_baseline_bias(params)
    rule = parse_rule("dw = 0.04*x1")
    rng = np.random.default_rng(10)
    stream = (rng.random((1000, 2)) < 0.4).astype(float)
    orc = OracleReadout(2, 1, params, b_err, w_scale=2.0**-6)
    orc.set_rule(rule, lr_exp=0, learn_period=1)
    for t in range(len(stream)):
        orc.step(stream[t].tolist(), [t % 5 == 0], learn=True)
    drift = np.array(orc.w) / 2.0**-6  # in integer steps
    assert drift.min() > 10

    stored = []
    for seed in range(20):
        store = QuantizedWeightStore((1, 2), -6, seed)
        sim = ReadoutLayer(2, 1, store, params)
        sim.attach_engine(rule, lr_exp=0, learn_period=1)
        sim.train([stream], [0], [0], target_period=5)
        stored.append(store.weights.astype(np.float64))
    stored = np.array(stored)
    assert stored.min() >= 3  # every store moved by several steps
    assert np.all(np.abs(stored - drift) <= 5 * np.sqrt(drift))
    assert np.all(np.abs(stored.mean(axis=0) - drift) <= 5 * np.sqrt(drift / 20))


def test_rounding_drift_unbiased_across_seeds():
    params = ReadoutParams(neuron=NeuronParams(tau_u=8, tau_v=16))
    b_err = solve_baseline_bias(params)
    rule = parse_rule("dw = 0.03*x1*y1")
    rng = np.random.default_rng(77)
    inputs = (rng.random((400, 2)) < 0.4).astype(float)
    targets = [t % 5 == 0 for t in range(400)]
    orc = OracleReadout(2, 1, params, b_err, w_scale=2.0**-6)
    orc.set_rule(rule, 0, 1)
    for t in range(400):
        orc.step(inputs[t].tolist(), [targets[t]], learn=True)
    reference = np.array(orc.w)

    mean_devs = []
    for seed in range(50):
        store = QuantizedWeightStore((1, 2), -6, seed)
        sim = ReadoutLayer(2, 1, store, params)
        sim.attach_engine(rule, 0, 1)
        sim.train([inputs], [0], [0], target_period=5)  # the targets above
        mean_devs.append(float((store.effective() - reference).mean()))
    mean_devs = np.array(mean_devs)
    # feedback through spiking makes the per-seed deviation discrete; the
    # required property is that the signed deviation straddles zero
    assert mean_devs.min() < 0 < mean_devs.max()
