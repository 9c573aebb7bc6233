"""Reference-oracle checks: raster equivalence, trajectory tools, rounding drift."""

import numpy as np
import pytest

from spikeshot.dynamics import LifLayer, NeuronParams
from spikeshot.network import DenseLayer, LayerSpec
from spikeshot.oracle import (
    OracleDenseLayer,
    OracleNetwork,
    OracleReadout,
    TrajectoryRecord,
    compare_trajectories,
    dump_trajectory,
    oracle_simulate,
)
from spikeshot.plasticity import QuantizedWeightStore
from spikeshot.readout import ReadoutLayer, ReadoutParams, solve_baseline_bias
from spikeshot.ruledsl import parse_rule


def test_zero_input_zero_trajectory():
    rec = oracle_simulate([np.zeros((3, 2)).tolist()], NeuronParams(tau_u=4, tau_v=8), [], 20)
    assert rec.steps == 20
    assert all(v == [0.0, 0.0, 0.0] for v in rec.series["L0.v"])
    assert all(v == [0.0, 0.0, 0.0] for v in rec.series["L0.spikes"])


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
    w = rng.normal(size=(4, 6)) * 0.3
    sim = LifLayer(w, p)
    orc = OracleDenseLayer(w.tolist(), p)
    for _ in range(500):
        s = (rng.random(6) < 0.25).astype(float)
        sim.step(s)
        orc.step(s.tolist())
        assert np.allclose(sim.v, orc.v, atol=1e-12)
        assert np.allclose(sim.u, orc.u, atol=1e-12)
        assert np.array_equal(sim.spiked, np.array(orc.spiked))


def random_config(rng):
    fan_in = int(rng.integers(3, 9))
    n_out = int(rng.integers(2, 6))
    params = NeuronParams(
        tau_u=float(rng.uniform(2, 12)),
        tau_v=float(rng.uniform(12, 30)),
        v_th=float(rng.uniform(0.2, 1.0)),
    )
    w = rng.normal(size=(n_out, fan_in)) * float(rng.uniform(0.1, 0.6))
    return w, params, fan_in


def test_spike_rasters_identical_5_random_configs_10k_steps():
    rng = np.random.default_rng(123)
    for _ in range(5):
        w, params, fan_in = random_config(rng)
        sim = LifLayer(w, params)
        orc = OracleDenseLayer(w.tolist(), params)
        inputs = rng.random((10_000, fan_in)) < 0.2
        for t in range(10_000):
            s = inputs[t].astype(float)
            a = sim.step(s)
            b = orc.step(s.tolist())
            assert np.array_equal(a, np.array(b)), f"raster diverged at step {t}"


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
        sim = DenseLayer(LayerSpec("dense", (fan_in,), (n_out,)), params, w, scale_exp)
        orc = OracleDenseLayer((w * 2.0**scale_exp).tolist(), params)
        inputs = rng.random((3000, fan_in)) < 0.2
        raster = []
        for t, s in enumerate(inputs):
            raster.append(sim.step(s).copy())
            assert np.array_equal(raster[-1], np.array(orc.step(s.astype(float).tolist()))), f"raster diverged at step {t}"
            assert np.allclose(sim.v, orc.v, rtol=0, atol=1e-9)
        assert 0 < np.count_nonzero(raster) < np.size(raster)


def test_readout_matches_oracle_readout():
    params = ReadoutParams(neuron=NeuronParams(tau_u=8, tau_v=16))
    b_err = solve_baseline_bias(params)
    store = QuantizedWeightStore((2, 4), -6, 0, init=np.full((2, 4), 25))
    sim = ReadoutLayer(4, 2, store, params, b_err=b_err)
    orc = OracleReadout(4, 2, params, b_err)
    orc.w = store.effective().tolist()
    rng = np.random.default_rng(8)
    for t in range(800):
        s = (rng.random(4) < 0.3).astype(float)
        tgt = np.array([t % 4 == 0, False])
        sim.step(s, tgt)
        orc.step(s.tolist(), tgt.tolist())
        assert np.allclose(sim.v_err, orc.v_err, atol=1e-9)
        assert np.allclose(sim.v_out, orc.v_out, atol=1e-9)
        assert np.array_equal(sim.spiked_out, np.array(orc.spiked_out))
        assert np.allclose(sim.y1, orc.y1, atol=1e-9)


def test_compare_trajectories_identical_and_divergent():
    a = TrajectoryRecord(meta={}, series={"v": [[0.0], [1.0], [2.0]]})
    b = TrajectoryRecord(meta={}, series={"v": [[0.0], [1.0], [2.0]]})
    rep = compare_trajectories(a, b, {"v": 0.0})
    assert rep.passed and rep.per_var["v"].max_abs_dev == 0.0
    assert rep.per_var["v"].first_divergence is None

    c = TrajectoryRecord(meta={}, series={"v": [[0.0], [1.5], [2.0]]})
    rep = compare_trajectories(a, c, {"v": 0.1})
    assert not rep.passed
    assert rep.per_var["v"].first_divergence == 1
    assert rep.per_var["v"].max_abs_dev == pytest.approx(0.5)


def test_compare_trajectories_shape_errors():
    a = TrajectoryRecord(meta={}, series={"v": [[0.0], [1.0]]})
    b = TrajectoryRecord(meta={}, series={"v": [[0.0]]})
    with pytest.raises(ValueError, match="length"):
        compare_trajectories(a, b, {})
    c = TrajectoryRecord(meta={}, series={"v": [[0.0, 1.0], [1.0, 2.0]]})
    d = TrajectoryRecord(meta={}, series={"v": [[0.0], [1.0]]})
    with pytest.raises(ValueError, match="shape"):
        compare_trajectories(c, d, {})


def test_dump_trajectory_format():
    rec = TrajectoryRecord(meta={"seed": 3}, series={"v": [[0.5], [1.0]], "s": [[0.0], [1.0]]})
    text = dump_trajectory(rec)
    lines = text.strip().split("\n")
    assert lines[0] == "# trajectory steps=2"
    assert "# seed=3" in lines[1]
    assert lines[2].startswith("# columns: step")
    assert lines[3].split() == ["0", "0.0", "0.5"]
    assert lines[4].split() == ["1", "1.0", "1.0"]


def test_quantized_drift_bounded_by_rounding_budget():
    # lr small: quantized weights stay within one integer step per update of
    # the unrounded oracle weights (clamp never reached)
    params = ReadoutParams(neuron=NeuronParams(tau_u=8, tau_v=16))
    b_err = solve_baseline_bias(params)
    rule = parse_rule("dw = 0.001*x1*y1")
    store = QuantizedWeightStore((1, 2), -6, 42)
    sim = ReadoutLayer(2, 1, store, params, b_err=b_err)
    sim.attach_engine(rule, lr_exp=0, learn_period=1)
    orc = OracleReadout(2, 1, params, b_err, w_scale=2.0**-6)
    orc.set_rule(rule, lr_exp=0, learn_period=1)
    rng = np.random.default_rng(10)
    n_updates = 1000
    stream = np.array([(rng.random(2) < 0.4).astype(float) for _ in range(n_updates)])
    for t in range(n_updates):
        orc.step(stream[t].tolist(), [t % 5 == 0], learn=True)
    sim.train(stream, label=0, target_period=5)  # label spikes at t % 5 == 0
    dev = np.abs(store.effective() - np.array(orc.w)).max()
    assert dev <= n_updates * 2.0**-6
    assert dev > 0  # rounding really happened


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
        sim = ReadoutLayer(2, 1, store, params, b_err=b_err)
        sim.attach_engine(rule, 0, 1)
        sim.train(inputs, label=0, target_period=5)  # the targets above
        mean_devs.append(float((store.effective() - reference).mean()))
    mean_devs = np.array(mean_devs)
    # feedback through spiking makes the per-seed deviation discrete; the
    # required property is that the signed deviation straddles zero
    assert mean_devs.min() < 0 < mean_devs.max()


def test_oracle_network_interface_smoke():
    params = ReadoutParams(neuron=NeuronParams(tau_u=8, tau_v=16))
    b_err = solve_baseline_bias(params)
    rng = np.random.default_rng(0)
    hidden = (rng.normal(size=(6, 4)) * 0.5).tolist()
    net = OracleNetwork([hidden], NeuronParams(tau_u=8, tau_v=16), params, n_out=3, b_err=b_err)
    net.set_rule(parse_rule("dw = x1*y1"), 0, 1)
    net.reset_state()
    for t in range(50):
        net.step((rng.random(4) < 0.5).astype(float).tolist(), [t % 4 == 0, False, False], learn=True)
    assert len(net.spike_counts()) == 3
    assert np.array(net.plastic_weights()).shape == (3, 6)  # readout fans in from 6 hidden units
    cal = net.calibrate(1200)
    assert cal.b > 0
