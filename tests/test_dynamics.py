"""Neuron dynamics: recursions, closed forms, invariants.

Every check runs on ``network.DenseLayer``, the layer ``Network`` steps,
with int8 weights times ``2**scale_exp``; with weight 1 and scale 0 a
neuron's q and p are exactly the PSC and PSP filters of its input.
"""

import math

import numpy as np
import pytest

from spikeshot.dynamics import NeuronParams
from spikeshot.network import DenseLayer, LayerSpec, TopologyError

from oracle import OracleDenseLayer


def dense(w_int, params, scale_exp=0):
    """A DenseLayer with weights ``w_int * 2**scale_exp``, ``w_int`` [n_out, fan_in]."""
    w_int = np.asarray(w_int)
    spec = LayerSpec("dense", (w_int.shape[1],), (w_int.shape[0],))
    return DenseLayer(spec, params, w_int, scale_exp)


def psp_closed_form(params, m):
    """Single-spike PSP m steps after (and including) the spike step."""
    aq, ap = params.alpha_q, params.alpha_p
    return (ap**m - aq**m) / (params.tau_u * params.tau_v * (ap - aq))


def test_params_validation():
    with pytest.raises(ValueError):
        NeuronParams(tau_u=0.5)
    with pytest.raises(ValueError):
        NeuronParams(v_th=0.0)


def test_psc_spike_jump():
    layer = dense([[1]], NeuronParams(tau_u=4, tau_v=16))
    layer.step(np.array([1.0]))
    assert layer.q[0] == pytest.approx(0.25)


def test_psc_decay_without_spike():
    layer = dense([[1]], NeuronParams(tau_u=4, tau_v=16))
    layer.step(np.array([1.0]))
    layer.step(np.array([0.0]))
    assert layer.q[0] == pytest.approx(0.25 * math.exp(-0.25), abs=1e-12)
    assert layer.q[0] == pytest.approx(0.19470, abs=1e-5)


def test_psc_geometric_decay_closed_form():
    p = NeuronParams(tau_u=6, tau_v=16)
    layer = dense([[7, 0], [0, 3]], p, scale_exp=-1)
    layer.step(np.array([1.0, 1.0]))
    expected = layer.q * p.alpha_q**9
    for _ in range(9):
        layer.step(np.zeros(2))
    assert np.allclose(layer.q, expected, atol=1e-14)


def test_psc_shape_mismatch():
    layer = dense(np.ones((2, 3)), NeuronParams())
    with pytest.raises(ValueError):
        layer.step(np.zeros(2))
    with pytest.raises(TopologyError):  # a ValueError too
        layer.set_weights(np.ones((3, 2)), 0)


def test_current_dot_product():
    # post-synaptic form: a neuron's q is the current w . q_in of the inputs' PSCs
    p = NeuronParams(tau_u=4, tau_v=16)
    layer = dense([[8], [16], [-32]], p, scale_exp=-2)
    layer.step(np.array([1.0]))
    assert np.array_equal(layer.q, np.array([2.0, 4.0, -8.0]) * 0.25)
    layer = dense([[1, -1]], p)
    layer.step(np.array([1.0, 1.0]))
    assert layer.q[0] == 0.0
    layer = dense(np.zeros((1, 1)), NeuronParams(bias=0.1))
    layer.step(np.zeros(1))
    assert layer.q[0] == 0.0 and layer.v[0] == pytest.approx(0.1)  # the bias enters v only


def test_current_shape_mismatch():
    layer = dense(np.ones((3, 2)), NeuronParams())
    with pytest.raises(ValueError):
        layer.step(np.zeros(3))


def test_zero_state_is_fixed_point():
    layer = dense(np.ones((3, 3)), NeuronParams(tau_u=4, tau_v=16, bias=0.0))
    for _ in range(10):
        layer.step(np.zeros(3))
    assert not layer.v.any() and not layer.r.any()
    assert not layer.spiked.any()
    assert not layer.q.any() and not layer.p.any()


def test_threshold_boundary_spikes_at_equality():
    # bias-only neuron: v = r + bias; first step r = 0 so v = bias
    layer = dense(np.zeros((1, 1)), NeuronParams(tau_u=4, tau_v=16, v_th=1.0, bias=1.0))
    layer.step(np.zeros(1))
    assert layer.v[0] == 1.0
    assert layer.spiked[0]


def test_single_spike_psp_closed_form():
    p = NeuronParams(tau_u=4, tau_v=16)
    layer = dense([[1]], p)
    devs = []
    for t in range(80):
        layer.step(np.array([1.0 if t == 0 else 0.0]))
        devs.append(abs(layer.p[0] - psp_closed_form(p, t + 1)))
    assert max(devs) < 1e-12


def test_psp_rises_then_decays():
    layer = dense([[1]], NeuronParams(tau_u=4, tau_v=16))
    traj = []
    for t in range(120):
        layer.step(np.array([1.0 if t == 0 else 0.0]))
        traj.append(layer.p[0])
    peak = int(np.argmax(traj))
    assert 0 < peak < 60
    assert all(traj[i] < traj[i + 1] for i in range(peak - 1))
    assert all(traj[i] > traj[i + 1] for i in range(peak, 119))


def test_single_spike_to_one_output_spike_with_reset_decay():
    # weight sized so the PSP peak crosses threshold exactly once
    p = NeuronParams(tau_u=4, tau_v=8, v_th=1.0)
    layer = dense([[16]], p)
    spikes = []
    r_after = []
    for t in range(60):
        layer.step(np.array([1.0 if t == 0 else 0.0]))
        spikes.append(bool(layer.spiked[0]))
        r_after.append(layer.r[0])
    assert sum(spikes) == 1
    k = spikes.index(True)
    # reset trace jumps by -v_th the step after the spike and then decays
    assert r_after[k + 1] == pytest.approx(-p.v_th)
    for m in range(2, 10):
        assert r_after[k + m] == pytest.approx(-p.v_th * p.alpha_p ** (m - 1), rel=1e-12)


def test_refractory_drops_v_by_at_least_threshold():
    p = NeuronParams(tau_u=4, tau_v=8, v_th=0.5)
    with_reset = dense([[30]], p)
    counterfactual = []
    v_actual = []
    for t in range(40):
        s = np.array([1.0 if t % 15 == 0 else 0.0])
        with_reset.step(s)
        v_actual.append(with_reset.v[0])
        counterfactual.append(with_reset.v[0] - with_reset.r[0])
    spike_steps = [t for t in range(39) if v_actual[t] >= p.v_th]
    assert spike_steps
    for t in spike_steps:
        assert counterfactual[t + 1] - v_actual[t + 1] >= p.v_th - 1e-12


def test_subthreshold_linearity():
    p = NeuronParams(tau_u=4, tau_v=16, v_th=1e9)  # never spikes
    rng = np.random.default_rng(11)
    w = rng.integers(-128, 128, size=(3, 5))
    a = rng.random((50, 5)) < 0.2
    b = rng.random((50, 5)) < 0.2
    la, lb, lab = (dense(w, p, scale_exp=-13) for _ in range(3))
    for t in range(50):
        la.step(a[t].astype(float))
        lb.step(b[t].astype(float))
        lab.step(a[t].astype(float) + b[t].astype(float))
        assert np.allclose(lab.v, la.v + lb.v, atol=1e-12)


def test_r_stays_nonpositive():
    p = NeuronParams(tau_u=2, tau_v=4, v_th=0.3)
    layer = dense(np.full((2, 2), 5), p)
    rng = np.random.default_rng(3)
    for t in range(200):
        layer.step((rng.random(2) < 0.3).astype(float))
        assert np.all(layer.r <= 0.0)


def test_layer_identity_passthrough_fixed_delay():
    # single-spike probe records the layer latency; a sparse pattern then
    # arrives shifted by exactly that latency, one output spike per input
    p = NeuronParams(tau_u=4, tau_v=8, v_th=1.0)
    w = np.diag([16] * 3)
    probe = dense(w, p)
    delay = None
    for t in range(40):
        s = np.array([1.0, 0.0, 0.0]) if t == 0 else np.zeros(3)
        out = probe.step(s)
        if out[0] and delay is None:
            delay = t
    assert delay is not None

    layer = dense(w, p)
    in_times = [0, 50, 100]
    out_spikes = {0: [], 1: [], 2: []}
    for t in range(140):
        s = np.zeros(3)
        for j, t0 in enumerate(in_times):
            if t == t0:
                s[j] = 1.0
        out = layer.step(s)
        for j in np.flatnonzero(out):
            out_spikes[j].append(t)
    for j, t0 in enumerate(in_times):
        assert out_spikes[j] == [t0 + delay]


def test_zero_weights_never_spike():
    p = NeuronParams(tau_u=4, tau_v=16)
    layer = dense(np.zeros((4, 6)), p)
    rng = np.random.default_rng(5)
    for _ in range(100):
        out = layer.step((rng.random(6) < 0.5).astype(float))
        assert not out.any()


def test_identical_neurons_identical_trajectories():
    p = NeuronParams(tau_u=4, tau_v=16)
    layer = dense(np.ones((2, 3)), p)
    rng = np.random.default_rng(9)
    for _ in range(100):
        layer.step((rng.random(3) < 0.4).astype(float))
        assert layer.v[0] == layer.v[1]
        assert layer.spiked[0] == layer.spiked[1]


def test_per_neuron_oracle_matches_dense_layer():
    # the scalar oracle steps neuron by neuron on the pre-synaptic side
    p = NeuronParams(tau_u=3, tau_v=9, v_th=0.2)
    rng = np.random.default_rng(21)
    w = rng.integers(-128, 128, size=(4, 6))
    orc = OracleDenseLayer((w * 2.0**-7).tolist(), p)
    layer = dense(w, p, scale_exp=-7)
    for t in range(120):
        s = (rng.random(6) < 0.3).astype(float)
        out_ref = orc.step(s.tolist())
        out_vec = layer.step(s)
        assert np.array_equal(np.array(out_ref), out_vec)
        assert np.allclose(orc.v, layer.v, atol=1e-12)
