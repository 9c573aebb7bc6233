"""Two-compartment readout: baseline, calibration, output offset, delta-rule sign.

The distal checks, which need a label, step ``ReadoutLayer`` through the
labelled pre-synaptic step that ``train`` takes (``StepTraces``); the
output compartment checks step its own ``step``, which ``Network`` runs.
"""

import numpy as np
import pytest

from spikeshot import readout as readout_module
from spikeshot.dynamics import NeuronParams
from spikeshot.plasticity import QuantizedWeightStore
from spikeshot.readout import CalibrationError, ReadoutLayer, ReadoutParams, calibrate_bias, solve_baseline_bias
from spikeshot.ruledsl import parse_rule

from oracle import StepTraces, evaluate_rule_matrix, label_drives, oracle_calibrate


def make_params(**kw):
    neuron = kw.pop("neuron", NeuronParams(tau_u=8, tau_v=16))
    return ReadoutParams(neuron=neuron, **kw)


@pytest.fixture(scope="module")
def params():
    return make_params()


@pytest.fixture(scope="module")
def b_err(params):
    return solve_baseline_bias(params)


def readout(params, weights=((0,),), scale_exp=-6):
    """A readout with int8 ``weights`` [n_out, fan_in] at ``2**scale_exp``;
    its b_err is ``solve_baseline_bias(params)``."""
    w = np.asarray(weights)
    store = QuantizedWeightStore(w.shape, scale_exp, 0, init=w)
    return ReadoutLayer(w.shape[1], w.shape[0], store, params)


def drive(layer, steps, inputs=None, target_period=0):
    """Step ``layer`` through ``StepTraces`` with every channel carrying
    ``inputs[t]`` (silence if None) and a label spike for neuron 0 every
    ``target_period`` steps (none for 0); returns the steps at which neuron
    0's distal compartment fires."""
    spikes, drives, traces = [], label_drives(layer, 0, target_period, steps), StepTraces(layer)
    for t in range(steps):
        s = np.full(layer.fan_in, 0.0 if inputs is None else inputs[t])
        traces.step(s, drives[t])
        if layer.spiked_err[0]:
            spikes.append(t)
    return spikes


def run_free(params, steps):
    return drive(readout(params), steps)


def test_baseline_firing_is_periodic_near_target(params):
    spikes = run_free(params, 800)
    isis = np.diff(spikes[len(spikes) // 2 :])
    assert len(set(isis.tolist())) <= 2  # periodic orbit
    assert abs(isis.mean() - params.baseline_period) <= 1.0


def test_positive_input_raises_rate_above_baseline(params):
    base_spikes = run_free(params, 600)
    driven = drive(readout(params, [[16]]), 600, inputs=np.ones(600))
    assert len(driven) > len(base_spikes)


def test_matched_input_and_target_stay_at_baseline(params):
    # the input is the label train itself with weight w_tgt, so its drive
    # equals the label drive and the potential reduces to the free-running case
    base_spikes = run_free(params, 800)
    labels = (np.arange(800) % 4 == 0).astype(float)
    layer = readout(params, [[int(params.w_tgt)]], scale_exp=0)
    count = len(drive(layer, 800, inputs=labels, target_period=4))
    assert abs(count - len(base_spikes)) <= 1


def test_error_rate_monotonicity_in_input_and_target(params):
    # a spike on every step: the drive settles near weight * 2**-6 * 1.1
    def rate(weight, target_period):
        return len(drive(readout(params, [[weight]]), 600, np.ones(600), target_period))

    rates_in = [rate(w, 0) for w in (0, 6, 12, 18, 24)]
    assert all(a <= b for a, b in zip(rates_in, rates_in[1:]))
    # denser targets (smaller period) must not increase the rate
    rates_tgt = [rate(12, p) for p in (0, 16, 8, 4, 2)]
    assert all(a >= b for a, b in zip(rates_tgt, rates_tgt[1:]))


def test_calibration_failure_without_bias(params):
    # the solved bias fires at t = 0, so only a window with no steps has no spike
    with pytest.raises(CalibrationError, match="calibration failure.*lengthen episode.calibration_window"):
        calibrate_bias(params, 0)


def test_calibration_needs_ten_periods(params):
    with pytest.raises(CalibrationError):
        calibrate_bias(params, 100)  # only ~5 periods fit


def test_calibration_deterministic(params):
    r1 = calibrate_bias(params, 1200)
    r2 = calibrate_bias(params, 1200)
    assert r1 == r2
    assert r1.b > 0 and r1.b_y1 > 0


def test_calibration_matches_independent_oracle(params, b_err):
    ours = calibrate_bias(params, 1200)
    ref = oracle_calibrate(params, b_err, 1200)
    assert ours.b == pytest.approx(ref.b, abs=1e-9)
    assert ours.b_y1 == pytest.approx(ref.b_y1, abs=1e-9)
    assert ours.period == pytest.approx(ref.period, abs=1e-12)


def test_calibration_changes_with_tau():
    slow = make_params(neuron=NeuronParams(tau_u=8, tau_v=32))
    b_err_slow = solve_baseline_bias(slow)
    rep = calibrate_bias(slow, 1600)
    ref = oracle_calibrate(slow, b_err_slow, 1600)
    assert rep.b == pytest.approx(ref.b, abs=1e-9)
    base = calibrate_bias(make_params(), 1600)
    assert rep.b != pytest.approx(base.b, abs=1e-3)


def test_solve_baseline_bias_hits_requested_period():
    for period in (10, 20, 40):
        prm = make_params(baseline_period=period)
        spikes = run_free(prm, period * 40)  # at b_err = solve_baseline_bias(prm)
        isis = np.diff(spikes[len(spikes) // 2 :])
        assert abs(isis.mean() - period) <= 1.0


def test_solve_baseline_bias_widens_its_bracket():
    # a one-step tau_u and a 2-step period: at the first bracket's top, 4 * v_th,
    # the compartment fires only every 5 steps, so the solver must widen it
    prm = make_params(neuron=NeuronParams(tau_u=1, tau_v=16), baseline_period=2)
    assert readout_module._free_run_period(prm, 4.0 * prm.neuron.v_th, 400) == 5.0
    spikes = run_free(prm, 80)  # at b_err = solve_baseline_bias(prm)
    assert np.diff(spikes[len(spikes) // 2 :]).mean() <= prm.baseline_period


def test_solve_baseline_bias_is_cached_per_params(monkeypatch):
    first = solve_baseline_bias(make_params(baseline_period=13))

    def free_run(*args):
        raise AssertionError("the bisection ran again")

    monkeypatch.setattr(readout_module, "_free_run_spikes", free_run)
    again = solve_baseline_bias(make_params(baseline_period=13))  # an equal, distinct object
    assert type(again) is float and again == first


def output_counts(params, weight, steps):
    """Proximal spike count after each step, with a spike on every step at ``weight``."""
    layer = readout(params, [[weight]])
    counts = []
    for _ in range(steps):
        layer.step(np.ones(1))
        counts.append(int(layer.spike_count[0]))
    return counts


def test_output_compartment_zero_current_never_spikes(params):
    # no drive: the proximal offset cancels the integrated b_err
    assert output_counts(params, 0, 200)[-1] == 0


def test_output_rate_monotone_in_current(params):
    rates = [output_counts(params, w, 400)[-1] for w in (1, 2, 4, 8, 16)]
    assert all(a <= b for a, b in zip(rates, rates[1:]))
    assert rates[-1] > rates[0]


def test_output_spike_count_monotone_within_window(params):
    counts = output_counts(params, 8, 300)
    assert all(a <= b for a, b in zip(counts, counts[1:]))
    assert counts[-1] > 0


def make_layer(seed=0, fan_in=6, n_out=3, weights=None, **prm_kw):
    prm = make_params(**prm_kw)
    store = QuantizedWeightStore((n_out, fan_in), -6, seed)
    if weights is not None:
        store.weights = np.asarray(weights, dtype=np.int8)
    return ReadoutLayer(fan_in, n_out, store, prm)


def test_layer_matches_scalar_compartment():
    # calibrate_bias runs a scalar copy of the free distal compartment; the
    # layer, stepped with no input and no label, with its error spikes
    # filtered into the two-stage trace P_err and the rule trace y1, gives
    # the same report
    window = 1200
    for prm_kw in (
        {},
        {"neuron": NeuronParams(tau_u=8, tau_v=32)},
        {"neuron": NeuronParams(tau_u=5, tau_v=12)},
    ):
        layer = make_layer(weights=np.zeros((3, 6)), **prm_kw)
        traces = StepTraces(layer)
        n = layer.params.neuron
        q_err, p_err_t = np.zeros(3), np.zeros(3)
        p_err, y1, spikes = np.empty(window), np.empty(window), []
        for t in range(window):
            traces.step(np.zeros(6))
            assert np.all(layer.spiked_err == layer.spiked_err[0])
            q_err = n.alpha_q * q_err + layer.spiked_err.astype(np.float64)
            p_err_t = n.alpha_p * p_err_t + q_err
            p_err[t], y1[t] = p_err_t[0], traces.post["y1"][0]
            if layer.spiked_err[0]:
                spikes.append(t)
        warmup = max(2, len(spikes) // 4)
        t_a, t_b = spikes[warmup], spikes[-1]
        rep = calibrate_bias(layer.params, window)
        assert rep.n_spikes == len(spikes)
        assert rep.period == (t_b - t_a) / (len(spikes) - 1 - warmup)
        assert rep.b == p_err[t_a:t_b].mean()  # bit for bit
        assert rep.b_y1 == y1[t_a:t_b].mean()


def test_delta_rule_sign_flip():
    # one active presynaptic channel; target-present vs input-dominant
    # training produce time-averaged raw updates of opposite sign
    def mean_delta(weights, with_target):
        layer = make_layer(n_out=1, fan_in=1, weights=np.array([[weights]]))
        traces = StepTraces(layer)
        cal = calibrate_bias(layer.params, 1200)
        rule = parse_rule(f"dw = y1*(x2 - x1) + {cal.b_y1!r}*(x1 - x2)")
        deltas, drives = [], label_drives(layer, 0, 4 if with_target else 0, 1200)
        for t in range(1200):
            s = np.array([1.0 if t % 3 == 0 else 0.0])
            traces.step(s, drives[t])
            if t > 300:
                deltas.append(
                    float(evaluate_rule_matrix(rule, traces.pre, traces.post, layer.store.effective())[0, 0])
                )
        return float(np.mean(deltas))

    target_dominant = mean_delta(weights=0, with_target=True)
    input_dominant = mean_delta(weights=40, with_target=False)
    assert target_dominant < 0 < input_dominant


def test_reset_state_zeroes_everything():
    layer = make_layer(weights=np.full((3, 6), 30))
    rng = np.random.default_rng(3)
    for _ in range(50):
        layer.step((rng.random(6) < 0.5).astype(float))
    layer.reset_state()
    for arr in (layer.q, layer.p, layer.v_err, layer.p_out, layer.v_out):
        assert not np.asarray(arr).any()
    assert not layer.spike_count.any()
