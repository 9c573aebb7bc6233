"""Quantized weight store, stochastic rounding, rule engine."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikeshot.dynamics import NeuronParams
from spikeshot.oracle import apply_rule_rowmajor, apply_update, evaluate_rule_matrix, synapse_view
from spikeshot.plasticity import NonFiniteUpdateError, QuantizedWeightStore
from spikeshot.readout import ReadoutLayer, ReadoutParams
from spikeshot.ruledsl import RuleError, evaluate_rule, parse_rule

GOLDEN = parse_rule("dw = 2*y1*(x2 - x1) + 2*x1 - 2*x2")
READOUT = ReadoutParams(neuron=NeuronParams(tau_u=2, tau_v=4), baseline_period=4)


def update(store, raw_deltas, lr_exp):
    """One matrix update with the next draws of the store's stream."""
    store.apply_update_matrix(raw_deltas, lr_exp, store.uniforms(1)[0])


def learner(store, rule, lr_exp, learn_period=1):
    """A readout over ``store`` that learns with ``rule``."""
    layer = ReadoutLayer(store.shape[1], store.shape[0], store, READOUT)
    layer.attach_engine(rule, lr_exp, learn_period)
    return layer


def test_effective_weights_power_of_two_scale():
    s = QuantizedWeightStore((2, 2), -6, 1, init=np.array([[64, -64], [127, -128]]))
    assert np.array_equal(s.effective(), np.array([[1.0, -1.0], [127 / 64, -2.0]]))


def test_init_validation():
    with pytest.raises(ValueError):
        QuantizedWeightStore((2, 2), -6, 1, init=np.array([[200, 0], [0, 0]]))
    with pytest.raises(ValueError):
        QuantizedWeightStore((2, 2), -6, 1, init=np.zeros((3, 2)))


def test_integer_candidate_is_deterministic():
    s = QuantizedWeightStore((1, 1), 0, 7, init=np.array([[10]]))
    apply_update(s, 0, 0, 24.0, 0)  # candidate 34.0 exactly
    assert s.weights[0, 0] == 34


def test_clamp_at_upper_bound():
    s = QuantizedWeightStore((1, 1), 0, 7, init=np.array([[120]]))
    apply_update(s, 0, 0, 31.2, 0)  # candidate 151.2
    assert s.weights[0, 0] == 127


def test_clamp_at_lower_bound():
    s = QuantizedWeightStore((1, 1), 0, 7, init=np.array([[-120]]))
    apply_update(s, 0, 0, -31.2, 0)
    assert s.weights[0, 0] == -128


def test_index_out_of_range():
    s = QuantizedWeightStore((2, 3), 0, 7)
    with pytest.raises(IndexError):
        apply_update(s, 2, 0, 1.0, 0)


def test_fractional_candidate_mean_over_seeded_trials():
    # candidate 10.75: expect 11 w.p. 0.75, 10 w.p. 0.25
    n = 100_000
    s = QuantizedWeightStore((1, n), 0, 123, init=np.full((1, n), 10))
    update(s, np.full((1, n), 0.75), 0)
    mean = s.weights.astype(float).mean()
    assert 10.74 <= mean <= 10.76


@pytest.mark.parametrize("frac", [0.1, 0.25, 0.5, 0.9])
def test_stochastic_rounding_unbiased(frac):
    n = 100_000
    s = QuantizedWeightStore((1, n), 0, 2024, init=np.zeros((1, n)))
    update(s, np.full((1, n), frac), 0)
    ceil_freq = (s.weights == 1).mean()
    se = np.sqrt(frac * (1 - frac) / n)
    assert abs(ceil_freq - frac) <= 3 * se


def test_negative_candidates_round_unbiased():
    n = 100_000
    s = QuantizedWeightStore((1, n), 0, 5, init=np.zeros((1, n)))
    update(s, np.full((1, n), -0.3), 0)  # floor -1 w.p. 0.3
    freq = (s.weights == -1).mean()
    se = np.sqrt(0.3 * 0.7 / n)
    assert abs(freq - 0.3) <= 3 * se


@settings(max_examples=200, deadline=None)
@given(init=st.integers(-128, 127), deltas=st.lists(st.floats(-400.0, 400.0), min_size=1, max_size=6),
       lr_exp=st.integers(-3, 3), seed=st.integers(0, 2**32 - 1))
def test_rounding_is_floor_or_ceil_clamped(init, deltas, lr_exp, seed):
    # candidates reach well past -128 and 127
    s = QuantizedWeightStore((1, len(deltas)), -6, seed, init=np.full((1, len(deltas)), init))
    raw = np.array([deltas])
    candidate = init + raw * 2.0**lr_exp
    update(s, raw, lr_exp)
    got = s.weights.astype(np.float64)
    floor = np.clip(np.floor(candidate), -128, 127)
    ceil = np.clip(np.ceil(candidate), -128, 127)
    assert np.all((got == floor) | (got == ceil))


@settings(max_examples=40, deadline=None)
@given(init=st.integers(-128, 127), delta=st.floats(-300.0, 300.0))
def test_rounding_mean_tends_to_the_clamped_candidate(init, delta):
    # 20 streams of 2,000 draws each: the mean of the rounded weights is
    # the clamped candidate within 5 standard errors of a fair rounding
    candidate = init + delta
    rounded = []
    for seed in range(20):
        s = QuantizedWeightStore((1, 2000), 0, seed, init=np.full((1, 2000), init))
        update(s, np.full((1, 2000), delta), 0)
        rounded.append(s.weights.astype(np.float64))
    frac = candidate - np.floor(candidate)
    se = np.sqrt(frac * (1 - frac) / 40_000)
    assert abs(np.mean(rounded) - np.clip(candidate, -128, 127)) <= 5 * se + 1e-12


def test_same_seed_bit_identical_trajectories():
    def run():
        s = QuantizedWeightStore((3, 4), -6, 99)
        rng = np.random.default_rng(0)
        for _ in range(200):
            update(s, rng.normal(size=(3, 4)), 2)
        return s.weights.copy()

    assert np.array_equal(run(), run())


def test_scalar_and_matrix_paths_share_the_stream():
    pre = {"x1": np.array([0.3, 0.1, 0.0, 0.7]), "x2": np.array([0.5, 0.2, 0.0, 0.9])}
    post = {"y1": np.array([1.2, 0.4, 0.9])}
    a = QuantizedWeightStore((3, 4), -6, 7)
    b = QuantizedWeightStore((3, 4), -6, 7)
    for _ in range(60):
        apply_rule_rowmajor(a, GOLDEN, pre, post, 3)
        update(b, evaluate_rule_matrix(GOLDEN, pre, post, b.effective()), 3)
        assert np.array_equal(a.weights, b.weights)


def test_lr_exp_scales_update_power_of_two():
    s = QuantizedWeightStore((1, 1), 0, 11, init=np.array([[0]]))
    apply_update(s, 0, 0, 2.0, 3)  # candidate 16.0 exactly
    assert s.weights[0, 0] == 16


def test_evaluate_rule_matrix_matches_scalar():
    rng = np.random.default_rng(17)
    pre = {k: rng.random(5) for k in ("x0", "x1", "x2")}
    post = {k: rng.random(3) for k in ("y0", "y1", "y2")}
    w = rng.normal(size=(3, 5))
    rule = parse_rule("dw = 0.5*x1*y1*w - x2*y2 + 2*x0*y0 - 0.25")
    mat = evaluate_rule_matrix(rule, pre, post, w)
    for i in range(3):
        for j in range(5):
            assert mat[i, j] == pytest.approx(
                evaluate_rule(rule, synapse_view(pre, post, w[i, j], i, j)), abs=1e-12
            )


def _calls(store):
    """Patch the store to count its matrix updates."""
    return mock.patch.object(store, "apply_update_matrix", wraps=store.apply_update_matrix)


def test_engine_learn_period_gates_updates():
    for period, n_updates in ((3, 3), (1, 9)):
        layer = learner(QuantizedWeightStore((1, 2), 0, 3), parse_rule("dw = x1"), 0, period)
        with _calls(layer.store) as calls:
            layer.train([np.ones((9, 2))], [0], [0], 4)
        assert calls.call_count == n_updates


def test_engine_counter_reset():
    # the learning period restarts with every sample: two 1-step samples
    # never reach period 2, a 2-step sample does once
    layer = learner(QuantizedWeightStore((1, 1), 0, 3), parse_rule("dw = x1"), 0, 2)
    with _calls(layer.store) as calls:
        layer.train([np.ones((1, 1)), np.ones((2, 1))], [0, 0], [0, 0, 1], 4)
    assert calls.call_count == 1


def test_golden_rule_zero_traces_no_change():
    # every product carries an x factor, so silent inputs give exact zeros
    # and the store is untouched (integer candidates), though y1 is not 0
    s = QuantizedWeightStore((2, 3), -6, 1, init=np.arange(6).reshape(2, 3))
    before = s.weights.copy()
    with _calls(s) as calls:
        learner(s, GOLDEN, lr_exp=4).train([np.zeros((10, 3))], [0], [0], 4)
    assert calls.call_count == 10
    assert np.array_equal(s.weights, before)


def test_weights_never_leave_int8_under_hot_rule():
    s = QuantizedWeightStore((2, 2), 0, 42)
    inner, ranges = s.apply_update_matrix, []

    def checked(*args):
        inner(*args)
        ranges.append((s.weights.min(), s.weights.max()))

    with mock.patch.object(s, "apply_update_matrix", checked):
        learner(s, parse_rule("dw = x1*y1"), lr_exp=6).train([np.ones((100, 2))], [0], [0], 4)
    assert len(ranges) == 100 and all(-128 <= lo and hi <= 127 for lo, hi in ranges)
    assert np.all(s.weights == 127)


def test_clone_preserves_stream_position():
    a = QuantizedWeightStore((2, 2), 0, 8)
    update(a, np.full((2, 2), 0.5), 0)
    b = a.clone()
    update(a, np.full((2, 2), 0.5), 0)
    update(b, np.full((2, 2), 0.5), 0)
    assert np.array_equal(a.weights, b.weights)


def test_reseed_rewinds_stream():
    s = QuantizedWeightStore((1, 8), 0, 31)
    update(s, np.full((1, 8), 0.5), 0)
    first = s.weights.copy()
    s.weights = np.zeros((1, 8), dtype=np.int8)
    s.reseed()
    update(s, np.full((1, 8), 0.5), 0)
    assert np.array_equal(s.weights, first)


def test_effective_follows_assignments_scale_and_updates():
    s = QuantizedWeightStore((1, 2), -6, 0)
    assert not s.effective().any()
    s.weights = np.array([[64, -32]], dtype=np.int8)
    assert np.array_equal(s.effective(), [[1.0, -0.5]])
    s.scale_exp = -5
    assert np.array_equal(s.effective(), [[2.0, -1.0]])
    apply_update(s, 0, 0, 1.0, 0)  # candidate 65.0 exactly
    assert np.array_equal(s.effective(), [[65 / 32, -1.0]])
    update(s, np.array([[-1.0, 2.0]]), 0)
    assert np.array_equal(s.effective(), [[2.0, -30 / 32]])
    assert np.array_equal(s.weights, [[64, -30]]) and s.weights.dtype == np.int8


def test_weights_are_read_only_and_assignments_are_copied():
    s = QuantizedWeightStore((1, 2), 0, 0)
    with pytest.raises(ValueError, match="read-only"):
        s.weights[0, 0] = 5
    mine = np.array([[3, -4]], dtype=np.int8)
    s.weights = mine
    mine[0, 0] = 100  # the store took a copy
    assert np.array_equal(s.effective(), [[3.0, -4.0]])
    apply_update(s, 0, 1, 1.0, 0)
    assert np.array_equal(s.weights, [[3, -3]]) and not s.weights.flags.writeable
    with pytest.raises(ValueError, match="shape"):
        s.weights = np.zeros((2, 1), dtype=np.int8)


# the store gets the non-finite deltas directly, outside the errstate of
# ReadoutLayer.train, so numpy warns (overflow, inf - inf) before it refuses
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e308])
def test_non_finite_updates_are_refused(bad):
    s = QuantizedWeightStore((2, 3), -6, 5, init=np.full((2, 3), 7))
    untouched = s.clone()
    deltas = np.full((2, 3), 0.3)
    deltas[1, 2] = bad  # 1e308 is finite but overflows once scaled by 2**3
    with pytest.raises(NonFiniteUpdateError, match="1 of 6"):
        update(s, deltas, 3)
    s.unread(0)  # the refused update's draws go back
    with pytest.raises(NonFiniteUpdateError):
        apply_update(s, 1, 2, bad, 3)
    assert np.array_equal(s.weights, untouched.weights)
    # no rounding draw was consumed
    update(s, np.full((2, 3), 0.3), 0)
    update(untouched, np.full((2, 3), 0.3), 0)
    assert np.array_equal(s.weights, untouched.weights)


def test_engine_names_the_rule_with_non_finite_updates():
    layer = learner(QuantizedWeightStore((1, 2), -6, 0), parse_rule("dw = 1e308*x1"), lr_exp=3)
    with pytest.raises(RuleError, match=r"'dw = 1e\+308\*x1' gives non-finite weight updates"):
        layer.train([np.ones((1, 2))], [0], [0], 4)
