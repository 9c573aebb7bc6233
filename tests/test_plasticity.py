"""Quantized weight store, stochastic rounding, rule engine."""

import numpy as np
import pytest

from spikeshot.plasticity import (
    NonFiniteUpdateError,
    PlasticityEngine,
    QuantizedWeightStore,
    apply_rule_rowmajor,
    evaluate_rule_matrix,
    synapse_view,
)
from spikeshot.ruledsl import RuleError, evaluate_rule, parse_rule

GOLDEN = parse_rule("dw = 2*y1*(x2 - x1) + 2*x1 - 2*x2")


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
    s.apply_update(0, 0, 24.0, 0)  # candidate 34.0 exactly
    assert s.weights[0, 0] == 34


def test_clamp_at_upper_bound():
    s = QuantizedWeightStore((1, 1), 0, 7, init=np.array([[120]]))
    s.apply_update(0, 0, 31.2, 0)  # candidate 151.2
    assert s.weights[0, 0] == 127


def test_clamp_at_lower_bound():
    s = QuantizedWeightStore((1, 1), 0, 7, init=np.array([[-120]]))
    s.apply_update(0, 0, -31.2, 0)
    assert s.weights[0, 0] == -128


def test_index_out_of_range():
    s = QuantizedWeightStore((2, 3), 0, 7)
    with pytest.raises(IndexError):
        s.apply_update(2, 0, 1.0, 0)


def test_fractional_candidate_mean_over_seeded_trials():
    # candidate 10.75: expect 11 w.p. 0.75, 10 w.p. 0.25
    n = 100_000
    s = QuantizedWeightStore((1, n), 0, 123, init=np.full((1, n), 10))
    s.apply_update_matrix(np.full((1, n), 0.75), 0)
    mean = s.weights.astype(float).mean()
    assert 10.74 <= mean <= 10.76


@pytest.mark.parametrize("frac", [0.1, 0.25, 0.5, 0.9])
def test_stochastic_rounding_unbiased(frac):
    n = 100_000
    s = QuantizedWeightStore((1, n), 0, 2024, init=np.zeros((1, n)))
    s.apply_update_matrix(np.full((1, n), frac), 0)
    ceil_freq = (s.weights == 1).mean()
    se = np.sqrt(frac * (1 - frac) / n)
    assert abs(ceil_freq - frac) <= 3 * se


def test_negative_candidates_round_unbiased():
    n = 100_000
    s = QuantizedWeightStore((1, n), 0, 5, init=np.zeros((1, n)))
    s.apply_update_matrix(np.full((1, n), -0.3), 0)  # floor -1 w.p. 0.3
    freq = (s.weights == -1).mean()
    se = np.sqrt(0.3 * 0.7 / n)
    assert abs(freq - 0.3) <= 3 * se


def test_same_seed_bit_identical_trajectories():
    def run():
        s = QuantizedWeightStore((3, 4), -6, 99)
        rng = np.random.default_rng(0)
        for _ in range(200):
            s.apply_update_matrix(rng.normal(size=(3, 4)), 2)
        return s.weights.copy()

    assert np.array_equal(run(), run())


def test_scalar_and_matrix_paths_share_the_stream():
    pre = {"x1": np.array([0.3, 0.1, 0.0, 0.7]), "x2": np.array([0.5, 0.2, 0.0, 0.9])}
    post = {"y1": np.array([1.2, 0.4, 0.9])}
    a = QuantizedWeightStore((3, 4), -6, 7)
    b = QuantizedWeightStore((3, 4), -6, 7)
    for _ in range(60):
        apply_rule_rowmajor(a, GOLDEN, pre, post, 3)
        b.apply_update_matrix(evaluate_rule_matrix(GOLDEN, pre, post, b.effective()), 3)
        assert np.array_equal(a.weights, b.weights)


def test_lr_exp_scales_update_power_of_two():
    s = QuantizedWeightStore((1, 1), 0, 11, init=np.array([[0]]))
    s.apply_update(0, 0, 2.0, 3)  # candidate 16.0 exactly
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


def test_engine_learn_period_gates_updates():
    s = QuantizedWeightStore((1, 2), 0, 3)
    eng = PlasticityEngine(s, parse_rule("dw = x1"), lr_exp=0, learn_period=3)
    pre = {"x1": np.array([1.0, 2.0])}
    applied = [eng.tick(pre, {}) for _ in range(9)]
    assert applied == [False, False, True] * 3
    eng2 = PlasticityEngine(QuantizedWeightStore((1, 2), 0, 3), parse_rule("dw = x1"), 0, 1)
    assert all(eng2.tick(pre, {}) for _ in range(5))


def test_engine_counter_reset():
    s = QuantizedWeightStore((1, 1), 0, 3)
    eng = PlasticityEngine(s, parse_rule("dw = x1"), 0, 2)
    assert not eng.tick({"x1": np.ones(1)}, {})
    eng.reset_counter()
    assert not eng.tick({"x1": np.ones(1)}, {})
    assert eng.tick({"x1": np.ones(1)}, {})


def test_golden_rule_zero_traces_no_change():
    # every product carries a trace factor, so zero traces give exact zeros
    # and the store is untouched (integer candidates)
    s = QuantizedWeightStore((2, 3), -6, 1, init=np.arange(6).reshape(2, 3))
    eng = PlasticityEngine(s, GOLDEN, lr_exp=4, learn_period=1)
    before = s.weights.copy()
    for _ in range(10):
        eng.tick({"x1": np.zeros(3), "x2": np.zeros(3)}, {"y1": np.zeros(2)})
    assert np.array_equal(s.weights, before)


def test_weights_never_leave_int8_under_hot_rule():
    s = QuantizedWeightStore((2, 2), 0, 42)
    eng = PlasticityEngine(s, parse_rule("dw = x1*y1"), lr_exp=6, learn_period=1)
    for _ in range(100):
        eng.tick({"x1": np.full(2, 3.0)}, {"y1": np.full(2, 3.0)})
        assert s.weights.min() >= -128 and s.weights.max() <= 127
    assert np.all(s.weights == 127)


def test_clone_preserves_stream_position():
    a = QuantizedWeightStore((2, 2), 0, 8)
    a.apply_update_matrix(np.full((2, 2), 0.5), 0)
    b = a.clone()
    a.apply_update_matrix(np.full((2, 2), 0.5), 0)
    b.apply_update_matrix(np.full((2, 2), 0.5), 0)
    assert np.array_equal(a.weights, b.weights)


def test_reseed_rewinds_stream():
    s = QuantizedWeightStore((1, 8), 0, 31)
    s.apply_update_matrix(np.full((1, 8), 0.5), 0)
    first = s.weights.copy()
    s.weights = np.zeros((1, 8), dtype=np.int8)
    s.reseed()
    s.apply_update_matrix(np.full((1, 8), 0.5), 0)
    assert np.array_equal(s.weights, first)


def test_effective_follows_assignments_scale_and_updates():
    s = QuantizedWeightStore((1, 2), -6, 0)
    assert not s.effective().any()
    s.weights = np.array([[64, -32]], dtype=np.int8)
    assert np.array_equal(s.effective(), [[1.0, -0.5]])
    s.scale_exp = -5
    assert np.array_equal(s.effective(), [[2.0, -1.0]])
    s.apply_update(0, 0, 1.0, 0)  # candidate 65.0 exactly
    assert np.array_equal(s.effective(), [[65 / 32, -1.0]])
    s.apply_update_matrix(np.array([[-1.0, 2.0]]), 0)
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
    s.apply_update(0, 1, 1.0, 0)
    assert np.array_equal(s.weights, [[3, -3]]) and not s.weights.flags.writeable
    with pytest.raises(ValueError, match="shape"):
        s.weights = np.zeros((2, 1), dtype=np.int8)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e308])
def test_non_finite_updates_are_refused(bad):
    s = QuantizedWeightStore((2, 3), -6, 5, init=np.full((2, 3), 7))
    untouched = s.clone()
    deltas = np.full((2, 3), 0.3)
    deltas[1, 2] = bad  # 1e308 is finite but overflows once scaled by 2**3
    with pytest.raises(NonFiniteUpdateError, match="1 of 6"):
        s.apply_update_matrix(deltas, 3)
    with pytest.raises(NonFiniteUpdateError):
        s.apply_update(1, 2, bad, 3)
    assert np.array_equal(s.weights, untouched.weights)
    # no rounding draw was consumed
    s.apply_update_matrix(np.full((2, 3), 0.3), 0)
    untouched.apply_update_matrix(np.full((2, 3), 0.3), 0)
    assert np.array_equal(s.weights, untouched.weights)


def test_engine_names_the_rule_with_non_finite_updates():
    eng = PlasticityEngine(QuantizedWeightStore((1, 2), -6, 0), parse_rule("dw = 1e308*x1"), lr_exp=3)
    with pytest.raises(RuleError, match=r"'dw = 1e\+308\*x1' gives non-finite weight updates"):
        eng.tick({"x1": np.ones(2)}, {})
