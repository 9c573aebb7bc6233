"""ReadoutLayer.train equals its reference, bit for bit.

The reference is the plasticity-off ``step`` with the scalar, synapse by
synapse rule (``apply_rule_rowmajor``) applied at every learning tick. Both
sides record every weight update they hand to the store, so a change in the
order of the rule's floating-point operations shows even where stochastic
rounding would hide it in the weights.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from spikeshot.dynamics import NeuronParams
from spikeshot.plasticity import QuantizedWeightStore, apply_rule_rowmajor
from spikeshot.readout import ReadoutLayer, ReadoutParams, solve_baseline_bias, wire_targets
from spikeshot.ruledsl import RULE_VARS, Factor, Product, SumOfProductsRule

READOUT = ReadoutParams(neuron=NeuronParams(tau_u=2, tau_v=4), baseline_period=4)
B_ERR = solve_baseline_bias(READOUT)

# a few round constants plus arbitrary ones, whose products round
CONSTANTS = st.sampled_from([1.0, -1.0, 0.5, 2.0]) | st.floats(-4.0, 4.0, allow_nan=False, allow_subnormal=False)


@st.composite
def rules(draw):
    """Products of up to three variables in any order (repeats allowed),
    including constant-only products."""
    products = draw(st.lists(st.tuples(CONSTANTS, st.lists(st.sampled_from(RULE_VARS), max_size=3)),
                             min_size=1, max_size=5))
    return SumOfProductsRule(products=tuple(
        Product(constant=c, factors=tuple(Factor(name) for name in names)) for c, names in products
    ))


def _record(store, method):
    """Log the arguments of every call of one of the store's update methods."""
    calls, inner = [], getattr(store, method)

    def logged(*args):
        calls.append(args)
        return inner(*args)

    setattr(store, method, logged)
    return calls


def _reference(layer, stream, label, target_period):
    """Plasticity-off steps, with the scalar rule at every learning tick."""
    eng = layer.engine
    routing = wire_targets(layer.n_out, label, "train", target_period)
    layer.reset_state()
    for t in range(len(stream)):
        layer.step(stream[t], routing.spikes_at(t))
        if (t + 1) % eng.learn_period == 0:
            pre = {"x0": layer.x0, "x1": layer.x1, "x2": layer.x2}
            post = {"y0": layer.spiked_err.astype(np.float64), "y1": layer.y1, "y2": layer.y2}
            apply_rule_rowmajor(layer.store, eng.rule, pre, post, eng.lr_exp)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_train_equals_step_plus_scalar_rule(data):
    fan_in, n_out = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 3))
    duration = data.draw(st.integers(0, 12))
    stream = np.array(data.draw(st.lists(st.lists(st.integers(0, 2), min_size=fan_in, max_size=fan_in),
                                         min_size=duration, max_size=duration)), dtype=np.float64)
    stream = stream.reshape(duration, fan_in)  # spike counts, as when no frozen layer precedes the readout
    label = data.draw(st.integers(0, n_out - 1))
    target_period = data.draw(st.integers(0, 5))
    init = np.array(data.draw(st.lists(st.integers(-128, 127), min_size=n_out * fan_in, max_size=n_out * fan_in)))
    rule, lr_exp, learn_period = data.draw(rules()), data.draw(st.integers(-2, 4)), data.draw(st.integers(1, 3))

    layers, updates = [], []
    for method in ("apply_update_matrix", "apply_update"):
        store = QuantizedWeightStore((n_out, fan_in), -6, seed=3, init=init.reshape(n_out, fan_in))
        layer = ReadoutLayer(fan_in, n_out, store, READOUT, b_err=B_ERR)
        layer.attach_engine(rule, lr_exp, learn_period)
        layers.append(layer)
        updates.append(_record(store, method))
    trained, reference = layers

    trained.train(stream, label, target_period)
    _reference(reference, stream, label, target_period)

    n_ticks = duration // learn_period
    assert len(updates[0]) == n_ticks
    ref_deltas = np.array([args[2] for args in updates[1]]).reshape(n_ticks, n_out, fan_in)
    assert all(np.array_equal(args[0], ref) for args, ref in zip(updates[0], ref_deltas))
    assert np.array_equal(trained.store.weights, reference.store.weights)
    for name in ("p_pre", "v_err", "spiked_err"):
        assert np.array_equal(getattr(trained, name), getattr(reference, name))
