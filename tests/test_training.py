"""ReadoutLayer.train equals its reference, bit for bit.

The reference, from ``tests/oracle.py``, presents each sample with the
plasticity-off ``step``, steps the rule's traces beside it (``StepTraces``)
and applies the scalar, synapse by synapse rule (``apply_rule_rowmajor``)
at every learning step. Both sides record every weight update they hand to
the store, so a change in the order of the rule's floating-point operations
shows even where stochastic rounding would hide it in the weights.
"""

import json
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikeshot import readout
from spikeshot.dynamics import NeuronParams
from spikeshot.plasticity import QuantizedWeightStore
from spikeshot.readout import ReadoutLayer, ReadoutParams
from spikeshot.ruledsl import RULE_VARS, Factor, Product, RuleError, SumOfProductsRule, parse_rule

import oracle
from oracle import StepTraces, apply_rule_rowmajor, label_spikes

READOUT = ReadoutParams(neuron=NeuronParams(tau_u=2, tau_v=4), baseline_period=4)

# a few round constants plus arbitrary ones, whose products round
CONSTANTS = st.sampled_from([1.0, -1.0, 0.5, 2.0]) | st.floats(-4.0, 4.0, allow_nan=False, allow_subnormal=False)

# every kind of product at once: constant-only, w (twice), repeated y, x0 and y0
ALL_FORMS = parse_rule("dw = 0.5 - 0.75*w*x1*y1 + 0.3*w*w*y2 + x0*y0 + 1.5*x2*y1*y1 - x1*x2 + 2*y2 - 0.25*x0")


@st.composite
def rules(draw):
    """Products of up to three variables in any order (repeats allowed),
    including constant-only products."""
    products = draw(st.lists(st.tuples(CONSTANTS, st.lists(st.sampled_from(RULE_VARS), max_size=3)),
                             min_size=1, max_size=5))
    return SumOfProductsRule(products=tuple(
        Product(constant=c, factors=tuple(Factor(name) for name in names)) for c, names in products
    ))


def _reference(layer, streams, labels, order, target_period):
    """Plasticity-off steps and their traces, with the scalar rule at every
    learning step."""
    eng, traces = layer.engine, StepTraces(layer)
    for b in order:
        traces.reset()
        for t in range(len(streams[b])):
            traces.step(streams[b][t], label_spikes(layer.n_out, labels[b], target_period, t))
            if (t + 1) % eng.learn_period == 0:
                apply_rule_rowmajor(layer.store, eng.rule, traces.pre, traces.post, eng.lr_exp)


def _recording(owner, name, deltas):
    """Patch ``owner.name`` to append a copy of each call's weight update,
    its ``which``-th argument, to ``deltas``."""
    inner = getattr(owner, name)
    which = 3 if name == "apply_update" else 0

    def logged(*args):
        deltas.append(np.copy(args[which]))
        return inner(*args)

    return mock.patch.object(owner, name, logged)


def _stream_position(store):
    return json.dumps(store.rng.bit_generator.state, default=np.ndarray.tolist, sort_keys=True)


def _layer(fan_in, n_out, init, rule, lr_exp, learn_period, seed=3):
    store = QuantizedWeightStore((n_out, fan_in), -6, seed=seed, init=init)
    layer = ReadoutLayer(fan_in, n_out, store, READOUT)
    layer.attach_engine(rule, lr_exp, learn_period)
    return layer


@settings(max_examples=60, deadline=None)
@given(data=st.data(), rule=rules() | st.just(ALL_FORMS))
def test_train_equals_step_plus_scalar_rule(data, rule):
    fan_in, n_out = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 3))
    n_samples = data.draw(st.integers(1, 4))
    streams, labels = [], []
    for _ in range(n_samples):
        duration = data.draw(st.integers(0, 12))
        counts = data.draw(st.lists(st.integers(0, 2), min_size=duration * fan_in, max_size=duration * fan_in))
        # spike counts, as when no frozen layer precedes the readout
        streams.append(np.array(counts, dtype=np.float64).reshape(duration, fan_in))
        labels.append(data.draw(st.integers(0, n_out - 1)))
    order = data.draw(st.permutations(range(n_samples)))
    target_period = data.draw(st.integers(0, 5))
    init = np.array(data.draw(st.lists(st.integers(-128, 127), min_size=n_out * fan_in, max_size=n_out * fan_in)))
    lr_exp, learn_period = data.draw(st.integers(-2, 4)), data.draw(st.integers(1, 3))
    # the pre-work in blocks of one learning period, a few, or whole samples
    block_bytes = data.draw(st.sampled_from([1, 1 << 9, 1 << 18]))

    _check(streams, labels, order, target_period, init.reshape(n_out, fan_in), rule, lr_exp, learn_period,
           block_bytes)


def test_lone_synapse_sums_products_in_order():
    # np.add.reduce sums one synapse's eight products pairwise; the sum
    # must still run left to right, as the scalar rule's does
    stream = np.array([[1.0], [0.0], [2.0], [1.0], [0.0], [1.0]])
    for lr_exp in (-2, 0, 3):
        _check([stream, stream[:4]], [0, 0], [0, 1, 0], 2, np.array([[5]]), ALL_FORMS, lr_exp, 1, 1 << 18)


def _check(streams, labels, order, target_period, init, rule, lr_exp, learn_period, block_bytes):
    """Train and the reference hand the store the same updates and leave
    the same weights and stream position."""
    n_out, fan_in = init.shape
    trained = _layer(fan_in, n_out, init, rule, lr_exp, learn_period)
    reference = _layer(fan_in, n_out, init, rule, lr_exp, learn_period)
    ours, theirs = [], []
    with _recording(trained.store, "apply_update_matrix", ours), mock.patch.object(readout, "_BLOCK_BYTES", block_bytes):
        trained.train(streams, labels, order, target_period)
    with _recording(oracle, "apply_update", theirs):
        _reference(reference, streams, labels, order, target_period)

    n_ticks = sum(len(streams[b]) // learn_period for b in order)
    assert len(ours) == n_ticks
    assert np.array_equal(np.array(ours).reshape(-1), np.array(theirs))
    assert np.array_equal(trained.store.weights, reference.store.weights)
    assert _stream_position(trained.store) == _stream_position(reference.store)


def test_train_leaves_the_layer_state_as_it_found_it():
    # training's only outputs are the store's weights and its rounding stream
    layer = _layer(3, 2, np.zeros((2, 3)), ALL_FORMS, 0, 1)
    rng = np.random.default_rng(4)
    for _ in range(5):  # a state away from the reset one
        layer.step(rng.integers(0, 3, size=3).astype(float), np.array([True, False]))
    state = {name: v.copy() for name, v in vars(layer).items() if isinstance(v, np.ndarray)}
    assert len(state) == 12 and any(v.any() for v in state.values())
    layer.train([rng.integers(0, 2, size=(12, 3)).astype(float)] * 2, [0, 1], [1, 0], 4)
    assert layer.store.weights.any()
    for name, before in state.items():
        after = getattr(layer, name)
        assert after.dtype == before.dtype and np.array_equal(after, before), name


@pytest.mark.parametrize("block_bytes", [1, 1 << 18])  # a block per step, one per sample
def test_non_finite_rule_stops_at_the_failing_step(block_bytes, monkeypatch):
    # 1e308*x1 overflows once scaled by 2**3, from the first input spike
    # on; the constant moves the weights at every step before it
    monkeypatch.setattr(readout, "_BLOCK_BYTES", block_bytes)
    rule = parse_rule("dw = 0.3 + 1e308*x1")
    silent = np.zeros((7, 3))
    late = np.zeros((6, 3))
    late[4, 1] = 1.0
    failing = _layer(3, 2, np.zeros((2, 3)), rule, 3, 1)
    with pytest.raises(RuleError, match=r"'dw = 0.3 \+ 1e\+308\*x1' gives non-finite weight updates: "
                                        r"2 of 6 weight updates are not finite"):
        failing.train([silent, late], [0, 1], [0, 1], 4)
    stopped = _layer(3, 2, np.zeros((2, 3)), rule, 3, 1)
    stopped.train([silent, late[:4]], [0, 1], [0, 1], 4)  # every step before the failing one
    assert stopped.store.weights.any()
    assert np.array_equal(failing.store.weights, stopped.store.weights)
    assert _stream_position(failing.store) == _stream_position(stopped.store)


def test_non_finite_rule_raises_without_numpy_warnings():
    # 1e308*w*y1 overflows once scaled by 2**3, at the first error spike;
    # the store's finiteness check raises, and no overflow or invalid-value
    # warning comes before it
    layer = _layer(3, 2, np.full((2, 3), 16), parse_rule("dw = 1e308*w*y1"), 3, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuleError, match="non-finite weight updates"):
            layer.train([np.ones((40, 3))], [0], [0], 4)


def test_train_checks_streams_and_labels_first():
    layer = _layer(3, 2, np.zeros((2, 3)), parse_rule("dw = 1"), 0, 1)
    before = _stream_position(layer.store)
    with pytest.raises(IndexError, match="label 2"):
        layer.train([np.zeros((4, 3)), np.zeros((4, 3))], [0, 2], [0, 1], 4)
    with pytest.raises(ValueError, match="stream shape"):
        layer.train([np.zeros((4, 3)), np.zeros((4, 2))], [0, 1], [0, 1], 4)
    assert not layer.store.weights.any()
    assert _stream_position(layer.store) == before
