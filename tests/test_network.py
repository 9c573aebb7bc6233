"""Topology parsing, layer shape propagation, conv/pool semantics, determinism."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikeshot.dynamics import NeuronParams
from spikeshot.events import LabeledSample
from spikeshot.fewshot import frozen_pass
from spikeshot.network import (
    F32_EXACT_FAN_IN,
    KIND_PLASTIC,
    BuildConfig,
    ConvLayer,
    DenseLayer,
    LayerSpec,
    PoolLayer,
    TopologyError,
    build_network,
    parse_shape,
    parse_topology,
)
from spikeshot.plasticity import QuantizedWeightStore
from spikeshot.readout import ReadoutLayer, ReadoutParams
from spikeshot.ruledsl import parse_rule


NEURON = NeuronParams(tau_u=8, tau_v=16)
READOUT = ReadoutParams(neuron=NEURON)


def test_parse_shape():
    assert parse_shape("128x128x2") == (128, 128, 2)
    assert parse_shape("32") == (32,)
    assert parse_shape("1") == (1,) and parse_shape("1x1x1") == (1, 1, 1)  # the smallest dimension
    with pytest.raises(TopologyError):
        parse_shape("0x4")
    with pytest.raises(TopologyError):
        parse_shape("abc")


def test_reference_architecture_shapes():
    # sensor 128x128x2 through pool/conv stack down to 512 dense + 11 outputs
    topo = parse_topology("128x128x2", ["4a", "16c5z", "2a", "32c3z", "2a", "512"], 11)
    shapes = [spec.out_shape for spec in topo.layers]
    assert shapes == [
        (32, 32, 2),
        (32, 32, 16),
        (16, 16, 16),
        (16, 16, 32),
        (8, 8, 32),
        (512,),
        (11,),
    ]
    assert topo.layers[-1].kind == KIND_PLASTIC


def test_unit_pool_is_passthrough_shape():
    topo = parse_topology("128x128x2", ["1a"], 3)
    assert topo.layers[0].out_shape == (128, 128, 2)


def test_conv_shape_same_padding():
    topo = parse_topology("32x32x2", ["16c5z"], 4)
    assert topo.layers[0].out_shape == (32, 32, 16)


def test_minimal_dense_plastic_network():
    topo = parse_topology("64", [], 11)
    assert len(topo.layers) == 1
    assert topo.layers[0].in_shape == (64,)
    assert topo.layers[0].out_shape == (11,)


def test_topology_errors():
    with pytest.raises(TopologyError):
        parse_topology("30x30x2", ["4a"], 3)  # window does not divide
    with pytest.raises(TopologyError):
        parse_topology("32x32x2", ["16c4z"], 3)  # even kernel
    with pytest.raises(TopologyError):
        parse_topology("64", ["4a"], 3)  # pooling needs 2-D input
    with pytest.raises(TopologyError):
        parse_topology("64", ["pancake"], 3)
    with pytest.raises(TopologyError):
        parse_topology("64", [], 0)


@pytest.mark.parametrize("token", ["0a", "0", "0c5z"])
def test_zero_sized_layer_tokens_are_refused(token):
    # a zero pool window, dense width or channel count
    with pytest.raises(TopologyError, match="size below 1"):
        parse_topology("8x8x2", [token], 3)


def test_pool_block_equals_aggregated_weight():
    # uniform 2x2 spiking block into one pool neuron behaves like a single
    # input with 4x weight into a dense neuron
    spec = LayerSpec("pool", (2, 2, 1), (1, 1, 1), kernel=2)
    pool = PoolLayer(spec, NEURON)
    dense = DenseLayer(LayerSpec("dense", (1,), (1,)), NEURON, np.array([[4]]), 0)
    rng = np.random.default_rng(0)
    for _ in range(200):
        s = float(rng.random() < 0.3)
        block = np.full((2, 2, 1), s)
        pool.step(block)
        dense.step(np.array([s]))
        assert pool.v.ravel()[0] == pytest.approx(dense.v[0], abs=1e-12)
        assert pool.spiked.ravel()[0] == dense.spiked[0]


@settings(max_examples=200, deadline=None)
@given(k=st.integers(1, 5), hk=st.integers(1, 6), wk=st.integers(1, 6), c=st.integers(1, 4), data=st.data())
def test_pool_index_equals_unravel_form(k, hk, wk, c, data):
    """The flat pooled neuron of each flat input neuron, in events' order and
    with repeats, as ``np.unravel_index`` and ``np.ravel_multi_index`` give it."""
    spec = LayerSpec("pool", (k * hk, k * wk, c), (hk, wk, c), kernel=k)
    n_in = k * hk * k * wk * c
    neuron = np.array(data.draw(st.lists(st.integers(0, n_in - 1), max_size=40)) + list(range(n_in)), dtype=np.int64)
    y, x, ch = np.unravel_index(neuron, spec.in_shape)
    got = PoolLayer(spec, NEURON).pool_index(neuron)
    assert got.dtype == np.int64
    assert np.array_equal(got, np.ravel_multi_index((y // k, x // k, ch), spec.out_shape))


def test_conv_equals_dense_expansion_small_shape():
    rng = np.random.default_rng(42)
    h = w = 6
    c_in, c_out, k = 2, 3, 3
    kernel = rng.integers(-20, 21, size=(c_out, k, k, c_in)).astype(np.int8)
    spec = LayerSpec("conv2d", (h, w, c_in), (h, w, c_out), kernel=k, channels=c_out)
    conv = ConvLayer(spec, NEURON, kernel, scale_exp=-4)

    # explicit dense expansion of the same kernel with zero padding
    n_in, n_out = h * w * c_in, h * w * c_out
    dense_w = np.zeros((n_out, n_in))
    scale = 2.0**-4
    for y in range(h):
        for x in range(w):
            for o in range(c_out):
                row = (y * w + x) * c_out + o
                for dy in range(k):
                    for dx in range(k):
                        yy, xx = y + dy - k // 2, x + dx - k // 2
                        if 0 <= yy < h and 0 <= xx < w:
                            for c in range(c_in):
                                dense_w[row, (yy * w + xx) * c_in + c] = kernel[o, dy, dx, c] * scale
    dense = DenseLayer(LayerSpec("dense", (n_in,), (n_out,)), NEURON, (dense_w / scale).astype(np.int8), -4)

    for t in range(120):
        s = (rng.random((h, w, c_in)) < 0.15).astype(float)
        conv.step(s)
        dense.step(s.ravel())
        assert np.array_equal(conv.v.reshape(-1), dense.v)
        assert np.array_equal(conv.spiked.reshape(-1), dense.spiked)


def _reference_contraction(layer, s):
    """``W ⊛ s`` of one sample in int64, by another route than the layer's."""
    s = s.astype(np.int64)
    if layer.kind in ("dense", KIND_PLASTIC):
        return layer.weights.astype(np.int64) @ s.ravel()
    k = layer.spec.kernel
    h, w, c = s.shape
    if layer.kind == "pool":
        return s.reshape(h // k, k, w // k, k, c).sum(axis=(1, 3))
    pad = np.pad(s, [(k // 2, k // 2), (k // 2, k // 2), (0, 0)])
    out = np.zeros((h, w, layer.spec.channels), dtype=np.int64)
    for dy in range(k):
        for dx in range(k):
            out += pad[dy : dy + h, dx : dx + w] @ layer.weights[:, dy, dx, :].T.astype(np.int64)
    return out


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_contraction_is_exact_integer_arithmetic(data):
    # Frozen layers contract integer counts with int8 weights, exactly: counts
    # in float64, spikes in float32 (conv fan-ins k*k*C_in reach 800 here);
    # so the contraction equals the int64 one bit for bit, batched or not,
    # and the first step's PSC is that exact value over tau_u. So does the
    # readout's plasticity-off step, which contracts in float64.
    kind = data.draw(st.sampled_from(["dense", "conv", "pool", "readout"]))
    seed = data.draw(st.integers(0, 2**16))
    batch = data.draw(st.integers(1, 6))
    max_count = data.draw(st.integers(1, 3))
    rng = np.random.default_rng(seed)
    scale_exp = int(rng.integers(-8, 1))
    params = NeuronParams(tau_u=3, tau_v=5)
    if kind == "dense":
        n_in, n_out = int(rng.integers(1, 40)), int(rng.integers(1, 20))
        spec = LayerSpec("dense", (n_in,), (n_out,))
        layer = DenseLayer(spec, params, rng.integers(-128, 128, size=(n_out, n_in)), scale_exp)
    elif kind == "readout":
        n_in, n_out = int(rng.integers(1, 40)), int(rng.integers(1, 20))
        spec = LayerSpec(KIND_PLASTIC, (n_in,), (n_out,))
        store = QuantizedWeightStore((n_out, n_in), scale_exp, 0, init=rng.integers(-128, 128, size=(n_out, n_in)))
        layer = ReadoutLayer(n_in, n_out, store, ReadoutParams(neuron=params))
    elif kind == "conv":
        h, w, c_in, c_out, k = (int(rng.integers(1, 7)), int(rng.integers(1, 7)), int(rng.integers(1, 33)),
                                int(rng.integers(1, 5)), int(rng.choice([1, 3, 5])))
        spec = LayerSpec("conv2d", (h, w, c_in), (h, w, c_out), kernel=k, channels=c_out)
        layer = ConvLayer(spec, params, rng.integers(-128, 128, size=(c_out, k, k, c_in)), scale_exp)
    else:
        k = int(rng.integers(1, 4))
        h, w, c = k * int(rng.integers(1, 4)), k * int(rng.integers(1, 4)), int(rng.integers(1, 3))
        spec = LayerSpec("pool", (h, w, c), (h // k, w // k, c), kernel=k)
        layer, scale_exp = PoolLayer(spec, params), 0
    s = rng.integers(0, max_count + 1, size=(batch,) + spec.in_shape)
    s = s.astype(bool) if max_count == 1 else s.astype(np.float64)  # spikes, or event counts
    expect = [_reference_contraction(layer, x).astype(np.float64) * 2.0**scale_exp for x in s]

    contracts = kind != "readout"  # the readout contracts inside its step
    layer.reset_state(batch)
    assert not contracts or np.array_equal(layer._contract(s), np.array(expect).reshape((batch,) + spec.out_shape))
    layer.step(s)
    assert np.array_equal(layer.q, np.array(expect).reshape(layer.q.shape) / params.tau_u)
    for x, e in zip(s, expect):
        layer.reset_state()
        assert not contracts or np.array_equal(layer._contract(x), e.reshape(spec.out_shape))
        layer.step(x)
        assert np.array_equal(layer.q, e.reshape(spec.out_shape) / params.tau_u)


@pytest.mark.parametrize("scale_exp", [-6, 0])
def test_spike_contraction_at_the_float32_bound(scale_exp):
    # Every spike on, every weight -128: a fan-in of F32_EXACT_FAN_IN sums to
    # -2**24, where float32's run of exact integers ends. One more synapse of
    # weight -1 gives an odd sum that float32 cannot hold, so that layer must
    # contract in float64.
    n = F32_EXACT_FAN_IN
    assert n == 131_072
    on = np.ones(n, dtype=bool)
    layer = DenseLayer(LayerSpec("dense", (n,), (1,)), NEURON, np.full((1, n), -128), scale_exp)
    assert layer._contract(on).tolist() == [-(2.0**24) * 2.0**scale_exp]
    w = np.append(np.full(n, -128), -1)[None]
    layer = DenseLayer(LayerSpec("dense", (n + 1,), (1,)), NEURON, w, scale_exp)
    assert int(w.astype(np.int64).sum()) == -16_777_217
    assert layer._contract(np.ones(n + 1, dtype=bool)).tolist() == [-16_777_217 * 2.0**scale_exp]


def test_zero_input_forever_zero_output():
    topo = parse_topology("8", ["6"], 3)
    net = build_network(topo, NEURON, READOUT, BuildConfig(seed=1))
    for _ in range(100):
        out = net.step(np.zeros(8))
        assert not out.any()


def test_forward_determinism_bit_identical():
    topo = parse_topology("8", ["6"], 3)

    def run():
        net = build_network(topo, NEURON, READOUT, BuildConfig(seed=5))
        rng = np.random.default_rng(77)
        rasters = []
        for _ in range(300):
            out = net.step((rng.random(8) < 0.3).astype(float))
            rasters.append(out.copy())
        return np.array(rasters), net.layers[0].weights.copy()

    r1, w1 = run()
    r2, w2 = run()
    assert np.array_equal(r1, r2)
    assert np.array_equal(w1, w2)


def test_different_seed_different_weights():
    topo = parse_topology("8", ["6"], 3)
    a = build_network(topo, NEURON, READOUT, BuildConfig(seed=1))
    b = build_network(topo, NEURON, READOUT, BuildConfig(seed=2))
    assert not np.array_equal(a.layers[0].weights, b.layers[0].weights)


def test_plastic_layer_zero_initialized_by_default():
    topo = parse_topology("8", ["6"], 3)
    net = build_network(topo, NEURON, READOUT, BuildConfig(seed=1))
    assert not net.readout.store.weights.any()


def test_plastic_random_init():
    topo = parse_topology("8", ["6"], 3)
    net = build_network(topo, NEURON, READOUT, BuildConfig(seed=1, plastic_init="random"))
    assert net.readout.store.weights.any()


def test_frozen_weights_untouched_by_learning():
    topo = parse_topology("8", ["6"], 3)
    net = build_network(topo, NEURON, READOUT, BuildConfig(seed=3))
    net.readout.attach_engine(parse_rule("dw = x1*y1"), 4, 1)
    frozen_before = net.layers[0].weights.tobytes()
    events = np.argwhere(np.random.default_rng(5).random((300, 8)) < 0.4)
    stream = frozen_pass(net, [LabeledSample(shape=(8,), duration=300, label=0, events=events)])[0]
    net.readout.train([stream], [0], [0], target_period=4)  # label spikes at t % 4 == 0
    assert net.layers[0].weights.tobytes() == frozen_before
    assert net.readout.store.weights.any()  # plastic layer did learn


def test_step_records_each_layer():
    topo = parse_topology("8", ["6"], 3)
    net = build_network(topo, NEURON, READOUT, BuildConfig(seed=3))
    out = net.step(np.ones(8))
    assert len(net.layer_spikes) == 2  # hidden layer + readout
    assert net.layer_spikes[-1] is out


def test_input_size_validation():
    topo = parse_topology("8", ["6"], 3)
    net = build_network(topo, NEURON, READOUT, BuildConfig(seed=3))
    with pytest.raises(ValueError):
        net.step(np.zeros(9))


def test_table_architecture_builds_and_steps():
    # tiny analogue of the pooled-conv stack, exercised end to end
    topo = parse_topology("8x8x2", ["2a", "4c3z", "2a", "16"], 3)
    net = build_network(topo, NEURON, READOUT, BuildConfig(seed=0))
    rng = np.random.default_rng(1)
    for _ in range(30):
        out = net.step((rng.random(128) < 0.2).astype(float))
    assert out.shape == (3,)
