"""Batched stepping: every sample of a batch follows its solo trajectory, bit for bit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikeshot.dynamics import NeuronParams
from spikeshot.events import LabeledSample, SpikeEvent
from spikeshot.fewshot import evaluate_streams, frozen_pass
from spikeshot.network import BuildConfig, build_network, parse_topology
from spikeshot.readout import ReadoutParams

NEURON = NeuronParams(tau_u=2, tau_v=4, v_th=0.5)
READOUT = ReadoutParams(neuron=NeuronParams(tau_u=2, tau_v=4))
BUILD = dict(frozen_scale_exp=-5, frozen_init_lo=-20, frozen_init_hi=100)

# (input shape, layer tokens, readout size)
TOPOLOGIES = {
    "dense": ("7", ["6", "5"], 3),
    "conv": ("4x4x2", ["2c3z", "2a", "4"], 3),
    "spikes": ("4x4x2", ["2a", "2c3z", "4"], 3),  # conv and dense contract spikes in float32
    "none": ("6", [], 2),  # the readout reads input counts directly
    # a leading pool is folded into the event index
    "pool": ("4x4x2", ["2a"], 3),
    "pool-pool": ("8x8x2", ["2a", "2a", "4"], 3),
    "pool-k4": ("12x8x2", ["4a", "2c3z"], 3),  # non-square: a swapped y/x or channel stride shows
}


@pytest.mark.parametrize("m, n, batch", [(64, 32, 45), (5, 64, 45), (5, 64, 13_500), (3, 2048, 9), (3, 2048, 1)])
def test_stacked_matmul_is_per_sample_gemv(m, n, batch):
    # The batched layers rely on np.matmul over a stack of column vectors
    # running one gemv per sample; P @ W.T (gemm) differs in the last bits.
    rng = np.random.default_rng(m * n + batch)
    w = rng.integers(-128, 128, size=(m, n)) * 2.0**-6
    p = rng.random((batch, n)) * 3.0
    per_sample = np.stack([w @ row for row in p])
    assert np.array_equal(np.matmul(w, p[..., None])[..., 0], per_sample)
    assert np.array_equal(np.matmul(w, p[0][..., None])[..., 0], w @ p[0])
    assert np.array_equal(np.dot(w, p[0]), w @ p[0])  # the training step's gemv


# The training step sums a rule's products, stacked as [K, n_out, fan_in], with
# one np.add.reduce over axis 0 (desk: 5 x 64; conv-dvs128: 3 x 2048). Digests
# rely on that being the left-to-right sum.
@pytest.mark.parametrize("n, m", [(5, 64), (3, 2048)])
def test_stacked_reduce_is_the_sequential_sum(n, m):
    rng = np.random.default_rng(n * m)
    for k in range(1, 13):
        # magnitudes 1e-8 to 1e8 so that a regrouped sum rounds differently
        terms = rng.normal(size=(k, n, m)) * 10.0 ** rng.integers(-8, 9, size=(k, n, 1))
        total = terms[0].copy()
        for term in terms[1:]:
            total += term
        assert np.array_equal(np.add.reduce(terms, 0), total)


# A sample's rounding uniforms come from one draw; the store's stream must
# end where one draw per learning step leaves it.
@pytest.mark.parametrize("k, n, m", [(300, 5, 64), (50, 3, 2048), (7, 1, 1), (0, 5, 64)])
def test_one_stacked_draw_is_k_matrix_draws(k, n, m):
    one = np.random.Generator(np.random.Philox(11))
    many = np.random.Generator(np.random.Philox(11))
    many.random(3)  # both start mid-way through a Philox block
    one.random(3)
    stacked = one.random((k, n, m))
    in_turn = [many.random((n, m)) for _ in range(k)]
    assert np.array_equal(stacked, np.array(in_turn).reshape(k, n, m))
    assert one.random(5).tolist() == many.random(5).tolist()
    assert str(one.bit_generator.state) == str(many.bit_generator.state)


@st.composite
def samples(draw, n_in):
    duration = draw(st.integers(0, 12))
    if duration == 0:
        return LabeledSample(shape=(n_in,), duration=0, label=0)
    events = draw(st.lists(st.tuples(st.integers(0, duration - 1), st.integers(0, n_in - 1)), max_size=4 * duration))
    events += events[: draw(st.integers(0, len(events)))]  # duplicate events count twice
    events.sort(key=lambda e: e[0])
    return LabeledSample(shape=(n_in,), duration=duration, label=0,
                         events=[SpikeEvent(t=t, neuron=j) for t, j in events])


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_batched_equals_per_sample(data):
    input_shape, tokens, n_out = TOPOLOGIES[data.draw(st.sampled_from(sorted(TOPOLOGIES)))]
    seed = data.draw(st.integers(0, 2**16))
    net = build_network(parse_topology(input_shape, tokens, n_out), NEURON, READOUT, BuildConfig(seed=seed, **BUILD))
    net.readout.store.weights = np.random.default_rng(seed).integers(-80, 81, size=net.readout.store.shape)
    batch = data.draw(st.lists(samples(net.n_in), min_size=1, max_size=6))

    solo = []  # per sample: readout input stream, per-step potentials, spike counts
    for s in batch:
        net.reset_state()
        dense = s.to_dense()
        stream, potentials = [], []
        for t in range(s.duration):
            net.step(dense[t])
            stream.append(net.layer_spikes[-2].ravel() if net.layers else dense[t])
            potentials.append([layer.v.copy() for layer in net.layers] + [net.readout.v_out.copy()])
        solo.append((np.array(stream).reshape(s.duration, net.readout.fan_in), potentials, net.readout.spike_count.copy()))

    durations = [s.duration for s in batch]
    padded = np.zeros((len(batch), max(durations), net.n_in))
    for b, s in enumerate(batch):
        padded[b, : s.duration] = s.to_dense()
    net.reset_state(batch=len(batch))
    for t in range(padded.shape[1]):
        net.step(padded[:, t])
        for b, (_, potentials, _) in enumerate(solo):
            if t < durations[b]:
                now = [layer.v[b] for layer in net.layers] + [net.readout.v_out[b]]
                assert all(np.array_equal(x, y) for x, y in zip(now, potentials[t]))

    streams = frozen_pass(net, batch)
    for b, (stream, _, _) in enumerate(solo):
        assert np.array_equal(streams[b, : durations[b]], stream)
    counts = evaluate_streams(net.readout, streams, durations)
    assert np.array_equal(counts, np.array([c for _, _, c in solo]))
