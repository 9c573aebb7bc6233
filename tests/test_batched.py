"""Batched stepping: every sample of a batch follows its solo trajectory, bit for bit."""

import os
import subprocess
import sys
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from spikeshot import config as cfgmod
from spikeshot import fewshot
from spikeshot.cli import main
from spikeshot.dynamics import NeuronParams
from spikeshot.events import LabeledSample, SpikeEvent, read_events, write_events
from spikeshot.fewshot import evaluate_streams, frozen_pass
from spikeshot.network import BuildConfig, Network, build_network, parse_topology
from spikeshot.readout import ReadoutParams
from spikeshot.weightio import save_weights

NEURON = NeuronParams(tau_u=2, tau_v=4, v_th=0.5)
READOUT = ReadoutParams(neuron=NeuronParams(tau_u=2, tau_v=4))
BUILD = dict(frozen_init_lo=-20, frozen_init_hi=100)

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


# A block's rounding uniforms come from one draw; the store's stream must
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


def _at_frozen_scale(net, scale_exp=-5):
    """``net`` with its frozen weights kept at ``2**scale_exp``, twice a built network's 2**-6, so that they spike."""
    for layer in net.weighted_layers()[:-1]:
        layer.set_weights(layer.weights, scale_exp)
    return net


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
    net = _at_frozen_scale(build_network(parse_topology(input_shape, tokens, n_out), NEURON, READOUT,
                                         BuildConfig(seed=seed, **BUILD)))
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

    # the stacks here sit below the grain, so force a split: groups whose
    # longest sample is shorter than the batch's, down to duration 0, show
    n_g = data.draw(st.integers(1, len(batch)))
    with mock.patch.object(fewshot, "_group_count", lambda net, n_b: n_g):
        streams = frozen_pass(net, batch)
    for b, (stream, _, _) in enumerate(solo):
        assert np.array_equal(streams[b, : durations[b]], stream)
    counts = evaluate_streams(net.readout, streams, durations)
    assert np.array_equal(counts, np.array([c for _, _, c in solo]))


def _conv_batch(n_b, seed=3):
    net = _at_frozen_scale(build_network(parse_topology(*TOPOLOGIES["conv"]), NEURON, READOUT,
                                         BuildConfig(seed=seed, **BUILD)))
    rng = np.random.default_rng(seed)
    batch = [LabeledSample(shape=(net.n_in,), duration=d, label=0,
                           events=np.argwhere(rng.random((d, net.n_in)) < 0.3))
             for d in rng.integers(5, 20, size=n_b)]
    return net, batch


def test_many_groups_under_a_short_switch_interval():
    # more groups than cores, with the interpreter switching threads as often as it can
    net, batch = _conv_batch(8)
    alone = frozen_pass(net, batch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with mock.patch.object(fewshot, "_group_count", lambda net, n_b: n_b):
            split = frozen_pass(net, batch)
    finally:
        sys.setswitchinterval(interval)
    for b, s in enumerate(batch):  # the padding past a sample's duration is never read
        assert np.array_equal(split[b, : s.duration], alone[b, : s.duration])


@pytest.mark.parametrize("failing", ["worker", "caller"])
def test_a_group_error_reaches_the_caller_and_no_thread_outlives_the_pass(failing):
    net, batch = _conv_batch(4)
    step_group = fewshot._step_group
    caller = threading.current_thread()

    def step_or_fail(layers, index, out):
        if (threading.current_thread() is caller) == (failing == "caller"):
            raise RuntimeError(f"boom in the {failing}")
        step_group(layers, index, out)

    before = threading.active_count()
    with mock.patch.object(fewshot, "_group_count", lambda net, n_b: 3), \
            mock.patch.object(fewshot, "_step_group", step_or_fail):
        with pytest.raises(RuntimeError, match=f"boom in the {failing}"):
            frozen_pass(net, batch)
    assert threading.active_count() == before


def test_a_one_group_pass_starts_no_thread_and_imports_no_executor(tmp_path):
    # the thread pool's logging import costs resident memory, so the one-group
    # pass that every desk run takes must not load it; a fresh interpreter shows it
    code = (
        "import sys, threading\n"
        "started, start = [], threading.Thread.start\n"
        "threading.Thread.start = lambda self: (started.append(self.name), start(self))[1]\n"
        "from spikeshot.cli import main\n"
        "assert main(sys.argv[1:]) == 0\n"
        "print(started, 'concurrent.futures' in sys.modules)\n"
    )
    src = Path(fewshot.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])),
           "OPENBLAS_NUM_THREADS": "1"}  # every CPU is free of the BLAS: the grain alone keeps one group
    config = Path(__file__).resolve().parent.parent / "configs" / "fewshot.yaml"
    proc = subprocess.run([sys.executable, "-c", code, "train", "--config", str(config), "--seed", "0",
                           "--out", str(tmp_path)], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[] False"


@pytest.mark.parametrize("cpus, blas, desk, conv", [
    (1, "1", 1, 1), (2, "1", 1, 2), (4, "1", 1, 2), (64, "1", 1, 2),
    (2, None, 1, 1), (2, "2", 1, 1), (4, "2", 1, 2), (2, "auto", 1, 1),  # the BLAS takes the CPUs
])
def test_group_count_follows_free_cpus_batch_and_grain(monkeypatch, cpus, blas, desk, conv):
    desk_net = build_network(parse_topology("32", ["64"], 5), NEURON, READOUT)  # 64 updates per sample
    conv_net = build_network(parse_topology("128x128x2", ["4a", "16c5z", "2a", "32c5z", "2a"], 3),
                             NEURON, READOUT)  # 32,768 updates per sample
    monkeypatch.setattr(fewshot.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    for var in fewshot._BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    if blas is not None:
        monkeypatch.setenv("OMP_NUM_THREADS", blas)
    assert fewshot._group_count(desk_net, 45) == desk
    assert fewshot._group_count(conv_net, 9) == conv
    assert fewshot._group_count(conv_net, 4) == 1  # two groups would fall below the grain
    assert fewshot._group_count(conv_net, 1) == 1
    assert fewshot._group_count(conv_net, 0) == 1


@pytest.mark.parametrize("name", sorted(TOPOLOGIES))
def test_simulate_equals_stepping_each_sample_alone(name, tmp_path):
    # simulate rides the batched frozen and readout passes; each sample's
    # trace rows and raster must be those of Network.step on that sample alone
    input_shape, tokens, n_out = TOPOLOGIES[name]
    config = tmp_path / "sim.yaml"
    config.write_text(yaml.safe_dump({
        "topology": {"input": input_shape, "layers": tokens, "output": n_out},
        "neuron": {"tau_u": 2.0, "tau_v": 4.0, "v_th": 0.5},
        "readout": {"tau_u": 2.0, "tau_v": 4.0},
        "weights": {"plastic_scale_exp": -5, **BUILD},
    }))
    cfg = cfgmod.load_config(str(config))
    net = _at_frozen_scale(build_network(cfgmod.topology(cfg), cfgmod.neuron_params(cfg), cfgmod.readout_params(cfg),
                                         cfgmod.build_config(cfg, 5)))
    rng = np.random.default_rng(5)
    net.readout.store.weights = rng.integers(-80, 81, size=net.readout.store.shape)
    weights = tmp_path / "w.ssw"  # it carries the frozen scale to simulate
    save_weights(net, weights)
    batch = []
    for k, duration in enumerate([9, 0, 1, 12, 4, 1]):
        events = np.argwhere(rng.random((duration, net.n_in)) < 0.3)
        events = np.concatenate([events, events[::3]])  # duplicate events count twice
        batch.append(LabeledSample(shape=(net.n_in,), duration=duration, label=k,
                                   events=events[np.argsort(events[:, 0], kind="stable")]))
    events_path, out = tmp_path / "in.events", tmp_path / "out"
    write_events(batch, events_path)

    def no_solo_step(self, in_spikes):
        raise AssertionError("simulate stepped one sample alone")

    with mock.patch.object(Network, "step", no_solo_step):
        assert main(["simulate", "--config", str(config), "--seed", "5", "--weights", str(weights),
                     "--events", str(events_path), "--out", str(out)]) == 0

    r, rasters = net.readout, read_events(out / "raster.events")
    assert len(rasters) == len(batch)
    for k, s in enumerate(batch):
        net.reset_state()
        dense = s.to_dense()
        lines = [f"# trajectory steps={s.duration}", f"# label={s.label}", f"# sample={k}",
                 "# columns: step readout.p_out readout.spikes readout.v_err readout.v_out"]
        raster = np.zeros((s.duration, n_out), dtype=bool)
        for t in range(s.duration):
            raster[t] = net.step(dense[t])
            cells = (",".join(repr(float(x)) for x in v) for v in (r.p_out, raster[t], r.v_err, r.v_out))
            lines.append(" ".join((str(t), *cells)))
        assert (out / f"trace_sample{k}.txt").read_text() == "\n".join(lines) + "\n"
        assert (rasters[k].shape, rasters[k].duration, rasters[k].label) == ((n_out,), s.duration, s.label)
        assert np.array_equal(rasters[k].events, np.argwhere(raster))
    assert any(len(raster.events) for raster in rasters)  # the readout spikes
