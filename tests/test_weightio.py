"""Weight file format: round-trips, checksums, corruption handling."""

import numpy as np
import pytest

from spikeshot.dynamics import NeuronParams
from spikeshot.network import BuildConfig, build_network, parse_topology
from spikeshot.readout import ReadoutParams
from spikeshot.weightio import WeightFileError, load_weights, read_weight_file, save_weights

NEURON = NeuronParams(tau_u=8, tau_v=16)
READOUT = ReadoutParams(neuron=NEURON, b_err=1.5)


def fresh_net(seed=0, tokens=("6",)):
    topo = parse_topology("8", list(tokens), 3)
    return build_network(topo, NEURON, READOUT, BuildConfig(seed=seed))


def test_save_load_roundtrip_bit_identical(tmp_path):
    net = fresh_net(seed=4)
    net.readout.store.weights = np.arange(-9, 9).reshape(3, 6).astype(np.int8)
    p1, p2 = tmp_path / "a.ssw", tmp_path / "b.ssw"
    save_weights(net, p1)
    other = fresh_net(seed=99)
    load_weights(other, p1)
    assert np.array_equal(other.layers[0].weights, net.layers[0].weights)
    assert np.array_equal(other.readout.store.weights, net.readout.store.weights)
    save_weights(other, p2, provenance=net.provenance)
    assert p1.read_bytes() == p2.read_bytes()


def test_extreme_values_survive(tmp_path):
    net = fresh_net()
    extremes = net.readout.store.weights.copy()
    extremes[0, 0], extremes[0, 1] = 127, -128
    net.readout.store.weights = extremes
    path = tmp_path / "w.ssw"
    save_weights(net, path)
    other = fresh_net(seed=7)
    load_weights(other, path)
    assert other.readout.store.weights[0, 0] == 127
    assert other.readout.store.weights[0, 1] == -128


def test_truncated_file_checksum_error(tmp_path):
    net = fresh_net()
    path = tmp_path / "w.ssw"
    save_weights(net, path)
    data = path.read_bytes()
    (tmp_path / "t.ssw").write_bytes(data[:-3])
    with pytest.raises(WeightFileError):
        read_weight_file(tmp_path / "t.ssw")


def test_corrupted_payload_checksum_error(tmp_path):
    net = fresh_net()
    path = tmp_path / "w.ssw"
    save_weights(net, path)
    data = bytearray(path.read_bytes())
    data[30] ^= 0xFF
    (tmp_path / "c.ssw").write_bytes(bytes(data))
    with pytest.raises(WeightFileError, match="checksum|kind|truncated"):
        read_weight_file(tmp_path / "c.ssw")


def test_bad_magic(tmp_path):
    (tmp_path / "x.ssw").write_bytes(b"NOPE" + b"\x00" * 20)
    with pytest.raises(WeightFileError, match="magic"):
        read_weight_file(tmp_path / "x.ssw")


def test_version_mismatch(tmp_path):
    net = fresh_net()
    path = tmp_path / "w.ssw"
    save_weights(net, path)
    data = bytearray(path.read_bytes())
    data[4] = 9  # version field
    (tmp_path / "v.ssw").write_bytes(bytes(data))
    with pytest.raises(WeightFileError, match="version"):
        read_weight_file(tmp_path / "v.ssw")


def test_shape_mismatch_against_topology(tmp_path):
    net = fresh_net()
    path = tmp_path / "w.ssw"
    save_weights(net, path)
    topo = parse_topology("8", ["7"], 3)  # different hidden size
    other = build_network(topo, NEURON, READOUT, BuildConfig(seed=0))
    with pytest.raises(WeightFileError, match="mismatch"):
        load_weights(other, path)


def test_provenance_travels(tmp_path):
    net = fresh_net()
    path = tmp_path / "w.ssw"
    save_weights(net, path, provenance="pretrain-classes=0,1,2 seed=9")
    prov, entries = read_weight_file(path)
    assert prov == "pretrain-classes=0,1,2 seed=9"
    assert [kind for kind, _, _ in entries] == ["dense", "plastic-output"]
    other = fresh_net(seed=1)
    load_weights(other, path)
    assert other.provenance == "pretrain-classes=0,1,2 seed=9"


def test_conv_layers_roundtrip(tmp_path):
    topo = parse_topology("8x8x2", ["2a", "4c3z", "8"], 3)
    net = build_network(topo, NEURON, READOUT, BuildConfig(seed=2))
    path = tmp_path / "conv.ssw"
    save_weights(net, path)
    other = build_network(topo, NEURON, READOUT, BuildConfig(seed=11))
    load_weights(other, path)
    for a, b in zip(net.weighted_layers()[:-1], other.weighted_layers()[:-1]):
        assert np.array_equal(a.weights, b.weights)
        assert a.scale_exp == b.scale_exp
