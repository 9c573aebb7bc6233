"""Weight file format: round-trips, checksums, corruption handling."""

import math
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


CONV_TOPOLOGY = parse_topology("8x8x2", ["2a", "4c3z", "8"], 3)


def test_conv_layers_roundtrip(tmp_path):
    net = build_network(CONV_TOPOLOGY, NEURON, READOUT, BuildConfig(seed=2, frozen_scale_exp=-4))
    path = tmp_path / "conv.ssw"
    save_weights(net, path)
    other = build_network(CONV_TOPOLOGY, NEURON, READOUT, BuildConfig(seed=11))
    load_weights(other, path)
    for a, b in zip(net.weighted_layers()[:-1], other.weighted_layers()[:-1]):
        assert np.array_equal(a.weights, b.weights)
        assert a.scale_exp == b.scale_exp
    # the loaded network steps like the one that saved it: nothing derived
    # from the built weights or scale survives the load
    rng = np.random.default_rng(3)
    net.reset_state()
    other.reset_state()
    for _ in range(20):
        s = rng.integers(0, 3, size=net.n_in).astype(float)
        net.step(s)
        other.step(s)
        for a, b in zip(net.layer_spikes, other.layer_spikes):
            assert np.array_equal(a, b)
        for a, b in zip(net.layers, other.layers):
            assert np.array_equal(a.v, b.v)


def _weight_file(provenance: bytes, layers) -> bytes:
    """A weight file written field by field: ``layers`` is (tag, scale_exp, dims, payload)."""
    blob = b"SSWF" + struct.pack("<HHH", 1, len(layers), len(provenance)) + provenance
    crc = 0
    for tag, scale_exp, dims, payload in layers:
        blob += struct.pack("<BbB", tag, scale_exp, len(dims)) + struct.pack(f"<{len(dims)}I", *dims) + payload
        crc = zlib.crc32(payload, crc)
    return blob + struct.pack("<I", crc)


@pytest.mark.parametrize("data, message", [
    # dims whose product wraps a 64-bit integer
    (_weight_file(b"", [(1, -6, (2**32 - 1, 2**32 - 1, 2**20), b"\x01" * 8)]), "truncated"),
    (_weight_file(b"\xff\xfe", []), "UTF-8"),
], ids=["dims-product-overflows-int64", "provenance-not-utf8"])
def test_malformed_header_is_weight_file_error(tmp_path, data, message):
    path = tmp_path / "bad.ssw"
    path.write_bytes(data)
    with pytest.raises(WeightFileError, match=message):
        read_weight_file(path)


@pytest.fixture(scope="module")
def conv_file(tmp_path_factory):
    net = build_network(CONV_TOPOLOGY, NEURON, READOUT, BuildConfig(seed=5, plastic_init="random"))
    path = tmp_path_factory.mktemp("conv") / "conv.ssw"
    save_weights(net, path)
    return path


def _unchecked_offsets(data: bytes) -> set[int]:
    """Offsets of the bytes no check covers: the provenance text and each
    layer's scale exponent (the CRC covers only the payloads)."""
    n_layers, plen = struct.unpack_from("<HH", data, 6)
    offsets, pos = set(range(10, 10 + plen)), 10 + plen
    for _ in range(n_layers):
        ndim = data[pos + 2]
        offsets.add(pos + 1)
        pos += 3 + 4 * ndim + math.prod(struct.unpack_from(f"<{ndim}I", data, pos + 3))
    return offsets


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_truncated_or_flipped_file_is_weight_file_error(conv_file, data):
    good = conv_file.read_bytes()
    bad = conv_file.with_name("bad.ssw")
    at = data.draw(st.integers(0, len(good) - 1), label="offset")
    if data.draw(st.booleans(), label="truncate"):
        bad.write_bytes(good[:at])
    else:
        flipped = bytearray(good)
        flipped[at] ^= data.draw(st.integers(1, 255), label="mask")
        bad.write_bytes(bytes(flipped))
        if at in _unchecked_offsets(good):
            # the read may succeed, but only with the saved kinds and payloads
            try:
                _, entries = read_weight_file(bad)
            except WeightFileError:
                return
            _, saved = read_weight_file(conv_file)
            assert [(k, w.tobytes()) for k, w, _ in entries] == [(k, w.tobytes()) for k, w, _ in saved]
            return
    with pytest.raises(WeightFileError):
        read_weight_file(bad)
