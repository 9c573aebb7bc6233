"""Bit-exact binary weight files.

Layout (little-endian):

    magic   4 bytes  b"SSWF"
    version u16      format version (currently 2)
    n       u16      number of weighted layers
    plen    u16      provenance length, followed by that many UTF-8 bytes
    per layer:
        kind      u8   1=dense 2=conv2d 4=plastic-output
        scale_exp i8
        ndim      u8
        dims      u32 * ndim
        payload   int8 * prod(dims)
    crc     u32      CRC-32 of every byte before it

The provenance string records where the frozen weights came from (e.g. the
pretraining class set) and travels with the file; it is advisory only.

A version 1 file, whose CRC covered only the payloads, is refused as an
unsupported version; ``train`` on its run's manifest config writes the same
weights again as version 2.

Every weighted layer, frozen or plastic, has one interface: ``kind``,
read-only int8 ``weights``, ``scale_exp`` and ``set_weights``, so one loop
saves or loads them all. The bounds are this file's fields: each assignment
passes ``plasticity.int8_weights`` (int8 values, an i8 ``scale_exp``), and
``build_network`` refuses sizes past the u32 dims before it allocates. A
load checks every entry first, so a mismatch leaves the network unchanged.
"""

from __future__ import annotations

import math
import struct
import zlib

import numpy as np

FILE_MAGIC = b"SSWF"
FILE_VERSION = 2

_KIND_TAGS = {"dense": 1, "conv2d": 2, "plastic-output": 4}
_TAG_KINDS = {v: k for k, v in _KIND_TAGS.items()}


class WeightFileError(ValueError):
    """Corrupt, truncated or mismatched weight file."""


def save_weights(net, path) -> None:
    """Write every weighted layer of the network, in order, under its provenance."""
    prov = net.provenance.encode("utf-8")
    layers = net.weighted_layers()
    blob = bytearray(FILE_MAGIC + struct.pack("<HHH", FILE_VERSION, len(layers), len(prov)) + prov)
    for layer in layers:
        w = layer.weights
        blob += struct.pack(f"<BbB{w.ndim}I", _KIND_TAGS[layer.kind], layer.scale_exp, w.ndim, *w.shape)
        blob += w.tobytes()  # C order, whatever the layout
    blob += struct.pack("<I", zlib.crc32(blob))
    with open(path, "wb") as f:
        f.write(bytes(blob))


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise WeightFileError("truncated weight file")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def read_weight_file(path) -> tuple[str, list[tuple[str, np.ndarray, int]]]:
    """Parse and checksum a weight file; returns (provenance, layer entries)."""
    with open(path, "rb") as f:
        data = f.read()
    r = _Reader(data)
    if r.take(4) != FILE_MAGIC:
        raise WeightFileError("not a weight file (bad magic)")
    version, n_layers, plen = r.unpack("<HHH")
    if version != FILE_VERSION:
        raise WeightFileError(f"unsupported weight file version {version}")
    try:
        provenance = r.take(plen).decode("utf-8")
    except UnicodeDecodeError as e:
        raise WeightFileError(f"provenance is not UTF-8 ({e})")
    entries = []
    for _ in range(n_layers):
        tag, scale_exp, ndim = r.unpack("<BbB")
        if tag not in _TAG_KINDS:
            raise WeightFileError(f"unknown layer kind tag {tag}")
        dims = r.unpack(f"<{ndim}I")
        payload = r.take(math.prod(dims))  # a Python int: take checks it against the bytes left
        weights = np.frombuffer(payload, dtype=np.int8).reshape(dims)
        entries.append((_TAG_KINDS[tag], weights, scale_exp))
    covered = data[: r.pos]
    (stored_crc,) = r.unpack("<I")
    if stored_crc != zlib.crc32(covered):
        raise WeightFileError("weight file checksum mismatch")
    if r.pos != len(data):
        raise WeightFileError("trailing bytes after checksum")
    return provenance, entries


def load_weights(net, path) -> None:
    """Load a weight file into a built network, and its provenance string into ``net.provenance``.

    Every stored layer must match the network's weighted layers in order,
    kind and shape, and each takes its scale from the file. All are checked
    before any is set.
    """
    provenance, entries = read_weight_file(path)
    targets = net.weighted_layers()
    if len(entries) != len(targets):
        raise WeightFileError(f"file has {len(entries)} weighted layers, network has {len(targets)}")
    for (kind, weights, _), layer in zip(entries, targets):
        if (kind, weights.shape) != (layer.kind, layer.weights.shape):
            raise WeightFileError(f"layer mismatch: file {kind} {weights.shape}, "
                                  f"network {layer.kind} {layer.weights.shape}")
    for (_, weights, scale_exp), layer in zip(entries, targets):
        layer.set_weights(weights, scale_exp)
    net.provenance = provenance
