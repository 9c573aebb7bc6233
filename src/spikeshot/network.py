"""Network assembly: frozen feature layers plus one plastic readout layer.

Topologies are described with compact layer tokens: ``"4a"`` is a 4x4
sum-pooling layer (stride 4, fixed weight 1), ``"16c5z"`` a 16-channel 5x5
zero-padded same-size convolution, a bare integer a dense layer of that many
neurons. The final layer is always the plastic multi-compartment readout.
All feature weights are signed 8-bit integers with a per-layer power-of-two
scale, loaded from a weight file or drawn seeded-uniform, and are frozen:
only the readout store ever changes.

Frozen layers accumulate on the post-synaptic side: each step contracts
the integer input counts with the integer weights, then filters per output
neuron (see ``_FrozenLayer``). That contraction is exact: event counts sum
in float64, and 0/1 spikes into a fan-in of at most ``F32_EXACT_FAN_IN``
sum in float32, whose integers reach 2**24. So a batch of samples shares
one contraction and still follows each sample's own bits. A leading pool's
window sum is folded into the event index (``PoolLayer.pool_index``), so on
events that pool only filters. The readout's plasticity-off step contracts
and filters the same way; only its training, whose weights change every
step, filters per input channel.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from . import readout as readout_mod
from .dynamics import NeuronParams
from .plasticity import QuantizedWeightStore, int8_weights
from .readout import ReadoutLayer, ReadoutParams

KIND_DENSE = "dense"
KIND_CONV = "conv2d"
KIND_POOL = "pool"
KIND_PLASTIC = "plastic-output"


class TopologyError(ValueError):
    """Inconsistent layer shapes or malformed layer tokens."""


@dataclass(frozen=True)
class LayerSpec:
    kind: str
    in_shape: tuple[int, ...]
    out_shape: tuple[int, ...]
    kernel: int | None = None
    channels: int | None = None


@dataclass(frozen=True)
class Topology:
    """Ordered layer specs; the last one is the plastic readout."""

    input_shape: tuple[int, ...]
    layers: tuple[LayerSpec, ...]

    def __post_init__(self):
        if not self.layers or self.layers[-1].kind != KIND_PLASTIC:
            raise TopologyError("topology must end with exactly one plastic-output layer")
        if any(l.kind == KIND_PLASTIC for l in self.layers[:-1]):
            raise TopologyError("plastic-output layer must be last")


def parse_shape(text: str) -> tuple[int, ...]:
    """Parse "128x128x2" or "32" into a shape tuple."""
    try:
        dims = tuple(int(d) for d in str(text).lower().split("x"))
    except ValueError:
        raise TopologyError(f"bad shape {text!r}")
    if not dims or any(d < 1 for d in dims):
        raise TopologyError(f"bad shape {text!r}")
    return dims


_POOL_RE = re.compile(r"^(\d+)a$")
_CONV_RE = re.compile(r"^(\d+)c(\d+)z$")
_DENSE_RE = re.compile(r"^(\d+)$")


def _sizes(tok: str, m: re.Match) -> list[int]:
    """A layer token's integers; a pool window, conv channel count, kernel or
    dense width below 1 is refused."""
    sizes = [int(g) for g in m.groups()]
    if min(sizes) < 1:
        raise TopologyError(f"layer token {tok!r} has a size below 1")
    return sizes


def parse_topology(input_shape: str, layer_tokens: list[str], n_out: int) -> Topology:
    """Build a Topology from notation tokens, propagating shapes."""
    shape = in_shape = parse_shape(input_shape)
    specs: list[LayerSpec] = []
    for tok in layer_tokens:
        tok = str(tok).strip()
        if m := _POOL_RE.match(tok):
            (k,) = _sizes(tok, m)
            if len(shape) != 3:
                raise TopologyError(f"pooling {tok!r} needs an HxWxC input, got {shape}")
            h, w, c = shape
            if h % k or w % k:
                raise TopologyError(f"pool window {k} does not divide {h}x{w}")
            specs.append(LayerSpec(KIND_POOL, shape, (h // k, w // k, c), kernel=k))
        elif m := _CONV_RE.match(tok):
            ch, k = _sizes(tok, m)
            if len(shape) != 3:
                raise TopologyError(f"conv {tok!r} needs an HxWxC input, got {shape}")
            if k % 2 == 0:
                raise TopologyError(f"conv kernel must be odd for same-size zero padding, got {k}")
            specs.append(LayerSpec(KIND_CONV, shape, (shape[0], shape[1], ch), kernel=k, channels=ch))
        elif m := _DENSE_RE.match(tok):
            specs.append(LayerSpec(KIND_DENSE, shape, tuple(_sizes(tok, m))))
        else:
            raise TopologyError(f"unknown layer token {tok!r}")
        shape = specs[-1].out_shape
    if n_out < 1:
        raise TopologyError("output layer needs at least one neuron")
    specs.append(LayerSpec(KIND_PLASTIC, shape, (int(n_out),)))
    return Topology(input_shape=in_shape, layers=tuple(specs))


# --- frozen feature layers ----------------------------------------------------


class _FrozenLayer:
    """Shared stepping pipeline; subclasses define the weight contraction.

    Accumulation is post-synaptic. Each step first contracts the step's
    input counts with the layer's integer weights, ``c = W ⊛ s`` scaled by
    ``2**scale_exp``, then filters per output neuron:
    ``q = a_q*q + c/tau_u``, ``p = a_p*p + q/tau_v``, ``v = p + r + bias``.
    The filters are linear, so this is the pre-synaptic ``v = W·p_in`` up to
    rounding, with ``q`` and ``p`` on ``out_shape``. ``step`` is
    ``_filter(_contract(s))``; a leading pool stepped on counts that the
    event index already summed over its windows runs ``_filter`` alone.

    The contraction is exact. Frozen inputs are integer counts (events into
    the first layer, 0/1 spikes after it) and the weights are int8, so every
    partial sum is an integer times ``2**scale_exp``. Counts sum in float64,
    far below ``2**53``. Spikes into a fan-in K sum to at most ``128*K`` in
    magnitude, so for K up to ``F32_EXACT_FAN_IN`` they sum in float32,
    below ``2**24``, and the power-of-two scale is applied in float64
    afterwards; a larger fan-in keeps float64. Either way every summation
    order gives the same bits: any gemm, gemv, blocking or FMA, any window
    layout, and each sample of a batch (see ``reset_state``) follows exactly
    the trajectory it has on its own.
    """

    kind: str
    weight_shape = staticmethod(lambda spec: ())  # the shape of the stored weights: none

    def __init__(self, spec: LayerSpec, params: NeuronParams):
        self.spec = spec
        self.params = params
        self.reset_state()

    def reset_state(self, batch: int | None = None):
        """Zero the state; ``batch`` prepends an axis of that many samples."""
        self._lead = () if batch is None else (batch,)
        shape = self._lead + self.spec.out_shape
        self.q = np.zeros(shape)
        self.p = np.zeros(shape)
        self.v = np.zeros(shape)
        self.r = np.zeros(shape)
        self.spiked = np.zeros(shape, dtype=bool)

    def _contract(self, s: np.ndarray) -> np.ndarray:
        """``W ⊛ s`` of ``[batch..., *in_shape]`` counts: a new float64
        ``[batch..., *out_shape]`` array."""
        raise NotImplementedError

    def step(self, in_spikes: np.ndarray) -> np.ndarray:
        return self._filter(self._contract(np.asarray(in_spikes).reshape(self._lead + self.spec.in_shape)))

    def _filter(self, c: np.ndarray) -> np.ndarray:
        """Step the neurons on the contraction ``c``, which it overwrites; returns the spikes."""
        prm = self.params
        q, p, r = self.q, self.p, self.r
        np.multiply(q, prm.alpha_q, out=q)
        c /= prm.tau_u
        q += c
        np.multiply(p, prm.alpha_p, out=p)
        p += q / prm.tau_v
        np.multiply(r, prm.alpha_p, out=r)
        r -= self.spiked * prm.v_th
        v = p + r
        v += prm.bias
        self.v = v
        self.spiked = v >= prm.v_th
        return self.spiked


# The largest fan-in K whose 0/1-by-int8 sums float32 holds exactly: 128*K <= 2**24.
F32_EXACT_FAN_IN = 2**24 // 128


class _WeightedLayer(_FrozenLayer):
    """A frozen layer with stored int8 weights and a power-of-two scale."""

    def __init__(self, spec: LayerSpec, params: NeuronParams, weights: np.ndarray, scale_exp: int):
        super().__init__(spec, params)
        self.set_weights(weights, scale_exp)

    scale_exp = property(lambda self: self._scale_exp)  # read-only, as the store's: set_weights checks it

    def set_weights(self, weights: np.ndarray, scale_exp: int):
        """Replace the weights (checked by ``int8_weights``) and scale, and
        rebuild the contraction matrices ``[n_in, n_out]`` derived from them:
        scaled float64, and unscaled float32 within the exact fan-in."""
        self.weights = int8_weights(weights, self.weight_shape(self.spec), scale_exp, TopologyError)
        self._scale_exp = int(scale_exp)
        w = self.weights.reshape(self.weights.shape[0], -1).T
        self._w = w * 2.0**self.scale_exp
        self._w32 = w.astype(np.float32) if w.shape[0] <= F32_EXACT_FAN_IN else None

    def _cols(self, s: np.ndarray, dtype) -> np.ndarray:
        """The inputs as a ``[..., n_in]`` matrix of ``dtype``; each row holds
        what one output position of one sample reads."""
        raise NotImplementedError

    def _contract(self, s):
        # 0/1 spikes within the exact fan-in contract in float32, all else in float64
        if s.dtype == bool and self._w32 is not None:
            c = np.multiply(self._cols(s, np.float32) @ self._w32, 2.0**self.scale_exp, dtype=np.float64)
        else:
            c = self._cols(s, np.float64) @ self._w
        return c.reshape(self._lead + self.spec.out_shape)


class DenseLayer(_WeightedLayer):
    kind = KIND_DENSE
    weight_shape = staticmethod(ReadoutLayer.weight_shape)  # the readout is fully connected too

    def _cols(self, s, dtype):
        return s.reshape(self._lead + (-1,)).astype(dtype, copy=False)


class ConvLayer(_WeightedLayer):
    """Same-size zero-padded convolution; weights ``[C_out, k, k, C_in]``."""

    kind = KIND_CONV

    @staticmethod
    def weight_shape(spec):
        return (spec.channels, spec.kernel, spec.kernel, spec.in_shape[2])

    def _cols(self, s, dtype):
        # im2col over the whole batch, for one gemm: [B*H*W, k*k*C_in] @ [k*k*C_in, C_out]
        k = self.spec.kernel
        pad = k // 2
        h, w, c = self.spec.in_shape
        sp = np.zeros(self._lead + (h + 2 * pad, w + 2 * pad, c), dtype=dtype)
        sp[..., pad : pad + h, pad : pad + w, :] = s
        win = np.lib.stride_tricks.sliding_window_view(sp, (k, k), axis=(-3, -2))
        return np.moveaxis(win, -3, -1).reshape(-1, self._w.shape[0])  # [kh, kw, C_in] order


class PoolLayer(_FrozenLayer):
    """Sum pooling into spiking neurons: fixed weight 1 over a kxk window."""

    kind = KIND_POOL

    def pool_index(self, neuron: np.ndarray) -> np.ndarray:
        """The flat output neuron ``(y//k, x//k, c)`` of each flat input neuron ``(y, x, c)``."""
        _, w, c = self.spec.in_shape
        k = self.spec.kernel
        y, x = np.divmod(neuron // c, w)
        return ((y // k) * (w // k) + x // k) * c + neuron % c

    def step(self, in_spikes):
        s = np.asarray(in_spikes)
        if s.size == self.q.size:  # window sums, as a bincount by pool_index gives: filter a copy
            return self._filter(s.reshape(self.q.shape).astype(np.float64))
        return super().step(s)

    def _contract(self, s):
        # k-1 slab additions along rows, then along columns
        k = self.spec.kernel
        h, w, c = self.spec.in_shape
        rows = s.reshape(self._lead + (h // k, k, w, c))
        acc = rows[..., 0, :, :].astype(np.float64)  # spikes arrive as bool, and bool + bool is or
        for i in range(1, k):
            acc += rows[..., i, :, :]
        cols = acc.reshape(self._lead + (h // k, w // k, k, c))
        out = cols[..., 0, :].copy()
        for i in range(1, k):
            out += cols[..., i, :]
        return out


# --- network ------------------------------------------------------------------


PLASTIC_INIT_MAX = 16  # "random" plastic init draws integers in [-16, 16]
FROZEN_SCALE_EXP = -6  # random frozen weights are integer * 2**-6; a weight file carries its own scales
DIM_MAX = 2**32 - 1  # the weight file stores every dimension as a u32
_ARRAY_MAX = np.iinfo(np.intp).max // 8  # the most 8-byte numbers one numpy array holds
_LAYER_CLASSES = {KIND_POOL: PoolLayer, KIND_DENSE: DenseLayer, KIND_CONV: ConvLayer, KIND_PLASTIC: ReadoutLayer}


@dataclass(frozen=True)
class BuildConfig:
    """Weight initialization and scaling knobs for build_network."""

    seed: int = 0
    frozen_init_lo: int = -40
    frozen_init_hi: int = 80
    plastic_scale_exp: int = -6
    plastic_init: str = "zero"  # or "random"

    def __post_init__(self):
        if not (-128 <= self.frozen_init_lo <= self.frozen_init_hi <= 127):
            raise ValueError("frozen_init_lo and frozen_init_hi must satisfy -128 <= lo <= hi <= 127")
        if not -128 <= self.plastic_scale_exp <= 127:  # the weight file stores it as an i8
            raise ValueError(f"plastic_scale_exp must satisfy -128 <= it <= 127, got {self.plastic_scale_exp}")
        if self.plastic_init not in ("zero", "random"):
            raise ValueError(f"plastic_init must be 'zero' or 'random', got {self.plastic_init!r}")


class Network:
    """A stack of frozen feature layers feeding one plastic readout layer.

    One global timestep steps every layer once, in order, each consuming the
    spikes the previous layer produced in the same global step. A single
    stepping context owns the instance; independent instances are fully
    isolated. ``reset_state(batch)`` steps that many samples side by side
    along a leading axis of every input, state and output.

    Runs step it only through ``fewshot.frozen_pass`` and the readout's own
    passes. ``fewshot.prepare_episode`` calls ``calibrate``, which perfbench
    wraps, and ``fewshot.run_episode`` calls ``plastic_weights``. ``step``
    and the ``layer_spikes`` it records stay for the tests and for perfbench.
    """

    def __init__(self, topology: Topology, layers: list, readout: ReadoutLayer, provenance: str = ""):
        self.layers = layers
        self.readout = readout
        self.provenance = provenance
        self.n_in = math.prod(topology.input_shape)
        self.n_out = readout.n_out
        self.layer_spikes: list[np.ndarray] = []
        self._lead: tuple[int, ...] = ()

    def reset_state(self, batch: int | None = None):
        for layer in self.layers:
            layer.reset_state(batch)
        self.readout.reset_state(batch)
        self.layer_spikes = []
        self._lead = () if batch is None else (batch,)

    def step(self, in_spikes: np.ndarray) -> np.ndarray:
        """Advance the whole network one plasticity-off timestep with no
        label drive; returns proximal spikes, and records each layer's
        spikes, the readout's last, in ``layer_spikes``."""
        x = np.asarray(in_spikes, dtype=np.float64)
        self.layer_spikes = []
        for layer in self.layers:
            x = layer.step(x)
            self.layer_spikes.append(x)
        out = self.readout.step(x.reshape(self._lead + (-1,)))
        self.layer_spikes.append(out)
        return out

    def weighted_layers(self) -> list:
        """Layers carrying stored weights, in network order (readout last)."""
        return [l for l in self.layers if isinstance(l, _WeightedLayer)] + [self.readout]

    def calibrate(self, window: int):
        # looked up on the module at call time, where a tracer may wrap it
        return readout_mod.calibrate_bias(self.readout.params, window)

    def plastic_weights(self) -> np.ndarray:
        return self.readout.store.weights.copy()


def build_network(
    topology: Topology,
    neuron: NeuronParams,
    readout_params: ReadoutParams,
    cfg: BuildConfig | None = None,
) -> Network:
    """Allocate a network: frozen weights seeded-random, plastic store zeroed.

    Every layer size and weight dimension must fit the weight file's u32,
    and every layer and weight array numpy's largest array, checked before
    anything is allocated. Seed usage is fixed: one child stream per frozen
    layer (in order), then one for the plastic store's rounding stream, then
    one for random plastic init when configured.
    """
    cfg = cfg or BuildConfig()
    classes = [_LAYER_CLASSES[spec.kind] for spec in topology.layers]
    shapes = [cls.weight_shape(spec) for spec, cls in zip(topology.layers, classes)]
    for spec, shape in zip(topology.layers, shapes):
        if max(spec.out_shape + shape) > DIM_MAX:
            raise TopologyError(f"{spec.kind} layer {spec.out_shape}, weights {shape}: a size past the file's u32")
        if max(math.prod(spec.out_shape), math.prod(shape)) > _ARRAY_MAX:
            raise TopologyError(f"{spec.kind} layer {spec.out_shape}, weights {shape}: past numpy's largest array")
    children = np.random.SeedSequence(cfg.seed).spawn(len(topology.layers) + 2)
    layers = []
    for i, (spec, cls) in enumerate(zip(topology.layers[:-1], classes)):
        if issubclass(cls, _WeightedLayer):
            rng = np.random.default_rng(children[i])
            w = rng.integers(cfg.frozen_init_lo, cfg.frozen_init_hi + 1, size=shapes[i])
            layers.append(cls(spec, neuron, w, FROZEN_SCALE_EXP))
        else:
            layers.append(cls(spec, neuron))
    n_out, fan_in = shapes[-1]
    store_seed = int(np.random.default_rng(children[-2]).integers(0, 2**31 - 1))
    init = None
    if cfg.plastic_init == "random":
        rng = np.random.default_rng(children[-1])
        init = rng.integers(-PLASTIC_INIT_MAX, PLASTIC_INIT_MAX + 1, size=(n_out, fan_in))
    store = QuantizedWeightStore((n_out, fan_in), cfg.plastic_scale_exp, store_seed, init=init)
    readout = ReadoutLayer(fan_in, n_out, store, readout_params)
    return Network(topology, layers, readout, provenance=f"random-init seed={cfg.seed}")
