"""8-bit plastic weights with stochastic rounding, and the rule engine.

Weights are stored as signed 8-bit integers with a shared power-of-two scale:
effective weight = integer * 2**scale_exp. A rule update produces a real
increment Delta; the candidate integer weight w + Delta * 2**lr_exp is
stochastically rounded (floor with probability 1 - frac, ceil otherwise) and
clamped to [-128, 127]. Every rounding consumes exactly one uniform draw from
the store's counter-based stream, assigned in row-major synapse order, so
trajectories are reproducible regardless of how evaluation is batched. A
candidate that is NaN or infinite is refused, never cast into the store.
"""

from __future__ import annotations

import math

import numpy as np

from .ruledsl import RuleError, SumOfProductsRule, evaluate_rule

WEIGHT_MIN = -128
WEIGHT_MAX = 127

_ZERO = np.zeros(1)


class NonFiniteUpdateError(ValueError):
    """A weight update that is NaN or infinite; the store refuses it."""


class QuantizedWeightStore:
    """Signed 8-bit weight matrix with a power-of-two scale and rounding stream.

    The store learns on a float64 copy of the integer weights and caches the
    effective weights, so that a learning step converts nothing. ``weights``
    is a read-only int8 array, rebuilt from the float copy when it is read
    after an update; to change the weights, assign a new array to it.
    """

    def __init__(self, shape: tuple[int, int], scale_exp: int, seed: int, init: np.ndarray | None = None):
        self.shape = tuple(shape)
        self.scale_exp = int(scale_exp)
        self.rng_seed = int(seed)
        if init is None:
            self.weights = np.zeros(self.shape, dtype=np.int8)
        else:
            init = np.asarray(init)
            if init.shape != self.shape:
                raise ValueError(f"init shape {init.shape} != store shape {self.shape}")
            if init.min() < WEIGHT_MIN or init.max() > WEIGHT_MAX:
                raise ValueError("init weights out of int8 range")
            self.weights = init.astype(np.int8)
        self._rng = np.random.Generator(np.random.Philox(self.rng_seed))

    @property
    def weights(self) -> np.ndarray:
        """The int8 weights (read-only; writing into them raises)."""
        if self._weights is None:
            self._weights = self._float.astype(np.int8)
            self._weights.flags.writeable = False
        return self._weights

    @weights.setter
    def weights(self, value: np.ndarray):
        w = np.array(value, dtype=np.int8)
        if w.shape != self.shape:
            raise ValueError(f"weights shape {w.shape} != store shape {self.shape}")
        w.flags.writeable = False
        self._weights = w
        self._float = w.astype(np.float64)
        self._eff_exp = None

    @property
    def scale(self) -> float:
        return 2.0**self.scale_exp

    def effective(self) -> np.ndarray:
        """Real-valued weights: integer * 2**scale_exp (read-only, cached)."""
        if self._eff_exp != self.scale_exp:
            self._eff = self._float * self.scale
            self._eff.flags.writeable = False
            self._eff_exp = self.scale_exp
        return self._eff

    def reseed(self, seed: int | None = None):
        """Rewind (or replace) the rounding stream; weights are untouched."""
        if seed is not None:
            self.rng_seed = int(seed)
        self._rng = np.random.Generator(np.random.Philox(self.rng_seed))

    def clone(self) -> "QuantizedWeightStore":
        """Deep copy, including the exact position of the rounding stream."""
        out = QuantizedWeightStore(self.shape, self.scale_exp, self.rng_seed, init=self.weights.copy())
        out._rng.bit_generator.state = self._rng.bit_generator.state
        return out

    def apply_update(self, i: int, j: int, raw_delta: float, lr_exp: int):
        """Stochastically round one synapse toward w + raw_delta * 2**lr_exp."""
        n, m = self.shape
        if not (0 <= i < n and 0 <= j < m):
            raise IndexError(f"synapse ({i},{j}) out of range for {self.shape}")
        candidate = float(self._float[i, j]) + raw_delta * 2.0**lr_exp
        if not math.isfinite(candidate):
            raise NonFiniteUpdateError(f"non-finite update {candidate!r} at synapse ({i},{j})")
        floor = np.floor(candidate)
        frac = candidate - floor
        rounded = floor + (self._rng.random() < frac)
        self._float[i, j] = np.clip(rounded, WEIGHT_MIN, WEIGHT_MAX)
        self._weights = None
        self._eff_exp = None

    def apply_update_matrix(self, raw_deltas: np.ndarray, lr_exp: int):
        """Vectorized update of every synapse; draws consumed row-major.

        Equivalent to calling ``apply_update`` for each (i, j) in row-major
        order on the same stream.
        """
        deltas = np.asarray(raw_deltas, dtype=np.float64)
        if deltas.shape != self.shape:
            raise ValueError(f"delta shape {deltas.shape} != store shape {self.shape}")
        candidate = self._float + deltas * 2.0**lr_exp
        floor = np.floor(candidate)
        frac = candidate - floor
        # frac lies in [0, 1) where the candidate is finite and is NaN where it is not
        if math.isnan(np.add.reduce(frac, axis=None)):
            bad = np.count_nonzero(~np.isfinite(candidate))
            raise NonFiniteUpdateError(f"{bad} of {candidate.size} weight updates are not finite")
        draws = self._rng.random(self.shape)
        rounded = floor + (draws < frac).astype(np.float64)  # a same-type add is the faster loop
        # clamped in place: integers in [-128, 127], never -0.0, so exactly
        # the new int8 weights as floats
        np.maximum(rounded, WEIGHT_MIN, out=rounded)
        np.minimum(rounded, WEIGHT_MAX, out=rounded)
        self._float = rounded
        self._weights = None
        self._eff_exp = None


def synapse_view(pre: dict[str, np.ndarray], post: dict[str, np.ndarray], w_eff: float, i: int, j: int) -> dict[str, float]:
    """Variable bindings for evaluating a rule at synapse (i, j)."""
    values = {"x0": 0.0, "x1": 0.0, "x2": 0.0, "y0": 0.0, "y1": 0.0, "y2": 0.0, "w": w_eff}
    for k, v in pre.items():
        values[k] = float(v[j])
    for k, v in post.items():
        values[k] = float(v[i])
    return values


def evaluate_rule_matrix(
    rule: SumOfProductsRule,
    pre: dict[str, np.ndarray],
    post: dict[str, np.ndarray],
    w_eff: np.ndarray,
) -> np.ndarray:
    """Evaluate the rule for every synapse at once.

    ``pre`` maps x-variable names to [fan_in] arrays, ``post`` maps
    y-variable names to [n_out] arrays; w_eff is the [n_out, fan_in]
    effective weight matrix. Missing variables read as zero.

    Each product multiplies its factors left to right, as ``evaluate_rule``
    does per synapse, but on the smallest shape broadcasting allows: the
    constant and pre-synaptic factors stay [fan_in] vectors, the first
    post-synaptic factor makes the outer product, and a ``w`` factor makes
    the term a matrix. The per-synapse operations and their order are those
    of the scalar rule, so the result is bit for bit the same.
    """
    total = np.zeros(w_eff.shape)
    for prod in rule.products:
        term = prod.constant
        for f in prod.factors:
            if f.name == "w":
                term = term * w_eff
            elif f.name[0] == "x":
                term = term * pre.get(f.name, _ZERO)
            else:
                term = term * post.get(f.name, _ZERO)[:, np.newaxis]
        total += term
    return total


def apply_rule_rowmajor(
    store: QuantizedWeightStore,
    rule: SumOfProductsRule,
    pre: dict[str, np.ndarray],
    post: dict[str, np.ndarray],
    lr_exp: int,
) -> None:
    """Reference scalar path: evaluate + update synapse by synapse, row-major.

    Consumes the rounding stream exactly like ``apply_update_matrix``.
    """
    n, m = store.shape
    w_eff = store.effective()
    for i in range(n):
        for j in range(m):
            delta = evaluate_rule(rule, synapse_view(pre, post, w_eff[i, j], i, j))
            store.apply_update(i, j, delta, lr_exp)


class PlasticityEngine:
    """Applies a rule to a weight store every ``learn_period`` timesteps.

    ``tick`` is called once per global timestep with the current trace
    values; on period boundaries it evaluates the rule for every synapse
    (row-major) and applies stochastically rounded updates. Off-boundary
    ticks leave the store untouched. A rule whose updates are not finite is
    a ``RuleError`` naming the rule.
    """

    def __init__(
        self,
        store: QuantizedWeightStore,
        rule: SumOfProductsRule,
        lr_exp: int,
        learn_period: int = 1,
    ):
        if learn_period < 1:
            raise ValueError("learn_period must be >= 1")
        self.store = store
        self.rule = rule
        self.lr_exp = int(lr_exp)
        self.learn_period = int(learn_period)
        self.step_count = 0

    def reset_counter(self):
        self.step_count = 0

    def tick(self, pre: dict[str, np.ndarray], post: dict[str, np.ndarray]) -> bool:
        """Advance one timestep; returns True when an update was applied."""
        self.step_count += 1
        if self.step_count % self.learn_period != 0:
            return False
        deltas = evaluate_rule_matrix(self.rule, pre, post, self.store.effective())
        try:
            self.store.apply_update_matrix(deltas, self.lr_exp)
        except NonFiniteUpdateError as e:
            raise RuleError(f"rule {self.rule.pretty()!r} gives non-finite weight updates: {e}") from None
        return True
