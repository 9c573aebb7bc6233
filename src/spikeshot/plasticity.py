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

import functools
import math

import numpy as np

from .ruledsl import RuleError, SumOfProductsRule

WEIGHT_MIN = -128
WEIGHT_MAX = 127
_LO, _HI = np.array(float(WEIGHT_MIN)), np.array(float(WEIGHT_MAX))
# module names for what a learning step calls: np.<name> costs about what a small operation does
_add, _mul, _sub, _floor, _ceil, _fmin, _fmax = np.add, np.multiply, np.subtract, np.floor, np.ceil, np.fmin, np.fmax


@functools.cache
def _pow2(exp: int) -> np.ndarray:
    """2**exp as a read-only 0-d array, an operand numpy takes faster than a float."""
    a = np.array(2.0**exp)
    a.flags.writeable = False
    return a


def int8_weights(weights, shape: tuple[int, ...], scale_exp: int, error=ValueError) -> np.ndarray:
    """A read-only int8 copy of ``weights``: the check of every assignment of
    stored weights, the store's and the frozen layers'. The shape must be
    ``shape`` (else ``error``); values and ``scale_exp`` must lie in [-128, 127]."""
    w = np.asarray(weights)
    if w.shape != tuple(shape):
        raise error(f"weights shape {w.shape} != {tuple(shape)}")
    if w.size and not (w.min() >= WEIGHT_MIN and w.max() <= WEIGHT_MAX):  # also refuses NaN
        raise ValueError(f"weights outside the int8 range [{WEIGHT_MIN}, {WEIGHT_MAX}]")
    if not WEIGHT_MIN <= scale_exp <= WEIGHT_MAX:
        raise ValueError(f"scale_exp {scale_exp} outside the weight file's i8 range [{WEIGHT_MIN}, {WEIGHT_MAX}]")
    w = w.astype(np.int8)
    w.flags.writeable = False
    return w


class NonFiniteUpdateError(ValueError):
    """A weight update that is NaN or infinite; the store refuses it."""


class QuantizedWeightStore:
    """Signed 8-bit weight matrix with a power-of-two scale and rounding stream.

    The store learns on a float64 copy of the integer weights and keeps the
    effective weights in one buffer, which every update refreshes in place,
    so that a learning step converts and allocates nothing. ``weights`` is a
    read-only int8 array, rebuilt from the float copy when it is read after
    an update. ``set_weights`` changes the weights and the scale, in new
    arrays, and is the one way to change the scale; assigning ``weights``
    keeps it.
    """

    def __init__(self, shape: tuple[int, int], scale_exp: int, seed: int, init: np.ndarray | None = None):
        self.shape = tuple(shape)
        self.rng_seed = int(seed)
        self.set_weights(np.zeros(self.shape, dtype=np.int8) if init is None else init, scale_exp)
        self.reseed()

    @property
    def weights(self) -> np.ndarray:
        """The int8 weights (read-only; writing into them raises)."""
        if self._weights is None:
            self._weights = self._float.astype(np.int8)
            self._weights.flags.writeable = False
        return self._weights

    @weights.setter
    def weights(self, value: np.ndarray):
        self.set_weights(value, self.scale_exp)

    scale_exp = property(lambda self: self._scale_exp)  # read-only: set_weights checks it

    def set_weights(self, weights: np.ndarray, scale_exp: int):
        """Replace the weights (stored as a read-only int8 copy) and the scale."""
        self._weights = int8_weights(weights, self.shape, scale_exp)
        self._scale_exp = int(scale_exp)
        self._float = self._weights.astype(np.float64)
        eff = np.multiply(self._float, _pow2(self._scale_exp))
        self._view = eff.view()
        self._view.flags.writeable = False
        # all an update reads, the rounding's two buffers first: one lookup costs about what a small operation does
        self._update = *np.empty((2,) + self.shape), self._float, eff, _pow2(self._scale_exp)

    def effective(self) -> np.ndarray:
        """Real-valued weights, integer * 2**scale_exp: a read-only view that follows
        the updates until ``set_weights``, after which it keeps the weights it showed."""
        return self._view

    def reseed(self):
        """Rewind the rounding stream; weights are untouched."""
        self.rng = np.random.Generator(np.random.Philox(self.rng_seed))

    def uniforms(self, out: np.ndarray) -> np.ndarray:
        """The rounding draws of the next n updates, filled into ``out``, ``[n, *shape]``.

        One call consumes the stream exactly as that many updates drawing
        one matrix each would. ``unread`` puts back the draws of updates
        that were never applied.
        """
        self._unread_from = self.rng.bit_generator.state
        return self.rng.random(out=out)

    def unread(self, used: int):
        """Leave the stream after the first ``used`` updates of the last
        ``uniforms`` call, as if the later ones had never been drawn."""
        self.rng.bit_generator.state = self._unread_from
        self.rng.random((used,) + self.shape)

    def apply_update_matrix(self, raw_deltas: np.ndarray, lr_exp: int, draws: np.ndarray):
        """Stochastically round every synapse toward w + raw_delta * 2**lr_exp.

        ``raw_deltas`` and ``draws`` have the store's shape; synapse (i, j)
        rounds up when ``draws[i, j]`` falls below the candidate's fractional
        part. A non-finite candidate refuses the whole update and leaves the store as it was.
        """
        # buffers and positional outputs: an allocation or a keyword costs about what a small operation does
        frac, floor, w, eff, scale = self._update
        _add(w, _mul(raw_deltas, _pow2(lr_exp), frac), frac)
        _sub(frac, _floor(frac, floor), frac)
        # frac lies in [0, 1] where the candidate is finite and is NaN where it is not
        if math.isnan(np.vdot(frac, frac)):  # numpy's cheapest sum
            raise NonFiniteUpdateError(f"{np.isnan(frac).sum()} of {frac.size} weight updates are not finite")
        # frac - draw > 0 exactly where draw < frac, so its ceiling is the carry, 1 or ±0
        _add(floor, _ceil(_sub(frac, draws, frac), frac), floor)
        # clamped: integers in [-128, 127], never -0.0, so exactly the new int8 weights as floats
        _fmin(_fmax(floor, _LO, floor), _HI, w)
        _mul(w, scale, eff)
        self._weights = None


class PlasticityEngine:
    """A rule applied to a weight store every ``learn_period`` steps of a sample.

    The rule is compiled for stacked evaluation. Every product keeps its
    index and multiplies its factors left to right, as the scalar reference
    ``evaluate_rule`` in ``tests/oracle.py`` does per synapse. Its constant
    times the x factors that lead it reach no weight: ``leads`` builds these
    for all of a sample's learning steps at once. In canonical order, where
    ``w`` factors come first, then x's, then y's, only y factors follow the
    lead of a product without ``w``. ``tick`` multiplies those in, one
    stacked multiply per factor position (a row of ones stands in where a
    product has fewer), computes every other product whole from its lead,
    sums the products in order with one reduction and rounds the sum into
    the store. Per synapse these are the scalar rule's operations in the
    scalar rule's order, so the updates are bit for bit the same. A rule
    whose updates are not finite is a ``RuleError`` naming the rule. ``bind``
    fixes, once per ``train`` call, all that a tick reads but its arguments,
    the store's ``apply_update_matrix`` as looked up then among it.
    """

    def __init__(
        self,
        store: QuantizedWeightStore,
        rule: SumOfProductsRule,
        lr_exp: int,
        learn_period: int = 1,
    ):
        self.store = store
        self.rule = rule
        self.lr_exp = int(lr_exp)
        self.learn_period = int(learn_period)
        # x values come in one row per x variable the rule reads; y values
        # in one row per product and y factor position ("1" where a product
        # has fewer y factors), then a row per y that only whole products read
        self.x_names = tuple(v for v in ("x0", "x1", "x2") if v in rule.variables)
        self._leads, self._whole, ys = [], [], []
        for k, prod in enumerate(rule.products):
            names = [f.name for f in prod.factors]
            n_x = next((i for i, v in enumerate(names) if v[0] != "x"), len(names))
            self._leads.append((k, prod.constant, [self.x_names.index(v) for v in names[:n_x]]))
            if all(v[0] == "y" for v in names[n_x:]):
                ys.append(names[n_x:])
            else:
                ys.append([])
                self._whole.append((k, names[n_x:]))
        self._depth = max(1, max(map(len, ys)))
        y_rows = [y[d] if d < len(y) else "1" for d in range(self._depth) for y in ys]
        y_rows += sorted({v for _, rest in self._whole for v in rest if v[0] == "y"} - set(y_rows))
        self.y_rows = tuple(y_rows)

    def leads(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Every product's constant times its leading x factors at n learning steps,
        from x values ``[n, len(x_names), fan_in]``, into ``out``, ``[n, K, fan_in]``."""
        for k, c, rows in self._leads:
            out[:, k] = c
            for r in rows:
                out[:, k] *= x[:, r]

    def bind(self, y: np.ndarray):
        """Bind the ticks that follow to ``y``, the values of ``y_rows`` (and
        maybe more rows after them) as columns, ``[rows, n_out, 1]``, which
        the caller updates in place, and to the store as it is now."""
        store, n = self.store, len(self._leads)
        terms, w_eff = np.empty((n,) + store.shape), store.effective()
        # a whole product starts from its constant when no x leads it; each
        # factor is the effective weights or a y row, or None and an x row
        whole = tuple((terms[k], k, None if self._leads[k][2] else np.array(self._leads[k][1]),
                       tuple((w_eff, None) if v == "w" else (None, self.x_names.index(v)) if v[0] == "x"
                             else (y[self.y_rows.index(v)], None) for v in rest)) for k, rest in self._whole)
        # np.add.reduce sums over axis 0 elementwise, left to right, unless each term is one synapse: then pairwise
        total = (functools.partial(functools.reduce, np.add, tuple(terms)) if store.shape == (1, 1)
                 else functools.partial(np.add.reduce, terms, 0, None, np.empty(store.shape)))
        ys = tuple(y[d * n : (d + 1) * n] for d in range(self._depth))
        self._bound = terms, ys[0], ys[1:], whole, total, store.apply_update_matrix, self.lr_exp

    def tick(self, lead: np.ndarray, x: np.ndarray, draws: np.ndarray):
        """One learning step on the y values ``bind`` bound: evaluate the rule
        and round it into the store. ``lead`` is this step's ``leads`` row as
        ``[K, 1, fan_in]``, ``x`` its x values, ``[len(x_names), fan_in]``, and
        ``draws`` its rounding uniforms."""
        # positional outputs: a keyword costs about what a small multiply does
        terms, first, later, whole, total, apply, lr_exp = self._bound
        _mul(lead, first, terms)
        for y in later:
            _mul(terms, y, terms)
        for term, k, acc, factors in whole:
            acc = lead[k] if acc is None else acc
            for fixed, r in factors:
                acc = _mul(acc, x[r] if fixed is None else fixed, term)
        try:
            apply(total(), lr_exp, draws)
        except NonFiniteUpdateError as e:
            raise RuleError(f"rule {self.rule.pretty()!r} gives non-finite weight updates: {e}") from None
