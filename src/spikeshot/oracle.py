"""High-precision reference implementation used to validate the simulator.

``OracleDenseLayer`` and ``OracleReadout`` re-implement the update
recursions with scalar Python loops and real-valued weights (no rounding, no
clamping, no shared arithmetic code with the vectorized simulator), so
transcription bugs in either side show up as trajectory divergence. The
rule references below them are exact instead: the rule's traces beside the
plasticity-off step, label timing, the rule evaluated synapse by synapse or
as one plain matrix expression, and the store's rounding one synapse at a
time, each in the order that ``ReadoutLayer.train`` must reproduce bit for
bit. Test-only by design; speed is a non-goal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import NeuronParams
from .plasticity import WEIGHT_MAX, WEIGHT_MIN, NonFiniteUpdateError, QuantizedWeightStore
from .readout import CalibrationReport, ReadoutLayer, ReadoutParams
from .ruledsl import SumOfProductsRule, evaluate_rule
from .traces import TraceConfig, update_trace


# --- scalar dynamics ----------------------------------------------------------


class OracleDenseLayer:
    """Scalar-loop dense LIF layer with real-valued weights."""

    def __init__(self, weights, params: NeuronParams):
        self.w = [[float(x) for x in row] for row in weights]
        self.n_out = len(self.w)
        self.fan_in = len(self.w[0]) if self.w else 0
        self.prm = params
        self.reset_state()

    def reset_state(self):
        self.q = [0.0] * self.fan_in
        self.p = [0.0] * self.fan_in
        self.v = [0.0] * self.n_out
        self.r = [0.0] * self.n_out
        self.spiked = [False] * self.n_out

    def step(self, s):
        prm = self.prm
        aq, ap, ar = prm.alpha_q, prm.alpha_p, prm.alpha_r
        for j in range(self.fan_in):
            self.q[j] = aq * self.q[j] + float(s[j]) / prm.tau_u
            self.p[j] = ap * self.p[j] + self.q[j] / prm.tau_v
        for i in range(self.n_out):
            self.r[i] = ar * self.r[i] - (prm.v_th if self.spiked[i] else 0.0)
            acc = prm.bias + self.r[i]
            wi = self.w[i]
            for j in range(self.fan_in):
                acc += wi[j] * self.p[j]
            self.v[i] = acc
            self.spiked[i] = self.v[i] >= prm.v_th
        return self.spiked


def _trace_step(t: float, spike: float, cfg: TraceConfig) -> float:
    return math.exp(-1.0 / cfg.tau) * t + spike * cfg.increment


class OracleReadout:
    """Scalar two-compartment readout with real-valued plastic weights."""

    def __init__(self, fan_in: int, n_out: int, params: ReadoutParams, b_err: float,
                 w_scale: float = 1.0):
        self.fan_in = fan_in
        self.n_out = n_out
        self.prm = params
        self.b_err = b_err
        n = params.neuron
        self.b_out = params.b_out if params.b_out is not None else -b_err / (1.0 - n.alpha_p)
        self.x1_cfg, self.x2_cfg = params.pre_trace_configs()
        self.y1_cfg = params.y1_config()
        self.y2_cfg = params.y2_config()
        self.w_scale = w_scale  # granularity of one integer weight step
        self.rule: SumOfProductsRule | None = None
        self.lr_exp = 0
        self.learn_period = 1
        self.w = [[0.0] * fan_in for _ in range(n_out)]
        self.reset_state()

    def set_rule(self, rule: SumOfProductsRule, lr_exp: int, learn_period: int):
        self.rule = rule
        self.lr_exp = lr_exp
        self.learn_period = learn_period

    def reset_state(self):
        m, n = self.fan_in, self.n_out
        self.q_pre = [0.0] * m
        self.p_pre = [0.0] * m
        self.q_tgt = [0.0] * n
        self.p_tgt = [0.0] * n
        self.v_err = [0.0] * n
        self.r_err = [0.0] * n
        self.u_err = [0.0] * n
        self.spiked_err = [False] * n
        self.q_err = [0.0] * n
        self.p_err = [0.0] * n
        self.x0 = [0.0] * m
        self.x1 = [0.0] * m
        self.x2 = [0.0] * m
        self.y1 = [0.0] * n
        self.y2 = [0.0] * n
        self.p_out = [0.0] * n
        self.v_out = [0.0] * n
        self.r_out = [0.0] * n
        self.spiked_out = [False] * n
        self.spike_count = [0] * n
        self.step_count = 0

    def step(self, s, tgt, learn: bool = False):
        prm = self.prm
        n = prm.neuron
        aq, ap, ar = n.alpha_q, n.alpha_p, n.alpha_r
        for j in range(self.fan_in):
            self.q_pre[j] = aq * self.q_pre[j] + float(s[j]) / n.tau_u
            self.p_pre[j] = ap * self.p_pre[j] + self.q_pre[j] / n.tau_v
        for i in range(self.n_out):
            t = 1.0 if tgt[i] else 0.0
            self.q_tgt[i] = aq * self.q_tgt[i] + t / n.tau_u
            self.p_tgt[i] = ap * self.p_tgt[i] + self.q_tgt[i] / n.tau_v
        for i in range(self.n_out):
            drive = 0.0
            wi = self.w[i]
            for j in range(self.fan_in):
                drive += wi[j] * self.p_pre[j]
            self.r_err[i] = ar * self.r_err[i] - (n.v_th if self.spiked_err[i] else 0.0)
            base = drive - prm.w_tgt * self.p_tgt[i] + self.b_err
            self.u_err[i] = base
            self.v_err[i] = base + self.r_err[i]
            self.spiked_err[i] = self.v_err[i] >= n.v_th
            err = 1.0 if self.spiked_err[i] else 0.0
            self.q_err[i] = aq * self.q_err[i] + err
            self.p_err[i] = ap * self.p_err[i] + self.q_err[i]
            self.y1[i] = _trace_step(self.y1[i], err, self.y1_cfg)
            self.y2[i] = _trace_step(self.y2[i], err, self.y2_cfg)
        for j in range(self.fan_in):
            sj = float(s[j])
            self.x0[j] = sj
            self.x1[j] = _trace_step(self.x1[j], sj, self.x1_cfg)
            self.x2[j] = _trace_step(self.x2[j], sj, self.x2_cfg)
        for i in range(self.n_out):
            self.p_out[i] = ap * self.p_out[i] + self.u_err[i] + prm.w_tgt * self.p_tgt[i]
            self.r_out[i] = ar * self.r_out[i] - (n.v_th if self.spiked_out[i] else 0.0)
            self.v_out[i] = self.p_out[i] + self.r_out[i] + self.b_out
            self.spiked_out[i] = self.v_out[i] >= n.v_th
            if self.spiked_out[i]:
                self.spike_count[i] += 1
        if learn and self.rule is not None:
            self.step_count += 1
            if self.step_count % self.learn_period == 0:
                self._learn()
        return self.spiked_out

    def _learn(self):
        lr = 2.0**self.lr_exp * self.w_scale
        for i in range(self.n_out):
            vals = {
                "y0": 1.0 if self.spiked_err[i] else 0.0,
                "y1": self.y1[i],
                "y2": self.y2[i],
            }
            for j in range(self.fan_in):
                vals["x0"] = self.x0[j]
                vals["x1"] = self.x1[j]
                vals["x2"] = self.x2[j]
                vals["w"] = self.w[i][j]
                self.w[i][j] += evaluate_rule(self.rule, vals) * lr


def oracle_calibrate(params: ReadoutParams, b_err: float, window: int) -> CalibrationReport:
    """Independent recomputation of the baseline trace averages."""
    comp = OracleReadout(0, 1, params, b_err)
    spikes, p_err_hist, y1_hist = [], [], []
    for t in range(window):
        comp.step([], [False])
        p_err_hist.append(comp.p_err[0])
        y1_hist.append(comp.y1[0])
        if comp.spiked_err[0]:
            spikes.append(t)
    if len(spikes) < 11:
        raise RuntimeError("oracle calibration: too few baseline spikes")
    warmup = max(2, len(spikes) // 4)
    t_a, t_b = spikes[warmup], spikes[-1]
    span = t_b - t_a
    return CalibrationReport(
        b=sum(p_err_hist[t_a:t_b]) / span,
        b_y1=sum(y1_hist[t_a:t_b]) / span,
        b_err=b_err,
        period=span / (len(spikes) - 1 - warmup),
        window=window,
        n_spikes=len(spikes),
    )


# --- exact references of the learning step ----------------------------------


class StepTraces:
    """The rule's traces beside a ``ReadoutLayer``'s plasticity-off steps.

    ``step`` steps the layer, then advances the traces with
    ``update_trace``: x0-x2 from the step's input, y0-y2 from the layer's
    error spikes. ``pre`` and ``post`` map the rule's variable names to
    them; ``ReadoutLayer.train`` must compute the same values bit for bit.
    """

    def __init__(self, layer: ReadoutLayer):
        self.layer = layer
        self.reset()

    def reset(self):
        """Zero the layer's state and the traces."""
        self.layer.reset_state()
        pre, post = np.zeros(self.layer.fan_in), np.zeros(self.layer.n_out)
        self.pre = {"x0": pre, "x1": pre, "x2": pre}
        self.post = {"y0": post, "y1": post, "y2": post}

    def step(self, in_spikes, target_spikes) -> np.ndarray:
        """One plasticity-off step of the layer and its traces; returns the
        layer's output spikes."""
        layer, pre, post = self.layer, self.pre, self.post
        out = layer.step(in_spikes, target_spikes)
        s, err = np.asarray(in_spikes, dtype=np.float64), layer.spiked_err.astype(np.float64)
        self.pre = {"x0": s, "x1": update_trace(pre["x1"], s, layer.x1_cfg),
                    "x2": update_trace(pre["x2"], s, layer.x2_cfg)}
        self.post = {"y0": err, "y1": update_trace(post["y1"], err, layer.y1_cfg),
                     "y2": update_trace(post["y2"], err, layer.y2_cfg)}
        return out


@dataclass(frozen=True)
class TargetRouting:
    """Which output neuron receives label spikes, and when."""

    n_out: int
    label: int | None
    period: int

    def spikes_at(self, t: int) -> np.ndarray:
        out = np.zeros(self.n_out, dtype=bool)
        if self.label is not None and self.period > 0 and t % self.period == 0:
            out[self.label] = True
        return out


def wire_targets(n_out: int, label: int | None, mode: str, period: int) -> TargetRouting:
    """Route periodic label spikes to one neuron (train) or nowhere (test)."""
    if mode not in ("train", "test"):
        raise ValueError(f"mode must be 'train' or 'test', got {mode!r}")
    if mode == "train" and label is not None:
        if not (0 <= label < n_out):
            raise IndexError(f"label {label} out of range for {n_out} outputs")
        return TargetRouting(n_out=n_out, label=label, period=period)
    return TargetRouting(n_out=n_out, label=None, period=0)


_ZERO = np.zeros(1)


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
    the term a matrix. The products are summed from zero in canonical
    order, so the result is bit for bit the scalar rule's.
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


def synapse_view(pre: dict[str, np.ndarray], post: dict[str, np.ndarray], w_eff: float, i: int, j: int) -> dict[str, float]:
    """Variable bindings for evaluating a rule at synapse (i, j)."""
    values = {"x0": 0.0, "x1": 0.0, "x2": 0.0, "y0": 0.0, "y1": 0.0, "y2": 0.0, "w": w_eff}
    for k, v in pre.items():
        values[k] = float(v[j])
    for k, v in post.items():
        values[k] = float(v[i])
    return values


def apply_update(store: QuantizedWeightStore, i: int, j: int, raw_delta: float, lr_exp: int):
    """Stochastically round one synapse toward w + raw_delta * 2**lr_exp,
    with the next draw of the store's stream."""
    n, m = store.shape
    if not (0 <= i < n and 0 <= j < m):
        raise IndexError(f"synapse ({i},{j}) out of range for {store.shape}")
    candidate = float(store.weights[i, j]) + raw_delta * 2.0**lr_exp
    if not math.isfinite(candidate):
        raise NonFiniteUpdateError(f"non-finite update {candidate!r} at synapse ({i},{j})")
    floor = np.floor(candidate)
    rounded = floor + (store.rng.random() < candidate - floor)
    weights = store.weights.copy()
    weights[i, j] = np.clip(rounded, WEIGHT_MIN, WEIGHT_MAX)
    store.weights = weights


def apply_rule_rowmajor(
    store: QuantizedWeightStore,
    rule: SumOfProductsRule,
    pre: dict[str, np.ndarray],
    post: dict[str, np.ndarray],
    lr_exp: int,
) -> None:
    """Evaluate and round synapse by synapse, row-major: one matrix
    update's draws, taken one at a time."""
    n, m = store.shape
    w_eff = store.effective()
    for i in range(n):
        for j in range(m):
            delta = evaluate_rule(rule, synapse_view(pre, post, w_eff[i, j], i, j))
            apply_update(store, i, j, delta, lr_exp)
