"""Two-compartment readout neurons: spike-coded error plus spike-count output.

Each output-class neuron has a distal (error) compartment and a proximal
(output) compartment.

The distal compartment receives the plastic synaptic drive and, during
training, a PSP-filtered label spike train with weight -w_tgt. A constant
bias current b_err keeps it firing at a steady baseline rate, so deviations
of its post-synaptic trace from the calibrated baseline average encode a
signed error: above baseline means the network drive exceeds the label
drive, below baseline the opposite.

The proximal compartment integrates the current copied from the distal one
(its synaptic drive term, pre-reset) and receives the same label train with
weight +w_tgt through the same integration path, so label spikes cancel
exactly and never contaminate the spike counts used for classification. A
constant offset on the proximal potential cancels the steady-state
contribution of b_err to the integrated current; without it every neuron
would saturate at one spike per step and spike counts would carry no signal.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .dynamics import NeuronParams
from .plasticity import PlasticityEngine, QuantizedWeightStore
from .ruledsl import SumOfProductsRule
from .traces import TraceConfig, advance_trace, psp_matched_trace_configs, update_trace


class CalibrationError(RuntimeError):
    """The error compartment never reached a usable baseline."""


@dataclass(frozen=True)
class ReadoutParams:
    """Wiring and trace parameters of the readout layer.

    ``b_err`` is normally left unset and solved numerically so the free
    compartment fires once per ``baseline_period`` steps. ``b_out`` is the
    proximal offset; unset means the auto value -b_err/(1 - alpha_p).
    """

    neuron: NeuronParams = field(default_factory=NeuronParams)
    w_tgt: float = 2.0
    target_period: int = 4
    baseline_period: int = 20
    b_err: float | None = None
    b_out: float | None = None
    y1: TraceConfig | None = None

    def __post_init__(self):
        if self.w_tgt <= 0.0:
            raise ValueError("w_tgt must be positive")
        if self.baseline_period < 2:
            raise ValueError("baseline_period must be >= 2 steps")

    def y1_config(self) -> TraceConfig:
        return self.y1 if self.y1 is not None else TraceConfig(tau=self.neuron.tau_v, increment=1.0)

    def y2_config(self) -> TraceConfig:
        return TraceConfig(tau=self.neuron.tau_u, increment=1.0)

    def pre_trace_configs(self) -> tuple[TraceConfig, TraceConfig]:
        return psp_matched_trace_configs(self.neuron.tau_u, self.neuron.tau_v)


# --- calibration of the free-running distal compartment -----------------------


@dataclass(frozen=True)
class CalibrationReport:
    """Baseline statistics of a freely firing error compartment."""

    b: float          # time-average of the two-stage post trace P_err
    b_y1: float       # time-average of the single-filter trace y1
    b_err: float      # bias current used
    period: float     # mean inter-spike interval at baseline
    window: int       # steps simulated
    n_spikes: int


def _free_run_spikes(params: ReadoutParams, b_err: float, steps: int) -> list[int]:
    """Spike steps of the bare distal compartment (no input, no targets).

    With zero drive the only dynamics are v = b_err + r and the reset trace,
    so the full trace machinery is skipped.
    """
    n = params.neuron
    alpha_r, v_th = n.alpha_r, n.v_th
    r, spiked = 0.0, False
    spikes = []
    for t in range(steps):
        r = alpha_r * r - (v_th if spiked else 0.0)
        spiked = b_err + r >= v_th
        if spiked:
            spikes.append(t)
    return spikes


def calibrate_bias(params: ReadoutParams, b_err: float, window: int) -> CalibrationReport:
    """Measure the baseline trace averages of a free-running error compartment.

    Runs ``window`` steps with zero input and zero targets, filters the
    spike train into the two-stage post trace P_err and the rule trace y1,
    then averages both over an integer number of inter-spike periods in the
    steady portion of the run (initial transient discarded). Raises
    CalibrationError when the compartment never fires or fires too rarely
    for ten full periods to fit in the window. The scalar loop gives bit for
    bit what stepping a silent ``ReadoutLayer`` gives, far faster.
    """
    spikes = _free_run_spikes(params, b_err, window)
    if not spikes:
        raise CalibrationError("calibration failure: error compartment never fired (b_err too small)")
    if len(spikes) < 11:
        raise CalibrationError(
            f"calibration failure: only {len(spikes)} baseline spikes in {window} steps; "
            "need >= 10 full periods (enlarge window or raise b_err)"
        )
    n = params.neuron
    y1_cfg = params.y1_config()
    a_q, a_p, a_y, inc_y = n.alpha_q, n.alpha_p, y1_cfg.alpha, y1_cfg.increment
    train = np.zeros(window)
    train[spikes] = 1.0
    p_err_hist = np.empty(window)
    y1_hist = np.empty(window)
    q_err = p_err = y1 = 0.0
    for t, spike in enumerate(train.tolist()):
        q_err = a_q * q_err + spike
        p_err = a_p * p_err + q_err
        y1 = a_y * y1 + spike * inc_y
        p_err_hist[t] = p_err
        y1_hist[t] = y1
    warmup = max(2, len(spikes) // 4)
    t_a, t_b = spikes[warmup], spikes[-1]
    period = (t_b - t_a) / (len(spikes) - 1 - warmup)
    return CalibrationReport(
        b=float(p_err_hist[t_a:t_b].mean()),
        b_y1=float(y1_hist[t_a:t_b].mean()),
        b_err=b_err,
        period=float(period),
        window=window,
        n_spikes=len(spikes),
    )


def _free_run_period(params: ReadoutParams, b_err: float, steps: int) -> float:
    """Mean inter-spike interval of the bare compartment (no input/targets)."""
    spikes = _free_run_spikes(params, b_err, steps)
    if len(spikes) < 6:
        return float("inf")
    tail = spikes[len(spikes) // 2 :]
    return (tail[-1] - tail[0]) / (len(tail) - 1)


@functools.cache
def solve_baseline_bias(params: ReadoutParams) -> float:
    """Find b_err so the free error compartment fires once per baseline_period.

    Bisects on b_err; the baseline period is monotonically non-increasing in
    the bias. Deterministic, so it is solved once per distinct ``params`` in
    a process and cached: every network built from one config shares it.
    """
    n = params.neuron
    steps = max(400, params.baseline_period * 60)
    lo, hi = n.v_th * 1.0005, n.v_th * 4.0
    widen = 0
    while _free_run_period(params, hi, steps) > params.baseline_period:
        hi *= 4.0
        widen += 1
        if widen > 10:
            raise CalibrationError("could not bracket a baseline bias; reset decay too slow for this period")
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _free_run_period(params, mid, steps) > params.baseline_period:
            lo = mid
        else:
            hi = mid
    return float(hi)


# --- target routing ----------------------------------------------------------


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


# --- vectorized readout layer -------------------------------------------------


class ReadoutLayer:
    """Plastic output layer of two-compartment neurons (vectorized).

    Holds the quantized weight store, the shared pre-synaptic PSC/PSP
    filters, per-neuron distal and proximal state, the plasticity traces and
    optionally a plasticity engine.

    ``step`` is the plasticity-off timestep, with an optional batch axis;
    ``train`` presents one sample with plasticity on. Both run the same
    pre-synaptic filter and distal compartment code.
    """

    kind = "plastic-output"

    def __init__(
        self,
        fan_in: int,
        n_out: int,
        store: QuantizedWeightStore,
        params: ReadoutParams,
        b_err: float | None = None,
    ):
        if store.shape != (n_out, fan_in):
            raise ValueError(f"store shape {store.shape} != ({n_out}, {fan_in})")
        self.fan_in = fan_in
        self.n_out = n_out
        self.store = store
        self.params = params
        self.b_err = b_err if b_err is not None else (
            params.b_err if params.b_err is not None else solve_baseline_bias(params)
        )
        n = params.neuron
        self.b_out = params.b_out if params.b_out is not None else -self.b_err / (1.0 - n.alpha_p)
        self.x1_cfg, self.x2_cfg = params.pre_trace_configs()
        self.y1_cfg = params.y1_config()
        self.y2_cfg = params.y2_config()
        self._a_q, self._a_p, self._a_r = n.alpha_q, n.alpha_p, n.alpha_r
        self.engine: PlasticityEngine | None = None
        self.reset_state()

    def attach_engine(self, rule: SumOfProductsRule, lr_exp: int, learn_period: int = 1):
        self.engine = PlasticityEngine(self.store, rule, lr_exp, learn_period)

    def reset_state(self, batch: int | None = None):
        """Zero the state; ``batch`` prepends an axis of that many samples,
        which only plasticity-off steps accept."""
        lead = () if batch is None else (batch,)
        pre, post = lead + (self.fan_in,), lead + (self.n_out,)
        self.q_pre = np.zeros(pre)
        self.p_pre = np.zeros(pre)
        self.q_tgt = np.zeros(post)
        self.p_tgt = np.zeros(post)
        self.v_err = np.zeros(post)
        self.r_err = np.zeros(post)
        self.spiked_err = np.zeros(post, dtype=bool)
        self.q_err = np.zeros(post)
        self.p_err = np.zeros(post)
        self.x0 = np.zeros(pre)
        self.x1 = np.zeros(pre)
        self.x2 = np.zeros(pre)
        self.y1 = np.zeros(post)
        self.y2 = np.zeros(post)
        self.p_out = np.zeros(post)
        self.v_out = np.zeros(post)
        self.r_out = np.zeros(post)
        self.spiked_out = np.zeros(post, dtype=bool)
        self.spike_count = np.zeros(post, dtype=np.int64)
        if self.engine is not None:
            self.engine.reset_counter()

    def _psp(self, q, p, drive):
        """PSC then PSP filter: q' = a_q*q + drive, p' = a_p*p + q'/tau_v,
        where drive is the input spikes over tau_u. Returns (q', p')."""
        q = self._a_q * q + drive
        return q, self._a_p * p + q / self.params.neuron.tau_v

    def _distal(self, label_drive):
        """Advance the distal compartment by one step; ``label_drive`` is
        w_tgt * p_tgt. Returns its potential without the reset term."""
        v_th = self.params.neuron.v_th
        # one gemv per sample, bit-identical to effective() @ p_pre
        drive = np.matmul(self.store.effective(), self.p_pre[..., None])[..., 0]
        self.r_err = self._a_r * self.r_err - self.spiked_err * v_th
        base = drive - label_drive + self.b_err
        self.v_err = base + self.r_err
        self.spiked_err = self.v_err >= v_th
        return base

    def step(self, in_spikes: np.ndarray, target_spikes: np.ndarray) -> np.ndarray:
        """One plasticity-off timestep; returns the proximal (output) spike vector.

        Inputs, targets and outputs carry the batch axis of the state, if
        any. Besides the distal compartment it steps the proximal one, whose
        spikes are counted for classification, and every trace.
        """
        s = np.asarray(in_spikes, dtype=np.float64)
        tgt = np.asarray(target_spikes, dtype=np.float64)
        if s.shape != self.q_pre.shape or tgt.shape != self.q_tgt.shape:
            raise ValueError("readout input/target shape mismatch")
        prm = self.params
        n = prm.neuron

        # pre-synaptic filters shared by all neurons; label-spike filter per neuron
        self.q_pre, self.p_pre = self._psp(self.q_pre, self.p_pre, s / n.tau_u)
        self.q_tgt, self.p_tgt = self._psp(self.q_tgt, self.p_tgt, tgt / n.tau_u)

        u_err = self._distal(prm.w_tgt * self.p_tgt)  # the copied current: no reset term
        err = self.spiked_err.astype(np.float64)

        # post traces (two-stage diagnostic pair plus the rule traces)
        self.q_err = self._a_q * self.q_err + err
        self.p_err = self._a_p * self.p_err + self.q_err
        self.y1 = update_trace(self.y1, err, self.y1_cfg)
        self.y2 = update_trace(self.y2, err, self.y2_cfg)

        # pre traces for the rule
        self.x0 = s
        self.x1 = update_trace(self.x1, s, self.x1_cfg)
        self.x2 = update_trace(self.x2, s, self.x2_cfg)

        # proximal compartment: integrates the copied current; the label
        # drive re-enters with opposite sign through the same filter, so
        # label spikes cancel exactly
        self.p_out = self._a_p * self.p_out + u_err + prm.w_tgt * self.p_tgt
        self.r_out = self._a_r * self.r_out - self.spiked_out * n.v_th
        self.v_out = self.p_out + self.r_out + self.b_out
        self.spiked_out = self.v_out >= n.v_th
        self.spike_count += self.spiked_out
        return self.spiked_out

    def _label_drive(self, label: int, period: int, n_t: int) -> np.ndarray:
        """w_tgt * p_tgt at every step of a training sample, ``[n_t, n_out]``:
        a label spike every ``period`` steps from t = 0 (none for period 0)
        through the PSC/PSP filters of the label's neuron."""
        routing = wire_targets(self.n_out, label, "train", period)  # checks the label
        tau_u, w_tgt = self.params.neuron.tau_u, self.params.w_tgt
        drive = np.zeros((n_t, self.n_out))
        q = p = 0.0
        for t in range(n_t):
            q, p = self._psp(q, p, float(routing.spikes_at(t)[label]) / tau_u)
            drive[t, label] = w_tgt * p
        return drive

    def train(self, stream: np.ndarray, label: int, target_period: int) -> None:
        """Present one training sample with plasticity on.

        ``stream`` is the sample's readout input, ``[T, fan_in]``. The
        ``label``'s neuron receives a label spike every ``target_period``
        steps from t = 0 (none for 0). The state is reset first; the weights
        carry over from the previous sample.

        Decays, increments, the float input and the label drive are computed
        once per sample. Each step then computes only what learning reads:
        the pre-synaptic filters, the distal compartment, the traces the rule
        references, and the engine's tick. The proximal compartment and the
        other traces are not stepped, so ``spike_count`` stays zero. The
        weights and the distal trajectory are bit for bit those of ``step``
        with the engine ticked after every step.
        """
        engine = self.engine
        if engine is None:
            raise RuntimeError("train() needs a learning rule: attach_engine() first")
        s_all = np.asarray(stream, dtype=np.float64)
        if s_all.ndim != 2 or s_all.shape[1] != self.fan_in:
            raise ValueError(f"readout stream shape {s_all.shape} != (T, {self.fan_in})")
        n_t = len(s_all)
        label_drive = self._label_drive(label, target_period, n_t)
        self.reset_state()

        used = engine.rule.variables
        s_in = s_all / self.params.neuron.tau_u
        # (name, decay, increment per step or per spike) of each referenced trace
        x_cfgs = (("x1", self.x1_cfg), ("x2", self.x2_cfg))
        x_traces = [(k, c.alpha, s_all * c.increment) for k, c in x_cfgs if k in used]
        y_traces = [(k, c.alpha, c.increment) for k, c in (("y1", self.y1_cfg), ("y2", self.y2_cfg)) if k in used]
        pre = {k: np.zeros(self.fan_in) for k, _, _ in x_traces}
        post = {k: np.zeros(self.n_out) for k, _, _ in y_traces}
        use_x0, use_y0 = "x0" in used, "y0" in used
        for t in range(n_t):
            self.q_pre, self.p_pre = self._psp(self.q_pre, self.p_pre, s_in[t])
            self._distal(label_drive[t])
            err = self.spiked_err.astype(np.float64)
            for k, alpha, inc in x_traces:
                pre[k] = advance_trace(pre[k], alpha, inc[t])
            for k, alpha, inc in y_traces:
                post[k] = advance_trace(post[k], alpha, err * inc)
            if use_x0:
                pre["x0"] = s_all[t]
            if use_y0:
                post["y0"] = err
            engine.tick(pre, post)
