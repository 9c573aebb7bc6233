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
from .ruledsl import RuleError, SumOfProductsRule
from .traces import TraceConfig, psp_matched_trace_configs
from .traces import update_trace  # not called here: perfbench's tracer patches this name


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


# --- vectorized readout layer -------------------------------------------------


class ReadoutLayer:
    """Plastic output layer of two-compartment neurons (vectorized).

    Holds the quantized weight store, the shared pre-synaptic PSC/PSP
    filters, per-neuron distal and proximal state and optionally a
    plasticity engine.

    ``step`` is the plasticity-off timestep, with an optional batch axis.
    ``train`` presents samples one after another with plasticity on: it
    filters stretches of a sample's input ahead of the steps, then steps
    only what depends on the weights, and computes the traces the rule
    reads. Both run the same distal compartment code, and their filters the
    same operations.
    """

    kind = "plastic-output"

    def __init__(
        self,
        fan_in: int,
        n_out: int,
        store: QuantizedWeightStore,
        params: ReadoutParams,
    ):
        if store.shape != (n_out, fan_in):
            raise ValueError(f"store shape {store.shape} != ({n_out}, {fan_in})")
        self.fan_in = fan_in
        self.n_out = n_out
        self.store = store
        self.params = params
        self.b_err = params.b_err if params.b_err is not None else solve_baseline_bias(params)
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
        self.p_out = np.zeros(post)
        self.v_out = np.zeros(post)
        self.r_out = np.zeros(post)
        self.spiked_out = np.zeros(post, dtype=bool)
        self.spike_count = np.zeros(post, dtype=np.int64)

    def _psp(self, q, p, drive):
        """PSC then PSP filter: q' = a_q*q + drive, p' = a_p*p + q'/tau_v,
        where drive is the input spikes over tau_u. Returns (q', p')."""
        q = self._a_q * q + drive
        return q, self._a_p * p + q / self.params.neuron.tau_v

    def _distal(self, drive, label_drive, r, b_err, v_th, out=(None, None, None)):
        """One step of the distal compartment from the synaptic drive,
        effective() @ p_pre, the label drive, w_tgt * p_tgt, and the reset
        term ``r``, already past the previous step's spikes. Returns the
        potential without and with ``r`` and the spikes, into ``out``."""
        base = np.add(np.subtract(drive, label_drive, out[0]), b_err, out[0])
        v = np.add(base, r, out[1])
        return base, v, np.greater_equal(v, v_th, out[2])

    def step(self, in_spikes: np.ndarray, target_spikes: np.ndarray) -> np.ndarray:
        """One plasticity-off timestep; returns the proximal (output) spike vector.

        Inputs, targets and outputs carry the batch axis of the state, if
        any. Besides the distal compartment it steps the proximal one, whose
        spikes are counted for classification. The rule's traces are not
        stepped: only ``train`` reads them.
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

        # one gemv per sample, bit-identical to effective() @ p_pre
        drive = np.matmul(self.store.effective(), self.p_pre[..., None])[..., 0]
        self.r_err = self._a_r * self.r_err - self.spiked_err * n.v_th
        label_drive = prm.w_tgt * self.p_tgt
        u_err, self.v_err, self.spiked_err = self._distal(drive, label_drive, self.r_err, self.b_err, n.v_th)

        # proximal compartment: integrates the copied current; the label
        # drive re-enters with opposite sign through the same filter, so
        # label spikes cancel exactly
        self.p_out = self._a_p * self.p_out + u_err + label_drive
        self.r_out = self._a_r * self.r_out - self.spiked_out * n.v_th
        self.v_out = self.p_out + self.r_out + self.b_out
        self.spiked_out = self.v_out >= n.v_th
        self.spike_count += self.spiked_out
        return self.spiked_out

    def _label_drive(self, period: int, n_t: int) -> np.ndarray:
        """w_tgt * p_tgt of a labelled neuron at each of ``n_t`` steps: a
        label spike every ``period`` steps from t = 0 (none for period 0)
        through the PSC/PSP filters, as ``step`` filters target spikes."""
        n = self.params.neuron
        drive = np.empty(n_t)
        q = p = 0.0
        for t in range(n_t):
            q, p = self._psp(q, p, (1.0 if period > 0 and t % period == 0 else 0.0) / n.tau_u)
            drive[t] = self.params.w_tgt * p
        return drive

    def train(self, streams, labels, order, target_period: int) -> None:
        """Present training samples one after another with plasticity on.

        ``streams[b]`` is sample b's readout input, ``[T_b, fan_in]``, and
        ``labels[b]`` its output neuron, which receives a label spike every
        ``target_period`` steps from t = 0 (none for 0). The samples run in
        the ``order`` of their indices, typically one epoch. Each starts
        from zero state and the weights carry over; training's only outputs
        are the store's weights and its rounding stream, and the layer's
        state arrays are neither read nor written.

        What no weight reaches is done ahead of the steps, over whole
        stretches of a sample: the PSC filter and the x traces as one
        recursion over their stacked rows, the PSP filter as a second, the
        rule's leading factors at every learning step and the rounding
        uniforms; the label drive is filtered once per call. A step then
        runs only the weight-dependent work, in about 20 numpy calls for
        the shipped rule: the drive (one gemv), the distal compartment, one
        decay-and-jump of a stack that holds the y traces and the reset term
        r_err, and at learning steps the engine's tick; the proximal
        compartment is not stepped. The weights and the rounding stream are
        bit for bit those of ``step`` with the rule applied after every
        learning step to traces of the step's input and error spikes
        (``StepTraces`` in ``tests/oracle.py``). A rule whose updates are
        not finite raises ``RuleError`` at that step, leaving the weights
        and the stream as the steps before it left them; numpy's overflow
        and invalid-value warnings on the way there are silenced.
        """
        if self.engine is None:
            raise RuntimeError("train() needs a learning rule: attach_engine() first")
        for b in order:
            if np.ndim(streams[b]) != 2 or np.shape(streams[b])[1] != self.fan_in:
                raise ValueError(f"readout stream shape {np.shape(streams[b])} != (T, {self.fan_in})")
            if not 0 <= labels[b] < self.n_out:
                raise IndexError(f"label {labels[b]} out of range for {self.n_out} outputs")
        wave = self._label_drive(target_period, max((len(streams[b]) for b in order), default=0))
        # once per call, not per tick: the store's finiteness check raises instead
        with np.errstate(over="ignore", invalid="ignore"):
            for b in order:
                label_drive = np.zeros((len(streams[b]), self.n_out))
                label_drive[:, labels[b]] = wave[: len(streams[b])]
                self._present(streams[b], label_drive)

    def _present(self, stream: np.ndarray, label_drive: np.ndarray):
        """Train on one sample; ``label_drive`` is w_tgt * p_tgt at every step.

        The pre-work runs in blocks of whole learning periods whose arrays
        take about ``_BLOCK_BYTES``, so that a wide readout adds little
        memory and the block stays in cache; the filters carry their state
        from block to block. A step allocates nothing: its operations write
        through positional outputs into buffers made once per sample, and
        take constants as 0-d arrays, which numpy takes faster than floats.
        """
        engine, store, period, n = self.engine, self.store, self.engine.learn_period, self.params.neuron
        # (decay, jump) of each trace: x0 and y0 are the spikes themselves,
        # which decay 0 and jump s give exactly; "1" decays by 1, never jumps
        cfgs = {"1": (1.0, 0.0), "x0": (0.0, 1.0), "y0": (0.0, 1.0)}
        for name, c in zip(("x1", "x2", "y1", "y2"), (self.x1_cfg, self.x2_cfg, self.y1_cfg, self.y2_cfg)):
            cfgs[name] = c.alpha, c.increment
        # filter rows: the PSC, then the x values the rule reads
        decays = np.array([self._a_q] + [cfgs[k][0] for k in engine.x_names])[:, np.newaxis] * np.ones(self.fan_in)
        filt_state, psp_state = np.zeros((len(decays), self.fan_in)), np.zeros(self.fan_in)
        per_period = 8 * self.fan_in * (len(decays) * period + len(engine.rule.products) + self.n_out)
        block = period * max(1, _BLOCK_BYTES // per_period)
        # y rows step as traces of the error spikes; the last one, the reset
        # term, decays by alpha_r and jumps by -v_th (a*r + s*(-v_th) is
        # a*r - s*v_th exactly), ready for the next step
        rows = [cfgs[k] for k in engine.y_rows] + [(self._a_r, -n.v_th)]
        y_decays, y_incs = np.array(rows).T[:, :, np.newaxis] * np.ones(self.n_out)
        y = np.array([[float(k == "1")] * self.n_out for k in engine.y_rows] + [[0.0] * self.n_out])
        y_cols, r, jump, drive = y[:, :, np.newaxis], y[-1], np.empty_like(y), np.empty(self.n_out)
        out = np.zeros(self.n_out), np.zeros(self.n_out), np.zeros(self.n_out, dtype=bool)
        b_err, v_th, a_p = np.array(self.b_err), np.array(n.v_th), np.array(self._a_p)
        for t0 in range(0, len(stream), block):
            seg = stream[t0 : t0 + block]
            filt = np.empty((len(seg), len(decays), self.fan_in))
            np.divide(seg, n.tau_u, out=filt[:, 0])
            for k, name in enumerate(engine.x_names, 1):
                np.multiply(seg, cfgs[name][1], out=filt[:, k])
            filt_state = _recur(filt, decays, filt_state)
            psp = filt[:, 0]  # the PSC row becomes the PSP
            psp_state = _recur(np.divide(psp, n.tau_v, out=psp), a_p, psp_state)
            x = filt[period - 1 :: period, 1:]
            leads, draws, tick, eff = engine.leads(x), store.uniforms(len(x)), 0, store.effective()
            try:
                for t, (p, label) in enumerate(zip(psp, label_drive[t0 : t0 + block])):
                    self._distal(eff.dot(p, drive), label, r, b_err, v_th, out)  # a gemv, as in step
                    np.add(np.multiply(y, y_decays, y), np.multiply(out[2], y_incs, jump), y)
                    if t % period == period - 1:
                        engine.tick(leads[tick], x[tick], y_cols, draws[tick])
                        tick, eff = tick + 1, store.effective()
            except RuleError:
                store.unread(tick)
                raise


# bytes of pre-work arrays per block of a sample's training steps
_BLOCK_BYTES = 1 << 20


def _recur(a: np.ndarray, decay, state: np.ndarray) -> np.ndarray:
    """In place along axis 0: a[t] = decay * a[t - 1] + a[t], where a[-1]
    is ``state``. Returns a copy of the last row, the next state."""
    buf, rows, add, mul = np.empty(a.shape[1:]), [state] + list(a), np.add, np.multiply
    for prev, cur in zip(rows, rows[1:]):
        add(mul(decay, prev, buf), cur, cur)  # positional out: keywords cost more than the add
    return a[-1].copy()
