"""Two-compartment readout neurons: spike-coded error plus spike-count output.

Each output-class neuron has a distal (error) compartment and a proximal
(output) compartment.

The distal compartment receives the plastic synaptic drive and, during
training, minus a label drive (``ReadoutLayer._label_drive``). A constant
bias current b_err keeps it firing at a steady baseline rate, so deviations
of its post-synaptic trace from the calibrated baseline average encode a
signed error: above baseline means the network drive exceeds the label
drive, below baseline the opposite.

The proximal compartment integrates the current copied from the distal one
(its synaptic drive term, pre-reset); only plasticity-off steps, which carry
no label, step it. A constant offset on the proximal potential cancels the
steady-state contribution of b_err to the integrated current; without it
every neuron would saturate at one spike per step and spike counts would
carry no signal.
"""

from __future__ import annotations

import functools
import math
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

    The distal bias b_err is ``solve_baseline_bias(params)``: the free
    compartment fires once per ``baseline_period`` steps. The proximal
    offset is -b_err/(1 - alpha_p); the rule trace y1 decays at tau_v.
    """

    neuron: NeuronParams = field(default_factory=NeuronParams)
    w_tgt: float = 2.0
    baseline_period: int = 20

    def __post_init__(self):
        if self.w_tgt <= 0.0:
            raise ValueError("w_tgt must be positive")
        if self.baseline_period < 2:
            raise ValueError("baseline_period must be >= 2 steps")
        if self.neuron.alpha_p == 1.0:  # the proximal offset divides by 1 - alpha_p
            raise ValueError(f"tau_v={self.neuron.tau_v} is so long that its decay exp(-1/tau_v) rounds to 1")

    def y1_config(self) -> TraceConfig:
        return TraceConfig(tau=self.neuron.tau_v)

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
    """Spike steps of the bare distal compartment (no input, no label).

    With zero drive the only dynamics are v = b_err + r and the reset trace,
    so the full trace machinery is skipped.
    """
    n = params.neuron
    alpha_p, v_th = n.alpha_p, n.v_th
    r, spiked = 0.0, False
    spikes = []
    for t in range(steps):
        r = alpha_p * r - (v_th if spiked else 0.0)
        spiked = b_err + r >= v_th
        if spiked:
            spikes.append(t)
    return spikes


def calibrate_bias(params: ReadoutParams, window: int) -> CalibrationReport:
    """Measure the baseline trace averages of a free-running error compartment.

    Runs ``window`` steps at the bias ``solve_baseline_bias(params)`` with
    zero input and no label drive, filters the spike train into the
    two-stage post trace P_err and the rule trace y1, then averages both
    over an integer number of inter-spike periods in the steady portion of
    the run (initial transient discarded). Raises CalibrationError when too
    few spikes fit in the window for ten full periods. The scalar loop gives
    bit for bit what stepping a silent ``ReadoutLayer`` gives, far faster.
    """
    b_err = solve_baseline_bias(params)  # above v_th, so the compartment fires at t = 0
    spikes = _free_run_spikes(params, b_err, window)
    if len(spikes) < 11:
        raise CalibrationError(
            f"calibration failure: only {len(spikes)} baseline spikes in {window} steps; "
            "need >= 10 full periods (lengthen episode.calibration_window or shorten readout.baseline_period)"
        )
    n = params.neuron
    a_q, a_p, a_y = n.alpha_q, n.alpha_p, params.y1_config().alpha
    train = np.zeros(window)
    train[spikes] = 1.0
    p_err_hist = np.empty(window)
    y1_hist = np.empty(window)
    q_err = p_err = y1 = 0.0
    for t, spike in enumerate(train.tolist()):
        q_err = a_q * q_err + spike
        p_err = a_p * p_err + q_err
        y1 = a_y * y1 + spike
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
    """Mean inter-spike interval of the bare compartment (no input, no label)."""
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
            raise CalibrationError(
                "calibration failure: could not bracket a baseline bias; reset decay too slow for this period")
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

    Holds the quantized weight store, per-neuron PSC/PSP filters and distal
    and proximal state, and optionally a plasticity engine.

    ``step`` is the plasticity-off timestep, with an optional batch axis. Its
    weights are fixed, so it accumulates post-synaptically, as the frozen
    layers do: it contracts the input with the weights, then filters per
    output neuron. ``train`` presents samples one after another with
    plasticity on: it filters stretches of a sample's input per channel
    ahead of the steps, then steps only what depends on the weights, and
    computes the traces the rule reads. Both run the same PSC/PSP filter
    and distal compartment code.
    """

    kind = "plastic-output"

    @staticmethod
    def weight_shape(spec) -> tuple[int, int]:  # [n_out, fan_in]
        return (spec.out_shape[0], math.prod(spec.in_shape))

    def __init__(self, fan_in: int, n_out: int, store: QuantizedWeightStore, params: ReadoutParams):
        if store.shape != (n_out, fan_in):
            raise ValueError(f"store shape {store.shape} != ({n_out}, {fan_in})")
        self.fan_in = fan_in
        self.n_out = n_out
        self.store = store
        self.params = params
        self.b_err = solve_baseline_bias(params)
        n = params.neuron
        self.b_out = -self.b_err / (1.0 - n.alpha_p)
        self.x1_cfg, self.x2_cfg = params.pre_trace_configs()
        self.y1_cfg = params.y1_config()
        self.y2_cfg = params.y2_config()
        self._a_q, self._a_p = n.alpha_q, n.alpha_p
        self.engine: PlasticityEngine | None = None
        self.reset_state()

    # the frozen layers' weight interface, over the store
    weights = property(lambda self: self.store.weights)
    scale_exp = property(lambda self: self.store.scale_exp)

    def set_weights(self, weights: np.ndarray, scale_exp: int):
        self.store.set_weights(weights, scale_exp)

    def attach_engine(self, rule: SumOfProductsRule, lr_exp: int, learn_period: int = 1):
        self.engine = PlasticityEngine(self.store, rule, lr_exp, learn_period)

    def reset_state(self, batch: int | None = None):
        """Zero the state; ``batch`` prepends an axis of that many samples,
        which only plasticity-off steps accept."""
        post = (() if batch is None else (batch,)) + (self.n_out,)
        self.q = np.zeros(post)
        self.p = np.zeros(post)
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
        where drive is the (weighted) input spikes over tau_u. Returns (q', p')."""
        q = self._a_q * q + drive
        return q, self._a_p * p + q / self.params.neuron.tau_v

    def step(self, in_spikes: np.ndarray) -> np.ndarray:
        """One plasticity-off timestep with no label; returns the proximal
        (output) spike vector.

        Inputs and outputs carry the batch axis of the state, if any. The
        inputs are integer counts or 0/1 spikes and each weight an int8 times
        ``2**scale_exp``, so every partial sum of the contraction is exact
        and any BLAS kernel or batch gives the same bits. Besides the distal
        compartment it steps the proximal one, whose spikes are counted for
        classification. The rule's traces are not stepped: only ``train``
        reads them.
        """
        s, shape = np.asarray(in_spikes, dtype=np.float64), self.q.shape[:-1] + (self.fan_in,)
        if s.shape != shape:
            raise ValueError(f"readout input shape {s.shape} != {shape}")
        n = self.params.neuron
        c = s @ self.store.effective().T
        self.q, self.p = self._psp(self.q, self.p, c / n.tau_u)
        self.r_err = self._a_p * self.r_err - self.spiked_err * n.v_th
        u_err, self.v_err, self.spiked_err = _distal(self.p, 0.0, self.r_err, self.b_err, n.v_th)

        # proximal compartment: integrates the copied current
        self.p_out = self._a_p * self.p_out + u_err
        self.r_out = self._a_p * self.r_out - self.spiked_out * n.v_th
        self.v_out = self.p_out + self.r_out + self.b_out
        self.spiked_out = self.v_out >= n.v_th
        self.spike_count += self.spiked_out
        return self.spiked_out

    def _label_drive(self, period: int, n_t: int) -> np.ndarray:
        """A labelled neuron's label drive at each of ``n_t`` steps: as on
        chip, a label spike every ``period`` steps from t = 0 (none for 0)
        through the inputs' PSC/PSP filters, times w_tgt. The one label
        filter: ``train`` takes the label as this drive."""
        drive, q, p = np.empty(n_t), 0.0, 0.0
        for t in range(n_t):
            q, p = self._psp(q, p, (1.0 if period > 0 and t % period == 0 else 0.0) / self.params.neuron.tau_u)
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
        rule's leading factors at every learning step, the rounding uniforms
        and the label drive. A step then runs only the weight-dependent
        work, about 20 ufunc calls for the shipped rule over names bound
        once per call (see ``_present``): the drive (one gemv), the distal
        compartment, one decay-and-jump of a stack of the y traces and the
        reset term r_err, and at learning steps the engine's tick; the
        proximal compartment is not stepped. The weights and the rounding
        stream are bit for bit those of a labelled pre-synaptic step with
        the rule applied after every learning step to traces of the step's
        input and error spikes (``StepTraces`` in ``tests/oracle.py``). A
        rule whose updates are not finite raises ``RuleError`` at that step,
        leaving the weights and the stream as the steps before it left them;
        numpy's overflow and invalid-value warnings on the way there are
        silenced.
        """
        if self.engine is None:
            raise RuntimeError("train() needs a learning rule: attach_engine() first")
        for b in order:
            if np.ndim(streams[b]) != 2 or np.shape(streams[b])[1] != self.fan_in:
                raise ValueError(f"readout stream shape {np.shape(streams[b])} != (T, {self.fan_in})")
            if not 0 <= labels[b] < self.n_out:
                raise IndexError(f"label {labels[b]} out of range for {self.n_out} outputs")
        # once per call, not per tick: the store's finiteness check raises instead
        with np.errstate(over="ignore", invalid="ignore"):
            self._present([streams[b] for b in order], [labels[b] for b in order], target_period)

    def _present(self, streams, labels, target_period: int):
        """Train on ``streams`` in turn, each with its ``labels`` entry's label drive.

        The pre-work runs in blocks of whole learning periods whose arrays
        take about ``_BLOCK_BYTES``, so that a wide readout adds little
        memory and the block stays in cache; the filters carry their state
        from block to block. The buffers, sized for the longest block, their
        row views, the engine's ``bind`` and the methods a step calls are made
        or looked up once per call, so a step allocates, views and looks up
        nothing (fresh block-sized arrays would fault in on every block).
        Constants are 0-d arrays, which numpy takes faster than floats.
        """
        engine, store, period, n = self.engine, self.store, self.engine.learn_period, self.params.neuron
        # (decay, jump) of each trace: x0 and y0 are the spikes themselves,
        # which decay 0 and jump s give exactly; "1" decays by 1, never jumps
        cfgs = {"1": (1.0, 0.0), "x0": (0.0, 1.0), "y0": (0.0, 1.0)}
        for name, c in zip(("x1", "x2", "y1", "y2"), (self.x1_cfg, self.x2_cfg, self.y1_cfg, self.y2_cfg)):
            cfgs[name] = c.alpha, c.increment
        # filter rows: the PSC, then the x values the rule reads
        decays = np.array([self._a_q] + [cfgs[k][0] for k in engine.x_names])[:, np.newaxis] * np.ones(self.fan_in)
        n_max, n_k = max(map(len, streams), default=0), len(engine.rule.products)
        block = period * max(1, _BLOCK_BYTES // (8 * self.fan_in * (len(decays) * period + n_k + self.n_out)))
        rows, wave = min(block, n_max), self._label_drive(target_period, n_max)
        filt_buf, leads_buf = np.empty((rows, len(decays), self.fan_in)), np.empty((rows // period, n_k, self.fan_in))
        draws_buf, label_buf = np.empty((rows // period,) + store.shape), np.empty((rows, self.n_out))
        filt_state, psp_state = np.empty_like(decays), np.empty(self.fan_in)
        # y rows step as traces of the error spikes; the last one, the reset
        # term, decays by alpha_p and jumps by -v_th (a*r + s*(-v_th) is
        # a*r - s*v_th exactly), ready for the next step
        y_cfgs = [cfgs[k] for k in engine.y_rows] + [(self._a_p, -n.v_th)]
        y_decays, y_incs = np.array(y_cfgs).T[:, :, np.newaxis] * np.ones(self.n_out)
        y0 = np.array([[float(k == "1")] * self.n_out for k in engine.y_rows] + [[0.0] * self.n_out])
        y, jump, drive = np.empty_like(y0), np.empty_like(y0), np.empty(self.n_out)
        base, v, spiked = np.zeros(self.n_out), np.zeros(self.n_out), np.zeros(self.n_out, dtype=bool)
        b_err, v_th, a_p = np.array(self.b_err), np.array(n.v_th), np.array(self._a_p)
        engine.bind(y[:, :, np.newaxis])  # the y values as columns
        r, tick, dot, add, mul = y[-1], engine.tick, store.effective().dot, np.add, np.multiply
        last, filts, psps, label_drives = period - 1, list(filt_buf), list(filt_buf[:, 0]), list(label_buf)
        ticks = list(zip(leads_buf[:, :, np.newaxis], filt_buf[last::period, 1:], draws_buf))
        for stream, label in zip(streams, labels):
            filt_state[...], psp_state[...], y[...], label_buf[...] = 0.0, 0.0, y0, 0.0
            for t0 in range(0, len(stream), block):
                seg = stream[t0 : t0 + block]
                filt = filt_buf[: len(seg)]
                label_buf[: len(seg), label] = wave[t0 : t0 + len(seg)]
                np.divide(seg, n.tau_u, out=filt[:, 0])
                for k, name in enumerate(engine.x_names, 1):
                    np.multiply(seg, cfgs[name][1], out=filt[:, k])
                _recur(filts[: len(seg)], decays, filt_state)
                np.divide(filt[:, 0], n.tau_v, out=filt[:, 0])  # the PSC row becomes the PSP
                _recur(psps[: len(seg)], a_p, psp_state)
                x = filt[last::period, 1:]
                engine.leads(x, leads_buf[: len(x)])
                store.uniforms(draws_buf[: len(x)])
                i = 0
                try:
                    for t, (p, lab) in enumerate(zip(psps[: len(seg)], label_drives)):
                        _distal(dot(p, drive), lab, r, b_err, v_th, base, v, spiked)  # a gemv of the changing weights
                        add(mul(y, y_decays, y), mul(spiked, y_incs, jump), y)
                        if t % period == last:
                            tick(*ticks[i])
                            i += 1
                except RuleError:
                    store.unread(i)
                    raise


# bytes of pre-work arrays per block of a sample's training steps
_BLOCK_BYTES = 1 << 20

_add, _sub, _ge = np.add, np.subtract, np.greater_equal  # in a step, np.<name> costs about a small operation


def _distal(drive, label_drive, r, b_err, v_th, base=None, v=None, spiked=None):
    """One step of the distal compartment from the filtered synaptic drive,
    the label drive (see ``_label_drive``; 0 in ``step``) and the reset term
    ``r``, already past the previous step's spikes: the potential without
    and with ``r`` and the spikes, into ``base``, ``v`` and ``spiked``."""
    base = _add(_sub(drive, label_drive, base), b_err, base)
    v = _add(base, r, v)
    return base, v, _ge(v, v_th, spiked)


def _recur(rows: list, decay, state: np.ndarray):
    """In place over the arrays ``rows``: rows[t] = decay * rows[t - 1] + rows[t],
    where rows[-1] is ``state``, which then takes the last row: the next state."""
    add, mul = np.add, np.multiply
    for prev, cur in zip([state] + rows, rows):
        add(mul(decay, prev, state), cur, cur)  # positional out: keywords cost more than the add
    state[...] = rows[-1]
