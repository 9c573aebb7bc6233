"""First-order synaptic traces.

A trace is a leaky accumulator of a spike train: it decays by exp(-1/tau)
each step and jumps by a fixed increment whenever the watched neuron spikes.
The plasticity engine reads pre-synaptic traces (x1, x2) per input channel
and post-synaptic traces (y1, y2) per output neuron.

A pair of first-order traces with different decays can reproduce the
two-stage PSP filter of the neuron dynamics: the PSP response to a single
spike is a difference of two geometric kernels, so (x2 - x1) tracks the PSP
exactly when the decay constants and increments are matched (see
``psp_matched_trace_configs``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TraceConfig:
    """Decay/increment parameters of one first-order trace.

    tau is in timesteps; the decay factor is exp(-1/tau).
    """

    tau: float
    increment: float = 1.0

    def __post_init__(self):
        if self.tau < 1.0:
            raise ValueError(f"trace tau must be >= 1 timestep, got {self.tau}")
        if self.increment <= 0.0:
            raise ValueError(f"trace increment must be > 0, got {self.increment}")

    @property
    def alpha(self) -> float:
        return math.exp(-1.0 / self.tau)


def update_trace(t, spiked, cfg: TraceConfig):
    """Advance a trace one step: t' = alpha*t + spiked*increment.

    Works elementwise on scalars or arrays; ``spiked`` may be boolean or a
    spike count.
    """
    jump = np.asarray(spiked, dtype=np.float64) * cfg.increment
    t = cfg.alpha * np.asarray(t, dtype=np.float64) + jump
    if t.ndim == 0:
        return float(t)
    return t


def psp_matched_trace_configs(tau_u: float, tau_v: float) -> tuple[TraceConfig, TraceConfig]:
    """Trace pair whose difference reproduces the neuron's PSP kernel.

    The single-spike PSP of the dynamics pipeline is

        P[m] = (a_p**m - a_q**m) / (tau_u * tau_v * (a_p - a_q)),  m >= 1

    with a_q = exp(-1/tau_u), a_p = exp(-1/tau_v). Splitting this into two
    geometric kernels gives a fast trace x1 (decay a_q) and a slow trace x2
    (decay a_p) with increments a_q*c and a_p*c, c = 1/(tau_u*tau_v*(a_p-a_q)),
    so that x2 - x1 equals P for any spike train.

    Requires a_p > a_q, that is tau_v > tau_u with decays that stay apart
    as floats, so both increments are positive and finite.
    """
    a_q = math.exp(-1.0 / tau_u)
    a_p = math.exp(-1.0 / tau_v)
    if a_p <= a_q:
        raise ValueError("PSP decomposition needs tau_v > tau_u (slow PSP, fast PSC), with distinct decays")
    c = 1.0 / (tau_u * tau_v * (a_p - a_q))
    return (
        TraceConfig(tau=tau_u, increment=a_q * c),
        TraceConfig(tau=tau_v, increment=a_p * c),
    )
