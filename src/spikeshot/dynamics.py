"""Neuron parameters of the discrete-time current-based LIF.

Every spiking layer runs the same recursion per neuron. A post-synaptic
current (PSC) state q filters the weighted input spikes, a post-synaptic
potential (PSP) state p filters q, and a reset trace r collects -v_th after
each spike and decays with the potential:

    q  <- a_q * q + (1/tau_u) * (w . s_in)
    p  <- a_p * p + (1/tau_v) * q
    r  <- a_p * r - spiked_prev * v_th
    v  <- p + r + bias
    spiked <- v >= v_th            (spike at exact equality)

with a_q = exp(-1/tau_u), a_p = exp(-1/tau_v). r only ever receives -v_th
decrements, so r <= 0 always and a spike depresses v by at least v_th on the
following step.

The filters are linear, so filtering the weighted sum equals weighting the
filtered inputs. Every plasticity-off step keeps q and p per output neuron
(post-synaptic); only ``readout.ReadoutLayer.train``, whose weights change
every step, keeps them per input channel and computes v from ``w . p``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class NeuronParams:
    """Time constants (in timesteps), threshold and constant bias current.

    The reset trace decays by ``alpha_p``, as the potential does.
    """

    tau_u: float = 8.0
    tau_v: float = 16.0
    v_th: float = 1.0
    bias: float = 0.0

    def __post_init__(self):
        for name in ("tau_u", "tau_v"):
            if getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be >= 1 timestep")
        if self.v_th <= 0.0:
            raise ValueError("v_th must be positive")

    @property
    def alpha_q(self) -> float:
        return math.exp(-1.0 / self.tau_u)

    @property
    def alpha_p(self) -> float:
        return math.exp(-1.0 / self.tau_v)
