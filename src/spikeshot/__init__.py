"""spikeshot: deterministic spiking-network simulation with on-chip-style plasticity."""

__version__ = "0.1.0"
