"""spikeshot: deterministic spiking-network simulation with on-chip-style plasticity."""

from .dynamics import NeuronParams
from .events import LabeledSample, SpikeEvent, gen_synthetic_task, rate_encode, read_events, write_events
from .fewshot import EpisodeConfig, EpisodeReport, classify, episode_samples, run_episode, split_shots
from .network import BuildConfig, LayerSpec, Network, Topology, build_network, parse_topology
from .plasticity import PlasticityEngine, QuantizedWeightStore
from .readout import CalibrationReport, ReadoutLayer, ReadoutParams, calibrate_bias, solve_baseline_bias
from .ruledsl import Factor, Product, RuleError, SumOfProductsRule, parse_rule
from .traces import TraceConfig, psp_matched_trace_configs, update_trace
from .weightio import load_weights, read_weight_file, save_weights

__version__ = "0.1.0"
