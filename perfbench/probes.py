"""Where the traced run puts its spans, and the per-layer metrics it derives.

Each name is patched where the code that calls it looks it up: the
readout's ``update_trace`` is ``spikeshot.readout.update_trace``, not
``spikeshot.traces.update_trace``; methods are patched on their class.
Names the benchmark calls itself (``read_events``, ``build_network``,
``run_episode``, ``save_weights``) are looked up on their modules by
``workloads``. A name that a later version of the program drops reports 0
calls, and its metrics read 0 and print as not applicable.

The layers are the package modules one episode runs: events, network,
readout, traces, plasticity, fewshot and weightio.
"""

from __future__ import annotations

import numpy as np

from spikeshot import events, fewshot, network, plasticity, readout, weightio
from tracer import Summary, Tracer

_FROZEN = {"dense": network.DenseLayer, "conv": network.ConvLayer, "pool": network.PoolLayer}


def _step_name(args, kwargs):
    learn = kwargs["learn"] if "learn" in kwargs else len(args) > 3 and args[3]
    return "network.step.train" if learn else "network.step.eval"


def install(tr: Tracer):
    c = tr.counts

    def count_events(args, kwargs, result, token):
        c["events.count"] += sum(len(s.events) for s in result)
        c["events.datasets"] += 1

    def count_layer(kind):
        def after(args, kwargs, result, token):
            c[f"{kind}.spikes"] += np.count_nonzero(result)
            c[f"{kind}.neuron_steps"] += result.size
        return after

    def count_readout(args, kwargs, result, token):
        layer = args[0]
        c["readout.err_spikes"] += np.count_nonzero(layer.spiked_err)
        c["readout.out_spikes"] += np.count_nonzero(result)
        c["readout.neuron_steps"] += layer.n_out

    def copy_weights(args, kwargs):
        return args[0].weights.copy()

    def count_moved(args, kwargs, result, before):
        c["plasticity.moved"] += np.count_nonzero(args[0].weights != before)
        c["plasticity.draws"] += before.size

    def count_clamped(args, kwargs, result, token):
        w = result.weights
        c["plasticity.clamped"] += np.count_nonzero((w == plasticity.WEIGHT_MIN) | (w == plasticity.WEIGHT_MAX))
        c["plasticity.synapses"] += w.size

    tr.patch(events, "read_events", "events.read", after=count_events)
    tr.patch(events, "gen_synthetic_task", "events.gen", after=count_events)
    tr.patch(events.LabeledSample, "to_dense", "events.to_dense")
    tr.patch(network, "build_network", "network.build")
    tr.patch(network.Network, "step", _step_name)
    tr.patch(network.Network, "reset_state", "network.reset")
    tr.patch(network.Network, "calibrate", "fewshot.calibrate")
    for kind, cls in _FROZEN.items():
        tr.patch(cls, "step", f"network.{kind}", after=count_layer(kind))
    tr.patch(readout.ReadoutLayer, "step", "readout.step", after=count_readout)
    tr.patch(readout, "update_trace", "traces.update")
    tr.patch(readout, "calibrate_bias", "readout.calibrate")
    tr.patch(readout, "solve_baseline_bias", "readout.solve_bias")
    tr.patch(plasticity.PlasticityEngine, "tick", "plasticity.tick")
    tr.patch(plasticity, "evaluate_rule_matrix", "plasticity.rule_eval")
    tr.patch(plasticity.QuantizedWeightStore, "apply_update_matrix", "plasticity.round",
             before=copy_weights, after=count_moved)
    tr.patch(fewshot, "run_episode", "fewshot.episode", after=count_clamped)
    tr.patch(weightio, "save_weights", "weightio.save")


def _ratio(a, b) -> float:
    return float(a) / b if b else 0.0


def _steps(s: Summary) -> int:
    return s.calls("network.step.train") + s.calls("network.step.eval")


def _per_step_us(span: str):
    return lambda s: 1e6 * _ratio(s.self_s(span), _steps(s))


def _rate(kind: str):
    return lambda s: _ratio(s.count(f"{kind}.spikes"), s.count(f"{kind}.neuron_steps"))


# name -> (span whose calls make the metric applicable, None for always;
#          deterministic count?,
#          value from one iteration's Summary, what it should move and where)
LAYER_METRICS = {
    "events.read_s": ("events.read", False,
                      lambda s: _ratio(s.total("events.read"), s.calls("events.read")),
                      "setup_s on conv-dvs128"),
    "events.count": (None, True,
                     lambda s: _ratio(s.count("events.count"), s.count("events.datasets")),
                     "setup_s on conv-dvs128"),
    "events.to_dense_us": ("events.to_dense", False,
                           lambda s: 1e6 * _ratio(s.self_s("events.to_dense"), s.calls("events.to_dense")),
                           "episode_s on conv-dvs128 (32,768 channels)"),
    "network.conv.step_us": ("network.conv", False, _per_step_us("network.conv"),
                             "episode_s, steps_per_s on conv-dvs128"),
    "network.pool.step_us": ("network.pool", False, _per_step_us("network.pool"),
                             "episode_s, steps_per_s on conv-dvs128"),
    "network.dense.step_us": ("network.dense", False, _per_step_us("network.dense"),
                              "episode_s on desk-5w5s, desk-plastic"),
    "network.dense.spike_rate": ("network.dense", True, _rate("dense"),
                                 "event-driven accumulation gains where it is low (desk)"),
    "network.conv.spike_rate": ("network.conv", True, _rate("conv"),
                                "event-driven accumulation gains where it is low (conv-dvs128)"),
    "network.pool.spike_rate": ("network.pool", True, _rate("pool"),
                                "event-driven accumulation gains where it is low (conv-dvs128)"),
    "network.step.glue_us": ("network.step.eval", False,
                             lambda s: 1e6 * _ratio(s.self_s("network.step.train") + s.self_s("network.step.eval"),
                                                    _steps(s)),
                             "episode_s on desk-5w5s, desk-plastic"),
    "readout.step_us": ("readout.step", False,
                        lambda s: 1e6 * _ratio(s.self_s("readout.step"), s.calls("readout.step")),
                        "episode_s on desk-5w5s, desk-plastic"),
    "traces.update_us": ("traces.update", False,
                         lambda s: 1e6 * _ratio(s.self_s("traces.update", "readout.step"),
                                                s.calls("traces.update", "readout.step")),
                         "episode_s on desk-5w5s, desk-plastic"),
    "traces.calls_per_step": ("traces.update", True,
                              lambda s: _ratio(s.calls("traces.update", "readout.step"), s.calls("readout.step")),
                              "episode_s on desk workloads (update only referenced traces)"),
    "readout.err_rate": ("readout.step", True,
                         lambda s: _ratio(s.count("readout.err_spikes"), s.count("readout.neuron_steps")),
                         "none: deterministic activity count"),
    "readout.out_rate": ("readout.step", True,
                         lambda s: _ratio(s.count("readout.out_spikes"), s.count("readout.neuron_steps")),
                         "none: deterministic activity count"),
    "readout.calibrate_ms": ("readout.calibrate", False,
                             lambda s: 1e3 * _ratio(s.total("readout.calibrate"), s.calls("readout.calibrate")),
                             "episode_s on all workloads (fixed 1,200 steps)"),
    "readout.solve_bias_ms": ("readout.solve_bias", False,
                              lambda s: 1e3 * _ratio(s.total("readout.solve_bias"), s.calls("readout.solve_bias")),
                              "setup_s on all workloads"),
    "plasticity.tick_us": ("plasticity.tick", False,
                           lambda s: 1e6 * _ratio(s.self_s("plasticity.tick"), s.calls("plasticity.tick")),
                           "episode_s on desk-plastic (most), desk-5w5s"),
    "plasticity.rule_eval_us": ("plasticity.tick", False,
                                lambda s: 1e6 * _ratio(s.self_s("plasticity.rule_eval"), s.calls("plasticity.tick")),
                                "episode_s on desk-plastic (most), desk-5w5s"),
    "plasticity.round_us": ("plasticity.tick", False,
                            lambda s: 1e6 * _ratio(s.self_s("plasticity.round"), s.calls("plasticity.tick")),
                            "episode_s on desk-plastic (most), desk-5w5s"),
    "plasticity.ticks": ("plasticity.tick", True, lambda s: float(s.calls("plasticity.tick")),
                         "none: deterministic count of learning steps"),
    "plasticity.moved_frac": ("plasticity.round", True,
                              lambda s: _ratio(s.count("plasticity.moved"), s.count("plasticity.draws")),
                              "none: useful updates over rounding draws"),
    "plasticity.clamped_frac": ("fewshot.episode", True,
                                lambda s: _ratio(s.count("plasticity.clamped"), s.count("plasticity.synapses")),
                                "none: share of final weights at -128 or 127"),
    "fewshot.calibrate_s": ("fewshot.calibrate", False, lambda s: s.total("fewshot.calibrate"),
                            "episode_s on all workloads"),
    "fewshot.train_s": ("network.step.train", False, lambda s: s.total("network.step.train"),
                        "episode_s on desk-plastic"),
    "fewshot.eval_s": ("network.step.eval", False, lambda s: s.total("network.step.eval"),
                       "episode_s on desk-5w5s, conv-dvs128 (caching the frozen pass)"),
    "fewshot.sample_passes": ("network.reset", True, lambda s: float(s.calls("network.reset")),
                              "episode_s on desk-5w5s, conv-dvs128 (caching the frozen pass)"),
    "weightio.save_ms": ("weightio.save", False,
                         lambda s: 1e3 * _ratio(s.total("weightio.save"), s.calls("weightio.save")),
                         "none: negligible on all workloads"),
    "trace.untracked_s": ("fewshot.episode", False, lambda s: s.self_s("fewshot.episode"),
                          "none: episode time no span covers"),
}
