"""The benchmark's workloads and the episode that each of them repeats.

One episode does what ``spikeshot train`` does for one seed, through the
public package API: load the config, build the dataset and the network, run
``run_episode``, save the weights and render the report. The benchmark
times each part, hashes the outputs and checks them.

Why these workloads:

- ``desk-5w5s`` is ``configs/fewshot.yaml`` as shipped, the paper's 5-way
  5-shot protocol at desk scale. Per-step interpreter overhead in the
  readout and its traces dominates, and 64% of its steps run with
  plasticity off, so caching the frozen pass shows here.
- ``desk-plastic`` is the same network trained for 3 epochs on 6 samples per
  class, so about 71% of its steps write the plastic store, with a rule
  whose ``w`` factor defeats outer-product compilation. A change that speeds
  evaluation but slows training shows here.
- ``conv-dvs128`` is the paper-scale topology ``128x128x2 -> 4a,16c5z,2a,
  32c5z,2a -> 3`` on seeded synthetic DVS events (``dvsgen``). The frozen
  conv/pool contraction does most of its work, and its readout has a fan-in
  of 2,048. The program receives only the generated event file.
"""

from __future__ import annotations

import copy
import hashlib
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

import dvsgen
from spikeshot import config as cfgmod
from spikeshot import events, fewshot, network, weightio

BASE_CONFIG = os.path.join("configs", "fewshot.yaml")

# dw = -1*(y1*(x2 - x1) + {b}*(x1 - x2)), the shipped rule, plus a
# weight-dependent decay; -0.5 and -4 for its coefficient learn at chance.
PLASTIC_RULE = "dw = -1*(y1*(x2 - x1) + {b}*(x1 - x2)) - 0.1*w*y1*x2"


@dataclass(frozen=True)
class DvsTask:
    """Arguments of ``dvsgen.write_dvs_task`` besides the path and seed."""

    n_classes: int
    n_per_class: int
    duration: int
    shape: tuple[int, int, int] = dvsgen.SHAPE


@dataclass(frozen=True)
class Workload:
    name: str
    overrides: dict
    n_seeds: int                    # distinct episode seeds per run
    min_test_accuracy: float | None = None
    dvs: DvsTask | None = None


# 128x128x2 -> 32x32x2 -> 32x32x16 -> 16x16x16 -> 16x16x32 -> 8x8x32 = 2048.
# The frozen keys are tuned so that no frozen layer is silent or saturated
# (rates 0.03-0.17 on the generator's output, whose input density of about
# 1.8% is itself uncalibrated; see ``dvsgen``). The readout keys are tuned
# so that 50-step samples learn: its fan-in is 32x that of the desk
# readout, so lr_exp drops by 8 to keep the learning loop from overshooting.
_CONV_OVERRIDES = {
    "topology": {"input": "128x128x2", "layers": ["4a", "16c5z", "2a", "32c5z", "2a"], "output": 3},
    "neuron": {"tau_u": 4.0, "tau_v": 8.0, "v_th": 0.25, "bias": 0.0},
    "readout": {"tau_u": 4.0, "tau_v": 8.0, "baseline_period": 10, "target_period": 2},
    "learning": {"lr_exp": -5},
    "episode": {"n_way": 3, "k_shot": 1, "sample_duration": 50},
    "weights": {"frozen_init_lo": -64, "frozen_init_hi": 64},
    "data": {"kind": "file"},
}

WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="desk-5w5s",
            overrides={},
            n_seeds=4,
            min_test_accuracy=0.80,  # acceptance criterion 6
        ),
        Workload(
            name="desk-plastic",
            overrides={
                "episode": {"epochs": 3},
                "data": {"n_per_class": 6},
                "learning": {"rule": PLASTIC_RULE},
            },
            n_seeds=3,
        ),
        Workload(
            name="conv-dvs128",
            overrides=_CONV_OVERRIDES,
            n_seeds=3,
            dvs=DvsTask(n_classes=3, n_per_class=3, duration=50),
        ),
    ]
}


def tiny(w: Workload) -> Workload:
    """A seconds-long variant of a workload with the same code path.

    Used by the benchmark's smoke tests; the accuracy gate is dropped
    because short samples do not learn.
    """
    over = copy.deepcopy(w.overrides)
    over.setdefault("episode", {}).update({"sample_duration": 30, "k_shot": 1, "calibration_window": 400})
    dvs = w.dvs
    if dvs is None:
        over.setdefault("data", {})["n_per_class"] = 2
    else:
        over["topology"]["input"] = "32x32x2"
        dvs = DvsTask(dvs.n_classes, 2, 30, shape=(32, 32, 2))
    return Workload(name=w.name, overrides=over, n_seeds=2, dvs=dvs)


def episode_seeds(w: Workload, seed: int) -> list[int]:
    return [seed * 1000 + k for k in range(w.n_seeds)]


def load_config(w: Workload, events_path: str | None) -> dict:
    """The base config with the workload's overrides, validated."""
    cfg = cfgmod.load_config(BASE_CONFIG)
    for section, block in w.overrides.items():
        cfg[section].update(copy.deepcopy(block))
    if w.dvs is not None:
        cfg["data"]["path"] = events_path
    return cfgmod.merge_config(cfg)


def build_dataset(cfg: dict, seed: int) -> list:
    """Dataset as ``spikeshot train`` builds it for one seed."""
    d, e = cfg["data"], cfg["episode"]
    if d["kind"] == "file":
        return events.read_events(d["path"])
    return events.gen_synthetic_task(
        n_classes=int(e["n_way"]) + int(e["m_pretrained"]),
        n_per_class=int(d["n_per_class"]),
        dim=int(d["dim"]),
        separation=float(d["separation"]),
        seed=int(d["seed_offset"]) + seed,
        jitter=float(d["jitter"]),
        duration=int(e["sample_duration"]),
        r_max=float(d["r_max"]),
        mode=d["mode"],
    )


def build_net(cfg: dict, seed: int):
    return network.build_network(
        cfgmod.topology(cfg),
        cfgmod.neuron_params(cfg),
        cfgmod.readout_params(cfg),
        cfgmod.build_config(cfg, seed),
    )


def protocol_steps(dataset: list, ecfg) -> int:
    """Global timesteps the episode protocol simulates: every training
    sample once per epoch and once more in train-eval, every test sample
    once. Calibration steps an isolated compartment, not the network."""
    train, test = fewshot.split_shots(dataset, ecfg)
    return (ecfg.epochs + 1) * sum(s.duration for s in train) + sum(s.duration for s in test)


@dataclass
class EpisodeResult:
    seed: int
    started: float = math.nan       # perf_counter() at the start of set-up
    setup_s: float = math.nan
    episode_s: float = math.nan
    setup_ref_s: float = math.nan   # both at reference speed (see ``speed``)
    episode_ref_s: float = math.nan
    steps: int = 0
    test_accuracy: float = math.nan
    weights_sha256: str = ""
    report_sha256: str = ""
    errors: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors


def run_episode(w: Workload, seed: int, events_path: str | None, out_dir: str) -> EpisodeResult:
    """One timed ``train`` episode with its output checks.

    Raises what the program raises; output-check failures are recorded in
    ``errors``.
    """
    res = EpisodeResult(seed=seed)
    t0 = time.perf_counter()
    cfg = load_config(w, events_path)
    dataset = build_dataset(cfg, seed)
    net = build_net(cfg, seed)
    t1 = time.perf_counter()
    ecfg = cfgmod.episode_config(cfg, seed)
    report = fewshot.run_episode(net, ecfg, dataset)
    t2 = time.perf_counter()
    res.started, res.setup_s, res.episode_s = t0, t1 - t0, t2 - t1
    res.steps = protocol_steps(dataset, ecfg)
    res.test_accuracy = report.test_accuracy

    path = os.path.join(out_dir, f"weights_seed{seed}.ssw")
    weightio.save_weights(net, path)
    with open(path, "rb") as f:
        res.weights_sha256 = hashlib.sha256(f.read()).hexdigest()
    res.report_sha256 = hashlib.sha256(fewshot.format_report(report).encode("utf-8")).hexdigest()

    if not np.isfinite(net.readout.store.effective()).all():
        res.errors.append("non-finite plastic weights")
    if not (math.isfinite(report.test_accuracy) and math.isfinite(report.train_accuracy)):
        res.errors.append("non-finite accuracy")
    _, entries = weightio.read_weight_file(path)
    if not np.array_equal(entries[-1][1], net.plastic_weights()):
        res.errors.append("saved plastic weights differ from the network's")
    return res


def frozen_rates(w: Workload, seed: int, events_path: str | None) -> list[float]:
    """Spike rate of each frozen layer over the first sample of the dataset."""
    cfg = load_config(w, events_path)
    sample = build_dataset(cfg, seed)[0]
    net = build_net(cfg, seed)
    net.reset_state()
    dense = sample.to_dense()
    spikes = np.zeros(len(net.layers))
    for t in range(sample.duration):
        net.step(dense[t])
        spikes += [np.count_nonzero(s) for s in net.layer_spikes[:-1]]
    sizes = np.array([math.prod(layer.spec.out_shape) for layer in net.layers])
    return (spikes / (sizes * sample.duration)).tolist()
