"""Run configuration: one YAML file, schema-validated, flag overrides win.

The merged configuration (file + overrides) is the single source of truth
for a run; its canonical dump is hashed into the run manifest so any run can
be reproduced bit-exactly from the manifest alone.

A count of samples, classes, epochs or steps past ``network.DIM_MAX`` (the
weight file's u32) is refused on load, under ``train`` and its dry run
alike; a count at or below it is left to run, however long that takes.
"""

from __future__ import annotations

import copy
import hashlib
import math
import yaml

from .dynamics import NeuronParams
from .events import PROTOTYPE_MODES
from .fewshot import DEFAULT_RULE, EpisodeConfig
from .network import DIM_MAX, BuildConfig, Topology, parse_topology
from .readout import ReadoutParams


class ConfigError(ValueError):
    """Unknown keys, bad types or inconsistent values in the run config."""


DEFAULT_CONFIG: dict = {
    "topology": {
        "input": "32",
        "layers": ["64"],
        "output": 5,
    },
    "neuron": {
        "tau_u": 8.0,
        "tau_v": 16.0,
        "v_th": 1.0,
        "bias": -0.2,
    },
    "readout": {
        "tau_u": 8.0,
        "tau_v": 16.0,
        "v_th": 1.0,
        "w_tgt": 2.0,
        "target_period": 4,
        "baseline_period": 20,
        "b_err": None,
    },
    "learning": {
        "rule": DEFAULT_RULE,
        "lr_exp": 3,
        "learn_period": 1,
    },
    "episode": {
        "n_way": 5,
        "k_shot": 5,
        "m_pretrained": 0,
        "sample_duration": 300,
        "epochs": 1,
        "seeds": [0],
        "calibration_window": 1200,
    },
    "data": {
        "kind": "synthetic",  # or "file"
        "path": None,
        "n_per_class": 9,
        "dim": 32,
        "separation": 1.5,
        "jitter": 0.1,
        "r_max": 0.2,
        "mode": "balanced",
        "seed_offset": 10000,
    },
    "weights": {
        "path": None,
        "frozen_scale_exp": -6,
        "frozen_init_lo": -40,
        "frozen_init_hi": 80,
        "plastic_scale_exp": -6,
        "plastic_init": "zero",
    },
    "output": {
        "dir": None,
    },
}

_SCALARS = (int, float, str, bool, type(None))
_U32_COUNTS = (("data", "n_per_class"), ("readout", "baseline_period"), ("episode", "n_way"),
               ("episode", "m_pretrained"), ("episode", "epochs"), ("episode", "calibration_window"),
               ("episode", "sample_duration"))
_PATH_KEYS = ("path", "dir")  # the keys whose None default stands for a path; the others for a number


def _check_number(val, ref, where: str):
    """Where the default is an integer only an integer fits, where it is a
    float any finite number; a bool is neither."""
    kinds, what = ((int,), "an integer") if isinstance(ref, int) else ((int, float), "a number")
    if isinstance(val, bool) or not isinstance(val, kinds):
        raise ConfigError(f"{where}: expected {what}, got {val!r}")
    if not math.isfinite(val):
        raise ConfigError(f"{where}: expected a finite number, got {val!r}")


def _check_block(block: dict, defaults: dict, path: str):
    if not isinstance(block, dict):
        raise ConfigError(f"{path}: expected a mapping")
    for key in block:
        if key not in defaults:
            raise ConfigError(f"{path}.{key}: unknown key")
    for key, val in block.items():
        ref = defaults[key]
        if isinstance(ref, dict):
            _check_block(val, ref, f"{path}.{key}")
        elif isinstance(ref, list):
            if not isinstance(val, list):
                raise ConfigError(f"{path}.{key}: expected a list")
            if isinstance(ref[0], int):  # a list of integers, such as the seeds
                for item in val:
                    _check_number(item, ref[0], f"{path}.{key}")
        elif not isinstance(val, _SCALARS):
            raise ConfigError(f"{path}.{key}: expected a scalar, got {type(val).__name__}")
        elif isinstance(ref, (int, float)) and not isinstance(ref, bool):
            _check_number(val, ref, f"{path}.{key}")
        elif ref is None and val is not None and key not in _PATH_KEYS:
            _check_number(val, 0.0, f"{path}.{key}")


def merge_config(overrides: dict | None) -> dict:
    """Defaults overlaid with a (possibly partial) config mapping."""
    merged = copy.deepcopy(DEFAULT_CONFIG)
    if overrides is None:
        return merged
    _check_block(overrides, DEFAULT_CONFIG, "config")
    for section, block in overrides.items():  # _check_block refuses a section that is not a mapping
        merged[section].update(block)
    if merged["data"]["mode"] not in PROTOTYPE_MODES:
        raise ConfigError(f"config.data.mode: expected one of {PROTOTYPE_MODES}, got {merged['data']['mode']!r}")
    if merged["data"]["seed_offset"] < 0:
        raise ConfigError(f"config.data.seed_offset: expected an integer >= 0, got {merged['data']['seed_offset']}")
    for section, key in _U32_COUNTS:
        if merged[section][key] > DIM_MAX:
            raise ConfigError(f"config.{section}.{key}: expected at most {DIM_MAX}, got {merged[section][key]}")
    return merged


def load_config(path: str | None) -> dict:
    """Load and validate a YAML config file; None means pure defaults."""
    if path is None:
        return merge_config(None)
    try:
        with open(path, encoding="utf-8") as f:
            raw = yaml.safe_load(f)
    except (OSError, UnicodeDecodeError, yaml.YAMLError) as e:
        raise ConfigError(f"cannot read {path}: {e}") from None
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError("config file must contain a mapping")
    return merge_config(raw)


def reproducible_view(cfg: dict) -> dict:
    """The config without fields that do not affect the computation.

    Only the output directory is excluded: two runs into different
    directories are the same run.
    """
    view = copy.deepcopy(cfg)
    view["output"]["dir"] = None
    return view


def canonical_dump(cfg: dict) -> str:
    return yaml.safe_dump(reproducible_view(cfg), sort_keys=True, default_flow_style=False)


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(canonical_dump(cfg).encode("utf-8")).hexdigest()


# --- typed views over the merged dict ------------------------------------------


def neuron_params(cfg: dict) -> NeuronParams:
    n = cfg["neuron"]
    try:
        return NeuronParams(tau_u=n["tau_u"], tau_v=n["tau_v"], v_th=float(n["v_th"]), bias=n["bias"])
    except ValueError as e:
        raise ConfigError(f"neuron: {e}")


def readout_params(cfg: dict) -> ReadoutParams:
    r = cfg["readout"]
    try:
        neuron = NeuronParams(tau_u=r["tau_u"], tau_v=r["tau_v"], v_th=float(r["v_th"]))
        params = ReadoutParams(neuron=neuron, w_tgt=r["w_tgt"], baseline_period=r["baseline_period"],
                               b_err=r["b_err"])
        params.pre_trace_configs()  # the readout's PSP decomposition needs tau_v > tau_u
        return params
    except ValueError as e:
        raise ConfigError(f"readout: {e}")


def seeds(cfg: dict) -> list[int]:
    """The episode seeds, from ``--seed`` or the list; a run needs at least one, none negative."""
    seeds = list(cfg["episode"]["seeds"])
    if not seeds or min(seeds) < 0:
        raise ConfigError(f"config.episode.seeds: needs at least one seed, each an integer >= 0, got {seeds}")
    return seeds


def topology(cfg: dict) -> Topology:
    t = cfg["topology"]
    if isinstance(t["input"], bool) or not isinstance(t["input"], (str, int)):
        raise ConfigError(f'config.topology.input: expected a shape such as "16" or "128x128x2", got {t["input"]!r}')
    return parse_topology(str(t["input"]), list(t["layers"]), t["output"])


def build_config(cfg: dict, seed: int) -> BuildConfig:
    w = cfg["weights"]
    try:
        return BuildConfig(
            seed=seed,
            frozen_scale_exp=w["frozen_scale_exp"],
            frozen_init_lo=w["frozen_init_lo"],
            frozen_init_hi=w["frozen_init_hi"],
            plastic_scale_exp=w["plastic_scale_exp"],
            plastic_init=w["plastic_init"],
        )
    except ValueError as e:
        raise ConfigError(f"weights: {e}")


def episode_config(cfg: dict, seed: int) -> EpisodeConfig:
    e, l = cfg["episode"], cfg["learning"]
    try:
        return EpisodeConfig(
            n_way=e["n_way"],
            k_shot=e["k_shot"],
            m_pretrained=e["m_pretrained"],
            epochs=e["epochs"],
            seed=seed,
            rule=l["rule"],
            lr_exp=l["lr_exp"],
            learn_period=l["learn_period"],
            target_period=cfg["readout"]["target_period"],
            calibration_window=e["calibration_window"],
        )
    except ValueError as e_:
        raise ConfigError(f"episode: {e_}")
