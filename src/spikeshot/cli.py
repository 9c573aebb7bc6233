"""Command-line entry point.

Subcommands: calibrate, train, eval, simulate, gen-data. A run is driven by
one YAML config (defaults apply when omitted); ``--seed``, ``--out``,
``--weights`` and ``--rule`` each override one config value, and each
subcommand takes only those it reads (any other is a usage error, exit 2).
``train`` and ``calibrate`` write a manifest carrying the canonical config,
its hash, the format versions and, for ``train``, the seeds, which is enough
to reproduce the run bit-exactly; ``simulate`` writes none.

``train --dry-run`` does all that ``train`` does before its first step and
writes nothing: for every seed it builds the network and dataset, reading the
weight and event files, calibrates and parses the rule.

Exit codes: 0 success, 2 config error (also a config file or output
directory that cannot be used, and a synthetic task or network that cannot
be made), 3 data/weights error (also any other path that cannot be read or
written, and samples whose streams do not fit in memory), 4 calibration failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np
import yaml

from . import __version__, config as cfgmod
from .config import ConfigError
from .events import (
    EventFormatError,
    LabeledSample,
    gen_synthetic_task,
    read_events,
    write_events,
)
from .fewshot import (
    DatasetError,
    EpisodeConfig,
    classify,
    episode_samples,
    evaluate,
    format_report,
    frozen_pass,
    prepare_episode,
    readout_steps,
    run_episode,
    split_shots,
)
from .network import TopologyError, build_network
from .readout import CalibrationError, calibrate_bias
from .ruledsl import RuleError
from .weightio import FILE_VERSION, WeightFileError, load_weights, save_weights

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_CALIBRATION = 4

EVENTS_VERSION = 1


def _out_dir(cfg: dict) -> str:
    out = cfg["output"]["dir"] or os.environ.get("SPIKESHOT_OUT") or "."
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as e:  # names a regular file, or lies under one
        raise ConfigError(f"cannot make output directory {out}: {e}") from None
    return out


# the flags that override one config value each: flag -> (section, key, argparse keywords)
_OVERRIDES = {
    "--seed": ("episode", "seeds", {"type": int, "help": "override the episode seed list with one seed"}),
    "--out": ("output", "dir", {"help": "output directory (default: $SPIKESHOT_OUT or .)"}),
    "--weights": ("weights", "path", {"help": "weight file to load"}),
    "--rule": ("learning", "rule", {"help": "override the learning rule text"}),
}


def _apply_overrides(cfg: dict, args) -> dict:
    for flag in args.overrides:
        section, key, _ = _OVERRIDES[flag]
        value = getattr(args, flag[2:])
        if value not in (None, ""):  # an empty path or rule keeps the config's
            cfg[section][key] = [value] if key == "seeds" else value
    return cfg


def _build_dataset(cfg: dict, ecfg: EpisodeConfig) -> list[LabeledSample]:
    d = cfg["data"]
    if d["kind"] == "file":
        if not d["path"]:
            raise ConfigError("data.kind is 'file' but data.path is unset")
        return read_events(d["path"])
    if d["kind"] != "synthetic":
        raise ConfigError(f"unknown data.kind {d['kind']!r}")
    try:
        return gen_synthetic_task(
            n_classes=ecfg.n_way + ecfg.m_pretrained,
            n_per_class=int(d["n_per_class"]),
            dim=int(d["dim"]),
            separation=float(d["separation"]),
            seed=int(d["seed_offset"]) + ecfg.seed,
            jitter=float(d["jitter"]),
            duration=int(cfg["episode"]["sample_duration"]),
            r_max=float(d["r_max"]),
            mode=d["mode"],
        )
    except ValueError as e:
        raise ConfigError(f"synthetic task from data.* and episode.sample_duration: {e}") from None


def _build_net(cfg: dict, seed: int):
    net = build_network(
        cfgmod.topology(cfg),
        cfgmod.neuron_params(cfg),
        cfgmod.readout_params(cfg),
        cfgmod.build_config(cfg, seed),
    )
    if cfg["weights"]["path"]:
        load_weights(net, cfg["weights"]["path"])
    return net


def _setup(cfg: dict, seed: int) -> tuple:
    """One seed's network (weights loaded), ``EpisodeConfig`` and dataset."""
    ecfg = cfgmod.episode_config(cfg, seed)
    return _build_net(cfg, seed), ecfg, _build_dataset(cfg, ecfg)


def _write_manifest(cfg: dict, out: str, extra: dict) -> None:
    manifest = {
        "config_hash": cfgmod.config_hash(cfg),
        "config": cfgmod.reproducible_view(cfg),
        "versions": {
            "spikeshot": __version__,
            "weightfile": FILE_VERSION,
            "events": EVENTS_VERSION,
        },
    }
    manifest.update(extra)
    path = os.path.join(out, "manifest.yaml")
    with open(path, "w") as f:
        yaml.safe_dump(manifest, f, sort_keys=True, default_flow_style=False)


# --- subcommands ----------------------------------------------------------------


def cmd_calibrate(cfg: dict, args) -> int:
    out = _out_dir(cfg)
    report = calibrate_bias(cfgmod.readout_params(cfg), int(cfg["episode"]["calibration_window"]))
    _write_manifest(cfg, out, {"calibration": dataclasses.asdict(report)})
    print(f"calibration: b={report.b!r} b_y1={report.b_y1!r} b_err={report.b_err!r} "
          f"period={report.period!r} n_spikes={report.n_spikes}")
    return EXIT_OK


def cmd_train(cfg: dict, args) -> int:
    seeds = cfgmod.seeds(cfg)
    if args.dry_run:
        for seed in seeds:
            prepare_episode(*_setup(cfg, seed))
        sys.stdout.write(cfgmod.canonical_dump(cfg))
        print(f"config_hash: {cfgmod.config_hash(cfg)}")
        return EXIT_OK
    out = _out_dir(cfg)
    episodes = []
    for seed in seeds:
        net, ecfg, dataset = _setup(cfg, seed)
        report = run_episode(net, ecfg, dataset)
        weights_path = os.path.join(out, f"weights_seed{seed}.ssw")
        save_weights(net, weights_path)
        report_path = os.path.join(out, f"report_seed{seed}.txt")
        text = format_report(report)
        with open(report_path, "w") as f:
            f.write(text)
        episodes.append({
            "seed": seed,
            "train_accuracy": report.train_accuracy,
            "test_accuracy": report.test_accuracy,
            "report": os.path.basename(report_path),
            "weights": os.path.basename(weights_path),
        })
        print(text.splitlines()[-1])  # the report's EPISODE summary line
    cal = report.calibration  # set by the config alone, so every seed's is the same
    _write_manifest(cfg, out, {
        "seeds": seeds,
        "episodes": episodes,
        "calibration": {"b": cal.b, "b_y1": cal.b_y1, "b_err": cal.b_err, "period": cal.period},
    })
    return EXIT_OK


def cmd_eval(cfg: dict, args) -> int:
    if not cfg["weights"]["path"]:
        raise ConfigError("eval needs a weight file (--weights or weights.path)")
    seed = cfgmod.seeds(cfg)[0]
    net, ecfg, dataset = _setup(cfg, seed)
    train, test = split_shots(episode_samples(net, ecfg, dataset), ecfg)
    samples = train if args.split == "train" else test
    counts = evaluate(net, samples)
    correct = sum(classify(c) == s.label for c, s in zip(counts, samples))
    acc = correct / len(samples)
    print(f"EVAL split={args.split} seed={seed} n={len(samples)} accuracy={acc:.6f}")
    return EXIT_OK


def cmd_simulate(cfg: dict, args) -> int:
    seed = cfgmod.seeds(cfg)[0]
    out = _out_dir(cfg)
    samples = read_events(args.events)
    net = _build_net(cfg, seed)
    streams, r = frozen_pass(net, samples), net.readout
    # each sample's p_out, output spikes, v_err and v_out at every step
    steps = np.zeros((len(samples), streams.shape[1], 4, net.n_out))
    for t in readout_steps(r, streams):
        steps[:, t] = np.stack([r.p_out, r.spiked_out, r.v_err, r.v_out], axis=1)
    rasters = []
    for k, (sample, rows) in enumerate(zip(samples, steps)):
        rows = rows[: sample.duration]
        # the trace: a header, then one row per step; each cell lists one variable's values
        lines = [f"# trajectory steps={sample.duration}", f"# label={sample.label}", f"# sample={k}",
                 "# columns: step readout.p_out readout.spikes readout.v_err readout.v_out"]
        lines += [" ".join((str(t), *(",".join(map(repr, v)) for v in row.tolist()))) for t, row in enumerate(rows)]
        rasters.append(LabeledSample(shape=(net.n_out,), duration=sample.duration,
                                     label=sample.label, events=np.argwhere(rows[:, 1])))
        with open(os.path.join(out, f"trace_sample{k}.txt"), "w") as f:
            f.write("\n".join(lines) + "\n")
    raster_path = os.path.join(out, "raster.events")
    write_events(rasters, raster_path)
    print(f"simulated {len(samples)} samples; raster -> {raster_path}")
    return EXIT_OK


def cmd_gen_data(cfg: dict, args) -> int:
    samples = _build_dataset(cfg, cfgmod.episode_config(cfg, cfgmod.seeds(cfg)[0]))
    path = args.out or "synthetic.events"
    write_events(samples, path)
    print(f"wrote {len(samples)} samples -> {path}")
    return EXIT_OK


# --- entry point ------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="spikeshot", description=__doc__)
    parser.add_argument("--version", action="version", version=f"spikeshot {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def subcommand(name: str, func, summary: str, overrides: tuple[str, ...]) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", help="YAML run configuration")
        for flag in overrides:
            p.add_argument(flag, **_OVERRIDES[flag][2])
        p.set_defaults(func=func, overrides=overrides)
        return p

    subcommand("calibrate", cmd_calibrate, "measure the error-neuron baseline", ("--out",))
    p = subcommand("train", cmd_train, "run few-shot episodes and save weights",
                   ("--seed", "--out", "--weights", "--rule"))
    p.add_argument("--dry-run", action="store_true", help="for every seed, build the network and dataset, calibrate "
                   "and parse the rule, as train does before its first step; print the config and its hash")
    p = subcommand("eval", cmd_eval, "plasticity-off evaluation of saved weights", ("--seed", "--weights"))
    p.add_argument("--split", choices=["train", "test"], default="test")
    p = subcommand("simulate", cmd_simulate, "forward-only run over an event file", ("--seed", "--out", "--weights"))
    p.add_argument("--events", required=True, help="input event file")
    p = subcommand("gen-data", cmd_gen_data, "generate a synthetic task event file", ("--seed",))
    p.add_argument("--out", help="event file to write (default: synthetic.events)")

    args = parser.parse_args(argv)
    try:
        return args.func(_apply_overrides(cfgmod.load_config(args.config), args), args)
    except (ConfigError, TopologyError, RuleError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (EventFormatError, DatasetError, WeightFileError, OSError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError as e:  # a size within the config's bounds that this machine cannot allocate
        print(f"config error: out of memory: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except CalibrationError as e:
        print(e, file=sys.stderr)  # its message says it is a calibration failure
        return EXIT_CALIBRATION


if __name__ == "__main__":
    sys.exit(main())
