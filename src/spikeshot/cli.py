"""Command-line entry point.

Subcommands: calibrate, train, eval, simulate, gen-data. A run is driven by
one YAML config (defaults apply when omitted); selected flags override the
file. Every simulating run writes a manifest carrying the canonical config,
its hash, the seeds and format versions, which is enough to reproduce the
run bit-exactly.

Exit codes: 0 success, 2 config error, 3 data/weights error, 4 calibration
failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from unittest import mock

import numpy as np
import yaml

from . import __version__, config as cfgmod
from .config import ConfigError
from .events import (
    EventFormatError,
    LabeledSample,
    SeparationError,
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
    readout_steps,
    run_episode,
    split_shots,
    worker_blas_env,
)
from .network import TopologyError, build_network
from .readout import CalibrationError, calibrate_bias, solve_baseline_bias
from .ruledsl import RuleError
from .weightio import FILE_VERSION, WeightFileError, load_weights, save_weights

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_CALIBRATION = 4

EVENTS_VERSION = 1


def _out_dir(cfg: dict, override: str | None) -> str:
    out = override or cfg["output"]["dir"] or os.environ.get("SPIKESHOT_OUT") or "."
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as e:  # names a regular file, or lies under one
        raise ConfigError(f"cannot make output directory {out}: {e}") from None
    return out


def _apply_overrides(cfg: dict, args) -> dict:
    if getattr(args, "seed", None) is not None:
        cfg["episode"]["seeds"] = [int(args.seed)]
    if getattr(args, "rule", None):
        cfg["learning"]["rule"] = args.rule
    if getattr(args, "weights", None):
        cfg["weights"]["path"] = args.weights
    if getattr(args, "out", None):
        cfg["output"]["dir"] = args.out
    return cfg


def _build_dataset(cfg: dict, ecfg: EpisodeConfig) -> list[LabeledSample]:
    d = cfg["data"]
    if d["kind"] == "file":
        if not d["path"]:
            raise ConfigError("data.kind is 'file' but data.path is unset")
        return read_events(d["path"])
    if d["kind"] != "synthetic":
        raise ConfigError(f"unknown data.kind {d['kind']!r}")
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


def _train_one(cfg: dict, seed: int, out: str):
    ecfg = cfgmod.episode_config(cfg, seed)
    net = _build_net(cfg, seed)
    report = run_episode(net, ecfg, _build_dataset(cfg, ecfg))
    weights_path = os.path.join(out, f"weights_seed{seed}.ssw")
    save_weights(net, weights_path)
    return report, weights_path


def _write_manifest(cfg: dict, out: str, extra: dict) -> str:
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
    return path


# --- subcommands ----------------------------------------------------------------


def cmd_calibrate(args) -> int:
    cfg = _apply_overrides(cfgmod.load_config(args.config), args)
    out = _out_dir(cfg, args.out)
    params = cfgmod.readout_params(cfg)
    b_err = params.b_err if params.b_err is not None else solve_baseline_bias(params)
    report = calibrate_bias(params, b_err, int(cfg["episode"]["calibration_window"]))
    _write_manifest(cfg, out, {
        "calibration": {
            "b": report.b,
            "b_y1": report.b_y1,
            "b_err": report.b_err,
            "period": report.period,
            "window": report.window,
            "n_spikes": report.n_spikes,
        },
    })
    print(f"calibration: b={report.b!r} b_y1={report.b_y1!r} b_err={report.b_err!r} "
          f"period={report.period!r} n_spikes={report.n_spikes}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _apply_overrides(cfgmod.load_config(args.config), args)
    if args.dry_run:
        # a config that train refuses before any work is refused here too
        cfgmod.seeds(cfg)
        cfgmod.topology(cfg)
        cfgmod.neuron_params(cfg)
        cfgmod.readout_params(cfg)
        cfgmod.episode_config(cfg, 0)
        sys.stdout.write(cfgmod.canonical_dump(cfg))
        print(f"config_hash: {cfgmod.config_hash(cfg)}")
        return EXIT_OK
    out = _out_dir(cfg, args.out)
    seeds = cfgmod.seeds(cfg)
    results = []
    if args.parallel_episodes and len(seeds) > 1:
        # spawned workers load their own BLAS; forked ones keep this one's, on all CPUs
        n = args.parallel_episodes
        with mock.patch.dict(os.environ, worker_blas_env(n)), ProcessPoolExecutor(n, get_context("spawn")) as pool:
            futures = [pool.submit(_train_one, cfg, s, out) for s in seeds]
            results = [f.result() for f in futures]
    else:
        results = [_train_one(cfg, s, out) for s in seeds]
    episodes = []
    for (report, weights_path), seed in zip(results, seeds):
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
    cal = results[0][0].calibration
    _write_manifest(cfg, out, {
        "seeds": seeds,
        "episodes": episodes,
        "calibration": {"b": cal.b, "b_y1": cal.b_y1, "b_err": cal.b_err, "period": cal.period},
    })
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = _apply_overrides(cfgmod.load_config(args.config), args)
    if not cfg["weights"]["path"]:
        raise ConfigError("eval needs a weight file (--weights or weights.path)")
    seed = cfgmod.seeds(cfg)[0]
    ecfg = cfgmod.episode_config(cfg, seed)
    net = _build_net(cfg, seed)
    train, test = split_shots(episode_samples(net, ecfg, _build_dataset(cfg, ecfg)), ecfg)
    samples = train if args.split == "train" else test
    counts = evaluate(net, samples)
    correct = sum(classify(c) == s.label for c, s in zip(counts, samples))
    acc = correct / len(samples)
    print(f"EVAL split={args.split} seed={seed} n={len(samples)} accuracy={acc:.6f}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg = _apply_overrides(cfgmod.load_config(args.config), args)
    seed = cfgmod.seeds(cfg)[0]
    out = _out_dir(cfg, args.out)
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


def cmd_gen_data(args) -> int:
    cfg = _apply_overrides(cfgmod.load_config(args.config), args)
    samples = _build_dataset(cfg, cfgmod.episode_config(cfg, cfgmod.seeds(cfg)[0]))
    path = args.out or "synthetic.events"
    write_events(samples, path)
    print(f"wrote {len(samples)} samples -> {path}")
    return EXIT_OK


# --- entry point ------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", help="YAML run configuration")
    p.add_argument("--seed", type=int, help="override the episode seed list with one seed")
    p.add_argument("--out", help="output directory (default: $SPIKESHOT_OUT or .)")
    p.add_argument("--weights", help="weight file to load")
    p.add_argument("--rule", help="override the learning rule text")


def _count(text: str) -> int:
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return int(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="spikeshot", description=__doc__)
    parser.add_argument("--version", action="version", version=f"spikeshot {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("calibrate", help="measure the error-neuron baseline")
    _add_common(p)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("train", help="run few-shot episodes and save weights")
    _add_common(p)
    p.add_argument("--dry-run", action="store_true", help="validate config and exit")
    p.add_argument("--parallel-episodes", type=_count, default=0, metavar="N",
                   help="run independent seeds across N worker processes, each with max(1, CPUs // N) "
                        "BLAS threads by default; each steps a large frozen pass in one thread per CPU "
                        "that its BLAS leaves free, so up to N x CPUs threads run")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="plasticity-off evaluation of saved weights")
    _add_common(p)
    p.add_argument("--split", choices=["train", "test"], default="test")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("simulate", help="forward-only run over an event file")
    _add_common(p)
    p.add_argument("--events", required=True, help="input event file")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("gen-data", help="generate a synthetic task event file")
    _add_common(p)
    p.set_defaults(func=cmd_gen_data)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, TopologyError, RuleError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (EventFormatError, DatasetError, WeightFileError, SeparationError,
            FileNotFoundError, IsADirectoryError, NotADirectoryError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except CalibrationError as e:
        print(f"calibration failure: {e}", file=sys.stderr)
        return EXIT_CALIBRATION


if __name__ == "__main__":
    sys.exit(main())
