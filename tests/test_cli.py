"""CLI subcommands: exit codes, manifests, reproducibility."""

import math
import os
import shutil
import subprocess
import sys

import pytest
import yaml

import spikeshot
from spikeshot.cli import main
from spikeshot.config import DEFAULT_CONFIG
from spikeshot.events import read_events

SMALL_CONFIG = """
topology:
  input: "16"
  layers: ["32"]
  output: 3
episode:
  n_way: 3
  k_shot: 2
  sample_duration: 200
  seeds: [0]
data:
  n_per_class: 4
  dim: 16
  separation: 0.8
  jitter: 0.08
  r_max: 0.3
"""


@pytest.fixture
def cfg_file(tmp_path):
    p = tmp_path / "run.yaml"
    p.write_text(SMALL_CONFIG)
    return str(p)


def test_dry_run_prints_hash_and_skips_work(cfg_file, tmp_path, capsys):
    rc = main(["train", "--config", cfg_file, "--dry-run", "--out", str(tmp_path / "o")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "config_hash:" in out
    assert not (tmp_path / "o" / "manifest.yaml").exists()


def test_config_error_exit_code(tmp_path, capsys):
    p = tmp_path / "bad.yaml"
    p.write_text("episode:\n  banana: 1\n")
    assert main(["train", "--config", str(p), "--dry-run"]) == 2
    assert "config error" in capsys.readouterr().err


def test_bad_rule_is_config_error(cfg_file, capsys):
    assert main(["train", "--config", cfg_file, "--rule", "dw = z1", "--dry-run"]) == 2
    rc = main(["train", "--config", cfg_file, "--rule", "dw = z1"])
    assert rc == 2


@pytest.mark.parametrize("rule, message", [
    ("dw = {c}*x1", "placeholder"),
    ("dw = 1e400*x1*y1", "non-finite"),
    ("dw = 1e308*w*y1", "non-finite weight updates"),  # overflows at the first update
])
def test_rule_text_holes_are_config_errors(tmp_path, capsys, rule, message):
    cfg_file = tmp_path / "run.yaml"
    cfg_file.write_text(SMALL_CONFIG + "weights:\n  plastic_init: random\n")  # w-rules see non-zero weights
    rc = main(["train", "--config", str(cfg_file), "--rule", rule, "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err


def test_calibrate_writes_manifest(cfg_file, tmp_path, capsys):
    out = tmp_path / "cal"
    rc = main(["calibrate", "--config", cfg_file, "--out", str(out)])
    assert rc == 0
    assert "calibration: b=" in capsys.readouterr().out
    manifest = yaml.safe_load((out / "manifest.yaml").read_text())
    assert manifest["calibration"]["b"] > 0
    assert manifest["config_hash"]


def test_calibrate_failure_exit_code(tmp_path, capsys):
    p = tmp_path / "c.yaml"
    p.write_text("episode:\n  calibration_window: 100\n")  # ~5 baseline periods of 20 steps; 10 are needed
    rc = main(["calibrate", "--config", str(p), "--out", str(tmp_path / "o")])
    assert rc == 4
    assert "calibration failure" in capsys.readouterr().err


def test_calibrate_deterministic(cfg_file, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["calibrate", "--config", cfg_file, "--out", str(a)]) == 0
    assert main(["calibrate", "--config", cfg_file, "--out", str(b)]) == 0
    assert (a / "manifest.yaml").read_text() == (b / "manifest.yaml").read_text()


def test_train_writes_reports_weights_manifest(cfg_file, tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["train", "--config", cfg_file, "--out", str(out)])
    assert rc == 0
    assert (out / "report_seed0.txt").exists()
    assert (out / "weights_seed0.ssw").exists()
    manifest = yaml.safe_load((out / "manifest.yaml").read_text())
    assert manifest["seeds"] == [0]
    assert manifest["episodes"][0]["test_accuracy"] >= 0.5
    assert "EPISODE seed=0" in capsys.readouterr().out


def test_train_two_runs_byte_identical(cfg_file, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["train", "--config", cfg_file, "--out", str(a)]) == 0
    assert main(["train", "--config", cfg_file, "--out", str(b)]) == 0
    assert (a / "weights_seed0.ssw").read_bytes() == (b / "weights_seed0.ssw").read_bytes()
    assert (a / "report_seed0.txt").read_text() == (b / "report_seed0.txt").read_text()
    assert (a / "manifest.yaml").read_text() == (b / "manifest.yaml").read_text()


def test_eval_reproduces_train_accuracy(cfg_file, tmp_path, capsys):
    out = tmp_path / "run"
    main(["train", "--config", cfg_file, "--out", str(out)])
    report = (out / "report_seed0.txt").read_text()
    train_acc = [l for l in report.splitlines() if l.startswith("train_accuracy:")][0].split()[1]
    rc = main(["eval", "--config", cfg_file, "--weights", str(out / "weights_seed0.ssw"),
               "--split", "train"])
    assert rc == 0
    line = capsys.readouterr().out.strip().splitlines()[-1]
    assert f"accuracy={train_acc}" in line


@pytest.mark.parametrize("n_way, message", [(4, "network has 5 outputs"), (5, "config says n_way=5")])
def test_eval_class_count_must_match_network_and_n_way(tmp_path, capsys, n_way, message):
    five = tmp_path / "five.yaml"
    five.write_text(SMALL_CONFIG.replace("output: 3", "output: 5").replace("n_way: 3", "n_way: 5"))
    assert main(["train", "--config", str(five), "--out", str(tmp_path / "run")]) == 0
    data = tmp_path / "four.events"
    four = tmp_path / "four.yaml"
    four.write_text(SMALL_CONFIG.replace("n_way: 3", "n_way: 4"))
    assert main(["gen-data", "--config", str(four), "--out", str(data)]) == 0
    cfg = tmp_path / "eval.yaml"
    cfg.write_text(SMALL_CONFIG.replace("output: 3", "output: 5").replace("n_way: 3", f"n_way: {n_way}")
                   + f"  kind: file\n  path: {data}\n")
    capsys.readouterr()
    assert main(["eval", "--config", str(cfg), "--weights", str(tmp_path / "run" / "weights_seed0.ssw")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "dataset has 4 classes" in err and message in err


def test_eval_without_weights_is_config_error(cfg_file):
    assert main(["eval", "--config", cfg_file]) == 2


def test_eval_corrupt_weights_is_data_error(cfg_file, tmp_path, capsys):
    out = tmp_path / "run"
    main(["train", "--config", cfg_file, "--out", str(out)])
    data = bytearray((out / "weights_seed0.ssw").read_bytes())
    data[-2] ^= 0x55
    bad = tmp_path / "bad.ssw"
    bad.write_bytes(bytes(data))
    rc = main(["eval", "--config", cfg_file, "--weights", str(bad)])
    assert rc == 3
    assert "data error" in capsys.readouterr().err


def test_gen_data_and_simulate_roundtrip(cfg_file, tmp_path, capsys):
    events_path = tmp_path / "d.events"
    assert main(["gen-data", "--config", cfg_file, "--out", str(events_path)]) == 0
    samples = read_events(events_path)
    assert len(samples) == 12  # 3 classes x 4 per class

    single = tmp_path / "one.events"
    from spikeshot.events import write_events

    write_events(samples[:1], single)
    out = tmp_path / "sim"
    rc = main(["simulate", "--config", cfg_file, "--events", str(single), "--out", str(out)])
    assert rc == 0
    raster = read_events(out / "raster.events")
    assert len(raster) == 1
    assert raster[0].shape == (3,)
    trace = (out / "trace_sample0.txt").read_text()
    assert trace.startswith("# trajectory steps=")


def test_simulate_zero_events_empty_raster(cfg_file, tmp_path):
    from spikeshot.events import LabeledSample, write_events

    empty = tmp_path / "empty.events"
    write_events([LabeledSample(shape=(16,), duration=50, label=0)], empty)
    out = tmp_path / "sim"
    assert main(["simulate", "--config", cfg_file, "--events", str(empty), "--out", str(out)]) == 0
    raster = read_events(out / "raster.events")
    assert raster[0].events.shape == (0, 2)
    # no sample at all: the batched passes run over an empty batch
    none = tmp_path / "none.events"
    none.write_text("")
    assert main(["simulate", "--config", cfg_file, "--events", str(none), "--out", str(tmp_path / "sim0")]) == 0
    assert read_events(tmp_path / "sim0" / "raster.events") == []


@pytest.mark.parametrize("command", ["simulate", "train"])
def test_event_file_for_another_topology_is_data_error(tmp_path, capsys, command):
    from spikeshot.events import LabeledSample, SpikeEvent, write_events

    path = tmp_path / "seven.events"
    write_events([LabeledSample(shape=(7,), duration=20, label=c, events=[SpikeEvent(t=0, neuron=6)])
                  for c in range(3) for _ in range(3)], path)
    cfg = tmp_path / "file.yaml"
    cfg.write_text(SMALL_CONFIG + f"  kind: file\n  path: {path}\n")
    args = ["--events", str(path)] if command == "simulate" else []
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o"), *args]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "7 input channels" in err


@pytest.mark.parametrize("command", ["simulate", "train"])
def test_non_utf8_event_file_is_data_error(tmp_path, capsys, command):
    path = tmp_path / "bad.events"
    path.write_bytes(b"shape=16 duration=20 label=0\n0 1\n3 \xff\xfe\n")
    cfg = tmp_path / "file.yaml"
    cfg.write_text(SMALL_CONFIG + f"  kind: file\n  path: {path}\n")
    args = ["--events", str(path)] if command == "simulate" else []
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o"), *args]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "line 3" in err


@pytest.mark.parametrize("command", [["train"], ["train", "--dry-run"], ["simulate"]],
                         ids=["run", "dry-run", "simulate"])
@pytest.mark.parametrize("duration", [2**32, 10**20, 2**63], ids=["2**32", "10**20", "2**63"])
def test_event_file_duration_past_u32_is_data_error(tmp_path, capsys, command, duration):
    path = tmp_path / "long.events"
    path.write_text("".join(f"shape=16 duration={duration} label={c}\n0 1\n" for c in range(3) for _ in range(4)))
    cfg = tmp_path / "file.yaml"
    cfg.write_text(SMALL_CONFIG + f"  kind: file\n  path: {path}\n")
    args = ["--events", str(path)] if command == ["simulate"] else []
    assert main([*command, "--config", str(cfg), "--out", str(tmp_path / "o"), *args]) == 3
    out, err = capsys.readouterr()
    assert err.startswith(f"data error: sample with label 0: duration {duration} past") and "Traceback" not in out + err


@pytest.mark.parametrize("event", ["99999999999999999999 0", "1.5 0"])
def test_unparsable_event_field_is_data_error(tmp_path, capsys, event):
    path = tmp_path / "bad.events"
    path.write_text(f"shape=16 duration=20 label=0\n0 1\n{event}\n")
    cfg = tmp_path / "file.yaml"
    cfg.write_text(SMALL_CONFIG + f"  kind: file\n  path: {path}\n")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o"), "--events", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "line 3" in err


def test_missing_dataset_file_is_data_error(tmp_path, capsys):
    p = tmp_path / "c.yaml"
    p.write_text("data:\n  kind: file\n  path: /nonexistent/x.events\n")
    assert main(["train", "--config", str(p)]) == 3


@pytest.mark.parametrize("text", [
    b"episode: [1, 2\n",
    b"episode:\n  n_way: 3\n  k_shot: \xff\n",
    b"data: {path: 2024-13-45}\n",  # PyYAML's date constructor raises ValueError
    b"episode: {seeds: [" + b"1" * 4301 + b"]}\n",  # past Python's int-string limit: ValueError
    b"episode: {seeds: " + b"[" * 5000 + b"]" * 5000 + b"}\n",  # RecursionError
], ids=["yaml-syntax", "not-utf8", "month-13", "int-past-digit-limit", "nested-5000-deep"])
def test_malformed_yaml_is_config_error(tmp_path, capsys, text):
    p = tmp_path / "bad.yaml"
    p.write_bytes(text)
    assert main(["train", "--config", str(p), "--dry-run"]) == 2
    assert capsys.readouterr().err.startswith(f"config error: cannot read {p}: ")


@pytest.mark.parametrize("dry_run", [[], ["--dry-run"]], ids=["run", "dry-run"])
@pytest.mark.parametrize("token", ["0a", "0", "0c5z"])
def test_zero_sized_layer_is_config_error(tmp_path, capsys, token, dry_run):
    p = tmp_path / "zero.yaml"
    p.write_text(SMALL_CONFIG.replace('input: "16"', 'input: "4x2x2"').replace('"32"', f'"{token}"'))
    assert main(["train", "--config", str(p), "--out", str(tmp_path / "o"), *dry_run]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("config error:") and "size below 1" in err
    assert "Traceback" not in out + err


@pytest.mark.parametrize("dry_run", [[], ["--dry-run"]], ids=["run", "dry-run"])
@pytest.mark.parametrize("mode", ["3", "striped", "uniform"])  # an old config may still name "uniform"
def test_unknown_data_mode_is_config_error(tmp_path, capsys, mode, dry_run):
    p = tmp_path / "mode.yaml"
    p.write_text(SMALL_CONFIG + f"  mode: {mode}\n")
    assert main(["train", "--config", str(p), "--out", str(tmp_path / "o"), *dry_run]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("config error:") and "data.mode" in err
    assert "Traceback" not in out + err


@pytest.mark.parametrize("command", [["train", "--dry-run"], ["train"], ["eval", "--weights", "w.ssw"],
                                     ["simulate", "--events", "x.events"], ["gen-data"]],
                         ids=["dry-run", "train", "eval", "simulate", "gen-data"])
@pytest.mark.parametrize("old, new", [("output: 3", "output: three"), ("seeds: [0]", "seeds: [x]"),
                                      ("seeds: [0]", "seeds: []"), ("n_way: 3", "n_way: 3.5"),
                                      ("dim: 16", "dim: true"), ("r_max: 0.3", "r_max: high")],
                         ids=["output-word", "seed-word", "no-seeds", "float-n_way", "bool-dim", "word-r_max"])
def test_non_numeric_or_missing_values_are_config_errors(tmp_path, capsys, command, old, new):
    p = tmp_path / "run.yaml"
    p.write_text(SMALL_CONFIG.replace(old, new))
    args = [a if a not in ("w.ssw", "x.events") else str(tmp_path / a) for a in command]
    out = [] if command[0] == "eval" else ["--out", str(tmp_path / "o")]  # eval writes nothing
    assert main([*args, "--config", str(p), *out]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("config error:") and "Traceback" not in out + err


PATH_ARGUMENTS = {"--events": 3, "data.path": 3, "--weights": 3, "--config": 2, "gen-data --out": 3}  # exit codes


@pytest.mark.parametrize("path, code", [(path + bad, code) for bad in ("", " under file", " symlink loop", " long name")
                                        for path, code in PATH_ARGUMENTS.items()])
def test_directory_input_path_is_error(cfg_file, tmp_path, capsys, path, code):
    # a directory where a file is expected, a path under a regular file, a
    # symlink that points at itself (ELOOP) or a 300-character name (ENAMETOOLONG)
    if path.endswith(" under file"):
        path = path.removesuffix(" under file")
        regular = tmp_path / "regular"
        regular.write_text("")
        bad = regular / "x"
    elif path.endswith(" symlink loop"):
        path = path.removesuffix(" symlink loop")
        bad = tmp_path / "loop"
        bad.symlink_to(bad)
    elif path.endswith(" long name"):
        path = path.removesuffix(" long name")
        bad = tmp_path / ("x" * 300)
    else:
        bad = tmp_path / "folder"
        bad.mkdir()
    out = ["--out", str(tmp_path / "o")]
    if path == "--events":
        args = ["simulate", "--config", cfg_file, "--events", str(bad), *out]
    elif path == "data.path":
        cfg = tmp_path / "file.yaml"
        cfg.write_text(SMALL_CONFIG + f"  kind: file\n  path: {bad}\n")
        args = ["train", "--config", str(cfg), *out]
    elif path == "--weights":
        args = ["eval", "--config", cfg_file, "--weights", str(bad)]
    elif path == "gen-data --out":
        args = ["gen-data", "--config", cfg_file, "--out", str(bad)]
    else:
        args = ["train", "--config", str(bad), "--dry-run"]
    assert main(args) == code
    err = capsys.readouterr().err
    assert err.startswith("config error:" if code == 2 else "data error:") and "Traceback" not in err


@pytest.mark.parametrize("path", ["missing --config", "--out file", "--out under file", "output.dir file"])
def test_unusable_config_or_out_path_is_config_error(cfg_file, tmp_path, capsys, path):
    regular = tmp_path / "regular"
    regular.write_text("")
    if path == "missing --config":
        args = ["train", "--config", str(tmp_path / "missing.yaml"), "--dry-run"]
    elif path == "output.dir file":
        cfg = tmp_path / "out.yaml"
        cfg.write_text(SMALL_CONFIG + f"output:\n  dir: {regular}\n")
        args = ["calibrate", "--config", str(cfg)]
    else:
        out = regular / "sub" if path == "--out under file" else regular
        args = ["calibrate", "--config", cfg_file, "--out", str(out)]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err


NOT_A_PATH = {"3": 3, "true": True, "1.5": 1.5}  # 3 would open file descriptor 3 if it reached open()
PATH_KEY_COMMANDS = [(key, command) for key in ("data.path", "weights.path", "output.dir")
                     for command in (("train",), ("train", "--dry-run"))] + [("output.dir", ("calibrate",))]


@pytest.mark.parametrize("value", NOT_A_PATH.values(), ids=list(NOT_A_PATH))
@pytest.mark.parametrize("key, command", PATH_KEY_COMMANDS, ids=[f"{k}-{' '.join(c)}" for k, c in PATH_KEY_COMMANDS])
def test_path_key_that_is_not_a_string_is_config_error(tmp_path, monkeypatch, capsys, key, command, value):
    monkeypatch.chdir(tmp_path)  # where a run would write if output.dir were dropped
    section, leaf = key.split(".")
    cfg = _small_config_with(tmp_path, {section: {leaf: value, **({"kind": "file"} if section == "data" else {})}})
    out = [] if section == "output" else ["--out", str(tmp_path / "o")]  # --out would replace output.dir
    assert main([*command, "--config", cfg, *out]) == 2
    stdout, err = capsys.readouterr()
    assert err.startswith(f"config error: config.{key}: expected a path") and "Traceback" not in stdout + err
    assert [p.name for p in tmp_path.iterdir()] == ["changed.yaml"]  # nothing written


def test_seed_flag_overrides_seed_list(cfg_file, tmp_path):
    out = tmp_path / "s7"
    assert main(["train", "--config", cfg_file, "--seed", "7", "--out", str(out)]) == 0
    manifest = yaml.safe_load((out / "manifest.yaml").read_text())
    assert manifest["seeds"] == [7]
    assert (out / "report_seed7.txt").exists()


def test_each_seed_of_a_run_writes_what_it_writes_alone(tmp_path):
    p = tmp_path / "multi.yaml"
    p.write_text(SMALL_CONFIG.replace("seeds: [0]", "seeds: [0, 1]"))
    both = tmp_path / "both"
    assert main(["train", "--config", str(p), "--out", str(both)]) == 0
    for seed in (0, 1):
        alone = tmp_path / f"alone{seed}"
        assert main(["train", "--config", str(p), "--seed", str(seed), "--out", str(alone)]) == 0
        for name in (f"report_seed{seed}.txt", f"weights_seed{seed}.ssw"):
            assert (both / name).read_bytes() == (alone / name).read_bytes()


@pytest.mark.parametrize("config", [SMALL_CONFIG, SMALL_CONFIG.replace("n_way: 3", "n_way: 3\n  m_pretrained: 2")],
                         ids=["few-shot", "m-plus-n"])
@pytest.mark.filterwarnings("ignore:frozen weights carry no pretraining provenance")  # M+N on random features
def test_train_on_the_generated_event_file_writes_what_synthetic_train_writes(tmp_path, config):
    # the path that recorded event files take: gen-data writes seed 0's task, and train reads it back
    synthetic, events = tmp_path / "synthetic.yaml", tmp_path / "task.events"
    synthetic.write_text(config)
    assert main(["gen-data", "--config", str(synthetic), "--seed", "0", "--out", str(events)]) == 0
    from_file = tmp_path / "file.yaml"
    from_file.write_text(config + f"  kind: file\n  path: {events}\n")
    for name, cfg in (("synthetic", synthetic), ("file", from_file)):
        assert main(["train", "--config", str(cfg), "--seed", "0", "--out", str(tmp_path / name)]) == 0
    for name in ("weights_seed0.ssw", "report_seed0.txt"):
        assert (tmp_path / "synthetic" / name).read_bytes() == (tmp_path / "file" / name).read_bytes()


@pytest.mark.parametrize("command", [["train"], ["train", "--dry-run"], ["eval", "--weights", "w.ssw"], ["gen-data"]],
                         ids=["run", "dry-run", "eval", "gen-data"])
def test_negative_m_pretrained_is_config_error(tmp_path, capsys, command):
    p = tmp_path / "run.yaml"
    p.write_text(SMALL_CONFIG.replace("n_way: 3", "n_way: 3\n  m_pretrained: -1"))
    out = [] if command[0] == "eval" else ["--out", str(tmp_path / "o")]  # eval writes nothing
    assert main([*command, "--config", str(p), *out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "m_pretrained must be >= 0" in err


def test_env_var_default_out_dir(cfg_file, tmp_path, monkeypatch):
    target = tmp_path / "envout"
    monkeypatch.setenv("SPIKESHOT_OUT", str(target))
    assert main(["calibrate", "--config", cfg_file]) == 0
    assert (target / "manifest.yaml").exists()


@pytest.mark.parametrize("dry_run", [[], ["--dry-run"]], ids=["run", "dry-run"])
@pytest.mark.parametrize("flags, old, new, message", [
    (["--seed", "-1"], "seeds: [0]", "seeds: [0]", "config.episode.seeds"),
    ([], "seeds: [0]", "seeds: [0, -3]", "config.episode.seeds"),
    ([], "r_max: 0.3", "r_max: 0.3\n  seed_offset: -20000", "config.data.seed_offset"),
], ids=["--seed", "episode.seeds", "data.seed_offset"])
def test_negative_seed_is_config_error(tmp_path, capsys, dry_run, flags, old, new, message):
    p = tmp_path / "run.yaml"
    p.write_text(SMALL_CONFIG.replace(old, new))
    assert main(["train", "--config", str(p), "--out", str(tmp_path / "o"), *flags, *dry_run]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("config error:") and message in err and "Traceback" not in out + err


@pytest.mark.parametrize("command", [["train"], ["train", "--dry-run"], ["calibrate"]],
                         ids=["run", "dry-run", "calibrate"])
def test_readout_tau_u_not_below_tau_v_is_config_error(tmp_path, capsys, command):
    p = tmp_path / "run.yaml"
    # tau_v stays 16 in the first; in the second the two decays round to one float
    for taus in ("{tau_u: 20.0}", "{tau_u: 1.0e+15, tau_v: 1.0000001e+15}"):
        p.write_text(SMALL_CONFIG + f"readout: {taus}\n")
        assert main([*command, "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        out, err = capsys.readouterr()
        assert err.startswith("config error: readout:") and "tau_v > tau_u" in err and "Traceback" not in out + err


def _small_config_with(tmp_path, changes: dict) -> str:
    """SMALL_CONFIG with ``{section: {key: value}}`` changes, written to a file;
    a section given as a non-mapping replaces the section."""
    cfg = yaml.safe_load(SMALL_CONFIG)
    for section, block in changes.items():
        cfg[section] = {**cfg.get(section, {}), **block} if isinstance(block, dict) else block
    p = tmp_path / "changed.yaml"
    p.write_text(yaml.safe_dump(cfg))
    return str(p)


CONFIG_VALUE_ERRORS = {  # values that a component refuses, each checked where its typed view is built
    "weights.plastic_init": "foo",
    "weights.frozen_init_lo": -200,
    "learning.learn_period": 0,
    "episode.sample_duration": -1,
    "data.r_max": 0,
    "data.separation": 0,
    "data.jitter": -1,
}


@pytest.mark.parametrize("dry_run", [[], ["--dry-run"]], ids=["run", "dry-run"])
@pytest.mark.parametrize("key, value", CONFIG_VALUE_ERRORS.items(), ids=list(CONFIG_VALUE_ERRORS))
def test_refused_value_is_config_error_naming_its_key(tmp_path, capsys, key, value, dry_run):
    section, leaf = key.split(".")
    cfg = _small_config_with(tmp_path, {section: {leaf: value}})
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "o"), *dry_run]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("config error:") and leaf in err and "Traceback" not in out + err


def _numeric_keys(block=DEFAULT_CONFIG, path=()):
    """Every numeric key of the default config."""
    for key, ref in block.items():
        if isinstance(ref, dict):
            yield from _numeric_keys(ref, path + (key,))
        elif isinstance(ref, (int, float)) and not isinstance(ref, bool):
            yield path + (key,)


# numeric keys that were removed: a config from an old manifest that still sets one ends in exit 2, "unknown key"
REMOVED_KEYS = (("neuron", "tau_r"), ("readout", "tau_r"), ("readout", "b_out"), ("readout", "y1_tau"),
                ("readout", "y1_increment"), ("readout", "b_err"), ("weights", "frozen_scale_exp"))
SWEPT_KEYS = list(_numeric_keys()) + list(REMOVED_KEYS)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", SWEPT_KEYS, ids=".".join)
def test_non_finite_number_is_config_error(tmp_path, capsys, key, value):
    section, leaf = key
    cfg = _small_config_with(tmp_path, {section: {leaf: value}})
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "o"), "--dry-run"]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("config error:") and ".".join(key) in err and "Traceback" not in out + err
    assert ("unknown key" in err) == (key in REMOVED_KEYS)


PREFIXES = {2: "config error:", 3: "data error:", 4: "calibration failure:"}
PROBED_CONFIGS = {  # each refused before the first step: (changes, exit code)
    **{key: ({key.split(".")[0]: {key.split(".")[1]: value}}, 2) for key, value in CONFIG_VALUE_ERRORS.items()},
    "rule-400-parentheses": ({"learning": {"rule": "dw = " + "(" * 400 + "x1" + ")" * 400}}, 2),
    "rule-2000-unary-minus": ({"learning": {"rule": "dw = " + "-" * 2000 + "x1"}}, 2),
    "episode.k_shot": ({"episode": {"k_shot": 9}}, 3),  # 4 samples per class
    "data.dim": ({"data": {"dim": 0}}, 2),  # no prototypes can be placed
    "data.separation-unplaceable": ({"data": {"separation": 10}}, 2),  # 3 prototypes 10 apart in [0, 1]**16
    "weights.path-missing": ({"weights": {"path": "missing.ssw"}}, 3),
    "rule-dangling-plus": ({"learning": {"rule": "dw = x1 +"}}, 2),
    "episode.calibration_window": ({"episode": {"calibration_window": 0}}, 4),
    "data.kind-bogus": ({"data": {"kind": "bogus"}}, 2),  # unknown data.kind
    "data.kind-file-without-path": ({"data": {"kind": "file"}}, 2),
    "neuron-not-a-mapping": ({"neuron": 5}, 2),
    "conv-on-flat-input": ({"topology": {"input": "32", "layers": ["4c3z"]}}, 2),  # needs an HxWxC input
}


@pytest.mark.parametrize("changes, code", PROBED_CONFIGS.values(), ids=list(PROBED_CONFIGS))
def test_dry_run_refuses_what_train_refuses(tmp_path, monkeypatch, capsys, changes, code):
    monkeypatch.chdir(tmp_path)  # the missing weight file is relative to it
    cfg = _small_config_with(tmp_path, changes)
    for flags, out_dir in (([], "run"), (["--dry-run"], "dry-run")):
        assert main(["train", "--config", cfg, "--out", str(tmp_path / out_dir), *flags]) == code
        out, err = capsys.readouterr()
        assert err.startswith(PREFIXES[code]) and err.count(PREFIXES[code]) == 1
        assert "Traceback" not in out + err
    assert not (tmp_path / "dry-run").exists()  # the dry run writes nothing


CONFIG_VALUES_PAST_THEIR_RANGE = {  # (section, key, value): exit code under train and --dry-run, words of its error
    "weights.plastic_scale_exp=200": ("weights", "plastic_scale_exp", 200, 2, "plastic_scale_exp"),  # a file i8
    "weights.plastic_scale_exp=-129": ("weights", "plastic_scale_exp", -129, 2, "plastic_scale_exp"),
    "learning.lr_exp=1023": ("learning", "lr_exp", 1023, 0, None),  # the largest finite 2.0**lr_exp
    "learning.lr_exp=1024": ("learning", "lr_exp", 1024, 2, "lr_exp"),  # 2.0**1024 overflows
    "weights.frozen_init_lo=-128": ("weights", "frozen_init_lo", -128, 0, None),  # the int8 minimum
    "weights.frozen_init_lo=-129": ("weights", "frozen_init_lo", -129, 2, "frozen_init_lo"),
    "readout.tau_v=1e17": ("readout", "tau_v", 1.0e17, 2, "tau_v"),  # exp(-1/tau_v) rounds to 1
    "readout.target_period=-1": ("readout", "target_period", -1, 2, "target_period"),
    "readout.target_period=0": ("readout", "target_period", 0, 0, None),  # no label drive
    "neuron.v_th=10**19": ("neuron", "v_th", 10**19, 0, None),  # a float key, past int64 if read as an integer
    "readout.v_th=10**19": ("readout", "v_th", 10**19, 0, None),
    "topology.input=1.5": ("topology", "input", 1.5, 2, "topology.input"),
    "topology.input=true": ("topology", "input", True, 2, "topology.input"),
    "topology.input=null": ("topology", "input", None, 2, "topology.input"),
    "topology.input=10**19": ("topology", "input", 10**19, 2, "u32"),  # past the weight file's dimensions
    "topology.output=10**19": ("topology", "output", 10**19, 2, "u32"),
    # a key whose default is a string takes only a string (topology.input also takes an integer)
    **{f"{section}.{key}={value}": (section, key, value, 2, f"config.{section}.{key}: expected a string")
       for section, key, value in (("learning", "rule", 3), ("learning", "rule", None), ("learning", "rule", True),
                                   ("data", "kind", 3), ("data", "mode", 3), ("weights", "plastic_init", 3))},
    # counts one past the weight file's u32 sizes: refused at load, before anything runs
    **{f"{section}.{key}=2**32": (section, key, 2**32, 2, f"{section}.{key}") for section, key in (
        ("data", "n_per_class"), ("episode", "n_way"), ("episode", "m_pretrained"), ("episode", "epochs"),
        ("episode", "calibration_window"), ("episode", "sample_duration"), ("readout", "baseline_period"))},
}


@pytest.mark.parametrize("dry_run", [[], ["--dry-run"]], ids=["run", "dry-run"])
@pytest.mark.parametrize("section, key, value, code, words", CONFIG_VALUES_PAST_THEIR_RANGE.values(),
                         ids=list(CONFIG_VALUES_PAST_THEIR_RANGE))
def test_config_value_past_its_range_ends_without_traceback(tmp_path, capsys, section, key, value, code, words,
                                                            dry_run):
    cfg = _small_config_with(tmp_path, {section: {key: value}})
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "o"), *dry_run]) == code
    out, err = capsys.readouterr()
    assert "Traceback" not in out + err
    if code:
        assert err.startswith("config error:") and words in err


SWEPT_VALUES = {"0": 0, "-1": -1, "1e300": 1e300, "10**19": 10**19, "2**63": 2**63}  # 2**63 is past int64


@pytest.mark.parametrize("value", SWEPT_VALUES.values(), ids=list(SWEPT_VALUES))
@pytest.mark.parametrize("key", SWEPT_KEYS, ids=".".join)
def test_numeric_value_trains_or_ends_in_an_exit_code(tmp_path, capsys, key, value):
    # short samples and calibration keep each run short, unless the swept key is one of them
    changes = {"episode": {"sample_duration": 40, "calibration_window": 400}}
    section, leaf = key
    changes.setdefault(section, {})[leaf] = value
    code = main(["train", "--config", _small_config_with(tmp_path, changes), "--out", str(tmp_path / "o")])
    out, err = capsys.readouterr()
    assert code in (0, *PREFIXES) and "Traceback" not in out + err
    if code:
        assert err.startswith(PREFIXES[code])
    assert ("unknown key" in err) == (key in REMOVED_KEYS)


def test_integer_input_shape_runs_as_its_string(tmp_path):
    runs = {}
    for name, value in (("text", "16"), ("number", 16)):
        runs[name] = tmp_path / name
        cfg = _small_config_with(tmp_path, {"topology": {"input": value}})
        assert main(["train", "--config", cfg, "--out", str(runs[name])]) == 0
    for name in ("weights_seed0.ssw", "report_seed0.txt"):
        assert (runs["text"] / name).read_bytes() == (runs["number"] / name).read_bytes()


UNREAD_FLAGS = [("calibrate", "--seed", "3"), ("calibrate", "--weights", "w.ssw"), ("calibrate", "--rule", "dw = x1"),
                ("eval", "--out", "o"), ("eval", "--rule", "dw = x1"), ("simulate", "--rule", "dw = x1"),
                ("gen-data", "--weights", "w.ssw"), ("gen-data", "--rule", "dw = x1")]


@pytest.mark.parametrize("command, flag, value", UNREAD_FLAGS, ids=[f"{c} {f}" for c, f, _ in UNREAD_FLAGS])
def test_flag_a_subcommand_does_not_read_is_usage_error(cfg_file, tmp_path, monkeypatch, capsys, command, flag,
                                                         value):
    monkeypatch.chdir(tmp_path)  # where calibrate and gen-data would write by default
    monkeypatch.delenv("SPIKESHOT_OUT", raising=False)
    required = {"eval": ["--weights", "w.ssw"], "simulate": ["--events", "x.events"]}.get(command, [])
    with pytest.raises(SystemExit) as exit_:
        main([command, "--config", cfg_file, *required, flag, value])
    assert exit_.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["run.yaml"]  # nothing written


def test_seed_flag_of_gen_data_and_simulate_is_a_seed_list_of_one(tmp_path):
    # random plastic weights, drawn from the seed, carry the frozen layers' spikes to simulate's trace
    zero, seven = tmp_path / "zero.yaml", tmp_path / "seven.yaml"
    zero.write_text(SMALL_CONFIG + "weights:\n  plastic_init: random\n")
    seven.write_text(zero.read_text().replace("seeds: [0]", "seeds: [7]"))
    events = tmp_path / "d.events"
    assert main(["gen-data", "--config", str(zero), "--out", str(events)]) == 0
    outputs = {}
    for name, cfg, flags in (("flag", str(zero), ["--seed", "7"]), ("list", str(seven), []), ("zero", str(zero), [])):
        data, sim = tmp_path / f"{name}.events", tmp_path / f"sim-{name}"
        assert main(["gen-data", "--config", cfg, "--out", str(data), *flags]) == 0
        assert main(["simulate", "--config", cfg, "--events", str(events), "--out", str(sim), *flags]) == 0
        outputs[name] = data.read_bytes(), (sim / "trace_sample0.txt").read_bytes()
    assert outputs["flag"] == outputs["list"]
    assert all(a != b for a, b in zip(outputs["flag"], outputs["zero"]))


def _capped_main(*args: str) -> subprocess.CompletedProcess:
    """The CLI in a subprocess whose address space is capped at 4 GiB, so
    that no run starts a real TiB allocation."""
    limit = 4 << 30
    code = (f"import resource, sys; resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit})); "
            "from spikeshot.cli import main; sys.exit(main(sys.argv[1:]))")
    src = os.path.dirname(os.path.dirname(spikeshot.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize("topology, words", [
    ({"input": "4294967295"}, "TiB"),  # ~1 TiB of weights to draw
    ({"input": "4294967295", "layers": ["4294967295"]}, "numpy's largest array"),
], ids=["past-memory", "past-numpy"])
def test_oversized_network_is_config_error(tmp_path, topology, words):
    cfg = _small_config_with(tmp_path, {"topology": topology})
    proc = _capped_main("train", "--dry-run", "--config", cfg)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("config error:") and words in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", ["train", "eval", "simulate"])
def test_event_file_too_large_to_hold_is_data_error(tmp_path, cfg_file, command):
    # durations within the u32 bound, but 12 samples' streams of 32 spikes would take 1.5 TiB
    # (eval steps only the 6 test samples); only the capped subprocess may run this
    path = tmp_path / "huge.events"
    path.write_text("".join(f"shape=16 duration=4294967295 label={c}\n0 1\n" for c in range(3) for _ in range(4)))
    cfg = tmp_path / "file.yaml"
    cfg.write_text(SMALL_CONFIG + f"  kind: file\n  path: {path}\n")
    args = {"train": ["--out", str(tmp_path / "o")], "simulate": ["--out", str(tmp_path / "o"), "--events", str(path)]}
    if command == "eval":
        assert main(["train", "--config", cfg_file, "--out", str(tmp_path / "w")]) == 0
        args["eval"] = ["--weights", str(tmp_path / "w" / "weights_seed0.ssw")]
    proc = _capped_main(command, "--config", str(cfg), *args[command])
    assert proc.returncode == 3, proc.stderr
    n = 6 if command == "eval" else 12
    assert proc.stderr.startswith(f"data error: the streams of {n} samples of up to 4294967295 steps do not fit")
    assert "Traceback" not in proc.stderr


def test_paths_with_a_non_utf8_byte_run_as_ascii_paths(cfg_file, tmp_path):
    assert main(["train", "--config", cfg_file, "--out", str(tmp_path / "first")]) == 0
    plain = tmp_path / "w.ssw"
    shutil.copy(tmp_path / "first" / "weights_seed0.ssw", plain)
    odd = tmp_path / os.fsdecode(b"w\xff.ssw")  # the byte as Python decodes it from argv
    shutil.copy(plain, odd)
    runs = {}
    for name, weights, out in (("ascii", plain, "ascii"), ("odd", odd, os.fsdecode(b"out\xff"))):
        runs[name] = tmp_path / out
        assert main(["train", "--config", cfg_file, "--weights", str(weights), "--out", str(runs[name])]) == 0
    for name in ("weights_seed0.ssw", "report_seed0.txt"):
        assert (runs["ascii"] / name).read_bytes() == (runs["odd"] / name).read_bytes()
    text = (runs["odd"] / "manifest.yaml").read_text(encoding="ascii")
    assert "\\uDCFF" in text
    assert yaml.safe_load(text)["config"]["weights"]["path"] == str(odd)  # a path that opens the same file
