"""CLI subcommands: exit codes, manifests, reproducibility."""

import pytest
import yaml

from spikeshot.cli import main
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
    assert main(["train", "--config", cfg_file, "--rule", "dw = z1", "--dry-run"]) == 0
    # rule is parsed during the run, not during dry-run
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
    p.write_text("readout:\n  b_err: 0.0\n")
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


@pytest.mark.parametrize("text", [b"episode: [1, 2\n", b"episode:\n  n_way: 3\n  k_shot: \xff\n"],
                         ids=["yaml-syntax", "not-utf8"])
def test_malformed_yaml_is_config_error(tmp_path, capsys, text):
    p = tmp_path / "bad.yaml"
    p.write_bytes(text)
    assert main(["train", "--config", str(p), "--dry-run"]) == 2
    assert capsys.readouterr().err.startswith("config error:")


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
@pytest.mark.parametrize("mode", ["3", "striped"])
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
    assert main([*args, "--config", str(p), "--out", str(tmp_path / "o")]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("config error:") and "Traceback" not in out + err


@pytest.mark.parametrize("path, code", [
    ("--events", 3), ("data.path", 3), ("--weights", 3), ("--config", 2), ("gen-data --out", 3),
    ("--events under file", 3), ("data.path under file", 3), ("--weights under file", 3),
    ("--config under file", 2), ("gen-data --out under file", 3),
])
def test_directory_input_path_is_error(cfg_file, tmp_path, capsys, path, code):
    # a directory where a file is expected, or a path under a regular file
    if path.endswith(" under file"):
        path = path.removesuffix(" under file")
        regular = tmp_path / "regular"
        regular.write_text("")
        bad = regular / "x"
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


def test_seed_flag_overrides_seed_list(cfg_file, tmp_path):
    out = tmp_path / "s7"
    assert main(["train", "--config", cfg_file, "--seed", "7", "--out", str(out)]) == 0
    manifest = yaml.safe_load((out / "manifest.yaml").read_text())
    assert manifest["seeds"] == [7]
    assert (out / "report_seed7.txt").exists()


def test_parallel_episodes_matches_sequential(cfg_file, tmp_path):
    cfg_text = SMALL_CONFIG.replace("seeds: [0]", "seeds: [0, 1]")
    p = tmp_path / "multi.yaml"
    p.write_text(cfg_text)
    seq, par = tmp_path / "seq", tmp_path / "par"
    assert main(["train", "--config", str(p), "--out", str(seq)]) == 0
    assert main(["train", "--config", str(p), "--out", str(par), "--parallel-episodes", "2"]) == 0
    for name in ("report_seed0.txt", "report_seed1.txt", "weights_seed0.ssw", "weights_seed1.ssw", "manifest.yaml"):
        assert (seq / name).read_bytes() == (par / name).read_bytes()


def test_negative_parallel_episodes_is_usage_error(tmp_path, capsys):
    p = tmp_path / "multi.yaml"
    p.write_text(SMALL_CONFIG.replace("seeds: [0]", "seeds: [0, 1]"))
    with pytest.raises(SystemExit) as exit_:
        main(["train", "--config", str(p), "--out", str(tmp_path / "o"), "--parallel-episodes", "-1"])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert "--parallel-episodes: expected an integer >= 0" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", [["train"], ["train", "--dry-run"], ["eval", "--weights", "w.ssw"], ["gen-data"]],
                         ids=["run", "dry-run", "eval", "gen-data"])
def test_negative_m_pretrained_is_config_error(tmp_path, capsys, command):
    p = tmp_path / "run.yaml"
    p.write_text(SMALL_CONFIG.replace("n_way: 3", "n_way: 3\n  m_pretrained: -1"))
    assert main([*command, "--config", str(p), "--out", str(tmp_path / "o")]) == 2
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
    p.write_text(SMALL_CONFIG + "readout:\n  tau_u: 20.0\n")  # tau_v stays 16
    assert main([*command, "--config", str(p), "--out", str(tmp_path / "o")]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("config error: readout:") and "tau_v > tau_u" in err and "Traceback" not in out + err
