"""Golden digest: `train` on the shipped config must reproduce these bytes.

The reruns-agree check (acceptance criterion 9) cannot see a change that
moves every run the same way. These digests pin the outputs themselves, so
a refactor either keeps them or announces new ones together with the
acceptance accuracies before and after.

The second case adds a weight-dependent term to the shipped rule and trains
three epochs, so the rule's ``w`` products and the weights carried across
epochs are pinned too.

The third case runs a pool -> conv -> pool stack on synthetic 8x8x2 input.
Its frozen layers spike at about 21%, 6% and 7%, and every test sample
leaves a non-zero readout count, so the conv contraction of spikes and the
pooling of counts and of spikes all reach the pinned bytes.

The fourth case is M+N transfer through the CLI: ``m_pretrained: 2`` drops
the first two of five synthetic classes and learns the other three on three
outputs. It pins ``train``'s outputs and the ``EVAL`` line of ``eval`` on
the trained weights; noisy data keeps both accuracies below 1, so a sample
scored against the wrong output moves the line.

The last case pins ``simulate``, the one output that dumps the readout's
plasticity-off state at every step (``v_err``, ``v_out``, ``p_out`` and the
output spikes); the ``train`` digests see that step only through spike
counts. Random plastic weights at ``2**-3`` make every sample's readout
spike.
"""

import hashlib
from pathlib import Path

import pytest
import yaml

from spikeshot.cli import main
from spikeshot.events import read_events

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "fewshot.yaml"

GOLDEN_SHA256 = {
    "weights_seed0.ssw": "0749fef4f67579995645f67a80a683e4a9fc253da65c065bca40fa8ca3b6595d",
    "report_seed0.txt": "2f63d6829f823dbcecd179785183ecdfe51518a974fcc0fdffa437c39afd68c1",
    "manifest.yaml": "1ac392e3703b5f8af9cd9d4510b07db3276d079ecc36370965b3e706c2483e65",
}

W_RULE = "dw = -1*(y1*(x2 - x1) + {b}*(x1 - x2)) - 0.1*w*y1*x2"

W_RULE_GOLDEN_SHA256 = {
    "weights_seed0.ssw": "871bc47da0b80c91853dcdc18422f3639c0dfff5ebf1b349e40950d354481421",
    "report_seed0.txt": "5752353451f6c1bbaa74620590de102f90c32fb5f0cae80a7edb7015530cf050",
    "manifest.yaml": "684badaf8e1fcc379907b00e004e3572ef9b069c8d72588e3f4af4c83df3d2f6",
}


CONV_CONFIG = {
    "topology": {"input": "8x8x2", "layers": ["2a", "8c3z", "2a"], "output": 3},
    "neuron": {"tau_u": 4.0, "tau_v": 8.0, "v_th": 0.25, "bias": 0.0},
    "readout": {"tau_u": 4.0, "tau_v": 8.0, "baseline_period": 10, "target_period": 2},
    "learning": {"lr_exp": -2},
    "episode": {"n_way": 3, "k_shot": 2, "sample_duration": 60, "seeds": [0], "calibration_window": 400},
    "weights": {"frozen_init_lo": -64, "frozen_init_hi": 64},
    "data": {"n_per_class": 4, "dim": 128, "r_max": 0.3},
}

CONV_GOLDEN_SHA256 = {
    "weights_seed0.ssw": "9a243cd35b06f3a9670edff99c93307363d56be53948d10ee82d2d3ab542bcb7",
    "report_seed0.txt": "cb3d386a8dd0562d4ca0fa2f10ec08f737f7235c099b53e92eda1ad8161096f8",
    "manifest.yaml": "709c294d9957c3bbaa8b5877eb25cfeb4e455b29e586a5bf49e6bb250dc2957c",
}


MPLUSN_CHANGES = {
    "topology": {"output": 3},
    "episode": {"n_way": 3, "m_pretrained": 2, "k_shot": 3},
    "data": {"separation": 0.5, "jitter": 0.6},
}

MPLUSN_GOLDEN_SHA256 = {
    "weights_seed0.ssw": "a0ec52784c7661cfc560dee3625e5b624902e9c76b4062c7a63cce8017548fe5",
    "report_seed0.txt": "816953f4f5e15bd27b0925ecf0eb749e14cd1e18d3a05ef285d49f94950ac072",
    "manifest.yaml": "385a23f9d230755fd41a51864a3735de270b8c1ee84c3fa0b3fa0d5f4f6b86a4",
}

MPLUSN_EVAL_LINE = "EVAL split=test seed=0 n=18 accuracy=0.611111"


SIMULATE_GOLDEN_SHA256 = {
    "raster.events": "cfb1bb7966fc8619509866593bb31ba38a5585b5a170771288717533891f0b76",
    "trace_sample0.txt": "ff1af3875a6465b50ca5695eb4932581bf57c1b7710d8bea44e1453af67576fd",
    "trace_sample1.txt": "ecb5b86c40be723a3fa32739919f91e079284d15d671beae869317e57e369381",
    "trace_sample2.txt": "88e483f714c12401553819e19b36a59baf1d514e1301f8244f75964670e45279",
    "trace_sample3.txt": "4e8ed08a36dd92e53d0c17264647776ed8aede5c874d6c3272bc329b62cd7a07",
    "trace_sample4.txt": "524c7e365facde9a20d65558c68391d9b6b956a723a25a879170e713d6f5c802",
}


def _digests(directory: Path, names) -> dict[str, str]:
    return {name: hashlib.sha256((directory / name).read_bytes()).hexdigest() for name in names}


def _train_digests(config: Path, out: Path) -> dict[str, str]:
    assert main(["train", "--config", str(config), "--seed", "0", "--out", str(out)]) == 0
    return _digests(out, GOLDEN_SHA256)


def test_train_outputs_match_golden_digest(tmp_path):
    assert _train_digests(CONFIG, tmp_path) == GOLDEN_SHA256


def test_w_rule_three_epochs_match_golden_digest(tmp_path):
    cfg = yaml.safe_load(CONFIG.read_text())
    cfg["learning"]["rule"] = W_RULE
    cfg["episode"]["epochs"] = 3
    config = tmp_path / "w_rule.yaml"
    config.write_text(yaml.safe_dump(cfg))
    assert _train_digests(config, tmp_path / "out") == W_RULE_GOLDEN_SHA256


def test_conv_stack_matches_golden_digest(tmp_path):
    config = tmp_path / "conv.yaml"
    config.write_text(yaml.safe_dump(CONV_CONFIG))
    out = tmp_path / "out"
    assert _train_digests(config, out) == CONV_GOLDEN_SHA256
    report = (out / "report_seed0.txt").read_text()
    assert "all_zero_fraction: 0.000000" in report


def test_m_plus_n_train_and_eval_match_golden(tmp_path, capsys):
    cfg = yaml.safe_load(CONFIG.read_text())
    for section, values in MPLUSN_CHANGES.items():
        cfg[section].update(values)
    config = tmp_path / "mplusn.yaml"
    config.write_text(yaml.safe_dump(cfg))
    out = tmp_path / "out"
    # the random frozen weights name no pretraining classes: train and eval both warn
    with pytest.warns(UserWarning, match="provenance"):
        assert _train_digests(config, out) == MPLUSN_GOLDEN_SHA256
    capsys.readouterr()
    with pytest.warns(UserWarning, match="provenance"):
        assert main(["eval", "--config", str(config), "--seed", "0", "--weights", str(out / "weights_seed0.ssw")]) == 0
    assert capsys.readouterr().out.strip() == MPLUSN_EVAL_LINE


def test_simulate_outputs_match_golden_digest(tmp_path):
    cfg = yaml.safe_load(CONFIG.read_text())
    cfg["episode"]["sample_duration"] = 100
    cfg["data"]["n_per_class"] = 1  # one sample per class: 5 samples
    cfg["weights"] = {"plastic_init": "random", "plastic_scale_exp": -3}
    config = tmp_path / "simulate.yaml"
    config.write_text(yaml.safe_dump(cfg))
    data, out = tmp_path / "data.events", tmp_path / "out"
    assert main(["gen-data", "--config", str(config), "--seed", "0", "--out", str(data)]) == 0
    assert main(["simulate", "--config", str(config), "--seed", "0", "--events", str(data), "--out", str(out)]) == 0
    assert all(len(s.events) for s in read_events(out / "raster.events"))
    assert _digests(out, SIMULATE_GOLDEN_SHA256) == SIMULATE_GOLDEN_SHA256
