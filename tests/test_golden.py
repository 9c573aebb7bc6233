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
"""

import hashlib
from pathlib import Path

import yaml

from spikeshot.cli import main

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "fewshot.yaml"

GOLDEN_SHA256 = {
    "weights_seed0.ssw": "a5602061531e0e0c5564742a40be3160b6492830d7dd278ac6f70c0fb935594e",
    "report_seed0.txt": "2f63d6829f823dbcecd179785183ecdfe51518a974fcc0fdffa437c39afd68c1",
    "manifest.yaml": "e87ad3f2d20d45f3daf5429488ef17668ac6d57387fbac1089ac8757a108bb61",
}

W_RULE = "dw = -1*(y1*(x2 - x1) + {b}*(x1 - x2)) - 0.1*w*y1*x2"

W_RULE_GOLDEN_SHA256 = {
    "weights_seed0.ssw": "2204f6efc201400256b8ba34138293da67648dc160545f427577a80313e626e4",
    "report_seed0.txt": "5752353451f6c1bbaa74620590de102f90c32fb5f0cae80a7edb7015530cf050",
    "manifest.yaml": "7f2fbee14fafc3c3feea92b9ae744c35242f659bded3509bd7aa1649b1931ce7",
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
    "weights_seed0.ssw": "804397ef0eb4c46e8e9f8c1bdf035777d87ed34ef0afd145791b2b67d113fe8a",
    "report_seed0.txt": "cb3d386a8dd0562d4ca0fa2f10ec08f737f7235c099b53e92eda1ad8161096f8",
    "manifest.yaml": "d9264b7ed29f65fe7f68229581083e5e043aa29a80233113db29bf42ce88fde3",
}


def _train_digests(config: Path, out: Path) -> dict[str, str]:
    assert main(["train", "--config", str(config), "--seed", "0", "--out", str(out)]) == 0
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in GOLDEN_SHA256}


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
