"""Golden digest: `train` on the shipped config must reproduce these bytes.

The reruns-agree check (acceptance criterion 9) cannot see a change that
moves every run the same way. These digests pin the outputs themselves, so
a refactor either keeps them or announces new ones together with the
acceptance accuracies before and after.
"""

import hashlib
from pathlib import Path

from spikeshot.cli import main

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "fewshot.yaml"

GOLDEN_SHA256 = {
    "weights_seed0.ssw": "a5602061531e0e0c5564742a40be3160b6492830d7dd278ac6f70c0fb935594e",
    "report_seed0.txt": "2f63d6829f823dbcecd179785183ecdfe51518a974fcc0fdffa437c39afd68c1",
    "manifest.yaml": "e87ad3f2d20d45f3daf5429488ef17668ac6d57387fbac1089ac8757a108bb61",
}


def test_train_outputs_match_golden_digest(tmp_path):
    assert main(["train", "--config", str(CONFIG), "--seed", "0", "--out", str(tmp_path)]) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in GOLDEN_SHA256}
    assert digests == GOLDEN_SHA256
