"""Config loading, validation, hashing."""

import pytest
import yaml

from spikeshot.config import (
    ConfigError,
    canonical_dump,
    config_hash,
    episode_config,
    load_config,
    merge_config,
    neuron_params,
    readout_params,
    topology,
)
from spikeshot.network import KIND_PLASTIC


def test_defaults_load_without_file():
    cfg = load_config(None)
    assert cfg["episode"]["n_way"] == 5
    assert topology(cfg).layers[-1].kind == KIND_PLASTIC


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        merge_config({"episode": {"n_way": 3, "banana": 1}})
    with pytest.raises(ConfigError, match="unknown key"):
        merge_config({"turbo": True})
    # keys that were removed: a config that still sets one is refused, not ignored
    for section, key, value in (("neuron", "tau_r", 16.0), ("readout", "tau_r", 16.0), ("readout", "b_out", 0.5),
                                ("readout", "y1_tau", 16.0), ("readout", "y1_increment", 1.0),
                                ("readout", "b_err", 1.5), ("weights", "frozen_scale_exp", -6)):
        with pytest.raises(ConfigError, match=rf"config\.{section}\.{key}: unknown key"):
            merge_config({section: {key: value}})


def test_partial_file_merges_over_defaults(tmp_path):
    p = tmp_path / "c.yaml"
    p.write_text("episode:\n  n_way: 3\n  k_shot: 1\n")
    cfg = load_config(p)
    assert cfg["episode"]["n_way"] == 3
    assert cfg["episode"]["sample_duration"] == 300  # default retained


def test_bad_scalar_types_rejected():
    with pytest.raises(ConfigError):
        merge_config({"neuron": {"tau_u": [1, 2]}})
    with pytest.raises(ConfigError):
        merge_config({"topology": {"layers": "64"}})


@pytest.mark.parametrize("block, message", [
    ({"topology": {"output": "three"}}, "integer"),
    ({"episode": {"seeds": [0, "x"]}}, "integer"),
    ({"episode": {"k_shot": True}}, "integer"),
    ({"episode": {"sample_duration": 30.0}}, "integer"),
    ({"data": {"separation": "wide"}}, "number"),
    ({"neuron": {"v_th": True}}, "number"),  # a bool is not a number
    ({"readout": {"w_tgt": "x"}}, "number"),
])
def test_numbers_must_be_numbers(block, message):
    with pytest.raises(ConfigError, match=message):
        merge_config(block)


def test_numbers_and_optional_values_accepted():
    cfg = merge_config({"neuron": {"tau_u": 8}, "readout": {"w_tgt": 3}, "data": {"path": "x.events"},
                        "episode": {"seeds": [3, -1]}})
    assert cfg["readout"]["w_tgt"] == 3 and cfg["episode"]["seeds"] == [3, -1]
    assert cfg["data"]["path"] == "x.events"
    assert merge_config({"weights": {"path": None}})["weights"]["path"] is None


def test_typed_views_validate_values():
    cfg = merge_config({"neuron": {"tau_u": 0.1}})
    with pytest.raises(ConfigError):
        neuron_params(cfg)
    cfg = merge_config({"readout": {"w_tgt": -1.0}})
    with pytest.raises(ConfigError):
        readout_params(cfg)
    cfg = merge_config({"episode": {"n_way": 1}})
    with pytest.raises(ConfigError):
        episode_config(cfg, 0)


def test_hash_stable_and_sensitive():
    a = merge_config(None)
    b = merge_config(None)
    assert config_hash(a) == config_hash(b)
    c = merge_config({"episode": {"k_shot": 1}})
    assert config_hash(a) != config_hash(c)


def test_canonical_dump_is_sorted_yaml():
    text = canonical_dump(merge_config(None))
    parsed = yaml.safe_load(text)
    assert parsed["episode"]["n_way"] == 5
    keys = [line.split(":")[0] for line in text.splitlines() if line and not line.startswith(" ")]
    assert keys == sorted(keys)


def test_non_mapping_file_rejected(tmp_path):
    p = tmp_path / "c.yaml"
    p.write_text("- 1\n- 2\n")
    with pytest.raises(ConfigError):
        load_config(p)


def test_episode_config_carries_learning_block():
    cfg = merge_config({"learning": {"lr_exp": 5, "learn_period": 2}})
    ecfg = episode_config(cfg, 7)
    assert ecfg.lr_exp == 5
    assert ecfg.learn_period == 2
    assert ecfg.seed == 7
    assert ecfg.target_period == cfg["readout"]["target_period"]
