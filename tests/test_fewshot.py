"""Episode harness: splits, classification, episode mechanics, M+N."""

import numpy as np
import pytest

from spikeshot.dynamics import NeuronParams
from spikeshot.events import gen_synthetic_task
from spikeshot.fewshot import (
    DatasetError,
    EpisodeConfig,
    classify,
    evaluate,
    episode_samples,
    format_report,
    run_episode,
    split_shots,
)
from spikeshot.network import BuildConfig, build_network, parse_topology
from spikeshot.readout import ReadoutParams
from spikeshot.weightio import load_weights, save_weights

NEURON = NeuronParams(tau_u=8, tau_v=16, bias=-0.2)
READOUT = ReadoutParams(neuron=NeuronParams(tau_u=8, tau_v=16))


def small_cfg(**kw):
    defaults = dict(n_way=3, k_shot=2, seed=0, calibration_window=1200)
    defaults.update(kw)
    return EpisodeConfig(**defaults)


def small_dataset(seed=100, n_classes=3, n_per_class=4, dim=16, duration=200):
    return gen_synthetic_task(n_classes, n_per_class, dim, separation=0.8, seed=seed,
                              jitter=0.08, duration=duration, r_max=0.3)


def small_net(seed=0, dim=16, hidden=32, n_out=3):
    topo = parse_topology(str(dim), [str(hidden)], n_out)
    return build_network(topo, NEURON, READOUT, BuildConfig(seed=seed))


def test_config_validation():
    with pytest.raises(ValueError):
        EpisodeConfig(n_way=1, k_shot=1)
    with pytest.raises(ValueError):
        EpisodeConfig(n_way=2, k_shot=0)
    with pytest.raises(ValueError):
        EpisodeConfig(n_way=2, k_shot=1, epochs=0)
    with pytest.raises(ValueError, match="m_pretrained"):
        EpisodeConfig(n_way=2, k_shot=1, m_pretrained=-1)


def test_split_counts_n_times_k():
    cfg = small_cfg(n_way=3, k_shot=2)
    train, test = split_shots(small_dataset(), cfg)
    assert len(train) == 6
    assert len(test) == 6
    train_ids, test_ids = {id(s) for s in train}, {id(s) for s in test}
    assert not (train_ids & test_ids)


def test_split_k1_two_classes_of_two():
    data = small_dataset(n_classes=2, n_per_class=2)
    cfg = EpisodeConfig(n_way=2, k_shot=1, seed=3)
    train, test = split_shots(data, cfg)
    assert len(train) == 2 and len(test) == 2


def test_split_deterministic_per_seed():
    data = small_dataset()
    cfg = small_cfg(seed=5)
    a = split_shots(data, cfg)
    b = split_shots(data, cfg)
    assert [id(s) for s in a[0]] == [id(s) for s in b[0]]
    other = split_shots(data, small_cfg(seed=6, k_shot=2))
    assert [id(s) for s in a[0]] != [id(s) for s in other[0]]


def test_split_insufficient_samples():
    data = small_dataset(n_per_class=2)
    with pytest.raises(DatasetError, match="k_shot"):
        split_shots(data, small_cfg(k_shot=2))


def test_classify_argmax_and_ties():
    assert classify([3, 9, 9, 1]) == 1
    assert classify([0, 0, 0]) == 0
    assert classify([0, 5, 0]) == 1
    with pytest.raises(ValueError):
        classify([])
    with pytest.raises(ValueError):
        classify([1, -2])


def test_zero_weight_no_training_chance_via_tiebreak():
    # untrained zero plastic layer: proximal silent, all-zero counts resolve
    # to class 0, so accuracy equals the class-0 share of the test set
    net = small_net()
    data = small_dataset()
    cfg = small_cfg(k_shot=1, rule="dw = 0", lr_exp=0)
    report = run_episode(net, cfg, data)
    assert report.all_zero_fraction == 1.0
    n_test = report.confusion.sum()
    class0_share = report.confusion[0].sum() / n_test
    assert report.test_accuracy == pytest.approx(class0_share)
    assert report.test_accuracy == pytest.approx(1 / 3, abs=1e-9)


def test_episode_learns_separable_task():
    net = small_net()
    report = run_episode(net, small_cfg(), small_dataset())
    assert report.test_accuracy >= 0.8
    assert report.train_accuracy >= 0.8
    assert report.weights.any()


def test_repeat_same_seed_identical_report():
    r1 = run_episode(small_net(), small_cfg(), small_dataset())
    r2 = run_episode(small_net(), small_cfg(), small_dataset())
    assert r1.test_accuracy == r2.test_accuracy
    assert np.array_equal(r1.confusion, r2.confusion)
    assert np.array_equal(r1.weights, r2.weights)
    assert format_report(r1) == format_report(r2)


def test_accuracies_recomputable_from_confusion():
    report = run_episode(small_net(), small_cfg(), small_dataset())
    assert report.test_accuracy == pytest.approx(np.trace(report.confusion) / report.confusion.sum())
    assert report.train_accuracy == pytest.approx(
        np.trace(report.train_confusion) / report.train_confusion.sum()
    )
    # confusion rows sum to per-class test counts
    _, test = split_shots(small_dataset(), small_cfg())
    per_class = np.bincount([s.label for s in test], minlength=3)
    assert np.array_equal(report.confusion.sum(axis=1), per_class)


def test_evaluation_does_not_mutate_weights():
    net = small_net()
    report = run_episode(net, small_cfg(), small_dataset())
    snapshot = net.readout.store.weights.tobytes()
    data = small_dataset()
    _, test = split_shots(data, small_cfg())
    evaluate(net, test)
    assert net.readout.store.weights.tobytes() == snapshot
    del report


def test_dataset_class_count_must_match():
    with pytest.raises(DatasetError):
        run_episode(small_net(), small_cfg(n_way=4), small_dataset())
    with pytest.raises(DatasetError):
        run_episode(small_net(n_out=4), small_cfg(), small_dataset())


def test_rule_text_without_placeholder_works():
    net = small_net()
    cfg = small_cfg(rule="dw = -0.5*(y1*(x2 - x1) + 0.8*(x1 - x2))")
    report = run_episode(net, cfg, small_dataset())
    assert 0.0 <= report.test_accuracy <= 1.0


def test_format_report_layout():
    report = run_episode(small_net(), small_cfg(), small_dataset())
    text = format_report(report)
    assert text.startswith("spikeshot episode report\n")
    assert "test confusion (rows=true, cols=predicted):" in text
    assert text.rstrip().split("\n")[-1].startswith("EPISODE seed=0 n_way=3 k_shot=2")


def test_mplusn_single_novel_class_rejected():
    # two pretraining classes leave one novel class, fewer than n_way >= 2
    with pytest.warns(UserWarning), pytest.raises(DatasetError, match="1 novel classes"):
        run_episode(small_net(), small_cfg(m_pretrained=2), small_dataset())


def test_mplusn_n_way_must_count_the_novel_classes():
    # 6 classes less 2 pretraining ones are 4 novel classes, not n_way=3
    with pytest.warns(UserWarning), pytest.raises(DatasetError, match="4 novel classes, config says n_way=3"):
        run_episode(small_net(), small_cfg(m_pretrained=2), small_dataset(n_classes=6))


def test_episode_samples_drop_pretraining_classes_and_share_events():
    data = small_dataset(n_classes=5)
    with pytest.warns(UserWarning, match="provenance"):
        samples = episode_samples(small_net(), small_cfg(m_pretrained=2), data)
    novel = [s for s in data if s.label >= 2]
    assert [s.label for s in samples] == [s.label - 2 for s in novel]
    assert all(np.shares_memory(a.events, b.events) for a, b in zip(samples, novel))


def test_mplusn_trains_on_novel_classes_only(tmp_path):
    # 6-class dataset: classes 0-2 belong to pretraining, 3-5 are novel
    data = small_dataset(n_classes=6)
    net = small_net()
    net.provenance = "pretrain-classes=0,1,2"
    save_weights(net, tmp_path / "w.ssw")
    load_weights(net, tmp_path / "w.ssw")
    report = run_episode(net, small_cfg(m_pretrained=3), data)
    assert report.n_way == 3
    assert report.m_pretrained == 3
    assert report.confusion.shape == (3, 3)


def test_mplusn_missing_provenance_warns():
    data = small_dataset(n_classes=6)
    net = small_net()  # provenance says random-init, no pretrain marker
    with pytest.warns(UserWarning, match="provenance"):
        run_episode(net, small_cfg(m_pretrained=3), data)


def test_mplusn_mismatched_provenance_warns(tmp_path):
    data = small_dataset(n_classes=6)
    for provenance in ("pretrain-classes=7,8", "pretrain-classes="):  # the second names no class
        net = small_net()
        net.provenance = provenance
        save_weights(net, tmp_path / "w.ssw")
        load_weights(net, tmp_path / "w.ssw")
        with pytest.warns(UserWarning, match="declare"):
            run_episode(net, small_cfg(m_pretrained=3), data)


def test_mplusn_resets_plastic_weights():
    data = small_dataset(n_classes=6)
    net = small_net()
    shape = net.readout.store.shape
    net.readout.store.weights = np.where(np.indices(shape).sum(axis=0) % 2, 55, -55)
    with pytest.warns(UserWarning):
        report = run_episode(net, small_cfg(m_pretrained=3), data)
    with pytest.warns(UserWarning):
        fresh = run_episode(small_net(), small_cfg(m_pretrained=3), data)
    # weights were zeroed before training, so the report snapshot reflects
    # only what the novel shots taught: the same as from a fresh network
    assert report.weights.max() < 55 or report.weights.min() > -55
    assert np.array_equal(report.weights, fresh.weights)


def test_epochs_repeat_presentation():
    r1 = run_episode(small_net(), small_cfg(epochs=1), small_dataset())
    r3 = run_episode(small_net(), small_cfg(epochs=3), small_dataset())
    assert not np.array_equal(r1.weights, r3.weights)
