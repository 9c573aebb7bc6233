"""Few-shot episode harness: N-way K-shot training and evaluation.

An episode selects K labeled samples per class for training, presents each
once (per epoch) with label spikes routed to the matching readout neuron and
plasticity enabled, then evaluates with plasticity off and no labels.
Classification is the argmax of proximal spike counts, ties resolved to the
lowest index. Neuron states and traces are zeroed between samples; weights
persist. Everything is derived from the episode seed.

``prepare_episode`` does all that precedes the first step; ``train --dry-run``
runs it too. Only the readout learns, so the stepping runs in three phases:

1. Frozen pass. Every sample, train and test, goes through the frozen
   layers once, samples stepped together along a leading batch axis. The
   batch is cut into contiguous sample groups, one per usable CPU that the
   BLAS does not already run on. A lone group steps in the calling thread;
   with more, group 0 steps there and the rest at the same time in a
   ``concurrent.futures`` thread pool, each on its own copy of the layer
   state; numpy releases the interpreter lock inside the contractions and
   elementwise loops that make up a step. A group must
   hold at least ``GROUP_GRAIN`` neuron updates per step, so the desk
   stacks run as one group, and conv-dvs128's nine samples as two on two
   CPUs with a one-thread BLAS. Each step's input counts come from one
   time-sorted index of the group's event arrays, into which a leading
   pool's window sum is folded: the pool then only filters. The readout's
   input spike streams are cached, ``[B, T, fan_in]``.
2. Training. ``ReadoutLayer.train`` runs an epoch's training samples in
   their shuffled order, one after another, since the weights carry over;
   it reads each sample's cached stream in place. What no weight reaches is
   computed ahead of the steps over whole stretches of the sample: the
   pre-synaptic filters and x traces, the rule's constant-times-x factors,
   the rounding uniforms and the label drive. Each step then runs only the
   drive, the distal compartment, one advance of a stack of the y traces
   and the reset term, and one stacked evaluation of the rule, over
   buffers, views and methods bound once per ``train`` call, so a step
   allocates and looks up nothing. The proximal compartment is not stepped.
3. Evaluation. ``readout_steps`` steps every stream at once with plasticity
   off and no label drive. ``spikeshot eval`` and ``simulate`` run phases 1
   and 3 too, so every subcommand runs one forward implementation.

Each sample's trajectory is bit-identical to stepping it alone, in any
batch and so in any group. Frozen layers contract int8 weights with integer
counts in float64, or with 0/1 spikes in float32 up to a fan-in of
``network.F32_EXACT_FAN_IN``; both sum exactly in any order, so one
contraction over a whole batch gives each sample's bits; so does the
readout's plasticity-off contraction, in float64; training sums a rule's
products with one reduction over the stacked products, which adds them
left to right; all else is elementwise. Samples shorter than the batch's
longest are padded, with silent steps up to their group's longest and with
zero streams after it, and their spike counts are read at their own last
step; the dynamics are causal, so the padding never reaches them.

M+N transfer is the same episode with ``m_pretrained`` = M > 0 (see
``EpisodeConfig``). ``episode_samples`` is the one place that decides an
episode's classes and labels each sample with its output neuron, for
training and for ``spikeshot eval`` alike.
"""

from __future__ import annotations

import copy
import math
import os
import re
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .events import LabeledSample
from .network import PoolLayer
from .readout import CalibrationReport, ReadoutLayer
from .ruledsl import RuleError, SumOfProductsRule, parse_rule

DEFAULT_RULE = "dw = -1*(y1*(x2 - x1) + {b}*(x1 - x2))"


class DatasetError(ValueError):
    """Dataset does not fit the episode configuration."""


@dataclass(frozen=True)
class EpisodeConfig:
    """Protocol parameters of one few-shot task.

    ``m_pretrained`` = M counts the dataset's first classes, in sorted order,
    on which the frozen features are taken to be pretrained: the episode
    drops them and learns the ``n_way`` classes that remain, on a reset
    plastic layer. M = 0 is a plain N-way episode on every class.
    """

    n_way: int
    k_shot: int
    m_pretrained: int = 0
    epochs: int = 1
    seed: int = 0
    rule: str = DEFAULT_RULE
    lr_exp: int = 3
    learn_period: int = 1
    target_period: int = 4
    calibration_window: int = 1200

    def __post_init__(self):
        if self.n_way < 2:
            raise ValueError("n_way must be >= 2")
        if self.k_shot < 1:
            raise ValueError("k_shot must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.m_pretrained < 0:
            raise ValueError("m_pretrained must be >= 0")
        if self.learn_period < 1:
            raise ValueError("learn_period must be >= 1")
        if self.target_period < 0:  # 0 means no label drive
            raise ValueError(f"target_period must be >= 0, got {self.target_period}")
        if self.lr_exp > 1023:
            raise ValueError(f"lr_exp must be <= 1023 for 2**lr_exp to be a finite float, got {self.lr_exp}")


@dataclass
class EpisodeReport:
    """Everything measured in one episode; accuracies are recomputable from
    the stored confusion matrices."""

    seed: int
    n_way: int
    k_shot: int
    m_pretrained: int
    train_accuracy: float
    test_accuracy: float
    train_confusion: np.ndarray
    confusion: np.ndarray
    all_zero_fraction: float
    calibration: CalibrationReport
    weights: np.ndarray


def _episode_rngs(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    kids = np.random.SeedSequence(seed).spawn(2)
    return np.random.default_rng(kids[0]), np.random.default_rng(kids[1])


def split_shots(dataset: list[LabeledSample], cfg: EpisodeConfig) -> tuple[list[LabeledSample], list[LabeledSample]]:
    """Seeded K-per-class train selection; the remainder is the test set."""
    split_rng, _ = _episode_rngs(cfg.seed)
    by_class: dict[int, list[LabeledSample]] = {}
    for s in dataset:
        by_class.setdefault(s.label, []).append(s)
    classes = sorted(by_class)
    train, test = [], []
    for c in classes:
        pool = by_class[c]
        if len(pool) < cfg.k_shot + 1:
            raise DatasetError(
                f"class {c} has {len(pool)} samples; need at least k_shot+1 = {cfg.k_shot + 1}"
            )
        picks = set(split_rng.choice(len(pool), size=cfg.k_shot, replace=False).tolist())
        for i, s in enumerate(pool):
            (train if i in picks else test).append(s)
    return train, test


def classify(spike_counts) -> int:
    """Argmax of per-neuron spike counts; ties break to the lowest index."""
    counts = np.asarray(spike_counts)
    if counts.size == 0:
        raise ValueError("cannot classify empty spike counts")
    if counts.min() < 0:
        raise ValueError("spike counts must be non-negative")
    return int(np.argmax(counts))


def _event_index(samples: list[LabeledSample], net) -> tuple[np.ndarray, np.ndarray, int]:
    """Time-major index of the samples' events into a step's ``[B, n]`` input.

    Step t's events are ``flat[bounds[t]:bounds[t + 1]]``, each the flat
    position ``b * n + neuron`` with n the input size; when the first frozen
    layer is a pool, the pooled neuron whose window holds it, with n the
    pool's size, so that a step's bincount is the pool's window sums. All
    samples' event arrays are joined in sample order and sorted stably by
    time, so within a step the events keep their sample order and each
    sample's own order.
    """
    n_t = max((s.duration for s in samples), default=0)
    t, neuron = np.concatenate([np.empty((0, 2), np.int64)] + [s.events for s in samples]).T
    n = net.n_in
    if net.layers and isinstance(net.layers[0], PoolLayer):
        neuron, n = net.layers[0].pool_index(neuron), math.prod(net.layers[0].spec.out_shape)
    owner = np.repeat(np.arange(len(samples)), [len(s.events) for s in samples])
    order = np.argsort(t, kind="stable")
    return (owner * n + neuron)[order], np.searchsorted(t[order], np.arange(n_t + 1)), n


def _check_input_size(net, samples: list[LabeledSample]):
    """Raise DatasetError unless every sample has the network's input size."""
    for k, s in enumerate(samples):
        if s.size != net.n_in:
            raise DatasetError(
                f"sample {k} (label {s.label}) has {s.size} input channels; the network expects {net.n_in}"
            )


# The fewest neuron updates per step worth a sample group of its own. On a
# 2-core Xeon VM with one BLAS thread, two groups of the conv-dvs128 stack
# ran 5-25% slower than one at 65,536 updates each, broke even near 98,304,
# and ran 25-40% faster from 131,072 on: in smaller groups the interpreter
# work between numpy calls, which holds the lock, outweighs the split.
GROUP_GRAIN = 2**17

# Where the BLAS reads its thread count, first match wins. Left unset, the
# BLAS runs every call on all CPUs, and groups would only contend with it:
# on that VM two groups took up to 1.8x as long as one for the conv-dvs128 pass.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")


def _group_count(net, n_b: int) -> int:
    """How many sample groups the frozen pass steps at once: one per usable
    CPU that the BLAS leaves free, at most one per sample, and each at least
    ``GROUP_GRAIN`` neuron updates per step."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    values = [os.environ.get(var, "") for var in _BLAS_THREAD_VARS]
    blas = [int(v) for v in values if v.isdigit() and int(v) > 0]
    updates = n_b * sum(math.prod(layer.spec.out_shape) for layer in net.layers)
    return max(1, min(cpus // blas[0] if blas else 1, n_b, updates // GROUP_GRAIN))


def _step_group(layers, index, out: np.ndarray):
    """Step ``layers``, reset to a batch of ``len(out)``, over one group's
    event index, writing the readout's input at step t to ``out[:, t]``."""
    flat, bounds, n = index
    for t in range(len(bounds) - 1):
        # integer counts: a duplicate event counts twice, as in to_dense
        x = np.bincount(flat[bounds[t] : bounds[t + 1]], minlength=len(out) * n).astype(np.float64)
        for layer in layers:
            x = layer.step(x)
        out[:, t] = x.reshape(len(out), -1)


def frozen_pass(net, samples: list[LabeledSample]) -> np.ndarray:
    """The readout's input streams of all samples, ``[B, T, fan_in]``.

    One batched pass through the frozen layers; T is the longest duration.
    A stream past its sample's duration is padding and is never read. The
    streams are spikes (bool), or input counts when there is no frozen layer.

    The batch is cut into contiguous sample groups (``_group_count``).
    Group 0 steps ``net.layers`` in the calling thread; groups 1… step at
    the same time in a thread pool, each on shallow copies of the layers
    with their own state. The first error of a group reaches the caller,
    and no thread outlives the call. The copies share the read-only
    weights, and each group writes only its own samples' streams. Every
    sample follows its own bits in any batch, so the split never changes a
    stream.
    """
    _check_input_size(net, samples)
    n_b, n_t = len(samples), max((s.duration for s in samples), default=0)
    # zeroed: a group shorter than the batch leaves its tail unwritten, and evaluation steps over it
    try:  # the first allocation that the data file sizes
        streams = np.zeros((n_b, n_t, net.readout.fan_in), dtype=bool if net.layers else np.float64)
    except MemoryError as e:
        raise DatasetError(f"the streams of {n_b} samples of up to {n_t} steps do not fit in memory: {e}") from None
    n_g = _group_count(net, n_b)
    cuts = [g * n_b // n_g for g in range(n_g + 1)]
    indices = [_event_index(samples[a:b], net) for a, b in zip(cuts, cuts[1:])]  # all before any layer state
    net.reset_state(batch=cuts[1])
    if n_g == 1:
        _step_group(net.layers, indices[0], streams)
        return streams
    # imported here only: its logging import costs every one-group run 0.25-0.4 MB resident
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(n_g - 1, thread_name_prefix="frozen-pass") as pool:
        futures = []
        for g in range(1, n_g):
            stack = [copy.copy(layer) for layer in net.layers]
            for layer in stack:
                layer.reset_state(batch=cuts[g + 1] - cuts[g])  # new state arrays: only the weights are shared
            futures.append(pool.submit(_step_group, stack, indices[g], streams[cuts[g] : cuts[g + 1]]))
        _step_group(net.layers, indices[0], streams[: cuts[1]])
        for future in futures:
            future.result()  # a worker's error, re-raised here; leaving the block joins every worker
    return streams


def readout_steps(readout: ReadoutLayer, streams: np.ndarray):
    """Step the readout from zero state over cached streams, ``[B, T, fan_in]``,
    all at once with plasticity off and no labels, yielding each step t once
    the state holds it; a row past its sample's duration holds padding."""
    readout.reset_state(batch=len(streams))
    for t in range(streams.shape[1]):
        readout.step(streams[:, t])
        yield t


def evaluate_streams(readout: ReadoutLayer, streams: np.ndarray, durations) -> np.ndarray:
    """Plasticity-off spike counts, ``[B, n_out]``, of cached streams in one
    batched readout pass; each row is read at its sample's last step."""
    durations = np.asarray(durations)
    counts = np.zeros((len(durations), readout.n_out), dtype=np.int64)
    for t in readout_steps(readout, streams):
        done = durations == t + 1
        counts[done] = readout.spike_count[done]
    return counts


def evaluate(net, samples: list[LabeledSample]) -> np.ndarray:
    """Plasticity-off spike counts of each sample, ``[B, n_out]``."""
    return evaluate_streams(net.readout, frozen_pass(net, samples), [s.duration for s in samples])


def _baseline_rule(text: str, b_y1: float) -> SumOfProductsRule:
    """Parse the rule text with ``{b}`` replaced by the calibrated baseline."""
    try:
        filled = text.format(b=repr(b_y1))
    except (KeyError, IndexError, ValueError, AttributeError, TypeError) as e:
        raise RuleError(f"rule {text!r}: the only placeholder allowed is {{b}} ({type(e).__name__}: {e})")
    return parse_rule(filled)


def episode_samples(net, cfg: EpisodeConfig, dataset: list[LabeledSample]) -> list[LabeledSample]:
    """The episode's samples, each labelled by its output neuron.

    The dataset's classes are sorted. With ``cfg.m_pretrained`` = M > 0 the
    first M are the pretraining classes: their samples are dropped, and a
    provenance note on the frozen weights that does not name them warns,
    without failing. The remaining classes must number ``cfg.n_way`` and the
    network's outputs, and map in order onto the outputs. The relabelled
    samples share the dataset's event arrays.
    """
    classes = sorted({s.label for s in dataset})
    m = cfg.m_pretrained
    if m:
        note = re.search(r"pretrain-classes=(\S*)", getattr(net, "provenance", ""))
        expected = ",".join(str(c) for c in classes[:m])
        if note is None:
            warnings.warn("frozen weights carry no pretraining provenance note", stacklevel=2)
        elif note[1] != expected:
            warnings.warn(f"frozen weights declare pretraining classes {note[1]}, expected {expected}", stacklevel=2)
        classes = classes[m:]
    novel = " novel" if m else ""
    if len(classes) != cfg.n_way:
        raise DatasetError(f"dataset has {len(classes)}{novel} classes, config says n_way={cfg.n_way}")
    if len(classes) != net.n_out:
        raise DatasetError(f"dataset has {len(classes)}{novel} classes, network has {net.n_out} outputs")
    to_out = {c: i for i, c in enumerate(classes)}
    return [replace(s, label=to_out[s.label]) for s in dataset if s.label in to_out]


def _confusion(n: int, samples: list[LabeledSample], counts: np.ndarray) -> np.ndarray:
    """Rows are the samples' labels, columns the classes their counts give."""
    confusion = np.zeros((n, n), dtype=np.int64)
    for sample, c in zip(samples, counts):
        confusion[sample.label, classify(c)] += 1
    return confusion


def prepare_episode(net, cfg: EpisodeConfig, dataset: list[LabeledSample]) -> tuple[list, list, CalibrationReport]:
    """All an episode does before its first step: decide its samples, zero
    and reseed the plastic store when ``cfg.m_pretrained`` > 0 (only the
    novel classes' shots reach it), split the shots, calibrate, and attach
    the rule. Returns the train and test samples and the calibration."""
    samples = episode_samples(net, cfg, dataset)
    _check_input_size(net, samples)
    readout = net.readout
    if cfg.m_pretrained:
        readout.store.weights = np.zeros(readout.store.shape, dtype=np.int8)
        readout.store.reseed()
    train, test = split_shots(samples, cfg)
    calibration = net.calibrate(cfg.calibration_window)
    readout.attach_engine(_baseline_rule(cfg.rule, calibration.b_y1), cfg.lr_exp, cfg.learn_period)
    return train, test, calibration


def run_episode(net, cfg: EpisodeConfig, dataset: list[LabeledSample]) -> EpisodeReport:
    """Train K shots per class with plasticity on, then evaluate frozen."""
    train, test, calibration = prepare_episode(net, cfg, dataset)
    readout = net.readout
    _, order_rng = _episode_rngs(cfg.seed)

    samples = train + test
    streams = frozen_pass(net, samples)

    train_streams = [streams[b, : s.duration] for b, s in enumerate(train)]  # views
    for _ in range(cfg.epochs):
        readout.train(train_streams, [s.label for s in train], order_rng.permutation(len(train)), cfg.target_period)

    counts = evaluate_streams(readout, streams, [s.duration for s in samples])
    train_confusion = _confusion(cfg.n_way, train, counts[: len(train)])
    test_counts = counts[len(train) :]
    confusion = _confusion(cfg.n_way, test, test_counts)
    zero = int(np.count_nonzero(test_counts.sum(axis=1) == 0))

    return EpisodeReport(
        seed=cfg.seed,
        n_way=cfg.n_way,
        k_shot=cfg.k_shot,
        m_pretrained=cfg.m_pretrained,
        train_accuracy=float(np.trace(train_confusion) / max(1, train_confusion.sum())),
        test_accuracy=float(np.trace(confusion) / max(1, confusion.sum())),
        train_confusion=train_confusion,
        confusion=confusion,
        all_zero_fraction=zero / max(1, len(test)),
        calibration=calibration,
        weights=np.asarray(net.plastic_weights()),
    )


def format_report(report: EpisodeReport) -> str:
    """Deterministic text rendering plus a one-line machine summary."""
    lines = [
        "spikeshot episode report",
        f"seed: {report.seed}",
        f"n_way: {report.n_way}",
        f"k_shot: {report.k_shot}",
        f"m_pretrained: {report.m_pretrained}",
        f"train_accuracy: {report.train_accuracy:.6f}",
        f"test_accuracy: {report.test_accuracy:.6f}",
        f"all_zero_fraction: {report.all_zero_fraction:.6f}",
        "calibration: "
        + f"b={report.calibration.b!r} b_y1={report.calibration.b_y1!r} "
        + f"b_err={report.calibration.b_err!r} period={report.calibration.period!r}",
        "train confusion (rows=true, cols=predicted):",
    ]
    lines.extend(" ".join(str(v) for v in row) for row in report.train_confusion)
    lines.append("test confusion (rows=true, cols=predicted):")
    lines.extend(" ".join(str(v) for v in row) for row in report.confusion)
    lines.append(
        f"EPISODE seed={report.seed} n_way={report.n_way} k_shot={report.k_shot} "
        f"train_acc={report.train_accuracy:.6f} test_acc={report.test_accuracy:.6f} "
        f"zero_frac={report.all_zero_fraction:.6f}"
    )
    return "\n".join(lines) + "\n"
