"""Spike-event streams: text file format, rate encoding, synthetic tasks.

Event files hold one or more labeled samples. Each sample starts with a
header line

    shape=<dims> duration=<steps> label=<int>

followed by one event per line, ``<t> <neuron>``, with t a timestep in
[0, duration) and neuron a flat row-major index into the declared shape.
Times must be non-decreasing within a sample. The format is text for
diffability; round-tripping write -> read is exact.

In memory a sample's events are one ``[N, 2]`` int64 array of ``(t, neuron)``
rows in time order, which every consumer takes whole. ``read_events`` reads
the file once, in blocks of whole lines (about 1 MiB of text), and converts
each run of canonical event lines (two fields of at most 18 digits, one space)
in one ``np.fromstring`` call. Every other line (headers, comments, blank
lines, other spellings of an event, malformed lines) is classified on its own,
with the line number that any error names; a byte that is not UTF-8 is refused
on its own line like any other fault, so the first fault in file order is
named. It holds one block of text at a time, plus the samples' arrays, on
every path. ``SpikeEvent`` names one row: callers outside the
package, such as perfbench's event generator, still build samples from lists
of them, and any sequence of pairs converts.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .network import DIM_MAX

PROTOTYPE_MODES = ("balanced",)  # data.mode's one value, kept as a key; see gen_synthetic_task
BALANCED_HI = 0.85
BALANCED_LO = 0.05

_MAX_TRIES = 2000  # rejected prototypes before gen_synthetic_task gives up
_BLOCK_CHARS = 1 << 20  # characters of the event file read at a time
# A run of event lines that np.fromstring converts exactly: 18 digits stay
# below 2**63, where it would saturate instead of failing. The matcher keeps
# ~200 bytes of backtracking state per line, so a run stops at 1,024 lines.
_EVENT_RUN = re.compile(r"(?:[0-9]{1,18} [0-9]{1,18}\n){1,1024}")
# A byte that is not UTF-8, as the surrogateescape handler decodes it; valid
# UTF-8 never decodes to a lone surrogate, and a run holds only digits.
_NOT_UTF8 = re.compile("[\udc80-\udcff]")


class EventFormatError(ValueError):
    """Malformed event file; message carries the offending line number."""


# one ``(t, neuron)`` row of ``LabeledSample.events``
SpikeEvent = NamedTuple("SpikeEvent", [("t", int), ("neuron", int)])


@dataclass(eq=False)
class LabeledSample:
    """One spike recording with its class label and declared extent.

    ``events`` is an ``[N, 2]`` int64 array of ``(t, neuron)`` rows in time
    order, converted from any sequence of pairs. Samples compare by identity;
    compare their fields, and ``events`` with ``np.array_equal``.
    """

    shape: tuple[int, ...]
    duration: int
    label: int
    events: np.ndarray = ()

    def __post_init__(self):
        self.events = np.asarray(self.events, dtype=np.int64).reshape(-1, 2)

    @property
    def size(self) -> int:
        return math.prod(self.shape)

    def validate(self):
        """Raise EventFormatError naming the first offending event, in event order."""
        if self.duration < 0:
            raise EventFormatError(f"negative duration {self.duration}")
        if self.duration > DIM_MAX:
            raise EventFormatError(f"duration {self.duration} past {DIM_MAX}, the largest sample duration")
        if any(d < 1 for d in self.shape):
            raise EventFormatError(f"shape {self.shape} has a dimension below 1")
        t, neuron = self.events.T
        bad = (t < 0) | (t >= self.duration) | (neuron < 0) | (neuron >= self.size)
        bad[1:] |= t[1:] < t[:-1]
        if bad.any():
            ev_t, ev_neuron = self.events[bad.argmax()].tolist()
            if not 0 <= ev_t < self.duration:
                raise EventFormatError(f"event time {ev_t} outside [0, {self.duration})")
            if not 0 <= ev_neuron < self.size:
                raise EventFormatError(f"neuron index {ev_neuron} outside shape {self.shape}")
            raise EventFormatError(f"event times decrease at t={ev_t}")

    def to_dense(self) -> np.ndarray:
        """[duration, n_channels] float array of spike counts per step. Only
        the tests and perfbench's ``frozen_rates`` call it; runs index the events."""
        dense = np.zeros((self.duration, self.size))
        np.add.at(dense, tuple(self.events.T), 1.0)
        return dense


def write_events(samples: list[LabeledSample], path) -> None:
    for s in samples:
        s.validate()
    with open(path, "w") as f:
        for s in samples:
            f.write(f"shape={'x'.join(map(str, s.shape))} duration={s.duration} label={s.label}\n")
            f.writelines(f"{t} {neuron}\n" for t, neuron in s.events.tolist())


def _line_blocks(f):
    """The text of ``f`` in blocks of whole lines, about ``_BLOCK_CHARS`` each;
    only the last block may lack its final newline."""
    tail = ""
    for block in iter(lambda: f.read(_BLOCK_CHARS), ""):
        cut = block.rfind("\n") + 1
        if cut:
            yield tail + block[:cut]
            tail = block[cut:]
        else:
            tail += block
    if tail:
        yield tail


def _pieces(f):
    """``(lineno, is_run, text)`` of each run of canonical event lines in
    ``f`` and of each other line, in file order; lineno is the first line's."""
    lineno = 1
    for block in _line_blocks(f):
        pos = 0
        while pos < len(block):
            run = _EVENT_RUN.match(block, pos)
            end = run.end() if run else block.find("\n", pos) + 1 or len(block)
            yield lineno, run is not None, block[pos:end]
            lineno += block.count("\n", pos, end)
            pos = end


def _sample_events(chunks: list[np.ndarray]) -> np.ndarray:
    """The closing sample's ``[N, 2]`` events."""
    return np.concatenate([np.empty(0, np.int64), *chunks]).reshape(-1, 2)


def read_events(path) -> list[LabeledSample]:
    samples: list[LabeledSample] = []
    chunks: list[np.ndarray] = []  # the open sample's (t, neuron) values, flat, one array per run or field
    with open(path, encoding="utf-8", errors="surrogateescape") as f:
        for lineno, is_run, text in _pieces(f):
            if not is_run and _NOT_UTF8.search(text):
                raise EventFormatError(f"line {lineno}: bytes that are not UTF-8 text")
            line = text.strip()  # a run starts with a digit: not blank, a comment or a header
            if not line or line.startswith("#"):
                continue
            if line.startswith("shape="):
                if samples:
                    samples[-1].events = _sample_events(chunks)
                    chunks = []
                try:
                    fields = dict(part.split("=", 1) for part in line.split())
                    shape = tuple(int(d) for d in fields["shape"].split("x"))
                    samples.append(LabeledSample(
                        shape=shape,
                        duration=int(fields["duration"]),
                        label=int(fields["label"]),
                    ))
                except (KeyError, ValueError):
                    raise EventFormatError(f"line {lineno}: bad sample header {line!r}")
                continue
            if not samples:
                raise EventFormatError(f"line {lineno}: event before any sample header")
            if is_run:
                n = text.count("\n")
                values = np.fromstring(text, dtype=np.int64, sep=" ")
                if values.size != 2 * n:
                    raise EventFormatError(
                        f"lines {lineno}-{lineno + n - 1}: read {values.size} event fields, expected {2 * n}")
                chunks.append(values)
                continue
            parts = line.split()
            if len(parts) != 2:
                raise EventFormatError(f"line {lineno}: expected '<t> <neuron>', got {line!r}")
            for tok in parts:
                try:
                    chunks.append(np.array([tok], dtype=np.int64))
                except (ValueError, OverflowError):
                    raise EventFormatError(f"line {lineno}: event field {tok!r} is not an int64") from None
    if samples:
        samples[-1].events = _sample_events(chunks)
    for s in samples:
        try:
            s.validate()
        except EventFormatError as e:
            raise EventFormatError(f"sample with label {s.label}: {e}")
    return samples


def rate_encode(features: np.ndarray, duration: int, r_max: float = 0.2) -> np.ndarray:
    """Encode a [0,1] feature vector as regular-interval spike trains.

    Feature f spikes every max(1, round(1/(f*r_max))) steps starting at t=0,
    in int64 with the interval clipped to the duration: f=0 stays silent, and
    an interval past the duration (infinite where f*r_max underflows) spikes
    at t=0 only. NaN features and a non-finite r_max are refused. Returns
    C-contiguous int64 ``[N, 2]`` ``(t, channel)`` events by time, then channel.
    """
    feats = np.asarray(features, dtype=np.float64).ravel()
    if not ((feats >= 0.0) & (feats <= 1.0)).all():
        raise ValueError("features must lie in [0, 1], NaN refused")
    if not (math.isfinite(r_max) and r_max > 0.0):
        raise ValueError(f"r_max must be positive and finite, got {r_max}")
    t = np.arange(duration)[:, None]  # first, so a duration past numpy's sizes fails here, not in a cast
    with np.errstate(divide="ignore", over="ignore"):  # an infinite interval is clipped to the duration
        interval = np.minimum(np.maximum(1.0, np.round(1.0 / (feats * r_max))), max(len(t), 1))
    steps, channels = np.divmod(np.flatnonzero((feats > 0.0) & (t % interval.astype(np.int64) == 0)), feats.size)
    return np.stack([steps, channels], axis=1)


def gen_synthetic_task(
    n_classes: int,
    n_per_class: int,
    dim: int,
    separation: float,
    seed: int,
    jitter: float = 0.1,
    duration: int = 150,
    r_max: float = 0.2,
    mode: str = "balanced",
) -> list[LabeledSample]:
    """Seeded few-shot classification task: jittered rate-coded clusters.

    Class prototypes live in [0,1]^dim with pairwise Euclidean distance
    >= separation (bounded rejection sampling); each instance adds uniform
    jitter and is rate-encoded.

    Every prototype sits at ``BALANCED_HI`` on a random half of the
    coordinates and ``BALANCED_LO`` on the rest (the "balanced" mode, the
    only one), so all classes carry the same total spike mass; a spike-count
    readout then discriminates on pattern rather than brightness.
    """
    if separation <= 0.0:
        raise ValueError("separation must be positive")
    if jitter < 0.0 or duration < 0:
        raise ValueError(f"jitter and duration must be >= 0, got {jitter} and {duration}")
    if mode not in PROTOTYPE_MODES:
        raise ValueError(f"unknown prototype mode {mode!r}")
    rng = np.random.default_rng(seed)
    prototypes: list[np.ndarray] = []
    tries = 0
    while len(prototypes) < n_classes:
        cand = np.full(dim, BALANCED_LO)
        cand[rng.choice(dim, size=dim // 2, replace=False)] = BALANCED_HI
        if all(np.linalg.norm(cand - p) >= separation for p in prototypes):
            prototypes.append(cand)
        else:
            tries += 1
            if tries > _MAX_TRIES:
                raise ValueError(
                    f"failed to place {n_classes} prototypes at separation {separation} in dim {dim}"
                )
    samples = []
    for label, proto in enumerate(prototypes):
        for _ in range(n_per_class):
            feats = np.clip(proto + rng.uniform(-jitter, jitter, size=dim), 0.0, 1.0)
            samples.append(
                LabeledSample(
                    shape=(dim,),
                    duration=duration,
                    label=label,
                    events=rate_encode(feats, duration, r_max=r_max),
                )
            )
    return samples
