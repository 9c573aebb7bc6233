"""Spike-event streams: text file format, rate encoding, synthetic tasks.

Event files hold one or more labeled samples. Each sample starts with a
header line

    shape=<dims> duration=<steps> label=<int>

(shape first, each key once, no other key), followed by one event per line,
``<t> <neuron>``, with t a timestep in [0, duration) and neuron a flat
row-major index into the declared shape. Times must be non-decreasing within
a sample. The format is text for diffability; round-tripping write -> read
is exact.

In memory a sample's events are one ``[N, 2]`` int64 array of ``(t, neuron)``
rows in time order, which every consumer takes whole. ``read_events`` reads
the file once, in blocks of whole lines (about 64 KiB of text). A numpy scan
finds a block's odd lines, with a character other than a digit, a space or a
newline; one ``np.fromstring`` call converts each stretch between them whose
lines are all canonical events (two fields below 10**18, one space). Other
stretches and the odd lines go once through the run pattern and the line loop,
which classifies each line outside a run (headers, comments, blank lines, other
spellings of an event, malformed lines) on its own, with the line number that
any error names; a byte that is not UTF-8 is refused on its own line like any
other fault, so the first fault in file order is named. It holds one block of
text at a time, plus the samples' arrays, on every path. ``SpikeEvent`` names
one row: callers outside the package, such as perfbench's event generator,
still build samples from lists of them, and any sequence of pairs converts.
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
_BLOCK_CHARS = 1 << 16  # characters of the event file read at a time; a block's scan arrays stay small
# A run of event lines that np.fromstring converts exactly: 18 digits stay
# below 2**63, where it would saturate instead of failing. The matcher keeps
# ~200 bytes of backtracking state per line, so a run stops at 1,024 lines.
_EVENT_RUN = re.compile(r"(?:[0-9]{1,18} [0-9]{1,18}\n){1,1024}")
# A byte that is not UTF-8, as the surrogateescape handler decodes it; valid
# UTF-8 never decodes to a lone surrogate, and a run holds only digits.
_NOT_UTF8 = re.compile("[\udc80-\udcff]")
# 1 for each byte that no event line holds (anything but a digit, a space or a newline), else 0
_ODD_BYTES = bytes(c not in b"0123456789 \n" for c in range(256))


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


def _bulk_values(stretch: bytes, n: int):
    """The ``2 n`` int64 fields of ``n`` whole lines of digits, spaces and
    newlines when each is ``<t> <neuron>``, both fields below 10**18; else None."""
    if stretch.translate(None, b"0123456789") == b" \n" * n:
        values = np.fromstring(stretch, dtype=np.int64, sep=" ")  # saturates at 2**63 - 1
        # a field of 10**18 has 19 digits: a stretch with fewer needs no max
        if values.size == 2 * n and (len(stretch) - 2 * n < 19 or values.max() < 10**18):
            return values


def _text_pieces(block: str, pos: int, stop: int, lineno: int):
    """The pieces of the lines ``block[pos:stop]``, from line ``lineno`` on:
    each run that ``_EVENT_RUN`` matches, as its fields, and each other line."""
    while pos < stop:
        run = _EVENT_RUN.match(block, pos, stop)
        end = run.end() if run else block.find("\n", pos, stop) + 1 or stop
        k = block.count("\n", pos, end)
        piece = np.fromstring(block[pos:end], dtype=np.int64, sep=" ") if run else block[pos:end]
        if run and piece.size != 2 * k:
            raise EventFormatError(
                f"lines {lineno}-{lineno + k - 1}: read {piece.size} event fields, expected {2 * k}")
        yield lineno, run is not None, piece
        lineno += k
        pos = end


def _pieces(f):
    """``(lineno, is_run, piece)`` of each run of canonical event lines in
    ``f``, as its int64 fields, and of each other line, as its text, in file
    order; lineno is the first line's."""
    lineno, tail, more = 1, "", True
    while more:
        chunk = f.read(_BLOCK_CHARS)
        block, more = tail + chunk, chunk != ""  # the last block's part line, then the next characters
        data = block.encode("latin-1", "replace")  # a byte a character; any past latin-1 becomes "?"
        # line i is block[at[i]:at[i + 1]], as Python ints; the last, n, lacks a newline and may be empty
        bounds = np.concatenate(([0], np.flatnonzero(np.frombuffer(data, dtype=np.uint8) == 10) + 1, [len(block)]))
        n, at, done = bounds.size - 2, memoryview(bounds), 0  # done: the first line not yet yielded
        odd_chars = np.flatnonzero(np.frombuffer(data.translate(_ODD_BYTES), dtype=bool))
        odd = np.zeros(n + 2, dtype=bool)  # odd[i + 1]: line i holds an odd character; lines -1 and n count as odd
        odd[np.searchsorted(bounds, odd_chars, "right")] = True
        odd[[0, -1]] = True
        edges = iter(memoryview(np.flatnonzero(odd[1:] != odd[:-1])))  # each stretch between odd lines: start, end
        for s, e in zip(edges, edges):
            values = _bulk_values(data[at[s]:at[e]], e - s)
            if values is not None:  # the lines before it go through the run pattern and the line loop
                yield from _text_pieces(block, at[done], at[s], lineno + done)
                yield lineno + s, True, values
                done = e
        stop = at[n] if more else len(block)  # line n is whole only at the end of the file
        yield from _text_pieces(block, at[done], stop, lineno + done)
        tail, lineno = block[stop:], lineno + n


def _sample_events(chunks: list[np.ndarray]) -> np.ndarray:
    """The closing sample's ``[N, 2]`` events."""
    return np.concatenate([np.empty(0, np.int64), *chunks]).reshape(-1, 2)


def read_events(path) -> list[LabeledSample]:
    samples: list[LabeledSample] = []
    chunks: list[np.ndarray] = []  # the open sample's (t, neuron) values, flat, one array per run or field
    with open(path, encoding="utf-8", errors="surrogateescape") as f:
        for lineno, is_run, piece in _pieces(f):
            if not is_run:
                if _NOT_UTF8.search(piece):
                    raise EventFormatError(f"line {lineno}: bytes that are not UTF-8 text")
                line = piece.strip()
                if not line or line.startswith("#"):
                    continue
                if line.startswith("shape="):
                    if samples:
                        samples[-1].events = _sample_events(chunks)
                        chunks = []
                    parts = line.split()
                    fields = dict(part.partition("=")[::2] for part in parts)
                    try:
                        if len(parts) != 3 or fields.keys() != {"shape", "duration", "label"}:  # each key once
                            raise ValueError
                        samples.append(LabeledSample(
                            shape=tuple(int(d) for d in fields["shape"].split("x")),
                            duration=int(fields["duration"]),
                            label=int(fields["label"]),
                        ))
                    except ValueError:
                        raise EventFormatError(f"line {lineno}: bad sample header {line!r}")
                    continue
            if not samples:
                raise EventFormatError(f"line {lineno}: event before any sample header")
            if is_run:
                chunks.append(piece)
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
