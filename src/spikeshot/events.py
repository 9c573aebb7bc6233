"""Spike-event streams: text file format, rate encoding, synthetic tasks.

Event files hold one or more labeled samples. Each sample starts with a
header line

    shape=<dims> duration=<steps> label=<int>

followed by one event per line, ``<t> <neuron>``, with t a timestep in
[0, duration) and neuron a flat row-major index into the declared shape.
Times must be non-decreasing within a sample. The format is text for
diffability; round-tripping write -> read is exact.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np


class EventFormatError(ValueError):
    """Malformed event file; message carries the offending line number."""


@dataclass(frozen=True)
class SpikeEvent:
    t: int
    neuron: int


@dataclass
class LabeledSample:
    """One spike recording with its class label and declared extent."""

    shape: tuple[int, ...]
    duration: int
    label: int
    events: list[SpikeEvent] = field(default_factory=list)

    @property
    def size(self) -> int:
        return math.prod(self.shape)

    def validate(self):
        if self.duration < 0:
            raise EventFormatError(f"negative duration {self.duration}")
        if any(d < 1 for d in self.shape):
            raise EventFormatError(f"shape {self.shape} has a dimension below 1")
        last_t = -1
        for ev in self.events:
            if not (0 <= ev.t < self.duration):
                raise EventFormatError(f"event time {ev.t} outside [0, {self.duration})")
            if not (0 <= ev.neuron < self.size):
                raise EventFormatError(f"neuron index {ev.neuron} outside shape {self.shape}")
            if ev.t < last_t:
                raise EventFormatError(f"event times decrease at t={ev.t}")
            last_t = ev.t
        return self

    def to_dense(self) -> np.ndarray:
        """[duration, n_channels] float array of spike counts per step."""
        dense = np.zeros((self.duration, self.size))
        for ev in self.events:
            dense[ev.t, ev.neuron] += 1.0
        return dense


def _shape_str(shape: tuple[int, ...]) -> str:
    return "x".join(str(d) for d in shape)


def write_events(samples: list[LabeledSample], path) -> None:
    lines = []
    for s in samples:
        s.validate()
        lines.append(f"shape={_shape_str(s.shape)} duration={s.duration} label={s.label}")
        lines.extend(f"{ev.t} {ev.neuron}" for ev in s.events)
    with open(path, "w") as f:
        f.write("\n".join(lines) + ("\n" if lines else ""))


def _undecodable_line(path) -> int:
    """Number of the line holding the first bytes of ``path`` that are not UTF-8."""
    with open(path, "rb") as f:
        data = f.read()
    start = len(data)
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as e:
        start = e.start
    head = data[:start].decode("utf-8") + "?"  # the bad byte's line counts as a line
    return len(io.StringIO(head, newline=None).readlines())


def read_events(path) -> list[LabeledSample]:
    samples: list[LabeledSample] = []
    current: LabeledSample | None = None
    with open(path, encoding="utf-8") as f:
        try:
            for lineno, raw in enumerate(f, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if line.startswith("shape="):
                    try:
                        fields = dict(part.split("=", 1) for part in line.split())
                        shape = tuple(int(d) for d in fields["shape"].split("x"))
                        current = LabeledSample(
                            shape=shape,
                            duration=int(fields["duration"]),
                            label=int(fields["label"]),
                        )
                    except (KeyError, ValueError):
                        raise EventFormatError(f"line {lineno}: bad sample header {line!r}")
                    samples.append(current)
                    continue
                if current is None:
                    raise EventFormatError(f"line {lineno}: event before any sample header")
                parts = line.split()
                if len(parts) != 2:
                    raise EventFormatError(f"line {lineno}: expected '<t> <neuron>', got {line!r}")
                try:
                    ev = SpikeEvent(t=int(parts[0]), neuron=int(parts[1]))
                except ValueError:
                    raise EventFormatError(f"line {lineno}: non-integer event {line!r}")
                current.events.append(ev)
        except UnicodeDecodeError:  # raised by the file iterator
            raise EventFormatError(f"line {_undecodable_line(path)}: bytes that are not UTF-8 text") from None
    for s in samples:
        try:
            s.validate()
        except EventFormatError as e:
            raise EventFormatError(f"sample with label {s.label}: {e}")
    return samples


def rate_encode(
    features: np.ndarray,
    duration: int,
    r_max: float = 0.2,
    poisson: bool = False,
    rng: np.random.Generator | None = None,
) -> list[SpikeEvent]:
    """Encode a [0,1] feature vector as regular-interval spike trains.

    Feature f spikes every max(1, round(1/(f*r_max))) steps starting at t=0;
    f=0 stays silent. With ``poisson=True`` each step spikes independently
    with probability f*r_max using the supplied seeded generator.
    """
    feats = np.asarray(features, dtype=np.float64).ravel()
    if feats.size and (feats.min() < 0.0 or feats.max() > 1.0):
        raise ValueError("features must lie in [0, 1]")
    if r_max <= 0.0:
        raise ValueError("r_max must be positive")
    events: list[SpikeEvent] = []
    if poisson:
        if rng is None:
            raise ValueError("poisson encoding needs a seeded rng")
        hits = rng.random((duration, feats.size)) < feats * r_max
        for t, j in zip(*np.nonzero(hits)):
            events.append(SpikeEvent(t=int(t), neuron=int(j)))
        return events
    per_channel = []
    for j, f in enumerate(feats):
        if f <= 0.0:
            continue
        interval = max(1, round(1.0 / (f * r_max)))
        per_channel.append((j, interval))
    for t in range(duration):
        for j, interval in per_channel:
            if t % interval == 0:
                events.append(SpikeEvent(t=t, neuron=j))
    return events


class SeparationError(RuntimeError):
    """Could not place class prototypes at the requested pairwise distance."""


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
    hi: float = 0.85,
    lo: float = 0.05,
    max_tries: int = 2000,
) -> list[LabeledSample]:
    """Seeded few-shot classification task: jittered rate-coded clusters.

    Class prototypes live in [0,1]^dim with pairwise Euclidean distance
    >= separation (bounded rejection sampling); each instance adds uniform
    jitter and is rate-encoded.

    The default "balanced" mode places every prototype at ``hi`` on a random
    half of the coordinates and ``lo`` on the rest, so all classes carry the
    same total spike mass; a spike-count readout then discriminates on
    pattern rather than brightness. "uniform" mode draws prototypes
    uniformly instead (class brightness varies).
    """
    if separation <= 0.0:
        raise ValueError("separation must be positive")
    if mode not in ("balanced", "uniform"):
        raise ValueError(f"unknown prototype mode {mode!r}")
    rng = np.random.default_rng(seed)
    prototypes: list[np.ndarray] = []
    tries = 0
    while len(prototypes) < n_classes:
        if mode == "balanced":
            cand = np.full(dim, lo)
            cand[rng.choice(dim, size=dim // 2, replace=False)] = hi
        else:
            cand = rng.random(dim)
        if all(np.linalg.norm(cand - p) >= separation for p in prototypes):
            prototypes.append(cand)
        else:
            tries += 1
            if tries > max_tries:
                raise SeparationError(
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
