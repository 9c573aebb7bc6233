"""Seeded synthetic DVS-like event streams for the paper-scale workload.

Stands in for DVS Gesture recordings, which are not part of the repository.
Each class is a disk that sweeps across the sensor along its own direction;
pixels ahead of the disk centre emit ON events (polarity channel 0) and
pixels behind it emit OFF events (channel 1), as an edge moving over an
event camera does. Every sample jitters the path offset and speed, and
uniform background noise fires on both polarities.

The event density is not calibrated to any recording. The disk's radius
and firing rate and the noise rate below are chosen so that every frozen
layer of the workload's network spikes; they give about 1.8% input events
per channel and step, which ``write_dvs_task`` measures and returns. Spike
rates measured on these streams say nothing about real DVS Gesture input,
so an event-driven change should not be judged on them alone.

The output is the program's event-file format, written by
``spikeshot.events.write_events``, so the benchmark hands the program
nothing but that file. The same arguments give identical bytes.
"""

from __future__ import annotations

import math

import numpy as np

from spikeshot import events

SHAPE = (128, 128, 2)
RADIUS_FRAC = 0.1   # disk radius as a share of the sensor height
BLOB_RATE = 0.5     # event probability per step of a pixel under the disk
NOISE_RATE = 0.01   # event probability per step and polarity of any pixel


def class_directions(n_classes: int, rng: np.random.Generator) -> list[float]:
    """Sweep angle per class, evenly spread from a seeded phase."""
    phase = rng.random()
    return [2.0 * math.pi * (c + phase) / n_classes for c in range(n_classes)]


def _sample_hits(rng: np.random.Generator, theta: float, duration: int, shape: tuple[int, int, int]) -> np.ndarray:
    """[duration, H*W*2] boolean spikes of one jittered sweep."""
    h, w, _ = shape
    radius = RADIUS_FRAC * h
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    ux, uy = math.cos(theta), math.sin(theta)
    offset = rng.uniform(-0.08, 0.08) * h
    speed = rng.uniform(0.85, 1.15) * 0.75 * h / duration
    cx0 = 0.5 * w - uy * offset
    cy0 = 0.5 * h + ux * offset
    hits = np.empty((duration, h, w, 2), dtype=bool)
    for t in range(duration):
        travel = speed * (t - 0.5 * (duration - 1))
        dx = xx - (cx0 + ux * travel)
        dy = yy - (cy0 + uy * travel)
        inside = dx * dx + dy * dy < radius * radius
        ahead = dx * ux + dy * uy > 0.0
        rate = np.full((h, w, 2), NOISE_RATE)
        rate[..., 0] += BLOB_RATE * (inside & ahead)
        rate[..., 1] += BLOB_RATE * (inside & ~ahead)
        hits[t] = rng.random((h, w, 2)) < rate
    return hits.reshape(duration, -1)


def write_dvs_task(
    path,
    seed: int,
    n_classes: int,
    n_per_class: int,
    duration: int,
    shape: tuple[int, int, int] = SHAPE,
) -> dict:
    """Write ``n_classes * n_per_class`` samples to ``path``.

    Returns the class layout (sweep angle per class), the event counts, per
    sample and in total, and the input density: events per channel and step.
    """
    rng = np.random.default_rng(seed)
    dirs = class_directions(n_classes, rng)
    samples = []
    for label, theta in enumerate(dirs):
        for _ in range(n_per_class):
            t_idx, n_idx = np.nonzero(_sample_hits(rng, theta, duration, shape))
            evs = list(map(events.SpikeEvent, t_idx.tolist(), n_idx.tolist()))
            samples.append(events.LabeledSample(shape=tuple(shape), duration=duration, label=label, events=evs))
    events.write_events(samples, path)
    counts = [len(s.events) for s in samples]
    return {
        "seed": seed,
        "shape": list(shape),
        "class_directions_deg": [round(math.degrees(d) % 360.0, 3) for d in dirs],
        "n_per_class": n_per_class,
        "duration": duration,
        "events_per_sample": counts,
        "events_total": sum(counts),
        "input_density": sum(counts) / (len(samples) * duration * math.prod(shape)),
    }
