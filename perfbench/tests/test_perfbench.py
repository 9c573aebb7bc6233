"""Tests of the benchmark's own code.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import signal

import pytest

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
sys.path[:0] = [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")]

import bench  # noqa: E402
import dvsgen  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from spikeshot import events, network, readout  # noqa: E402
from tracer import ROOT as ROOT_SPAN  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.fixture
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def test_generator_same_seed_same_bytes(tmp_path):
    kw = dict(n_classes=3, n_per_class=2, duration=12, shape=(16, 16, 2))
    a, b, c = tmp_path / "a.events", tmp_path / "b.events", tmp_path / "c.events"
    meta_a = dvsgen.write_dvs_task(a, seed=5, **kw)
    meta_b = dvsgen.write_dvs_task(b, seed=5, **kw)
    dvsgen.write_dvs_task(c, seed=6, **kw)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()
    assert meta_a == meta_b


def test_generator_writes_what_it_records(tmp_path):
    path = tmp_path / "t.events"
    meta = dvsgen.write_dvs_task(path, seed=1, n_classes=3, n_per_class=2, duration=12, shape=(16, 16, 2))
    samples = events.read_events(path)
    assert [s.label for s in samples] == [0, 0, 1, 1, 2, 2]
    assert all(s.shape == (16, 16, 2) and s.duration == 12 for s in samples)
    assert [len(s.events) for s in samples] == meta["events_per_sample"]
    assert meta["events_total"] == sum(meta["events_per_sample"]) > 0
    assert len(meta["class_directions_deg"]) == 3


def _busy(seconds: float):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_self_times_and_untracked_sum_to_parent():
    tr = Tracer()
    leaf = tr.wrap(lambda: _busy(0.002), "leaf", after=lambda *a: _busy(0.001))
    mid = tr.wrap(lambda: [_busy(0.001), leaf(), leaf()], "mid")

    def top_body():
        _busy(0.003)
        mid()
        leaf()

    top = tr.wrap(top_body, "top")
    top()
    s = tr.take()
    assert s.calls("leaf") == 3 and s.calls("leaf", "mid") == 2 and s.calls("leaf", "top") == 1
    assert s.calls("top", ROOT_SPAN) == 1
    children = s.self_s("mid") + s.self_s("leaf")
    untracked = s.self_s("top")
    assert children + untracked + s.hook_s == pytest.approx(s.total("top"), rel=1e-9, abs=1e-12)
    assert untracked >= 0.003 and s.hook_s >= 0.003
    assert tr.take().stats == {}


def test_patch_missing_name_reports_zero_calls_and_unpatch_restores():
    tr = Tracer()
    original, own_step = readout.update_trace, vars(readout.ReadoutLayer)["step"]
    tr.patch(readout, "update_trace", "traces.update")
    tr.patch(readout, "no_such_function", "gone")
    tr.patch(readout.ReadoutLayer, "step", "readout.step")
    tr.patch(network.DenseLayer, "step", "network.dense")  # inherited from its base class
    assert readout.update_trace is not original and "step" in vars(network.DenseLayer)
    readout.update_trace(0.0, 1.0, readout.TraceConfig(tau=4.0))
    tr.unpatch()
    s = tr.take()
    assert readout.update_trace is original
    assert vars(readout.ReadoutLayer)["step"] is own_step
    assert "step" not in vars(network.DenseLayer)
    assert tr.missing == ["spikeshot.readout.no_such_function"]
    assert s.calls("traces.update") == 1 and s.calls("gone") == 0 and s.calls("readout.step") == 0


def test_reference_time_drops_probe_time_and_scales_by_probe_speed():
    probe = speed.SpeedProbe()
    probe.samples = [(0.0, 0.002), (1.0, 0.002), (1.5, 0.002), (2.0, 0.002)]
    expected = (2.0 - 0.5 - 0.004) * speed.NOMINAL_S / 0.002
    assert probe.at_reference(0.5, 2.0) == pytest.approx(expected, rel=1e-12)


def test_probe_samples_during_its_block_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe() as probe:
        start = time.perf_counter()
        _busy(0.2)
        end = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    inside = [t for t, _ in probe.samples if start <= t < end]
    assert len(probe.samples) - len(inside) == 2 * speed.BRACKET
    assert len(inside) >= 3


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_workload_runs_and_reports_every_metric(at_root, capsys, name, trace):
    with open(bench.SPEC_FILE) as f:
        spec = json.load(f)
    w = workloads.tiny(workloads.WORKLOADS[name])
    args = argparse.Namespace(workload=name, seed=3, seconds=0.0, trace=trace)
    result = bench.run(w, args, spec)
    out = capsys.readouterr().out
    assert result["correct"], out
    assert result["failed"] == 0
    assert result["attempted"] == (2 if trace else w.n_seeds + 1)
    expected = spec["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    assert "same_seed_same_digest ok" in out
    assert all(v["value"] > 0 for v in result["metrics"].values()) or trace
    traced = [line.split()[2] for line in out.splitlines() if line.startswith("EPISODE")]
    assert traced == (["traced=0", "traced=1"] if trace else ["traced=0"] * (w.n_seeds + 1))
    assert f"{name}-{os.getpid()}" not in os.listdir(bench.WORK_ROOT)
