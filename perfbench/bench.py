"""The benchmark proper; ``run.py`` is its entry point.

The workload's episodes (see ``workloads.py``) repeat, cycling over the
run's episode seeds, until ``--seconds`` have passed and every seed has run
once and the first one twice, so that a rerun of the same seed is checked
against its first digests. One process, closed loop: the next episode starts
when the last one ends.

``--trace 0`` prints the end-to-end metrics: the median set-up and episode
time of the run and the protocol's global timesteps per second of episode
time summed over the run, all at reference speed (``speed.py`` samples how
fast the shared machine runs inside each episode and scales the wall times
to an unloaded one), and the process's peak resident memory.
``--trace 1`` runs episodes in pairs on one seed, one traced and one not,
and prints the per-layer metrics of ``probes.py``: timings are medians over
the traced episodes, deterministic counts come from the first traced
episode, and the tracing overhead is the median over the pairs of the
traced episode time over the untraced one. Both halves of a pair run within
seconds of each other, so a slow stretch of a shared machine falls on both.

The output checks: each episode runs without error and leaves finite
weights that read back from its weight file; a seed that runs twice, traced
or not, gives the same weight-file and report digests; ``desk-5w5s`` keeps
the acceptance suite's mean test accuracy of 0.80; no frozen layer is silent
or saturated on the first sample of the dataset. The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` (in
episodes) and ``metrics``; the exit code is 0 only when ``correct`` holds.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

import numpy as np

import dvsgen
import spikeshot
from probes import LAYER_METRICS, install
from speed import SpeedProbe
from tracer import Tracer
from workloads import BASE_CONFIG, WORKLOADS, EpisodeResult, episode_seeds, frozen_rates, run_episode

SPEC_FILE = "BENCHMARK.json"
WORK_ROOT = ".perfbench"


def _git_commit() -> str:
    """HEAD of a git checkout in the current directory, read from its files."""
    try:
        with open(os.path.join(".git", "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(".git", ref)) as f:
                return f.read().strip()
        except FileNotFoundError:
            with open(os.path.join(".git", "packed-refs")) as f:
                for line in f:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _version(pkg: str) -> str:
    try:
        return importlib.metadata.version(pkg)
    except importlib.metadata.PackageNotFoundError:
        return "absent"


def environment(args, seeds) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": _version("scipy"),
        "spikeshot": spikeshot.__version__,
        "blas_threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "episode_seeds": seeds,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def measure(w, seeds, events_path, work, seconds, min_episodes, tracer=None):
    """Run episodes, cycling over ``seeds``, until ``seconds`` have passed
    and ``min_episodes`` have run.

    Without a tracer, each episode runs under a ``SpeedProbe``, which sets
    its set-up and episode times at reference speed. With a tracer, episodes
    come in pairs on one seed: the untraced one first in even pairs, the
    traced one first in odd pairs. The tracer's patches are in place for the
    traced episode only, and one summary of its spans (set-up, episode and
    save) is taken after it.

    Returns the results, whether each episode was traced, and the summaries.
    """
    results, flags, summaries = [], [], []
    per_seed = 1 if tracer is None else 2
    t_end = time.perf_counter() + seconds
    while len(results) < min_episodes or time.perf_counter() < t_end or len(results) % per_seed:
        k = len(results)
        seed = seeds[(k // per_seed) % len(seeds)]
        traced = tracer is not None and k % 2 != (k // 2) % 2
        if traced:
            install(tracer)
        try:
            if tracer is None:
                with SpeedProbe() as probe:
                    res = run_episode(w, seed, events_path, work)
                setup_end = res.started + res.setup_s
                res.setup_ref_s = probe.at_reference(res.started, setup_end)
                res.episode_ref_s = probe.at_reference(setup_end, setup_end + res.episode_s)
            else:
                res = run_episode(w, seed, events_path, work)
        except Exception:  # a failing episode is counted, not fatal
            res = EpisodeResult(seed=seed, errors=[traceback.format_exc(limit=4)])
        finally:
            if traced:
                tracer.unpatch()
        results.append(res)
        flags.append(traced)
        if traced:
            summaries.append(tracer.take())
        print(f"EPISODE seed={res.seed} traced={int(traced)} setup_s={res.setup_s:.6f} "
              f"episode_s={res.episode_s:.6f} setup_ref_s={res.setup_ref_s:.6f} "
              f"episode_ref_s={res.episode_ref_s:.6f} steps={res.steps} test_acc={res.test_accuracy:.6f} "
              f"weights_sha256={res.weights_sha256} report_sha256={res.report_sha256} "
              f"{'ok' if res.ok else 'FAILED ' + ' | '.join(e.strip() for e in res.errors)}", flush=True)
    return results, flags, summaries


def mean_test_accuracy(results) -> tuple[float, int]:
    """Mean test accuracy over the distinct seeds that ran, and their number."""
    accs = {}
    for r in results:
        if r.ok:
            accs.setdefault(r.seed, r.test_accuracy)
    return (statistics.fmean(accs.values()) if accs else 0.0), len(accs)


def checks(w, results, events_path, seeds) -> list[tuple[str, bool, str]]:
    out = []
    failed = [r for r in results if not r.ok]
    out.append(("episodes_ok", not failed, f"{len(results) - len(failed)}/{len(results)} episodes ok"))
    digests: dict[int, set] = {}
    for r in results:
        if r.ok:
            digests.setdefault(r.seed, set()).add((r.weights_sha256, r.report_sha256))
    unstable = sorted(s for s, d in digests.items() if len(d) > 1)
    reruns = sum(1 for r in results if r.ok) - len(digests)
    out.append(("same_seed_same_digest", not unstable,
                f"{reruns} reruns agree" if not unstable else f"seeds {unstable} gave differing digests"))
    if w.min_test_accuracy is not None:
        mean, n = mean_test_accuracy(results)
        out.append(("mean_test_accuracy", mean >= w.min_test_accuracy,
                    f"{mean:.4f} over {n} seeds, threshold {w.min_test_accuracy}"))
    try:
        rates = frozen_rates(w, seeds[0], events_path)
        out.append(("frozen_layers_active", all(0.0 < r < 1.0 for r in rates),
                     "rates " + " ".join(f"{r:.4f}" for r in rates)))
    except Exception:  # reported as a failed check
        out.append(("frozen_layers_active", False, traceback.format_exc(limit=4)))
    return out


def end_to_end(results) -> dict:
    """Timings at reference speed: medians over the run's episodes, and
    steps per second as all episodes' steps over their summed time."""
    ok = [r for r in results if r.ok]
    if not ok:
        return {}
    return {
        "setup_s": statistics.median(r.setup_ref_s for r in ok),
        "episode_s": statistics.median(r.episode_ref_s for r in ok),
        "steps_per_s": sum(r.steps for r in ok) / sum(r.episode_ref_s for r in ok),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(results, flags, summaries) -> tuple[dict, set]:
    """Per-layer metrics, and the names not applicable to the workload.
    ``results`` come in pairs as ``measure`` runs them with a tracer."""
    values, not_applicable = {}, set()
    for name, (span, is_count, fn, _) in LAYER_METRICS.items():
        if span is not None and not any(s.calls(span) for s in summaries):
            not_applicable.add(name)
        per_episode = [fn(s) for s in summaries]
        values[name] = per_episode[0] if is_count else statistics.median(per_episode)
    ratios = []
    for i in range(0, len(results), 2):
        a, b = results[i], results[i + 1]
        traced, untraced = (b, a) if flags[i + 1] else (a, b)
        ratios.append(traced.episode_s / untraced.episode_s)
    values["trace.overhead_frac"] = statistics.median(ratios) - 1.0
    return values, not_applicable


def run(w, args, spec) -> dict:
    seeds = episode_seeds(w, args.seed)
    print("ENV " + json.dumps(environment(args, seeds), sort_keys=True), flush=True)
    work = os.path.join(WORK_ROOT, f"{w.name}-{os.getpid()}")
    os.makedirs(work)
    try:
        events_path = None
        if w.dvs is not None:
            events_path = os.path.join(work, "dvs128.events")
            d = w.dvs
            meta = dvsgen.write_dvs_task(events_path, args.seed, d.n_classes, d.n_per_class, d.duration, d.shape)
            print("DVS " + json.dumps(meta), flush=True)
        if args.trace:
            tracer = Tracer()
            results, flags, summaries = measure(w, seeds, events_path, work, args.seconds, 2, tracer)
            if all(r.ok for r in results):
                metrics, not_applicable = per_layer(results, flags, summaries)
            else:
                metrics, not_applicable = {}, set()
            for name in sorted(set(tracer.missing)):
                print(f"TRACE missing name {name}: reports 0 calls")
        else:
            results, _, _ = measure(w, seeds, events_path, work, args.seconds, len(seeds) + 1)
            metrics, not_applicable = end_to_end(results), set()
        verdicts = checks(w, results, events_path, seeds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # Reported, checked where a workload has a threshold, but left out of
    # the compared metrics: test accuracy spreads across seeds beyond any
    # bound on desk-plastic, and the failed share is 0 when all is well.
    failed = sum(1 for r in results if not r.ok)
    accuracy, n_seeds = mean_test_accuracy(results)
    print(f"REPORT test_accuracy {accuracy!r} fraction (mean over {n_seeds} seeds)")
    print(f"REPORT episodes_failed_frac {failed / len(results)!r} fraction ({failed}/{len(results)})")
    passed = [r for r in results if r.ok]
    if passed and not args.trace:
        for name in ("setup_s", "episode_s"):
            wall = statistics.median(getattr(r, name) for r in passed)
            print(f"REPORT wall_{name} {wall!r} s (median wall time, probe included, not at reference speed)")
    for name, ok, detail in verdicts:
        print(f"CHECK {name} {'ok' if ok else 'FAILED'}: {detail}")
    correct = all(ok for _, ok, _ in verdicts)
    expected = spec["per_layer" if args.trace else "end_to_end"]
    if correct and set(metrics) != {m["name"] for m in expected}:
        raise RuntimeError(f"metrics {sorted(metrics)} do not match {SPEC_FILE}")
    out = {}
    for m in expected:
        value = float(metrics.get(m["name"], 0.0))
        out[m["name"]] = {"value": value, "unit": m["unit"]}
        shown = "n/a" if m["name"] in not_applicable else repr(value)
        note = f"  [moves: {LAYER_METRICS[m['name']][3]}]" if m["name"] in LAYER_METRICS else ""
        print(f"METRIC {m['name']} {shown} {m['unit']} ({m['better']} is better){note}")
    return {"correct": correct, "attempted": len(results), "failed": failed, "metrics": out}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Few-shot episode benchmark for spikeshot")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        with open(SPEC_FILE) as f:
            spec = json.load(f)
        if not os.path.isfile(BASE_CONFIG):
            raise FileNotFoundError(f"{BASE_CONFIG} is missing")
    except (OSError, ValueError) as e:
        print(f"perfbench: cannot start from {os.getcwd()}: {e}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    result = run(WORKLOADS[args.workload], args, spec)
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1
