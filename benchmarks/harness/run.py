#!/usr/bin/env python3
"""One outside-in benchmark for the AutoScale reproduction.

Run one workload (each invocation is one fresh process)::

    python3 benchmarks/harness/run.py --workload serve_static --seed 0 \\
        --seconds 25 --trace 0

It repeats set-up plus measured phase until ``--seconds`` are used (at
least twice), checks that every repetition produced the same outcome
digest and passed the workload's correctness checks, and prints as its
last line ``{"correct", "attempted", "failed", "metrics"}``: every
end-to-end metric of ``BENCHMARK.json`` with ``--trace 0``, every
per-layer metric with ``--trace 1`` (traced and untraced repetitions
alternate).  Host times are those of the fastest repetition (set-up:
the median over repetitions plus the median of three import samples),
scaled to a reference host speed by the lower quartile of a
harness-owned probe loop timed before and after every repetition.  The
line before the result is a detail record (raw times, probe samples,
digests, checks, missing spans).

Sweep every workload, one fresh process at a time, the workloads
interleaved across repeats::

    python3 benchmarks/harness/run.py --seed 0 --repeats 5 --out FILE [--trace]

Compare two sweeps against the ``BENCHMARK.json`` bounds::

    python3 benchmarks/harness/run.py --compare A.json B.json
"""

from __future__ import annotations

import argparse
import gc
import heapq
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK = ROOT / "BENCHMARK.json"

#: Every measured process runs with these: a fixed hash seed, runtime
#: contracts off (the production configuration) and one BLAS thread.
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "REPRO_CONTRACTS": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

#: Self times plus the unattributed root must match the traced wall time
#: within this share.
SELF_TIME_TOLERANCE = 0.02

#: Host times are reported as if the host ran the speed probe in this
#: many seconds (about what an idle 2-vCPU host takes).
PROBE_REFERENCE_S = 0.18


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _peak_rss_mb():
    # ru_maxrss is in KiB on Linux; children covers any worker processes
    # the program may start.
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024


class _Probe:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


def _host_probe_s():
    """Seconds a fixed, harness-owned loop takes on this host right now.

    Other tenants slow a shared host down by tens of percent for minutes
    at a time.  This loop has the simulator's instruction mix (small
    NumPy calls, heap pushes, dict updates, object churn, float math),
    so it slows down with the host but never with a change to the
    program; dividing by it takes most of that drift out of host times.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    table = np.zeros((64, 16))
    heap, window, counts, sums = [], [], {}, {}
    started = time.perf_counter()
    for index in range(60_000):
        draw = float(rng.random())
        heapq.heappush(heap, (draw + index, index))
        _, slot = heapq.heappop(heap)
        row = table[slot & 63]
        action = int(row.argmax())
        row[action] += 0.1 * (math.exp(-draw) - row[action])
        key = f"s{slot & 255}"
        counts[key] = counts.get(key, 0) + 1
        window.append(_Probe(key, draw))
        if len(window) >= 4096:
            del window[:2048]
    for index in range(400_000):
        slot = index & 1023
        sums[slot] = sums.get(slot, 0.0) + math.sqrt(index)
    return time.perf_counter() - started


_IMPORT_PROBE = """
import sys, time
sys.path[:0] = [{here!r}, {src!r}]
started = time.perf_counter()
import tracer, workloads
print(time.perf_counter() - started)
"""


def _import_seconds():
    """Import time of the harness and the program in a fresh interpreter."""
    code = _IMPORT_PROBE.format(here=str(HERE), src=str(ROOT / "src"))
    completed = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                               capture_output=True, text=True, timeout=120,
                               check=True)
    return float(completed.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# One workload in this process
# ----------------------------------------------------------------------

def _repetition(workload, inputs, traced, tracer):
    gc.collect()
    started = time.perf_counter()
    state = workload.setup(inputs)
    setup_s = time.perf_counter() - started
    rep = {"traced": traced, "setup_s": setup_s}
    if traced:
        spans = tracer.Tracer()
        before = tracer.snapshot(state.objects)
        spans.install()
        try:
            started = time.perf_counter()
            result = spans.run(workload.measure, state)
            wall_s = time.perf_counter() - started
        finally:
            spans.uninstall()
    else:
        started = time.perf_counter()
        result = workload.measure(state)
        wall_s = time.perf_counter() - started
    outcome = workload.summarize(state, result)
    rep.update(wall_s=wall_s, digest=outcome.digest, outcome=outcome)
    if traced:
        rep["layers"] = tracer.layer_metrics(spans, state.objects, before,
                                             outcome.metrics)
        rep["self_time_error"] = abs(spans.self_total_s() - wall_s) / wall_s
        rep["missing"] = spans.missing
    return rep


def run_workload(bench, name, seed, seconds, trace, scale_name):
    """Measure one workload; returns ``(detail, result)`` dicts."""
    started = time.perf_counter()
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import tracer
    import workloads
    import_s = time.perf_counter() - started

    workload = workloads.WORKLOADS[name]
    inputs = workload.make_inputs(seed, workloads.SCALES[scale_name])
    # Imports happen once per process: sample them twice more in fresh
    # interpreters so set-up time is a median like the rest.
    import_samples = [import_s] + [_import_seconds() for _ in range(2)]
    probes = [_host_probe_s() for _ in range(2)]
    kinds = itertools.cycle([False, True] if trace else [False])
    reps, durations = [], []
    while True:
        rep_started = time.perf_counter()
        reps.append(_repetition(workload, inputs, next(kinds), tracer))
        gc.collect()
        probes += [_host_probe_s() for _ in range(2)]
        durations.append(time.perf_counter() - rep_started)
        rep = reps[-1]
        print(f"{name} seed={seed} {'traced' if rep['traced'] else 'plain'} "
              f"setup={rep['setup_s']:.3f}s wall={rep['wall_s']:.3f}s",
              file=sys.stderr, flush=True)
        # Stop before a repetition that would overrun --seconds, but
        # never with fewer than two (the determinism check needs them).
        elapsed = time.perf_counter() - started
        if len(reps) >= 2 and elapsed + statistics.median(durations) > seconds:
            break

    plain = [rep for rep in reps if not rep["traced"]]
    traced = [rep for rep in reps if rep["traced"]]
    outcome = reps[0]["outcome"]
    checks = {f"{name}.{check}": ok for rep in reps
              for check, ok in rep["outcome"].checks.items()}
    checks["digests_match"] = len({rep["digest"] for rep in reps}) == 1
    if traced:
        checks["self_times_sum_to_wall"] = all(
            rep["self_time_error"] <= SELF_TIME_TOLERANCE for rep in traced)

    # Contention from other processes only ever adds time, so the
    # fastest repetition is the steadiest estimate of the program's own
    # cost on this host.  The probe's lower quartile (not its single
    # fastest sample, which a 0.2 s probe can catch in a lull no
    # five-second repetition sees) scales it to the reference speed.
    wall_s = min(rep["wall_s"] for rep in plain)
    setup_s = (statistics.median(import_samples)
               + statistics.median([rep["setup_s"] for rep in reps]))
    speed = PROBE_REFERENCE_S / _quartiles(probes)[0]
    if trace:
        fastest = min(traced, key=lambda rep: rep["wall_s"])
        values = dict(fastest["layers"])
        values["trace.wall_s"] = fastest["wall_s"]
        values["trace.overhead_pct"] = (fastest["wall_s"] / wall_s - 1) * 100
        wanted = bench["per_layer"]
    else:
        values = {
            "setup_s": setup_s * speed,
            "wall_s": wall_s * speed,
            "peak_rss_mb": _peak_rss_mb(),
            "inferences_per_s": outcome.operations / (wall_s * speed),
        }
        wanted = bench["end_to_end"]
    metrics = {metric["name"]: {"value": values[metric["name"]],
                                "unit": metric["unit"]}
               for metric in wanted}
    detail = {
        "workload": name, "seed": seed, "scale": scale_name,
        "seconds": seconds, "import_s": import_samples,
        "probe_s": probes, "raw_setup_s": setup_s, "raw_wall_s": wall_s,
        "digest": reps[0]["digest"],
        "reps": [{"traced": rep["traced"], "setup_s": rep["setup_s"],
                  "wall_s": rep["wall_s"], "digest": rep["digest"]}
                 for rep in reps],
        "outcome": outcome.metrics,
        "checks": checks,
        "missing_spans": traced[0]["missing"] if traced else [],
    }
    result = {
        "correct": all(checks.values()),
        "attempted": sum(rep["outcome"].operations for rep in reps),
        "failed": sum(rep["outcome"].lost for rep in reps),
        "metrics": metrics,
    }
    return detail, result


def _pinned_env():
    env = dict(os.environ)
    env.update(PINNED_ENV)
    return env


# ----------------------------------------------------------------------
# Sweep: every workload in fresh processes, interleaved
# ----------------------------------------------------------------------

def _spawn(name, seed, seconds, trace, scale):
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--scale", scale]
    completed = subprocess.run(command, env=_pinned_env(), cwd=ROOT,
                               capture_output=True, text=True,
                               timeout=seconds * 4 + 300, check=False)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or len(lines) < 2:
        sys.stderr.write(completed.stderr)
        raise SystemExit(f"{name}: run failed (exit {completed.returncode})")
    print(completed.stderr.strip(), file=sys.stderr, flush=True)
    return json.loads(lines[-2]), json.loads(lines[-1])


def _commit():
    try:
        completed = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            cwd=ROOT, capture_output=True, text=True, check=False)
    except OSError:
        return "unknown"
    return completed.stdout.strip() or "unknown"


def _summary(values, unit):
    q1, q3 = _quartiles(values)
    return {"unit": unit, "median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "values": values}


def sweep(bench, seed, repeats, seconds, trace, scale, out):
    import numpy

    names = [workload["name"] for workload in bench["workloads"]]
    runs = {name: [] for name in names}
    for repeat in range(repeats):
        shift = repeat % len(names)
        for name in names[shift:] + names[:shift]:
            runs[name].append(_spawn(name, seed, seconds, 0, scale))
    traced = {name: _spawn(name, seed, seconds, 1, scale)
              for name in names} if trace else {}

    checks = {}
    record = {
        "commit": _commit(), "python": platform.python_version(),
        "numpy": numpy.__version__, "nproc": os.cpu_count(),
        "seed": seed, "repeats": repeats, "seconds": seconds,
        "scale": scale, "workloads": {},
    }
    for name in names:
        details = [detail for detail, _ in runs[name]]
        results = [result for _, result in runs[name]]
        digests = {detail["digest"] for detail in details}
        checks[f"{name}.correct"] = all(r["correct"] for r in results)
        checks[f"{name}.repeats_match"] = len(digests) == 1
        entry = {
            "digest": details[0]["digest"],
            "metrics": {
                metric["name"]: _summary(
                    [r["metrics"][metric["name"]]["value"] for r in results],
                    metric["unit"])
                for metric in bench["end_to_end"]
            },
            "runs": details,
        }
        if name in traced:
            detail, result = traced[name]
            checks[f"{name}.traced_correct"] = result["correct"]
            checks[f"{name}.traced_matches_untraced"] = (
                detail["digest"] in digests)
            entry["traced"] = {"metrics": result["metrics"],
                               "missing_spans": detail["missing_spans"],
                               "checks": detail["checks"]}
        record["workloads"][name] = entry
    record["checks"] = checks
    record["correct"] = all(checks.values())

    Path(out).write_text(json.dumps(record, indent=1) + "\n")
    _print_sweep(record, bench)
    return 0 if record["correct"] else 1


def _print_sweep(record, bench):
    print(f"commit {record['commit']}  python {record['python']}  "
          f"numpy {record['numpy']}  nproc {record['nproc']}  "
          f"seed {record['seed']}  repeats {record['repeats']}  "
          f"seconds {record['seconds']}  scale {record['scale']}")
    for name, entry in record["workloads"].items():
        print(f"\n[{name}]  digest {entry['digest'][:16]}")
        for metric, stats in entry["metrics"].items():
            print(f"  {metric:28s} {stats['median']:14.6g} "
                  f"[{stats['q1']:.6g}, {stats['q3']:.6g}] "
                  f"n={stats['n']}  {stats['unit']}")
        if "traced" in entry:
            print(f"  traced run (n=1), missing spans: "
                  f"{entry['traced']['missing_spans'] or 'none'}")
            for metric, value in entry["traced"]["metrics"].items():
                print(f"    {metric:44s} {value['value']:14.6g}  "
                      f"{value['unit']}")
    failed = [check for check, ok in record["checks"].items() if not ok]
    print("\nchecks: " + ("FAILED " + ", ".join(failed) if failed
                          else "all passed"))


# ----------------------------------------------------------------------
# Compare two sweeps
# ----------------------------------------------------------------------

def verdict(parent, change, bound, better):
    """better / same / worse / unresolved for one (metric, workload).

    ``parent`` and ``change`` are the per-run values of each side.  A
    pair is unresolved when either side's quartile spread, as a share of
    its median, is wider than ``bound`` -- unless every run on one side
    beats every run on the other.
    """
    sign = 1.0 if better == "higher" else -1.0
    base = statistics.median(parent)
    shift = sign * (statistics.median(change) - base) / abs(base) if base else 0.0

    def spread(values):
        q1, q3 = _quartiles(values)
        median = statistics.median(values)
        return (q3 - q1) / abs(median) if median else 0.0

    if max(spread(parent), spread(change)) > bound:
        if min(sign * v for v in change) > max(sign * v for v in parent):
            return "better", shift
        if max(sign * v for v in change) < min(sign * v for v in parent):
            return "worse", shift
        return "unresolved", shift
    if shift < -bound:
        return "worse", shift
    if shift > bound:
        return "better", shift
    return "same", shift


def compare(bench, path_a, path_b):
    first = json.loads(Path(path_a).read_text())
    second = json.loads(Path(path_b).read_text())
    print(f"A: {path_a} (commit {first['commit']})")
    print(f"B: {path_b} (commit {second['commit']})")
    counts = {}
    for metric in bench["end_to_end"]:
        for workload in bench["workloads"]:
            name = workload["name"]
            a = first["workloads"][name]["metrics"][metric["name"]]
            b = second["workloads"][name]["metrics"][metric["name"]]
            label, shift = verdict(a["values"], b["values"], metric["bound"],
                                   metric["better"])
            counts[label] = counts.get(label, 0) + 1
            print(f"{metric['name']:20s} {name:18s} {label:10s} "
                  f"A={a['median']:.6g} B={b['median']:.6g} "
                  f"change={shift * 100:+.2f}% (bound "
                  f"{metric['bound'] * 100:.1f}%, {metric['better']} is "
                  f"better)")
    print("summary: " + ", ".join(f"{label} {count}"
                                  for label, count in sorted(counts.items())))
    return 0


# ----------------------------------------------------------------------

def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir() or not BENCHMARK.is_file():
        print(f"no repro package under {ROOT / 'src'} or no "
              f"{BENCHMARK.name}; run from a full checkout",
              file=sys.stderr)
        return 2
    bench = json.loads(BENCHMARK.read_text())
    if args.compare:
        return compare(bench, *args.compare)
    seconds = args.seconds or bench["run_seconds"]
    names = [workload["name"] for workload in bench["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(names)}")
    if args.workload is None:
        if not args.out:
            parser.error("a sweep needs --out FILE")
        return sweep(bench, args.seed, args.repeats, seconds, args.trace,
                     args.scale, args.out)

    if any(os.environ.get(key) != value
           for key, value in PINNED_ENV.items()):
        # The hash seed is fixed at interpreter start: re-execute this
        # process (same PID, nothing left running) with the pinned
        # environment.
        script = str(Path(__file__).resolve())
        os.execve(sys.executable, [sys.executable, script, *argv],
                  _pinned_env())
    detail, result = run_workload(bench, args.workload, args.seed, seconds,
                                  args.trace, args.scale)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
