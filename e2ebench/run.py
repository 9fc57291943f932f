"""End-to-end benchmark of the WiDir simulator.

Run from the root of a checkout::

    python3 e2ebench/run.py [--workload NAME] [--seed N] [--seconds S]
                            [--trace 0|1] [--smoke] [--out FILE]

Each workload runs in fresh processes, one at a time (see ``worker.py``
and ``BENCHMARK.md``). Every metric is printed as ``workload metric value
unit``; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--workload``
the metrics are the ``end_to_end`` set of ``BENCHMARK.json`` (``--trace
0``, the default) or its ``per_layer`` set (``--trace 1``). Without it,
every workload runs traced and both sets are reported, named
``<workload>.<metric>``. ``--smoke`` runs every workload at a tiny scale
under both event kernels and checks the benchmark itself.

The simulator is imported from ``src/`` of the checkout holding this
file; without it the benchmark exits with status 2 and prints no result.
"""

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import bench_config
from layers import simulated_counts

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("sharing-pair", "private-pair", "trace-replay", "figure-suite-cold")
NAME = re.compile(r"[A-Za-z0-9_.-]+")
#: Wall-clock limit of one workload, set-up samples included.
WORKLOAD_TIMEOUT_S = 170
#: Per-layer metrics that are simulated counts: identical on every kernel.
COUNT_METRICS = tuple(simulated_counts([], 0, 0))


class BenchError(Exception):
    """The benchmark could not produce a result."""


def load_spec():
    """Metric name -> unit, for the end_to_end and per_layer sets."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {
        group: {metric["name"]: metric["unit"] for metric in spec[group]}
        for group in ("end_to_end", "per_layer")
    }


def commit() -> str:
    """The checkout's commit, or ``unknown`` outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _worker_env(workdir: Path, kernel):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # Keep every file the simulator might write inside the checkout.
    env["REPRO_CACHE_DIR"] = str(workdir / "repro-cache")
    env["TMPDIR"] = str(workdir)
    # Same dict and set layouts in every run, so memory use repeats.
    env["PYTHONHASHSEED"] = "0"
    if kernel is not None:
        env["REPRO_BATCHED_KERNEL"] = kernel
    return env


def run_worker(workload, args, workdir, deadline, trace, kernel=None, setup_only=False):
    """Run ``worker.py`` once in its own session; returns its JSON output."""
    command = [
        sys.executable,
        str(BENCH_DIR / "worker.py"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(trace),
        "--workdir", str(workdir),
    ]
    command += ["--smoke"] if args.smoke else []
    command += ["--setup-only"] if setup_only else []
    command += ["--t0", repr(time.monotonic())]
    proc = subprocess.Popen(
        command,
        cwd=ROOT,
        env=_worker_env(workdir, kernel),
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException as error:
        # Timeout or interrupt: stop the worker and its pool, then reap it.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(error, subprocess.TimeoutExpired):
            raise BenchError(f"{workload}: over {WORKLOAD_TIMEOUT_S} s") from None
        raise
    if proc.returncode != 0:
        raise BenchError(f"{workload}: worker exited with status {proc.returncode}")
    lines = out.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        raise BenchError(f"{workload}: worker printed no result") from None


def run_workload(workload, args, trace, kernel=None):
    """Set-up samples plus one measured run of ``workload``."""
    scales = bench_config.SMOKE if args.smoke else bench_config.FULL
    samples = (
        scales.replay_setup_samples if workload == "trace-replay" else scales.setup_samples
    )
    deadline = time.monotonic() + WORKLOAD_TIMEOUT_S
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=args.workdir))
    try:
        probes = [
            run_worker(workload, args, workdir, deadline, trace, kernel, setup_only=True)
            for _ in range(samples - 1)
        ]
        result = run_worker(workload, args, workdir, deadline, trace, kernel)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    probes.append(result)
    result["end_to_end"]["setup_s"] = statistics.median(p["setup_s"] for p in probes)
    result["samples"]["setup_s"] = [p["setup_s"] for p in probes]
    if result["per_layer"] is not None:
        result["per_layer"]["traces.record_s"] = statistics.median(
            p["record_s"] for p in probes
        )
    return result


def check_names(workload, result, spec, trace):
    """Every declared metric is emitted, and nothing undeclared."""
    groups = ("end_to_end", "per_layer") if trace else ("end_to_end",)
    for group in groups:
        emitted = set(result[group])
        declared = set(spec[group])
        if emitted != declared:
            raise BenchError(
                f"{workload}: {group} metrics disagree with BENCHMARK.json: "
                f"missing {sorted(declared - emitted)}, "
                f"undeclared {sorted(emitted - declared)}"
            )
        bad = [name for name in emitted if not NAME.fullmatch(name)]
        if bad:
            raise BenchError(f"{workload}: malformed metric names {bad}")


def report(workload, result, spec, trace):
    """Print the human-readable lines; returns {name: {value, unit}}."""
    groups = ("end_to_end", "per_layer") if trace else ("end_to_end",)
    metrics = {}
    for group in groups:
        for name in spec[group]:
            value = result[group][name]
            metrics[name] = {"value": value, "unit": spec[group][name]}
            print(f"{workload} {name} {value!r} {spec[group][name]}")
    print(f"{workload} reps {result['reps']} count")
    print(f"{workload} attempted {result['attempted']} count")
    print(f"{workload} failed {result['failed']} count")
    return metrics


def smoke(args, spec):
    """Tiny scales, both kernels: names, failures, and count identity."""
    outputs = {}
    problems = []
    for kernel in ("1", "0"):
        for workload in WORKLOADS:
            result = run_workload(workload, args, trace=1, kernel=kernel)
            check_names(workload, result, spec, trace=1)
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} kernel={kernel}: {result['errors']}")
            outputs[(workload, kernel)] = result
            print(
                f"smoke {workload} kernel={kernel} attempted {result['attempted']} "
                f"failed {result['failed']}"
            )
    for workload in WORKLOADS:
        batched, heap = outputs[(workload, "1")], outputs[(workload, "0")]
        for name in COUNT_METRICS:
            if batched["per_layer"][name] != heap["per_layer"][name]:
                problems.append(f"{workload}: {name} differs between kernels")
        if batched["end_to_end"]["widir_speedup"] != heap["end_to_end"]["widir_speedup"]:
            problems.append(f"{workload}: widir_speedup differs between kernels")
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    results = {f"{w} kernel={k}": r for (w, k), r in outputs.items()}
    return results, not problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=bench_config.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", type=Path, help="also write every number as JSON here")
    args = parser.parse_args(argv)
    # A terminated run still stops its worker (see run_worker).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no simulator sources under {ROOT / 'src'}; nothing to measure", file=sys.stderr)
        return 2
    spec = load_spec()
    provenance = {"commit": commit()}
    work_root = ROOT / ".e2ebench_work"
    work_root.mkdir(exist_ok=True)
    args.workdir = Path(tempfile.mkdtemp(dir=work_root))
    try:
        if args.smoke:
            args.seconds = 0.0
            results, correct = smoke(args, spec)
            metrics = {}
        else:
            workloads = [args.workload] if args.workload else list(WORKLOADS)
            trace = args.trace if args.trace is not None else int(not args.workload)
            results, metrics, correct = {}, {}, True
            for workload in workloads:
                result = run_workload(workload, args, trace)
                check_names(workload, result, spec, trace)
                results[workload] = result
                correct = correct and result["correct"]
                shown = report(workload, result, spec, trace)
                if args.workload:
                    group = "per_layer" if trace else "end_to_end"
                    metrics = {name: shown[name] for name in spec[group]}
                else:
                    metrics.update({f"{workload}.{n}": v for n, v in shown.items()})
    except BenchError as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run is still using it

    provenance.update(next(iter(results.values()))["provenance"])
    print("# provenance " + json.dumps(provenance, sort_keys=True))
    if args.out is not None:
        args.out.write_text(
            json.dumps({"provenance": provenance, "workloads": results}, indent=2) + "\n"
        )
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct or not args.smoke else 1


if __name__ == "__main__":
    sys.exit(main())
