#!/usr/bin/env python3
"""fedco benchmark: three workloads run exactly as `fedco_sim` runs them.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The script builds the fedco layer libraries
and the probe (perfbench/probe.cpp) in Release under .bench_build/, then
starts one single-threaded probe process per execution until --seconds have
been measured (at least MIN_EXECUTIONS executions). Every execution's outputs
are checked; the last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (medians over the
executions). With --trace 1 the script makes one untraced and one traced
execution; the traced one records spans around the probe's calls into each
layer and times the layer kernels, and the metrics are the per-layer ones.
See perfbench/README.md for the workloads and the metric map.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"

WORKLOADS = {
    "fleet1m-online": {
        "spec": "examples/scenarios/fleet_1m.json",
        "args": ["--scheduler", "online"],
    },
    "fleet100k-offline": {
        "spec": "examples/scenarios/fleet_100k.json",
        "args": ["--scheduler", "offline"],
    },
    "paper25-train": {
        "spec": "examples/scenarios/homogeneous_paper.json",
        "args": ["--scheduler", "online", "--real-training"],
    },
}

# (name, unit) in BENCHMARK.json order.
END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("user_slots_per_s", "user-slots/s"),
    ("peak_rss_mib", "MiB"),
    ("sim_updates", "count"),
]
KERNELS = [
    ("planner.plan_ms", "ms"),
    ("apps.stream_ns_per_event", "ns"),
    ("fl.local_epoch_ms", "ms"),
    ("fl.evaluate_ms", "ms"),
    ("fl.submit_async_us", "us"),
]
PER_LAYER = [
    ("scenario.expand_s", "s"),
    ("driver.setup_s", "s"),
    ("driver.setup_ns_per_user_slot", "ns"),
    ("driver.decide_s", "s"),
    ("driver.decide_consults", "count"),
    ("driver.decide_ns_per_consult", "ns"),
    ("online.decide_useful_ratio", "ratio"),
    ("driver.park_ratio", "ratio"),
    ("driver.record_s", "s"),
    ("driver.record_ns_per_user_slot", "ns"),
    ("driver.events_s", "s"),
    ("driver.replans", "count"),
    ("driver.finalize_s", "s"),
    ("knapsack.items", "count"),
    ("apps.stream_events", "count"),
    *[
        (f"{name}.{stat}", unit)
        for name, kernel_unit in KERNELS
        for stat, unit in (
            ("p50", kernel_unit),
            ("tail", kernel_unit),
            ("tail_pct", "%"),
            ("n", "count"),
        )
    ],
    ("trace.overhead_s", "s"),
    ("sim_energy_kj", "kJ"),
    ("sim_final_accuracy", "ratio"),
    ("sim_time_to_acc_s", "s"),
]

ENERGY_PARTS = ["training_j", "corun_j", "app_j", "idle_j", "network_j", "overhead_j"]
ENERGY_RTOL = 1e-9
MIN_EXECUTIONS = 2
MEASURE_BUDGET_S = 160.0  # all executions of one invocation, build excluded


class BenchError(Exception):
    """Stops the benchmark without printing a result."""


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


# --------------------------------------------------------------- build


def _cmake(args: list[str]) -> None:
    # Compiler temporary files stay inside the checkout too.
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    proc = subprocess.run(["cmake", *args], cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                          env={**os.environ, "TMPDIR": str(tmp)})
    if proc.returncode != 0:
        raise BenchError(f"cmake {' '.join(args)} failed ({proc.returncode})")


def _cache_value(cache: Path, key: str) -> str:
    for line in cache.read_text().splitlines():
        if line.startswith(key + ":"):
            return line.split("=", 1)[1]
    return ""


def build() -> tuple[Path, dict]:
    """Release-build the layer libraries and the probe; return the probe path
    and the build part of the stamp."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no fedco source tree at {ROOT}")
    jobs = str(os.cpu_count() or 1)
    fedco, probe = BUILD / "fedco", BUILD / "probe"
    if not (fedco / "CMakeCache.txt").is_file():
        _cmake(["-S", str(ROOT), "-B", str(fedco), "-DCMAKE_BUILD_TYPE=Release"])
    _cmake(["--build", str(fedco), "--target", "fedco_core", "-j", jobs])
    if not (probe / "CMakeCache.txt").is_file():
        _cmake(["-S", str(HERE), "-B", str(probe), "-DCMAKE_BUILD_TYPE=Release",
                f"-DFEDCO_ROOT={ROOT}", f"-DFEDCO_BUILD_DIR={fedco}"])
    _cmake(["--build", str(probe), "-j", jobs])
    cache = fedco / "CMakeCache.txt"
    return probe / "fedco_probe", {
        "build_type": _cache_value(cache, "CMAKE_BUILD_TYPE"),
        "compiler": _cache_value(cache, "CMAKE_CXX_COMPILER"),
    }


def source_digest() -> str:
    """sha256 over the files the measured program and the benchmark are built
    from — the commit stamp when the checkout is not a git repository."""
    h = hashlib.sha256()
    roots = [ROOT / "CMakeLists.txt", ROOT / "src", ROOT / "examples" / "scenarios", HERE]
    for base in roots:
        files = [base] if base.is_file() else sorted(p for p in base.rglob("*") if p.is_file())
        for path in files:
            if "__pycache__" in path.parts:
                continue
            h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def commit() -> str:
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        if proc.returncode == 0:
            return proc.stdout.strip()
    return "unknown"


def check_release(stamp: dict) -> None:
    """Refuse to record numbers from anything but an optimized Release build."""
    probe_build = stamp.get("probe_build", {})
    if (stamp.get("build_type") != "Release" or probe_build.get("type") != "Release"
            or probe_build.get("ndebug") is not True):
        raise BenchError(f"refusing to record from a non-Release build: {stamp}")


# ----------------------------------------------------------- execution


def execute(probe: Path, workload: str, seed: int, deadline: float,
            trace_out: Path | None = None) -> dict:
    """One probe process: one execution of the workload, killed at `deadline`
    (time.monotonic). Raises on failure."""
    wl = WORKLOADS[workload]
    cmd = [str(probe), "--spec", wl["spec"], *wl["args"], "--seed", str(seed)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"probe exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_record(rec: dict) -> list[str]:
    """Output checks on one execution's result."""
    r = rec["result"]
    errors = []
    if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in r.values()):
        errors.append("non-finite result value")
        return errors
    total = r["total_energy_j"]
    parts = math.fsum(r[k] for k in ENERGY_PARTS)
    if total <= 0 or abs(parts - total) > ENERGY_RTOL * abs(total):
        errors.append(f"energy breakdown sums to {parts!r}, total is {total!r}")
    sessions = r["corun_sessions"] + r["separate_sessions"]
    if r["total_updates"] > sessions:
        errors.append(f"{r['total_updates']} applied updates exceed {sessions} sessions")
    if r["total_updates"] <= 0:
        errors.append("no update was applied")
    return errors


def check_outcomes(records: list[dict], reference: dict | None) -> list[list[str]]:
    """Every simulated value and count must be identical across executions of
    one workload and seed on one source tree. Returns errors per record."""
    reference = reference if reference is not None else records[0]["result"]
    return [
        [] if rec["result"] == reference else
        [f"simulated outcome differs in {sorted(k for k in reference if rec['result'].get(k) != reference[k])}"]
        for rec in records
    ]


def outcome_cache(workload: str, seed: int, digest: str) -> Path:
    return BUILD / "outcomes" / digest / f"{workload}-seed{seed}.json"


def load_reference(path: Path) -> dict | None:
    return json.loads(path.read_text()) if path.is_file() else None


def save_json(path: Path, doc: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    tmp.replace(path)


# ------------------------------------------------------------- metrics


def end_to_end_metrics(records: list[dict]) -> dict[str, float]:
    """Medians over the executions of one run."""
    def med(f):
        return statistics.median(f(rec) for rec in records)

    return {
        "setup_s": med(lambda r: r["load_s"] + r["expand_s"] + r["timing"]["setup_s"]),
        "wall_s": med(lambda r: r["wall_s"]),
        "user_slots_per_s": med(
            lambda r: r["users"] * r["horizon"] / (r["run_s"] - r["timing"]["setup_s"])),
        "peak_rss_mib": med(lambda r: r["peak_rss_kib"] / 1024.0),
        "sim_updates": med(lambda r: r["result"]["total_updates"]),
    }


def tail_stats(samples: list[float]) -> dict[str, float]:
    """p50, the highest percentile with at least ten samples beyond it (by
    rank: the (n-10)-th smallest sample), its level in percent, and n. A
    kernel the workload does not run reports n = 0 and zeros."""
    n = len(samples)
    if n == 0:
        return {"p50": 0.0, "tail": 0.0, "tail_pct": 0.0, "n": 0}
    xs = sorted(samples)
    p50 = xs[math.ceil(0.5 * n) - 1]
    rank = max(n - 10, math.ceil(0.5 * n))
    return {"p50": p50, "tail": xs[rank - 1], "tail_pct": 100.0 * rank / n, "n": n}


def per_layer_metrics(traced: dict, untraced: dict) -> dict[str, float]:
    t = traced["timing"]
    r = traced["result"]
    user_slots = traced["users"] * traced["horizon"]
    consults = r["decisions_scheduled"] + r["decisions_idle"]
    kernels = traced.get("kernels", {})
    metrics = {
        "scenario.expand_s": traced["expand_s"],
        "driver.setup_s": t["setup_s"],
        "driver.setup_ns_per_user_slot": 1e9 * t["setup_s"] / user_slots,
        "driver.decide_s": t["decide_s"],
        "driver.decide_consults": consults,
        "driver.decide_ns_per_consult": 1e9 * t["decide_s"] / consults if consults else 0.0,
        "online.decide_useful_ratio": r["decisions_scheduled"] / consults if consults else 0.0,
        "driver.park_ratio": r["parks"] / r["decisions_idle"] if r["decisions_idle"] else 0.0,
        "driver.record_s": t["record_s"],
        "driver.record_ns_per_user_slot": 1e9 * t["record_s"] / user_slots,
        "driver.events_s": t["events_s"],
        "driver.replans": r["replans"],
        "driver.finalize_s": t["finalize_s"],
        "knapsack.items": (statistics.median(kernels["knapsack.items"])
                           if kernels.get("knapsack.items") else 0),
        "apps.stream_events": kernels.get("apps.stream_events", 0),
        "trace.overhead_s": traced["wall_s"] - untraced["wall_s"],
        # Simulated outcomes, exact per seed. The convergence pair exists on
        # real-training runs only (0 = no accuracy trace; the program's
        # -1 = threshold never reached).
        "sim_energy_kj": r["total_energy_j"] / 1000.0,
        "sim_final_accuracy": r["final_accuracy"],
        "sim_time_to_acc_s": r["time_to_acc_s"] if traced["real_training"] else 0.0,
    }
    for name, _ in KERNELS:
        for stat, value in tail_stats(kernels.get(name, [])).items():
            metrics[f"{name}.{stat}"] = value
    return metrics


def result_line(metrics: dict[str, float], spec: list[tuple[str, str]],
                attempted: int, failed: int) -> dict:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in spec},
    }


# ---------------------------------------------------------------- main


def measure(probe: Path, workload: str, seed: int, seconds: float, trace: bool,
            stamp: dict) -> dict:
    records: list[dict] = []
    crashes: list[str] = []
    deadline = time.monotonic() + MEASURE_BUDGET_S

    def attempt(trace_out: Path | None = None) -> None:
        try:
            rec = execute(probe, workload, seed, deadline, trace_out)
            rec["traced"] = trace_out is not None
            records.append(rec)
        except (RuntimeError, ValueError, subprocess.TimeoutExpired) as err:
            crashes.append(str(err))
            log(f"{workload} seed {seed}: execution failed: {err}")

    if trace:
        trace_path = BUILD / "traces" / f"{workload}-seed{seed}.json"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        attempt()
        attempt(trace_path)
    else:
        start = time.monotonic()
        while True:
            attempt()
            done = len(records) + len(crashes)
            elapsed = time.monotonic() - start
            if done >= MIN_EXECUTIONS and elapsed >= seconds:
                break
            if time.monotonic() + 1.5 * elapsed / done > deadline:
                break
    attempted = len(records) + len(crashes)
    if not records:
        raise BenchError(f"every execution failed: {crashes}")

    stamp["probe_build"] = records[0]["build"]
    stamp["compiler"] += f" ({records[0]['build']['compiler']})"
    check_release(stamp)

    cache = outcome_cache(workload, seed, stamp["source"])
    errors = [check_record(rec) for rec in records]
    for errs, same in zip(errors, check_outcomes(records, load_reference(cache))):
        errs.extend(same)
    for rec, errs in zip(records, errors):
        rec["errors"] = errs
        for e in errs:
            log(f"{workload} seed {seed}: check failed: {e}")
    if not cache.is_file() and not any(errors):
        save_json(cache, records[0]["result"])
    failed = len(crashes) + sum(1 for errs in errors if errs)

    if trace:
        untraced = [r for r in records if not r["traced"]]
        traced = [r for r in records if r["traced"]]
        if not untraced or not traced:
            raise BenchError("the traced run needs one untraced and one traced execution")
        metrics = per_layer_metrics(traced[0], untraced[0])
        line = result_line(metrics, PER_LAYER, attempted, failed)
    else:
        metrics = end_to_end_metrics(records)
        line = result_line(metrics, END_TO_END, attempted, failed)
    save_json(BUILD / "results" / f"{workload}-seed{seed}-trace{int(trace)}.json",
              {"stamp": stamp, "result": line, "executions": records})
    return line


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        probe, build_stamp = build()
        stamp = {
            "workload": args.workload,
            "seed": args.seed,
            "commit": commit(),
            "source": source_digest(),
            "nproc": os.cpu_count(),
            **build_stamp,
        }
        line = measure(probe, args.workload, args.seed, args.seconds,
                       bool(args.trace), stamp)
    except BenchError as err:
        log(str(err))
        return 1
    print(json.dumps({"stamp": stamp}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
