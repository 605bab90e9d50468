"""Benchmark of the kschubert engine: end-to-end metrics per workload, or the
per-layer metrics of one traced run.

Usage (from the repository root):

    python3 perfbench/run.py --workload square|scan|verify|all
        [--seed N] [--seconds S] [--trace 0|1] [--out report.json]

Every sample is one single-threaded child process (``worker.py``), started
only after the previous one has ended: a closed loop with one caller, so a
small shared machine measures the program and not its scheduler.  Children
are started for ``--seconds`` seconds, each after a fresh import, so every
sample pays the cold caches a user's process pays.  Each child checks every
output against an independent oracle after its timed region.

The metric names and units come from ``BENCHMARK.json``.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it repeat every metric by name
and unit, with the run context and the sha256 digest of the canonical
outputs (reported, not gated).  The exit code is 0 only when no operation
failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("square", "scan", "verify")
# Set-up samples per run on top of the measured children; one more probe
# first fills the byte-code cache and is not counted.
SETUP_PROBES = 15
# A run must end within 180 s; no child is started that could overrun this.
TIME_LIMIT_S = 170.0


class ChildError(RuntimeError):
    """A child exited abnormally or printed no result."""


def spawn(workload: str, seed: int, trace: int, setup_only: bool = False,
          timeout: float = TIME_LIMIT_S) -> dict:
    """Run one worker child to completion and return its result, with
    ``setup_s`` measured from the moment it was spawned."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    # A fixed hash seed makes set iteration order, and with it every
    # operation count, repeat exactly from one process to the next.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise ChildError(f"{workload} child exceeded {timeout:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(f"{workload} child exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        raise ChildError(f"{workload} child printed no result")
    result["setup_s"] = result["setup_done"] - spawned
    result["elapsed_s"] = time.monotonic() - spawned
    return result


def _quantile(values, q: int) -> float:
    """The q-th percentile, interpolated inside the samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_untraced(workload: str, seed: int, seconds: int, deadline: float):
    """Set-up probes, then measured children until ``seconds`` have passed."""
    start = time.monotonic()
    spawn(workload, seed, 0, setup_only=True)
    setups = [spawn(workload, seed, 0, setup_only=True)["setup_s"]
              for _ in range(SETUP_PROBES)]
    children = []
    while True:
        # Each child draws its own order from the run's seed, so the pooled
        # per-operation times do not hang on one order of the scan.
        child = spawn(workload, seed * 100 + len(children), 0,
                      timeout=deadline - time.monotonic())
        children.append(child)
        now = time.monotonic()
        if now - start >= seconds or deadline - now < 2 * child["elapsed_s"]:
            break
    setups += [c["setup_s"] for c in children]
    ops = [t for c in children for t in c["op_s"]]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(c["wall_s"] for c in children),
        "op_p50_s": statistics.median(ops),
        "op_p90_s": _quantile(ops, 90),
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in children),
    }
    info = {"children": len(children), "setup_samples": len(setups),
            "op_samples": len(ops),
            "op_samples_above_p90": sum(t > metrics["op_p90_s"] for t in ops)}
    return metrics, children, info


def run_traced(workload: str, seed: int, deadline: float):
    """One untraced child for the overhead baseline, then one traced child."""
    plain = spawn(workload, seed * 100, 0, timeout=deadline - time.monotonic())
    traced = spawn(workload, seed * 100, 1, timeout=deadline - time.monotonic())
    metrics = dict(traced["layers"])
    metrics["trace.wall_s"] = traced["wall_s"]
    metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    metrics["nilhecke.e_cosets.share"] = (
        metrics.get("nilhecke.e_cosets.inclusive_s", 0.0) / traced["wall_s"])
    info = {"absent": traced["absent"], "untraced_wall_s": plain["wall_s"]}
    return metrics, [plain, traced], info


def run_context() -> dict:
    """Where the numbers were taken; information only, never gated."""
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True,
                                    timeout=30).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "commit": commit,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "src_lines": src_lines,
        "note": "no CPU pinning and no clock-frequency control",
    }


def run_workload(workload: str, args, spec: dict) -> dict | None:
    deadline = time.monotonic() + TIME_LIMIT_S
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    try:
        if args.trace:
            measured, children, info = run_traced(workload, args.seed, deadline)
        else:
            measured, children, info = run_untraced(
                workload, args.seed, args.seconds, deadline)
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    digests = sorted({c["digest"] for c in children})

    print(f"workload {workload}  seed {args.seed}  trace {args.trace}  {info}")
    metrics = {}
    for m in declared:
        value = measured.get(m["name"], 0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:<40} {value:>14.6g} {m['unit']}")
    if not args.trace:
        # Per-operation percentiles spread too much from run to run on a
        # shared host to be gated; they are reported beside the gated ones.
        for name in sorted(set(measured) - set(metrics)):
            print(f"  {name:<40} {measured[name]:>14.6g} s  (not gated)")
    print(f"  {'failed_frac':<40} {failed / max(attempted, 1):>14.6g} 1"
          f"  ({failed} of {attempted})")
    print(f"  digest sha256 {' '.join(digests)}"
          + ("  (children disagree)" if len(digests) > 1 else ""))
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "all_metrics": measured,
        "info": info,
        "digests": digests,
        "samples": [{k: v for k, v in c.items() if k != "layers"} for c in children],
    }


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file() or not (ROOT / "src" / "kschubert" / "__init__.py").is_file():
        print(f"error: {ROOT} holds no BENCHMARK.json or no src/kschubert", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write the full report as JSON")
    args = parser.parse_args(argv)

    context = run_context()
    print("context " + json.dumps(context))
    report = {"context": context, "workloads": {}}
    ok = True
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        result = run_workload(workload, args, spec)
        if result is None:
            return 1
        report["workloads"][workload] = result
        ok = ok and result["correct"]
        print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    if args.out:
        args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
