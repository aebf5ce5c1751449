"""The mtt benchmark: end-to-end metrics per workload, or a per-layer trace.

Usage, from the root of a checkout::

    python3 bench/run.py --workload corpus|defs|modal|all --seed N \\
        --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics: set-up time of a cold
interpreter, ops per second, per-op latency (p50, p90), peak RSS, and the
error rate.  ``--trace 1`` runs the same ops untraced and then under the
per-layer tracer, checks that both give identical output op by op, and
reports each layer's self time, calls and extras.  Every op's output is
checked against its known answer.  A human-readable report comes first; the
last line of stdout is one JSON object.  Exit code 0 means every op gave its
known answer, 1 that some did not, 2 that the program to measure is missing.
See bench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from tracer import LAYERS, metric_names, unit_of  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

SETUP_PROBES = 5  # before the timed loop, and as many again after it
# Cold interpreter to ready: import the CLI and build the four shipped theories.
PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import mtt.cli as c; "
    "[f() for f in c.SHIPPED.values()]; print('ready', flush=True)"
)


def setup_times(src: Path, warm: bool) -> list[float]:
    """Time ``SETUP_PROBES`` fresh interpreters until each is ready; with
    ``warm``, first start one untimed to leave the bytecode cache warm."""
    times = []
    for i in range(SETUP_PROBES + warm):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", PROBE, str(src)], stdout=subprocess.PIPE, text=True
        ) as p:
            line = p.stdout.readline()
            took = time.perf_counter() - t0
            p.stdout.read()
        if p.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {p.returncode}")
        if i or not warm:
            times.append(took)
    return times


def run_worker(spec_path: Path, seconds: float, trace: bool) -> dict:
    argv = [sys.executable, str(BENCH / "worker.py"), str(spec_path), str(seconds)]
    if trace:
        argv.append("--trace")
    limit = 2 * seconds + 45  # the worker stops itself after 2 * seconds + 30
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as p:
        try:
            out, _ = p.communicate(timeout=limit)
        except subprocess.TimeoutExpired:
            p.kill()
            p.communicate()
            return {"error": f"worker exceeded {limit:.0f} s"}
    if p.returncode != 0 or not out.strip():
        return {"error": f"worker exited with code {p.returncode}"}
    return json.loads(out.splitlines()[-1])


def percentile(sorted_xs: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_xs[max(0, math.ceil(q * len(sorted_xs)) - 1)]


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; return attempted, failed, metrics and report lines."""
    workdir = BENCH / ".work" / f"{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ops = generate(workload, seed, ROOT, workdir)
        spec_path = workdir / "ops.json"
        spec = {"src": str(ROOT / "src"), "ops": [asdict(op) for op in ops]}
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        if trace:
            return _traced(workload, ops, spec_path, seconds)
        return _end_to_end(workload, ops, spec_path, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _failed(result: dict, lines: list[str]) -> int:
    if "error" in result:
        lines.append(f"  FAILED: {result['error']}")
        return 1
    for f in result["failures"][:10]:
        lines.append(f"  FAILED: {f}")
    return len(result["failures"])


def _end_to_end(workload: str, ops, spec_path: Path, seconds: float) -> dict:
    setup = setup_times(ROOT / "src", warm=True)
    result = run_worker(spec_path, seconds, trace=False)
    setup += setup_times(ROOT / "src", warm=False)
    lines = [f"workload {workload}: {len(ops)} ops per cycle"]
    failed = _failed(result, lines)
    if "error" in result:
        return {"attempted": 1, "failed": 1, "metrics": {}, "lines": lines}
    lat = sorted(result["latencies_s"])
    n = len(lat)
    beyond = n - math.ceil(0.9 * n)
    metrics = {
        "setup_s": (statistics.median(setup), "s", f"median of {len(setup)} interpreter starts"),
        "ops_per_s": (n / result["elapsed_s"], "1/s", f"{n} ops in {result['elapsed_s']:.2f} s"),
        "latency_p50_ms": (percentile(lat, 0.5) * 1e3, "ms", f"n={n}"),
        "latency_p90_ms": (percentile(lat, 0.9) * 1e3, "ms", f"n={n}, {beyond} beyond"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024, "MB", "n=1 process"),
    }
    if beyond < 10:
        lines.append(f"  WARNING: only {beyond} samples beyond p90; lengthen --seconds")
    for name, (value, unit, note) in metrics.items():
        lines.append(f"  {name:<15} = {value:12.4f} {unit:<4} ({note})")
    attempted = result["attempted"]
    lines.append(f"  {'error_rate':<15} = {failed / attempted:12.4f}      ({failed} of {attempted} ops failed)")
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
        "lines": lines,
    }


def _traced(workload: str, ops, spec_path: Path, seconds: float) -> dict:
    """An untraced run, then a traced one of at least twice its length
    (tracing about doubles the time of a cycle), compared op by op."""
    plain = run_worker(spec_path, seconds / 3, trace=False)
    traced = run_worker(spec_path, 2 * seconds / 3, trace=True)
    lines = [f"workload {workload}: {len(ops)} ops per cycle, traced"]
    failed = _failed(plain, lines) + _failed(traced, lines)
    if "error" in plain or "error" in traced:
        return {"attempted": 1, "failed": 1, "metrics": {}, "lines": lines}
    if plain["digests"] != traced["digests"]:
        diff = sum(a != b for a, b in zip(plain["digests"], traced["digests"]))
        lines.append(f"  FAILED: traced output differs from untraced on {diff} ops")
        failed += diff or 1
    passes = traced["passes"]
    metrics = {}
    for name in metric_names():
        if name == "unattributed.self_s":
            value = statistics.median(
                wall - sum(p[f"{layer}.self_s"] for layer in LAYERS)
                for wall, p in zip(traced["cycle_walls_s"], passes)
            )
        elif name == "trace.overhead_ratio":
            value = statistics.median(traced["cycle_walls_s"]) / statistics.median(
                plain["cycle_walls_s"]
            )
        elif name.endswith("_s"):
            value = statistics.median(p[name] for p in passes)
        else:  # counts repeat exactly from pass to pass
            value = passes[0][name]
            if any(p[name] != value for p in passes):
                lines.append(f"  WARNING: {name} differs between passes")
        metrics[name] = {"value": value, "unit": unit_of(name)}
    lines.append(
        f"  {len(passes)} traced passes, {len(plain['cycle_walls_s'])} untraced; "
        "times are medians per pass, counts are per pass"
    )
    total = sum(metrics[f"{layer}.self_s"]["value"] for layer in LAYERS)
    total += metrics["unattributed.self_s"]["value"]
    for name, m in metrics.items():
        share = f"{100 * m['value'] / total:5.1f}%" if name.endswith(".self_s") else ""
        lines.append(f"  {name:<34} = {m['value']:14.6g} {m['unit']:<5} {share}")
    attempted = plain["attempted"] + traced["attempted"]
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "lines": lines}


def main(argv: "list[str] | None" = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    missing = [p for p in (ROOT / "src" / "mtt" / "cli.py", ROOT / "tests" / "corpus") if not p.exists()]
    if missing:
        print(f"bench: cannot find {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics: dict = {}
    for w in workloads:
        r = measure(w, args.seed, args.seconds, bool(args.trace))
        print("\n".join(r["lines"]), flush=True)
        attempted += r["attempted"]
        failed += r["failed"]
        prefix = f"{w}." if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in r["metrics"].items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
