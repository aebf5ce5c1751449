"""Run one workload's ops in this interpreter and report what happened.

Usage: ``python3 bench/worker.py OPS_JSON SECONDS [--trace]``

OPS_JSON (written by ``run.py``) holds the path of the ``mtt`` sources and
one cycle of ops with their known answers.  The worker is a closed loop with
one client: it calls ``mtt.cli.main`` on each op in turn, capturing stdout
and stderr, and repeats whole cycles until SECONDS have passed.  With
``--trace`` every cycle runs under the per-layer tracer.  The report is one
JSON object on stdout.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import signal
import sys
import time
from pathlib import Path

OP_TIME_LIMIT_S = 20.0


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout()


def run_op(main, argv: list[str]) -> tuple[int, str, str]:
    """One command, as ``mtt`` would run it, with a time limit.  Raises
    whatever the command raises, or ``OpTimeout``."""
    out, err = io.StringIO(), io.StringIO()
    signal.setitimer(signal.ITIMER_REAL, OP_TIME_LIMIT_S)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as e:  # argparse usage errors
                code = e.code if isinstance(e.code, int) else 2
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return code, out.getvalue(), err.getvalue()


def main_loop(spec: dict, seconds: float, trace: bool) -> dict:
    sys.path.insert(0, spec["src"])
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import mtt.cli
    from tracer import Tracer

    if not Path(mtt.cli.__file__).resolve().is_relative_to(Path(spec["src"]).resolve()):
        raise SystemExit(f"imported mtt from {mtt.cli.__file__}, not from {spec['src']}")
    signal.signal(signal.SIGALRM, _alarm)
    with Tracer() if trace else contextlib.nullcontext() as tracer:
        report = run_cycles(mtt.cli.main, spec["ops"], seconds, tracer)
    report["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return report


def run_cycles(main, ops: list[dict], seconds: float, tracer) -> dict:
    """Whole cycles over ``ops`` until ``seconds`` have passed (at least one)."""
    from workloads import answer

    latencies: list[float] = []
    cycle_walls: list[float] = []
    passes: list[dict] = []
    failures: list[str] = []
    digests: list[str] = []
    attempted = 0
    hard_stop = 2 * seconds + 30
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.reset()
        wall = 0.0
        for op in ops:
            attempted += 1
            t0 = time.perf_counter()
            try:
                outputs = [run_op(main, list(argv)) for argv in op["commands"]]
            except Exception as e:  # noqa: BLE001 -- any raise is a failed op
                took = time.perf_counter() - t0
                got = verdict = f"raised {type(e).__name__}: {e}"
            else:
                took = time.perf_counter() - t0
                got = [answer(op["mode"], *o) for o in outputs]
                verdict = json.dumps(outputs)
            wall += took
            latencies.append(took)
            if got != op["expect"]:
                where = " ; ".join(" ".join(argv) for argv in op["commands"])
                failures.append(f"{where}: got {str(got)[:400]}")
            if not cycle_walls:
                digests.append(hashlib.sha256(verdict.encode()).hexdigest())
            if tracer is not None:
                tracer.drain()
            if time.perf_counter() - start > hard_stop:
                failures.append(f"stopped after {hard_stop:.0f} s, inside a cycle")
                break
        cycle_walls.append(wall)
        if tracer is not None:
            passes.append(tracer.snapshot())
        elapsed = time.perf_counter() - start
        if elapsed >= seconds or failures:
            break
    return {
        "attempted": attempted,
        "failures": failures,
        "elapsed_s": elapsed,
        "latencies_s": latencies,
        "cycle_walls_s": cycle_walls,
        "digests": digests,
        "passes": passes,
    }


if __name__ == "__main__":
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    report = main_loop(spec, float(sys.argv[2]), "--trace" in sys.argv[3:])
    sys.stdout.write(json.dumps(report) + "\n")
