"""Re-measure the ROADMAP's two profiling claims with the tracer.

Usage, from the root of a checkout: ``python3 bench/roadmap_check.py``

1. "``normal.depth`` accounts for 43k calls and about 19% of check time on
   a 6-deep chain" -- the chain ``f_i := \\x -> f_{i-1} (f_{i-1} x)``,
   i = 1..6.
2. "``eq_cell`` takes 7 ms at n=50 and 109 ms at n=200" -- two
   interchange-different composites of n whiskered ``pt`` layers.
"""

from __future__ import annotations

import contextlib
import io
import random
import statistics
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

from tracer import LAYERS, Tracer  # noqa: E402
from workloads import pt_composite  # noqa: E402


def chain(n: int) -> str:
    """``f0 := \\x -> x`` and n definitions that each use the previous twice."""
    lines = ["theory trivial", "def f0 @m : Pi (x : Bool) -> Bool := \\x -> x"]
    for i in range(1, n + 1):
        lines.append(f"def f{i} @m : Pi (x : Bool) -> Bool := \\x -> f{i - 1} (f{i - 1} x)")
    return "\n".join(lines) + "\n"


def check(main, path: str) -> float:
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["check", path])
    if code != 0:
        raise SystemExit(f"check {path} failed with exit code {code}")
    return time.perf_counter() - t0


def depth_claim(main, workdir: Path) -> None:
    path = workdir / "chain6.mtt"
    path.write_text(chain(6))
    plain = statistics.median(check(main, str(path)) for _ in range(3))
    with Tracer() as t:
        traced = check(main, str(path))
    layer_total = sum(t.self_s[layer] for layer in LAYERS)
    print(f"6-deep chain: mtt check {plain * 1e3:.0f} ms untraced, {traced * 1e3:.0f} ms traced")
    print(
        f"  normal.depth: {t.fn_calls['depth']} calls, "
        f"{100 * t.fn_self_s['depth'] / traced:.1f}% of traced time"
    )
    for layer in ("check.ctx", "check.typing", "nbe.eval", "modeth.decider"):
        print(
            f"  {layer}: {t.calls[layer]} calls, "
            f"{100 * t.self_s[layer] / traced:.1f}% of traced time"
        )
    print(f"  unattributed: {100 * (traced - layer_total) / traced:.1f}%")


def eq_cell_claim() -> None:
    from mtt import cli
    from mtt.modeth import eq_cell, pointed

    mt = pointed()
    rng = random.Random(0)
    for n in (50, 100, 200):
        gaps = [rng.randint(0, 1) for _ in range(n)]
        cells = []
        for order in (gaps, rng.sample(gaps, n)):
            p = cli.Parser(cli.tokenize(pt_composite(rng, order, 1)), mt)
            cells.append(p.parse_cell(None))
        runs = []
        for _ in range(3):
            t0 = time.perf_counter()
            assert eq_cell(mt, *cells)
            runs.append(time.perf_counter() - t0)
        print(f"eq_cell on two {n}-layer pt composites: {statistics.median(runs) * 1e3:.1f} ms")


def main() -> None:
    from mtt.cli import main as mtt_main

    with tempfile.TemporaryDirectory(dir=BENCH) as d:
        depth_claim(mtt_main, Path(d))
    eq_cell_claim()


if __name__ == "__main__":
    main()
