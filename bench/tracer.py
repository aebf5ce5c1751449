"""Outside-in per-layer tracing of the ``mtt`` package.

The tracer wraps the public functions of each layer in place, from outside
the program: no line of ``mtt`` changes.  Each wrapped call is a span; a
layer's self time is its spans' time minus the time of the wrapped calls
they made, so nested spans of one layer are counted once.  Time spent in
code no layer names stays with the nearest enclosing span, or is left
unattributed when there is none.

The ``mtt`` modules import functions by name (``check.py`` does ``from
.nbe import eval_tm``), so a wrapper replaces every module binding of the
function, not only the one in its home module.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

# layer -> the functions it owns, as "module:function" under the mtt package.
LAYERS: dict[str, tuple[str, ...]] = {
    "cli.parse": ("cli:parse_file",),
    "check.typing": ("check:check_type", "check:check_tm", "check:infer"),
    "check.ctx": (
        "check:ctx_extend",
        "check:ctx_lock",
        "normal:depth",
        "normal:tele_entry",
        "normal:locks_of",
    ),
    "check.lookup": ("check:lookup_var",),
    "check.convert": ("check:convert_ty", "check:convert_tm"),
    "nbe.eval": (
        "nbe:eval_tm",
        "nbe:eval_ty",
        "nbe:inst_ty",
        "nbe:instantiate",
        "nbe:do_app",
        "nbe:do_proj",
        "nbe:do_if",
        "nbe:do_letmod",
        "nbe:key_val",
        "nbe:dec_unfold",
    ),
    "nbe.readback": ("nbe:reify", "nbe:reify_ty", "nbe:reify_ne", "nbe:reflect"),
    "nbe.normalize": ("nbe:normalize", "nbe:normalize_ty"),
    "normal.compare": ("normal:eq_nf", "normal:eq_ne", "normal:eq_nfty"),
    "normal.rename": (
        "normal:rename_nf",
        "normal:rename_nfty",
        "normal:rename_ne",
        "normal:decode_nfty",
    ),
    "modeth.decider": (
        "modeth:eq_mod",
        "modeth:eq_cell",
        "modeth:is_id_cell",
        "modeth:canon_word",
        "modeth:cell_check",
    ),
    "cli.render": ("cli:surface_nf", "cli:surface_nfty", "cli:surface_ne"),
}

# Metrics beyond <layer>.self_s, .calls and .raised.
EXTRAS = (
    "cli.parse.tokens",
    "cli.parse.core_nodes",
    "check.ctx.max_depth",
    "check.lookup.transports",
    "check.convert.rejects",
    "nbe.normalize.incl_s",
    "modeth.decider.eq_cell.calls",
    "modeth.decider.canon_word.calls",
    "cli.render.bytes",
)

# Each wrapper adds one interpreter frame per wrapped call.
FRAME_FACTOR = 2


def metric_names() -> list[str]:
    names = [f"{layer}.{m}" for layer in LAYERS for m in ("self_s", "calls", "raised")]
    return names + list(EXTRAS) + ["unattributed.self_s", "trace.overhead_ratio"]


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(".bytes"):
        return "B"
    return "ratio" if name.endswith("_ratio") else "count"


class Tracer:
    """Install with ``with Tracer() as t:``; leaving the block restores
    every patched binding and the recursion limit."""

    def __init__(self) -> None:
        self.patches: list[tuple[object, str, object]] = []
        self._stack: list[list] = []  # [layer, function, time in child spans]
        self._parsed: list[tuple[str, object]] = []
        self._limit = 0
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.raised: Counter = Counter()
        self.fn_calls: Counter = Counter()
        self.fn_self_s: dict[str, float] = defaultdict(float)
        self.extra: dict[str, float] = defaultdict(int)

    def reset(self) -> None:
        """Zero every count and time (the wrappers hold these objects)."""
        for d in (self.self_s, self.calls, self.raised, self.fn_calls, self.fn_self_s, self.extra):
            d.clear()

    def __enter__(self) -> "Tracer":
        import mtt.cli  # noqa: F401  (loads every layer's module)

        mods = [m for name, m in sorted(sys.modules.items()) if name.partition(".")[0] == "mtt"]
        try:
            for layer, specs in LAYERS.items():
                for spec in specs:
                    mod, fn = spec.split(":")
                    orig = getattr(sys.modules[f"mtt.{mod}"], fn)
                    wrapped = self._wrap(layer, fn, orig)
                    for m in mods:
                        for attr, val in list(vars(m).items()):
                            if val is orig:
                                self.patches.append((m, attr, orig))
                                setattr(m, attr, wrapped)
        except BaseException:
            self._restore()
            raise
        self._limit = sys.getrecursionlimit()
        sys.setrecursionlimit(self._limit * FRAME_FACTOR)
        return self

    def __exit__(self, *exc) -> None:
        sys.setrecursionlimit(self._limit)
        self._restore()

    def _restore(self) -> None:
        while self.patches:
            m, attr, orig = self.patches.pop()
            setattr(m, attr, orig)

    def _wrap(self, layer: str, fn_name: str, fn):
        stack = self._stack
        clock = time.perf_counter
        self_s, calls, raised = self.self_s, self.calls, self.raised
        fn_calls, fn_self_s = self.fn_calls, self.fn_self_s
        hook = getattr(self, f"_after_{fn_name}", None)

        def wrapper(*args, **kwargs):
            calls[layer] += 1
            fn_calls[fn_name] += 1
            parent = stack[-1] if stack else None
            frame = [layer, fn_name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if parent is None or parent[0] != layer:
                    raised[layer] += 1
                raise
            finally:
                elapsed = clock() - t0
                stack.pop()
                self_s[layer] += elapsed - frame[2]
                fn_self_s[fn_name] += elapsed - frame[2]
                if parent is not None:
                    parent[2] += elapsed
            if hook is not None:
                hook(args, result, parent, elapsed)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- per-function extras; each is O(1) so it adds no measurable time

    def _after_parse_file(self, args, result, parent, elapsed):
        self._parsed.append((args[0], result))

    def _after_ctx_extend(self, args, result, parent, elapsed):
        if len(result.types) > self.extra["check.ctx.max_depth"]:
            self.extra["check.ctx.max_depth"] = len(result.types)

    def _after_rename_nfty(self, args, result, parent, elapsed):
        if parent is not None and parent[1] == "lookup_var":
            self.extra["check.lookup.transports"] += 1

    def _after_convert_ty(self, args, result, parent, elapsed):
        if not result:
            self.extra["check.convert.rejects"] += 1

    _after_convert_tm = _after_convert_ty

    def _after_normalize(self, args, result, parent, elapsed):
        if parent is None or parent[0] != "nbe.normalize":
            self.extra["nbe.normalize.incl_s"] += elapsed

    _after_normalize_ty = _after_normalize

    def _after_surface_nf(self, args, result, parent, elapsed):
        if parent is None or parent[0] != "cli.render":
            self.extra["cli.render.bytes"] += len(result.encode("utf-8"))

    _after_surface_nfty = _after_surface_ne = _after_surface_nf

    def drain(self) -> None:
        """Count the tokens and core-term nodes of files parsed since the
        last call.  Call it between ops, outside any timed region."""
        from mtt.cli import tokenize

        for text, (_, decls) in self._parsed:
            self.extra["cli.parse.tokens"] += len(tokenize(text)) - 1  # less eof
            sizes: dict[int, int] = {}
            for d in decls:
                self.extra["cli.parse.core_nodes"] += tree_size(d.ty, sizes) + tree_size(
                    d.body, sizes
                )
        self._parsed.clear()

    def snapshot(self) -> dict[str, float]:
        """This pass's metrics, without ``unattributed`` and ``trace`` ones."""
        self.drain()
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s[layer]
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.raised"] = self.raised[layer]
        for name in EXTRAS:
            out[name] = self.extra[name]
        out["modeth.decider.eq_cell.calls"] = self.fn_calls["eq_cell"]
        out["modeth.decider.canon_word.calls"] = self.fn_calls["canon_word"]
        return out


def tree_size(term, sizes: dict[int, int]) -> int:
    """Nodes of a core term counted as a tree (shared subterms count once
    per occurrence), memoised by identity in ``sizes``."""
    from mtt.syntax import Term

    todo = [(term, False)]
    while todo:
        t, ready = todo.pop()
        if id(t) in sizes:
            continue
        kids = [v for v in vars(t).values() if isinstance(v, Term)]
        if ready:
            sizes[id(t)] = 1 + sum(sizes[id(k)] for k in kids)
        else:
            todo.append((t, True))
            todo.extend((k, False) for k in kids)
    return sizes[id(term)]
