"""The surface printer of normal forms as it stood before normal forms
printed through their embedding into core terms (``normal.decode_nf`` and
``syntax.show_term``): the reference the new printer is compared with.
It chooses parentheses by matching the printed text of each subterm, and
prints a projected keyed variable as ``x0^pt.1``, which does not parse.
"""

from __future__ import annotations

import re

from mtt.modeth import Modality, ModeTheory
from mtt.normal import (
    Ne,
    NeApp,
    NeBoolRec,
    NeDecIso,
    NeLetMod,
    NeProj1,
    NeProj2,
    NeVar,
    Nf,
    NfBool,
    NfBoolCode,
    NfDec,
    NfDecIsoStar,
    NfFalse,
    NfFn,
    NfFnCode,
    NfInj,
    NfLam,
    NfMkBox,
    NfModify,
    NfModifyCode,
    NfProd,
    NfPair,
    NfProdCode,
    NfTrue,
    NfTy,
    NfUni,
)


def _render_mod(mod: Modality) -> str:
    if not mod.word:
        return f"id({mod.mode_src})"
    return ".".join(reversed(mod.word))


def _wrap(s: str) -> str:
    if re.fullmatch(r"[A-Za-z0-9_'^.<>|]+", s) or (s.startswith("(") and s.endswith(")")):
        return s
    return f"({s})"


def surface_nf(mt: ModeTheory, u: Nf, depth: int = 0) -> str:
    c = u.__class__
    if c is NfTrue:
        return "true"
    if c is NfFalse:
        return "false"
    if c is NfLam:
        b = surface_nf(mt, u.body, depth + 1)
        return f"\\({_render_mod(u.mod)} | x{depth}) -> {b}"
    if c is NfInj:
        return surface_ne(mt, u.ne, depth)
    if c is NfPair:
        return f"({surface_nf(mt, u.fst, depth)}, {surface_nf(mt, u.snd, depth)})"
    if c is NfMkBox:
        return f"box {_render_mod(u.mod)} {_wrap(surface_nf(mt, u.body, depth))}"
    if c is NfFnCode:
        d = surface_nf(mt, u.dom, depth)
        cod = surface_nf(mt, u.cod, depth + 1)
        return f"PiC ({_render_mod(u.mod)} | x{depth} : {d}) -> {cod}"
    if c is NfProdCode:
        f = surface_nf(mt, u.fst, depth)
        s = surface_nf(mt, u.snd, depth + 1)
        return f"SigC (x{depth} : {f}) * {s}"
    if c is NfBoolCode:
        return "BoolC"
    if c is NfModifyCode:
        return f"ModC {_render_mod(u.mod)} {_wrap(surface_nf(mt, u.code, depth))}"
    if c is NfDecIsoStar:
        return f"iso-inv {_wrap(surface_nf(mt, u.body, depth))}"
    raise ValueError(f"cannot render {type(u).__name__}")


def surface_ne(mt: ModeTheory, e: Ne, depth: int = 0) -> str:
    match e:
        case NeVar(idx, cell):
            name = f"x{depth - 1 - idx}"
            return f"{name}^{cell}" if cell.layers else name
        case NeApp(fn, _, arg):
            f = surface_ne(mt, fn, depth)
            a = surface_nf(mt, arg, depth)
            return f"({f} {_wrap(a)})"
        case NeProj1(p):
            return f"{_wrap(surface_ne(mt, p, depth))}.1"
        case NeProj2(p):
            return f"{_wrap(surface_ne(mt, p, depth))}.2"
        case NeBoolRec(motive, scrut, tcase, fcase):
            m = surface_nfty(mt, motive, depth + 1)
            s = surface_ne(mt, scrut, depth)
            t = surface_nf(mt, tcase, depth)
            f = surface_nf(mt, fcase, depth)
            return f"(if [x{depth}. {m}] {_wrap(s)} then {_wrap(t)} else {_wrap(f)})"
        case NeLetMod(mu, nu, motive, scrut, branch):
            m = surface_nfty(mt, motive, depth + 1)
            s = surface_ne(mt, scrut, depth)
            b = surface_nf(mt, branch, depth + 1)
            return (
                f"(letbox ({_render_mod(mu)} | {_render_mod(nu)}) "
                f"[x{depth}. {m}] x{depth} = {_wrap(s)} in {b})"
            )
        case NeDecIso(body):
            return f"iso {_wrap(surface_ne(mt, body, depth))}"
    raise ValueError(f"cannot render {type(e).__name__}")


def surface_nfty(mt: ModeTheory, t: NfTy, depth: int = 0) -> str:
    c = t.__class__
    if c is NfBool:
        return "Bool"
    if c is NfFn:
        d = surface_nfty(mt, t.dom, depth)
        cod = surface_nfty(mt, t.cod, depth + 1)
        return f"Pi ({_render_mod(t.mod)} | x{depth} : {d}) -> {cod}"
    if c is NfUni:
        return "Uni"
    if c is NfProd:
        f = surface_nfty(mt, t.fst, depth)
        s = surface_nfty(mt, t.snd, depth + 1)
        return f"Sig (x{depth} : {f}) * {s}"
    if c is NfModify:
        return f"Mod {_render_mod(t.mod)} ({surface_nfty(mt, t.ty, depth)})"
    if c is NfDec:
        return f"dec {_wrap(surface_nf(mt, t.code, depth))}"
    raise ValueError(f"cannot render {type(t).__name__}")
