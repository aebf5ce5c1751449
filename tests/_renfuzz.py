"""Random instance generators for the renaming-equation families.

Everything runs in the pointed theory (one mode, an endo generator ``l``, a
cell ``pt : id => l``): parallel 1-cells ``l^i => l^j`` carry several distinct
2-cells once i >= 1, so whisker order is observable and the equations have
real content.  Each ``*_instance`` function draws one instance and returns a
pair of neutrals that the equation asserts equal (compared with ``eq_ne``).

Instances live over contexts presented as tuples of entries, oldest first:
``("lock", mu)`` or ``("var", annotation)``.  Scanning such a tuple
(``scan_ann``, ``scan_locks``) is the reference that the checker's by-level
readers, ``normal.tele_entry`` and ``normal.locks_of``, are held to.
"""

from __future__ import annotations

from random import Random

from mtt.modeth import (
    Modality,
    cell_check,
    compose_mod,
    eq_mod,
    gen_cell,
    id_cell,
    id_mod,
    pointed,
    vcomp,
    whisker_left,
    whisker_right,
)
from mtt.normal import (
    NeVar,
    RenComp,
    RenExt,
    RenId,
    RenKey,
    RenLock,
    RenWeaken,
    rename_ne,
)

P = pointed()
PT = gen_cell(P, "pt")


def lpow(i: int) -> Modality:
    return id_mod("m") if i == 0 else Modality("m", "m", ("l",) * i)


def rand_cell(rng: Random, i: int, j: int):
    """A random 2-cell l^i => l^j (requires i <= j)."""
    assert i <= j
    c = id_cell(lpow(i))
    cur = i
    while cur < j:
        a = rng.randint(0, cur)
        step = whisker_left(lpow(cur - a), whisker_right(PT, lpow(a)))
        c = vcomp(step, c, P)
        cur += 1
    if rng.random() < 0.25:
        c = vcomp(id_cell(lpow(j)), c, P)
    return c


# --- the scanning reference --------------------------------------------------


def scan_depth(entries: tuple) -> int:
    return sum(1 for kind, _ in entries if kind == "var")


def _position(entries: tuple, k: int) -> int:
    """Position in ``entries`` of the variable with de Bruijn index k."""
    seen = 0
    for pos in range(len(entries) - 1, -1, -1):
        if entries[pos][0] == "var":
            if seen == k:
                return pos
            seen += 1
    raise IndexError(f"variable index {k} does not resolve in a context of depth {seen}")


def scan_ann(entries: tuple, k: int) -> Modality:
    """Variable k's annotation."""
    return entries[_position(entries, k)][1]


def scan_locks(entries: tuple, k: int) -> Modality:
    """Composite of the locks after variable k.  The lock nearest the entry
    is the outer factor: crossing lock(mu) then lock(nu) from the entry
    outward yields mu.nu, matching lock(mu.nu)."""
    pos = _position(entries, k)
    w = id_mod(entries[pos][1].mode_tgt)  # the ambient mode where it was pushed
    for kind, mu in entries[pos + 1 :]:
        if kind == "lock":
            w = compose_mod(w, mu)
    return w


def key_locks(entries: tuple) -> tuple[Modality, ...]:
    """The lock composites a key over ``entries`` carries: ``scan_locks`` at
    each variable, by index."""
    return tuple(scan_locks(entries, k) for k in range(scan_depth(entries)))


# --- random instances ---------------------------------------------------------


def _usable(tele: tuple, extra: int) -> list[int]:
    out = []
    for k in range(scan_depth(tele)):
        if len(scan_ann(tele, k).word) <= len(scan_locks(tele, k).word) + extra:
            out.append(k)
    return out


def rand_tele(rng: Random) -> tuple:
    while True:
        entries = []
        for _ in range(rng.randint(1, 6)):
            if rng.random() < 0.4:
                entries.append(("lock", lpow(rng.randint(1, 2))))
            else:
                entries.append(("var", lpow(1) if rng.random() < 0.3 else lpow(0)))
        t = tuple(entries)
        if _usable(t, 0):
            return t


def rand_var(rng: Random, tele: tuple, extra: int = 0) -> tuple[int, object]:
    """A variable of tele with `extra` more trailing lock generators."""
    ks = _usable(tele, extra)
    k = rng.choice(ks)
    i = len(scan_ann(tele, k).word)
    return k, rand_cell(rng, i, len(scan_locks(tele, k).word) + extra)


def var_ok(tele: tuple, extra: int, x: NeVar) -> bool:
    """Soundness: x's cell runs annotation => lock composite (plus `extra`)."""
    ann = scan_ann(tele, x.idx)
    lk = compose_mod(scan_locks(tele, x.idx), lpow(extra))
    return (
        cell_check(P, x.cell)
        and eq_mod(P, x.cell.src, ann)
        and eq_mod(P, x.cell.tgt, lk)
    )


# --- the five variable equations -------------------------------------------


def identity_instance(rng: Random):
    t = rand_tele(rng)
    k, a = rand_var(rng, t)
    x = NeVar(k, a)
    return rename_ne(P, RenId(), x), x


def weaken_instance(rng: Random):
    t = rand_tele(rng)
    e = rng.randint(0, 2)
    k, a = rand_var(rng, t, extra=e)
    r = RenWeaken() if e == 0 and rng.random() < 0.5 else RenLock(lpow(e), RenWeaken())
    return rename_ne(P, r, NeVar(k, a)), NeVar(k + 1, a)


def key_instance(rng: Random):
    t = rand_tele(rng)
    i = rng.randint(0, 2)
    j = rng.randint(i, i + 2)
    beta = rand_cell(rng, i, j)  # l^i => l^j : maps t.lock(l^j) -> t.lock(l^i)
    k, a = rand_var(rng, t, extra=i)
    got = rename_ne(P, RenKey(beta, key_locks(t)), NeVar(k, a))
    want = NeVar(k, vcomp(whisker_left(scan_locks(t, k), beta), a, P))
    assert isinstance(got, NeVar) and var_ok(t, j, got)
    return got, want


def ext_zero_instance(rng: Random):
    s_t = rand_tele(rng)
    p = rng.randint(0, 2)  # binder annotation l^p
    j, beta = rand_var(rng, s_t, extra=p)  # payload valid in s_t.lock(l^p)
    plocks = scan_locks(s_t, j)
    c = rng.randint(p, p + 2)
    alpha = rand_cell(rng, p, c)
    r = RenExt(RenId(), NeVar(j, beta), plocks)
    full = r if c == 0 and rng.random() < 0.5 else RenLock(lpow(c), r)
    got = rename_ne(P, full, NeVar(0, alpha))
    want = NeVar(j, vcomp(whisker_left(plocks, alpha), beta, P))
    assert isinstance(got, NeVar) and var_ok(s_t, c, got)
    return got, want


def ext_succ_instance(rng: Random):
    t = rand_tele(rng)
    e = rng.randint(0, 2)
    k, a = rand_var(rng, t, extra=e)
    payload = NeVar(0, rand_cell(rng, 0, e))  # any payload; the branch ignores it
    r = RenExt(RenId(), payload, id_mod("m"))
    full = r if e == 0 and rng.random() < 0.5 else RenLock(lpow(e), r)
    return rename_ne(P, full, NeVar(k + 1, a)), NeVar(k, a)


# --- composite / lock / key coherence --------------------------------------


def comp_instance(rng: Random):
    t = rand_tele(rng)
    if rng.random() < 0.5:
        e = rng.randint(0, 2)
        r = RenLock(lpow(e), RenWeaken())
        s = RenLock(lpow(e), RenWeaken())
        k, a = rand_var(rng, t, extra=e)
    else:
        i = rng.randint(0, 2)
        j = rng.randint(i, i + 2)
        h = rng.randint(j, j + 2)
        r = RenKey(rand_cell(rng, i, j), key_locks(t))
        s = RenKey(rand_cell(rng, j, h), key_locks(t))
        k, a = rand_var(rng, t, extra=i)
    x = NeVar(k, a)
    return (
        rename_ne(P, RenComp(r, s), x),
        rename_ne(P, s, rename_ne(P, r, x)),
    )


def lock_funct_instance(rng: Random):
    t = rand_tele(rng)
    kap = lpow(rng.randint(0, 2))
    if rng.random() < 0.5:
        r = RenWeaken()
        s = RenWeaken()
        k, a = rand_var(rng, t, extra=len(kap.word))
    else:
        i = rng.randint(0, 2)
        j = rng.randint(i, i + 2)
        h = rng.randint(j, j + 2)
        r = RenKey(rand_cell(rng, i, j), key_locks(t))
        s = RenKey(rand_cell(rng, j, h), key_locks(t))
        k, a = rand_var(rng, t, extra=i + len(kap.word))
    x = NeVar(k, a)
    return (
        rename_ne(P, RenComp(RenLock(kap, r), RenLock(kap, s)), x),
        rename_ne(P, RenLock(kap, RenComp(r, s)), x),
    )


def lock_collapse_instance(rng: Random):
    t = rand_tele(rng)
    e1, e2 = rng.randint(0, 2), rng.randint(0, 2)
    if rng.random() < 0.5:
        r = RenWeaken()
        k, a = rand_var(rng, t, extra=e1 + e2)
    else:
        i = rng.randint(0, 2)
        j = rng.randint(i, i + 2)
        r = RenKey(rand_cell(rng, i, j), key_locks(t))
        k, a = rand_var(rng, t, extra=i + e1 + e2)
    x = NeVar(k, a)
    return (
        rename_ne(P, RenLock(lpow(e2), RenLock(lpow(e1), r)), x),
        rename_ne(P, RenLock(compose_mod(lpow(e1), lpow(e2)), r), x),
    )


def key_vcomp_instance(rng: Random):
    t = rand_tele(rng)
    i = rng.randint(0, 2)
    j = rng.randint(i, i + 2)
    h = rng.randint(j, j + 2)
    gamma = rand_cell(rng, i, j)
    beta = rand_cell(rng, j, h)
    k, a = rand_var(rng, t, extra=i)
    x = NeVar(k, a)
    return (
        rename_ne(P, RenComp(RenKey(gamma, key_locks(t)), RenKey(beta, key_locks(t))), x),
        rename_ne(P, RenKey(vcomp(beta, gamma, P), key_locks(t)), x),
    )


def key_id_instance(rng: Random):
    t = rand_tele(rng)
    j = rng.randint(0, 2)
    k, a = rand_var(rng, t, extra=j)
    x = NeVar(k, a)
    return (
        rename_ne(P, RenKey(id_cell(lpow(j)), key_locks(t)), x),
        rename_ne(P, RenId(), x),
    )


VARIABLE_EQUATIONS = {
    "var-identity": identity_instance,
    "var-weaken": weaken_instance,
    "var-key": key_instance,
    "var-ext-hit": ext_zero_instance,
    "var-ext-skip": ext_succ_instance,
}

COHERENCE_EQUATIONS = {
    "comp-action": comp_instance,
    "lock-functorial": lock_funct_instance,
    "lock-collapse": lock_collapse_instance,
    "key-vcomp": key_vcomp_instance,
    "key-identity": key_id_instance,
}
