"""Scope checking and telescope operations."""

import pytest

from mtt.modeth import ModeError, gen_mod, id_cell, id_mod, walking
from mtt.syntax import (
    App,
    Bool,
    EVar,
    If,
    Lam,
    LetMod,
    MkBox,
    Pi,
    Telescope,
    True_,
    Var,
    scope_check,
    tele_extend,
    tele_lock,
)


def test_scope_var_in_singleton_context():
    ctx = tele_extend(Telescope("m"), id_mod("m"), Bool())
    assert scope_check(ctx, Var(0, id_cell(id_mod("m"))))


def test_scope_empty_context_rejects_var():
    assert not scope_check(Telescope("m"), Var(0, id_cell(id_mod("m"))))


def test_scope_locks_are_transparent():
    mt = walking()
    mu = gen_mod(mt, "mu")
    ctx = tele_lock(tele_extend(Telescope("m"), mu, Bool()), mu)
    assert scope_check(ctx, Var(0, id_cell(mu)))
    assert not scope_check(ctx, Var(1, id_cell(mu)))


def test_scope_binders():
    ctx = Telescope("m")
    i = id_mod("m")
    assert scope_check(ctx, Lam(Var(0, id_cell(i))))
    assert not scope_check(ctx, Lam(Var(1, id_cell(i))))
    assert scope_check(ctx, Pi(i, Bool(), Var(0, id_cell(i))))
    assert scope_check(
        ctx, If(Bool(), True_(), True_(), App(Lam(Var(0, id_cell(i))), True_()))
    )
    assert scope_check(
        ctx,
        LetMod(i, i, Bool(), MkBox(i, True_()), Var(0, id_cell(i))),
    )


def test_ctx_lock_mode_discipline():
    mt = walking()
    mu = gen_mod(mt, "mu")  # n -> m
    locked = tele_lock(Telescope("m"), mu)
    assert locked.mode == "n"
    with pytest.raises(ModeError):
        tele_lock(locked, mu)  # mu targets m, telescope now at n
    with pytest.raises(ModeError):
        tele_extend(locked, mu, Bool())


def test_ctx_extend_keeps_mode():
    ctx = tele_extend(Telescope("m"), id_mod("m"), Bool())
    assert ctx.mode == "m"
    assert len(ctx.entries) == 1


def test_indexing_transparency():
    # inserting a lock after an entry does not change which entry an index hits
    mt = walking()
    mu = gen_mod(mt, "mu")
    base = tele_extend(Telescope("m"), mu, Bool())
    locked = tele_lock(base, mu)
    var_entries = [e for e in locked.entries if isinstance(e, EVar)]
    assert var_entries == [e for e in base.entries if isinstance(e, EVar)]
