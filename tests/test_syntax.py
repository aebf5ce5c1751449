"""Context operations: the mode discipline of locks and extensions."""

import pytest

from mtt.check import CheckError, ctx_extend, ctx_lock, empty_ctx
from mtt.modeth import gen_mod, id_mod, walking
from mtt.nbe import BOOL
from mtt.normal import depth, tele_entry


def test_ctx_lock_mode_discipline():
    mt = walking()
    mu = gen_mod(mt, "mu")  # n -> m
    locked = ctx_lock(empty_ctx(mt, "m"), mu)
    assert locked.mode == "n"
    with pytest.raises(CheckError, match="^lock mu targets m, telescope is at n$"):
        ctx_lock(locked, mu)  # mu targets m, the context is now at n
    with pytest.raises(CheckError, match="^annotation mu targets m, telescope is at n$"):
        ctx_extend(locked, mu, BOOL)


def test_ctx_extend_keeps_mode():
    ctx = ctx_extend(empty_ctx(walking(), "m"), id_mod("m"), BOOL)
    assert ctx.mode == "m"
    assert depth(ctx) == 1


def test_indexing_transparency():
    # inserting a lock after an entry does not change which entry an index hits
    mt = walking()
    mu = gen_mod(mt, "mu")
    base = ctx_extend(empty_ctx(mt, "m"), mu, BOOL)
    locked = ctx_lock(base, mu)
    assert depth(locked) == depth(base) == 1
    assert tele_entry(locked, 0) == tele_entry(base, 0) == (mu, BOOL)
