"""Telescope operations."""

import pytest

from mtt.modeth import ModeError, gen_mod, id_mod, walking
from mtt.syntax import Bool, EVar, Telescope, tele_extend, tele_lock


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
