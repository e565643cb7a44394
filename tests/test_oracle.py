"""The linear-algebra oracle itself: pinned examples and error paths."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import fsplit
from fsplit import BudgetExceeded, FieldMismatch, NotHomogeneous, PrimeField, Ring
from fsplit import RationalFunctionField
from fsplit.oracle import oracle_dual_splitting_length, oracle_length_mod_bracket

R2 = Ring(PrimeField(2), ("x", "y"))
R3 = Ring(PrimeField(3), ("x",))


def test_bracket_length_examples():
    x, y = R2.gens()
    assert oracle_length_mod_bracket(R2.ideal(), 1) == 4
    assert oracle_length_mod_bracket(R2.ideal(x * y), 1) == 3
    assert oracle_length_mod_bracket(R3.ideal(R3.var("x")), 1) == 1


def test_bracket_length_takes_only_a_presentation():
    # a unit generator gives the unit ideal; a bare list is no ideal, and
    # its ring is never checked, so it is refused rather than read
    x, y = R2.gens()
    assert oracle_length_mod_bracket(R2.ideal(x * y, R2.one()), 1) == 0
    with pytest.raises(TypeError):
        oracle_length_mod_bracket([x * y, R2.one()], 1)


def test_dual_length_examples():
    x, y = R2.gens()
    assert oracle_dual_splitting_length(R2.ideal(), 1) == 4
    assert oracle_dual_splitting_length(R2.ideal(x * y), 1) == 1
    # pinned by running this oracle: (x^2) in F_3[x] has dual length 0 at e=1,
    # because (x^6 : x^2) = (x^4) lands inside (x^3)
    assert oracle_dual_splitting_length(R3.ideal(R3.var("x") ** 2), 1) == 0


def test_rejects_inhomogeneous():
    x, y = R2.gens()
    with pytest.raises(NotHomogeneous):
        oracle_dual_splitting_length(R2.ideal(x**2 + y), 1)


def test_rejects_function_fields():
    field = RationalFunctionField(2, ("t",))
    ring = Ring(field, ("x",))
    with pytest.raises(FieldMismatch):
        oracle_length_mod_bracket(ring.ideal(ring.var("x")), 1)


def test_budget():
    x, y = R2.gens()
    with pytest.raises(BudgetExceeded):
        oracle_length_mod_bracket(R2.ideal(x * y), 3, budget=10)


def test_budget_caps_the_dense_shape():
    # the first matrix over budget is 21 nonzero truncated multiples x 16
    # columns, and for the cone the constraints of one degree, zero rows
    # included: 378 residual coordinates x 325 unknowns
    x, y = R2.gens()
    I = R2.ideal(x * y, x**2 + y**2)
    assert oracle_length_mod_bracket(I, 2, budget=336) == 4
    with pytest.raises(BudgetExceeded):
        oracle_length_mod_bracket(I, 2, budget=335)
    R = Ring(PrimeField(3), ("x", "y", "z"))
    x, y, z = R.gens()
    cone = R.ideal(x**2 - y * z)
    assert oracle_dual_splitting_length(cone, 2, budget=122850) == 41
    with pytest.raises(BudgetExceeded):
        oracle_dual_splitting_length(cone, 2, budget=122849)


def test_import_loads_no_numpy():
    src = str(Path(fsplit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = "import fsplit, fsplit.cli, sys; assert 'numpy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_rank_determinism():
    x, y = R2.gens()
    runs = {oracle_length_mod_bracket(R2.ideal(x * y, x**2 + y**2), 2) for _ in range(3)}
    assert len(runs) == 1
