"""Value semantics of the immutable classes: equality and hashing by class
and fields, refused assignment, and the constructors the code calls."""

from fractions import Fraction

import pytest

from ivhom.expr import (
    Call,
    Const,
    IVFunction,
    LVar,
    OrderIso,
    Pow,
    Proj,
    ScalingFunction,
    Var,
)
from ivhom.dsl import _Token
from ivhom.functions import IDENTITY, P, SQUARE, get_function
from ivhom.homogeneity import (
    CheckReport,
    Counterexample,
    Grid,
    PipelineReport,
    make_grid,
)
from ivhom.interval import EXACT, FLOAT, Interval, NumericMode

HALF = Interval(Fraction(1, 2), 1)
REPORT = CheckReport("idempotency", "pass", None, 3, Fraction(0), EXACT, 1)


def test_equality_is_by_class_and_fields():
    assert Var(2) == Var(2) and hash(Var(2)) == hash(Var(2))
    assert Var(2) != Var(3)
    assert Var(2) != Proj(2)
    assert Const(Fraction(1, 3), 1) != Interval(Fraction(1, 3), 1)
    assert Call("neg", (Var(1),)) == Call("neg", (Var(1),))
    assert Pow(LVar(), 2) != Pow(LVar(), 3)
    assert Counterexample(None, (HALF,), HALF, HALF) == Counterexample(
        lam=None, xs=(HALF,), lhs=HALF, rhs=HALF)
    assert make_grid(2) == make_grid(2) != make_grid(2, FLOAT)


def test_mixed_endpoint_types_compare_and_hash_equal():
    assert Interval(Fraction(1, 2), 1) == Interval(0.5, 1)
    assert hash(Interval(Fraction(1, 2), 1)) == hash(Interval(0.5, 1))
    assert len({Interval(Fraction(1, 2), 1), Interval(0.5, 1)}) == 1


@pytest.mark.parametrize("obj,field", [
    (HALF, "lo"), (EXACT, "eps"), (Var(1), "index"),
    (Call("neg", (Var(1),)), "args"),
    (_Token("end", "", 1, 1), "kind"), (P, "name"), (IDENTITY, "exact_ok"),
    (get_function("min", 2), "fns"), (make_grid(1), "points"),
    (REPORT, "note"), (Counterexample(None, (), None, None), "lhs"),
    (PipelineReport("prop2", "confirmed", (), EXACT, 1), "status"),
], ids=lambda x: type(x).__name__ if not isinstance(x, str) else x)
def test_fields_cannot_be_assigned_or_deleted(obj, field):
    with pytest.raises(AttributeError):
        setattr(obj, field, None)
    with pytest.raises(AttributeError):
        delattr(obj, field)
    with pytest.raises(AttributeError):
        obj.other = None


def test_interval_repr():
    assert repr(Interval(Fraction(1, 2), 1)) == "[1/2,1]"
    assert repr(Interval(0.25, 0.5)) == "[0.25,0.5]"
    assert str([HALF]) == "[[1/2,1]]"


def test_ingredient_equality_ignores_compiled_forms():
    a, b = get_function("min", 2), get_function("min", 2)
    assert a(HALF, HALF) == b(HALF, HALF)  # each compiles its own kernel
    assert a.fns[1, 1] is not b.fns[1, 1]
    assert a == b and hash(a) == hash(b)
    assert a != IVFunction("min", 3, a.expr)
    assert ScalingFunction("P", P.expr) == P
    assert OrderIso("square", SQUARE.expr) != SQUARE  # exact_ok differs


def test_keyword_construction():
    report = CheckReport(law="section-bijective", verdict="pass",
                         counterexample=None, evaluations=3,
                         max_deviation=Fraction(0), mode=EXACT, resolution=1,
                         note="grid-certified")
    assert report.note == "grid-certified" and REPORT.note is None
    assert report != REPORT
    assert NumericMode("float", 0.25).eps == NumericMode(kind="float", eps=0.25).eps
    assert NumericMode("float") == FLOAT and FLOAT.eps == 1e-9
    assert OrderIso("square", SQUARE.expr, exact_ok=False) == SQUARE
    assert Grid(resolution=1, mode=EXACT) == make_grid(1)
