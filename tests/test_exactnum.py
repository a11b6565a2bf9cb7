import pathlib
import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from permod.exactnum import (INF, NEG_INF, PrimeField, QQ, Scale,
                             common_denominator, ext, grade_ranks,
                             least_feasible, parse_extended, parse_field,
                             parse_rational, scaled_int)

from conftest import bracket_sqrt

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "permod"

rationals = st.fractions(max_denominator=100)


def test_parse_rational_forms():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-7") == Fraction(-7)
    assert parse_rational("2.5") == Fraction(5, 2)
    assert parse_rational("0.125") == Fraction(1, 8)
    with pytest.raises(ValueError):
        parse_rational("x")


def test_parse_extended_infinities():
    assert parse_extended(" -inf ") == NEG_INF
    assert [parse_extended(t) for t in ("inf", "+inf", "oo")] == [INF] * 3
    assert parse_extended("-3/2") == ext(Fraction(-3, 2))


def test_extended_total_order():
    assert NEG_INF < ext(0) < INF
    assert ext(Fraction(3, 2)) == ext(Fraction(3, 2))
    assert INF > ext(10 ** 9)
    assert sorted([INF, ext(1), NEG_INF]) == [NEG_INF, ext(1), INF]


def test_extended_keeps_a_fraction_and_converts_the_rest():
    q = Fraction(3, 2)
    assert ext(q).value is q
    assert [type(ext(x).value) for x in (3, "3/2", True)] == [Fraction] * 3
    assert ext(ext(q)).value is q


def test_extended_arithmetic_convention():
    assert ext(5) + INF == INF
    assert INF + INF == INF
    assert NEG_INF + ext(3) == NEG_INF
    assert abs(NEG_INF) == INF
    assert INF - ext(1) == INF
    with pytest.raises(ArithmeticError):
        INF + NEG_INF
    assert (INF * Fraction(1, 2)) == INF


@given(rationals, rationals, rationals)
def test_rational_field_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    f = Fraction(a)
    assert Fraction(f.numerator, f.denominator) == f  # normalization idempotent


@given(rationals, rationals, rationals)
def test_extended_triangle_inequality(a, b, c):
    xs = [ext(a), ext(b), ext(c), INF]
    for x in xs:
        for y in xs:
            for z in xs:
                try:
                    lhs = abs(x - z)
                    rhs = abs(x - y) + abs(y - z)
                except ArithmeticError:
                    continue
                assert lhs <= rhs


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_prime_field_inverses_exhaustive(p):
    f = PrimeField(p)
    for a in range(1, p):
        assert f.mul(a, f.inv(a)) == f.one
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


def test_prime_field_examples():
    f7 = PrimeField(7)
    assert f7.inv(3) == 5           # 3*5 = 15 = 1 mod 7
    assert f7.add(4, 0) == 4
    assert QQ.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)


def test_prime_field_rejects():
    with pytest.raises(ValueError):
        PrimeField(6)
    for p in (-3, 0, 1, 4, 9):
        with pytest.raises(ValueError, match=f"not prime: {p}"):
            PrimeField(p)
    with pytest.raises(ValueError):
        PrimeField(2 ** 31 + 11)


def test_prime_field_of_refuses_non_integers():
    f3 = PrimeField(3)
    assert f3.of(Fraction(4)) == 1 and f3.of(-1) == 2 and f3.of("5") == 2
    for x in (Fraction(1, 2), Fraction(-7, 3), "1/2", 0.5):
        with pytest.raises(ValueError):
            f3.of(x)


def test_parse_field():
    assert parse_field("zp 5") == PrimeField(5)
    assert parse_field(["q"]) == QQ
    for spec in ("gf 4", "", "zp", []):
        with pytest.raises(ValueError):
            parse_field(spec)


def test_mixed_field_ops_rejected():
    f2, f3 = PrimeField(2), PrimeField(3)
    assert f2 != f3
    # matrices and systems carry one field; mixing is a caller error caught
    # at the presentation/system level (see those tests)


def test_bracket_sqrt():
    lo, hi = bracket_sqrt(Fraction(1, 3))
    assert lo * lo <= Fraction(1, 3) <= hi * hi
    assert hi - lo <= Fraction(1, 2 ** 20)
    lo, hi = bracket_sqrt(Fraction(9, 4))
    assert lo <= Fraction(3, 2) <= hi


def test_least_feasible_threshold_and_probe_order():
    for size in range(8):
        values = list(range(size))
        for t in range(size + 1):
            got = least_feasible(values, lambda v: v if v >= t else None)
            assert got == (t if t < size else None)

    def probes(t, size=10):
        seen = []
        least_feasible(list(range(size)),
                       lambda v: seen.append(v) or (v if v >= t else None))
        return seen

    # gallop 0, 1, 3, 7, ... capped at the last index, then bisect the gap
    assert probes(3) == [0, 1, 3, 2]
    assert probes(0) == [0]
    assert probes(6) == [0, 1, 3, 7, 5, 6]
    assert probes(9) == [0, 1, 3, 7, 9, 8]
    assert probes(10) == [0, 1, 3, 7, 9]


def test_common_denominator_scales_to_ints():
    vals = [Fraction(1, 6), Fraction(-3, 4), 2]
    scale = common_denominator(vals)
    assert scale == 12 and common_denominator([]) == 1
    assert [scaled_int(Fraction(x), scale) for x in vals] == [2, -9, 24]


def test_lcm_only_in_exactnum():
    """Exact values become ints through `common_denominator` alone."""
    users = sorted(path.name for path in SRC.glob("*.py")
                   if re.search(r"math\.lcm|import[^\n]*\blcm\b", path.read_text()))
    assert users == ["exactnum.py"]


def test_grade_ranks_scale_axis_by_signed_squares():
    F = Fraction
    grades = [(F(1), Scale(2)), (F(0), F(-1)), (F(1), F(2)), (F(1, 2), Scale(4)),
              (F(0), F(1))]
    axes, ranks = grade_ranks(grades, 2)
    assert axes[0] == [F(0), F(1, 2), F(1)]
    # sqrt(4) ties with 2, and the axis shows the Fraction
    assert [x if type(x) is Fraction else repr(x) for x in axes[1]] == \
        [F(-1), F(1), "sqrt(2)", F(2)]
    assert ranks == [(2, 2), (0, 0), (2, 3), (1, 3), (0, 1)]
    assert grade_ranks(grades, 0) == ([], [()] * 5)
