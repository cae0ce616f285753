"""Digit-expansion arithmetic: worked examples, brute-force oracles,
and the metric invariants."""

import dataclasses
import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from padiclab import (
    PadicApprox,
    PadicScalar,
    base_multiplicity,
    digit_string,
    padic_from_integer,
    padic_from_rational,
    valuation_and_norm,
)
from padiclab import core
from padiclab.core import _digits_of


def brute_digits(m, base, precision):
    """Oracle: plain repeated division."""
    m %= base**precision
    out = []
    for _ in range(precision):
        out.append(m % base)
        m //= base
    return tuple(out)


def brute_multiplicity(m, base):
    """Oracle: one division per factor of base."""
    if m == 0:
        return math.inf
    t = 0
    while m % base == 0:
        m //= base
        t += 1
    return t


class TestBaseMultiplicity:
    @given(
        base=st.integers(2, 36),
        v=st.integers(0, 400),
        unit=st.integers(1, 10**40),
        sign=st.sampled_from((1, -1)),
    )
    @example(base=3, v=255, unit=1, sign=1)
    @example(base=3, v=256, unit=1, sign=-1)
    @example(base=10, v=400, unit=7, sign=1)
    @example(base=2, v=0, unit=1, sign=-1)
    def test_matches_per_digit_loop(self, base, v, unit, sign):
        m = sign * unit * base**v
        assert base_multiplicity(m, base) == brute_multiplicity(m, base)

    def test_zero_is_infinite(self):
        for base in (2, 3, 10, 36):
            assert base_multiplicity(0, base) == math.inf

    def test_bad_base(self):
        with pytest.raises(ValueError):
            base_multiplicity(8, 1)


class TestFromInteger:
    def test_81_in_base_2(self):
        assert padic_from_integer(81, 2, 7).digits == (1, 0, 0, 0, 1, 0, 1)

    def test_zero(self):
        assert padic_from_integer(0, 2, 4).digits == (0, 0, 0, 0)

    def test_minus_one_is_all_ones(self):
        assert padic_from_integer(-1, 2, 6).digits == (1, 1, 1, 1, 1, 1)

    def test_matches_repeated_division_up_to_2_16(self):
        for m in range(1 << 16):
            assert padic_from_integer(m, 2, 16).digits == brute_digits(m, 2, 16)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            padic_from_integer(1, 1, 4)
        with pytest.raises(ValueError):
            padic_from_integer(1, 2, 0)


class TestFromRational:
    def test_one_third(self):
        s = padic_from_rational(1, 3, 2, 10)
        assert s.valuation == 0
        assert s.unit.digits == (1, 1, 0, 1, 0, 1, 0, 1, 0, 1)

    def test_one_ninth(self):
        s = padic_from_rational(1, 9, 2, 12)
        assert s.valuation == 0
        assert s.unit.digits == (1, 0, 0, 1, 1, 1, 0, 0, 0, 1, 1, 1)

    def test_identity(self):
        s = padic_from_rational(1, 1, 2, 5)
        assert s.valuation == 0
        assert s.unit.digits == (1, 0, 0, 0, 0)

    def test_zero_numerator(self):
        assert padic_from_rational(0, 7, 2, 6).is_zero

    def test_valuation_splits_base_powers(self):
        s = padic_from_rational(12, 1, 2, 6)
        assert s.valuation == 2 and s.unit.residue() == 3
        s = padic_from_rational(1, 12, 2, 6)
        assert s.valuation == -2

    def test_zero_denominator(self):
        with pytest.raises(ValueError):
            padic_from_rational(1, 0, 2, 4)

    def test_composite_base_needs_coprime_denominator(self):
        with pytest.raises(ValueError):
            padic_from_rational(1, 2, 4, 4)
        # but a coprime denominator is fine
        s = padic_from_rational(1, 3, 4, 4)
        assert (s.unit.residue() * 3) % 4**4 == 1


class TestRingOps:
    def test_thirds_sum_to_one(self):
        third = padic_from_rational(1, 3, 2, 8).to_approx(8)
        two_thirds = padic_from_rational(2, 3, 2, 8).to_approx(8)
        assert (third + two_thirds).digits == padic_from_integer(1, 2, 8).digits

    def test_inverse_times_value(self):
        third = padic_from_rational(1, 3, 2, 8).unit
        three = padic_from_integer(3, 2, 8)
        assert (third * three).residue() == 1

    def test_self_difference_is_zero(self):
        x = padic_from_integer(173, 2, 9)
        assert (x - x).digits == (0,) * 9

    def test_result_precision_is_min(self):
        a = padic_from_integer(5, 2, 8)
        b = padic_from_integer(3, 2, 5)
        assert (a + b).precision == 5
        assert (a * b).precision == 5

    def test_base_mismatch(self):
        with pytest.raises(ValueError):
            padic_from_integer(1, 2, 4) + padic_from_integer(1, 3, 4)


class TestInvert:
    def test_3_mod_16(self):
        # oracle: exhaustive search for the inverse
        expected = [y for y in range(16) if 3 * y % 16 == 1]
        assert expected == [11]
        inv = padic_from_integer(3, 2, 4).invert()
        assert inv.residue() == 11 and inv.digits == (1, 1, 0, 1)

    def test_identity(self):
        assert padic_from_integer(1, 2, 8).invert().residue() == 1

    def test_9_mod_64(self):
        inv = padic_from_integer(9, 2, 6).invert()
        assert inv.residue() == 57 and 9 * 57 % 64 == 1
        assert inv.digits == (1, 0, 0, 1, 1, 1)

    def test_even_unit_rejected(self):
        with pytest.raises(ValueError):
            padic_from_integer(6, 2, 4).invert()
        with pytest.raises(ValueError):
            padic_from_integer(2, 4, 3).invert()

    def test_non_unit_message(self):
        for base, value, low in ((10, 1234, 4), (6, 3 + 6 * 5**90, 3)):
            with pytest.raises(
                ValueError,
                match=f"^lowest digit {low} shares a factor with base {base}$",
            ):
                padic_from_integer(value, base, 777).invert()

    @given(st.data())
    def test_matches_pow(self, data):
        # The Hensel chain halves the precision rounding up, so
        # precisions that are not powers of two take uneven steps.
        base = data.draw(st.integers(2, 36), label="base")
        precision = data.draw(
            st.integers(1, 2000).filter(lambda n: n & (n - 1)), label="precision"
        )
        modulus = base**precision
        value = data.draw(st.integers(0, modulus - 1), label="value")
        units = [d for d in range(1, base) if math.gcd(d, base) == 1]
        low = data.draw(st.sampled_from(units), label="units digit")
        value += low - value % base
        inv = PadicApprox.from_residue(value, base, precision).invert()
        assert inv.precision == precision
        assert inv.residue() == pow(value, -1, modulus)


class TestValuationAndNorm:
    def test_64(self):
        assert valuation_and_norm(64, 2) == (6, Fraction(1, 64))

    def test_negative_rational(self):
        assert valuation_and_norm(Fraction(-691, 2730), 2) == (-1, Fraction(2))

    def test_zero(self):
        v, n = valuation_and_norm(0, 2)
        assert v == math.inf and n == 0

    def test_composite_base_4(self):
        assert valuation_and_norm(4, 4) == (1, Fraction(1, 4))
        assert valuation_and_norm(2, 4) == (0, Fraction(1))

    def test_scalar_input(self):
        s = padic_from_rational(12, 1, 2, 6)
        assert valuation_and_norm(s) == (2, Fraction(1, 4))
        assert valuation_and_norm(PadicScalar.zero(2, 4))[1] == 0

    def test_rational_needs_base(self):
        with pytest.raises(ValueError):
            valuation_and_norm(5)

    def test_multiplicativity_for_prime_base(self):
        rng = random.Random(4001)
        for _ in range(300):
            x = Fraction(rng.randint(-999, 999) or 1, rng.randint(1, 999))
            y = Fraction(rng.randint(-999, 999) or 1, rng.randint(1, 999))
            assert (
                valuation_and_norm(x * y, 2)[1]
                == valuation_and_norm(x, 2)[1] * valuation_and_norm(y, 2)[1]
            )

    def test_multiplicativity_fails_for_base_4(self):
        two = valuation_and_norm(2, 4)[1]
        assert two * two == 1 != valuation_and_norm(4, 4)[1]


class TestShift:
    def test_divide_out_four(self):
        x = padic_from_integer(12, 2, 6)
        y = x.shift(-2)
        assert y.precision == 4 and y.residue() == 3

    def test_multiply_by_four(self):
        x = padic_from_integer(3, 2, 4)
        y = x.shift(2)
        assert y.precision == 4 and y.residue() == 12

    def test_odd_number_cannot_shift_down(self):
        with pytest.raises(ValueError):
            padic_from_integer(3, 2, 4).shift(-1)

    def test_shift_beyond_precision(self):
        with pytest.raises(ValueError):
            padic_from_integer(8, 2, 3).shift(-3)


class TestDigitString:
    def test_81(self):
        assert padic_from_integer(81, 2, 7).digit_string() == "1000101"

    def test_zero(self):
        assert padic_from_integer(0, 2, 3).digit_string() == "000"

    def test_one_third(self):
        s = padic_from_rational(1, 3, 2, 6)
        assert s.unit.digit_string() == "110101"
        assert s.digit_string() == "v=0 110101"
        assert digit_string(s) == "v=0 110101"

    def test_zero_scalar_marker(self):
        assert PadicScalar.zero(2, 4).digit_string() == "v=inf 0000"

    def test_large_base_rejected(self):
        with pytest.raises(ValueError):
            padic_from_integer(5, 11, 3).digit_string()


class TestEquality:
    def test_precision_aware(self):
        a = PadicApprox(2, (1, 0, 1, 1))
        b = PadicApprox(2, (1, 0))
        assert a == b
        assert a != PadicApprox(2, (1, 1))

    def test_base_must_match(self):
        assert PadicApprox(2, (1, 0)) != PadicApprox(3, (1, 0))

    def test_scalar_equality(self):
        assert padic_from_rational(2, 3, 2, 8) == padic_from_rational(2, 3, 2, 12)
        assert padic_from_rational(2, 3, 2, 8) != padic_from_rational(4, 3, 2, 8)
        assert PadicScalar.zero(2, 4) == PadicScalar.zero(2, 9)


class TestScalarViews:
    def test_to_approx(self):
        s = padic_from_rational(12, 1, 2, 6)
        assert s.to_approx(8).residue() == 12
        assert s.known_to() == 8

    def test_negative_valuation_has_no_residue(self):
        with pytest.raises(ValueError):
            padic_from_rational(1, 2, 2, 6).to_approx()

    def test_records(self):
        rec = padic_from_rational(1, 3, 2, 4).to_record()
        assert rec == {
            "base": 2,
            "precision": 4,
            "valuation": 0,
            "digits": [1, 1, 0, 1],
        }
        rec = padic_from_integer(0, 2, 3).to_record()
        assert rec["valuation"] is None


class TestUltrametric:
    def test_valuation_of_sum_on_random_pairs(self):
        rng = random.Random(90125)
        for base in (2, 3, 5):
            prec = 20
            for _ in range(3500):
                x = padic_from_integer(rng.getrandbits(40), base, prec)
                y = padic_from_integer(rng.getrandbits(40), base, prec)
                assert (x + y).valuation() >= min(x.valuation(), y.valuation())

    def test_isosceles_paper_instance(self):
        # x - y = 20, y - z = 6: the two norms differ, so the third side
        # must equal their max exactly.
        assert valuation_and_norm(20, 2)[1] == Fraction(1, 4)
        assert valuation_and_norm(6, 2)[1] == Fraction(1, 2)
        assert valuation_and_norm(26, 2)[1] == Fraction(1, 2)

    def test_isosceles_random_triples(self):
        rng = random.Random(20090814)
        for _ in range(2000):
            x, y, z = (
                Fraction(rng.randint(-9999, 9999), rng.randint(1, 99))
                for _ in range(3)
            )
            nxy = valuation_and_norm(x - y, 2)[1]
            nyz = valuation_and_norm(y - z, 2)[1]
            nxz = valuation_and_norm(x - z, 2)[1]
            assert nxz <= max(nxy, nyz)
            if nxy != nyz:
                assert nxz == max(nxy, nyz)


@given(
    base=st.integers(2, 36),
    precision=st.integers(1, 500),
    num_unit=st.integers(-10**30, 10**30),
    num_power=st.integers(0, 6),
    den_unit=st.integers(1, 10**30),
    den_power=st.integers(0, 6),
)
@example(base=2, precision=24, num_unit=-12345, num_power=3,
         den_unit=999, den_power=5)
def test_round_trip_through_rationals(
    base, precision, num_unit, num_power, den_unit, den_power
):
    # The reduced numerator is made indivisible by base, so that the
    # valuation is known, and the reduced denominator coprime to base,
    # which a composite base needs.
    num_unit = num_unit * base + 1 + num_unit % (base - 1)
    while math.gcd(den_unit, base) > 1:
        den_unit //= math.gcd(den_unit, base)
    num = num_unit * base**num_power
    den = den_unit * base**den_power
    s = padic_from_rational(num, den, base, precision)
    assert s.valuation == num_power - den_power
    assert s.precision == precision
    assert (s.unit.residue() * den_unit - num_unit) % base**precision == 0


def draw_residue(data, base, label):
    """(value, PadicApprox) for a drawn precision in 1..2000."""
    precision = data.draw(st.integers(1, 2000), label=f"{label} precision")
    value = data.draw(st.integers(0, base**precision - 1), label=label)
    return value, PadicApprox.from_residue(value, base, precision)


class TestRingProperties:
    """Ring operations against Python integers, over bases 2-36."""

    @given(st.data())
    def test_ops_match_integers(self, data):
        base = data.draw(st.integers(2, 36), label="base")
        a, x = draw_residue(data, base, "x")
        b, y = draw_residue(data, base, "y")
        precision = min(x.precision, y.precision)
        for op in (operator.add, operator.sub, operator.mul):
            got = op(x, y)
            assert got.precision == precision
            assert got.digits == brute_digits(op(a, b), base, precision)

    @given(st.data())
    def test_inverse_of_a_unit(self, data):
        base = data.draw(st.integers(2, 36), label="base")
        units = [d for d in range(1, base) if math.gcd(d, base) == 1]
        low = data.draw(st.sampled_from(units), label="units digit")
        _, x = draw_residue(data, base, "x")
        x = PadicApprox(base, (low,) + x.digits[1:])
        product = x.invert() * x
        assert product.precision == x.precision
        assert product.residue() == 1

    @given(st.data())
    def test_shift_round_trip(self, data):
        base = data.draw(st.integers(2, 36), label="base")
        _, x = draw_residue(data, base, "x")
        t = data.draw(st.integers(0, x.precision - 1), label="t")
        back = x.shift(t).shift(-t)
        assert back.digits == x.truncate(x.precision - t).digits

    @given(st.data())
    def test_truncate_keeps_a_prefix(self, data):
        base = data.draw(st.integers(2, 36), label="base")
        _, x = draw_residue(data, base, "x")
        t = data.draw(st.integers(1, x.precision), label="t")
        assert x.truncate(t).digits == x.digits[:t]

    def test_equality_is_not_transitive(self):
        long_a = PadicApprox(3, (2, 1, 0))
        short = PadicApprox(3, (2, 1))
        long_b = PadicApprox(3, (2, 1, 2))
        assert long_a == short and short == long_b
        assert long_a != long_b


class TestCodec:
    """The one digit codec (core._digits_of and its inverse residue())."""

    @given(st.data())
    def test_round_trip(self, data):
        base = data.draw(st.integers(2, 36), label="base")
        precision = data.draw(st.integers(1, 3000), label="precision")
        bound = base ** (precision + 2)
        value = data.draw(st.integers(-bound, bound), label="value")
        digits = _digits_of(value, base, precision)
        assert digits == brute_digits(value, base, precision)
        assert PadicApprox(base, digits).residue() == value % base**precision

    @pytest.mark.parametrize(
        "base", [2, 3, 10, 64, 65, 255, 256, 257, 4097, 10**12, 2**64 + 13]
    )
    def test_piece_widths_and_large_bases(self, base):
        # Bases above 64 have no piece tables and above 255 no byte digits.
        rng = random.Random(base)
        for precision in (1, 2, 7, 8, 9, 64, 65, 500):
            top = precision * base.bit_length() + 9
            for value in (0, -1, base**precision, rng.getrandbits(top)):
                digits = _digits_of(value, base, precision)
                assert digits == brute_digits(value, base, precision)
                residue = PadicApprox(base, digits).residue()
                assert residue == value % base**precision

    def test_residue_beyond_the_string_conversion_limit(self):
        # int(str, base) refuses more than 4300 digits in a base that is
        # not a power of two; the codec must not depend on it.
        value = 3**20000 // 7
        approx = padic_from_integer(value, 10, 12000)
        assert approx.residue() == value % 10**12000

    def test_out_of_range_digit_rejected(self):
        for digits in ((0, 3), (-1, 0), (2,)):
            with pytest.raises(ValueError):
                PadicApprox(2, digits)


class TestResidueState:
    """PadicApprox stores its residue; digits are a view decoded once."""

    @pytest.fixture
    def codec_calls(self, monkeypatch):
        calls = []
        for name in ("_digits_of", "_value_of"):
            def counted(*args, _name=name, _codec=getattr(core, name)):
                calls.append(_name)
                return _codec(*args)

            monkeypatch.setattr(core, name, counted)
        return calls

    def test_arithmetic_makes_no_codec_call(self, codec_calls):
        x = PadicApprox.from_residue(5**400, 3, 300)
        y = PadicApprox.from_residue(-(7**200), 3, 250)
        results = [x + y, x - y, x * y, x.invert(), x.shift(7),
                   x.shift(7).shift(-7), x.truncate(100)]
        assert x == x.truncate(100) and x != y
        assert (x * x.invert()).residue() == 1
        assert PadicScalar.from_residue(9 * 5**40, 3, 60).valuation == 2
        assert codec_calls == []
        first = results[2].digits
        assert codec_calls == ["_digits_of"]
        assert results[2].digits is first
        assert codec_calls == ["_digits_of"]
        assert first == brute_digits(5**400 * -(7**200), 3, 250)

    def test_constructor_keeps_its_digits(self, codec_calls):
        digits = (2, 0, 1, 1)
        x = PadicApprox(3, digits)
        assert x.residue() == 2 + 9 + 27 and x.precision == 4
        assert x.digits is digits
        assert codec_calls == ["_value_of"]

    def test_constructor_checks_in_order(self):
        with pytest.raises(ValueError, match="base must be at least 2"):
            PadicApprox(1, ())
        with pytest.raises(ValueError, match="precision must be at least 1"):
            PadicApprox(2, ())
        with pytest.raises(ValueError, match=r"digits must lie in \[0, base\)"):
            PadicApprox(3, (0, 3))

    def test_immutable_and_unhashable(self):
        x = PadicApprox.from_residue(11, 2, 5)
        x.digits  # assignment must fail with the digits cached, too
        for name in ("base", "precision", "digits", "_residue"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(x, name, 0)
        with pytest.raises(TypeError):
            hash(x)
        assert x.residue() == 11 and x.digits == (1, 1, 0, 1, 0)

    @given(st.data())
    def test_equality_matches_digit_prefixes(self, data):
        base = data.draw(st.integers(2, 36), label="base")
        a, x = draw_residue(data, base, "x")
        b, y = draw_residue(data, base, "y")
        # Make y agree with x on a drawn number of low digits, so that
        # both outcomes of == come up.
        agree = base ** data.draw(st.integers(0, y.precision), label="agree")
        y = PadicApprox.from_residue(b - b % agree + a % agree, base, y.precision)
        n = min(x.precision, y.precision)
        expected = x.digits[:n] == y.digits[:n]
        assert (x == y) is expected and (y == x) is expected
        assert (x != y) is not expected
