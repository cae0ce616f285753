"""Sequence generators against enumeration oracles, plus the spec
grammar.  Index caps are enforced by limit_detect and tested there."""

import math
import os
import subprocess
import sys
from functools import lru_cache

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import padiclab
from padiclab import (
    SequenceSpec,
    bell_mod,
    catalan_exact,
    fibonacci_mod,
    legendre_valuation,
    motzkin_exact,
    normalized_factorial_term,
    odd_factorial_mod,
    parse_sequence_spec,
    power_tower_term,
    sequence_term,
)
from padiclab.sequences import MAX_TOWER_BASE


# --- enumeration oracles -------------------------------------------------

@lru_cache(maxsize=None)
def dyck_paths(up, down):
    """Oracle: count ballot paths with `up` rises left and `down` falls."""
    if up == 0 and down == 0:
        return 1
    total = 0
    if up > 0:
        total += dyck_paths(up - 1, down)
    if down > up:
        total += dyck_paths(up, down - 1)
    return total


@lru_cache(maxsize=None)
def motzkin_paths(length, height):
    """Oracle: count lattice paths with steps +1/0/-1 that stay at or
    above zero and end at zero."""
    if height < 0:
        return 0
    if length == 0:
        return 1 if height == 0 else 0
    return (
        motzkin_paths(length - 1, height)
        + motzkin_paths(length - 1, height + 1)
        + motzkin_paths(length - 1, height - 1)
    )


@lru_cache(maxsize=None)
def bell_exact(m):
    """Oracle: the binomial recurrence B_{n+1} = sum C(n,k) B_k."""
    if m == 0:
        return 1
    return sum(math.comb(m - 1, k) * bell_exact(k) for k in range(m))


def bell_triangle(m, modulus):
    """Oracle: B_m mod modulus by the Bell triangle, one row retained."""
    row = [1 % modulus]
    for _ in range(m):
        new = [row[-1]]
        acc = row[-1]
        for x in row:
            acc = (acc + x) % modulus
            new.append(acc)
        row = new
    return row[0]


def bell_annihilator(base, exponent):
    """((x)_b - 1)**exponent over the integers, lowest degree first."""

    def times(f, g):
        out = [0] * (len(f) + len(g) - 1)
        for i, x in enumerate(f):
            for j, y in enumerate(g):
                out[i + j] += x * y
        return out

    q = [1]
    for j in range(base):
        q = times(q, [-j, 1])
    q[0] -= 1
    d = [1]
    for _ in range(exponent):
        d = times(d, q)
    return d


# --- power towers ---------------------------------------------------------

class TestPowerTower:
    def test_3_to_the_16(self):
        t = power_tower_term(3, 2, 4, 26)
        assert t.residue() == 43046721
        assert {i for i, d in enumerate(t.digits) if d} == {
            0, 6, 8, 9, 10, 12, 14, 15, 20, 23, 25,
        }

    def test_3_to_the_4(self):
        assert power_tower_term(3, 2, 2, 7).residue() == 81

    def test_euler_congruence(self):
        for n in range(21):
            assert power_tower_term(3, 2, n, n + 1).residue() == 1

    def test_matches_literal_multiplication(self):
        for k, p, n, a in ((3, 2, 10, 12), (7, 2, 13, 10), (2, 3, 6, 8)):
            modulus = p**a
            acc = 1
            for _ in range(p**n):
                acc = acc * k % modulus
            assert power_tower_term(k, p, n, a).residue() == acc

    def test_matches_exact_exponent_pow(self):
        for k, p, n, a in ((3, 2, 20, 24), (5, 2, 18, 16), (2, 5, 6, 8)):
            assert power_tower_term(k, p, n, a).residue() == pow(
                k, p**n, p**a
            )

    def test_non_coprime_still_renders(self):
        assert power_tower_term(2, 2, 3, 10).residue() == 256

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            power_tower_term(3, 4, 2, 5)
        with pytest.raises(ValueError):
            power_tower_term(3, 2, 2, 0)


# --- fibonacci ------------------------------------------------------------

class TestFibonacci:
    def test_f10(self):
        assert fibonacci_mod(10, 1000) == 55

    def test_f0(self):
        assert fibonacci_mod(0, 8) == 0

    def test_pisano_collision(self):
        # 16 = 64 = 4 mod 12, the Pisano period mod 8, and F_4 = 3
        assert fibonacci_mod(16, 8) == 3
        assert fibonacci_mod(64, 8) == 3

    def test_matches_iteration(self):
        a, b = 0, 1
        for m in range(2000):
            assert fibonacci_mod(m, 997) == a % 997
            a, b = b, a + b

    def test_bad_modulus(self):
        with pytest.raises(ValueError):
            fibonacci_mod(5, 1)


# --- catalan / motzkin / bell ----------------------------------------------

class TestCatalan:
    def test_against_path_enumeration(self):
        for m in range(8):
            assert catalan_exact(m) == dyck_paths(m, m)
        assert catalan_exact(4) == 14

    def test_empty_path(self):
        assert catalan_exact(0) == 1

    def test_against_binomial_formula(self):
        for m in range(200):
            assert catalan_exact(m) == math.comb(2 * m, m) // (m + 1)

    def test_parity_characterization(self):
        mersenne = {(1 << j) - 1 for j in range(10)}
        for m in range(257):
            assert (catalan_exact(m) % 2 == 1) == (m in mersenne)


class TestMotzkin:
    def test_against_path_enumeration(self):
        for m in range(10):
            assert motzkin_exact(m) == motzkin_paths(m, 0)
        assert motzkin_exact(4) == 9

    def test_against_binomial_sum(self):
        for m in range(120):
            expected = sum(
                math.comb(m, 2 * k) * catalan_exact(k)
                for k in range(m // 2 + 1)
            )
            assert motzkin_exact(m) == expected


class TestBell:
    def test_small_values(self):
        assert bell_mod(4, 10, 2) == 15
        assert bell_mod(0, 7, 1) == 1

    def test_b16_mod_4(self):
        assert bell_exact(16) == 10480142147
        assert bell_mod(16, 2, 2) == 3

    def test_against_exact_recurrence(self):
        for m in range(21):
            exact = bell_exact(m)
            for base, precision in ((2, 1), (2, 3), (97, 1), (10**9 + 7, 1)):
                assert bell_mod(m, base, precision) == exact % base**precision

    @given(st.integers(2, 12), st.integers(1, 6), st.integers(0, 399))
    @example(12, 6, 131)
    @example(12, 6, 132)
    def test_matches_exact_bell_numbers(self, base, precision, m):
        # m < d = base * (2 * precision - 1) is the triangle alone, m >= d
        # steps the recurrence; the examples sit either side of d = 132.
        assert bell_mod(m, base, precision) == bell_exact(m) % base**precision

    def test_matches_triangle_at_large_index(self):
        cases = ((2, 3), (2, 16), (3, 5), (10, 4))
        modulus = math.lcm(*(b**a for b, a in cases))
        for m in (1000, 4097):
            oracle = bell_triangle(m, modulus)
            for b, a in cases:
                assert bell_mod(m, b, a) == oracle % b**a

    def test_huge_modulus(self):
        for m in (40, 400):
            assert bell_mod(m, 2, 80) == bell_exact(m) % (1 << 80)
        assert bell_mod(40, 2**64 + 13, 1) == bell_exact(40) % (2**64 + 13)

    def test_annihilator_exponent(self):
        # D = ((x)_b - 1)**(2a-1) annihilates B mod b**a; 2a-2 is not
        # enough for b = 2.
        def annihilates(base, precision, exponent):
            coeffs = bell_annihilator(base, exponent)
            return all(
                sum(c * bell_exact(n + i) for i, c in enumerate(coeffs))
                % base**precision == 0
                for n in range(40)
            )

        for base in range(2, 8):
            for precision in range(1, 5):
                assert annihilates(base, precision, 2 * precision - 1)
        for precision in (2, 3, 4):
            assert not annihilates(2, precision, 2 * precision - 2)

    def test_bad_arguments(self):
        for args in ((-1, 2, 3), (5, 1, 3), (5, 2, 0)):
            with pytest.raises(ValueError):
                bell_mod(*args)

    def test_import_leaves_numpy_out(self):
        src = os.path.dirname(os.path.dirname(padiclab.__file__))
        code = "import sys, padiclab; print('numpy' in sys.modules)"
        result = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, timeout=60, check=True,
        )
        assert result.stdout == "False\n"


# --- factorial valuations ---------------------------------------------------

class TestLegendreValuation:
    def test_instances(self):
        assert legendre_valuation(16, 2) == 15
        assert legendre_valuation(1, 5) == 0

    def test_10_factorial(self):
        # oracle: factor 10! directly
        v, f = 0, math.factorial(10)
        while f % 2 == 0:
            v, f = v + 1, f // 2
        assert v == 8
        assert legendre_valuation(10, 2) == 8

    def test_powers_of_two_closed_form(self):
        for n in range(31):
            assert legendre_valuation(1 << n, 2) == (1 << n) - 1

    def test_against_exact_factorials(self):
        for n in range(11):
            m = 1 << n
            v, f = 0, math.factorial(m)
            while f % 2 == 0:
                v, f = v + 1, f // 2
            assert legendre_valuation(m, 2) == v

    def test_odd_prime(self):
        for m in (1, 5, 24, 125, 624):
            v, f = 0, math.factorial(m)
            while f % 5 == 0:
                v, f = v + 1, f // 5
            assert legendre_valuation(m, 5) == v

    @given(st.integers(0, 10**12), st.sampled_from([2, 3, 5, 7]))
    def test_digit_sum_formula(self, m, p):
        # Legendre: v_p(m!) = (m - digitsum_p(m)) / (p - 1)
        digit_sum, q = 0, m
        while q:
            q, r = divmod(q, p)
            digit_sum += r
        assert legendre_valuation(m, p) * (p - 1) == m - digit_sum


class TestNormalizedFactorial:
    def test_first_terms(self):
        assert normalized_factorial_term(1, 8).residue() == 1
        assert normalized_factorial_term(2, 8).residue() == 3
        assert normalized_factorial_term(3, 8).residue() == 59
        assert normalized_factorial_term(3, 3).residue() == 3

    def test_against_exact_factorials(self):
        for n in range(1, 7):
            exact = math.factorial(1 << n)
            exact >>= legendre_valuation(1 << n, 2)
            assert odd_factorial_mod(1 << n, 16) == exact % (1 << 16)

    def test_terms_are_odd(self):
        for n in range(13):
            assert normalized_factorial_term(n, 8).digits[0] == 1

    def test_works_for_any_index(self):
        exact = math.factorial(12)
        while exact % 2 == 0:
            exact //= 2
        assert odd_factorial_mod(12, 10) == exact % (1 << 10)


# --- the uniform front end ---------------------------------------------------

class TestSequenceSpec:
    def test_power_term(self):
        spec = parse_sequence_spec("power:3,2@2^n")
        assert sequence_term(spec, 2, 7).residue() == 81

    def test_fibonacci_schedule(self):
        spec = parse_sequence_spec("fibonacci@4^n")
        assert sequence_term(spec, 2, 3).residue() == 3  # F_16 = 987

    def test_bell_schedule(self):
        spec = parse_sequence_spec("bell@4^n")
        assert sequence_term(spec, 1, 2).residue() == 3  # B_4 = 15

    def test_text_round_trip(self):
        for text in (
            "power:3,2@2^n/2^600",
            "catalan@2^n/2^8",
            "bell@2*4^n",
            "fibonacci@4^n",
            "factorial@2^n/2^8",
        ):
            spec = parse_sequence_spec(text)
            assert parse_sequence_spec(spec.to_text()) == spec

    def test_aliases(self):
        assert parse_sequence_spec("power-tower:3,2@2^n").family == "power"
        assert (
            parse_sequence_spec("normalized-factorial@2^n").family
            == "factorial"
        )

    def test_embedded_precision(self):
        spec = parse_sequence_spec("catalan@2^n/2^8")
        assert spec.precision == 8
        assert sequence_term(spec, 2).residue() == 14

    def test_requires_some_precision(self):
        with pytest.raises(ValueError):
            sequence_term(parse_sequence_spec("catalan@2^n"), 2)

    def test_parse_failures(self):
        for text in (
            "nonsense@2^n",
            "power@2^n",           # missing k,p
            "catalan:3,2@2^n",     # parameters on the wrong family
            "catalan@1^n",         # schedule not increasing
            "catalan",
            "power:2,4@4^n",       # composite tower base
            "factorial@2^n/3^5",   # odd-part normalization is 2-adic
        ):
            with pytest.raises(ValueError):
                parse_sequence_spec(text)

    def test_tower_base_bound(self):
        assert MAX_TOWER_BASE == 1 << 32
        p = 4294967291  # the largest prime below the bound
        spec = parse_sequence_spec(f"power:3,{p}@2^n")
        assert sequence_term(spec, 5, 3).residue() == pow(3, 32, p**3)
        with pytest.raises(ValueError, match="exceeds the limit"):
            parse_sequence_spec("power:3,4294967311@2^n")  # prime, above

    def test_schedule_index(self):
        spec = parse_sequence_spec("bell@2*4^n")
        assert [spec.index(n) for n in range(4)] == [2, 8, 32, 128]

