"""Logarithm, series coefficients, Teichmuller lifts, orders."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from padiclab import (
    euler_phi_prime_power,
    exp_series_coeffs,
    multiplicative_order,
    padic_log,
    teichmuller,
)


def brute_log_series(u, bits, terms):
    """Oracle: exact rational partial sum of -sum (1-u)**i / i, reduced
    mod 2**bits.  Independent of the modular implementation: the sum is
    one Fraction whose denominator is odd."""
    x = 1 - u
    total = sum(Fraction(x**i, i) for i in range(1, terms + 1))
    total = -total
    assert total.denominator % 2 == 1
    inv = pow(total.denominator, -1, 1 << bits)
    return total.numerator * inv % (1 << bits)


def unreduced_log(u, p, target):
    """Oracle: log(u) mod p**target from the series summed on u itself,
    without argument reduction, at a working precision whose guard
    covers the digits lost to the divisions by i."""
    if p == 2 and u % 4 == 3:
        doubled = unreduced_log(u * u, 2, target + 1)
        assert doubled % 2 == 0
        return doubled // 2

    def v(n):
        t = 0
        while n % p == 0:
            n //= p
            t += 1
        return t

    guard = math.ceil(math.log(8 * (target + 8), p)) + 4
    work = target + guard
    modulus = p**work
    x = (1 - u) % modulus
    if x == 0:
        return 0
    vx = v(x)
    total, xi, i = 0, x, 1
    while i * vx - v(i) < work:
        e = v(i)
        term = xi * pow(i // p**e, -1, modulus) % modulus
        assert term % p**e == 0
        total = (total + term // p**e) % modulus
        xi = xi * x % modulus
        i += 1
    return -total % p**target


class TestReducedLog:
    """padic_log reduces its argument; the plain series is the oracle."""

    @given(
        p=st.sampled_from((2, 3, 5, 7)),
        precision=st.integers(1, 600),
        x=st.integers(-10**12, 10**12),
    )
    @example(p=2, precision=600, x=1)  # u = 3: the u = 3 mod 4 branch
    @example(p=7, precision=600, x=10**12)
    def test_matches_unreduced_series(self, p, precision, x):
        u = 2 * x + 1 if p == 2 else 1 + p * x
        got = padic_log(u, p, precision).to_approx(precision).residue()
        assert got == unreduced_log(u, p, precision)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_targets_without_reduction(self, p):
        # isqrt(target) // 2 is 0 below 4: the series runs on u itself.
        for precision in (1, 2, 3, 4):
            for u in (1 + 4 * p, 1 - 4 * p, 1 + p**3, 3 if p == 2 else 1 + p):
                got = padic_log(u, p, precision).to_approx(precision).residue()
                assert got == unreduced_log(u, p, precision)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_high_valuation(self, p):
        # v(log(1 + p**50)) = 50 for every p here: the first series term.
        u = 1 + p**50
        for precision in (30, 50, 51, 99, 600):
            s = padic_log(u, p, precision)
            if precision <= 50:
                assert s.is_zero
            else:
                assert s.valuation == 50
            got = s.to_approx(precision).residue()
            assert got == unreduced_log(u, p, precision)

    def test_three_mod_four(self):
        for u in (3, 7, -1 + 4 * 10**9, -5):
            for precision in (1, 2, 3, 17, 64, 257):
                got = padic_log(u, 2, precision).to_approx(precision).residue()
                assert got == unreduced_log(u, 2, precision)


class TestLog:
    def test_log3_value(self):
        s = padic_log(3, 2, 12)
        assert s.valuation == 2
        approx = s.to_approx(12)
        assert approx.residue() == 2292
        assert approx.digits == (0, 0, 1, 0, 1, 1, 1, 1, 0, 0, 0, 1)

    def test_log1_is_zero(self):
        assert padic_log(1, 2, 8).is_zero

    def test_log9_matches_series_oracle(self):
        # terms beyond 24 have valuation at least 3*24 - 4 > 13
        expected = brute_log_series(9, 13, 24)
        assert expected == 4584
        assert padic_log(9, 2, 13).to_approx(13).residue() == expected
        doubled = 2 * padic_log(3, 2, 12).to_approx(12).residue()
        assert doubled % (1 << 13) == expected

    def test_log5_matches_series_oracle(self):
        expected = brute_log_series(5, 14, 40)
        assert padic_log(5, 2, 14).to_approx(14).residue() == expected

    def test_odd_prime_log(self):
        # v_3(log 4) = v_3(3) = 1, and exp/log cancel digit by digit:
        # check against the exact rational series oracle instead.
        x = 1 - 4
        total = -sum(Fraction(x**i, i) for i in range(1, 30))
        assert total.denominator % 3 != 0
        expected = total.numerator * pow(total.denominator, -1, 3**10) % 3**10
        assert padic_log(4, 3, 10).to_approx(10).residue() == expected

    def test_square_homomorphism(self):
        rng = random.Random(633)
        for _ in range(25):
            u = 2 * rng.randint(1, 4000) + 1
            lu = padic_log(u, 2, 15).to_approx(15).residue()
            lu2 = padic_log(u * u, 2, 16).to_approx(16).residue()
            assert (2 * lu) % (1 << 16) == lu2

    def test_rejects_non_units_and_bad_domain(self):
        with pytest.raises(ValueError):
            padic_log(6, 2, 8)
        with pytest.raises(ValueError):
            padic_log(2, 3, 8)  # 2 is not 1 mod 3
        with pytest.raises(ValueError):
            padic_log(3, 4, 8)  # composite base


class TestExpSeriesCoeffs:
    def test_c0_alone(self):
        cs = exp_series_coeffs(3, 2, 1, 8)
        assert len(cs) == 1
        assert cs[0].to_approx(8).residue() == 1

    def test_c2_digits(self):
        cs = exp_series_coeffs(3, 2, 3, 6)
        assert cs[2].to_approx(6).digits == (0, 0, 0, 1, 0, 0)

    def test_c3_valuation(self):
        cs = exp_series_coeffs(3, 2, 4, 4)
        assert cs[3].valuation == 5

    def test_coeff_times_factorial_is_log_power(self):
        for k in (3, 5, 7):
            log_k = padic_log(k, 2, 20).to_approx(20).residue()
            cs = exp_series_coeffs(k, 2, 7, 20)
            for i in range(1, 7):
                t = min(cs[i].known_to(), 20)
                lhs = cs[i].to_approx(t).residue() * math.factorial(i)
                assert lhs % (1 << t) == pow(log_k, i, 1 << t)

    def test_k_equal_one_collapses(self):
        cs = exp_series_coeffs(1, 2, 4, 8)
        assert cs[0].to_approx(8).residue() == 1
        assert all(c.is_zero for c in cs[1:])

    def test_bad_count(self):
        with pytest.raises(ValueError):
            exp_series_coeffs(3, 2, 0, 8)


class TestTeichmuller:
    def test_lift_of_2_base_3_is_minus_one(self):
        assert teichmuller(2, 3, 8).digits == (2,) * 8

    def test_lift_of_4_base_3_is_one(self):
        assert teichmuller(4, 3, 8).digits == (1,) + (0,) * 7

    def test_lift_of_2_base_5(self):
        # oracle: exhaustive search among residues congruent to 2 mod 5
        roots = [x for x in range(25) if x % 5 == 2 and pow(x, 5, 25) == x]
        assert roots == [7]
        assert teichmuller(2, 5, 2).residue() == 7

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_fixed_point_and_congruence(self, p):
        for a in (1, 6, 12):
            modulus = p**a
            for k in range(1, p):
                w = teichmuller(k, p, a).residue()
                assert pow(w, p, modulus) == w
                assert w % p == k
                assert pow(w, p - 1, modulus) == 1

    def test_lifts_of_2_and_3_cancel_base_5(self):
        for a in range(1, 13):
            w2 = teichmuller(2, 5, a).residue()
            w3 = teichmuller(3, 5, a).residue()
            assert (w2 + w3) % 5**a == 0

    def test_rejects_multiples_of_p(self):
        with pytest.raises(ValueError):
            teichmuller(10, 5, 4)


class TestEulerPhi:
    def test_instances(self):
        assert euler_phi_prime_power(2, 5) == 16
        assert euler_phi_prime_power(2, 1) == 1

    def test_against_unit_count(self):
        # oracle: count units modulo 125 directly
        count = sum(1 for x in range(1, 126) if math.gcd(x, 125) == 1)
        assert count == 100
        assert euler_phi_prime_power(5, 3) == 100

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            euler_phi_prime_power(4, 2)


def brute_order(k, modulus):
    t = 1
    x = k % modulus
    while x != 1:
        x = x * k % modulus
        t += 1
    return t


class TestMultiplicativeOrder:
    def test_3_mod_32(self):
        assert brute_order(3, 32) == 8
        assert multiplicative_order(3, 2, 5) == 8

    def test_3_mod_4(self):
        assert multiplicative_order(3, 2, 2) == 2

    def test_identity(self):
        assert multiplicative_order(1, 2, 10) == 1

    def test_matches_brute_force(self):
        rng = random.Random(808)
        for p, a in ((2, 6), (3, 4), (5, 3), (7, 2)):
            modulus = p**a
            for _ in range(10):
                k = rng.randrange(1, modulus)
                if math.gcd(k, p) != 1:
                    continue
                assert multiplicative_order(k, p, a) == brute_order(k, modulus)

    def test_power_of_two_orders(self):
        for a in range(3, 21):
            assert multiplicative_order(3, 2, a) == 1 << (a - 2)

    def test_euler_theorem_for_random_units(self):
        rng = random.Random(1999)
        for p, e in ((2, 8), (3, 5), (5, 4), (11, 3)):
            modulus = p**e
            phi = euler_phi_prime_power(p, e)
            for _ in range(20):
                k = rng.randrange(1, modulus)
                if math.gcd(k, p) != 1:
                    continue
                assert pow(k, phi, modulus) == 1
                assert phi % multiplicative_order(k, p, e) == 0

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            multiplicative_order(6, 2, 5)
