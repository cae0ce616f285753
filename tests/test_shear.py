"""Limit detection and the coefficient cascade."""

import os

import pytest

from padiclab import (
    SENTINEL,
    ExtractionError,
    exp_series_coeffs,
    extract_coefficients,
    limit_detect,
    padic_from_integer,
    parse_sequence_spec,
    power_tower_term,
    shear_rows,
    teichmuller,
)
from padiclab.shear import _subtract_shear, _tower_rows


class TestLimitDetect:
    def test_tower_converges_to_one(self):
        report = limit_detect(parse_sequence_spec("power:3,2@2^n"), 8, budget=16)
        assert report.converged
        assert report.limit.residue() == 1
        assert report.terms_used == 16
        assert all(
            d == 8 for d in report.agreement_depth[report.stable_from :]
        )

    def test_fibonacci_alternates(self):
        report = limit_detect(parse_sequence_spec("fibonacci@2^n"), 3, budget=16)
        assert report.outcome == "not-converged"
        assert report.limit is None
        # the tail alternates between the residues of F_4 and F_8 mod 8
        assert report.agreement_depth[-1] < 3

    def test_tower_base_3_converges_to_minus_one(self):
        report = limit_detect(parse_sequence_spec("power:2,3@3^n"), 6, budget=12)
        assert report.converged
        assert report.limit.digits == (2,) * 6

    def test_generator_exhaustion_is_inconclusive(self):
        report = limit_detect(parse_sequence_spec("catalan@2^n"), 3, budget=20)
        assert report.outcome == "inconclusive"
        assert report.limit is None
        assert report.terms_used < 20

    def test_short_tail_is_not_convergence(self):
        # two stable terms are one short of the required window
        report = limit_detect(parse_sequence_spec("fibonacci@2^n"), 1, budget=3)
        assert report.outcome == "converged" or report.outcome == "not-converged"
        tiny = limit_detect(parse_sequence_spec("bell@2^n"), 3, budget=3)
        assert tiny.outcome == "not-converged"

    def test_budget_floor(self):
        with pytest.raises(ValueError):
            limit_detect(parse_sequence_spec("power:3,2@2^n"), 8, budget=2)

    def test_precision_from_spec_text(self):
        report = limit_detect(parse_sequence_spec("power:3,2@2^n/2^8"), budget=16)
        assert report.converged and report.limit.precision == 8

    def test_euler_schedule_limits_are_one(self):
        for p in (2, 3, 5):
            mult = p - 1
            for k in range(1, p * p):
                if k % p == 0:
                    continue
                text = f"power:{k},{p}@{mult}*{p}^n" if mult > 1 else f"power:{k},{p}@{p}^n"
                report = limit_detect(parse_sequence_spec(text), 8, budget=12)
                if p == 2 or mult > 1:
                    assert report.converged, (k, p)
                    assert report.limit.residue() == 1, (k, p)

    def test_tower_limits_are_teichmuller_lifts(self):
        for p in (3, 5):
            for k in range(1, p):
                report = limit_detect(
                    parse_sequence_spec(f"power:{k},{p}@{p}^n"), 8, budget=12
                )
                assert report.converged
                assert report.limit.digits == teichmuller(k, p, 8).digits


class TestIndexCap:
    """PADICLAB_BUDGET caps the index of the expensive families; limit_detect
    stops before the first schedule index past the cap."""

    @pytest.mark.parametrize(
        "text",
        ["catalan@2^n", "motzkin@2^n", "bell@2*4^n", "factorial@2^n"],
        ids=["catalan", "motzkin", "bell", "factorial"],
    )
    def test_small_cap_is_inconclusive(self, monkeypatch, text):
        spec, cap, budget = parse_sequence_spec(text), 32, 7
        monkeypatch.delenv("PADICLAB_BUDGET", raising=False)
        uncapped = limit_detect(spec, 6, budget=budget)
        monkeypatch.setenv("PADICLAB_BUDGET", str(cap))
        capped = limit_detect(spec, 6, budget=budget)
        below = sum(1 for n in range(budget) if spec.index(n) <= cap)
        assert uncapped.terms_used == budget > below
        assert capped.outcome == "inconclusive"
        assert capped.limit is None and capped.stable_from is None
        assert capped.terms_used == below
        assert capped.agreement_depth == uncapped.agreement_depth[: below - 1]

    def test_env_is_read_once_per_call(self, monkeypatch):
        reads = []

        class Environ(dict):
            def get(self, key, default=None):
                reads.append(key)
                return super().get(key, default)

            def __getitem__(self, key):
                reads.append(key)
                return super().__getitem__(key)

        monkeypatch.setattr(os, "environ", Environ(os.environ, PADICLAB_BUDGET="64"))
        report = limit_detect(parse_sequence_spec("catalan@2^n"), 3, budget=8)
        assert report.outcome == "inconclusive" and report.terms_used == 7
        assert reads.count("PADICLAB_BUDGET") == 1


class TestExtractCoefficients:
    def test_single_coefficient(self):
        cs = extract_coefficients(3, 2, 1, 8, 16)
        assert len(cs) == 1
        assert cs[0].residue() == 1

    def test_c1_value(self):
        cs = extract_coefficients(3, 2, 2, 12, 24)
        assert cs[1].residue() % (1 << 12) == 2292

    def test_c2_prefix(self):
        cs = extract_coefficients(3, 2, 3, 6, 24)
        assert cs[2].digits[:6] == (0, 0, 0, 1, 0, 0)

    def test_matches_series_route(self):
        for k in (3, 5, 7):
            extracted = extract_coefficients(k, 2, 4, 10, 64)
            series = exp_series_coeffs(k, 2, 4, 12)
            for j in range(1, 4):
                t = min(extracted[j].precision, series[j].known_to(), 10)
                assert t >= 8, (k, j)
                assert (
                    extracted[j].residue() % (1 << t)
                    == series[j].to_approx(t).residue()
                ), (k, j)

    def test_achieved_precision_is_reported(self):
        cs = extract_coefficients(3, 2, 4, 40, 192)
        assert [c.precision for c in cs] == [40, 40, 40, 40]

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            extract_coefficients(6, 2, 2, 8, 16)
        with pytest.raises(ValueError):
            extract_coefficients(3, 4, 2, 8, 16)
        with pytest.raises(ValueError):
            extract_coefficients(3, 2, 2, 8, 3)

    def test_too_many_stages_for_budget(self):
        with pytest.raises(ExtractionError):
            extract_coefficients(3, 2, 6, 8, 8)


class TestShearRows:
    def test_step_zero_is_identity(self):
        rows = [(1, 0, 1), (0, 1, 1)]
        assert shear_rows(rows, 0) == [(1, 0, 1), (0, 1, 1)]

    def test_hand_checked_shift(self):
        assert shear_rows([(0, 1, 1), (0, 0, 1)], 1) == [
            (0, 1, 1),
            (0, 1, SENTINEL),
        ]

    def test_diagonals_become_verticals(self):
        # rows of 3**(2**n) - 1 sheared by one step stabilize columnwise:
        # row n then holds (3**(2**n) - 1) / 2**n, whose digits agree with
        # the following row ever deeper
        width = 24
        rows = [
            (power_tower_term(3, 2, n, width) - padic_from_integer(1, 2, width)).digits
            for n in range(8)
        ]
        sheared = shear_rows(rows, 1)
        for n in range(2, 7):
            assert sheared[n][:2] == (0, 0) and sheared[n][2] == 1
            assert sheared[n][:n] == sheared[n + 1][:n]

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError):
            shear_rows([(1,)], -1)


class TestSubtractShear:
    def test_subtracting_one_zeroes_low_digits(self):
        # v_2(3**(2**n) - 1) = n + 2 for n >= 1, so after dividing by
        # 2**n two more low digits are zero
        rows = _tower_rows(3, 2, 8, 1 << 16)
        quotients, precs = _subtract_shear(rows, [16] * 8, 1, 2)
        assert precs == [16 - n for n in range(8)]
        for n in range(1, 8):
            assert quotients[n] % 4 == 0
            assert quotients[n] == ((pow(3, 1 << n) - 1) >> n) % (1 << precs[n])

    def test_subtracting_zero_only_divides(self):
        # with nothing subtracted the step only divides row n by 2**n
        rows = [3, 9 << 1, 81 << 2]
        quotients, precs = _subtract_shear(rows, [16, 16, 16], 0, 2)
        assert quotients == [3, 9, 81] and precs == [16, 15, 14]

    def test_wrong_limit_is_not_exact(self):
        # 3**(2**n) = 1 mod 8 for n >= 1; subtracting 3 leaves 2 mod 8,
        # which row 2 cannot divide by 4
        rows = _tower_rows(3, 2, 4, 1 << 16)
        with pytest.raises(ArithmeticError, match="row 2"):
            _subtract_shear(rows, [16] * 4, 3, 2)
