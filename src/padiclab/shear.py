"""Limit detection for digit-stable sequences and the subtract-and-shear
coefficient cascade.

A sequence of residues mod p**a "converges" here when a tail of at
least three consecutive terms is fully congruent and the agreement
depth never drops again over the inspected range: one accidental
collision is not enough.  Detection is empirical - it certifies
agreement among the inspected terms, nothing beyond them.

The cascade repeatedly subtracts a detected limit (truncated to its
certified digits, like forming an integer from the first a digits) and
divides row n by p**n.  The subtraction error of row n sits at
valuation (certified depth) - n, so rows past the best-agreement index
are dominated by it and are dropped from the next stage.  Figure 5
(``grids.grid_power_tower(..., "subtract-shear")``) draws the same
rows through the same shear step, once per given coefficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .analysis import is_prime
from .core import PadicApprox, base_multiplicity
from .sequences import SequenceSpec, index_cap, sequence_term

__all__ = [
    "ExtractionError",
    "LimitReport",
    "SENTINEL",
    "WINDOW_TERMS",
    "extract_coefficients",
    "limit_detect",
    "shear_rows",
]

# Consecutive fully-congruent terms required before a limit is believed.
WINDOW_TERMS = 3

# Marker for grid cells that a shear moved out of range.
SENTINEL = -1


class ExtractionError(ArithmeticError):
    """A cascade stage could not certify a limit from its rows."""


@dataclass(frozen=True)
class LimitReport:
    """Outcome of limit detection.

    outcome is one of "converged", "not-converged", "inconclusive"
    (inconclusive = the schedule reached an index past the family's
    index cap before the term budget ran out, which must not be read as
    divergence; terms_used then counts the terms up to the cap).
    agreement_depth[n] counts the low digits on which terms n and n+1
    agree, capped at the working precision.  stable_from is the first
    index of the fully-congruent tail.
    """

    outcome: str
    limit: PadicApprox | None
    agreement_depth: tuple[int, ...]
    terms_used: int
    stable_from: int | None

    @property
    def converged(self) -> bool:
        return self.outcome == "converged"

    def to_record(self) -> dict:
        return {
            "outcome": self.outcome,
            "converged": self.converged,
            "limit": None if self.limit is None else self.limit.to_record(),
            "agreement_depth": list(self.agreement_depth),
            "terms_used": self.terms_used,
            "stable_from": self.stable_from,
        }


def _agreement(x: int, y: int, p: int, cap: int) -> int:
    """Low digits on which two residues agree, capped at cap."""
    diff = (x - y) % p**cap
    if diff == 0:
        return cap
    return min(base_multiplicity(diff, p), cap)


def limit_detect(
    spec: SequenceSpec, a: int | None = None, *, budget: int
) -> LimitReport:
    """Inspect ``budget`` terms of spec mod base**a for a stable limit.

    Converges iff the last WINDOW_TERMS or more terms are all congruent
    at full precision; the depth profile of a genuinely convergent
    sequence rises into that plateau and never leaves it.  Only terms
    whose index is within the family's cap (``sequences.index_cap``,
    read once per call) are generated; a schedule index past it ends
    the run with the distinct "inconclusive" outcome.
    """
    precision = a if a is not None else spec.precision
    if precision is None:
        raise ValueError("no precision given (neither argument nor spec)")
    if budget < WINDOW_TERMS:
        raise ValueError(
            f"budget must allow at least {WINDOW_TERMS} terms, got {budget}"
        )
    p = spec.reduction_base
    cap = index_cap(spec.family)
    # The schedule strictly increases: the terms within the cap are a prefix.
    terms = 0
    while terms < budget and (cap is None or spec.index(terms) <= cap):
        terms += 1
    residues = [sequence_term(spec, n, precision).residue() for n in range(terms)]
    depths = tuple(
        _agreement(residues[i + 1], residues[i], p, precision)
        for i in range(len(residues) - 1)
    )
    if terms < budget:
        return LimitReport("inconclusive", None, depths, terms, None)
    # First index of the trailing fully-congruent run of terms.
    start = len(depths)
    while start >= 1 and depths[start - 1] == precision:
        start -= 1
    if len(residues) - start >= WINDOW_TERMS:
        limit = PadicApprox.from_residue(residues[start], p, precision)
        return LimitReport("converged", limit, depths, len(residues), start)
    return LimitReport("not-converged", None, depths, len(residues), None)


def _stage_window(
    rows: list[int], precs: list[int], p: int
) -> tuple[int, int, tuple[int, ...]]:
    """Best three-row agreement window of a cascade stage.

    Returns (center index, certified depth, depth profile).  The center
    maximizes the pairwise congruence of rows n-1, n, n+1; the depth
    profile must be non-decreasing up to it, mirroring the detection
    criterion above.
    """
    depths = tuple(
        _agreement(rows[i + 1], rows[i], p, min(precs[i + 1], precs[i]))
        for i in range(len(rows) - 1)
    )
    if len(depths) < 2:
        raise ExtractionError("too few rows left to frame a window")
    best_n = 0
    best_d = -1
    for n in range(1, len(depths)):
        d = min(depths[n - 1], depths[n])
        if d > best_d:
            best_d = d
            best_n = n
    if best_d < 1:
        raise ExtractionError("rows never agree on a single digit")
    if any(depths[i] > depths[i + 1] for i in range(best_n - 1)):
        raise ExtractionError(
            "agreement depth is not monotone up to its peak; "
            "no trustworthy limit in this stage"
        )
    return best_n, best_d, depths


def _tower_rows(k: int, p: int, count: int, modulus: int) -> list[int]:
    """k**(p**n) mod modulus for n < count, each row the p-th power of
    the one before."""
    rows = []
    r = k % modulus
    for _ in range(count):
        rows.append(r)
        r = pow(r, p, modulus)
    return rows


def _subtract_shear(
    rows: list[int], precs: list[int], c: int, p: int
) -> tuple[list[int], list[int]]:
    """One shear step: row n, known mod p**precs[n], becomes
    (row - c) / p**n, known to precs[n] - n digits.

    Raises ArithmeticError when a division is not exact, which means
    that c does not match the rows' leading digits.
    """
    quotients = []
    for n, (row, prec) in enumerate(zip(rows, precs)):
        q, r = divmod((row - c) % p**prec, p**n)
        if r:
            raise ArithmeticError(
                f"shear is not exact at row {n}: the subtracted digits "
                "do not match these rows"
            )
        quotients.append(q)
    return quotients, [prec - n for n, prec in enumerate(precs)]


def extract_coefficients(
    k: int, p: int, count: int, a: int, budget: int
) -> list[PadicApprox]:
    """Leading coefficients of the digit expansion of n -> k**(p**n).

    Stage j detects the limit c_j of its rows, reports it to
    min(certified digits, a), subtracts the certified truncation from
    every earlier row and divides row n by p**n.  The working precision
    a + count*budget leaves every row at least ``a`` digits after all
    the shears.  Rows at and past the window center are dropped: their
    remaining digits are dominated by the truncation error.
    """
    if not is_prime(p):
        raise ValueError(f"base {p} must be prime")
    if math.gcd(k, p) != 1:
        raise ValueError(f"{k} shares a factor with {p}")
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    if a < 1:
        raise ValueError(f"precision must be at least 1, got {a}")
    if budget < WINDOW_TERMS + 1:
        raise ValueError(f"budget {budget} is too small to detect anything")
    working = a + count * budget
    rows = _tower_rows(k, p, budget, p**working)
    precs = [working] * budget
    coeffs: list[PadicApprox] = []
    for stage in range(count):
        center, certified, _ = _stage_window(rows, precs, p)
        achieved = min(certified, a, precs[center])
        coeffs.append(PadicApprox.from_residue(rows[center], p, achieved))
        if stage == count - 1:
            break
        truncated = rows[center] % p**certified
        rows, precs = _subtract_shear(
            rows[:center], precs[:center], truncated, p
        )
    return coeffs


def shear_rows(rows: list, step: int) -> list[tuple[int, ...]]:
    """Shift row n left by step*n digit positions.

    Vacated cells on the right are filled with SENTINEL; callers
    have already accounted for the dropped low digits.
    """
    if step < 0:
        raise ValueError(f"step must be nonnegative, got {step}")
    out = []
    for n, row in enumerate(rows):
        kept = tuple(row[step * n :])
        out.append(kept + (SENTINEL,) * (len(row) - len(kept)))
    return out
