"""p-adic special functions and algebraic invariants.

The logarithm and the exponential-series coefficients built from it,
Teichmuller representatives, totients of prime powers, and
multiplicative orders.  Every operation here requires a prime base and
rejects composite ones.  Pure functions throughout.
"""

from __future__ import annotations

import math

from .core import PadicApprox, PadicScalar, base_multiplicity

__all__ = [
    "euler_phi_prime_power",
    "exp_series_coeffs",
    "is_prime",
    "multiplicative_order",
    "padic_log",
    "teichmuller",
]

# Hard cap on series terms, as a multiple of the working precision.
_SERIES_TERM_FACTOR = 8
_LOG_GUARD = 4


def is_prime(p: int) -> bool:
    """Deterministic trial division; base primes here are tiny."""
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"base {p} must be prime for this operation")


def _factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division (small operands only)."""
    out: dict[int, int] = {}
    f = 2
    while f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _log_series(u: int, p: int, target: int) -> int:
    """log(u) mod p**target for u in the series convergence domain.

    Argument reduction: log u = log(y) / p**k with y = u**(p**k) and
    k = isqrt(target) // 2, the paper's log u = lim (u**(p**n) - 1)/p**n
    taken at a finite n.  Each p-th power raises the valuation of
    1 - y by at least one, so the series below needs about
    sqrt(target) terms instead of about target.  It runs on y to
    target + k digits.  The division by p**k is exact: log is a
    homomorphism on 1 + pZ_p (1 + 4Z_2 for p = 2), so log y = p**k *
    log u with log u in Z_p, and the residue of log y mod p**(target+k)
    is p**k times that of log u mod p**target.  It is checked anyway.

    The series sums -x**i/i with x = 1 - y at a guarded working
    precision; the division by i costs at most v_p(i) digits per term,
    which the guard absorbs.  It stops at the first term whose
    valuation reaches the working precision, with a hard cap to
    guarantee termination.
    """
    k = math.isqrt(target) // 2
    target += k
    guard = math.ceil(
        math.log(_SERIES_TERM_FACTOR * (target + 8), p)
    ) + _LOG_GUARD
    work = target + guard
    cap = _SERIES_TERM_FACTOR * work
    modulus = p**work
    x = (1 - pow(u, p**k, modulus)) % modulus
    if x == 0:  # y = 1 to the working precision, so log y is 0 there
        return 0
    vx = base_multiplicity(x, p)
    total = 0
    xi = x
    i = 1
    while i * vx - base_multiplicity(i, p) < work:
        if i > cap:  # unreachable for valid inputs; keeps the loop finite
            raise ArithmeticError("series failed to terminate within its cap")
        e = base_multiplicity(i, p)
        term = (xi * pow(i // p**e, -1, modulus)) % modulus
        if term % p**e:
            raise ArithmeticError("series term lost exactness")
        total = (total + term // p**e) % modulus
        xi = (xi * x) % modulus
        i += 1
    log_u, rem = divmod((-total) % p**target, p**k)
    if rem:
        raise ArithmeticError("log(u**(p**k)) is not divisible by p**k")
    return log_u


def padic_log(u: int, p: int, precision: int) -> PadicScalar:
    """The p-adic logarithm of u, correct to ``precision`` digits of the value.

    Requires gcd(u, p) = 1.  The series converges for u = 1 mod p (odd
    p) and u = 1 mod 4 (p = 2); for p = 2 and u = 3 mod 4 the value is
    computed as log(u**2)/2, which is an exact shift.  Arguments with a
    nontrivial Teichmuller factor are rejected rather than reduced.
    """
    _require_prime(p)
    if precision < 1:
        raise ValueError(f"precision must be at least 1, got {precision}")
    if math.gcd(u, p) != 1:
        raise ValueError(f"{u} is divisible by {p}; log is undefined")
    if p == 2:
        if u % 4 == 1:
            value = _log_series(u, 2, precision)
        else:
            doubled = _log_series(u * u, 2, precision + 1)
            if doubled % 2:
                raise ArithmeticError("log(u**2) lost its guaranteed parity")
            value = doubled // 2
    else:
        if u % p != 1:
            raise ValueError(
                f"{u} is not 1 mod {p}: outside the series convergence "
                "domain (Teichmuller factors are not removed here)"
            )
        value = _log_series(u, p, precision)
    return PadicScalar.from_residue(value, p, precision)


def exp_series_coeffs(
    k: int, p: int, count: int, precision: int
) -> list[PadicScalar]:
    """Coefficients L**i / i! for i < count, where L = padic_log(k, p, .).

    Each coefficient reports its own achieved precision (``known_to``):
    dividing by i! costs v_p(i!) digits while the i-th power of L gains
    (i-1) * valuation(L), so the achieved precision per coefficient is
    precision + (i-1)*valuation(L) - v_p(i!).  Raises if that ever
    drops below one digit instead of returning unusable values.
    """
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    one = PadicScalar(0, PadicApprox.from_residue(1, p, precision))
    log_k = padic_log(k, p, precision)
    out = [one]
    if log_k.is_zero:
        # k = 1 (or k**2 = 1): every higher coefficient is exactly zero.
        out.extend(PadicScalar.zero(p, precision) for _ in range(count - 1))
        return out
    alpha = log_k.valuation
    m = log_k.unit.precision
    unit_mod = p**m
    unit_value = log_k.unit.residue()
    for i in range(1, count):
        fact = math.factorial(i)
        e = base_multiplicity(fact, p)
        achieved = precision + (i - 1) * alpha - e
        if achieved < 1:
            raise ValueError(
                f"coefficient {i} is only achievable to {achieved} digits "
                f"at request precision {precision}"
            )
        coeff_unit = (
            pow(unit_value, i, unit_mod)
            * pow((fact // p**e) % unit_mod, -1, unit_mod)
        ) % unit_mod
        out.append(
            PadicScalar(
                i * alpha - e, PadicApprox.from_residue(coeff_unit, p, m)
            )
        )
    return out


def teichmuller(k: int, p: int, precision: int) -> PadicApprox:
    """The (p-1)-th root of unity congruent to k mod p, mod p**precision.

    Computed by iterating x <- x**p until fixed; each step gains at
    least one digit of agreement, so ``precision`` iterations suffice.
    """
    _require_prime(p)
    if precision < 1:
        raise ValueError(f"precision must be at least 1, got {precision}")
    if math.gcd(k, p) != 1:
        raise ValueError(f"{k} is divisible by {p}: no unit representative")
    modulus = p**precision
    x = k % modulus
    for _ in range(2 * precision + 1):
        y = pow(x, p, modulus)
        if y == x:
            return PadicApprox.from_residue(x, p, precision)
        x = y
    raise ArithmeticError(
        f"fixed point not reached within {2 * precision + 1} iterations"
    )


def euler_phi_prime_power(p: int, e: int) -> int:
    """phi(p**e) = (p-1) * p**(e-1) for prime p."""
    _require_prime(p)
    if e < 1:
        raise ValueError(f"exponent must be at least 1, got {e}")
    return (p - 1) * p ** (e - 1)


def multiplicative_order(k: int, p: int, a: int) -> int:
    """Least t >= 1 with k**t = 1 mod p**a.

    Starts from the group order phi(p**a) and descends through its
    prime divisors, dividing out every factor that keeps the power at 1.
    """
    _require_prime(p)
    if a < 1:
        raise ValueError(f"exponent must be at least 1, got {a}")
    if math.gcd(k, p) != 1:
        raise ValueError(f"{k} is not a unit modulo {p}**{a}")
    modulus = p**a
    order = euler_phi_prime_power(p, a)
    factors = _factorize(p - 1)
    if a > 1:
        factors[p] = factors.get(p, 0) + (a - 1)
    t = order
    for q in factors:
        while t % q == 0 and pow(k, t // q, modulus) == 1:
            t //= q
    return t
