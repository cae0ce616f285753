"""Integer-sequence term generators reduced modulo prime powers.

Power towers k**(q**n), Fibonacci, Catalan, Motzkin, Bell, and the odd
part of factorials, behind a uniform ``SequenceSpec`` front end with a
small text grammar::

    <family>[:<k>,<p>]@[<c>*]<q>^n[/<b>^<a>]

e.g. ``power:3,2@2^n/2^600``, ``catalan@2^n/2^8``, ``bell@2*4^n``.

Generators are plain functions of their index; Bell steps a recurrence
mod b**a.  Families whose cost grows with the index carry caps
(``index_cap``), overridden all at once by the PADICLAB_BUDGET variable;
``shear.limit_detect`` enforces them before it generates a term, so a
capped run ends "inconclusive" rather than silently truncating.
"""

from __future__ import annotations

import math
import os
import re
from collections import deque
from dataclasses import dataclass
from operator import mul

from .analysis import is_prime
from .core import PadicApprox

__all__ = [
    "DEFAULT_INDEX_CAPS",
    "SequenceSpec",
    "bell_mod",
    "catalan_exact",
    "fibonacci_mod",
    "index_cap",
    "legendre_valuation",
    "motzkin_exact",
    "normalized_factorial_term",
    "odd_factorial_mod",
    "parse_sequence_spec",
    "power_tower_term",
    "sequence_term",
]


# Caps on the sequence index m, not on the schedule step n.  They fix
# which terms a capped run reports, so a faster generator keeps its cap.
# None means the generator is cheap at any index (log-time algorithms).
DEFAULT_INDEX_CAPS: dict[str, int | None] = {
    "power": None,
    "fibonacci": None,
    "catalan": 1 << 15,
    "motzkin": 1 << 13,
    "bell": 1 << 15,
    "factorial": 1 << 20,
}

_FAMILIES = tuple(DEFAULT_INDEX_CAPS)
_FAMILY_ALIASES = {"power-tower": "power", "normalized-factorial": "factorial"}

_ENV_BUDGET = "PADICLAB_BUDGET"

# Tower bases are proved prime by trial division, up to sqrt(p)/2 steps:
# 2**15, a few ms, below this bound.  Larger p are refused untested.
MAX_TOWER_BASE = 1 << 32


def index_cap(family: str) -> int | None:
    """Index cap of a family: PADICLAB_BUDGET if set, else the default.

    None for an uncapped family, without reading the environment.
    """
    if DEFAULT_INDEX_CAPS[family] is None:
        return None
    env = os.environ.get(_ENV_BUDGET)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(
                f"{_ENV_BUDGET} must be an integer, got {env!r}"
            ) from None
    return DEFAULT_INDEX_CAPS[family]


def power_term(k: int, p: int, m: int, a: int) -> int:
    """k**m mod p**a for prime p (callers check it), reducing the exponent
    mod phi(p**a) when gcd(k, p) = 1.  Bit-exact with the definition."""
    if a < 1:
        raise ValueError(f"precision must be at least 1, got {a}")
    modulus = p**a
    if math.gcd(k, p) == 1:
        m = m % ((p - 1) * p ** (a - 1))
    return pow(k, m, modulus)


def power_tower_term(k: int, p: int, n: int, a: int) -> PadicApprox:
    """k**(p**n) mod p**a.  Coprime k is the interesting case; other k
    are accepted so grids of their digits can still be drawn."""
    if not is_prime(p):
        raise ValueError(f"base {p} must be prime")
    if n < 0:
        raise ValueError(f"tower height must be nonnegative, got {n}")
    return PadicApprox.from_residue(power_term(k, p, p**n, a), p, a)


def fibonacci_mod(m: int, modulus: int) -> int:
    """F_m mod modulus by fast doubling (F_0 = 0, F_1 = 1)."""
    if m < 0:
        raise ValueError(f"index must be nonnegative, got {m}")
    if modulus < 2:
        raise ValueError(f"modulus must be at least 2, got {modulus}")
    a, b = 0, 1  # (F_j, F_{j+1}) for the prefix j of m's bits
    for bit in bin(m)[2:]:
        c = (a * (2 * b - a)) % modulus
        d = (a * a + b * b) % modulus
        if bit == "1":
            a, b = d, (c + d) % modulus
        else:
            a, b = c, d
    return a


def catalan_exact(m: int) -> int:
    """The m-th Catalan number as an exact integer.

    The recurrence multiplies by 2(2m-1) and divides by (m+1); the
    division is always exact, which is checked rather than assumed.
    """
    if m < 0:
        raise ValueError(f"index must be nonnegative, got {m}")
    c = 1
    for i in range(1, m + 1):
        q, r = divmod(c * 2 * (2 * i - 1), i + 1)
        if r:
            raise ArithmeticError(f"Catalan recurrence inexact at {i}")
        c = q
    return c


def motzkin_exact(m: int) -> int:
    """The m-th Motzkin number as an exact integer."""
    if m < 0:
        raise ValueError(f"index must be nonnegative, got {m}")
    if m == 0:
        return 1
    prev, cur = 1, 1  # M_0, M_1
    for i in range(2, m + 1):
        q, r = divmod((2 * i + 1) * cur + 3 * (i - 1) * prev, i + 2)
        if r:
            raise ArithmeticError(f"Motzkin recurrence inexact at {i}")
        prev, cur = cur, q
    return cur


def bell_mod(m: int, base: int, precision: int) -> int:
    """B_m mod b**a, b = base and a = precision, by a proved recurrence.

    Lemma.  Let L be the linear map on integer polynomials with
    L(x**n) = B_n, and (x)_b = x(x-1)...(x-b+1).  Dobinski's formula
    B_n = e**-1 * sum_j j**n / j! gives L((x)_b * f(x)) = L(f(x+b)).
    Since f(x+b) - f(x) = sum_(i>=1) b**i * f^(i)(x) / i!, induction on
    j gives L(Q**j * f) = 0 mod b**ceil(j/2) with Q = (x)_b - 1.  So
    D = Q**(2a-1), monic of degree d = b(2a-1), yields
    B_(n+d) = -sum_(i<d) D_i * B_(n+i)  (mod b**a)  for every n >= 0.

    The Bell triangle gives B_0 .. B_min(m, d-1) in O(d**2), the
    recurrence the rest in O(m*d).
    """
    if m < 0:
        raise ValueError(f"index must be nonnegative, got {m}")
    if base < 2 or precision < 1:
        raise ValueError(f"modulus {base}**{precision} must be at least 2")
    modulus = base**precision
    d = base * (2 * precision - 1)
    window, row = deque(maxlen=min(m + 1, d)), [1]
    for _ in range(window.maxlen):  # the Bell triangle, one row retained
        window.append(row[0])
        new = [row[-1]]
        for x in row:
            new.append((new[-1] + x) % modulus)
        row = new
    if m >= d:
        coeffs = [1]  # D, lowest degree first
        for _ in range(2 * precision - 1):
            prod = coeffs
            for j in range(base):  # prod * (x - j)
                pairs = zip([0] + prod, prod + [0])
                prod = [(hi - j * lo) % modulus for hi, lo in pairs]
            pairs = zip(prod, coeffs + [0] * base)
            coeffs = [(x - y) % modulus for x, y in pairs]
        step = [-c % modulus for c in coeffs[:d]]
        for _ in range(m - d + 1):
            window.append(sum(map(mul, step, window)) % modulus)
    return window[-1]


def legendre_valuation(m: int, p: int) -> int:
    """v_p(m!) by Legendre's floor sum over the p-power divisors."""
    if m < 0:
        raise ValueError(f"index must be nonnegative, got {m}")
    if not is_prime(p):
        raise ValueError(f"base {p} must be prime")
    total = 0
    q = m
    while q:
        q //= p
        total += q
    return total


def odd_factorial_mod(m: int, a: int) -> int:
    """The odd part of m! reduced mod 2**a, without forming m!.

    oddpart(m!) = oddpart((m//2)!) * (product of odd j <= m), so the
    whole computation is O(m) modular multiplications.
    """
    if m < 0:
        raise ValueError(f"index must be nonnegative, got {m}")
    if a < 1:
        raise ValueError(f"precision must be at least 1, got {a}")
    modulus = 1 << a
    acc = 1
    mm = m
    while mm > 1:
        for j in range(1, mm + 1, 2):
            acc = acc * j % modulus
        mm >>= 1
    return acc


def normalized_factorial_term(n: int, a: int) -> PadicApprox:
    """(2**n)! divided by its full power of 2, reduced mod 2**a."""
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    return PadicApprox.from_residue(odd_factorial_mod(1 << n, a), 2, a)


@dataclass(frozen=True)
class SequenceSpec:
    """Which sequence to sample, along which index schedule.

    The schedule maps n to mult * sbase**n, which covers every schedule
    used here (2^n, 4^n, 2*4^n, (p-1)*p^n, ...).  ``base`` is the
    reduction base; it defaults to p for power towers and to 2
    otherwise.  ``precision`` is an optional default digit count that
    callers may override per evaluation.
    """

    family: str
    k: int | None = None
    p: int | None = None
    mult: int = 1
    sbase: int = 2
    base: int | None = None
    precision: int | None = None

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise ValueError(
                f"unknown family {self.family!r}; expected one of {_FAMILIES}"
            )
        if self.family == "power":
            if self.k is None or self.p is None:
                raise ValueError("power towers need k and p parameters")
            if self.p >= MAX_TOWER_BASE:
                raise ValueError(
                    f"tower base {self.p} exceeds the limit {MAX_TOWER_BASE}"
                )
            if not is_prime(self.p):
                raise ValueError(f"tower base {self.p} must be prime")
            if self.base is not None and self.base != self.p:
                raise ValueError("power towers reduce modulo their own p")
        elif self.k is not None or self.p is not None:
            raise ValueError(f"family {self.family!r} takes no k,p parameters")
        if self.mult < 1:
            raise ValueError(f"schedule multiplier must be >= 1, got {self.mult}")
        if self.sbase < 2:
            raise ValueError(
                f"schedule base must be >= 2 for a strictly increasing "
                f"schedule, got {self.sbase}"
            )
        if self.family == "factorial" and self.reduction_base != 2:
            raise ValueError("the normalized factorial is 2-adic only")
        if self.base is not None and self.base < 2:
            raise ValueError(f"reduction base must be >= 2, got {self.base}")
        if self.precision is not None and self.precision < 1:
            raise ValueError("default precision must be >= 1")

    @property
    def reduction_base(self) -> int:
        if self.base is not None:
            return self.base
        return self.p if self.family == "power" else 2

    def index(self, n: int) -> int:
        """Sequence index sampled at schedule step n."""
        if n < 0:
            raise ValueError(f"schedule step must be nonnegative, got {n}")
        return self.mult * self.sbase**n

    def to_text(self) -> str:
        head = self.family
        if self.family == "power":
            head += f":{self.k},{self.p}"
        sched = f"{self.mult}*" if self.mult != 1 else ""
        sched += f"{self.sbase}^n"
        tail = f"/{self.base}^{self.precision}" if self.precision else ""
        return f"{head}@{sched}{tail}"


_SPEC_RE = re.compile(
    r"^(?P<family>[a-z][a-z-]*)"
    r"(?::(?P<k>\d+),(?P<p>\d+))?"
    r"@(?:(?P<mult>\d+)\*)?(?P<sbase>\d+)\^n"
    r"(?:/(?P<base>\d+)\^(?P<prec>\d+))?$"
)


def parse_sequence_spec(text: str) -> SequenceSpec:
    """Parse the ``family[:k,p]@[c*]q^n[/b^a]`` text form."""
    m = _SPEC_RE.match(text.strip())
    if m is None:
        raise ValueError(f"cannot parse sequence spec {text!r}")
    family = _FAMILY_ALIASES.get(m["family"], m["family"])
    return SequenceSpec(
        family=family,
        k=int(m["k"]) if m["k"] else None,
        p=int(m["p"]) if m["p"] else None,
        mult=int(m["mult"]) if m["mult"] else 1,
        sbase=int(m["sbase"]),
        base=int(m["base"]) if m["base"] else None,
        precision=int(m["prec"]) if m["prec"] else None,
    )


def sequence_term(
    spec: SequenceSpec, n: int, precision: int | None = None
) -> PadicApprox:
    """Evaluate the family at schedule step n, reduced mod base**precision."""
    a = precision if precision is not None else spec.precision
    if a is None:
        raise ValueError("no precision given (neither argument nor spec)")
    b = spec.reduction_base
    m = spec.index(n)
    if spec.family == "power":
        value = power_term(spec.k, spec.p, m, a)
    elif spec.family == "fibonacci":
        value = fibonacci_mod(m, b**a)
    elif spec.family == "catalan":
        value = catalan_exact(m)
    elif spec.family == "motzkin":
        value = motzkin_exact(m)
    elif spec.family == "bell":
        value = bell_mod(m, b, a)
    else:
        value = odd_factorial_mod(m, a)
    return PadicApprox.from_residue(value, b, a)
