"""Seeded op lists for the three workloads.

An op is one call into a public entry point, described as plain data so
that op lists can be compared and replayed:

* ``Op("cli", argv)``: ``padiclab.cli.main(argv)``.  Figure ops name
  their output file relative to the run's work directory.
* ``Op("read", (path,))``: ``padiclab.grids.read_pnm`` of a file that
  the figure op just before it wrote.
* ``Op("ring", (base, precision, name, operand_seed, t))``: one
  ``PadicApprox`` ring op on the operands ``ring_operands`` makes from
  these (t is the shift amount).
* ``Op("log", (u, p, precision))``: ``padic_log``.
* ``Op("cascade", (k, p, count, a, budget))``: ``extract_coefficients``.

A workload is an endless sequence of rounds.  Every round holds the same
op classes in a seeded order, so any number of whole rounds has the same
mix.  Sizes come from continuous ranges: the i-th op of a class takes
quantile ``frac(offset + i * alpha)`` of its range (a Weyl sequence with
a seeded offset), so any prefix of the stream covers each range evenly
and two seeds give nearly the same cost distribution on different inputs.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import NamedTuple

WORKLOADS = ("figures", "limits", "arith")

# Plastic-number steps: the 2-D Weyl sequence with the most even
# coverage of [0, 1)^2 for every prefix length.
_PLASTIC = 1.324717957244746
_R2 = (1 / _PLASTIC, 1 / _PLASTIC**2)


class Op(NamedTuple):
    kind: str
    args: tuple


def _frac(x: float) -> float:
    return x - math.floor(x)


def _lin(u: float, lo: int, hi: int) -> int:
    """Map a quantile in [0, 1) onto the integers lo..hi."""
    return lo + min(int(u * (hi - lo + 1)), hi - lo)


class _Quantiles:
    """Per-class Weyl sequences over [0, 1)^2 with seeded offsets."""

    def __init__(self, rng: random.Random):
        self._rng = rng
        self._state: dict[str, list] = {}

    def draw(self, cls: str) -> tuple[float, float]:
        if cls not in self._state:
            self._state[cls] = [self._rng.random(), self._rng.random(), 0]
        o1, o2, i = self._state[cls]
        self._state[cls][2] = i + 1
        return _frac(o1 + i * _R2[0]), _frac(o2 + i * _R2[1])


# ---------------------------------------------------------------- figures

# Ranges per figure id: (option, low, high) for each size option.  Ids 3
# and 4 span 64-256 rows by 256-1200 columns around the pinned 256x600
# tower grid; the others stay near their presets.
_FIGURE_SIZES = {
    1: (("rows", 32, 128), ("width", 64, 256)),
    2: (("rows-before", 16, 64), ("width", 32, 128)),
    3: (("rows", 64, 256), ("width", 256, 1200)),
    4: (("rows", 64, 256), ("width", 256, 1200)),
    5: (("rows", 64, 256), ("width", 200, 600)),
    6: (("rows", 32, 128), ("frac-digits", 30, 120)),
    7: (("rows", 64, 128), ("width", 150, 300)),
}

# Figure 7 writes one panel per grids.TOWER_PANELS pair, named after it.
TOWER_PANELS = ((5, 2), (7, 2), (2, 3), (4, 3), (2, 5), (3, 5))


def figure_files(fig_id: int, out: str) -> list[str]:
    """Files a ``figure --out out`` call writes (the CLI's naming rule)."""
    if fig_id != 7:
        return [out]
    stem = out.rsplit(".", 1)[0]
    return [
        f"{stem}_k{k}_p{p}{'.pbm' if p == 2 else '.pgm'}" for k, p in TOWER_PANELS
    ]


def _figures_round(rng: random.Random, q: _Quantiles, index: int) -> list[list[Op]]:
    units = []
    for fig_id, sizes in _FIGURE_SIZES.items():
        u = q.draw(f"fig{fig_id}")
        argv = ["figure", "--id", str(fig_id)]
        for (opt, lo, hi), ui in zip(sizes, u):
            argv += [f"--{opt}", str(_lin(ui, lo, hi))]
        if fig_id == 2:
            argv += ["--rows-after", str(_lin(u[0], 4, 16))]
        # Reads follow their write at once, so later rounds reuse the names.
        out = f"f{fig_id}{'.pgm' if fig_id == 7 else '.pbm'}"
        argv += ["--out", out]
        if rng.random() < 0.5:
            argv.append("--json")
        unit = [Op("cli", tuple(argv))]
        unit += [Op("read", (path,)) for path in figure_files(fig_id, out)]
        units.append(unit)
    return units


# ----------------------------------------------------------------- limits

# The pinned specs of the sequence-limits acceptance check, plus
# factorial@2^n to carry that family to its cap, each with a budget range
# that reaches the top of the family's index range: bell@4^n to index
# 4**7; catalan, motzkin and factorial to their caps, past which the op
# ends "inconclusive".  The budgets in one range cost the same, so every
# round carries the same heavy ops.  bell@2*4^n runs twice a round, and
# it and bell@2^n stop short of index 2**15, whose term alone takes over
# four seconds.
PINNED_LIMITS = (
    ("catalan@2^n", 16, 17),
    ("motzkin@2^n", 14, 16),
    ("fibonacci@4^n", 16, 24),
    ("fibonacci@2*4^n", 16, 24),
    ("bell@4^n", 8, 9),
    ("bell@2*4^n", 7, 7),
    ("bell@2*4^n", 7, 7),
    ("fibonacci@2^n", 16, 24),
    ("bell@2^n", 14, 14),
    ("factorial@2^n", 21, 22),
)

# Families sampled on a continuous size scale: ops per round, the
# largest index and the power of the index that op cost grows with.  The
# index is drawn so that op cost, not index, is spread evenly, from about
# a millisecond to under half the cost of the lightest pinned bell op.
_SIZED_FAMILIES = {"catalan": (7, 1 << 14, 2), "motzkin": (6, 1 << 13, 2),
                   "factorial": (6, 1 << 18, 1), "bell": (7, 1 << 12, 2)}
_POWER_PAIRS = ((3, 2), (5, 2), (7, 2), (2, 3), (4, 3), (2, 5), (3, 5), (3, 7))


def _limit_op(spec: str, prec: int, budget: int) -> Op:
    return Op(
        "cli", ("limit", spec, "--prec", str(prec), "--budget", str(budget), "--json")
    )


def _schedule(top: int, sbase: int) -> tuple[int, int]:
    """(mult, budget) whose last index mult * sbase**(budget-1) is the
    largest one not above ``top`` with mult < 16."""
    best = (0, 1, 1)
    for mult in range(1, 16):
        k = 0
        while mult * sbase ** (k + 1) <= top:
            k += 1
        best = max(best, (mult * sbase**k, -mult, k + 1))
    return -best[1], best[2]


def _limits_round(rng: random.Random, q: _Quantiles, index: int) -> list[list[Op]]:
    # 40 ops a round: 7 of about a millisecond, 26 sized, 7 pinned heavy or
    # medium.  The median then falls in the middle of the sized ops and the
    # 90th percentile among the two bell@2*4^n ops, away from any gap.
    units = []
    for spec, lo, hi in PINNED_LIMITS:
        u, v = q.draw(spec)
        units.append([_limit_op(spec, _lin(v, 3, 16), _lin(u, lo, hi))])
    for family, (count, top, power) in _SIZED_FAMILIES.items():
        for _ in range(count):
            u, v = q.draw(family)
            sbase = 4 if family == "bell" and rng.random() < 0.5 else 2
            mult, budget = _schedule(max(256, int(top * u ** (1 / power))), sbase)
            spec = f"{family}@{mult}*{sbase}^n"
            if family in ("catalan", "motzkin"):
                spec += f"/{rng.choice((2, 3, 5))}^16"
            units.append([_limit_op(spec, _lin(v, 3, 16), budget)])
    for i in range(4):
        u, v = q.draw("power" if i % 2 else "fibonacci")
        schedule = f"{rng.randrange(1, 10)}*{rng.randrange(2, 6)}^n"
        if i % 2:
            k, p = rng.choice(_POWER_PAIRS)
            spec = f"power:{k},{p}@{schedule}"
        else:
            spec = f"fibonacci@{schedule}/{rng.choice((2, 3, 5))}^16"
        units.append([_limit_op(spec, _lin(v, 3, 16), _lin(u, 6, 30))])
    return units


# ------------------------------------------------------------------ arith

_DIGIT_BASES = (2, 3, 5, 7, 10)
_RING_OPS = ("add", "sub", "mul", "invert", "shift")
_LOG_BASES = (2, 3, 5)
CASCADE_PAIRS = TOWER_PANELS + ((3, 2),)


def _arith_round(rng: random.Random, q: _Quantiles, index: int) -> list[list[Op]]:
    units = []
    for base in _DIGIT_BASES:
        u, _ = q.draw(f"digits{base}")
        prec = _lin(u, 2000, 12000)
        num = rng.randrange(1, 10**30) * rng.choice((1, -1)) * base ** rng.randrange(3)
        den = rng.randrange(1, 10**20)
        while math.gcd(den, base) != 1:
            den += 1
        den *= base ** rng.randrange(3)
        argv = ["digits", "--base", str(base), "--prec", str(prec)]
        argv += ["--num", str(num), "--den", str(den)]
        if rng.random() < 0.5:
            argv.append("--json")
        units.append([Op("cli", tuple(argv))])
    for j, name in enumerate(_RING_OPS):
        u, _ = q.draw(f"ring-{name}")
        t = rng.randrange(-64, 65) if name == "shift" else 0
        base = _DIGIT_BASES[(index + j) % len(_DIGIT_BASES)]
        args = (base, _lin(u, 4000, 12000), name, rng.getrandbits(64), t)
        units.append([Op("ring", args)])
    for p in _LOG_BASES:
        u, _ = q.draw(f"log{p}")
        # Cost grows with the square of the precision; spread cost evenly.
        prec = math.isqrt(int(500**2 + u * (2500**2 - 500**2)))
        x = rng.randrange(1, 10**6)
        units.append([Op("log", (2 * x + 1 if p == 2 else 1 + p * x, p, prec))])
    for k, p in CASCADE_PAIRS:
        u, v = q.draw(f"cascade{k},{p}")
        a = rng.randrange(32, 65)
        units.append([Op("cascade", (k, p, _lin(v, 3, 6), a, _lin(u, 96, 256)))])
    return units


def ring_operands(base: int, prec: int, name: str, seed: int, t: int):
    """Random little-endian digit lists for a ring op: the first operand
    of ``invert`` is a unit and that of a right shift by -t ends in -t
    zeros, so that every op is defined."""
    rng = random.Random(seed)
    a = rng.choices(range(base), k=prec)
    b = rng.choices(range(base), k=prec)
    if name == "invert":
        a[0] = rng.choice([d for d in range(1, base) if math.gcd(d, base) == 1])
    if t < 0:
        a[:-t] = [0] * -t
    return a, b


_ROUNDS = {"figures": _figures_round, "limits": _limits_round, "arith": _arith_round}


def rounds(workload: str, seed: int):
    """Yield the workload's rounds forever, each a list of ops."""
    if workload not in _ROUNDS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    quantiles = _Quantiles(rng)
    for index in itertools.count():
        units = _ROUNDS[workload](rng, quantiles, index)
        rng.shuffle(units)
        yield [op for unit in units for op in unit]


def take_rounds(workload: str, seed: int, count: int) -> list[Op]:
    """The first ``count`` rounds as one flat op list."""
    stream = rounds(workload, seed)
    return [op for _ in range(count) for op in next(stream)]
