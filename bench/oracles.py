"""Output checks for every op, built on Python ints only.

None of these helpers goes through padiclab: digits are produced with
``bin`` or ``divmod`` and read back with ``int(text, base)``, towers with
``pow``, sequence terms with ``math.comb``, matrix powers, an odd-part
product, or a Bell table computed once by ``make_data.py``.  A check
returns None when the op's output is right and a one-line reason when it
is not.
"""

from __future__ import annotations

import json
import math
import os
import random
import re
import sys
from functools import lru_cache

from workloads import TOWER_PANELS, figure_files

# Residues at 12,000 digits exceed the default int/str conversion limit.
sys.set_int_max_str_digits(0)

# Bell numbers mod 2**16 at every index c * 2**k <= 2**14 with c < 16.
with open(os.path.join(os.path.dirname(__file__), "bell_table.json")) as _fh:
    _BELL = {int(m): v for m, v in json.load(_fh)["terms"].items()}

# The index caps of padiclab.sequences.DEFAULT_INDEX_CAPS, restated so
# that a changed cap shows up as a changed limit outcome.
INDEX_CAPS = {"catalan": 1 << 15, "motzkin": 1 << 13, "bell": 1 << 15, "factorial": 1 << 20}

# Exit codes of ``padiclab limit`` per outcome; 3 and 4 are answers.
LIMIT_EXITS = {"converged": 0, "not-converged": 3, "inconclusive": 4}

# Tower pairs whose cascade raises ExtractionError for every size the
# arith workload draws.  The error is the cascade declining to certify
# a coefficient, so it is counted (shear.cascade.failed) but not failed;
# any other pair raising it fails its op.
DECLINING_CASCADES = {(2, 3)}


def multiplicity(m: int, base: int) -> int:
    t = 0
    while m % base == 0:
        m //= base
        t += 1
    return t


def to_digits(value: int, base: int, width: int) -> list[int]:
    """Little-endian digits of value mod base**width."""
    if base == 2:
        bits = bin(value % (1 << width))[2:].zfill(width)
        return [int(b) for b in reversed(bits)]
    out = []
    value %= base**width
    for _ in range(width):
        value, d = divmod(value, base)
        out.append(d)
    return out


def _ilog(value: int, base: int) -> int:
    """floor(log_base(value)) for value >= 1."""
    k = 0
    while value >= base:
        value //= base
        k += 1
    return k


def from_digits(digits, base: int) -> int:
    """Integer whose little-endian base-``base`` digits are given (base <= 10)."""
    if not digits:
        return 0
    return int("".join(str(d) for d in reversed(digits)), base)


def _valid_digits(digits, base: int) -> bool:
    return all(isinstance(d, int) and 0 <= d < base for d in digits)


# ----------------------------------------------------------------- figures

def _option(argv, name: str, default: int) -> int:
    return int(argv[argv.index(name) + 1]) if name in argv else default


def _log_residue(u: int, p: int, precision: int) -> int:
    """log(u) mod p**precision by the Mercator series of a p**m-th power.

    w = u**(p**m) is 1 mod p**(m+1) (u**2 and p**(m+3) for p = 2, where
    log(u) = log(u**2) / 2), so -sum (1 - w)**i / i converges after about
    precision / m terms; log(u) = log(w) / p**m.  The terms share the
    denominator lcm(1..I), divided out once at the end.
    """
    m = math.isqrt(precision) + 1
    if p == 2:
        w, shift, vy = u * u, m + 1, m + 3
    else:
        w, shift, vy = u, m, m + 1
    target = precision + shift  # digits of log(w) needed
    # v((1 - w)**i / i) >= i * vy - log_p(i), increasing in i.
    terms = 1
    while (terms + 1) * vy - _ilog(terms + 1, p) < target:
        terms += 1
    lcm = math.lcm(*range(1, terms + 1))
    e = multiplicity(lcm, p)
    modulus = p ** (target + e)
    w = pow(w, p**m, modulus)
    y = (1 - w) % modulus
    total, power = 0, 1
    for i in range(1, terms + 1):
        power = power * y % modulus
        total += power * (lcm // i)
    total = total % modulus // p**e
    log_w = -total * pow(lcm // p**e, -1, p**target) % p**target
    return log_w // p**shift


def _figure_rows(fig_id: int, argv):
    """(base, height, width, row_value) for a figure op, where
    row_value(i) is the little-endian integer of grid row i, or for
    figure 6 the most-significant-first bit string."""
    rows = _option(argv, "--rows", 0)
    width = _option(argv, "--width", 0)
    if fig_id == 1:
        return 2, rows, width, lambda i: pow(3, i, 1 << width)
    if fig_id == 2:
        before = _option(argv, "--rows-before", 0)
        after = _option(argv, "--rows-after", 0)
        return 2, before + after, width, lambda i: pow(3, i - before, 1 << width)
    if fig_id == 3:
        return 2, rows, width, lambda i: pow(3, 1 << i, 1 << width)

    if fig_id == 4:
        def sheared(i):
            v = pow(3, 1 << i, 1 << width)
            return (v & ~1 if i == 0 else v) >> i
        return 2, rows, width, sheared
    if fig_id == 5:
        log3 = _log_residue(3, 2, width + rows)

        def folded(i):
            v = pow(3, 1 << i, 1 << (width + 2 * i))
            v = ((v - 1) >> i) - log3
            return (v % (1 << (width + i))) >> i
        return 2, rows, width, folded
    if fig_id == 6:
        frac = _option(argv, "--frac-digits", 62)

        def real(i):
            n = i + 1
            return bin((n + 1) ** n * (1 << frac) // n**n)[2:].zfill(2 + frac)
        return 2, rows, 2 + frac, real
    raise ValueError(f"no single-grid oracle for figure {fig_id}")


def _pnm_lines(data: bytes, base: int, width: int, height: int):
    """Row lines of plain PNM bytes, or a reason the header is wrong."""
    lines = data.decode("ascii").split("\n")
    head = ["P1" if base == 2 else "P2", f"{width} {height}"]
    if base != 2:
        head.append(str(base - 1))
    if lines[: len(head)] != head:
        return f"header {lines[: len(head)]} != {head}"
    rows = lines[len(head):]
    if len(rows) != height + 1 or rows[-1] != "":
        return f"expected {height} rows and a final newline"
    return rows[:-1]


def check_figure(argv, stdout: str, workdir: str, rng: random.Random) -> str | None:
    fig_id = int(argv[argv.index("--id") + 1])
    out = argv[argv.index("--out") + 1]
    paths = figure_files(fig_id, out)
    if "--json" in argv:
        listed = [f["path"] for f in json.loads(stdout)["files"]]
    else:
        listed = stdout.splitlines()
    if listed != paths:
        return f"figure {fig_id} listed {listed}, expected {paths}"
    if fig_id == 7:
        rows = _option(argv, "--rows", 128)
        width = _option(argv, "--width", 300)
        panels = [
            (path, p, rows, width, lambda i, k=k, p=p: pow(k, p**i, p**width))
            for path, (k, p) in zip(paths, TOWER_PANELS)
        ]
    else:
        base, rows, width, row_value = _figure_rows(fig_id, argv)
        panels = [(paths[0], base, rows, width, row_value)]
    for path, base, height, width, row_value in panels:
        with open(os.path.join(workdir, path), "rb") as fh:
            lines = _pnm_lines(fh.read(), base, width, height)
        if isinstance(lines, str):
            return f"{path}: {lines}"
        sample = {0, 1, height - 1} | set(rng.sample(range(height), min(5, height)))
        for i in sorted(sample):
            value = row_value(i)
            if isinstance(value, str):
                expected = " ".join(value)
            else:
                expected = " ".join(map(str, to_digits(value, base, width)))
            if lines[i] != expected:
                return f"{path}: row {i} differs from the oracle"
    return None


def check_read(path: str, grid) -> str | None:
    """Compare a parsed grid with an independent parse of the file."""
    with open(path, "rb") as fh:
        magic = fh.readline().strip()
        width, height = map(int, fh.readline().split())
        base = 2 if magic == b"P1" else int(fh.readline()) + 1
        if (grid.base, grid.width, grid.height) != (base, width, height):
            return f"read {(grid.base, grid.width, grid.height)}, file has {(base, width, height)}"
        for i, line in enumerate(fh):
            if tuple(map(int, line.split())) != grid.rows[i]:
                return f"row {i} differs from the file"
    return None


# ----------------------------------------------------------------- limits

_SPEC = re.compile(
    r"^(?P<family>[a-z]+)(?::(?P<k>\d+),(?P<p>\d+))?"
    r"@(?:(?P<mult>\d+)\*)?(?P<sbase>\d+)\^n(?:/(?P<base>\d+)\^\d+)?$"
)


@lru_cache(maxsize=None)
def _catalan(m: int) -> int:
    return math.comb(2 * m, m) // (m + 1)


@lru_cache(maxsize=None)
def _motzkin(m: int) -> int:
    """sum_k C(m, 2k) * Catalan(k)."""
    total, binom, cat = 0, 1, 1
    for k in range(m // 2 + 1):
        total += binom * cat
        binom = binom * (m - 2 * k) * (m - 2 * k - 1) // ((2 * k + 1) * (2 * k + 2))
        cat = cat * 2 * (2 * k + 1) // (k + 2)
    return total


@lru_cache(maxsize=None)
def _odd_factorials() -> dict[int, int]:
    """Odd part of m! mod 2**16 at every index c * 2**k <= 2**20, c < 16,
    as the running product of the odd parts of 1..m."""
    top = INDEX_CAPS["factorial"]
    wanted = {c << k for c in range(1, 16) for k in range(21) if c << k <= top}
    out, acc, mask = {}, 1, (1 << 16) - 1
    for j in range(1, top + 1):
        acc = acc * (j >> ((j & -j).bit_length() - 1)) & mask
        if j in wanted:
            out[j] = acc
    return out


def _fibonacci(m: int, modulus: int) -> int:
    """F_m, the top-right entry of [[1, 1], [1, 0]]**m."""

    def times(x, y):
        return (
            (x[0] * y[0] + x[1] * y[2]) % modulus,
            (x[0] * y[1] + x[1] * y[3]) % modulus,
            (x[2] * y[0] + x[3] * y[2]) % modulus,
            (x[2] * y[1] + x[3] * y[3]) % modulus,
        )

    power, step = (1, 0, 0, 1), (1, 1, 1, 0)
    while m:
        if m & 1:
            power = times(power, step)
        step = times(step, step)
        m >>= 1
    return power[1]


def sequence_residue(family: str, k, p, m: int, base: int, prec: int) -> int:
    modulus = base**prec
    if family == "power":
        return pow(k, m, modulus)
    if family == "fibonacci":
        return _fibonacci(m, modulus)
    if family == "catalan":
        return _catalan(m) % modulus
    if family == "motzkin":
        return _motzkin(m) % modulus
    if family == "bell":
        return _BELL[m] % modulus
    return _odd_factorials()[m] % modulus


def expected_limit(spec: str, prec: int, budget: int) -> dict:
    """The ``limit --json`` record that the detection rule must produce:
    a limit is certified when the last three or more terms agree on all
    ``prec`` digits; an index past the family cap ends the scan."""
    f = _SPEC.match(spec)
    family = f["family"]
    k = int(f["k"]) if f["k"] else None
    p = int(f["p"]) if f["p"] else None
    mult = int(f["mult"] or 1)
    sbase = int(f["sbase"])
    base = p if family == "power" else int(f["base"] or 2)
    cap = INDEX_CAPS.get(family)
    residues, exhausted = [], False
    for n in range(budget):
        m = mult * sbase**n
        if cap is not None and m > cap:
            exhausted = True
            break
        residues.append(sequence_residue(family, k, p, m, base, prec))
    depths = []
    for x, y in zip(residues, residues[1:]):
        diff = (y - x) % base**prec
        depths.append(prec if diff == 0 else min(multiplicity(diff, base), prec))
    record = {
        "outcome": "inconclusive" if exhausted else "not-converged",
        "converged": False,
        "limit": None,
        "agreement_depth": depths,
        "terms_used": len(residues),
        "stable_from": None,
    }
    start = len(depths)
    while start >= 1 and depths[start - 1] == prec:
        start -= 1
    if not exhausted and len(residues) - start >= 3:
        digits = to_digits(residues[start], base, prec)
        nonzero = [i for i, d in enumerate(digits) if d]
        record.update(
            outcome="converged",
            converged=True,
            stable_from=start,
            limit={
                "base": base,
                "precision": prec,
                "valuation": nonzero[0] if nonzero else None,
                "digits": digits,
            },
        )
    return record


def check_limit(argv, code: int, stdout: str) -> str | None:
    expected = expected_limit(
        argv[1], int(argv[argv.index("--prec") + 1]), int(argv[argv.index("--budget") + 1])
    )
    if code != LIMIT_EXITS[expected["outcome"]]:
        return f"exit code {code} for outcome {expected['outcome']}"
    got = json.loads(stdout)
    if got != expected:
        return f"limit record differs from the oracle: {stdout[:120]!r}"
    return None


# ------------------------------------------------------------------ arith

def check_digits(argv, stdout: str) -> str | None:
    """unit * den = num * base**-v (mod base**prec), digits rebuild it."""
    base = int(argv[argv.index("--base") + 1])
    prec = int(argv[argv.index("--prec") + 1])
    num = int(argv[argv.index("--num") + 1])
    den = int(argv[argv.index("--den") + 1])
    if "--json" in argv:
        record = json.loads(stdout)
        valuation, digits = record["valuation"], record["digits"]
        if (record["base"], record["precision"]) != (base, prec):
            return "base or precision differs"
    else:
        head, text = stdout.split()
        valuation, digits = int(head[2:]), [int(c) for c in text]
    if len(digits) != prec or not _valid_digits(digits, base) or digits[0] == 0:
        return "unit digits malformed"
    tn, td = multiplicity(num, base), multiplicity(den, base)
    if valuation != tn - td:
        return f"valuation {valuation}, expected {tn - td}"
    unit = from_digits(digits, base)
    modulus = base**prec
    if (unit * (den // base**td) - num // base**tn) % modulus:
        return "unit * den != num * base**-v"
    return None


def expected_ring(base: int, name: str, x: int, y: int, t: int, prec: int):
    """(precision, residue) of a PadicApprox ring op on two operands of
    ``prec`` digits, by int arithmetic."""
    modulus = base**prec
    if name in ("add", "sub", "mul"):
        return prec, {"add": x + y, "sub": x - y, "mul": x * y}[name] % modulus
    if name == "invert":
        return prec, pow(x, -1, modulus)
    if t >= 0:
        return prec, x * base**t % modulus
    return prec + t, x // base**-t


def check_approx(result, base: int, prec: int, residue: int) -> str | None:
    if result.base != base or len(result.digits) != prec:
        return f"precision {len(result.digits)}, expected {prec}"
    if not _valid_digits(result.digits, base) or from_digits(result.digits, base) != residue:
        return "residue differs from the int oracle"
    return None


def check_log(scalar, u: int, p: int, prec: int) -> str | None:
    expected = _log_residue(u, p, prec)
    unit = scalar.unit
    if unit.base != p or not _valid_digits(unit.digits, p):
        return "malformed unit"
    if scalar.valuation is None:
        value, known = 0, len(unit.digits)
    else:
        value = p**scalar.valuation * from_digits(unit.digits, p)
        known = scalar.valuation + len(unit.digits)
    if known != prec:
        return f"log known to {known} digits, expected {prec}"
    if value % p**prec != expected:
        return "log differs from the limit (u**(p**N) - 1) / p**N"
    return None


def check_cascade(coeffs, k: int, p: int, count: int, a: int) -> str | None:
    """Residual test: k**(p**n) - sum_j c_j p**(j*n) must vanish mod
    p**min(count*n, min_j(prec_j + j*n)) for every row n >= 1."""
    if len(coeffs) != count:
        return f"{len(coeffs)} coefficients, expected {count}"
    precs = [len(c.digits) for c in coeffs]
    if any(c.base != p or not 1 <= len(c.digits) <= a or not _valid_digits(c.digits, p)
           for c in coeffs):
        return "malformed coefficient"
    values = [from_digits(c.digits, p) for c in coeffs]
    for n in range(1, 2 * a):
        bound = min(count * n, *(pr + j * n for j, pr in enumerate(precs)))
        modulus = p**bound
        total = sum(v * p ** (j * n) for j, v in enumerate(values))
        if (pow(k, p**n, modulus) - total) % modulus:
            return f"residual at n={n} is not divisible by {p}**{bound}"
    return None
