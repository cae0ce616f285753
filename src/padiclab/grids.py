"""Digit-grid construction and deterministic portable-anymap emission.

Grids hold one digit expansion per row, lowest-order digit in column 0.
Base-2 grids serialize as plain-text PBM (P1), larger bases as
plain-text PGM (P2) with maxval = base - 1 and pixel = digit value.
Cells a shear moved out of range hold a sentinel and render as
background.  Emission is byte-for-byte deterministic, so images diff
cleanly in tests, and atomic: an image file is written under a
temporary name and renamed over its target, so a failed write leaves
no partial file.  Reading accepts plain PBM/PGM as netpbm defines it,
including ``#`` comments in the header and P1 pixels without
separators.

Rows of bases up to 10 render and parse as bytes: every pixel is one
character, so a whole row or image goes through ``bytes.translate``.
"""

from __future__ import annotations

import math
import os
import re
import struct
from dataclasses import dataclass

from .analysis import padic_log
from .core import _FROM_CHARS, _TO_CHARS, PadicApprox, _digits_of
from .shear import SENTINEL, _subtract_shear, _tower_rows, shear_rows

__all__ = [
    "DigitGrid",
    "FIGURE_DEFAULTS",
    "TOWER_PANELS",
    "emit_image",
    "figure_grid",
    "grid_history",
    "grid_power_tower",
    "grid_powers",
    "grid_real_rows",
    "read_pnm",
    "real_binary_expansion",
    "render_pnm",
]


@dataclass(frozen=True)
class DigitGrid:
    """Equal-length digit rows plus display conventions.

    origin_col marks the column holding the base**0 digit (nonzero only
    for most-significant-first layouts such as real binary expansions).
    """

    base: int
    rows: tuple[tuple[int, ...], ...]
    origin_col: int = 0

    def __post_init__(self) -> None:
        if self.base < 2:
            raise ValueError(f"base must be at least 2, got {self.base}")
        rows = tuple(tuple(r) for r in self.rows)
        object.__setattr__(self, "rows", rows)
        if not rows or not rows[0]:
            raise ValueError("a grid needs at least one nonempty row")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("all rows must have equal length")
        # Valid cells are SENTINEL (-1) and 0..base-1, one contiguous
        # range, so the distinct cell values need only a min and a max.
        cells = set().union(*rows)
        if min(cells) < SENTINEL or max(cells) >= self.base:
            bad = next(
                d for r in rows for d in r
                if d != SENTINEL and not 0 <= d < self.base
            )
            raise ValueError(f"digit {bad} out of range for base {self.base}")
        if not 0 <= self.origin_col < width:
            raise ValueError("origin column outside the grid")

    @property
    def width(self) -> int:
        return len(self.rows[0])

    @property
    def height(self) -> int:
        return len(self.rows)

    def to_record(self) -> dict:
        return {
            "base": self.base,
            "width": self.width,
            "height": self.height,
            "origin_col": self.origin_col,
            "rows": [list(r) for r in self.rows],
        }


def grid_powers(k: int, base: int, rows: int, width: int) -> DigitGrid:
    """Row n holds the digits of k**n, truncated or padded to width."""
    if rows < 1 or width < 1:
        raise ValueError("rows and width must be at least 1")
    modulus = base**width
    out = []
    r = 1 % modulus
    for _ in range(rows):
        out.append(_digits_of(r, base, width))
        r = r * k % modulus
    return DigitGrid(base, tuple(out))


def grid_history(
    k: int, base: int, rows_before: int, rows_after: int, width: int
) -> DigitGrid:
    """Rows n in [-rows_before, rows_after): negative rows extend the
    powers of k backward through the inverse of k mod base**width."""
    if width < 1:
        raise ValueError("width must be at least 1")
    if rows_before < 0 or rows_after < 0 or rows_before + rows_after < 1:
        raise ValueError("need at least one row")
    if math.gcd(k, base) != 1:
        raise ValueError(f"{k} is not invertible modulo {base}")
    modulus = base**width
    out = [
        _digits_of(pow(k, n, modulus), base, width)
        for n in range(-rows_before, rows_after)
    ]
    return DigitGrid(base, tuple(out))


def grid_power_tower(
    k: int,
    p: int,
    rows: int,
    width: int,
    transform: str = "none",
    coeffs: list[PadicApprox] | None = None,
) -> DigitGrid:
    """Row n holds k**(p**n) mod p**width, optionally post-processed.

    transform "shear" blanks column 0 and shifts row n left by n.
    transform "subtract-shear" runs the coefficient cascade's shear
    step, row n -> (row n - c)/p**n, once per coefficient c of the
    given list, in order, and raises ArithmeticError if a division is
    not exact.  Each coefficient j must carry at least
    width + (rows-1)*(len(coeffs)-j) digits so that the displayed
    window stays exact after all the shears.
    """
    if rows < 1 or width < 1:
        raise ValueError("rows and width must be at least 1")
    if transform == "none":
        residues = _tower_rows(k, p, rows, p**width)
        return DigitGrid(p, tuple(_digits_of(r, p, width) for r in residues))
    if transform == "shear":
        residues = _tower_rows(k, p, rows, p**width)
        blanked = [(0,) + _digits_of(r, p, width)[1:] for r in residues]
        return DigitGrid(p, tuple(shear_rows(blanked, 1)))
    if transform != "subtract-shear":
        raise ValueError(f"unknown transform {transform!r}")
    if not coeffs:
        raise ValueError("subtract-shear needs a coefficient list")
    stages = len(coeffs)
    for j, c in enumerate(coeffs):
        if c.base != p:
            raise ValueError("coefficient base mismatch")
        needed = width + (rows - 1) * (stages - j)
        if c.precision < needed:
            raise ValueError(
                f"coefficient {j} carries {c.precision} digits; "
                f"{needed} are needed to keep the display exact"
            )
    residues = _tower_rows(k, p, rows, p ** (width + stages * (rows - 1)))
    precs = [width + stages * n for n in range(rows)]
    for c in coeffs:
        residues, precs = _subtract_shear(residues, precs, c.residue(), p)
    return DigitGrid(p, tuple(_digits_of(r, p, width) for r in residues))


def real_binary_expansion(
    num: int, den: int, int_digits: int, frac_digits: int
) -> tuple[int, ...]:
    """Binary expansion of num/den, most significant bit first,
    truncated (never rounded) to int_digits + frac_digits positions."""
    if den < 1:
        raise ValueError(f"denominator must be positive, got {den}")
    if num < 0:
        raise ValueError(f"numerator must be nonnegative, got {num}")
    if int_digits < 0 or frac_digits < 0 or int_digits + frac_digits < 1:
        raise ValueError("need at least one digit position")
    whole = num // den
    if whole >= 1 << int_digits:
        raise ValueError(
            f"integer part {whole} does not fit in {int_digits} digits"
        )
    value = (num << frac_digits) // den
    return _digits_of(value, 2, int_digits + frac_digits)[::-1]


def grid_real_rows(rows: int, int_digits: int, frac_digits: int) -> DigitGrid:
    """Row n-1 holds the real binary expansion of (1 + 1/n)**n."""
    if rows < 1:
        raise ValueError("rows must be at least 1")
    grid_rows = tuple(
        real_binary_expansion((n + 1) ** n, n**n, int_digits, frac_digits)
        for n in range(1, rows + 1)
    )
    return DigitGrid(2, grid_rows, origin_col=max(int_digits - 1, 0))


def render_pnm(grid: DigitGrid) -> bytes:
    """Plain-text P1 (base 2) or P2 (base > 2) bytes for a grid.

    Sentinel cells emit 0 in P1 and maxval in P2: background either way.
    """
    maxval = grid.base - 1
    if grid.base == 2:
        header, background = f"P1\n{grid.width} {grid.height}\n", 0
    else:
        header = f"P2\n{grid.width} {grid.height}\n{maxval}\n"
        background = maxval
    out = bytearray(header.encode("ascii"))
    if grid.base > 10:
        for row in grid.rows:
            out += " ".join(
                str(background if d == SENTINEL else d) for d in row
            ).encode("ascii")
            out += b"\n"
        return bytes(out)
    # One character per pixel: a row packs into signed bytes, where the
    # sentinel becomes 0xFF, and one translate turns those into digit
    # characters, written at the even offsets of a reused line with
    # spaces between them and a newline at the end.
    pack = struct.Struct(f"{grid.width}b").pack
    chars = bytearray(_TO_CHARS)
    chars[SENTINEL & 0xFF] = chars[background]
    line = bytearray(b" " * (2 * grid.width))
    line[-1:] = b"\n"
    for row in grid.rows:
        line[::2] = pack(*row).translate(chars)
        out += line
    return bytes(out)


def emit_image(grid: DigitGrid, path: str) -> None:
    """Write the grid in one shot; partial files are never left behind.

    The bytes go to a new file beside the target, which then replaces
    the target in one rename; on any error the new file is removed.
    """
    data = render_pnm(grid)
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.urandom(6).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


# A header token, with whitespace and comments before it and a comment
# or one whitespace byte after it, where the raster starts if it is the
# last token.  A comment runs from "#" through its line end, so input
# splits into these parts only one way and a failed match backtracks in
# linear time.
_HEADER_TOKEN = re.compile(
    rb"(?:\s|#[^\r\n]*[\r\n])*([^\s#]+)(?:\s|#[^\r\n]*[\r\n])"
)
_WHITESPACE = b" \t\n\r\x0b\x0c"
_DECIMAL = b"0123456789"
# Maps every decimal digit to "0": two digits in a row become b"00".
_DIGITS_AS_ZERO = bytes.maketrans(_DECIMAL, b"0" * 10)


def _header(data: bytes) -> tuple[bytes, list[int], bytes]:
    """(magic, [width, height] or [width, height, maxval], raster)."""
    if not data.strip(_WHITESPACE):
        raise ValueError("empty image data")
    match = _HEADER_TOKEN.match(data)
    if match is None:
        raise ValueError("malformed image header or payload")
    magic = match.group(1)
    if magic not in (b"P1", b"P2"):
        raise ValueError(f"unsupported format {magic.decode('latin-1')!r}")
    fields = []
    for _ in range(2 if magic == b"P1" else 3):
        match = _HEADER_TOKEN.match(data, match.end())
        if match is None or match.group(1).strip(_DECIMAL):
            raise ValueError("malformed image header or payload")
        fields.append(int(match.group(1)))
    return magic, fields, data[match.end() :]


def read_pnm(data: bytes) -> DigitGrid:
    """Parse plain P1/P2 bytes back into a grid.

    Sentinels and the origin column are display conventions that the
    formats cannot carry, so they do not survive a round trip.
    """
    magic, fields, raster = _header(data)
    width, height = fields[:2]
    base = 2 if magic == b"P1" else fields[2] + 1
    if raster.translate(None, _DECIMAL + _WHITESPACE):
        raise ValueError("malformed image header or payload")
    if base <= 10:
        # One digit per pixel.  P1 pixels need no separators; P2 pixels
        # do, so two digits in a row are one pixel of several digits.
        if magic == b"P2" and b"00" in raster.translate(_DIGITS_AS_ZERO):
            raise ValueError(f"pixel of several digits for maxval {base - 1}")
        values = raster.translate(_FROM_CHARS, _WHITESPACE)
    else:
        values = [int(t) for t in raster.split()]
    if len(values) != width * height:
        raise ValueError(
            f"expected {width * height} pixels, found {len(values)}"
        )
    rows = tuple(
        tuple(values[r * width : (r + 1) * width]) for r in range(height)
    )
    return DigitGrid(base, rows)


# Built-in figure presets.  Only the 256x600 tower grid has pinned
# dimensions; everything else is a configurable default.
TOWER_PANELS = ((5, 2), (7, 2), (2, 3), (4, 3), (2, 5), (3, 5))

FIGURE_DEFAULTS: dict[int, dict] = {
    1: {"rows": 64, "width": 102},
    2: {"rows_before": 32, "rows_after": 8, "width": 64},
    3: {"rows": 256, "width": 600},
    4: {"rows": 256, "width": 600},
    5: {"rows": 256, "width": 600},
    6: {"rows": 64, "int_digits": 2, "frac_digits": 62},
    7: {"rows": 128, "width": 300},
}


def figure_grid(fig_id: int, **overrides):
    """Build a preset grid by id (1-7).

    Ids 1-6 return a DigitGrid; id 7 returns a list of (name, DigitGrid)
    panels, one power tower per (k, p) pair.
    """
    if fig_id not in FIGURE_DEFAULTS:
        raise ValueError(f"figure id must be 1..7, got {fig_id}")
    opts = dict(FIGURE_DEFAULTS[fig_id])
    for key, value in overrides.items():
        if value is None:
            continue
        if key not in opts:
            raise ValueError(f"figure {fig_id} takes no option {key!r}")
        opts[key] = value
    if fig_id == 1:
        return grid_powers(3, 2, opts["rows"], opts["width"])
    if fig_id == 2:
        return grid_history(
            3, 2, opts["rows_before"], opts["rows_after"], opts["width"]
        )
    if fig_id == 3:
        return grid_power_tower(3, 2, opts["rows"], opts["width"])
    if fig_id == 4:
        return grid_power_tower(3, 2, opts["rows"], opts["width"], "shear")
    if fig_id == 5:
        rows, width = opts["rows"], opts["width"]
        c0 = PadicApprox.from_residue(1, 2, width + 2 * max(rows - 1, 1))
        log_prec = width + max(rows - 1, 1) + 8
        c1 = padic_log(3, 2, log_prec).to_approx(width + max(rows - 1, 1))
        return grid_power_tower(3, 2, rows, width, "subtract-shear", [c0, c1])
    if fig_id == 6:
        return grid_real_rows(
            opts["rows"], opts["int_digits"], opts["frac_digits"]
        )
    return [
        (
            f"k{k}_p{p}",
            grid_power_tower(k, p, opts["rows"], opts["width"]),
        )
        for k, p in TOWER_PANELS
    ]
