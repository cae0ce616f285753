"""Grid construction, image emission, and the display invariants."""

import math
import os

import pytest
from hypothesis import given
from hypothesis import strategies as st

from padiclab import (
    DigitGrid,
    SENTINEL,
    emit_image,
    figure_grid,
    grid_history,
    grid_power_tower,
    grid_powers,
    grid_real_rows,
    multiplicative_order,
    padic_log,
    read_pnm,
    real_binary_expansion,
    render_pnm,
    shear_rows,
)
from padiclab import grids

# 10.10110111111000010101, most significant bit first
E_PREFIX = (1, 0, 1, 0, 1, 1, 0, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 1, 0, 1, 0, 1)


class TestGridPowers:
    def test_row_4_is_81(self):
        grid = grid_powers(3, 2, 5, 7)
        assert grid.rows[4] == (1, 0, 0, 0, 1, 0, 1)

    def test_row_0_is_one(self):
        assert grid_powers(3, 2, 1, 4).rows[0] == (1, 0, 0, 0)

    def test_base_3(self):
        assert grid_powers(2, 3, 3, 4).rows[2] == (1, 1, 0, 0)

    def test_column_periodicity(self):
        grid = grid_powers(3, 2, 64, 10)
        for j in range(10):
            column = [row[j] for row in grid.rows]
            period = multiplicative_order(3, 2, j + 1)
            if period >= len(column):
                continue
            for n in range(len(column) - period):
                assert column[n] == column[n + period]

    def test_right_boundary_slope(self):
        grid = grid_powers(3, 2, 40, 64)
        xs, ys = [], []
        for n, row in enumerate(grid.rows):
            rightmost = max(i for i, d in enumerate(row) if d)
            xs.append(n)
            ys.append(rightmost)
        n = len(xs)
        slope = (n * sum(x * y for x, y in zip(xs, ys)) - sum(xs) * sum(ys)) / (
            n * sum(x * x for x in xs) - sum(xs) ** 2
        )
        assert abs(slope - math.log2(3)) < 0.05


class TestGridHistory:
    def test_row_minus_one(self):
        grid = grid_history(3, 2, 1, 1, 10)
        assert grid.rows[0] == (1, 1, 0, 1, 0, 1, 0, 1, 0, 1)
        assert grid.rows[1] == (1,) + (0,) * 9

    def test_row_minus_two(self):
        grid = grid_history(3, 2, 2, 0, 12)
        assert grid.rows[0] == (1, 0, 0, 1, 1, 1, 0, 0, 0, 1, 1, 1)

    def test_forward_only(self):
        assert grid_history(3, 2, 0, 1, 4).rows[0] == (1, 0, 0, 0)

    def test_history_extends_periodic_columns(self):
        # each column of the history is the same periodic sequence that
        # the forward rows follow, continued upward
        before, after, width = 8, 8, 6
        grid = grid_history(3, 2, before, after, width)
        for j in range(width):
            period = multiplicative_order(3, 2, j + 1)
            column = [row[j] for row in grid.rows]
            for n in range(len(column) - period):
                assert column[n] == column[n + period]

    def test_non_invertible_rejected(self):
        with pytest.raises(ValueError):
            grid_history(2, 2, 1, 1, 8)


class TestGridPowerTower:
    def test_row_4_bit_positions(self):
        grid = grid_power_tower(3, 2, 5, 26)
        assert {i for i, d in enumerate(grid.rows[4]) if d} == {
            0, 6, 8, 9, 10, 12, 14, 15, 20, 23, 25,
        }

    def test_single_row(self):
        assert grid_power_tower(3, 2, 1, 4).rows[0] == (1, 1, 0, 0)

    def test_column_stabilization(self):
        # row n is 1 mod 2**(n+2) for n >= 1, so column j empties out
        # from row j-1 on (row 0 is only 1 mod 2)
        grid = grid_power_tower(3, 2, 64, 64)
        for j in range(1, 64):
            for n in range(max(j - 1, 1), 64):
                assert grid.rows[n][j] == 0

    def test_shear_transform_matches_manual_pipeline(self):
        plain = grid_power_tower(3, 2, 32, 64)
        sheared = grid_power_tower(3, 2, 32, 64, "shear")
        blanked = [(0,) + row[1:] for row in plain.rows]
        assert sheared.rows == tuple(shear_rows(blanked, 1))

    def test_subtract_shear_is_exact(self):
        rows, width = 12, 32
        stages = 2
        c0_prec = width + stages * (rows - 1)
        c1_prec = width + (rows - 1)
        from padiclab import padic_from_integer

        c0 = padic_from_integer(1, 2, c0_prec)
        c1 = padic_log(3, 2, c1_prec + 6).to_approx(c1_prec)
        grid = grid_power_tower(3, 2, rows, width, "subtract-shear", [c0, c1])
        # oracle: independent fold at ample precision per row
        log3 = padic_log(3, 2, width + 3 * rows).to_approx(c1_prec).residue()
        for n in range(rows):
            big = 1 << (width + 2 * n + 2)
            v = pow(3, 1 << n, big * (1 << (2 * n)))
            v = (v - 1) >> n
            v = (v - log3) % big
            assert v % (1 << n) == 0
            v >>= n
            expected = tuple((v >> i) & 1 for i in range(width))
            assert grid.rows[n] == expected

    def test_subtract_shear_rejects_a_wrong_coefficient(self):
        rows, width = 12, 32
        c0_prec = width + 2 * (rows - 1)
        c1_prec = width + (rows - 1)
        from padiclab import padic_from_integer

        c0 = padic_from_integer(1, 2, c0_prec)
        c1 = padic_log(3, 2, c1_prec + 6).to_approx(c1_prec)
        wrong = c1 + padic_from_integer(1, 2, c1_prec)
        with pytest.raises(ArithmeticError):
            grid_power_tower(3, 2, rows, width, "subtract-shear", [c0, wrong])

    def test_underprecise_coefficients_rejected(self):
        from padiclab import padic_from_integer

        c0 = padic_from_integer(1, 2, 8)
        with pytest.raises(ValueError):
            grid_power_tower(3, 2, 8, 32, "subtract-shear", [c0])

    def test_unknown_transform(self):
        with pytest.raises(ValueError):
            grid_power_tower(3, 2, 4, 8, "rotate")


class TestRealBinary:
    def test_two(self):
        assert real_binary_expansion(2, 1, 2, 4) == (1, 0, 0, 0, 0, 0)

    def test_nine_fourths(self):
        assert real_binary_expansion(9, 4, 2, 4) == (1, 0, 0, 1, 0, 0)

    def test_truncates_not_rounds(self):
        # 0.11 in binary is 0.00011100..., truncation keeps 0001
        assert real_binary_expansion(11, 100, 1, 4) == (0, 0, 0, 0, 1)

    def test_integer_overflow_rejected(self):
        with pytest.raises(ValueError):
            real_binary_expansion(9, 2, 2, 4)

    def test_rows_converge_to_e(self):
        def agreement(n):
            row = real_binary_expansion((n + 1) ** n, n**n, 2, 20)
            k = 0
            for a, b in zip(row, E_PREFIX):
                if a != b:
                    break
                k += 1
            return k

        depths = [agreement(n) for n in (16, 64, 256, 1024, 4096)]
        assert depths == sorted(depths)
        assert depths[-1] >= 12

    @given(
        st.integers(0, 6),
        st.integers(0, 120),
        st.integers(1, 10**30),
        st.data(),
    )
    def test_matches_long_division(self, int_digits, frac_digits, den, data):
        if int_digits + frac_digits < 1:
            frac_digits = 1
        num = data.draw(st.integers(0, (den << int_digits) - 1))

        # oracle: the integer part bit by bit, then schoolbook long
        # division for the fraction
        whole, rest = divmod(num, den)
        head = [(whole >> i) & 1 for i in range(int_digits - 1, -1, -1)]
        tail = []
        for _ in range(frac_digits):
            rest *= 2
            bit, rest = divmod(rest, den)
            tail.append(bit)
        assert real_binary_expansion(num, den, int_digits, frac_digits) == tuple(
            head + tail
        )

    def test_grid_real_rows(self):
        grid = grid_real_rows(2, 2, 4)
        assert grid.rows[0] == (1, 0, 0, 0, 0, 0)
        assert grid.rows[1] == (1, 0, 0, 1, 0, 0)
        assert grid.origin_col == 1


class TestEmission:
    def test_smallest_bitmap(self):
        assert render_pnm(DigitGrid(2, ((1,),))) == b"P1\n1 1\n1\n"

    def test_p1_layout(self):
        grid = DigitGrid(2, ((1, 0), (0, 1)))
        assert render_pnm(grid) == b"P1\n2 2\n1 0\n0 1\n"

    def test_p2_layout(self):
        grid = DigitGrid(3, ((0, 1, 2),))
        assert render_pnm(grid) == b"P2\n3 1\n2\n0 1 2\n"

    def test_sentinels_render_as_background(self):
        grid = DigitGrid(2, ((1, SENTINEL),))
        assert render_pnm(grid) == b"P1\n2 1\n1 0\n"
        grid = DigitGrid(5, ((1, SENTINEL),))
        assert render_pnm(grid).endswith(b"\n1 4\n")

    def test_round_trip_p1(self):
        grid = grid_powers(3, 2, 10, 16)
        again = read_pnm(render_pnm(grid))
        assert again.base == grid.base and again.rows == grid.rows

    def test_round_trip_p2(self):
        grid = grid_powers(2, 5, 6, 8)
        again = read_pnm(render_pnm(grid))
        assert again.base == 5 and again.rows == grid.rows

    def test_emit_writes_bytes(self, tmp_path):
        grid = DigitGrid(2, ((1, 0),))
        path = tmp_path / "tiny.pbm"
        path.write_bytes(b"old")
        emit_image(grid, str(path))
        assert path.read_bytes() == render_pnm(grid)
        assert os.listdir(tmp_path) == ["tiny.pbm"]

    def test_read_rejects_garbage(self):
        bad = [
            b"",
            b"P5\n1 1\n255\n\x00",
            b"P1\n2 2\n1 0 0\n",  # short payload
            b"P1\n3 1\n1 0 1 1\n",  # long payload
            b"P1\n2 1\n1 2\n",  # digit out of range
            b"P2\n2 1\n4\n1 5\n",
            b"P2\n2 1\n4\n14\n",  # P2 needs separators: one pixel 14
            b"P2\n2 1\n40\n1 41\n",
            b"P1\n2 1\n1 # no comments in the raster\n0\n",
            b"P1\n2 1\n1 -1\n",
            b"P1\n-2 1\n1 0\n",
            b"P1 2",
            # Unterminated comments; a header pattern that can split a
            # run of "#" into comments many ways would take 2**40 steps.
            b"P1 " + b"#" * 40,
        ]
        for data in bad:
            with pytest.raises(ValueError):
                read_pnm(data)

    def test_emit_leaves_nothing_when_the_write_fails(self, tmp_path, monkeypatch):
        grid = grid_powers(3, 2, 16, 64)

        class FailingFile:
            # Writes half of the bytes, then fails like a full disk.
            def __init__(self, fd, mode):
                self.fd = fd

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                os.close(self.fd)

            def write(self, data):
                os.write(self.fd, data[: len(data) // 2])
                raise OSError(28, "No space left on device")

        monkeypatch.setattr(grids, "open", FailingFile, raising=False)
        with pytest.raises(OSError):
            emit_image(grid, str(tmp_path / "grid.pbm"))
        assert os.listdir(tmp_path) == []


def reference_render(grid):
    """Oracle: the text layout built one pixel at a time."""
    maxval = grid.base - 1
    background = 0 if grid.base == 2 else maxval
    lines = ["P1" if grid.base == 2 else "P2", f"{grid.width} {grid.height}"]
    if grid.base > 2:
        lines.append(str(maxval))
    for row in grid.rows:
        lines.append(" ".join(str(background if d == SENTINEL else d) for d in row))
    return ("\n".join(lines) + "\n").encode("ascii")


@st.composite
def digit_grids(draw):
    base = draw(st.integers(2, 16))
    width = draw(st.integers(1, 40))
    cell = st.integers(-1, base - 1)
    row = st.lists(cell, min_size=width, max_size=width).map(tuple)
    return DigitGrid(base, tuple(draw(st.lists(row, min_size=1, max_size=12))))


class TestPnmFormat:
    @given(digit_grids())
    def test_render_matches_reference_and_reads_back(self, grid):
        data = render_pnm(grid)
        assert data == reference_render(grid)
        background = 0 if grid.base == 2 else grid.base - 1
        again = read_pnm(data)
        assert again.base == grid.base
        assert again.rows == tuple(
            tuple(background if d == SENTINEL else d for d in row)
            for row in grid.rows
        )

    def test_header_comments(self):
        assert read_pnm(b"P1\n# c\n2 1\n1 0\n").rows == ((1, 0),)
        data = b"P2 # magic\n#\n 3 # w\n1\n4# maxval\n0 4 2\n"
        grid = read_pnm(data)
        assert grid.base == 5 and grid.rows == ((0, 4, 2),)

    def test_p1_pixels_need_no_separators(self):
        assert read_pnm(b"P1\n2 1\n10\n").rows == ((1, 0),)
        assert read_pnm(b"P1 3 2 101\n\t010").rows == ((1, 0, 1), (0, 1, 0))


class TestDigitGrid:
    def test_names_the_first_bad_digit(self):
        with pytest.raises(ValueError, match="digit 5 out of range for base 2"):
            DigitGrid(2, ((0, 5, -3),))
        with pytest.raises(ValueError, match="digit -2 "):
            DigitGrid(3, ((0, 1), (-2, 7)))


class TestFigurePresets:
    def test_pinned_tower_dimensions(self):
        grid = figure_grid(3)
        assert grid.height == 256 and grid.width == 600

    def test_small_overrides(self):
        grid = figure_grid(1, rows=5, width=7)
        assert grid.rows[4] == (1, 0, 0, 0, 1, 0, 1)

    def test_history_preset(self):
        grid = figure_grid(2, rows_before=1, rows_after=1, width=10)
        assert grid.rows[0] == (1, 1, 0, 1, 0, 1, 0, 1, 0, 1)

    def test_sheared_preset_consistency(self):
        plain = figure_grid(3, rows=24, width=48)
        sheared = figure_grid(4, rows=24, width=48)
        blanked = [(0,) + row[1:] for row in plain.rows]
        assert sheared.rows == tuple(shear_rows(blanked, 1))

    def test_twice_sheared_preset(self):
        grid = figure_grid(5, rows=10, width=24)
        assert grid.height == 10 and grid.width == 24
        # the sheared coefficient columns stabilize on c2's digits
        assert grid.rows[-1][:4] == (0, 0, 0, 1)

    def test_real_rows_preset(self):
        grid = figure_grid(6, rows=1)
        assert grid.rows[0][:2] == (1, 0)
        assert all(d == 0 for d in grid.rows[0][2:])

    def test_montage_panels(self):
        panels = figure_grid(7, rows=8, width=12)
        assert [(name, grid.base) for name, grid in panels] == [
            ("k5_p2", 2),
            ("k7_p2", 2),
            ("k2_p3", 3),
            ("k4_p3", 3),
            ("k2_p5", 5),
            ("k3_p5", 5),
        ]

    def test_bad_id_and_options(self):
        with pytest.raises(ValueError):
            figure_grid(8)
        with pytest.raises(ValueError):
            figure_grid(3, rows_before=2)
