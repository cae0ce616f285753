"""Command-line behavior: outputs, exit codes, determinism."""

import json
import time

import pytest

from padiclab import cli
from padiclab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDigits:
    def test_one_third(self, capsys):
        code, out, _ = run(
            capsys, "digits", "--base", "2", "--prec", "10", "--num", "1",
            "--den", "3",
        )
        assert code == 0 and out == "v=0 1101010101\n"

    def test_minus_one(self, capsys):
        code, out, _ = run(
            capsys, "digits", "--base", "2", "--prec", "6", "--int", "-1"
        )
        assert code == 0 and out == "v=0 111111\n"

    def test_zero_marker(self, capsys):
        code, out, _ = run(
            capsys, "digits", "--base", "2", "--prec", "4", "--int", "0"
        )
        assert code == 0 and out == "v=inf 0000\n"

    def test_p_alias(self, capsys):
        code, out, _ = run(
            capsys, "digits", "--p", "2", "--prec", "4", "--int", "3"
        )
        assert code == 0 and out == "v=0 1100\n"

    def test_json_record(self, capsys):
        code, out, _ = run(
            capsys, "digits", "--base", "2", "--prec", "4", "--num", "1",
            "--den", "3", "--json",
        )
        assert code == 0
        assert json.loads(out) == {
            "base": 2,
            "precision": 4,
            "valuation": 0,
            "digits": [1, 1, 0, 1],
        }

    def test_zero_denominator_exits_2(self, capsys):
        code, _, err = run(
            capsys, "digits", "--base", "2", "--prec", "4", "--num", "1",
            "--den", "0",
        )
        assert code == 2 and "error:" in err

    def test_int_and_num_conflict(self, capsys):
        code, _, err = run(
            capsys, "digits", "--base", "2", "--prec", "4", "--int", "1",
            "--num", "1", "--den", "3",
        )
        assert code == 2


class TestLimit:
    def test_converged(self, capsys):
        code, out, _ = run(
            capsys, "limit", "power:3,2@2^n", "--prec", "8", "--budget", "16"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "converged"
        assert lines[1] == "limit 10000000"
        assert lines[2].startswith("agreement ")

    def test_not_converged(self, capsys):
        code, out, _ = run(
            capsys, "limit", "fibonacci@2^n", "--prec", "3", "--budget", "16"
        )
        assert code == 3 and out.splitlines()[0] == "not-converged"

    def test_teichmuller_limit(self, capsys):
        code, out, _ = run(
            capsys, "limit", "power:2,5@5^n", "--prec", "2", "--budget", "10"
        )
        assert code == 0 and out.splitlines()[1] == "limit 21"  # 2 + 1*5 = 7

    def test_inconclusive(self, capsys):
        code, out, _ = run(
            capsys, "limit", "catalan@2^n", "--prec", "3", "--budget", "20"
        )
        assert code == 4 and out.splitlines()[0] == "inconclusive"

    def test_parse_failure(self, capsys):
        code, _, err = run(capsys, "limit", "junk", "--prec", "3")
        assert code == 2 and "error:" in err

    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "limit", "power:3,2@2^n", "--prec", "4", "--budget", "8",
            "--json",
        )
        assert code == 0
        record = json.loads(out)
        assert record["outcome"] == "converged"
        assert record["limit"]["digits"] == [1, 0, 0, 0]
        assert record["terms_used"] == 8

    def test_env_budget_override(self, capsys, monkeypatch):
        monkeypatch.setenv("PADICLAB_BUDGET", "10")
        code, out, _ = run(
            capsys, "limit", "catalan@2^n", "--prec", "3", "--budget", "8"
        )
        assert code == 4 and out.splitlines()[0] == "inconclusive"

    def test_malformed_env_budget(self, capsys, monkeypatch):
        monkeypatch.setenv("PADICLAB_BUDGET", "lots")
        code, out, err = run(
            capsys, "limit", "catalan@2^n", "--prec", "3", "--budget", "8"
        )
        assert code == 2 and out == ""
        assert err == "error: PADICLAB_BUDGET must be an integer, got 'lots'\n"
        # Uncapped families never read the variable.
        code, out, _ = run(
            capsys, "limit", "power:3,2@2^n", "--prec", "8", "--budget", "16"
        )
        assert code == 0 and out.splitlines()[0] == "converged"


class TestFigure:
    def test_small_powers_grid(self, capsys, tmp_path):
        out_path = tmp_path / "powers.pbm"
        code, out, _ = run(
            capsys, "figure", "--id", "1", "--rows", "5", "--width", "7",
            "--out", str(out_path),
        )
        assert code == 0 and out.strip() == str(out_path)
        lines = out_path.read_text().splitlines()
        assert lines[0] == "P1" and lines[1] == "7 5"
        assert lines[-1] == "1 0 0 0 1 0 1"

    def test_single_real_row(self, capsys, tmp_path):
        out_path = tmp_path / "real.pbm"
        code, _, _ = run(
            capsys, "figure", "--id", "6", "--rows", "1", "--out", str(out_path)
        )
        assert code == 0
        row = out_path.read_text().splitlines()[-1].split()
        assert row[:2] == ["1", "0"] and set(row[2:]) == {"0"}

    def test_deterministic_bytes(self, capsys, tmp_path):
        a, b = tmp_path / "a.pbm", tmp_path / "b.pbm"
        for path in (a, b):
            code, _, _ = run(
                capsys, "figure", "--id", "4", "--rows", "12", "--width", "24",
                "--out", str(path),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_montage_files(self, capsys, tmp_path):
        out_path = tmp_path / "towers.pbm"
        code, out, _ = run(
            capsys, "figure", "--id", "7", "--rows", "8", "--width", "12",
            "--out", str(out_path), "--json",
        )
        assert code == 0
        files = json.loads(out)["files"]
        assert len(files) == 6
        assert files[0]["path"].endswith("towers_k5_p2.pbm")
        assert files[2]["path"].endswith("towers_k2_p3.pgm")
        for entry in files:
            assert (tmp_path / entry["path"].split("/")[-1]).exists()

    def test_bad_id_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["figure", "--id", "9", "--out", "x.pbm"])
        assert exc.value.code == 2

    def test_unwritable_directory_exits_2(self, capsys):
        code, _, err = run(
            capsys, "figure", "--id", "1", "--out", "/nonexistent/dir/x.pbm"
        )
        assert code == 2 and "error:" in err


class TestVerify:
    def test_only_filter(self, capsys):
        code, out, err = run(capsys, "verify", "--only", "legendre")
        assert code == 0
        assert out == "PASS legendre-factorial\n"
        assert "legendre-factorial:" in err  # timing goes to stderr

    def test_small_env_budget(self, capsys, monkeypatch):
        monkeypatch.setenv("PADICLAB_BUDGET", "100")
        code, out, _ = run(capsys, "verify", "--only", "legendre")
        assert code == 0 and out == "PASS legendre-factorial\n"
        code, out, _ = run(capsys, "verify", "--only", "sequence")
        assert code == 1 and out.startswith("FAIL sequence-limits: ")

    def test_only_no_match(self, capsys):
        code, _, err = run(capsys, "verify", "--only", "zzz")
        assert code == 2 and "error:" in err

    def test_extraction_error_exits_2(self, capsys, monkeypatch):
        from padiclab import verify
        from padiclab.shear import ExtractionError

        def fail(*args):
            raise ExtractionError("rows never agree on a single digit")

        monkeypatch.setattr(verify, "extract_coefficients", fail)
        code, out, err = run(capsys, "verify", "--only", "coefficient")
        assert code == 2 and out == ""
        assert err == "error: rows never agree on a single digit\n"

    def test_json_shape(self, capsys):
        code, out, _ = run(capsys, "verify", "--only", "norms", "--json")
        assert code == 0
        record = json.loads(out)
        assert record["passed"] is True
        assert record["checks"][0]["name"] == "norms-and-valuations"


class TestRepeatedCalls:
    def test_calls_in_one_process(self, capsys, tmp_path):
        out_path = str(tmp_path / "g.pbm")
        argv = (
            "figure", "--id", "1", "--rows", "3", "--width", "5",
            "--out", out_path,
        )
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 0 and json.loads(out)["files"][0]["path"] == out_path
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out == out_path + "\n"
        with pytest.raises(SystemExit) as exc:
            main(["figure", "--id", "9", "--out", out_path])
        assert exc.value.code == 2
        capsys.readouterr()
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out == out_path + "\n"
        assert cli._build_parser() is cli._build_parser()


class TestBounds:
    def test_digits_precision(self, capsys):
        prec = str(cli.MAX_DIGITS_PRECISION + 1)
        code, out, err = run(
            capsys, "digits", "--base", "2", "--prec", prec, "--int", "3"
        )
        assert code == 2 and out == "" and "error:" in err

    def test_huge_digits_precision_fails_fast(self, capsys):
        start = time.monotonic()
        code, _, err = run(
            capsys, "digits", "--base", "2", "--prec", "100000000", "--int", "3"
        )
        assert time.monotonic() - start < 1.0
        assert code == 2 and "error:" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--base", "11", "--prec", "200000", "--int", "-1"],
            ["--base", "11", "--prec", "900000", "--int", "-1"],
            ["--base", "1000003", "--prec", "1000000", "--int", "-1", "--json"],
            ["--base", "1000003", "--prec", "166667", "--int", "-1", "--json"],
        ],
        ids=["no-json", "no-json-long", "residue", "residue-bound"],
    )
    def test_large_base_fails_fast(self, capsys, argv):
        start = time.monotonic()
        code, out, err = run(capsys, "digits", *argv)
        assert time.monotonic() - start < 1.0
        assert code == 2 and out == "" and "error:" in err

    @pytest.mark.parametrize(
        "spec, prec",
        [
            ("power:3,2@2^n", ["--prec", str(cli.MAX_LIMIT_PRECISION + 1)]),
            (f"power:3,2@2^n/2^{cli.MAX_LIMIT_PRECISION + 1}", []),
        ],
    )
    def test_limit_precision(self, capsys, spec, prec):
        code, out, err = run(capsys, "limit", spec, *prec)
        assert code == 2 and out == "" and "error:" in err

    def test_huge_tower_base_fails_fast(self, capsys):
        start = time.monotonic()
        code, out, err = run(
            capsys, "limit", "power:3,1000000000000000003@2^n", "--prec", "3"
        )
        assert time.monotonic() - start < 1.0
        assert code == 2 and out == "" and err.startswith("error: ")
        assert "Traceback" not in err

    def test_largest_tower_base_is_fast(self, capsys):
        start = time.monotonic()
        code, out, _ = run(
            capsys, "limit", "power:3,4294967291@2^n", "--prec", "3",
            "--budget", "1024", "--json",
        )
        assert time.monotonic() - start < 1.0
        assert code == 3
        assert json.loads(out) == {
            "agreement_depth": [0] * 1023,
            "converged": False,
            "limit": None,
            "outcome": "not-converged",
            "stable_from": None,
            "terms_used": 1024,
        }

    @pytest.mark.parametrize(
        "argv",
        [
            ["bell@2^n/1000003^2", "--budget", "15"],
            ["bell@2^n", "--prec", "512", "--budget", "14"],
            # Index 512 < d = 513: one row more than the bound.
            [f"bell@2^n/{cli.MAX_BELL_ORDER + 1}^1", "--budget", "10"],
        ],
        ids=["large-base", "large-precision", "just-over"],
    )
    def test_bell_rows_fail_fast(self, capsys, argv):
        start = time.monotonic()
        code, out, err = run(capsys, "limit", *argv)
        assert time.monotonic() - start < 1.0
        assert code == 2 and out == ""
        assert err.startswith("error: Bell triangle rows ")
        assert f"exceeds the limit {cli.MAX_BELL_ORDER}" in err

    def test_bell_rows_at_the_limit(self, capsys):
        # Order 512 at index 2**10: the full triangle, then the recurrence.
        code, out, _ = run(
            capsys, "limit", f"bell@2^n/{cli.MAX_BELL_ORDER}^1", "--budget", "11"
        )
        assert code == 3 and out == "not-converged\nagreement" + " 0" * 10 + "\n"

    @pytest.mark.parametrize(
        "argv, depths",
        [
            (["bell@2^n", "--prec", "200", "--budget", "8"], 7),
            (["bell@2^n/1000003^2", "--budget", "5"], 4),
            ([f"bell@2^n/{cli.MAX_BELL_ORDER + 1}^1", "--budget", "3"], 2),
        ],
        ids=["high-precision", "large-base", "just-over-order"],
    )
    def test_bell_large_order_small_index_runs(self, capsys, argv, depths):
        # The order exceeds the bound, but the sampled indices stay below
        # it, so only a small triangle is built.
        code, out, _ = run(capsys, "limit", *argv, "--json")
        assert code == 3
        assert json.loads(out) == {
            "agreement_depth": [0] * depths,
            "converged": False,
            "limit": None,
            "outcome": "not-converged",
            "stable_from": None,
            "terms_used": depths + 1,
        }

    def test_bell_rows_within_env_cap(self, capsys, monkeypatch):
        # Indices past PADICLAB_BUDGET are never generated.
        monkeypatch.setenv("PADICLAB_BUDGET", "100")
        code, out, _ = run(
            capsys, "limit", "bell@2^n/1000003^2", "--budget", "16", "--json"
        )
        assert code == 4
        assert json.loads(out)["terms_used"] == 7

    def test_bell_default_sizes_allowed(self, capsys):
        code, out, _ = run(capsys, "limit", "bell@2^n", "--prec", "16", "--json")
        assert code == 3
        assert json.loads(out) == {
            "agreement_depth": [0] * 15,
            "converged": False,
            "limit": None,
            "outcome": "not-converged",
            "stable_from": None,
            "terms_used": 16,
        }

    def test_limit_budget(self, capsys):
        budget = str(cli.MAX_LIMIT_BUDGET + 1)
        code, out, err = run(
            capsys, "limit", "power:3,2@2^n", "--prec", "16", "--budget", budget
        )
        assert code == 2 and out == "" and "error:" in err

    @pytest.mark.parametrize(
        "sizes",
        [
            ["--id", "1", "--rows", "1", "--width", "{over}"],
            ["--id", "2", "--rows-before", "{cap}", "--rows-after", "1",
             "--width", "1"],
            ["--id", "6", "--rows", "1", "--int-digits", "1",
             "--frac-digits", "{cap}"],
            ["--id", "7", "--rows", "1", "--width", "{over}"],
        ],
        ids=["powers", "history", "real", "towers"],
    )
    def test_figure_cells(self, capsys, tmp_path, sizes):
        cap = cli.MAX_FIGURE_CELLS
        argv = [a.format(cap=cap, over=cap + 1) for a in sizes]
        out_path = tmp_path / "g.pbm"
        code, out, err = run(capsys, "figure", *argv, "--out", str(out_path))
        assert code == 2 and out == "" and "error:" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "sizes",
        [
            ["--id", "5", "--rows", "{over}", "--width", "1"],
            ["--id", "6", "--rows", "8192", "--frac-digits", "0"],
        ],
        ids=["subtract-shear", "real"],
    )
    def test_quadratic_figure_rows(self, capsys, tmp_path, sizes):
        argv = [a.format(over=cli.MAX_QUADRATIC_FIGURE_ROWS + 1) for a in sizes]
        out_path = tmp_path / "g.pbm"
        start = time.monotonic()
        code, out, err = run(capsys, "figure", *argv, "--out", str(out_path))
        assert time.monotonic() - start < 1.0
        assert code == 2 and out == "" and "error:" in err
        assert list(tmp_path.iterdir()) == []
