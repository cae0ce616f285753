"""Tests of the benchmark itself.  Run with ``python3 -m pytest bench``."""

import json
import math
import os
import shutil
import subprocess
import sys
import types

import pytest

import hostspeed
import oracles
import run
from tracing import Tracer
from workloads import WORKLOADS, take_rounds

from padiclab import analysis, core, grids, sequences


@pytest.mark.parametrize("workload", WORKLOADS)
def test_op_lists_follow_the_seed(workload):
    assert take_rounds(workload, 5, 2) == take_rounds(workload, 5, 2)
    assert take_rounds(workload, 5, 2) != take_rounds(workload, 6, 2)


def _failures(workload: str) -> int:
    return len(run.run_list(workload, take_rounds(workload, 1, 1)).failures)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_round_passes_its_checks(workload):
    assert _failures(workload) == 0


def test_wrong_codec_digit_fails_figures_and_arith(monkeypatch):
    original = core._digits_of

    def wrong(value, base, precision):
        digits = list(original(value, base, precision))
        digits[-1] = (digits[-1] + 1) % base
        return tuple(digits)

    monkeypatch.setattr(core, "_digits_of", wrong)
    monkeypatch.setattr(grids, "_digits_of", wrong)
    assert _failures("figures") > 0
    assert _failures("arith") > 0


def test_wrong_bell_digit_fails_limits(monkeypatch):
    original = sequences.bell_mod
    monkeypatch.setattr(
        sequences, "bell_mod",
        lambda m, modulus, budget=None: (original(m, modulus, budget) + 1) % modulus,
    )
    assert _failures("limits") > 0


def test_wrong_pnm_digit_fails_figures(monkeypatch):
    original = grids.read_pnm

    def wrong(data):
        grid = original(data)
        first = ((grid.rows[0][0] + 1) % grid.base,) + grid.rows[0][1:]
        return grids.DigitGrid(grid.base, (first,) + grid.rows[1:])

    monkeypatch.setattr(grids, "read_pnm", wrong)
    assert _failures("figures") > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    def counts():
        tracer = Tracer()
        run.run_traced(workload, take_rounds(workload, 3, 1), [], tracer)
        return {k: v for k, v in tracer.metrics().items() if not k.endswith("self_s")}

    first = counts()
    assert first == counts()
    assert first["cli.calls"] > 0


def test_plain_pass_runs_without_wrappers(monkeypatch):
    from padiclab import cli

    original, seen = cli.main, []

    def fake_cli(self, *argv):
        seen.append((self.tracer is None, cli.main is original))
        return 0.001, None

    monkeypatch.setattr(run.Runner, "_cli", fake_cli)
    run.run_traced("limits", take_rounds("limits", 3, 1)[:4], [], Tracer())
    assert sorted(set(seen)) == [(False, False), (True, True)]
    assert cli.main is original


def test_missing_wrapped_name_nulls_its_layer(monkeypatch, capsys):
    monkeypatch.delattr(sequences, "bell_mod")
    original = core._digits_of
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    metrics = tracer.metrics()
    assert metrics["sequences.bell.self_s"] is None
    assert metrics["sequences.self_s"] is None
    assert metrics["sequences.catalan.self_s"] == 0.0
    assert metrics["core.codec.calls"] == 0
    assert core._digits_of is original
    assert "sequences.bell_mod" in capsys.readouterr().err


def test_latencies_scale_with_the_local_kernel_time():
    ref = hostspeed.REFERENCE_S
    # Ten ops a second apart: five on a host at reference speed, five at
    # half speed.  One sample before each op and one after the last.
    samples = [(t, ref if t < 5 else 2 * ref) for t in range(11)]
    scaled = hostspeed.scale([0.01] * 10, list(range(10)), samples)
    assert scaled[0] == pytest.approx(0.01) and scaled[-1] == pytest.approx(0.005)
    # Short ops take the median over every sample near them, so one
    # interrupted sample does not move them.
    samples = [(t / 100, ref) for t in range(11)]
    samples[2] = (0.02, 10 * ref)
    assert hostspeed.scale([0.01] * 10, list(range(10)), samples)[2] == pytest.approx(0.01)


def test_oracles_agree_with_independent_formulas():
    odd = oracles._odd_factorials()
    for m in (1, 2, 3, 12, 64, 96, 1024, 4096):
        exact = math.factorial(m)
        exact >>= oracles.multiplicity(exact, 2)
        assert odd[m] == exact % (1 << 16)
    assert [oracles._motzkin(m) for m in range(10)] == [1, 1, 2, 4, 9, 21, 51, 127, 323, 835]
    a, b = 0, 1
    for m in range(200):
        assert oracles._fibonacci(m, 1000) == a % 1000
        a, b = b, a + b
    for u, p, prec in ((3, 2, 90), (7, 2, 5), (4, 3, 70), (11, 5, 40), (1, 3, 9)):
        modulus = p ** (2 * prec + 2)
        w = u * u if p == 2 else u
        slow = (pow(w, p ** (prec + 1), modulus) - 1) // p ** (prec + 1)
        slow = (slow // 2 if p == 2 else slow) % p**prec
        assert oracles._log_residue(u, p, prec) == slow
        scalar = analysis.padic_log(u, p, prec)
        assert oracles.check_log(scalar, u, p, prec) is None


def _bench_copy(tmp_path, with_sources: bool) -> str:
    root = tmp_path / "checkout"
    shutil.copytree(run.BENCH, root / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), root)
    if with_sources:
        shutil.copytree(run.SRC, root / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return str(root)


def _bench(root: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=root,
                          capture_output=True, text=True, timeout=170)


def test_result_line_names_every_metric(tmp_path):
    root = _bench_copy(tmp_path, with_sources=True)
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        proc = _bench(root, "--workload", "figures", "--seed", "2",
                      "--seconds", "0.5", "--trace", str(trace))
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert {m["name"]: m["unit"] for m in spec[kind]} == {
            name: m["unit"] for name, m in result["metrics"].items()}
    assert not os.path.exists(os.path.join(root, ".bench_work"))
    with open(os.path.join(root, ".benchmarks", "spans-figures-2.jsonl")) as fh:
        span = json.loads(fh.readline())
    assert set(span) == {"layer", "op", "start", "end", "parent"}


def test_fails_without_the_program(tmp_path):
    root = _bench_copy(tmp_path, with_sources=False)
    proc = _bench(root, "--workload", "limits", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert not proc.stdout.strip().endswith("}")


def test_recorded_digests_catch_changed_bytes(monkeypatch):
    from padiclab import cli

    ops = take_rounds("limits", 0, 1)
    digests = run.recorded_digests("limits", 0)
    assert len(digests) >= len(ops)
    assert not run.run_list("limits", ops, digests).failures
    # The same JSON record, laid out differently: right to every oracle,
    # but not byte-identical.
    monkeypatch.setattr(cli, "json", types.SimpleNamespace(
        dumps=lambda obj, **kw: json.dumps(obj, indent=1, **kw)))
    assert run.run_list("limits", ops, digests).failures
