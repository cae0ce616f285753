"""The padiclab benchmark: seeded closed-loop workloads, end to end and per layer.

Usage, from the repository root::

    python3 bench/run.py --workload figures|limits|arith|all \\
        [--seed N] [--seconds S] [--trace 0|1]

One client in one process sends the next op only after the previous one
returned.  ``--trace 0`` runs whole rounds of the workload until the
timed ops add up to ``--seconds`` and reports the end-to-end metrics,
with times scaled to a reference host speed (see hostspeed.py).
``--trace 1`` runs a fixed op list twice, plain and traced, reports the
per-layer metrics and writes the spans to ``.benchmarks/``.  Every op's output is checked; the last
stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib.util
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, BENCH)

import hostspeed  # noqa: E402
from workloads import WORKLOADS, ring_operands, rounds, take_rounds  # noqa: E402

# Rounds in the fixed op list of a traced run: 6-10 timed seconds a pass.
TRACE_ROUNDS = {"figures": 20, "limits": 3, "arith": 12}
SETUP_WARMUP = 2
SETUP_RUNS = 25
# A run ends after the round in which this much wall time has passed,
# whatever the timed total, so that it always exits within 180 seconds.
WALL_LIMIT_S = 120.0
DIGESTS = os.path.join(BENCH, "digests.json")
SPANS_DIR = os.path.join(ROOT, ".benchmarks")

END_TO_END_UNITS = {
    "setup_s": "s", "ops_per_s": "ops/s", "op_p50_ms": "ms",
    "op_p90_ms": "ms", "peak_rss_mb": "MB",
}


# ------------------------------------------------------------------ set-up

# Run in a fresh interpreter: the import alone is timed, then the
# reference kernel gives the host's speed in that process.
_SETUP_CHILD = """\
import sys, time
start = time.perf_counter()
import padiclab
took = time.perf_counter() - start
sys.path.insert(0, sys.argv[1])
import hostspeed
print(took, min(hostspeed.sample(hostspeed.bigint_kernel)[1] for _ in range(2)))
"""


def measure_setup() -> float:
    """Median over fresh interpreters of the time ``import padiclab``
    takes in each, scaled by the host speed measured in the same process
    (see hostspeed).  The first imports write bytecode caches and are
    not counted."""
    env = dict(os.environ, PYTHONPATH=SRC)
    cmd = [sys.executable, "-c", _SETUP_CHILD, BENCH]
    scaled = []
    for i in range(SETUP_WARMUP + SETUP_RUNS):
        out = subprocess.run(cmd, env=env, check=True, capture_output=True, text=True)
        took, kernel = map(float, out.stdout.split())
        if i >= SETUP_WARMUP:
            scaled.append(took * hostspeed.REFERENCE_S / kernel)
    return statistics.median(scaled)


def environment() -> dict:
    sha, dirty = None, None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        git = ["git", "-C", ROOT]
        sha = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True,
                             text=True).stdout.strip() or None
        dirty = bool(subprocess.run(git + ["status", "--porcelain"],
                                    capture_output=True, text=True).stdout.strip())
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "numpy_importable": importlib.util.find_spec("numpy") is not None,
    }


# --------------------------------------------------------------- executing

class Runner:
    """Executes ops in a work directory, times each call, checks outputs."""

    def __init__(self, workload: str, digests: list | None = None, tracer=None):
        import oracles
        from padiclab import analysis, cli, core, grids, shear

        self.oracles = oracles
        self.analysis, self.cli, self.core, self.grids, self.shear = (
            analysis, cli, core, grids, shear)
        self.tracer = tracer
        self.rng = random.Random(f"check:{workload}")
        self.expected_digests = digests or []
        self.digests: list[str | None] = []
        self.latencies: list[float] = []
        self.failures: list[str] = []
        self.declined = 0
        self.index = 0
        # Imports are done: later collections need not scan their objects.
        gc.collect()
        gc.freeze()

    def run(self, op) -> None:
        """Run one op; record its latency and whether it failed."""
        gc.collect()  # no op pays for the garbage of the one before
        try:
            seconds, outcome = getattr(self, f"_{op.kind}")(*op.args)
        except Exception as exc:  # a check that cannot read the output
            seconds, outcome = None, f"unreadable output: {exc!r}"
        reason, digest = outcome if isinstance(outcome, tuple) else (outcome, None)
        if reason is None and digest is not None and self.index < len(self.expected_digests):
            want = self.expected_digests[self.index]
            if want is not None and want != digest:
                reason = "output differs from the recorded digest"
        self.digests.append(digest if reason is None else None)
        if seconds is not None:
            self.latencies.append(seconds)
        if reason is not None:
            self.failures.append(f"op {self.index} {op.kind} {op.args[:3]}: {reason}")
        self.index += 1

    @staticmethod
    def _digest(*parts) -> str:
        h = hashlib.sha256()
        for part in parts:
            h.update(part if isinstance(part, bytes) else str(part).encode())
            h.update(b"\0")
        return h.hexdigest()[:16]

    def _time(self, fn, *args):
        """(value, seconds) of one call; a raised exception is the value.

        Only this call is timed, and only it is traced: operands and
        checks run outside the span the tracer sees.
        """
        if self.tracer is not None:
            self.tracer.active = True
        start = time.perf_counter()
        try:
            value = fn(*args)
        except (Exception, SystemExit) as exc:
            value = exc
        seconds = time.perf_counter() - start
        if self.tracer is not None:
            self.tracer.active = False
        return value, seconds

    def _cli(self, *argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code, seconds = self._time(self.cli.main, list(argv))
        if isinstance(code, BaseException):
            return seconds, f"raised {code!r}"
        stdout = out.getvalue()
        o = self.oracles
        if argv[0] == "limit":
            reason = o.check_limit(argv, code, stdout)
            return seconds, (reason, self._digest(code, stdout))
        if code != 0:
            return seconds, f"exit code {code}: {err.getvalue().strip()[:200]}"
        if argv[0] == "digits":
            return seconds, (o.check_digits(argv, stdout), self._digest(stdout))
        reason = o.check_figure(argv, stdout, os.getcwd(), self.rng)
        files = []
        for path in o.figure_files(int(argv[2]), argv[argv.index("--out") + 1]):
            with open(path, "rb") as fh:
                files.append(fh.read())
        return seconds, (reason, self._digest(stdout, *files))

    def _read_file(self, path):
        with open(path, "rb") as fh:
            return self.grids.read_pnm(fh.read())

    def _read(self, path):
        grid, seconds = self._time(self._read_file, path)
        if isinstance(grid, Exception):
            return seconds, f"raised {grid!r}"
        digest = self._digest(grid.base, grid.width, grid.height,
                              b"".join(bytes(row) for row in grid.rows))
        return seconds, (self.oracles.check_read(path, grid), digest)

    def _ring(self, base, prec, name, seed, t):
        da, db = ring_operands(base, prec, name, seed, t)
        a, b = self.core.PadicApprox(base, da), self.core.PadicApprox(base, db)
        x, y = self.oracles.from_digits(da, base), self.oracles.from_digits(db, base)
        call = {
            "add": lambda: a + b, "sub": lambda: a - b, "mul": lambda: a * b,
            "invert": a.invert, "shift": lambda: a.shift(t),
        }[name]
        value, seconds = self._time(call)
        if isinstance(value, Exception):
            return seconds, f"raised {value!r}"
        want_prec, want = self.oracles.expected_ring(base, name, x, y, t, prec)
        reason = self.oracles.check_approx(value, base, want_prec, want)
        return seconds, (reason, self._digest(json.dumps(value.to_record())))

    def _log(self, u, p, prec):
        scalar, seconds = self._time(self.analysis.padic_log, u, p, prec)
        if isinstance(scalar, Exception):
            return seconds, f"raised {scalar!r}"
        reason = self.oracles.check_log(scalar, u, p, prec)
        return seconds, (reason, self._digest(json.dumps(scalar.to_record())))

    def _cascade(self, k, p, count, a, budget):
        coeffs, seconds = self._time(self.shear.extract_coefficients, k, p, count, a, budget)
        if isinstance(coeffs, self.shear.ExtractionError):
            if (k, p) in self.oracles.DECLINING_CASCADES:
                self.declined += 1
                return seconds, None
            return seconds, f"ExtractionError: {coeffs}"
        if isinstance(coeffs, Exception):
            return seconds, f"raised {coeffs!r}"
        reason = self.oracles.check_cascade(coeffs, k, p, count, a)
        return seconds, (reason, self._digest(json.dumps([c.to_record() for c in coeffs])))


@contextlib.contextmanager
def work_directory():
    """A fresh directory inside the checkout for the files ops write."""
    parent = os.path.join(ROOT, ".bench_work")
    os.makedirs(parent, exist_ok=True)
    path = tempfile.mkdtemp(dir=parent)
    cwd = os.getcwd()
    os.chdir(path)
    try:
        yield path
    finally:
        os.chdir(cwd)
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(parent)


def recorded_digests(workload: str, seed: int) -> list:
    """Output digests of the default seed's ops at the commit that
    defined the benchmark; null for ops exempt from the comparison."""
    with open(DIGESTS) as fh:
        stored = json.load(fh)
    return stored[workload] if seed == stored["seed"] else []


def timed_run(workload: str, seed: int, seconds: float):
    """Whole rounds until the timed ops reach ``seconds`` of wall time.
    Returns the runner, the number of rounds and the host-speed-scaled
    latencies."""
    runner = Runner(workload, recorded_digests(workload, seed))
    wall = time.perf_counter()
    kernel = hostspeed.KERNELS[workload]
    samples, before, count = [], [], 0
    with work_directory():
        for ops in rounds(workload, seed):
            for op in ops:
                samples.append(hostspeed.sample(kernel))
                timed = len(runner.latencies)
                runner.run(op)
                if len(runner.latencies) > timed:
                    before.append(len(samples) - 1)
            count += 1
            if sum(runner.latencies) >= seconds or time.perf_counter() - wall > WALL_LIMIT_S:
                break
    samples.append(hostspeed.sample(kernel))
    kernels = [k for _, k in samples]
    print(f"# {kernel.__name__} median {statistics.median(kernels) * 1e3:.4g} ms over "
          f"{len(kernels)} samples, reference {hostspeed.REFERENCE_S * 1e3:.4g} ms")
    return runner, count, hostspeed.scale(runner.latencies, before, samples)


def end_to_end(workload: str, seed: int, seconds: float) -> dict:
    setup = measure_setup()
    runner, count, lat = timed_run(workload, seed, seconds)
    raw = runner.latencies
    metrics = {
        "setup_s": setup,
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_p90_ms": statistics.quantiles(lat, n=10)[8] * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    attempted = runner.index
    failed = len(runner.failures)
    print(f"# {workload} seed {seed}: {attempted} ops in {count} rounds, "
          f"{sum(raw):.3f} s timed, {failed} failed, "
          f"{runner.declined} declined cascades")
    print(f"# unscaled: op_p50_ms {statistics.median(raw) * 1e3:.6g} "
          f"op_p90_ms {statistics.quantiles(raw, n=10)[8] * 1e3:.6g} "
          f"ops_per_s {len(raw) / sum(raw):.6g}")
    for name, value in metrics.items():
        print(f"# {name} {value:.6g} {END_TO_END_UNITS[name]}")
    print(f"# error_rate {failed / attempted:.6g} ratio")
    print(f"# op_p90_ms from {len(lat)} samples, {len(lat) // 10} beyond it")
    return result(runner.failures, attempted,
                  {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()})


def run_list(workload: str, ops, digests=None) -> Runner:
    """Run a fixed op list in a fresh work directory."""
    runner = Runner(workload, digests)
    with work_directory():
        for op in ops:
            runner.run(op)
    return runner


def run_traced(workload: str, ops, digests, tracer) -> tuple[Runner, Runner]:
    """Run every op twice, plain and traced, alternating which goes
    first, so both passes see the same warm state.  The wrappers are in
    place only for the traced call.  Returns both runners."""
    plain = Runner(workload, digests)
    spanned = Runner(workload, digests, tracer)

    def run_spanned(op):
        tracer.install()
        try:
            spanned.run(op)
        finally:
            tracer.uninstall()

    with work_directory():
        for i, op in enumerate(ops):
            tracer.op = i
            first, second = (plain.run, run_spanned) if i % 2 == 0 else (run_spanned, plain.run)
            first(op)
            second(op)
    return plain, spanned


def write_spans(workload: str, seed: int, spans) -> str:
    """Write spans as JSON lines to ``.benchmarks/``; returns the path."""
    os.makedirs(SPANS_DIR, exist_ok=True)
    path = os.path.join(SPANS_DIR, f"spans-{workload}-{seed}.jsonl")
    with open(path, "w") as fh:
        for layer, op, start, end, parent in spans:
            fh.write(json.dumps({"layer": layer, "op": op, "start": start,
                                 "end": end, "parent": parent}) + "\n")
    return path


def traced(workload: str, seed: int) -> dict:
    from tracing import UNITS, Tracer

    ops = take_rounds(workload, seed, TRACE_ROUNDS[workload])
    tracer = Tracer()
    plain, runner = run_traced(workload, ops, recorded_digests(workload, seed), tracer)
    layers = tracer.metrics()
    overhead = sum(plain.latencies) / sum(runner.latencies)
    total = sum(runner.latencies)
    print(f"# {workload} seed {seed}: traced {len(ops)} ops, {total:.3f} s; "
          f"plain {sum(plain.latencies):.3f} s")
    shares = sorted(tracer.self_s.items(), key=lambda kv: -kv[1])
    for layer, seconds in shares:
        if seconds > 0:
            print(f"# share {layer} {100 * seconds / total:.1f}%")
    print(f"# share untraced-code {100 * (total - sum(tracer.self_s.values())) / total:.1f}%")
    path = write_spans(workload, seed, tracer.spans)
    print(f"# {len(tracer.spans)} spans written to {os.path.relpath(path, ROOT)}")
    metrics = {name: (value, UNITS[name.rsplit(".", 1)[1]]) for name, value in layers.items()}
    metrics["trace.overhead"] = (overhead, "ratio")
    return result(plain.failures + runner.failures, plain.index + runner.index, metrics)


def result(failures: list[str], attempted: int, metrics: dict) -> dict:
    for failure in failures:
        print(f"# FAILED {failure}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


# ---------------------------------------------------------------------- all

def run_all(args) -> dict:
    """Each workload in a fresh interpreter, then one summary."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for workload in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(line)
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"{workload} exited with {proc.returncode}")
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for name, value in res["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = value
        rows.append((workload, res))
    if args.trace == 0:
        print("# workload " + " ".join(f"{n}[{u}]" for n, u in END_TO_END_UNITS.items())
              + " error_rate[ratio]")
        for workload, res in rows:
            cells = [f"{res['metrics'][n]['value']:.4g}" for n in END_TO_END_UNITS]
            cells.append(f"{res['failed'] / res['attempted']:.4g}")
            print(f"# {workload} " + " ".join(cells))
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "padiclab", "__init__.py")):
        print(f"error: no padiclab sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("PADICLAB_BUDGET", None)
    print("# env " + json.dumps(environment(), sort_keys=True))
    if args.workload == "all":
        res = run_all(args)
    else:
        sys.path.insert(0, SRC)
        if args.trace:
            res = traced(args.workload, args.seed)
        else:
            res = end_to_end(args.workload, args.seed, args.seconds)
    print(json.dumps(res, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
