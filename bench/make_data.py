"""Regenerate the benchmark's data files.

    python3 bench/make_data.py bell      # bench/bell_table.json (about 10 s)
    python3 bench/make_data.py digests   # bench/digests.json (about 2 min)

``bell`` runs the Bell triangle in Python ints mod 2**16 up to index
2**14 and keeps the indices the limits workload can reach; it checks
itself against exact Bell numbers from B(n+1) = sum C(n, k) B(k).
``digests`` records a digest of every op's output for the first
``DIGEST_ROUNDS`` rounds of each workload at seed 0 (null for an op
whose check failed).  Regenerate the
digests only at a commit whose outputs are known to be right: a later
run that differs from them counts the op as failed.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import sys

import run
from workloads import WORKLOADS, take_rounds

DIGEST_SEED = 0
# More rounds than a 20-second run of each workload gets through.
DIGEST_ROUNDS = {"figures": 80, "limits": 10, "arith": 45}
BELL_TOP = 1 << 14


def bell_table() -> dict:
    modulus = 1 << 16
    wanted = {c << k for c in range(1, 16) for k in range(15) if c << k <= BELL_TOP}
    terms, row = {0: 1}, [1]
    for r in range(1, BELL_TOP + 1):
        row = [v % modulus for v in itertools.accumulate(row, initial=row[-1])]
        terms[r] = row[0]
    exact = [1]
    for n in range(400):
        exact.append(sum(math.comb(n, k) * exact[k] for k in range(n + 1)))
    if any(exact[m] % modulus != terms[m] for m in range(len(exact))):
        raise SystemExit("Bell triangle disagrees with the binomial recurrence")
    return {"modulus": modulus, "terms": {str(m): terms[m] for m in sorted(wanted)}}


def digests() -> dict:
    sys.path.insert(0, run.SRC)
    out = {"seed": DIGEST_SEED}
    for workload in WORKLOADS:
        runner = run.run_list(workload, take_rounds(workload, DIGEST_SEED, DIGEST_ROUNDS[workload]))
        for failure in runner.failures:
            print(f"{workload}: {failure}", file=sys.stderr)
        out[workload] = runner.digests
    return out


def main() -> None:
    what = sys.argv[1] if len(sys.argv) > 1 else ""
    makers = {"bell": ("bell_table.json", bell_table), "digests": ("digests.json", digests)}
    if what not in makers:
        raise SystemExit(f"usage: make_data.py {'|'.join(makers)}")
    name, make = makers[what]
    with open(os.path.join(run.BENCH, name), "w") as fh:
        json.dump(make(), fh, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
