"""Steadiness check: do repeated sets of benchmark runs agree within the bounds?

Usage (from the repository root):

    python3 perfbench/steadiness.py

Runs ``run.py --trace 0`` for ``run_seconds`` (from BENCHMARK.json) once per
seed, SEEDS seeds on each workload, one run at a time, in SETS sets.  For
each end-to-end metric it reports the spread of a set, as the distance
between the first and third quartiles over the median, and the change of
each later set's median against the first, in the metric's worse direction.
A metric passes when both its largest spread and its median change stay
within its bound in BENCHMARK.json.  Set k uses seeds 1000*k + 1, ...,
so the sets share no input.  Exits 1 when a metric fails or a run is
incorrect.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEEDS = 10
SETS = 2


def one_run(workload: str, seed: int) -> dict:
    done = subprocess.run(
        SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                           "--seconds", str(SPEC["run_seconds"]), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main() -> int:
    raw: dict = {}
    ok = True
    for k in range(SETS):
        for workload in (w["name"] for w in SPEC["workloads"]):
            for i in range(SEEDS):
                seed = 1000 * k + i + 1
                result = one_run(workload, seed)
                if not result["correct"]:
                    ok = False
                    print(f"incorrect: {workload} seed {seed}: {result['failed']} failed")
                for name, m in result["metrics"].items():
                    raw.setdefault(workload, {}).setdefault(name, [[] for _ in range(SETS)])
                    raw[workload][name][k].append(m["value"])
                print(f"set {k} {workload} seed {seed}: "
                      + " ".join(f"{n}={m['value']:.5g}" for n, m in result["metrics"].items()),
                      flush=True)

    print(f"\n{'workload':12s} {'metric':12s} {'bound':>6s} {'spreads':>18s} "
          f"{'medians':>24s} {'worse by':>9s}")
    for workload, metrics in raw.items():
        for spec in SPEC["end_to_end"]:
            sets = metrics.get(spec["name"])
            if sets is None:
                ok = False
                print(f"{workload:12s} {spec['name']:12s} missing")
                continue
            spreads = [spread(v) for v in sets]
            medians = [statistics.median(v) for v in sets]
            sign = 1.0 if spec["better"] == "lower" else -1.0
            worse = max([sign * (m - medians[0]) / medians[0] for m in medians[1:]], default=0.0)
            passed = worse <= spec["bound"] and max(spreads) <= spec["bound"]
            ok &= passed
            print(f"{workload:12s} {spec['name']:12s} {spec['bound']:6.3f} "
                  f"{' '.join(f'{s:8.4f}' for s in spreads):>18s} "
                  f"{' '.join(f'{m:11.5g}' for m in medians):>24s} {worse:9.4f} "
                  f"{'ok' if passed else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
