"""Steadiness of the end-to-end metrics.

    python3 bench/steady.py

Runs ``run.py`` on every workload in two sets of ten runs, with seeds
1..10 and the ``run_seconds`` of BENCHMARK.json, one run at a time.  For
every end-to-end metric it prints each set's median and quartiles and the
spread, the distance between the quartiles as a share of the median, and
how much worse the second median is than the first.  It fails when a
spread or the distance between the two medians, in either direction, is
beyond the metric's bound, when a run is incorrect, or when a workload's
share of failed jobs differs between runs.  All run results go to
``bench/results/steady-<time>.json``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time

import source
from run import WORKLOADS

SETS = 2
RUNS = 10


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(source.ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.stderr.write(proc.stderr)
    return result


def summary(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / med


def worse_by(spec: dict, first: float, second: float) -> float:
    """How much worse the second median is, as a share of the first."""
    change = (second - first) / first
    return change if spec["better"] == "lower" else -change


def report(workload: str, sets: list[list[dict]], specs: list[dict]) -> bool:
    ok = True
    shares = {r["failed"] / r["attempted"] for runs in sets for r in runs}
    incorrect = sum(not r["correct"] for runs in sets for r in runs)
    print(f"\n{workload}: failed share {sorted(shares)}, incorrect runs {incorrect}")
    ok &= len(shares) == 1 and not incorrect
    for spec in specs:
        name = spec["name"]
        line = f"  {name:12s}"
        medians = []
        for runs in sets:
            med, q1, q3, spread = summary([r["metrics"][name]["value"] for r in runs])
            medians.append(med)
            flag = "" if spread <= spec["bound"] / 3 else " (>bound/3)"
            flag = " (>bound)" if spread > spec["bound"] else flag
            ok &= flag != " (>bound)"
            line += f" | median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} spread {spread:.2%}{flag}"
        drift = worse_by(spec, *medians)
        bad = abs(drift) > spec["bound"]
        ok &= not bad
        line += f" | worse by {drift:+.2%} (bound {spec['bound']:.0%}){' FAIL' if bad else ''}"
        print(line)
    return ok


def main() -> None:
    with open(source.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    source.RESULTS.mkdir(parents=True, exist_ok=True)
    results = {}
    ok = True
    for workload in WORKLOADS:
        sets = []
        for k in range(SETS):
            runs = []
            for seed in range(1, RUNS + 1):
                runs.append(one_run(workload, seed, bench["run_seconds"]))
                print(f"{workload} set {k + 1} seed {seed}: {json.dumps(runs[-1])}", flush=True)
            sets.append(runs)
        results[workload] = sets
        ok &= report(workload, sets, bench["end_to_end"])
    path = source.RESULTS / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=1)
    print(f"\n{'steady' if ok else 'NOT steady'}; runs saved to {path}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
