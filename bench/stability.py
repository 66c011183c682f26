"""Two sets of benchmark runs of the same code, compared metric by metric.

    python3 bench/stability.py                    # seeds 1-10 and 11-20
    python3 bench/stability.py --first-seed 101   # seeds 101-110 and 111-120

Every workload in BENCHMARK.json runs ten times per set: set A on seeds
first..first+9 and set B on the next ten, each run in its own process, all
of set A before set B. For every end-to-end metric and workload it prints
both medians, each set's quartile spread (q3 - q1 over the median), the
spread over all runs, and the bound from BENCHMARK.json. A metric passes
when each set's spread is within its bound and the two medians differ by no
more than the bound, in either direction; the share of failed operations
must be the same in both sets. Exits 1 when anything fails. Raw results go
to bench/results/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 600
RUNS = 10  # per set


def spread(values: list) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def run_once(command: list, workload: str, seed: int, seconds: int) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def compare(spec: dict, set_a: list, set_b: list) -> list:
    """Rows of (metric, median A, median B, spread A, spread B, spread all, bound, ok)."""
    rows = []
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        a = [r["metrics"][name]["value"] for r in set_a]
        b = [r["metrics"][name]["value"] for r in set_b]
        med_a, med_b = statistics.median(a), statistics.median(b)
        spreads = (spread(a), spread(b))
        ok = abs(med_b - med_a) / med_a <= bound and max(spreads) <= bound
        rows.append((name, med_a, med_b, *spreads, spread(a + b), bound, ok))
    return rows


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    seconds = spec["run_seconds"]
    results = {w["name"]: ([], []) for w in spec["workloads"]}
    for set_index in (0, 1):
        first = args.first_seed + set_index * RUNS
        for workload in results:
            for seed in range(first, first + RUNS):
                start = time.perf_counter()
                res = run_once(spec["command"], workload, seed, seconds)
                results[workload][set_index].append(res)
                print(f"set {'AB'[set_index]} {workload} seed {seed}: "
                      f"{time.perf_counter() - start:.1f}s correct={res['correct']} "
                      f"failed={res['failed']}/{res['attempted']}", file=sys.stderr)

    all_ok = True
    report = {}
    header = (f"{'workload':<12} {'metric':<20} {'median A':>12} {'median B':>12} "
              f"{'spread A':>9} {'spread B':>9} {'all':>7} {'bound':>6}")
    print(header)
    for workload, (set_a, set_b) in results.items():
        shares = [sum(r["failed"] for r in s) / sum(r["attempted"] for r in s)
                  for s in (set_a, set_b)]
        correct = all(r["correct"] for r in set_a + set_b)
        rows = compare(spec, set_a, set_b)
        for name, med_a, med_b, sp_a, sp_b, sp_all, bound, ok in rows:
            print(f"{workload:<12} {name:<20} {med_a:>12.6g} {med_b:>12.6g} "
                  f"{sp_a:>9.4f} {sp_b:>9.4f} {sp_all:>7.4f} {bound:>6.3f}"
                  f"{'' if ok else '  FAIL'}")
        print(f"{workload:<12} failed share A={shares[0]:.6g} B={shares[1]:.6g} "
              f"correct={correct}")
        all_ok &= all(row[-1] for row in rows) and shares[0] == shares[1] and correct
        report[workload] = {"rows": rows, "failed_share": shares, "correct": correct,
                            "runs": [set_a, set_b]}
    out = HERE / "results" / f"stability-{time.strftime('%Y%m%dT%H%M%S')}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1))
    print(f"{'PASS' if all_ok else 'FAIL'}; raw results in {out.relative_to(ROOT)}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
