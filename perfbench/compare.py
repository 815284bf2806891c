"""Compare two results files of ``suite.py``: parent (A) against change (B).

    python3 perfbench/compare.py A.json B.json

One row per (end-to-end metric, workload): each side's median and
quartiles, the share of pairs B won (run i of A against run i of B; make the
runs alternate, for example with ``suite.py --runs 1 --append`` on each
checkout in turn) and a verdict by the pairs rule:

* improved   -- B wins at least 9/10 of the pairs and the medians differ by
                more than A's own spread (q3 - q1);
* unresolved -- A's spread, as a share of its median, is wider than the
                metric's bound, and not every B run beats every A run;
* no worse   -- B's median is not worse than A's by more than the bound;
* regressed  -- it is.

The per-layer table beside it shows each traced metric's median on each
side; counts are printed as counts.
"""

from __future__ import annotations

import json
import statistics
import sys

from suite import quartiles
from workloads import COUNT_METRICS, END_TO_END, PER_LAYER


def verdict(a: list[float], b: list[float], better: str, bound: float) -> tuple[float, str]:
    sign = 1.0 if better == "lower" else -1.0      # sign * (a - b) > 0: B is better
    pairs = list(zip(a, b))
    won = sum(sign * (x - y) > 0 for x, y in pairs) / len(pairs)
    qa1, ma, qa3 = quartiles(a)
    mb = statistics.median(b)
    if won >= 0.9 and sign * (ma - mb) > qa3 - qa1:
        return won, "improved"
    all_better = max(b) < min(a) if better == "lower" else min(b) > max(a)
    if (qa3 - qa1) / ma > bound and not all_better:
        return won, "unresolved"
    return won, "no worse" if sign * (mb - ma) / ma <= bound else "regressed"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with open(argv[0]) as fa, open(argv[1]) as fb:
        res_a, res_b = json.load(fa), json.load(fb)
    for label, res in (("A", res_a), ("B", res_b)):
        env = res["environment"]
        print(f"{label}: {env.get('git_sha', '?')[:12]} on {env.get('cpu_model')} "
              f"x{env.get('nproc')}, numpy {env.get('numpy')}, {env.get('openblas')}, "
              f"BLAS threads {env.get('blas_threads')}")
    print(f"\n{'workload':<20} {'metric':<13} {'A median [q1, q3]':>30} "
          f"{'B median [q1, q3]':>30} {'pairs':>9} verdict")
    regressed = False
    for name in res_a["end_to_end"]:
        runs_a, runs_b = res_a["end_to_end"][name], res_b["end_to_end"].get(name, [])
        if not runs_a or not runs_b:
            continue
        for m in END_TO_END:
            a = [r["metrics"][m.name]["value"] for r in runs_a]
            b = [r["metrics"][m.name]["value"] for r in runs_b]
            won, word = verdict(a, b, m.better, m.bound)
            regressed |= word == "regressed"
            cells = []
            for v in (a, b):
                q1, med, q3 = quartiles(v)
                cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}]")
            pairs = min(len(a), len(b))
            print(f"{name:<20} {m.name:<13} {cells[0]:>30} {cells[1]:>30} "
                  f"{won:>5.2f}/{pairs:<3} {word}")
        failed = [sum(r["failed"] for r in rs) / max(sum(r["attempted"] for r in rs), 1)
                  for rs in (runs_a, runs_b)]
        print(f"{name:<20} {'failed_frac':<13} {failed[0]:>30.4f} {failed[1]:>30.4f}")
        regressed |= failed[1] > failed[0]

    print(f"\n{'per-layer metric':<32} {'workload':<20} {'A':>14} {'B':>14}")
    for name in res_a.get("per_layer", {}):
        runs_a, runs_b = res_a["per_layer"][name], res_b.get("per_layer", {}).get(name, [])
        if not runs_a or not runs_b:
            continue
        for m in PER_LAYER:
            if any(m.name not in r["metrics"] for r in runs_a + runs_b):
                continue
            cells = []
            for runs in (runs_a, runs_b):
                med = statistics.median(r["metrics"][m.name]["value"] for r in runs)
                cells.append(f"{int(med):>14d}" if m.name in COUNT_METRICS else f"{med:>14.4f}")
            print(f"{m.name:<32} {name:<20} {cells[0]} {cells[1]}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
