"""Compare benchmark results of two commits, or show the spread of one.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl
    python3 perfbench/compare.py RESULTS.jsonl

Inputs are files written by ``run.py --out``.  For each workload and
end-to-end metric the comparison prints both sides' median and quartiles,
the share of seed-matched pairs the change won (ties count for neither),
and a verdict under the bounds in BENCHMARK.json:

better        the change wins at least 9 in 10 pairs and the medians differ
              by more than the parent's own quartile spread
unresolved    the parent's quartile spread, as a share of its median, is
              wider than the bound, and not every change run beats every
              parent run
worse         the change's median is worse than the parent's by more than
              the bound
within bound  otherwise

WRONG         some run of the workload, on either side, gave a wrong answer
              or raised an unexpected exception (``correct`` false); its
              timings are not compared

Failed ops are totalled per side; a gain does not count on a workload where
a larger share of ops failed on the change.  With one file it prints each
metric's quartile spread as a share of its median next to the bound, which
is how the steadiness of the benchmark itself is checked; the exit code is
1 when a spread is not below a third of its bound or a run was wrong.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> dict[str, list[dict]]:
    """Untraced records by workload."""
    out: dict[str, list[dict]] = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            rec = json.loads(line)
            if not rec["trace"]:
                out.setdefault(rec["workload"], []).append(rec)
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def values(records: list[dict], metric: str) -> dict[int, float]:
    return {r["seed"]: r["metrics"][metric]["value"] for r in records
            if metric in r["metrics"]}


def verdict(a: dict[int, float], b: dict[int, float], bound: float, lower: bool):
    qa, qb = quartiles(list(a.values())), quartiles(list(b.values()))
    sign = 1 if lower else -1
    seeds = sorted(set(a) & set(b))
    wins = sum(sign * (a[s] - b[s]) > 0 for s in seeds)
    share = wins / len(seeds) if seeds else 0.0
    worse = sign * (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
    spread = (qa[2] - qa[0]) / qa[1] if qa[1] else 0.0
    all_better = all(sign * (x - y) > 0 for x in a.values() for y in b.values())
    if share >= 0.9 and sign * (qa[1] - qb[1]) > qa[2] - qa[0]:
        word = "better"
    elif spread > bound and not all_better:
        word = "unresolved"
    elif worse > bound:
        word = "worse"
    else:
        word = "within bound"
    return qa, qb, share, len(seeds), word


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    metrics = spec["end_to_end"]
    sides = [load(p) for p in argv]
    status = 0
    for workload in sorted(set().union(*sides)):
        failed = [(sum(r["failed"] for r in side.get(workload, [])),
                   sum(r["attempted"] for r in side.get(workload, []))) for side in sides]
        print(workload, " ".join(f"failed {f}/{a}" for f, a in failed))
        wrong = [sum(not r["correct"] for r in side.get(workload, [])) for side in sides]
        if any(wrong):
            print("  WRONG: " + ", ".join(f"{n} incorrect runs in {path}"
                                          for n, path in zip(wrong, argv) if n))
            status = 1
            continue
        if len(sides) == 2 and failed[1][0] * failed[0][1] > failed[0][0] * failed[1][1]:
            print("  more ops failed on the change: no gain counts on this workload")
        for m in metrics:
            name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
            a = values(sides[0].get(workload, []), name)
            if not a:
                continue
            if len(sides) == 1:
                q1, q2, q3 = quartiles(list(a.values()))
                spread = (q3 - q1) / q2 if q2 else 0.0
                flag = "ok" if spread < bound / 3 else "WIDE"
                print(f"  {name:12s} n={len(a):2d} median {q2:12.6g} {m['unit']:3s} "
                      f"q1 {q1:12.6g} q3 {q3:12.6g} spread {spread:7.2%} "
                      f"bound {bound:.0%} {flag}")
                status |= flag != "ok"
                continue
            b = values(sides[1].get(workload, []), name)
            if not b:
                print(f"  {name:12s} missing in the change's results")
                continue
            qa, qb, share, pairs, word = verdict(a, b, bound, lower)
            print(f"  {name:12s} parent {qa[1]:11.6g} [{qa[0]:.6g}, {qa[2]:.6g}]  "
                  f"change {qb[1]:11.6g} [{qb[0]:.6g}, {qb[2]:.6g}] {m['unit']:3s} "
                  f"won {share:4.0%} of {pairs} pairs  {word}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
