"""Compare two result sets written by `sweep.py`, or show one set's spread.

    python3 bench/compare.py base.jsonl new.jsonl
    python3 bench/compare.py base.jsonl

With two sets, each row is one workload and metric: the median and
quartiles of each side, and the ratio new/base with the base median
printed beside it.  A row is flagged WORSE when the new median is worse
than the base median by more than the metric's bound in BENCHMARK.json,
and UNRESOLVED when either side's spread (quartile distance over median)
is wider than that bound, unless every new run is better than every base
run.  Per-layer metrics have no bound and are never flagged.  Per-program
rows give each program class's median time per operation, and their
ratios go into a geometric mean per workload.  The exit status is 1 when
any row is flagged WORSE.

With one set, each row shows the spread of a metric as a share of its
bound; a steady benchmark keeps every spread below a third of it.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> list[dict]:
    records = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            records.append(json.loads(line))
    return records


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else (0.0 if q3 == q1 else math.inf)


def metric_values(records: list[dict]) -> dict[tuple[str, str], list[float]]:
    out = defaultdict(list)
    for rec in records:
        if "result" not in rec:
            continue
        for name, metric in rec["result"]["metrics"].items():
            out[(rec["workload"], name)].append(metric["value"])
    return out


def program_medians(records: list[dict]) -> dict[tuple[str, str], float]:
    samples = defaultdict(list)
    for rec in records:
        for label, seconds in rec.get("detail", {}).get("programs", {}).items():
            samples[(rec["workload"], label)].append(seconds)
    return {key: statistics.median(v) for key, v in samples.items()}


def specs() -> dict[str, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = {m["name"]: m for m in spec["end_to_end"]}
    for m in spec["per_layer"]:
        out[m["name"]] = {**m, "bound": None}
    return out


def report_errors(records: list[dict], label: str) -> None:
    for rec in records:
        if "error" in rec or rec["result"]["correct"] is not True:
            print(f"{label}: {rec['workload']} seed {rec['seed']}: {rec.get('error') or 'NOT CORRECT'}")


def show_spread(records: list[dict]) -> int:
    spec = specs()
    report_errors(records, "run")
    print(f"{'workload':18} {'metric':42} {'n':>3} {'median':>14} {'spread':>8} {'bound':>6}  status")
    for (workload, name), values in sorted(metric_values(records).items()):
        bound = spec.get(name, {}).get("bound")
        s = spread(values)
        status = ""
        if bound is not None:
            status = "steady" if s <= bound / 3 else ("within bound" if s <= bound else "TOO WIDE")
        shown_bound = f"{bound:.2f}" if bound is not None else "-"
        print(f"{workload:18} {name:42} {len(values):3} {statistics.median(values):14.6g} {s:8.4f} {shown_bound:>6}  {status}")
    return 0


def show_comparison(base: list[dict], new: list[dict]) -> int:
    spec = specs()
    report_errors(base, "base")
    report_errors(new, "new")
    base_values, new_values = metric_values(base), metric_values(new)
    worse = 0
    print(f"{'workload':18} {'metric':42} {'base median [q1, q3]':>34} {'new median [q1, q3]':>34} {'new/base':>9}  flag")
    for key in sorted(set(base_values) & set(new_values)):
        workload, name = key
        b, n = base_values[key], new_values[key]
        bq1, bmed, bq3 = quartiles(b)
        nq1, nmed, nq3 = quartiles(n)
        ratio = nmed / bmed if bmed else math.inf
        meta = spec.get(name, {"better": "lower", "bound": None})
        higher = meta["better"] == "higher"
        flag = ""
        if meta["bound"] is not None:
            bound = meta["bound"]
            regress = ratio < 1 - bound if higher else ratio > 1 + bound
            all_better = min(n) > max(b) if higher else max(n) < min(b)
            if regress:
                flag = "WORSE"
                worse += 1
            elif (spread(b) > bound or spread(n) > bound) and not all_better:
                flag = "UNRESOLVED"
        print(
            f"{workload:18} {name:42} {bmed:12.6g} [{bq1:9.4g}, {bq3:9.4g}] "
            f"{nmed:12.6g} [{nq1:9.4g}, {nq3:9.4g}] {ratio:9.4f}  {flag}"
        )

    base_programs, new_programs = program_medians(base), program_medians(new)
    ratios = defaultdict(list)
    print(f"\n{'workload':18} {'program':28} {'base s/op':>12} {'new s/op':>12} {'new/base':>9}")
    for key in sorted(set(base_programs) & set(new_programs)):
        ratio = new_programs[key] / base_programs[key]
        ratios[key[0]].append(ratio)
        print(f"{key[0]:18} {key[1]:28} {base_programs[key]:12.6f} {new_programs[key]:12.6f} {ratio:9.4f}")
    for workload, values in sorted(ratios.items()):
        geomean = math.exp(sum(math.log(r) for r in values) / len(values))
        print(f"{workload:18} {'geometric mean':28} {'':12} {'':12} {geomean:9.4f}  (new/base, {len(values)} programs)")
    return 1 if worse else 0


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    if len(args) == 1:
        return show_spread(load(args[0]))
    return show_comparison(load(args[0]), load(args[1]))


if __name__ == "__main__":
    sys.exit(main())
