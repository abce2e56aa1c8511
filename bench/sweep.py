"""Run the benchmark over several seeds and collect one result set.

    python3 bench/sweep.py --out base.jsonl --seeds 1-10
    python3 bench/sweep.py --out traced.jsonl --seeds 1-3 --trace 1 --workloads verify

Each run is its own process, started one after another, so each workload
measures its own peak memory and no two runs compete for the processor.
Every line of the output file is one run: workload, seed, trace flag, the
run's result object and its ``detail`` object.  `compare.py` reads these
files.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN_TIMEOUT_S = 600


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", str(trace)]
    record = {"workload": workload, "seed": seed, "trace": trace}
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2 or not lines[-2].startswith("detail "):
        record["error"] = f"exit {proc.returncode}: {proc.stderr[-500:]}"
        return record
    record["detail"] = json.loads(lines[-2][len("detail ") :])
    record["result"] = json.loads(lines[-1])
    return record


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", required=True, help="JSON-lines file to append runs to")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    failed = 0
    with open(args.out, "a", encoding="utf-8") as out:
        for workload in args.workloads.split(","):
            for seed in seed_list(args.seeds):
                record = run_once(workload, seed, args.seconds, args.trace)
                out.write(json.dumps(record, sort_keys=True) + "\n")
                out.flush()
                result = record.get("result", {})
                ok = result.get("correct") is True
                failed += not ok
                note = record.get("error") or f"attempted {result['attempted']}, failed {result['failed']}"
                print(f"{workload} seed {seed}: {'ok' if ok else 'NOT CORRECT'} ({note})", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
