"""Compare two checkouts with the pointloc benchmark in alternating pairs.

    python3 scripts/bench_pairs.py --parent DIR --change DIR --seeds 41-50 \
        --claim generate_s --out BENCH_N.json

For each seed and each workload in BENCHMARK.json, runs
``perfbench/run.py --trace 0`` once in each checkout, alternating which side
goes first (the parent on even pair numbers), one run at a time.  Writes
every run's metrics and context, then per workload and metric each side's
median and quartiles (``statistics.quantiles(n=4)``), how many pairs the
change won, lost and tied in the metric's better direction, and two
verdicts:

- ``claim_met``: the change won at least nine tenths of all pairs (ties
  count for neither) and its median is better than the parent's by more
  than the parent's quartile spread;
- ``unresolved``: the parent's quartile spread exceeds the metric's bound
  in BENCHMARK.json (a fraction of the parent's median), and not every run
  of the change reads better than every run of the parent.

The progress line names queries/s and each ``--claim`` metric.
``--trace-seed S`` adds one traced run per side and workload (``--trace 1``)
whose per-layer metrics are stored as well.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    context, result = (json.loads(line) for line in out.stdout.strip().splitlines()[-2:])
    return {"seed": seed, **result, "context": context["context"]}


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def compare(parent: list[dict], change: list[dict], spec: list[dict]) -> dict:
    out = {}
    for metric in spec:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        p = [r["metrics"][name]["value"] for r in parent]
        c = [r["metrics"][name]["value"] for r in change]
        diffs = [sign * (b - a) for a, b in zip(p, c)]
        before, after = summary(p), summary(c)
        spread = before["q3"] - before["q1"]
        wins = sum(d > 0 for d in diffs)
        all_better = min(sign * v for v in c) > max(sign * v for v in p)
        out[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "bound": metric["bound"],
            "parent": before,
            "change": after,
            "change_wins": wins,
            "change_losses": sum(d < 0 for d in diffs),
            "ties": sum(d == 0 for d in diffs),
            "claim_met": wins >= 0.9 * len(diffs)
            and sign * (after["median"] - before["median"]) > spread,
            "unresolved": spread > metric["bound"] * abs(before["median"]) and not all_better,
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--seeds", type=seeds_arg, required=True, help="e.g. 41-50")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace-seed", type=int, default=None)
    parser.add_argument(
        "--claim", action="append", default=[], help="a claimed metric, e.g. generate_s"
    )
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for name in args.claim:
        if name not in units:
            parser.error(f"--claim {name}: not an end-to-end metric of BENCHMARK.json")
    shown = ["queries_per_s", *(n for n in args.claim if n != "queries_per_s")]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    report = {
        "machine": {"platform": platform.platform(), "processor": platform.processor()},
        "seconds": args.seconds,
        "seeds": args.seeds,
        "claims": args.claim,
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        runs = {"parent": [], "change": []}
        for pair, seed in enumerate(args.seeds):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                started = time.time()
                runs[side].append(run(sides[side], workload, seed, args.seconds, 0))
                metrics = runs[side][-1]["metrics"]
                values = ", ".join(f"{n} {metrics[n]['value']:.4g} {units[n]}" for n in shown)
                print(f"{workload} seed {seed} {side}: {values} "
                      f"({time.time() - started:.0f} s)", file=sys.stderr, flush=True)
        entry = {
            "results_sha256_equal_per_seed": [
                p["context"]["results_sha256"] == c["context"]["results_sha256"]
                for p, c in zip(runs["parent"], runs["change"])
            ],
            "end_to_end": compare(runs["parent"], runs["change"], spec["end_to_end"]),
            "runs": runs,
        }
        if args.trace_seed is not None:
            entry["traced"] = {
                side: run(sides[side], workload, args.trace_seed, args.seconds, 1)
                for side in ("parent", "change")
            }
        report["workloads"][workload] = entry
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
