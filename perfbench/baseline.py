"""Run the benchmark over many seeds and summarize each metric's spread.

    python3 perfbench/baseline.py --seeds 1-10 [--sets 2] [--trace 1]
        [--record-digests] [--write FILE] [--verbose]

`--seeds 1 --verbose` runs every workload once and shows each run's report.

Runs perfbench/run.py once per (workload, seed), one after another, for
every workload and seconds=run_seconds in BENCHMARK.json, and prints, per
metric, the median, the quartiles from statistics.quantiles(values, n=4),
and the spread (q3 - q1) / |median|. For end-to-end metrics the spread is
compared with the metric's bound: "steady" below a third of it. With
--sets 2 every workload's seeds run once more after all the first set's
runs, and each metric's second median is compared with its first: the
change must stay within the bound. Exits 1 unless every end-to-end metric
is steady in every set and the sets agree. --write stores the summary in a
JSON file (the committed baseline is perfbench/baseline.json).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int,
             record: bool) -> tuple[dict, dict, list[str]]:
    """(result JSON, environment, report lines) of one benchmark run;
    raises on failure."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if record:
        cmd.append("--record-digests")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stdout}\n{proc.stderr}")
    env_line = next(line for line in lines if line.startswith("environment: "))
    env = json.loads(env_line.split(": ", 1)[1])
    return json.loads(lines[-1]), env, lines[:-1]


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else 0.0, "values": values}


def run_set(workloads, seeds, seconds, trace, record, verbose) -> tuple[dict, dict]:
    """({workload: {metric: (unit, values over seeds)}}, environment) of one
    set of runs."""
    found: dict = {}
    for workload in workloads:
        per_metric = found.setdefault(workload, {})
        for seed in seeds:
            result, env, report = run_once(workload, seed, seconds, trace, record)
            if verbose:
                print("\n".join(f"| {line}" for line in report), flush=True)
            if not result["correct"]:
                raise RuntimeError(f"{workload} seed {seed}: output checks failed")
            for name, metric in result["metrics"].items():
                per_metric.setdefault(name, (metric["unit"], []))[1].append(metric["value"])
        print(f"  ran {workload} on {len(seeds)} seeds", flush=True)
    return found, {k: v for k, v in env.items() if k != "seed"}


def verdict(spread: float, bound: float) -> str:
    if spread < bound / 3:
        return "steady"
    return "within bound" if spread <= bound else "TOO WIDE"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    p.add_argument("--sets", type=int, default=1,
                   help="run every (workload, seed) this many times, set after set")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-digests", action="store_true")
    p.add_argument("--write", type=Path, default=None)
    p.add_argument("--verbose", action="store_true",
                   help="print every run's report and every value")
    args = p.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    section = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in bench[section]}
    seeds = seed_list(args.seeds)

    sets, env = [], {}
    for i in range(args.sets):
        print(f"set {i + 1} of {args.sets}:", flush=True)
        found, env = run_set(workloads, seeds, seconds, args.trace,
                             args.record_digests, args.verbose)
        sets.append(found)

    summary, ok = {}, True
    for workload in workloads:
        print(f"{workload} ({len(seeds)} seeds x {len(sets)} sets, {section}):")
        summary[workload] = {}
        for name, (unit, _) in sets[0][workload].items():
            bound = bounds.get(name)
            per_set = [summarize(s[workload][name][1]) if len(seeds) > 1
                       else {"median": s[workload][name][1][0]} for s in sets]
            entry = summary[workload][name] = {"unit": unit, "sets": per_set}
            notes = []
            for s in per_set:
                if "spread" in s:
                    notes.append(f"spread {s['spread']:.4f}")
                    if bound is not None:
                        notes[-1] += f" {verdict(s['spread'], bound)}"
                        ok &= s["spread"] < bound / 3
            first, last = per_set[0]["median"], per_set[-1]["median"]
            if len(sets) > 1 and first:
                entry["set_change"] = change = (last - first) / abs(first)
                notes.append(f"sets differ {change:+.4f}")
                if bound is not None:
                    agree = abs(change) <= bound
                    notes[-1] += " agree" if agree else " DISAGREE"
                    ok &= agree
            medians = " / ".join(f"{s['median']:.6g}" for s in per_set)
            print(f"  {name:28s} median {medians:<24s} {unit:6s} " + "; ".join(notes)
                  + (f" (bound {bound})" if bound is not None else ""))
            if args.verbose:
                for s in sets:
                    print("    " + " ".join(f"{v:.6g}" for v in s[workload][name][1]))
        sys.stdout.flush()

    if args.write:
        data = json.loads(args.write.read_text()) if args.write.exists() else {}
        data["environment"] = env
        data.setdefault("runs", {})[section] = {
            "seeds": args.seeds, "sets": args.sets, "seconds": seconds,
            "command": f"python3 perfbench/baseline.py --seeds {args.seeds} "
                       f"--sets {args.sets} --trace {args.trace}"}
        data[section] = summary
        args.write.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
