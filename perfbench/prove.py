"""Check the benchmark's run-to-run spread against its bounds.

Usage, from the repository root::

    python3 perfbench/prove.py [--workloads a,b] [--seeds 1-10]
        [--held-out 1001] [--out perfbench/calibration.json]

Runs ``perfbench/run.py`` once per seed and workload (one process at a
time, ``run_seconds`` from ``BENCHMARK.json`` each), then reports for
every end-to-end metric the median of the runs and their spread, the
distance between the first and third quartiles as a share of the median,
against the bound in ``BENCHMARK.json``.  The runs go in rounds: each
seed runs every workload in turn, so a slow drift of the host spreads
over all seeds and workloads instead of showing as one workload's seed
spread.  With ``--held-out``, one more round on an unused seed, run in
the middle of the others, is judged against those medians: a metric
passes when it is no worse than the median by more than its bound, and
the held-out seed must give the same verdict (pass) as the calibration
seeds.  The summary goes to ``--out``; the exit code is 1 when any
spread exceeds its bound, the held-out verdict differs, or a run failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: float) -> dict:
    completed = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", f"{seconds:g}", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed} exited {completed.returncode}:\n"
            f"{completed.stdout}\n{completed.stderr}"
        )
    return json.loads(lines[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(value: float, reference: float, better: str) -> float:
    """How much worse ``value`` is than ``reference``, as a share."""
    if better == "lower":
        return value / reference - 1.0
    return reference / value - 1.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--held-out", type=int, default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in spec["workloads"]])
    seeds = _seeds(args.seeds)
    rounds = list(seeds)
    if args.held_out is not None:
        rounds.insert(len(seeds) // 2, args.held_out)
    runs: dict = {name: {} for name in names}
    walls: dict = {name: [] for name in names}
    for seed in rounds:
        for name in names:
            started = time.monotonic()
            runs[name][seed] = run_once(name, seed, seconds)
            walls[name].append(time.monotonic() - started)
            print(f"  ran {name} seed {seed} in {walls[name][-1]:.1f} s",
                  file=sys.stderr, flush=True)

    summary: dict = {"seeds": seeds, "held_out_seed": args.held_out,
                     "rounds": rounds, "seconds": seconds, "workloads": {}}
    ok = True
    for name in names:
        report: dict = {"wall_s_per_run": statistics.mean(walls[name]),
                        "metrics": {}}
        held = runs[name].get(args.held_out)
        print(f"== {name}  ({len(seeds)} seeds, "
              f"{report['wall_s_per_run']:.1f} s per run)")
        for metric in spec["end_to_end"]:
            key = metric["name"]
            values = [runs[name][seed]["metrics"][key]["value"]
                      for seed in seeds]
            med = statistics.median(values)
            entry = {
                "median": med,
                "spread": spread(values),
                "bound": metric["bound"],
                "values": values,
            }
            flag = ""
            if entry["spread"] > metric["bound"]:
                flag, ok = "  SPREAD OVER BOUND", False
            elif entry["spread"] > metric["bound"] / 3:
                flag = "  spread over bound/3"
            if held is not None:
                value = held["metrics"][key]["value"]
                entry["held_out"] = value
                entry["held_out_pass"] = (
                    worse_by(value, med, metric["better"]) <= metric["bound"]
                )
                if not entry["held_out_pass"]:
                    flag += "  HELD-OUT VERDICT DIFFERS"
                    ok = False
            print(f"  {key:<24}{med:>14.6g}  spread {entry['spread']:.4f}"
                  f"  bound {metric['bound']}{flag}")
            report["metrics"][key] = entry
        report["failed"] = sum(r["failed"] for r in runs[name].values())
        report["all_correct"] = all(r["correct"]
                                    for r in runs[name].values())
        ok = ok and report["all_correct"] and report["failed"] == 0
        summary["workloads"][name] = report
    summary["pass"] = ok
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
