#!/usr/bin/env python3
"""Alternating parent/change benchmark pairs, written as one BENCH_<n>.json.

Run with two checkouts to compare; the file is written in the current
directory:

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --number 28 \\
        --parent-label 0c4d4fd --change "what the change does" \\
        --workloads certify pade_table paths --seeds 1 2 3 4 5 6 7 8 9 10 7919

For each workload and each seed, in that order, runs

    python3 perfbench/run.py --workload WORKLOAD --seed SEED --seconds 38 --trace 0

once in PARENT_DIR and once in CHANGE_DIR, one after the other.  The side
that runs first alternates with the seed's position: the parent at the
first, third, ... seed, the change at the second, fourth, ...  Each run's
last output line (``correct``, ``attempted``, ``failed``, ``metrics``) is
kept as it is.

Per workload, ``summary`` gives for each end-to-end metric of
``BENCHMARK.json`` the first quartile, median and third quartile of each
side (``statistics.quantiles``, exclusive method), the pairs in which the
change is better and those that tie, the pair count, and the ratio of the
change's median to the parent's (null when the parent's is 0), all rounded
to 4 decimals.  The file is rewritten after every pair, so an interrupted
run keeps the pairs it finished.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SECONDS = 38  # the benchmark's own run length
COMMAND = f"python3 perfbench/run.py --workload WORKLOAD --seed SEED --seconds {SECONDS} --trace 0"


def _quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"q1": round(q1, 4), "median": round(median, 4), "q3": round(q3, 4)}


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per metric ``{"name", "better"}``: the quartiles of each side over the
    pairs, the change's wins and ties, the pair count and the median ratio."""
    summary = {}
    for metric in metrics:
        name, better = metric["name"], metric["better"]
        parent = [pair["parent"]["metrics"][name]["value"] for pair in pairs]
        change = [pair["change"]["metrics"][name]["value"] for pair in pairs]
        sign = 1.0 if better == "higher" else -1.0
        parent_median = statistics.median(parent)
        summary[name] = {
            "better": better,
            "parent": _quartiles(parent),
            "change": _quartiles(change),
            "change_wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
            "ties": sum(c == p for p, c in zip(parent, change)),
            "pairs": len(pairs),
            "median_ratio": round(statistics.median(change) / parent_median, 4) if parent_median else None,
        }
    return summary


def run_side(directory: Path, workload: str, seed: int) -> dict:
    """The last output line of one benchmark run in a checkout."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(SECONDS), "--trace", "0"]
    done = subprocess.run(argv, cwd=directory, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def host() -> str:
    import numpy

    return (f"{os.cpu_count()} vCPUs ({platform.machine()}), Python {platform.python_version()}, "
            f"NumPy {numpy.__version__}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_dir", type=Path)
    parser.add_argument("change_dir", type=Path)
    parser.add_argument("--number", type=int, required=True, help="n of the BENCH_<n>.json written")
    parser.add_argument("--parent-label", required=True, help="the parent's commit")
    parser.add_argument("--change", required=True, help="one line on what the change does")
    parser.add_argument("--workloads", nargs="+", default=["certify", "pade_table", "paths"])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 7919])
    args = parser.parse_args(argv)

    metrics = json.loads((args.change_dir / "BENCHMARK.json").read_text())["end_to_end"]
    checkouts = {"parent": args.parent_dir, "change": args.change_dir}
    out = Path(f"BENCH_{args.number}.json")
    record = {
        "workloads": args.workloads,
        "command": COMMAND,
        "host": host(),
        "parent": args.parent_label,
        "change": args.change,
        "method": (f"one parent and one change run per seed ({', '.join(map(str, args.seeds))}) at "
                   f"{SECONDS} s, alternating which side runs first; each side runs from its own checkout"),
    }
    for workload in args.workloads:
        pairs = []
        record[workload] = {"summary": {}, "pairs": pairs}
        for i, seed in enumerate(args.seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            runs = {side: run_side(checkouts[side], workload, seed) for side in order}
            pairs.append({"seed": seed, "first": order[0], "parent": runs["parent"], "change": runs["change"]})
            record[workload]["summary"] = summarize(pairs, metrics)
            out.write_text(json.dumps(record, indent=1) + "\n")
            ops = [runs[side]["metrics"]["ops_per_s"]["value"] for side in ("parent", "change")]
            print(f"{workload} seed {seed}: ops_per_s parent {ops[0]:.1f} change {ops[1]:.1f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
