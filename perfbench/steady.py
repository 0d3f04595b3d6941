#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports how steady it is.

For every workload and every end-to-end metric it prints the median of the
runs and the spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, next to the
metric's bound from BENCHMARK.json. Run it from the checkout root:

    python3 perfbench/steady.py --seeds 1-10 --json set1.json
    python3 perfbench/steady.py --seeds 11-20 --json set2.json --against set1.json \
        --trajectory perfbench/trajectory.json --traced 1 --label "$(git rev-parse --short HEAD)"
    python3 perfbench/steady.py --workloads xkg-churn --seeds 1-5

A spread at or above a third of the bound is flagged, setup_s's too. With
--against, each median is also compared with the earlier set's: a shift by
more than the bound, in either direction, is flagged, since two sets of the
same code should agree. --trajectory appends both sets' medians, quartiles
and spreads as one entry; with --traced SEED, the entry also gets one traced
run per workload (its per-layer metrics and tracing overhead) and the
environment it ran in.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    start = time.time()
    proc = subprocess.run(args, capture_output=True, text=True)
    wall = time.time() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, wall


def traced_run(command, workload, seed, seconds):
    """One --trace 1 run: its per-layer metrics, and from its saved report the
    untraced end-to-end metrics, the tracing overhead and the environment."""
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "1"]
    proc = subprocess.run(args, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} traced: exit {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    path = next(l.split(": ", 1)[1] for l in lines if l.startswith("# report: "))
    with open(path) as f:
        rep = json.load(f)
    print(f"{workload} seed={seed} traced correct={result['correct']} failed={result['failed']} "
          f"overhead query_p50_ms {rep['trace_overhead']['query_p50_ms']:+.3f}", flush=True)
    run = {"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
           "failed": result["failed"],
           "per_layer": {k: v["value"] for k, v in result["metrics"].items()},
           "untraced_end_to_end": rep["untraced_end_to_end"], "trace_overhead": rep["trace_overhead"]}
    env = {k: v for k, v in rep["environment"].items() if k != "seed"}
    return run, env


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("inf"), med


def change(before, after):
    """The shift from before to after, as a share of before."""
    if before == 0:
        return 0.0 if after == 0 else float("inf")
    return (after - before) / before


def compare(first, second, metrics):
    ok = True
    print("second set against the first:")
    for w, data in second["workloads"].items():
        if w not in first["workloads"]:
            continue
        for m in metrics:
            a = first["workloads"][w]["metrics"][m["name"]].get("median")
            b = data["metrics"][m["name"]].get("median")
            if a is None or b is None or "bound" not in m:
                continue
            shift = change(a, b)
            flag = ""
            if abs(shift) > m["bound"]:
                flag = "  <-- moved by more than the bound"
                ok = False
            print(f"  {w:14s} {m['name']:24s} {a:12.6g} -> {b:12.6g} moved {shift:+.4f} (bound {m['bound']}){flag}")
    return ok


def digest(summary, metrics):
    out = {}
    for w, data in summary["workloads"].items():
        rows = {}
        for m in metrics:
            values = data["metrics"][m["name"]]["values"]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            rows[m["name"]] = {"unit": m["unit"], "median": statistics.median(values), "q1": q1, "q3": q3,
                               "spread": data["metrics"][m["name"]].get("spread")}
        runs = data["runs"]
        out[w] = {"runs": len(runs), "seeds": [r["seed"] for r in runs],
                  "failed": sum(r["result"]["failed"] for r in runs),
                  "all_correct": all(r["result"]["correct"] for r in runs), "metrics": rows}
    return out


def append_trajectory(path, label, first, second, metrics, traced, env):
    try:
        with open(path) as f:
            traj = json.load(f)
    except FileNotFoundError:
        traj = {"entries": []}
    entry = {"label": label, "date": time.strftime("%Y-%m-%d"), "seconds": second["seconds"],
             "sets": [digest(s, metrics) for s in (first, second) if s is not None]}
    if first is not None:
        shift = {}
        for w in second["workloads"]:
            shift[w] = {}
            for m in metrics:
                a = first["workloads"][w]["metrics"][m["name"]].get("median")
                b = second["workloads"][w]["metrics"][m["name"]].get("median")
                shift[w][m["name"]] = change(a, b)
        entry["second_median_change"] = shift
    if traced:
        entry["traced_run"] = traced
        entry["environment"] = env
    traj["entries"].append(entry)
    with open(path, "w") as f:
        json.dump(traj, f, indent=1)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--benchmark", default="BENCHMARK.json")
    ap.add_argument("--workloads", default="", help="comma-separated; default all")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--json", default="", help="write the runs and spreads here")
    ap.add_argument("--against", default="", help="an earlier --json output of the same code")
    ap.add_argument("--trajectory", default="", help="append an entry to this trajectory file")
    ap.add_argument("--label", default="", help="the trajectory entry's label, e.g. the commit")
    ap.add_argument("--traced", type=int, default=0, help="with --trajectory: also run each workload traced on this seed")
    opts = ap.parse_args()

    with open(opts.benchmark) as f:
        bench = json.load(f)
    workloads = opts.workloads.split(",") if opts.workloads else [w["name"] for w in bench["workloads"]]
    seeds = parse_seeds(opts.seeds)
    metrics = bench["end_to_end"] if opts.trace == 0 else bench["per_layer"]

    summary = {"seeds": seeds, "seconds": bench["run_seconds"], "trace": opts.trace, "workloads": {}}
    steady = True
    for w in workloads:
        runs = []
        for seed in seeds:
            result, wall = run_once(bench["command"], w, seed, bench["run_seconds"], opts.trace)
            ok = result["correct"] and result["failed"] == 0
            print(f"{w} seed={seed} wall={wall:.1f}s correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
            steady = steady and ok
            runs.append({"seed": seed, "wall_s": round(wall, 1), "result": result})
        rows = {}
        for m in metrics:
            values = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
            row = {"values": values}
            if len(values) >= 2:
                sp, med = spread(values)
                row.update(median=med, spread=sp)
                if "bound" in m:
                    row["bound"] = m["bound"]
                    flag = ""
                    if sp > m["bound"]:
                        flag = "  <-- above the bound"
                        steady = False
                    elif sp >= m["bound"] / 3:
                        flag = "  <-- above a third of the bound"
                        steady = False
                    print(f"  {m['name']:32s} median {med:14.6g} {m['unit']:6s} "
                          f"spread {sp:7.4f} bound {m['bound']}{flag}")
                else:
                    print(f"  {m['name']:32s} median {med:14.6g} {m['unit']:6s} spread {sp:7.4f}")
            rows[m["name"]] = row
        summary["workloads"][w] = {"runs": runs, "metrics": rows}
    if opts.against:
        with open(opts.against) as f:
            first = json.load(f)
        steady = compare(first, summary, metrics) and steady
    summary["steady"] = steady
    if opts.trajectory:
        traced, env = {}, {}
        if opts.traced:
            for w in workloads:
                traced[w], env = traced_run(bench["command"], w, opts.traced, bench["run_seconds"])
                steady = steady and traced[w]["correct"] and traced[w]["failed"] == 0
        append_trajectory(opts.trajectory, opts.label, first if opts.against else None, summary, metrics,
                          traced, env)
    if opts.json:
        with open(opts.json, "w") as f:
            json.dump(summary, f, indent=1)
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
