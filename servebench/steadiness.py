#!/usr/bin/env python3
"""Runs the benchmark as its acceptance check does and reports how steady
each end-to-end metric is.

Two sets, one after the other; each set runs every workload of
BENCHMARK.json ten times, each time with another seed. Per set and metric it
reports the median, the quartiles (as Python's
statistics.quantiles(values, n=4) gives them) and the quartile spread as a
share of the median; across the sets, how much worse the second median is
than the first, as a share of the first. Both must stay within the metric's
bound from BENCHMARK.json, `setup_s` included, and no run may fail.

Run from the repository root:

    python3 servebench/steadiness.py --seed-base 600 \\
        --out servebench/STEADINESS.json

Set one uses seeds base..base+9, set two base+10..base+19. Each run is
`bash servebench/run.sh --workload W --seed S --seconds T --trace 0`, never
in parallel: the machine is part of the measurement.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

RUNS = 10
SETS = 2


def run_once(workload, seed, seconds):
    cmd = ["bash", "servebench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {out.returncode}: {out.stderr[-2000:]}")
    return json.loads(lines[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2}


def run_set(bench, seeds):
    """Every workload, once per seed: {workload: {"failed_runs", "wall_s_median", "metrics"}}."""
    result = {}
    for w in (x["name"] for x in bench["workloads"]):
        values, failures, walls = {}, 0, []
        for seed in seeds:
            started = time.time()
            r = run_once(w, seed, bench["run_seconds"])
            walls.append(time.time() - started)
            if not r["correct"] or r["failed"]:
                failures += 1
            for name, m in r["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        metrics = {name: dict(spread(vs), values=vs) for name, vs in values.items()}
        result[w] = {"failed_runs": failures, "wall_s_median": statistics.median(walls),
                     "metrics": metrics}
    return result


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed-base", type=int, default=100)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    seeds = [[args.seed_base + k * RUNS + i for i in range(RUNS)] for k in range(SETS)]
    sets = [run_set(bench, s) for s in seeds]

    ok = True
    verdicts = {}
    for w in sets[0]:
        failed = [s[w]["failed_runs"] for s in sets]
        ok &= not any(failed)
        print(f"## {w}  (failed runs per set: {failed}, "
              f"wall per run: {sets[0][w]['wall_s_median']:.1f}s)")
        rows = {}
        for name, m in e2e.items():
            a, b = (s[w]["metrics"][name] for s in sets)
            worse = b["median"] / a["median"] - 1
            if m["better"] == "higher":
                worse = -worse
            spreads = [a["spread"], b["spread"]]
            failures = []
            if max(spreads) > m["bound"]:
                failures.append("SPREAD OVER BOUND")
            if worse > m["bound"]:
                failures.append("MEDIAN DRIFT OVER BOUND")
            ok &= not failures
            notes = failures or (["spread over a third of bound"]
                                 if max(spreads) > m["bound"] / 3 else [])
            rows[name] = {"bound": m["bound"], "spreads": spreads, "medians":
                          [a["median"], b["median"]], "second_worse_by": worse, "notes": notes}
            print(f"  {name:<22} medians {a['median']:>11.4f} {b['median']:>11.4f}"
                  f"  worse by {worse:+.4f}  spreads {spreads[0]:.4f} {spreads[1]:.4f}"
                  f"  bound {m['bound']}  {'; '.join(notes)}")
        verdicts[w] = rows

    if args.out:
        report = {"runs_per_set": RUNS, "seeds": seeds, "seconds": bench["run_seconds"],
                  "ok": ok, "comparison": verdicts, "sets": sets}
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1, sort_keys=True)
            f.write("\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
