#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each end-to-end metric's
median, quartiles and spread (interquartile range over median).

    python3 perfbench/prove.py --workloads fleet-solo --seeds 1-5
    python3 perfbench/prove.py --seeds 1-10 --record perfbench/baseline.json

Run it from the root of a checkout. --record writes the medians,
quartiles, spreads and per-seed digests into the "baseline" section of
the given JSON file and leaves its other sections as they are.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds_of(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed ({p.returncode}):\n{p.stderr}")
    digest = next((l.split("sha256=")[1] for l in lines if l.startswith("digest ")), None)
    return json.loads(lines[-1]), digest


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--record")
    args = ap.parse_args()

    summary = {}
    worst = 0.0
    for workload in args.workloads.split(","):
        values, digests, runs = {}, {}, []
        for seed in seeds_of(args.seeds):
            t0 = time.time()
            res, digest = run_once(workload, seed, args.seconds)
            digests[str(seed)] = digest
            runs.append({"seed": seed, "correct": res["correct"], "attempted": res["attempted"],
                         "failed": res["failed"], "elapsed_s": round(time.time() - t0, 1)})
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed={seed} correct={res['correct']} failed={res['failed']}/{res['attempted']} "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in sorted(res["metrics"].items())), flush=True)
        metrics = {}
        for m in bench["end_to_end"]:
            xs = values[m["name"]]
            q1, med, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med
            metrics[m["name"]] = {"unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                                  "spread": spread, "bound": m["bound"]}
            if m["name"] != "setup_s":
                worst = max(worst, spread / m["bound"])
            print(f"  {workload} {m['name']}: median {med:.5g} q1 {q1:.5g} q3 {q3:.5g} "
                  f"spread {spread:.4f} (bound {m['bound']}, a third {m['bound'] / 3:.4f})")
        summary[workload] = {"metrics": metrics, "digests": digests, "runs": runs}
    print(f"worst spread / bound (setup_s excluded): {worst:.3f}")

    if args.record:
        with open(args.record) as f:
            doc = json.load(f)
        doc["baseline"] = {
            "host": f"{platform.machine()}, {os.cpu_count()} CPUs, {platform.system()}",
            "recorded": time.strftime("%Y-%m-%d", time.gmtime()),
            "seeds": args.seeds,
            "run_seconds": args.seconds,
            "workloads": summary,
        }
        with open(args.record, "w") as f:
            json.dump(doc, f, indent=2)
            f.write("\n")


if __name__ == "__main__":
    main()
