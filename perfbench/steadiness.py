#!/usr/bin/env python3
"""Measure how steady the benchmark's end-to-end metrics are.

Run from the repository root:

    python3 perfbench/steadiness.py run --seeds 1-10 -o perfbench/results/set-a.json
    python3 perfbench/steadiness.py compare perfbench/results/set-a.json perfbench/results/set-b.json

`run` runs the benchmark command from BENCHMARK.json once per workload and
seed (workloads interleaved, so a slow spell on the host hits them all),
with --seconds run_seconds --trace 0, and records for every workload and
end-to-end metric the ten values, their median and quartiles (as
statistics.quantiles(values, n=4) gives them) and the quartile distance as
a share of the median. `compare` checks a second set against a first: each
median may be worse than the first set's by at most the metric's bound.
It exits 1 when a spread (setup_s excepted) or a median shift is outside
its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def load_bench():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)}: exit {p.returncode}\n{p.stderr}")
    host = next((json.loads(l[len("host: "):]) for l in lines if l.startswith("host: ")), {})
    res = json.loads(lines[-1])
    if not res["correct"] or res["failed"]:
        sys.exit(f"{' '.join(cmd)}: incorrect result {lines[-1]}")
    return host, res


def run(args):
    bench = load_bench()
    seeds = parse_seeds(args.seeds)
    values = {w["name"]: {m["name"]: [] for m in bench["end_to_end"]} for w in bench["workloads"]}
    host = {}
    for seed in seeds:
        for w in bench["workloads"]:
            host, res = run_once(bench, w["name"], seed)
            for m in bench["end_to_end"]:
                values[w["name"]][m["name"]].append(res["metrics"][m["name"]]["value"])
            print(w["name"], seed, {k: v["value"] for k, v in res["metrics"].items()}, flush=True)
    report = {"seeds": seeds, "run_seconds": bench["run_seconds"], "host": host, "workloads": {}}
    ok = True
    for w, metrics in values.items():
        report["workloads"][w] = {}
        for m in bench["end_to_end"]:
            vs = metrics[m["name"]]
            q1, med, q3 = statistics.quantiles(vs, n=4)
            med = statistics.median(vs)
            spread = (q3 - q1) / med
            within = m["name"] == "setup_s" or spread <= m["bound"]
            ok &= within
            report["workloads"][w][m["name"]] = {
                "unit": m["unit"], "values": vs, "median": med, "q1": q1, "q3": q3,
                "spread": spread, "bound": m["bound"], "spread_within_bound": within,
            }
            print(f"{w:26s} {m['name']:12s} median {med:.6g} spread {spread:.4f} bound {m['bound']}")
    with open(args.o, "w") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
    return 0 if ok else 1


def compare(args):
    bench = load_bench()
    with open(args.first) as f:
        a = json.load(f)
    with open(args.second) as f:
        b = json.load(f)
    ok = True
    for w in bench["workloads"]:
        for m in bench["end_to_end"]:
            m1 = a["workloads"][w["name"]][m["name"]]["median"]
            m2 = b["workloads"][w["name"]][m["name"]]["median"]
            worse = (m2 - m1) / m1 if m["better"] == "lower" else (m1 - m2) / m1
            within = worse <= m["bound"]
            ok &= within
            print(f"{w['name']:26s} {m['name']:12s} {m1:.6g} -> {m2:.6g} worse by {worse:+.4f} "
                  f"(bound {m['bound']}) {'ok' if within else 'OUT OF BOUND'}")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--seeds", default="1-10", help="seed range, e.g. 1-10")
    r.add_argument("-o", required=True, help="report file to write")
    c = sub.add_parser("compare")
    c.add_argument("first")
    c.add_argument("second")
    args = ap.parse_args()
    return run(args) if args.cmd == "run" else compare(args)


if __name__ == "__main__":
    sys.exit(main())
