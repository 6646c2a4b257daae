#!/usr/bin/env python3
"""Steadiness report: do two sets of benchmark runs agree?

Runs the command in BENCHMARK.json ten times on every workload, once
per seed, in two sets with different seeds, saving each run's result
line under OUT/set-<k>/. Then, for every (workload, end-to-end metric)
pair, prints each set's median and quartiles and whether the sets agree
within the metric's bound: each set's quartile spread (q3 - q1) / median
must stay within the bound, and the two medians may not differ by more
than the bound in either direction. setup_s is exempt from the spread
check, as in the benchmark's acceptance rule: its value depends on the
seed's household or world, so only its median across runs is compared.

    python3 perfbench/steadiness.py [--out .bench_build/steadiness]
    python3 perfbench/steadiness.py --compare SET_1 SET_2

Run from the repository root. Exits 1 when any pair disagrees or a run
was not correct.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
RUNS = 10
SETS = 2


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_sets(spec, out):
    for s in range(SETS):
        d = out / f"set-{s + 1}"
        d.mkdir(parents=True, exist_ok=True)
        for w in [x["name"] for x in spec["workloads"]]:
            for k in range(RUNS):
                seed = 1000 * (s + 1) + k
                cmd = spec["command"] + [
                    "--workload", w, "--seed", str(seed),
                    "--seconds", str(spec["run_seconds"]), "--trace", "0",
                ]
                p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
                lines = p.stdout.strip().splitlines()
                if p.returncode != 0 or not lines:
                    sys.exit(f"{w} seed {seed}: exit {p.returncode}\n{p.stderr[-2000:]}")
                (d / f"{w}-{seed}.json").write_text(lines[-1] + "\n")
                print(f"set {s + 1} {w} seed {seed}: {lines[-1]}", flush=True)
    return [out / f"set-{s + 1}" for s in range(SETS)]


def read_set(d):
    """{workload: {metric: [values]}} plus the runs that were not correct."""
    values, wrong = {}, []
    for f in sorted(pathlib.Path(d).glob("*.json")):
        workload = f.stem.rsplit("-", 1)[0]
        r = json.loads(f.read_text())
        if not r["correct"]:
            wrong.append(f.name)
        for name, m in r["metrics"].items():
            values.setdefault(workload, {}).setdefault(name, []).append(m["value"])
    return values, wrong


def summary(xs):
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return med, q1, q3, (q3 - q1) / med


def report(spec, dirs):
    sets = [read_set(d) for d in dirs]
    ok = True
    for d, (_, wrong) in zip(dirs, sets):
        if wrong:
            ok = False
            print(f"{d}: runs not correct: {', '.join(wrong)}")
    print(f"{'workload':<16} {'metric':<14} " + " ".join(
        f"{'set ' + str(i + 1) + ' median [q1, q3] spread':<40}" for i in range(len(sets)))
        + f" {'drift':>7} {'bound':>6}  verdict")
    for w in [x["name"] for x in spec["workloads"]]:
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            stats = [s[0].get(w, {}).get(name, []) for s in sets]
            if any(len(v) < 2 for v in stats):
                print(f"{w:<16} {name:<14} missing runs")
                ok = False
                continue
            sums = [summary(v) for v in stats]
            cells = " ".join(
                f"{med:>10.4g} [{q1:.4g}, {q3:.4g}] {100 * sp:5.1f}%".ljust(40)
                for med, q1, q3, sp in sums)
            first, last = sums[0][0], sums[1][0]
            drift = (last - first) / first
            spread_checked = name != "setup_s"
            verdict = []
            if spread_checked and any(sp > bound for _, _, _, sp in sums):
                verdict.append("SPREAD")
            if abs(drift) > bound:
                verdict.append("DRIFT")
            if not verdict and spread_checked and any(sp > bound / 3 for _, _, _, sp in sums):
                verdict.append("ok (spread above a third of the bound)")
            if not verdict and not spread_checked:
                verdict.append("ok (spread exempt)")
            ok &= not any(v in ("SPREAD", "DRIFT") for v in verdict)
            print(f"{w:<16} {name:<14} {cells} {100 * drift:6.1f}% {100 * bound:5.0f}%  "
                  + (" ".join(verdict) or "ok"))
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out", default=".bench_build/steadiness")
    ap.add_argument("--compare", nargs=SETS, metavar=("SET_1", "SET_2"),
                    help="report on two saved sets instead of running")
    a = ap.parse_args()
    spec = load_spec()
    dirs = a.compare or run_sets(spec, ROOT / a.out)
    sys.exit(0 if report(spec, dirs) else 1)


if __name__ == "__main__":
    main()
