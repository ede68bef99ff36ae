#!/usr/bin/env python3
"""Stability tooling for the benchmark defined in BENCHMARK.json.

  python3 perfbench/stability.py run --runs 10 --out a.json [--seconds S]
          [--workloads l3_micro,dvh_apps] [--first-seed 1] [--trace]
  python3 perfbench/stability.py show a.json
  python3 perfbench/stability.py compare a.json b.json

`run` runs every workload N times, interleaved (run i of each workload
before run i+1 of any), run i with seed first-seed + i, and saves every
result line. `show` prints, per workload and metric, the median, the
quartiles and IQR / median against the metric's bound; an exact count
(unit `count` or `B`) must read the same in every run. `compare` checks
a second set of runs against a first: for each end-to-end metric and
workload, whether the second median is worse than the first by more
than the bound. It exits 1 when one is, or when a run failed a check.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
EXACT_UNITS = {"count", "B"}


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run(args):
    s = spec()
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in s["workloads"]]
    seconds = args.seconds or s["run_seconds"]
    results = {w: [] for w in workloads}
    for i in range(args.runs):
        for w in workloads:
            seed = args.first_seed + i
            cmd = s["command"] + ["--workload", w, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", "1" if args.trace else "0"]
            p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if p.returncode != 0:
                sys.exit(f"{w} seed {seed}: exit {p.returncode}\n{p.stderr}")
            line = json.loads(p.stdout.strip().splitlines()[-1])
            line["seed"] = seed
            results[w].append(line)
            print(f"run {i + 1}/{args.runs} {w} seed {seed}: correct={line['correct']} "
                  f"failed={line['failed']}/{line['attempted']}", file=sys.stderr)
    out = {"trace": args.trace, "seconds": seconds, "results": results}
    pathlib.Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return show_data(out)


def bounds():
    s = spec()
    return {m["name"]: m for m in s["end_to_end"] + s["per_layer"]}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def show_data(data):
    b = bounds()
    bad = 0
    for w, lines in data["results"].items():
        failed = sum(l["failed"] for l in lines)
        attempted = sum(l["attempted"] for l in lines)
        print(f"\n{w}: {len(lines)} runs, fail_rate {failed / attempted:g} ({failed}/{attempted})")
        bad += failed
        print(f"  {'metric':<44} {'unit':<7} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'iqr/med':>8} {'bound':>6}")
        for name in sorted(lines[0]["metrics"]):
            vals = [l["metrics"][name]["value"] for l in lines]
            unit = lines[0]["metrics"][name]["unit"]
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / abs(med) if med else float("inf") if q3 != q1 else 0.0
            bound = b.get(name, {}).get("bound")
            note = ""
            if unit in EXACT_UNITS:
                note = "exact" if len(set(vals)) == 1 else "VARIES"
            elif bound is not None:
                note = "ok" if spread <= bound / 3 else ("within bound" if spread <= bound else "OVER")
            print(f"  {name:<44} {unit:<7} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                  f"{spread:>8.4f} {bound if bound is not None else '':>6} {note}")
    return 1 if bad else 0


def show(args):
    return show_data(json.loads(pathlib.Path(args.file).read_text()))


def compare(args):
    a = json.loads(pathlib.Path(args.first).read_text())["results"]
    c = json.loads(pathlib.Path(args.second).read_text())["results"]
    worse = 0
    print(f"{'workload':<12} {'metric':<16} {'first':>14} {'second':>14} {'worse by':>9} "
          f"{'bound':>6} {'spread':>7}")
    for m in spec()["end_to_end"]:
        for w in a:
            if w not in c:
                continue
            va = [l["metrics"][m["name"]]["value"] for l in a[w]]
            vc = [l["metrics"][m["name"]]["value"] for l in c[w]]
            q1, ma, q3 = quartiles(va)
            mc = statistics.median(vc)
            change = (mc - ma) / ma if m["better"] == "lower" else (ma - mc) / ma
            spread = (q3 - q1) / ma
            verdict = "ok"
            if change > m["bound"]:
                verdict = "REGRESSED"
                worse += 1
            elif spread > m["bound"]:
                verdict = "unresolved"
            print(f"{w:<12} {m['name']:<16} {ma:>14.6g} {mc:>14.6g} {change:>9.4f} "
                  f"{m['bound']:>6} {spread:>7.4f} {verdict}")
    failed = sum(l["failed"] for lines in c.values() for l in lines)
    return 1 if worse or failed else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--out", required=True)
    r.add_argument("--seconds", type=int)
    r.add_argument("--workloads")
    r.add_argument("--first-seed", type=int, default=1)
    r.add_argument("--trace", action="store_true")
    r.set_defaults(fn=run)
    s = sub.add_parser("show")
    s.add_argument("file")
    s.set_defaults(fn=show)
    c = sub.add_parser("compare")
    c.add_argument("first")
    c.add_argument("second")
    c.set_defaults(fn=compare)
    args = ap.parse_args()
    sys.exit(args.fn(args))


if __name__ == "__main__":
    main()
