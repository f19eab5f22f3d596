"""A/B two source trees with the performance ledger on one machine.

  python3 .github/scripts/ledger_ab.py BASE HEAD [--pairs 5] [--seconds 5]
      [--out DIR]

BASE and HEAD are checkouts of this repository (say, a merge-base in a
second directory and the change under test). For every workload of
HEAD's BENCHMARK.json, the script runs

  sh bench/ledger/run.sh --workload W --seed 0 --trace 0 --seconds S

in each tree, in interleaved pairs that swap which tree goes first on
each pair, so slow drift of the host hits both sides alike. It then
prints calibrate.py's report (median and quartile spread per side, and
the shift of HEAD against BASE) and exits 1 if

  - any run does not report itself correct,
  - HEAD fails more ops than BASE on a workload, or
  - HEAD's median of an end-to-end metric is worse than BASE's by more
    than that metric's bound in BENCHMARK.json.

Both trees run on the same host in the same session, so the gate does
not depend on how fast the host is. A slowdown smaller than a bound
passes by design; the bounds are the benchmark's own noise allowance.
The per-run result lines are kept in DIR (default: a temporary
directory) as base.jsonl and head.jsonl, in calibrate.py's format.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile


def run_once(tree, workload, seconds):
    cmd = ["sh", "bench/ledger/run.sh", "--workload", workload,
           "--seed", "0", "--trace", "0", "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr)
        sys.exit(f"ledger_ab: {' '.join(cmd)} failed in {tree} "
                 f"(exit {proc.returncode})")
    result = json.loads(lines[-1])
    result.update(workload=workload, seed=0, trace=0,
                  info=json.loads(lines[-2]))
    return result


def main(argv):
    ap = argparse.ArgumentParser(
        description="A/B two trees with the performance ledger.")
    ap.add_argument("base")
    ap.add_argument("head")
    ap.add_argument("--pairs", type=int, default=5)
    ap.add_argument("--seconds", type=int, default=5)
    ap.add_argument("--out", default=None,
                    help="directory for base.jsonl and head.jsonl")
    args = ap.parse_args(argv)
    # Quartiles need at least two runs per side.
    if args.pairs < 2 or args.seconds <= 0:
        ap.error("--pairs must be >= 2 and --seconds > 0")
    base, head = os.path.abspath(args.base), os.path.abspath(args.head)
    out = args.out or tempfile.mkdtemp(prefix="ledger_ab.")
    os.makedirs(out, exist_ok=True)
    paths = {base: os.path.join(out, "base.jsonl"),
             head: os.path.join(out, "head.jsonl")}
    for p in paths.values():
        open(p, "w").close()

    # calibrate.py reads BENCHMARK.json from the working directory;
    # importing it must leave no __pycache__ in the tree under test.
    os.chdir(head)
    sys.path.insert(0, os.path.join(head, "bench", "ledger"))
    sys.dont_write_bytecode = True
    import calibrate

    bench = calibrate.load_benchmark()
    workloads = [w["name"] for w in bench["workloads"]]

    problems = []
    failed = {}
    for w in workloads:
        for i in range(args.pairs):
            order = (base, head) if i % 2 == 0 else (head, base)
            for tree in order:
                side = "base" if tree == base else "head"
                r = run_once(tree, w, args.seconds)
                print(f"pair {i + 1}/{args.pairs} {w:8} {side}: "
                      f"correct={r['correct']} failed={r['failed']} "
                      f"wall_s={r['metrics']['wall_s']['value']:.3f}",
                      flush=True)
                if not r["correct"]:
                    problems.append(f"{w}: a {side} run is not correct")
                failed[(w, side)] = failed.get((w, side), 0) + r["failed"]
                with open(paths[tree], "a") as f:
                    f.write(json.dumps(r) + "\n")
        if failed[(w, "head")] > failed[(w, "base")]:
            problems.append(f"{w}: failed ops rose from "
                            f"{failed[(w, 'base')]} to {failed[(w, 'head')]}")

    print()
    calibrate.report([paths[base], paths[head]])
    a = calibrate.medians_and_spreads(paths[base])
    b = calibrate.medians_and_spreads(paths[head])
    for w in workloads:
        for m in bench["end_to_end"]:
            key = (w, m["name"])
            if key not in a or key not in b or a[key][0] == 0:
                continue
            x, y = a[key][0], b[key][0]
            worse = (y - x) / x if m["better"] == "lower" else (x - y) / x
            if worse > m["bound"]:
                problems.append(
                    f"{w} {m['name']}: median {y:.4g} vs {x:.4g} "
                    f"({worse:+.1%}, bound {m['bound']:.0%})")
    print(f"\nresult lines: {paths[base]} {paths[head]}")
    if problems:
        print("ledger_ab: FAIL")
        for p in problems:
            print(f"  {p}")
        return 1
    print("ledger_ab: PASS (no end-to-end median worse than its bound)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
