"""Calibrate the ledger's bounds: run sets of seeds and report spreads.

Run from the repository root:

  python3 bench/ledger/calibrate.py run OUT.jsonl [--seeds 0-9] [--trace 0]
      Runs every workload of BENCHMARK.json once per seed and appends each
      result line, tagged with workload, seed and trace and carrying the
      info line under "info", to OUT.jsonl.

  python3 bench/ledger/calibrate.py report SET1.jsonl [SET2.jsonl]
      Per workload and end-to-end metric: the median and the quartile
      spread (q3 - q1) / median of every set, the shift of the second
      set's median against the first, and the metric's bound. With two
      sets, also whether every (workload, seed) both ran reproduced the
      same sim_digest and fidelity numbers.
"""

import json
import statistics
import subprocess
import sys


def load_benchmark():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def seeds_of(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def run(out, seeds, trace):
    bench = load_benchmark()
    for workload in (w["name"] for w in bench["workloads"]):
        for seed in seeds:
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            result.update(workload=workload, seed=seed, trace=trace,
                          info=json.loads(lines[-2]))
            with open(out, "a") as f:
                f.write(json.dumps(result) + "\n")
            print(workload, seed, result["correct"], flush=True)


def medians_and_spreads(path):
    values = {}
    with open(path) as f:
        for line in f:
            r = json.loads(line)
            if r["trace"] != 0:
                continue
            for name, m in r["metrics"].items():
                values.setdefault((r["workload"], name), []).append(m["value"])
    out = {}
    for key, xs in values.items():
        q1, q2, q3 = statistics.quantiles(xs, n=4)
        out[key] = (q2, (q3 - q1) / q2 if q2 else 0.0)
    return out


def exact_fields(path):
    """(workload, seed) -> the info fields a host-only change must keep."""
    out = {}
    with open(path) as f:
        for line in f:
            r = json.loads(line)
            info = r["info"]
            out[(r["workload"], r["seed"])] = {
                k: v for k, v in info.items()
                if k == "sim_digest" or k.startswith("fig")}
    return out


def report(paths):
    bench = load_benchmark()
    sets = [medians_and_spreads(p) for p in paths]
    print(f"{'workload':8} {'metric':12} {'bound':>6} "
          + " ".join(f"{'median':>10} {'spread':>7}" for _ in sets)
          + (f" {'shift':>7}" if len(sets) == 2 else ""))
    for w in bench["workloads"]:
        for m in bench["end_to_end"]:
            key = (w["name"], m["name"])
            if not all(key in s for s in sets):
                continue
            row = f"{key[0]:8} {key[1]:12} {m['bound']:6.3f} " + " ".join(
                f"{s[key][0]:10.4f} {s[key][1]:7.3f}" for s in sets)
            if len(sets) == 2:
                a, b = sets[0][key][0], sets[1][key][0]
                worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
                row += f" {worse:7.3f}"
            print(row)
    if len(paths) == 2:
        a, b = exact_fields(paths[0]), exact_fields(paths[1])
        common = sorted(set(a) & set(b))
        same = [k for k in common if a[k] == b[k]]
        print(f"sim_digest and fidelity identical on {len(same)} of "
              f"{len(common)} (workload, seed) pairs run in both sets")


def main(argv):
    if len(argv) >= 3 and argv[1] == "run":
        seeds, trace = "0-9", 0
        args = argv[3:]
        while args:
            flag, value, args = args[0], args[1], args[2:]
            if flag == "--seeds":
                seeds = value
            elif flag == "--trace":
                trace = int(value)
            else:
                sys.exit(f"unknown flag {flag}")
        run(argv[2], seeds_of(seeds), trace)
    elif len(argv) in (3, 4) and argv[1] == "report":
        report(argv[2:])
    else:
        sys.exit(__doc__)


if __name__ == "__main__":
    main(sys.argv)
