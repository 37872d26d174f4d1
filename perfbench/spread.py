"""Run-to-run spread of the end-to-end metrics, against BENCHMARK.json.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [--workloads a,b] [--out FILE]

Runs run.py once per seed and workload, untraced, with the workloads
interleaved within each set of seeds (the order rotates from seed to
seed) so that a slow stretch of the host does not land on one workload.
For every workload and metric it prints the median, the quartiles, the
spread (q3 - q1) / median and the metric's bound, and for each run the
host-speed loop time, so a slow host can be told from a slow program.
Exits 1 when a spread other than setup_s exceeds its bound.  --out
writes every value, with the Python version and CPU count, as JSON.
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

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    chosen = args.workloads.split(",")
    values: dict[str, dict[str, list[float]]] = {w: {} for w in chosen}
    hosts: dict[str, list[float]] = {w: [] for w in chosen}
    for index in range(args.runs):
        seed = args.first_seed + index
        shift = index % len(chosen)
        for workload in chosen[shift:] + chosen[:shift]:
            command = [*spec["command"], "--workload", workload, "--seed", str(seed),
                       "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=False)
            lines = done.stdout.splitlines()
            if done.returncode != 0 or len(lines) < 2:
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}")
                return 1
            diagnostics = json.loads(lines[-2])["diagnostics"]
            result = json.loads(lines[-1])
            hosts[workload].append(diagnostics["host_loop_ms_median"])
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
                  + f" host_loop_ms={hosts[workload][-1]:.1f}", flush=True)
            if not result["correct"]:
                print(f"  problems: {diagnostics['problems']}")
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary: dict[str, dict] = {w: {} for w in chosen}
    within = True
    print(f"\n{'workload':20} {'metric':12} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'spread':>7} {'bound':>6}")
    for workload in chosen:
        for name, series in values[workload].items():
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median
            flag = "" if spread <= bounds[name] / 3 else (" over bound/3" if spread <= bounds[name] else " OVER BOUND")
            if spread > bounds[name] and name != "setup_s":
                within = False
            summary[workload][name] = {"median": median, "q1": q1, "q3": q3, "spread": spread}
            print(f"{workload:20} {name:12} {median:10.4f} {q1:10.4f} {q3:10.4f} "
                  f"{spread:7.3f} {bounds[name]:6.2f}{flag}")
        host = statistics.quantiles(hosts[workload], n=4)
        print(f"{workload:20} {'host_loop_ms':12} {host[1]:10.2f} {host[0]:10.2f} {host[2]:10.2f}")
    if args.out:
        args.out.write_text(json.dumps({
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "run_seconds": spec["run_seconds"],
            "first_seed": args.first_seed,
            "values": values,
            "host_loop_ms": hosts,
            "summary": summary,
        }, indent=1) + "\n")
    return 0 if within else 1


if __name__ == "__main__":
    sys.exit(main())
