"""Run every workload over several seeds and summarise the spread.

    python3 perfbench/sweep.py --seeds 1-10

Each run is a fresh process of run.py; the order of the workloads is
reversed on every other seed.  For each end-to-end metric it prints the
median, the quartiles and the interquartile range as a share of the
median, next to the bound in BENCHMARK.json, and the mean duration of a
run; it writes every run's result to
perfbench/out/sweep-<first seed>-<last seed>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="a seed or a range such as 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    seeds = parse_seeds(args.seeds)
    names = [w["name"] for w in spec["workloads"]]
    results: dict[str, list[dict]] = {name: [] for name in names}
    for turn, seed in enumerate(seeds):
        for name in names if turn % 2 == 0 else names[::-1]:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            run_s = time.perf_counter() - t0
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            results[name].append({"seed": seed, "run_s": run_s, **result})
            print(f"{name} seed {seed} ({run_s:.0f} s): {lines[-1]}", flush=True)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    print(f"\n{'workload':16} {'metric':12} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'iqr/med':>8} {'bound':>6} {'failed':>7}")
    for name, runs in results.items():
        print(f"{name}: mean run {statistics.mean(r['run_s'] for r in runs):.1f} s")
        failed = sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            bound = bounds.get(metric)
            print(f"{name:16} {metric:12} {med:10.4f} {q1:10.4f} {q3:10.4f} "
                  f"{(q3 - q1) / med if med else 0:8.3f} {bound if bound else '':>6} {failed:7.3f}")
    out = HERE / "out" / f"sweep-{seeds[0]}-{seeds[-1]}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(results, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
