"""Benchmark for `maniplex analyze` and the STG census.

    python3 perfbench/run.py --workload analyze-sym --seed 1 --seconds 24 --trace 0

Run from the repository root.  The workload (see workloads.py) is set up
from the seed, then run in whole rounds of its operations, one after
another in this process, as many rounds as fit in ``--seconds`` on the
reference machine and at least two.  Every output is checked outside
the timer.  The last line of stdout is one JSON object: correctness,
operations attempted and failed, and the end-to-end metrics
(``--trace 0``) or the per-layer metrics (``--trace 1``: one untraced
round, one traced round, and a round that takes allocation peaks where
the workload stores groups).
"""

from __future__ import annotations

import os

# numpy's libraries read these when they load: one thread each.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"
# numpy asks for transparent huge pages on large arrays; whether it gets
# them depends on the machine's free memory at the time.
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"

import argparse
import ctypes
import ctypes.util
import gc
import importlib
import json
import resource
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import oracle
import tracing
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPS = 5
MIN_ROUNDS = 2


def _malloc_trim():
    """glibc's malloc_trim, or None where the C library has none."""
    name = ctypes.util.find_library("c")
    trim = getattr(ctypes.CDLL(name), "malloc_trim", None) if name else None
    if trim is not None:
        trim.argtypes = [ctypes.c_size_t]
        trim.restype = ctypes.c_int
    return trim


MALLOC_TRIM = _malloc_trim()


def setup(workload, prepared, workdir: Path, before: set[str]):
    """Import maniplex and build the operations SETUP_REPS times, each
    time after dropping every module imported since ``before``; the times
    and the last set of operations.  numpy is imported before, once, and
    the inputs the benchmark generates itself are ``prepared`` before:
    no change to maniplex moves their time."""
    times = []
    for _ in range(SETUP_REPS):
        for key in set(sys.modules) - before:
            del sys.modules[key]
        settle()
        t0 = perf_counter()
        mx = importlib.import_module("maniplex")
        importlib.import_module("maniplex.cli")
        ops = workload.build(mx, prepared, workdir)
        times.append(perf_counter() - t0)
    if Path(mx.__file__).resolve().parent != SRC / "maniplex":
        raise SystemExit(f"maniplex was imported from {mx.__file__}, not from {SRC}")
    return times, ops


def settle() -> None:
    """Collect garbage and hand free heap memory back to the system, so
    that each operation starts from a heap like a fresh process's: without
    the trim, peak RSS on analyze-sym read 373 MB or 422 MB from run to run."""
    gc.collect()
    if MALLOC_TRIM is not None:
        MALLOC_TRIM(0)


def run_round(ops) -> tuple[list[float | None], list]:
    """Run every operation once, timing each; None marks a failed one."""
    times, outputs = [], []
    for op in ops:
        settle()
        t0 = perf_counter()
        try:
            out = op.run()
        except Exception:  # a failing operation is counted, the run goes on
            print(f"operation {op.name} failed:\n{traceback.format_exc()}", file=sys.stderr)
            times.append(None)
            outputs.append(None)
            continue
        times.append(perf_counter() - t0)
        outputs.append(out)
        print(f"{op.name}: {times[-1]:.3f} s", file=sys.stderr)
    return times, outputs


def check_round(ops, outputs) -> bool:
    ok = True
    for op, out in zip(ops, outputs):
        if out is None:
            continue
        try:
            op.check(op.parse(out))
        except workloads.CheckFailed as exc:
            print(f"check failed on {op.name}: {exc}", file=sys.stderr)
            ok = False
    return ok


def self_test(ops, outputs) -> bool:
    """Each checker must refuse corrupted copies of a real output."""
    tried = set()
    for op, out in zip(ops, outputs):
        if out is None or op.kind in tried:
            continue
        tried.add(op.kind)
        for what, corrupt in workloads.CORRUPTIONS[op.kind]:
            try:
                op.check(corrupt(op.parse(out)))
            except workloads.CheckFailed:
                continue
            print(f"self-test: the {op.kind} checker accepted a {what}", file=sys.stderr)
            return False
    return True


class Tally:
    """Operations attempted and failed, and whether every check passed."""

    def __init__(self, ops) -> None:
        self.ops = ops
        self.attempted = self.failed = 0
        self.correct = True

    def round(self) -> tuple[list[float | None], list]:
        """One round, timed and then checked."""
        times, outputs = run_round(self.ops)
        self.attempted += len(self.ops)
        self.failed += outputs.count(None)
        self.correct &= check_round(self.ops, outputs)
        return times, outputs


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(rounds, ops, setup_times) -> dict:
    samples: dict[str, list[float]] = {}
    for times in rounds:
        for op, t in zip(ops, times):
            if t is not None:
                samples.setdefault(op.name, []).append(t)
    # each distinct operation's median time over the run
    per_op = [statistics.median(ts) for ts in samples.values()]
    return {
        "wall_s": metric(sum(per_op), "s"),
        "op_p50_s": metric(statistics.median(per_op), "s"),
        "setup_s": metric(statistics.median(setup_times), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tally: Tally, untraced: list, trace_file: Path) -> dict:
    """A traced round, then an allocation round where groups are stored."""
    tracer = tracing.Tracer()
    tracer.install()
    times, _ = tally.round()
    untraced_wall = sum(t for t in untraced if t is not None)
    traced_wall = sum(t for t in times if t is not None)
    overhead = 100.0 * (traced_wall / untraced_wall - 1.0)
    if tracer.needs_alloc_round():
        tracer.measuring_alloc = True
        tally.round()
    depth = sum(oracle.bfs_depth(op.adj) for op in tally.ops if op.adj is not None)
    layers = tracer.metrics(depth)
    layers["trace.overhead_pct"] = (overhead, "%")
    metrics = {name: metric(value, unit) for name, (value, unit) in layers.items()}
    trace_file.write_text(json.dumps({
        "untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall,
        "overhead_pct": overhead, "metrics": metrics,
        "functions": tracer.table()}, indent=1) + "\n")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description="maniplex benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "maniplex" / "__init__.py").is_file():
        print(f"no maniplex sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    workload = workloads.WORKLOADS[args.workload]
    prepared = workload.prepare(args.seed)
    before = set(sys.modules)
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"{args.workload}-") as work:
        setup_times, ops = setup(workload, prepared, Path(work), before)
        tally = Tally(ops)
        try:
            workloads.vet_inputs(ops)
        except workloads.CheckFailed as exc:
            print(f"bad input: {exc}", file=sys.stderr)
            tally.correct = False
        rounds = []
        n_rounds = 1 if args.trace else max(MIN_ROUNDS, int(args.seconds // workload.round_s))
        for index in range(n_rounds):
            times, outputs = tally.round()
            rounds.append(times)
            if index == 0:
                tally.correct &= self_test(ops, outputs)
        if all(t is None for times in rounds for t in times):
            print("every operation failed", file=sys.stderr)
            return 1
        if args.trace:
            trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            metrics = per_layer(tally, rounds[0], trace_file)
        else:
            # set up again after the rounds, so that the median of the
            # set-up times spans the run rather than its first second
            setup_times += setup(workload, prepared, Path(work), before)[0]
            metrics = end_to_end(rounds, ops, setup_times)
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if tally.correct else 1


if __name__ == "__main__":
    sys.exit(main())
