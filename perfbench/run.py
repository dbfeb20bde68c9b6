"""Run one benchmark workload against ``repro`` and print its metrics.

    python3 perfbench/run.py --workload cold_solve --seed 1 --seconds 15 --trace 0

Run from the repository root (the program is imported from ``src/``).
With ``--trace 0`` it prints every end-to-end metric; with ``--trace 1`` a
traced run prints every per-layer metric. The last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
Per-run records (environment, notes, all metrics) go to
``perfbench/out/BENCH_<workload>_seed<seed>_trace<0|1>.json``; a traced run
also writes its spans next to it. Exit code 0 when every answer passed the
correctness gate, 1 when one did not, 2 when the program is not there.
"""

from __future__ import annotations

import os

# Pin BLAS (and any OpenMP runtime) to one thread before numpy loads: the
# load must come from this one process with no more threads than cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def workloads() -> dict:
    from wl_cold import ColdSolve
    from wl_refactor import Refactor
    from wl_serve import ServeOpen
    from wl_simulate import SimulateScale

    return {
        wl.name: wl
        for wl in (
            ColdSolve(),
            Refactor("refactor_stream", "seq"),
            Refactor("refactor_threads", "threads"),
            ServeOpen(),
            SimulateScale(),
        )
    }


#: set-up runs per benchmark run (a workload may set ``setup_reps``);
#: set-up time is their median
SETUP_REPS = 5


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program is missing ({SRC}/repro)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import common
    import metrics
    from hostspeed import HostSpeed
    from loops import closed_loop

    table = workloads()
    if args.workload not in table:
        print(f"perfbench: unknown workload {args.workload!r}; known: {sorted(table)}",
              file=sys.stderr)
        return 2
    wl = table[args.workload]
    code = common.source_hash()
    counts = common.ExactCounts(common.OUT_DIR / "exact_counts.json", code)
    try:
        # Set-up is timed like a request: in reference seconds, with the
        # host-speed reference timed before every set-up and after the last.
        host = HostSpeed()
        spans = []
        for _ in range(getattr(wl, "setup_reps", SETUP_REPS)):
            host.sample()
            t0 = time.perf_counter()
            state = wl.setup(args.seed)
            spans.append((t0, time.perf_counter()))
            for key, value in wl.setup_counts(state).items():
                counts.check(key, value)
        host.sample()
        raw_setup = [t1 - t0 for t0, t1 in spans]
        setup_times = [host.scale(t1 - t0, t0, t1) for t0, t1 in spans]
        trace = bool(args.trace)
        if hasattr(wl, "measure"):
            m = wl.measure(state, args.seconds, counts, trace)
        else:
            m = closed_loop(wl, state, args.seconds, counts, trace)
    except common.CountMismatch as exc:
        print(f"perfbench: exact counts did not repeat: {exc}", file=sys.stderr)
        return 1
    if trace:
        values, notes = metrics.per_layer(m)
        specs = [(name, unit) for name, unit, _b in metrics.PER_LAYER]
    else:
        values, notes = metrics.end_to_end(m, setup_times, raw_setup, host)
        specs = [(name, unit) for name, unit, _b, _bound in metrics.END_TO_END]
    correct = m.wrong == 0
    counts.save()

    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    common.OUT_DIR.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "environment": common.environment(args.seed, code),
        "setup_times_s": setup_times,
        "setup_times_wall_s": raw_setup,
        "notes": notes,
        "metrics": values,
    }
    (common.OUT_DIR / f"BENCH_{tag}.json").write_text(json.dumps(record, indent=1))
    if trace:
        m.tracer.dump(common.OUT_DIR / f"SPANS_{tag}.json")

    for name, unit in specs:
        print(f"{name:36s} {values[name]:.6g} {unit}")
    for key, note in notes.items():
        print(f"# {key}: {note}")
    result = {
        "correct": correct,
        "attempted": m.sent,
        "failed": m.failed + m.wrong,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in specs},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
