"""Benchmark of the lethevit CLI, run from the root of a source checkout.

    python3 perfbench/run.py --workload {train,forget,evaluate} --seed N \
        --seconds S --trace {0,1}

Every timed operation is one in-process call to `lethevit.cli.main`, the
entry point users run. The run sets up (datasets, input verification),
runs one untimed warm-up command, repeats the workload's cycle of commands
for about `--seconds` of timed work with one more set-up after each cycle,
checks every output against the committed references outside the timed
region, and prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Every time in the metrics is scaled to the reference host's speed by the
calibrations measured around it (see hostspeed.py); the line before the
result holds the raw wall times. `--trace 0` reports the end-to-end
metrics of BENCHMARK.json; `--trace 1`
alternates untraced and traced cycles and reports the per-layer metrics.
See perfbench/NOTES.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")

# One BLAS thread. Checkpoint bytes can depend on the thread count, so
# the reference digests in perfbench/reference are keyed to it.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# set-ups per run at least, spread over the cycles, one after each at least
MIN_SETUPS = 15


def pin_blas_threads() -> None:
    """Must run before numpy is first imported."""
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS


def _git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = os.path.join(ROOT, ".git", name)
        if os.path.exists(loose):
            with open(loose) as f:
                return f.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
    }


def run_cli(main, argv: list[str]) -> tuple[bool, float, str]:
    """(succeeded, wall seconds, captured stderr) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except (Exception, SystemExit) as exc:  # a raising command is a failed operation
        code = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    return code == 0, wall, err.getvalue() if code == 0 else f"{code} {err.getvalue()}"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", choices=("full", "tiny"), default="full",
                        help="tiny shapes, for the smoke test only")
    parser.add_argument("--reference", default=os.path.join(HERE, "reference"),
                        help="directory of committed reference inputs and outputs")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "lethevit", "cli.py")):
        print(f"error: no lethevit sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(args.reference, "outputs.json")):
        print(f"error: no reference outputs in {args.reference}", file=sys.stderr)
        return 2
    pin_blas_threads()
    sys.path.insert(0, SRC)

    import hostspeed
    import layertrace as tracing
    import workloads
    from lethevit import cli
    from lethevit.data import load_dataset

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}, expected one of "
              f"{workloads.WORKLOADS}", file=sys.stderr)
        return 2
    profile = workloads.PROFILES[args.profile]
    refs = workloads.References(args.reference)
    run_dir = os.path.join(WORK_ROOT, f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    attempted = failed = identical = compared = 0
    failures: list[str] = []

    def record(ok: bool, what: str) -> None:
        nonlocal attempted, failed
        attempted += 1
        if not ok:
            failed += 1
            failures.append(what)

    order = list(profile.pool)
    random.Random(args.seed).shuffle(order)

    def check(commands, errors: dict, pool_seed: int, test_set) -> None:
        """Count each command as one operation: failed if it failed to run
        or its output differs from the reference. Removes the outputs."""
        nonlocal identical, compared
        for command in commands:
            what = f"{command.kind} seed {pool_seed}: "
            if command.kind in errors or test_set is None:
                record(False, what + errors.get(command.kind, "no datasets"))
                continue
            try:
                ok, same = refs.check(command, test_set)
                detail = "output differs from reference"
            except Exception as exc:  # an unreadable output fails its check
                ok, same, detail = False, False, f"{type(exc).__name__}: {exc}"
            record(ok, what + detail)
            compared += 1
            identical += same
            os.remove(command.out)

    try:
        clock = hostspeed.Clock()
        setup_s: list[float] = []        # scaled to the reference host's speed
        setup_wall_s: list[float] = []

        def set_up(name: str):
            """One timed set-up: a fresh directory, the datasets and the
            input verification. Returns the directory and the test set,
            None if gen-data failed."""
            directory = os.path.join(run_dir, name)

            def work():
                os.makedirs(directory)
                ok, _, err = run_cli(cli.main, workloads.gen_data_argv(profile, directory))
                return ok, err, refs.inputs_intact(args.workload)

            (ok, err, intact), wall, scaled = clock.time(work)
            setup_s.append(scaled)
            setup_wall_s.append(wall)
            record(ok, f"gen-data: {err.strip()}")
            record(intact, "committed input checkpoints do not match checkpoints.sha256")
            test_set = load_dataset(os.path.join(directory, "test.ltds")) if ok else None
            clock.interrupt()
            return directory, test_set

        # The cycles use the first set-up's directory. More set-ups run
        # after every cycle, outside the timed region, so that set-up time
        # is sampled across the whole run.
        work, test_set = set_up("work")
        # untimed warm-up of the cycle's first command: lazy imports,
        # allocator and file caches; its output is checked like any other
        warm = workloads.cycle(args.workload, profile, order[0], work, args.reference,
                               tag="warm-up")[0]
        warm_ok, _, warm_err = run_cli(cli.main, warm.argv)
        check([warm], {} if warm_ok else {warm.kind: warm_err.strip()}, order[0], test_set)

        tracer = tracing.Tracer() if args.trace else None
        setup_metrics = {}
        if tracer:
            traced_setup = os.path.join(run_dir, "traced-setup")
            os.makedirs(traced_setup)
            first = len(tracer.spans)
            with tracer.installed():
                start = time.perf_counter()
                run_cli(tracer.cli_main(), workloads.gen_data_argv(profile, traced_setup))
                wall = time.perf_counter() - start
            setup_metrics = tracing.summarise(tracer.spans[first:], wall)

        cycles = []   # (traced, wall s, scaled s, samples, {kind: wall s}, {kind: scaled s})
        traced_spans: list[list] = []
        timed = 0.0
        index = 0
        loop_start = time.perf_counter()
        while True:
            traced = bool(tracer) and index % 2 == 1
            pool_seed = order[index % len(order)]
            commands = workloads.cycle(args.workload, profile, pool_seed, work, args.reference,
                                       tag=str(index))
            first = len(tracer.spans) if tracer else 0
            walls, scaled, errors = {}, {}, {}
            clock.interrupt()
            for command in commands:
                # the calibrations call no lethevit code, so no span covers them
                with tracer.installed() if traced else contextlib.nullcontext():
                    main_fn = tracer.cli_main() if traced else cli.main
                    (ok, _, err), walls[command.kind], scaled[command.kind] = clock.time(
                        run_cli, main_fn, command.argv)
                if not ok:
                    errors[command.kind] = err.strip()
            cycle_wall = sum(walls.values())
            cycles.append((traced, cycle_wall, sum(scaled.values()),
                           sum(c.samples for c in commands), walls, scaled))
            if traced:
                traced_spans.append(tracer.spans[first:])
            timed += cycle_wall

            check(commands, errors, pool_seed, test_set)  # outside the timed region
            # at least one set-up per cycle, spread so that MIN_SETUPS are
            # done when the timed work is
            while True:
                shutil.rmtree(set_up(f"setup{len(setup_s)}")[0])
                if len(setup_s) >= MIN_SETUPS * timed / args.seconds:
                    break
            index += 1
            same_mode = [c[1] for c in cycles if c[0] == (bool(tracer) and index % 2 == 1)]
            expected = statistics.median(same_mode) if same_mode else cycle_wall
            # failing commands return at once: bound the loop's wall time too
            overdue = time.perf_counter() - loop_start > 2 * args.seconds
            if (timed + expected > args.seconds or overdue) and index >= (2 if tracer else 1):
                break

        while len(setup_s) < MIN_SETUPS:
            shutil.rmtree(set_up(f"setup{len(setup_s)}")[0])

        untraced = [c for c in cycles if not c[0]]
        info = {
            "workload": args.workload, "seed": args.seed, "profile": args.profile,
            "env": environment(), "pool_order": order,
            "calibration_s": {"reference": hostspeed.REFERENCE_S,
                              "median": statistics.median(clock.calibrations),
                              "count": len(clock.calibrations)},
            "cycle_walls_s": [round(c[1], 4) for c in cycles],
            "cycle_wall_mean_s": statistics.mean(c[1] for c in untraced),
            "cycle_scaled_median_s": statistics.median(c[2] for c in untraced),
            "setup_wall_median_s": statistics.median(setup_wall_s),
            "command_wall_median_s": {
                kind: statistics.median(c[4][kind] for c in untraced) for kind in untraced[0][4]
            },
            "command_scaled_median_s": {
                kind: statistics.median(c[5][kind] for c in untraced) for kind in untraced[0][5]
            },
            "identical_outputs": f"{identical}/{compared}",
            "failures": failures[:10],
        }
        if tracer:
            per_cycle = [tracing.summarise(spans, c[1])
                         for spans, c in zip(traced_spans, (c for c in cycles if c[0]))]
            metrics = {
                name: {"value": statistics.median(m[name] for m in per_cycle),
                       "unit": _unit(name)}
                for name in per_cycle[0]
            }
            for name, value in setup_metrics.items():
                if name.startswith(("data.generate_toy_dataset", "data.save_dataset")):
                    metrics[name] = {"value": value, "unit": _unit(name)}
            metrics["trace_overhead_ratio"] = {
                "value": statistics.median(c[2] for c in cycles if c[0])
                / statistics.median(c[2] for c in untraced),
                "unit": "ratio",
            }
            for kind in ("train", "retrain", "unlearn", "evaluate", "sweep"):
                metrics[f"cli.cmd.{kind}.s"] = {
                    "value": info["command_scaled_median_s"].get(kind, 0.0), "unit": "s"}
            os.makedirs(WORK_ROOT, exist_ok=True)
            tracing.write_spans(
                os.path.join(WORK_ROOT, f"spans-{args.workload}-seed{args.seed}.csv"),
                traced_spans)
        else:
            metrics = {
                "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
                # a cycle's work is fixed: the median over cycles of work
                # per scaled second
                "samples_per_s": {"value": statistics.median(c[3] / c[2] for c in untraced),
                                  "unit": "1/s"},
                "peak_rss_mb": {
                    "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                    "unit": "MB"},
            }
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    print(json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("ms_p50"):
        return "ms"
    if name.endswith(".bytes"):
        return "B"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
