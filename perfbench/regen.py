"""Regenerate the benchmark's committed reference inputs and outputs.

    python3 perfbench/regen.py [--profile full] [--out perfbench/reference]

Run from the root of a source checkout, with the code whose outputs are
to become the reference. Through the CLI, at one BLAS thread like the
benchmark, it:

1. generates the datasets the benchmark's set-up generates;
2. trains the original and retrain checkpoints at the full recipe
   (`reference_epochs`, 80 for the full profile) and the lethevit, ft,
   ga and rl checkpoints from the original, and writes their sha256 to
   `checkpoints.sha256`;
3. runs every workload's command cycle once per pool seed and records
   the outputs: test-set loss, accuracy and sha256 of each trained
   checkpoint in `outputs.json`, and the `evaluate` and `sweep-mask`
   CSVs as `report-<seed>.csv` and `sweep-<seed>.csv`.

The full profile takes about three minutes on two cores.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--profile", choices=("full", "tiny"), default="full")
    parser.add_argument("--out", default=os.path.join(run.HERE, "reference"))
    args = parser.parse_args(argv)
    run.pin_blas_threads()
    sys.path.insert(0, run.SRC)

    import workloads
    from lethevit import cli
    from lethevit.data import load_dataset

    profile = workloads.PROFILES[args.profile]
    work = os.path.join(run.WORK_ROOT, f"regen-{args.profile}-pid{os.getpid()}")
    os.makedirs(work)
    os.makedirs(args.out, exist_ok=True)

    def call(argv):
        ok, wall, err = run.run_cli(cli.main, argv)
        if not ok:
            raise SystemExit(f"command failed: {' '.join(argv)}\n{err}")
        print(f"{wall:7.2f}s  {' '.join(a for a in argv[:3])}", flush=True)

    try:
        call(workloads.gen_data_argv(profile, work))
        test_set = load_dataset(os.path.join(work, "test.ltds"))
        digests = []
        for name in workloads.REFERENCE_MODELS:
            path = os.path.join(work, name + ".ltvt")
            call(workloads.reference_model_argv(profile, name, work, path,
                                                os.path.join(work, "original.ltvt")))
            shutil.copyfile(path, os.path.join(args.out, name + ".ltvt"))
            digests.append(f"{workloads.sha256(path)}  {name}.ltvt\n")
        with open(os.path.join(args.out, "checkpoints.sha256"), "w") as f:
            f.writelines(digests)

        outputs: dict = {}
        for workload in workloads.WORKLOADS:
            for seed in profile.pool:
                for command in workloads.cycle(workload, profile, seed, work, args.out,
                                               tag=f"ref{seed}"):
                    call(command.argv)
                    if command.kind in ("evaluate", "sweep"):
                        shutil.copyfile(command.out, workloads.reference_csv(
                            args.out, command.kind, seed))
                    else:
                        outputs.setdefault(command.kind, {})[str(seed)] = (
                            workloads.checkpoint_summary(command.out, test_set))
        with open(os.path.join(args.out, "outputs.json"), "w") as f:
            json.dump(outputs, f, indent=1, sort_keys=True)
            f.write("\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"wrote references to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
