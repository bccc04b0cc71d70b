"""Smoke test of the benchmark itself, at toy shapes (about 30 seconds).

    python3 perfbench/smoke.py

Run from the root of a source checkout. It regenerates tiny-profile
references under .bench_work, runs every workload briefly with and
without tracing, and checks that

- every run exits 0 and its last line names every metric of
  BENCHMARK.json with its unit, and no operation fails;
- a corrupted reference CSV, a corrupted input checkpoint and a wrong
  reference loss each show up as failed operations.

Exits 1 and lists the problems if any check does not hold.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import regen
import run

SEED = 3
SECONDS = "1"


def bench(workload: str, trace: int, reference: str) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", SECONDS, "--trace", str(trace),
         "--profile", "tiny", "--reference", reference],
        cwd=run.ROOT, capture_output=True, text=True, timeout=300,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def corrupt_copy(reference: str, name: str) -> str:
    copy = reference + "-" + name.replace(".", "-")
    shutil.copytree(reference, copy)
    return copy


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    reference = os.path.join(run.WORK_ROOT, f"smoke-pid{os.getpid()}", "reference")
    problems: list[str] = []
    try:
        if regen.main(["--profile", "tiny", "--out", reference]) != 0:
            return 1
        for workload in (w["name"] for w in spec["workloads"]):
            for trace in (0, 1):
                result = bench(workload, trace, reference)
                units = {name: m["unit"] for name, m in result["metrics"].items()}
                if units != expected[trace]:
                    missing = sorted(set(expected[trace]) - set(units))
                    extra = sorted(set(units) - set(expected[trace]))
                    problems.append(f"{workload} trace={trace}: metrics differ from "
                                    f"BENCHMARK.json (missing {missing}, extra {extra})")
                if result["failed"] or not result["correct"] or result["attempted"] < 1:
                    problems.append(f"{workload} trace={trace}: {result['failed']} of "
                                    f"{result['attempted']} operations failed")

        bad_csv = corrupt_copy(reference, "report.csv")
        for name in os.listdir(bad_csv):
            if name.startswith("report-"):
                path = os.path.join(bad_csv, name)
                with open(path) as f:
                    text = f.read()
                with open(path, "w") as f:
                    f.write(text.replace("retrain,", "retrain ,", 1))

        bad_checkpoint = corrupt_copy(reference, "original.ltvt")
        path = os.path.join(bad_checkpoint, "original.ltvt")
        with open(path, "rb") as f:
            blob = bytearray(f.read())
        # swap two differing payload bytes: the format's byte-sum checksum still holds
        i = len(blob) - 12
        j = next(k for k in range(i - 1, 0, -1) if blob[k] != blob[i])
        blob[i], blob[j] = blob[j], blob[i]
        with open(path, "wb") as f:
            f.write(blob)

        bad_loss = corrupt_copy(reference, "outputs.json")
        path = os.path.join(bad_loss, "outputs.json")
        with open(path) as f:
            outputs = json.load(f)
        for entry in outputs["train"].values():
            entry["losses"][0] += 1e-6
        with open(path, "w") as f:
            json.dump(outputs, f)

        for workload, directory, what in (("evaluate", bad_csv, "corrupted reference CSV"),
                                          ("forget", bad_checkpoint, "corrupted checkpoint"),
                                          ("train", bad_loss, "wrong reference loss")):
            result = bench(workload, 0, directory)
            if result["failed"] < 1 or result["correct"]:
                problems.append(f"{what} not counted as a failure: {result}")
    finally:
        shutil.rmtree(os.path.dirname(reference), ignore_errors=True)

    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke: " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
