#!/usr/bin/env python3
"""Self-test of the benchmark's own checks. Run from the repository root:

    python3 perfbench/test_perfbench.py

Builds the benchmark as run.py does, then on the fib kernel alone:
  * against the committed pins, every operation passes;
  * against a copy of the pins with one digest perturbed, exactly that
    (kernel, protocol) is reported as one failed operation, by name;
  * the metrics printed with --trace 0 and --trace 1 are exactly the
    end_to_end and per_layer metrics of BENCHMARK.json, with their units.
Exits non-zero on the first failed expectation.
"""

import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True  # Leave nothing behind in perfbench/.
import run  # noqa: E402

KERNEL, PROTOCOL = "fib", "warden"


def bench(binary, workload, trace, pins, out):
    proc = subprocess.run(
        [binary, "--workload", workload, "--only", KERNEL, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--pins", pins,
         "--out", out],
        capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        sys.exit(f"FAIL: benchmark exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


def expect(cond, what):
    if not cond:
        sys.exit(f"FAIL: {what}")
    print(f"ok: {what}")


def main():
    binary = run.build()
    work = os.path.join(run.build_dir(), "selftest")
    os.makedirs(work, exist_ok=True)
    pins = os.path.join(run.HERE, "pins.txt")

    result, _ = bench(binary, "pbbs-engine", 0, pins, work)
    expect(result["correct"] and result["failed"] == 0
           and result["attempted"] >= 2,
           "committed pins: every operation passes")

    key = f"single-socket {KERNEL} {PROTOCOL} "
    perturbed = os.path.join(work, "pins-perturbed.txt")
    hits = 0
    with open(pins) as src, open(perturbed, "w") as dst:
        for line in src:
            if line.startswith(key):
                digest = line.split()[-1]
                flipped = format(int(digest, 16) ^ 1, "016x")
                line = key + flipped + "\n"
                hits += 1
            dst.write(line)
    expect(hits == 1, f"pins hold one digest for {key.strip()}")
    result, err = bench(binary, "pbbs-engine", 0, perturbed, work)
    expect(not result["correct"] and result["failed"] == 1,
           "perturbed pin: exactly one failed operation")
    expect(f"FAILED {KERNEL} {PROTOCOL} " in err,
           "perturbed pin: failure names kernel and protocol")

    spec_path = os.path.join(run.ROOT, "BENCHMARK.json")
    with open(spec_path) as f:
        spec = json.load(f)
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        for workload in run.WORKLOADS:
            result, _ = bench(binary, workload, trace, pins, work)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in spec[section]}
            expect(got == want and result["failed"] == 0,
                   f"{workload} --trace {trace}: metrics match {section}")
    print("perfbench self-test: PASS")


if __name__ == "__main__":
    main()
