"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py      (from the repository root, about a minute)

Runs every workload of BENCHMARK.json at tiny size, untraced and traced,
and checks that each run ends with the result line the benchmark promises:
every declared metric by name with its declared unit, a true ``correct``
flag, and the two answer-quality ratios printed by name.  Last, it checks
that the benchmark refuses to run, without a result line, from a copy
that holds only BENCHMARK.json and the benchmark's own files.
"""

import json
import math
import os
import shutil
import subprocess
import sys

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(command, cwd):
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_run(spec, workload, trace) -> list[str]:
    key = "per_layer" if trace else "end_to_end"
    command = [*spec["command"], "--workload", workload, "--seed", "1", "--seconds", "1",
               "--trace", str(trace), "--tiny"]
    proc = run(command, os.getcwd())
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} attempted={result['attempted']}")
    expected = {m["name"]: m["unit"] for m in spec[key]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                        f"{sorted(set(got) ^ set(expected))}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            problems.append(f"{where}: {name} = {m['value']!r}")
    printed = {line.split(" = ")[0] for line in lines[:-1] if " = " in line}
    missing = set(expected) - printed
    if not trace:
        missing |= {"failed_frac", "uncertified_frac"} - printed
    if missing:
        problems.append(f"{where}: not printed by name: {sorted(missing)}")
    return problems


def check_refuses_without_program(spec) -> list[str]:
    bare = os.path.join(".perfbench_work", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy("BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(path, os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run([*spec["command"], "--workload", spec["workloads"][0]["name"], "--seed", "1",
                    "--seconds", "1", "--trace", "0"], bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"without src/ the benchmark exited {proc.returncode} and printed "
                f"{proc.stdout.strip()[:200]!r}"]
    return []


def main() -> int:
    with open("BENCHMARK.json", "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    for workload in spec["workloads"]:
        for trace in (0, 1):
            found = check_run(spec, workload["name"], trace)
            print(f"{workload['name']} --trace {trace}: {'ok' if not found else 'FAILED'}",
                  flush=True)
            problems += found
    problems += check_refuses_without_program(spec)
    for problem in problems:
        print(problem, file=sys.stderr)
    print("smoke test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
