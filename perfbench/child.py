"""Fresh processes started by run.py.

    python3 perfbench/child.py setup WORKLOAD SEED DIR [--tiny]
        One set-up, as setup_s times it from the outside: import the
        package, write the workload's inputs under DIR, run the warm-up query.

    python3 perfbench/child.py reference DIR [SCALING_CSV]
        Oracle answers for the plan in DIR, written to DIR/reference.json.
        Kept out of the measured process so that they add to neither its
        timings nor its peak memory.

Run from the repository root with ``src`` on PYTHONPATH; run.py does both.
"""

import json
import os
import sys


def main(argv: list[str]) -> int:
    import workloads

    mode = argv[0]
    if mode == "setup":
        name, seed, workdir = argv[1], int(argv[2]), argv[3]
        plan = workloads.generate(name, seed, "--tiny" in argv, workdir)
        code, _, err = workloads.run_cli(plan.warmup)
        if code != 0:
            print(f"warm-up query failed with exit code {code}: {err}", file=sys.stderr)
        return code
    if mode == "reference":
        workdir = argv[1]
        plan = workloads.Plan.load(os.path.join(workdir, "plan.json"))
        refs = workloads.reference(plan, argv[2] if len(argv) > 2 else None)
        with open(os.path.join(workdir, "reference.json"), "w", encoding="utf-8") as fh:
            json.dump(refs, fh, sort_keys=True)
        return 0
    print(f"unknown mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
