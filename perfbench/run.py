"""Closed-loop benchmark of the thermaltda command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Run from the repository root; the package is imported from ``src``.  One
client sends every query through ``thermaltda.cli.main`` in this process,
the next only after the previous one returned.  BLAS threads are capped at
the number of usable cores.  Workloads are described in workloads.py and
the metric names and units are read from BENCHMARK.json.

``--trace 0`` measures the end-to-end metrics with no tracing installed.
``--trace 1`` alternates untraced and traced cycles of the same queries and
reports per-layer metrics from the traced ones (spans.py), plus the
tracing overhead.  Either way every answer is checked against the exact
oracles after the timed loop.  The last line of stdout is one JSON object:
``correct``, ``attempted``, ``failed`` (queries that raised or exited
non-zero) and ``metrics``.

Scratch files go under ``.perfbench_work/`` at the repository root; the
per-run directory is removed at the end, and a summary of each run (with
its environment) is kept in ``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(ROOT, ".perfbench_work")

SETUP_PROBES = 5  # fresh-process set-ups per run; setup_s is their median
CHILD_TIMEOUT_S = 150
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class Executed:
    qid: int
    index: int  # position in the plan's query list
    cycle: int
    traced: bool
    latency_s: float
    code: int
    stdout: str
    stderr: str
    out: str


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the smoke test")
    return parser.parse_args(argv)


def cap_blas_threads() -> int:
    """Cap BLAS threads at the usable core count; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(nproc)
    return nproc


def environment(nproc: int, plan) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        "blas": f'{blas.get("name")} {blas.get("version")}',
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "click": importlib.metadata.version("click"),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "workload": plan.workload,
        "seed": plan.seed,
        "tiny": plan.tiny,
        "workload_info": plan.info,
    }


def _git_commit() -> str | None:
    # only inside a git checkout: elsewhere git would search the parent directories
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_digest(*dirs: str) -> str:
    """SHA-256 of the .py files in `dirs` (default: the package under test)."""
    digest = hashlib.sha256()
    for directory in dirs or (os.path.join(SRC, "thermaltda"),):
        for name in sorted(os.listdir(directory)):
            if name.endswith(".py"):
                digest.update(name.encode())
                with open(os.path.join(directory, name), "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def _child(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(HERE, "child.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)


def measure_setup(args, workdir: str) -> list[float]:
    """Wall time of SETUP_PROBES fresh processes, each doing one full set-up."""
    times = []
    for i in range(SETUP_PROBES):
        probe_dir = os.path.join(workdir, f"probe-{i}")
        extra = ["--tiny"] if args.tiny else []
        start = time.perf_counter()
        proc = _child(["setup", args.workload, str(args.seed), probe_dir, *extra])
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        shutil.rmtree(probe_dir, ignore_errors=True)
    return times


def reference_answers(workdir: str, executed: list[Executed]) -> dict:
    scaling = [e.out + ".csv" for e in executed if e.code == 0 and e.out and
               os.path.exists(e.out + ".csv")]
    proc = _child(["reference", workdir, *scaling[:1]])
    if proc.returncode != 0:
        raise RuntimeError(f"reference computation failed: {proc.stderr.strip()}")
    with open(os.path.join(workdir, "reference.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


class Loop:
    """Runs queries one after another and keeps what each returned."""

    def __init__(self, plan, out_dir, run_cli):
        self.plan = plan
        self.out_dir = out_dir
        self.run_cli = run_cli
        self.executed: list[Executed] = []

    def execute(self, index: int, cycle: int, tracer=None) -> None:
        qid = len(self.executed)
        query = self.plan.queries[index]
        out = os.path.join(self.out_dir, f"q{qid}")
        argv = [a.replace("{out}", out) for a in query.argv]
        if tracer is not None:
            tracer.query = qid
            tracer.add("cli.calls", 1)
            slot = tracer.open("cli")
        start = time.perf_counter()
        code, stdout, stderr = self.run_cli(argv)
        latency = time.perf_counter() - start
        if tracer is not None:
            tracer.close(slot)
        uses_out = any("{out}" in a for a in query.argv)
        self.executed.append(Executed(qid, index, cycle, tracer is not None, latency, code,
                                      stdout, stderr, out if uses_out else ""))

    def run_for(self, seconds: float) -> float:
        """Whole cycles of the plan, until `seconds` have passed; at least one."""
        start = time.perf_counter()
        cycle = 0
        while cycle == 0 or time.perf_counter() - start < seconds:
            self.run_cycle(cycle)
            cycle += 1
        return time.perf_counter() - start

    def run_cycle(self, cycle: int, tracer=None) -> float:
        start = time.perf_counter()
        for index in range(len(self.plan.queries)):
            self.execute(index, cycle, tracer)
        return time.perf_counter() - start


def grade(workloads, plan, executed: list[Executed], refs: dict) -> dict:
    crashed = wrong = hard = items = answers = uncertified = 0
    notes = []
    for e in executed:
        query = plan.queries[e.index]
        if e.code != 0:
            crashed += 1
            notes.append(f"q{e.qid} {query.argv[0]}: exit {e.code}: {e.stderr.strip()[:200]}")
            continue
        try:
            verdict = workloads.check(query, e.out, e.stdout, refs)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            crashed += 1
            notes.append(f"q{e.qid} {query.argv[0]}: unreadable answer: {exc!r}")
            continue
        wrong += verdict.wrong
        hard += verdict.hard
        items += verdict.items
        answers += verdict.answers
        uncertified += verdict.uncertified
        if verdict.note:
            notes.append(f"q{e.qid} {' '.join(query.argv[:1] + query.argv[3:5])}: {verdict.note}")
    return {"attempted": len(executed), "crashed": crashed, "wrong": wrong, "hard": hard,
            "items": items, "answers": answers, "uncertified": uncertified, "notes": notes}


def _scaling_outputs_identical(executed: list[Executed]) -> bool:
    digests = set()
    for e in executed:
        if e.code == 0 and e.out and os.path.exists(e.out + ".csv"):
            with open(e.out + ".csv", "rb") as fh:
                digests.add(hashlib.sha256(fh.read()).hexdigest())
    return len(digests) <= 1


def tail_latency(executed: list[Executed], percentile: float | None) -> tuple[float, str]:
    """The workload's fixed tail percentile over all queries.  A workload with
    too few queries for one has none; its tail is each cycle's slowest query,
    median over cycles."""
    import numpy

    lat = [e.latency_s for e in executed]
    if percentile is not None:
        value = float(numpy.percentile(lat, percentile))
        return value, f"p{percentile:g}, {sum(x > value for x in lat)} beyond, n={len(lat)}"
    slowest: dict[int, float] = {}
    for e in executed:
        slowest[e.cycle] = max(slowest.get(e.cycle, 0.0), e.latency_s)
    return statistics.median(slowest.values()), f"slowest per cycle, median of {len(slowest)}"


def end_to_end(plan, setup_times, loop_wall, executed, graded, peak_rss_mb) -> tuple[dict, dict]:
    lat = [e.latency_s for e in executed]
    tail, tail_label = tail_latency(executed, plan.info.get("tail_percentile"))
    failed_frac = (graded["crashed"] + graded["wrong"]) / graded["attempted"]
    uncertified_frac = graded["uncertified"] / graded["answers"] if graded["answers"] else 0.0
    values = {
        "setup_s": statistics.median(setup_times),
        "items_per_s": graded["items"] / loop_wall,
        "query_ms_p50": 1000.0 * statistics.median(lat),
        "query_ms_tail": 1000.0 * tail,
        "peak_rss_mb": peak_rss_mb,
        "ok_frac": 1.0 - failed_frac,
        "certified_frac": 1.0 - uncertified_frac,
        "failed_frac": failed_frac,
        "uncertified_frac": uncertified_frac,
    }
    details = {
        "setup_s": f"median of {len(setup_times)} fresh processes",
        "items_per_s": f"{graded['items']} items in {loop_wall:.3f} s",
        "query_ms_p50": f"n={len(lat)}",
        "query_ms_tail": tail_label,
        "peak_rss_mb": "ru_maxrss of the measured process",
        "ok_frac": "1 - failed_frac",
        "certified_frac": "1 - uncertified_frac",
        "failed_frac": f"{graded['crashed']} failed + {graded['wrong']} wrong "
                       f"of {graded['attempted']} queries",
        "uncertified_frac": f"{graded['uncertified']} of {graded['answers']} Betti answers",
    }
    return values, details


def per_layer(spans_mod, tracer, executed, traced_counters, walls) -> dict:
    """All per-layer values: counters of one traced cycle, self times (median over
    traced cycles), per function and per layer, and the tracing overhead."""
    cycle_of = {e.qid: e.cycle for e in executed}
    selfs = spans_mod.self_times(tracer.spans)
    per_cycle: dict[int, dict[str, float]] = {}
    for span, own in zip(tracer.spans, selfs):
        sums = per_cycle.setdefault(cycle_of[span.query], {})
        layer = span.name.split(".")[0]
        for key in {span.name + ".self_s", layer + ".self_s"}:
            sums[key] = sums.get(key, 0.0) + own
    names = set().union(*per_cycle.values())
    for prefix, _, _, timed, _ in spans_mod.TARGETS:
        if timed:
            names |= {prefix + ".self_s", prefix.split(".")[0] + ".self_s"}
    values: dict[str, float] = {n: statistics.median(c.get(n, 0.0) for c in per_cycle.values())
                                for n in names}
    for prefix, *_ in spans_mod.TARGETS:
        values[prefix + ".calls"] = 0
    for name in spans_mod.DERIVED:
        values[name] = 0
    values.update(traced_counters[0])
    values["trace.overhead_frac"] = statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0
    return values


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("_max"):
        return "abs"
    return "count"


def check_counts(workload: str, seed: int, tiny: bool, traced_counters: list[dict]) -> list[str]:
    """Deterministic counters must repeat across traced cycles, and across runs
    of the same seed with the same package and benchmark code."""
    from spans import HERMITICITY

    counts = [{k: v for k, v in c.items() if k != HERMITICITY} for c in traced_counters]
    problems = [f"traced cycle {i} counters differ from cycle 0"
                for i, c in enumerate(counts[1:], start=1) if c != counts[0]]
    code = _source_digest(os.path.join(SRC, "thermaltda"), HERE)[:16]
    path = os.path.join(WORK, "counts", f"{workload}-s{seed}{'-tiny' if tiny else ''}-{code}.json")
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as fh:
            stored = json.load(fh)
        diff = sorted(k for k in set(stored) | set(counts[0]) if stored.get(k) != counts[0].get(k))
        if diff:
            problems.append(f"counters differ from an earlier run of this seed: {diff}")
    else:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(counts[0], fh, indent=1, sort_keys=True)
    return problems


def main(argv) -> int:
    args = _parse_args(argv)
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "thermaltda", "__init__.py")):
        print(f"error: {SRC}/thermaltda not found; run from the repository root",
              file=sys.stderr)
        return 2
    with open(spec_path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    nproc = cap_blas_threads()
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)

    import workloads

    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; choose from {workloads.NAMES}",
              file=sys.stderr)
        return 2
    workdir = os.path.join(WORK, f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        return run(args, spec, nproc, workdir, workloads)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, spec, nproc, workdir, workloads) -> int:
    setup_times = measure_setup(args, workdir) if args.trace == 0 else []

    plan = workloads.generate(args.workload, args.seed, args.tiny, workdir)
    code, _, err = workloads.run_cli(plan.warmup)
    if code != 0:
        print(f"error: warm-up query failed with exit code {code}: {err}", file=sys.stderr)
        return 1
    out_dir = os.path.join(workdir, "out")
    os.makedirs(out_dir)
    loop = Loop(plan, out_dir, workloads.run_cli)

    problems = []
    if args.trace == 0:
        loop_wall = loop.run_for(args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        import spans

        tracer = spans.Tracer()
        walls = {False: [], True: []}
        traced_counters = []
        start, cycle = time.perf_counter(), 0
        while cycle == 0 or time.perf_counter() - start < args.seconds:
            walls[False].append(loop.run_cycle(cycle))
            tracer.counters = {}
            tracer.install()
            try:
                walls[True].append(loop.run_cycle(cycle + 1, tracer))
            finally:
                tracer.uninstall()
            traced_counters.append(dict(tracer.counters))
            cycle += 2
        problems += check_counts(args.workload, args.seed, args.tiny, traced_counters)

    refs = reference_answers(workdir, loop.executed)
    graded = grade(workloads, plan, loop.executed, refs)
    if not _scaling_outputs_identical(loop.executed):
        problems.append("repeated scaling queries wrote different records")
    correct = graded["crashed"] == 0 and graded["hard"] == 0 and not problems

    env = environment(nproc, plan)
    if args.trace == 0:
        values, details = end_to_end(plan, setup_times, loop_wall, loop.executed, graded, peak_rss_mb)
        declared = spec["end_to_end"]
        units = {m["name"]: m["unit"] for m in declared}
        units.update(failed_frac="ratio", uncertified_frac="ratio")
        for name, unit in units.items():
            print(f"{name} = {values[name]!r} {unit} ({details[name]})")
    else:
        values = per_layer(spans, tracer, loop.executed, traced_counters, walls)
        declared = spec["per_layer"]
        for name in sorted(values):
            print(f"{name} = {values[name]!r} {layer_unit(name)}")
        timed = sorted((v, n) for n, v in values.items()
                       if n.endswith(".self_s") and (n.count(".") == 2 or n == "cli.self_s"))
        print("largest self time: " + ", ".join(f"{n} {v:.3f} s" for v, n in timed[::-1][:3]))
        _write_spans(args, tracer)
    for note in graded["notes"][:20]:
        print(f"answer: {note}")
    for problem in problems:
        print(f"self-check: {problem}", file=sys.stderr)
    print("env: " + json.dumps(env, sort_keys=True))

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    result = {"correct": correct, "attempted": graded["attempted"],
              "failed": graded["crashed"], "metrics": metrics}
    latencies = [{"qid": e.qid, "argv": plan.queries[e.index].argv[:1] + plan.queries[e.index].argv[3:7],
                  "traced": e.traced, "latency_s": e.latency_s} for e in loop.executed]
    _write_result(args, {**result, "env": env, "all_values": values, "graded": graded,
                         "problems": problems, "latencies": latencies})
    print(json.dumps(result, sort_keys=True))
    return 0


def _write_spans(args, tracer) -> None:
    path = os.path.join(WORK, "spans", f"{args.workload}-s{args.seed}.jsonl")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for i, s in enumerate(tracer.spans):
            fh.write(json.dumps({"id": i, "name": s.name, "start": s.start, "end": s.end,
                                 "parent": s.parent, "query": s.query}) + "\n")


def _write_result(args, result: dict) -> None:
    path = os.path.join(WORK, "results", f"{args.workload}-s{args.seed}-t{args.trace}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True, default=str)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
