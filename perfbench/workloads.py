"""The four benchmark workloads: inputs, queries, reference answers, checks.

Each workload turns a seed into input files (``generate``), a list of CLI
queries that make up one cycle, and a warm-up query.  Reference answers
come from the package's exact oracles and are computed in a separate
process, outside every timed region (``reference``).  ``check`` grades one
executed query against them.

Query argv lists carry an ``{out}`` token; the driver replaces it with a
path unique to each execution, so every answer can be checked after the
timed loop.
"""

from __future__ import annotations

import csv
import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import click
import numpy as np

import thermaltda.cli
from thermaltda.complexes import (
    CORPUS,
    SimplicialComplex,
    build_clique_complex,
    load_point_cloud,
    random_complex,
)
from thermaltda.homology import (
    betti_exact_kernel,
    betti_exact_rank,
    combinatorial_laplacian,
    spectrum,
)

# criterion 5 of the acceptance gate: fitted exponents, negated, in this band
SLOPE_BAND = (0.3, 1.0)
# the top eigenvalue of I + D may not exceed 1 by more than this (D <= 0)
EIGENVALUE_SLACK = 1e-8

# betti-large: random_complex(40, 0.6, 4, seed) redrawn until the sizes of
# dimensions 2 and 3 lie within SIZE_BAND of the seed-1 complex, so that
# every seed asks for the same O(m^3) work.  Candidate j of seed s uses
# graph seed s + j * CANDIDATE_STRIDE; seed 1 is its own first candidate.
LARGE_N, LARGE_P, LARGE_MAX_DIM = 40, 0.6, 4
LARGE_SIZES = {2: 2054, 3: 3841}
SIZE_BAND = 0.01
CANDIDATE_STRIDE = 1_000_003
MAX_CANDIDATES = 5000


@dataclass
class Query:
    argv: list[str]
    kind: str  # write | exact | thermal | swap | scaling | discriminant
    ref: str | None = None  # key into the reference answers


@dataclass
class Plan:
    """Everything a process needs to run or check one workload instance."""

    workload: str
    seed: int
    tiny: bool
    warmup: list[str]
    queries: list[Query]
    # reference jobs by key: {"input"|"corpus"|"points": ..., "k": ...}
    jobs: dict[str, dict] = field(default_factory=dict)
    info: dict = field(default_factory=dict)

    def save(self, path) -> None:
        data = {
            "workload": self.workload, "seed": self.seed, "tiny": self.tiny,
            "warmup": self.warmup, "jobs": self.jobs, "info": self.info,
            "queries": [q.__dict__ for q in self.queries],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)

    @classmethod
    def load(cls, path) -> "Plan":
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        data["queries"] = [Query(**q) for q in data["queries"]]
        return cls(**data)


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """One query through the public entry point, in process.

    Returns (exit code, stdout, stderr).  Exit codes follow the CLI: 2 for
    invalid input, 3 for numerical failure; an uncaught exception is
    reported as 1 with its repr on stderr.
    """
    out, err = io.StringIO(), io.StringIO()
    code = 0
    try:
        with redirect_stdout(out), redirect_stderr(err):
            thermaltda.cli.main.main(args=argv, prog_name="thermaltda", standalone_mode=False)
    except click.ClickException as exc:
        code = exc.exit_code
        err.write(exc.format_message())
    except click.exceptions.Exit as exc:
        code = exc.exit_code
    except Exception as exc:  # the query failed; the benchmark records it and goes on
        code = 1
        err.write(repr(exc))
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# input generation


def generate(name: str, seed: int, tiny: bool, workdir: str) -> Plan:
    """Write the workload's input files under workdir/inputs and plan a cycle."""
    inputs = os.path.join(workdir, "inputs")
    os.makedirs(inputs, exist_ok=True)
    plan = PLANNERS[name](seed, tiny, inputs)
    plan.save(os.path.join(workdir, "plan.json"))
    return plan


def _plan_scaling(seed, tiny, inputs) -> Plan:
    size = ["--n", "8", "--instances", "20"] if tiny else []  # CLI defaults otherwise
    query = ["scaling", *size, "--seed", str(seed),
             "--out", "{out}.csv", "--fit-out", "{out}.fit.json"]
    warmup = ["scaling", "--n", "6", "--instances", "2", "--seed", str(seed),
              "--out", os.path.join(inputs, "warmup.csv")]
    return Plan("scaling", seed, tiny, warmup, [Query(query, "scaling", "scaling")],
                jobs={"scaling": {"n": 8 if tiny else 10}})


def _betti_queries(plan: Plan, source: list[str], key: str, k: int, rng) -> None:
    common = ["betti", *source, "--k", str(k)]
    plan.queries.append(Query(common + ["--method", "exact", "--out", "{out}"], "exact", key))
    plan.queries.append(Query(common + ["--method", "thermal", "--out", "{out}"], "thermal", key))
    swap_seed = str(int(rng.integers(2**31)))
    plan.queries.append(Query(common + ["--method", "swap", "--seed", swap_seed, "--out", "{out}"],
                              "swap", key))


def _point_clouds(rng, tiny):
    """Seeded point clouds: a noisy circle, two blobs, points on a sphere."""
    angles = np.sort(rng.uniform(0.0, 2 * np.pi, 12))
    radii = 1.0 + rng.normal(0.0, 0.03, 12)
    circle = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
    blobs = np.vstack([rng.normal(0.0, 0.15, (6, 2)), rng.normal(0.0, 0.15, (6, 2)) + [3.0, 0.0]])
    sphere = rng.normal(size=(14, 3))
    sphere /= np.linalg.norm(sphere, axis=1, keepdims=True)
    clouds = [("circle", circle, 0.75), ("blobs", blobs, 0.5), ("sphere", sphere, 0.9)]
    return clouds[:1] if tiny else clouds


def _plan_oracle_small(seed, tiny, inputs) -> Plan:
    rng = np.random.default_rng([seed, 1])
    warm_cx = random_complex(5, 0.7, 4, int(rng.integers(2**31)))
    warm_path = os.path.join(inputs, "warmup.json")
    warm_cx.save(warm_path)
    warmup = ["betti", "--input", warm_path, "--k", "1", "--method", "swap",
              "--out", os.path.join(inputs, "warmup.out.json")]
    # a run is whole cycles of about 950 queries each, two or more at the
    # benchmark's run length, so at least 10 queries lie beyond p99
    plan = Plan("oracle-small", seed, tiny, warmup, [], info={"tail_percentile": 99.0})

    # write queries: point clouds through build-complex
    for name, points, epsilon in _point_clouds(rng, tiny):
        csv_path = os.path.join(inputs, f"cloud-{name}.csv")
        with open(csv_path, "w", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerows(points.tolist())
        out_path = os.path.join(inputs, f"cloud-{name}.json")
        plan.queries.append(Query(
            ["build-complex", "--points", csv_path, "--epsilon", repr(epsilon),
             "--max-dim", "2", "--out", out_path], "write", f"cloud-{name}"))
        plan.jobs[f"cloud-{name}"] = {"points": csv_path, "epsilon": epsilon, "max_dim": 2,
                                      "out": out_path}
    # read queries: clouds, corpus shapes, random family; three routes each
    for key in [k for k in plan.jobs if k.startswith("cloud-")]:
        job = plan.jobs[key]
        cx = build_clique_complex(load_point_cloud(job["points"]), "euclidean",
                                  job["epsilon"], job["max_dim"])
        for k in range(cx.max_dim + 1):
            ref = f"{key}/{k}"
            plan.jobs[ref] = {"input": job["out"], "k": k}
            _betti_queries(plan, ["--input", job["out"]], ref, k, rng)
    for name in sorted(CORPUS):
        cx = CORPUS[name]()
        for k in range(cx.max_dim + 1):
            ref = f"corpus-{name}/{k}"
            plan.jobs[ref] = {"corpus": name, "k": k}
            _betti_queries(plan, ["--corpus", name], ref, k, rng)
    # stratified: each vertex count 4..8 equally often, edge probabilities
    # one per stratum of [0.2, 0.95], so the query mix barely moves with the seed
    count = 10 if tiny else 100
    for i in range(count):
        n = 4 + i % 5
        p = 0.2 + 0.75 * (i // 5 + float(rng.random())) / (count // 5)
        cx = random_complex(n, p, n - 1, int(rng.integers(2**31)))
        path = os.path.join(inputs, f"random-{i:03d}.json")
        cx.save(path)
        for k in range(cx.max_dim + 1):
            ref = f"random-{i:03d}/{k}"
            plan.jobs[ref] = {"input": path, "k": k}
            _betti_queries(plan, ["--input", path], ref, k, rng)
    return plan


def _clique_counts(n: int, p: float, graph_seed: int) -> dict[int, int]:
    """Triangles and 4-cliques of the graph random_complex(n, p, _, graph_seed)
    draws, counted without building the complex.  Mirrors its edge rule."""
    draws = np.random.default_rng(graph_seed).random((n, n))
    adj = np.zeros((n, n), dtype=bool)
    upper = np.triu_indices(n, k=1)
    adj[upper] = draws[upper] < p
    adj |= adj.T
    a = adj.astype(np.int64)
    k4 = sum(int(a[np.ix_(adj[i] & adj[j], adj[i] & adj[j])].sum()) // 2
             for i, j in zip(*upper) if adj[i, j])
    return {2: int(np.trace(a @ a @ a)) // 6, 3: k4 // 6}


def _pick_large_complex(seed, tiny):
    if tiny:
        return seed, random_complex(14, 0.6, LARGE_MAX_DIM, seed)
    for j in range(MAX_CANDIDATES):
        graph_seed = seed + j * CANDIDATE_STRIDE
        counts = _clique_counts(LARGE_N, LARGE_P, graph_seed)
        if all(abs(counts[k] / m - 1.0) <= SIZE_BAND for k, m in LARGE_SIZES.items()):
            cx = random_complex(LARGE_N, LARGE_P, LARGE_MAX_DIM, graph_seed)
            if any(cx.num_simplices(k) != counts[k] for k in LARGE_SIZES):
                raise RuntimeError("clique counts disagree with random_complex")
            return graph_seed, cx
    raise RuntimeError(f"no complex within the size band after {MAX_CANDIDATES} draws")


def _plan_betti_large(seed, tiny, inputs) -> Plan:
    graph_seed, cx = _pick_large_complex(seed, tiny)
    path = os.path.join(inputs, "large.json")
    cx.save(path)
    warmup = ["betti", "--input", path, "--k", "0", "--method", "thermal",
              "--out", os.path.join(inputs, "warmup.out.json")]
    source = ["--input", path]
    queries = [
        Query(["betti", *source, "--k", "2", "--method", "exact", "--out", "{out}"], "exact", "k2"),
        Query(["betti", *source, "--k", "3", "--method", "thermal", "--out", "{out}"], "thermal", "k3"),
        Query(["betti", *source, "--k", "1", "--method", "swap", "--seed", str(seed),
               "--out", "{out}"], "swap", "k1"),
    ]
    jobs = {f"k{k}": {"input": path, "k": k} for k in (1, 2, 3)}
    info = {"graph_seed": graph_seed,
            "num_simplices": {str(k): cx.num_simplices(k) for k in sorted(cx.sets)}}
    return Plan("betti-large", seed, tiny, warmup, queries, jobs, info)


def _plan_discriminant(seed, tiny, inputs) -> Plan:
    # the octahedron boundary under a seeded vertex relabelling: the same
    # spectrum and cost for every seed, a different input file per seed
    base = CORPUS["hollow-triangle" if tiny else "octahedron-boundary"]()
    perm = np.random.default_rng([seed, 3]).permutation(base.n_vertices)
    sets = {k: [tuple(sorted(int(perm[v]) for v in s)) for s in simplices]
            for k, simplices in base.sets.items()}
    path = os.path.join(inputs, "shape.json")
    SimplicialComplex(base.n_vertices, sets).save(path)
    grid, steps = ("8", "2") if tiny else ("32", "5")
    query = ["discriminant-check", "--input", path, "--k", "1", "--grid-m", grid,
             "--steps", steps, "--out", "{out}"]
    warmup = ["discriminant-check", "--input", path, "--k", "1", "--grid-m", "4",
              "--steps", "1", "--out", os.path.join(inputs, "warmup.out.json")]
    return Plan("discriminant", seed, tiny, warmup, [Query(query, "discriminant")])


PLANNERS = {
    "scaling": _plan_scaling,
    "oracle-small": _plan_oracle_small,
    "betti-large": _plan_betti_large,
    "discriminant": _plan_discriminant,
}
NAMES = tuple(PLANNERS)


# ---------------------------------------------------------------------------
# reference answers (run in their own process, never timed)


def _kernel_betti(cx: SimplicialComplex, k: int) -> int:
    return betti_exact_kernel(spectrum(combinatorial_laplacian(cx, k)))


def reference(plan: Plan, scaling_csv: str | None = None) -> dict:
    """Oracle answers for every job of the plan.

    Betti numbers come from the Laplacian kernel; scaling records are
    checked against the boundary-rank oracle, as the scaling output itself
    reports the kernel count.
    """
    refs: dict[str, object] = {}
    loaded: dict[str, SimplicialComplex] = {}
    for key, job in sorted(plan.jobs.items()):
        if "points" in job:
            cloud = load_point_cloud(job["points"])
            cx = build_clique_complex(cloud, "euclidean", job["epsilon"],
                                      min(job["max_dim"], cloud.n - 1))
            loaded[job["out"]] = cx
            refs[key] = cx.to_json_dict()
        elif "scaling" == key:
            refs[key] = _scaling_reference(job["n"], scaling_csv) if scaling_csv else None
    for key, job in sorted(plan.jobs.items()):
        if "k" not in job:
            continue
        if "corpus" in job:
            cx = CORPUS[job["corpus"]]()
        else:
            cx = loaded.get(job["input"]) or SimplicialComplex.load(job["input"])
            loaded[job["input"]] = cx
        refs[key] = _kernel_betti(cx, job["k"])
    return refs


def _scaling_reference(n: int, csv_path: str) -> dict:
    """Rank-oracle Betti number of every (instance seed, edge prob, k) record."""
    out = {}
    with open(csv_path, "r", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    max_dim = max(int(r["k"]) for r in rows) + 1 if rows else 1
    for row in rows:
        cx = random_complex(n, float(row["edge_prob"]), max_dim, int(row["seed"]))
        key = f'{row["instance_id"]}/{row["k"]}'
        out[key] = {"betti": betti_exact_rank(cx, int(row["k"])).betti,
                    "num_simplices": cx.num_simplices(int(row["k"]))}
    return out


# ---------------------------------------------------------------------------
# checking one executed query


@dataclass
class Verdict:
    wrong: bool = False  # answered, but the answer is wrong
    hard: bool = False  # wrong where the program claims exactness
    items: int = 0  # domain items completed
    answers: int = 0  # Betti answers returned
    uncertified: int = 0  # Betti answers flagged as not to be trusted
    note: str = ""


def check(query: Query, out_base: str, stdout: str, refs: dict) -> Verdict:
    kind = query.kind
    if kind == "write":
        summary = json.loads(stdout)
        expected = refs[query.ref]
        sizes = {k: len(v) for k, v in expected["simplices"].items()}
        with open(query.argv[query.argv.index("--out") + 1], "r", encoding="utf-8") as fh:
            written = json.load(fh)
        ok = summary["num_simplices"] == sizes and written == expected
        return Verdict(wrong=not ok, hard=not ok, note="" if ok else "built complex differs")
    if kind == "scaling":
        return _check_scaling(out_base, stdout, refs["scaling"])
    with open(out_base, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if kind == "discriminant":
        tops = [s["top_eigenvalue"] for s in payload["steps"]]
        bad = [t for t in tops if t > 1.0 + EIGENVALUE_SLACK]
        return Verdict(wrong=bool(bad), items=len(tops),
                       note=f"top eigenvalue {max(tops)!r} > 1" if bad else "")
    expected = refs[query.ref]
    if kind == "exact":
        ok = payload["agree"] and payload["betti_kernel"] == expected
        return Verdict(wrong=not ok, hard=not ok, items=1, answers=1,
                       note="" if ok else f"exact {payload['betti_kernel']}/{payload['betti_rank']} vs {expected}")
    floor = payload["betti_floor"]
    trusted = payload["converged"] if kind == "thermal" else payload["stable"]
    wrong = trusted and floor != expected
    return Verdict(wrong=wrong, items=1, answers=1, uncertified=int(not trusted),
                   note=f"{kind} floor {floor} vs {expected} while trusted" if wrong else "")


def _check_scaling(out_base: str, stdout: str, ref: dict) -> Verdict:
    summary = json.loads(stdout)
    with open(out_base + ".csv", "r", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    bad = [r for r in rows
           if ref.get(f'{r["instance_id"]}/{r["k"]}') != {"betti": int(r["betti"]),
                                                         "num_simplices": int(r["num_simplices"])}]
    notes = [f"{len(bad)} records disagree with the rank oracle"] if bad else []
    fit = summary.get("fit")
    if fit is None:
        notes.append("fit withheld")
    else:
        slopes = {"pooled": fit["pooled"]["slope"],
                  **{f"k={k}": f["slope"] for k, f in fit["per_k"].items()}}
        lo, hi = SLOPE_BAND
        notes += [f"{name} slope {s:.3f} outside -[{lo}, {hi}]"
                  for name, s in slopes.items() if not lo <= -s <= hi]
    n = summary["records"]
    return Verdict(wrong=bool(notes), items=n, answers=n, note="; ".join(notes))
