#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the gbs toolkit.

Usage, from the repository root:

    python3 perfbench/run.py --workload pingpong|normest|queries \
        --seed N --seconds S --trace 0|1

Each workload is a fixed list of jobs (one "round"), run closed loop with
one job in flight, in this process, through the public entry points:
``gbs.cli.main(argv)`` with stdout captured, and the API functions.  Rounds
repeat until ``--seconds`` is spent.  Every job's output is checked against
an oracle after its round; a wrong output, an unexpected exit code or an
exception counts as failed.

``--trace 0`` prints the end-to-end metrics, measured without tracing.
``--trace 1`` alternates plain and traced rounds and prints the per-layer
metrics from the traced ones (see ``tracing.py``), plus ``trace_overhead``;
spans and per-function counters go to ``.perfbench/`` at the repository
root.  The kernel is pinned to the pure-Python one (``GBS_PURE_KERNEL=1``).

Standard output: one report line (environment, sample counts, fail_ratio,
pairs_per_s, failures) and, last, the result object
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from math import gcd
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "tests" / "fixtures"
SPEC = ROOT / "BENCHMARK.json"
TRACE_DIR = ROOT / ".perfbench"
SETUP_RUNS = 5
KERNEL_ENV = {"GBS_PURE_KERNEL": "1"}

# Job sizes.  A round of pingpong or normest is one job of each kind, three
# kinds of distinct length, so job_p50_ms is the median of the middle kind.
#
# The exhaustive ping-pong bounds are scaled down from the acceptance
# bounds (-L 2 --word-bound 3 --exp-bound 6, which decide 4,179,474 pairs on
# bs23 and 2,552,004 on gbs2 in about 35 s together) so that a round takes
# under a second; the expected counts are those of the exhaustive family at
# these bounds.  Likewise the norm radii are scaled down from 10 and 6; the
# radius-2 run is there to give the round a middle kind.
SIZES = {
    "pingpong": {
        "runs": (("bs23", 2, 1, 3, 68418), ("gbs2", 2, 2, 1, 135054)),
        "control": ("bs23", 2, 1, 3),
    },
    "normest": {
        "runs": (("bs23", 2), ("gbs2", 4), ("bs23", 8)),
        "m": (4, 9, 16),
    },
    "queries": {
        "repeat": 3,            # reduce, modular and vertex_index per fixture
        "moved": 3,             # moved_vertex jobs on bs23 and on gbs2
        "tail": 2,              # build_theorem_data jobs per round
        "tail_k": 5,            # g = t^k a t^-k
        "word_edges": 4,
        "tree_radius": 3,
    },
}

# Facts of the fixtures: chain3 and two_vertex are trees, so they fail the
# "not a tree" condition; bs23 and gbs2 meet all four conditions (kappa
# mismatch on y, every injection proper).  N for a loop y with alpha 3, 2
# is 3*3 = 9.
VERDICTS = {"bs23": True, "gbs2": True, "chain3": False, "two_vertex": False}
BIG_N = {"bs23": {"y": 9}, "gbs2": {"y": 24}, "chain3": {}, "two_vertex": {}}

# Per-layer metric -> the end-to-end metric and workload it should move.
# Names and units are those of BENCHMARK.json, which has no field for this.
_KERNEL = "pingpong wall_s, then normest wall_s"
_WRAPPER = "normest wall_s, queries job_p50_ms"
_VERIFY = "pingpong wall_s and pairs_per_s"
_NORM = "normest wall_s and peak_rss_mb"
_CALL = "queries job_p50_ms"
_ALL = "wall_s of the workloads that use the layer"
LAYER_TARGETS = {
    "wordcore.mul_calls": _KERNEL,
    "wordcore.mul_s": _KERNEL,
    "wordcore.mul_per_s": _KERNEL,
    "wordcore.canon_calls": _KERNEL,
    "wordcore.canon_s": _KERNEL,
    "wordcore.inv_calls": _KERNEL,
    "words.element_mul_calls": _WRAPPER,
    "words.element_mul_self_s": _WRAPPER,
    "words.closed_words_yielded": "pingpong wall_s",
    "words.closed_words_s": "pingpong wall_s",
    "words.cyclic_membership_calls": "pingpong wall_s",
    "pingpong.pairs": _VERIFY,
    "pingpong.products": _VERIFY,
    "pingpong.products_per_pair": _VERIFY,
    "pingpong.verify_self_s": _VERIFY,
    "opsim.ball_elements": _NORM,
    "opsim.ball_s": _NORM,
    "opsim.operator_nnz": _NORM,
    "opsim.operator_s": _NORM,
    "opsim.average_s": _NORM,
    "opsim.operator_coverage": "recorded, not gated",
    "opsim.matvecs": "normest wall_s",
    "opsim.power_s": "normest wall_s",
    "opsim.matvecs_per_s": "normest wall_s",
    "indices.vertex_index_calls": "queries job_p99_ms",
    "indices.vertex_index_s": "queries job_p99_ms",
    "indices.check_theorem_s": "queries job_p99_ms",
    "graphs.parse_calls": _CALL,
    "graphs.parse_s": _CALL,
    "tree.ball_vertices": _CALL,
    "tree.ball_s": _CALL,
    "tree.moved_vertex_s": _CALL,
    "cli.self_s": _CALL,
    "wordcore.self_s": _ALL,
    "words.self_s": _ALL,
    "graphs.self_s": _ALL,
    "indices.self_s": _ALL,
    "tree.self_s": _ALL,
    "pingpong.self_s": _ALL,
    "opsim.self_s": _ALL,
    "harness.self_s": "none: the benchmark's own job overhead",
    "trace.wall_s": "none: wall_s of the traced rounds",
    "trace.self_share": "none: sum of self times over traced job time",
    "trace_overhead": "none: traced over plain wall_s",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, wrong kernel)."""


def metric_units(kind):
    """Name -> unit of the ``kind`` metrics ("end_to_end" or "per_layer")
    listed in BENCHMARK.json."""
    return {m["name"]: m["unit"] for m in json.loads(SPEC.read_text())[kind]}


def _import_gbs():
    if not (SRC / "gbs" / "__init__.py").is_file():
        raise BenchError(f"no gbs sources under {SRC}")
    os.environ.update(KERNEL_ENV)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import gbs
    import gbs.cli  # noqa: F401  (loads every layer, numpy and scipy)
    if Path(gbs.__file__).resolve().parent != (SRC / "gbs").resolve():
        raise BenchError(f"imported gbs from {gbs.__file__}, not {SRC}")
    if gbs.kernel_backend() != "python":
        raise BenchError(
            f"kernel backend {gbs.kernel_backend()!r}, want python")
    return gbs


def fixture_path(name):
    return str(FIXTURES / f"{name}.gbs")


def load_group(name):
    from gbs.graphs import parse_graph
    from gbs.words import GbsGroup
    return GbsGroup(*parse_graph(Path(fixture_path(name)).read_text()))


def measure_setup(names, runs):
    """Median wall time of a fresh interpreter that imports gbs and loads
    the fixtures into groups; the first probe also warms bytecode caches."""
    probe = [sys.executable, str(HERE / "setup_probe.py"), str(SRC),
             *map(fixture_path, names)]
    env = {**os.environ, **KERNEL_ENV}
    times = []
    for _ in range(runs + 1):
        t0 = time.perf_counter()
        subprocess.run(probe, env=env, check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return statistics.median(times[1:])


# -- oracles shared by the workloads ------------------------------------------


def path_index(graph, edges):
    """Index of G_v0 cap G_w in G_w, v0 and w the ends of the Bass-Serre
    tree path that follows ``edges``, by the gcd recursion.  For the letters
    of a canonical word g closed at the base this is the least k > 0 with
    g a^k g^-1 in <a>."""
    k = 1
    for e in edges:
        k = k * abs(graph.alpha[e]) // gcd(k, abs(graph.alpha[e ^ 1]))
    return k


def word_edges(g):
    return list(g.items[1::2])


def modular(graph, edges):
    q = Fraction(1)
    for e in edges:
        q *= Fraction(graph.alpha[e ^ 1], graph.alpha[e])
    return q


def tree_ball_size(graph, base, radius):
    """Vertices of the covering-tree ball, counted by vertex type: a vertex
    of type v has |alpha(bar f)| neighbours along each edge f leaving v, one
    of which is its parent."""
    def count(v, came, r):
        total = 1
        if r == 0:
            return total
        for f in range(graph.n_edges):
            if graph.origin[f] != v:
                continue
            n = abs(graph.alpha[f ^ 1]) - (came is not None and f == came ^ 1)
            total += n * count(graph.terminus[f], f, r - 1)
        return total
    return count(base, None, radius)


def kesten(m):
    """Kesten's norm of (1/m) sum (x_i + x_i^-1) over m free generators."""
    return 2.0 * math.sqrt(2 * m - 1) / m


# -- jobs ---------------------------------------------------------------------


class Job:
    """One closed-loop job: ``run()`` returns the output, ``check(output)``
    returns None or a description of what is wrong."""

    __slots__ = ("kind", "run", "check")

    def __init__(self, kind, run, check):
        self.kind = kind
        self.run = run
        self.check = check


def cli_job(argv, check):
    """A ``gbs`` command; ``check(stdout)`` runs when the exit code is 0."""
    from gbs import cli

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                rc = cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
        return rc, out.getvalue()

    def check_exit(out):
        rc, text = out
        return check(text) if rc == 0 else f"exit code {rc}"
    return Job(f"cli.{argv[0]}", run, check_exit)


def pingpong_jobs(groups, seed, sizes):
    from gbs import pingpong

    def check_run(expected):
        def check(text):
            report = json.loads(text)
            if report["pass"] is not True:
                return f"verdict {report['pass']}"
            if report["pairs_checked"] != expected:
                return f"pairs_checked {report['pairs_checked']} != {expected}"
            return None
        return check

    runs = []
    for name, big_l, word_bound, exp_bound, expected in sizes["runs"]:
        argv = ["pingpong", fixture_path(name), "--edge", "y",
                "-L", str(big_l), "--word-bound", str(word_bound),
                "--exp-bound", str(exp_bound)]
        runs.append(cli_job(argv, check_run(expected)))

    name, big_l, word_bound, exp_bound = sizes["control"]
    group = groups[name]

    def control():
        data = pingpong.build_ce2(group, "y", big_l)
        bad = pingpong.make_negative_control(data)
        return data, pingpong.verify_pingpong(bad, word_bound, exp_bound)

    def check_control(out):
        data, report = out
        ce = report.counterexample
        if report.passed or ce is None:
            return "negative control passed"
        if pingpong.in_Sj(group.from_string(ce["product"]), data, ce["j"]):
            return "counterexample product lies in S'_j"
        return None

    control_job = Job("api.negative_control", control, check_control)
    return [control_job] + runs


def normest_jobs(groups, seed, sizes):
    m_values = sizes["m"]
    header = "m,bound,estimate,ball_size,iterations"

    def check_run(first):
        def check(text):
            if not first:
                first.append(text)
            elif text != first[0]:
                return "output differs from the first run at this seed"
            lines = text.splitlines()
            if lines[0] != header or len(lines) != len(m_values) + 1:
                return f"bad table {text!r}"
            for m, line in zip(m_values, lines[1:]):
                fields = line.split(",")
                bound, est = float(fields[1]), float(fields[2])
                f_norm = bound * math.sqrt(m) / 2.0
                if int(fields[0]) != m:
                    return f"row for m={fields[0]}, want {m}"
                if not 0.0 <= est <= bound + 1e-9:
                    return f"m={m}: estimate {est} outside [0, {bound}]"
                if est > kesten(m) + 1e-9:
                    return f"m={m}: estimate {est} above Kesten {kesten(m)}"
                if not 0.0 < f_norm <= 2.0 + 1e-9:
                    return f"m={m}: implied |f| {f_norm} outside (0, 2]"
            return None
        return check

    def job(name, radius):
        argv = ["normest", fixture_path(name), "--edge", "y",
                "--radius", str(radius), "--m", ",".join(map(str, m_values)),
                "--seed", str(seed)]
        return cli_job(argv, check_run([]))

    return [job(*run) for run in sizes["runs"]]


def queries_jobs(groups, seed, sizes):
    from gbs import indices, pingpong, tree
    from gbs.words import random_closed_word

    rng = random.Random(seed)
    edges = sizes["word_edges"]
    radius = sizes["tree_radius"]
    jobs = []

    def word(group):
        return random_closed_word(group, rng, edges, 6)

    for name, group in groups.items():
        graph = group.graph
        path = fixture_path(name)
        for _ in range(sizes["repeat"]):
            g1, g2 = word(group), word(group)
            text = f"{group.to_string(g1)}*{group.to_string(g2)}"
            expected = group.to_string(g1 * g2)
            jobs.append(cli_job(["reduce", path, text],
                                _check_reduce(group, expected)))
        for _ in range(sizes["repeat"]):
            g = word(group)
            e = word_edges(g)
            ratio = Fraction(path_index(graph, [x ^ 1 for x in reversed(e)]),
                             path_index(graph, e))
            jobs.append(cli_job(["modular", path, group.to_string(g)],
                                _check_modular(ratio)))
        jobs.append(cli_job(["check", path], _check_verdict(VERDICTS[name])))
        jobs.append(cli_job(["indices", path],
                            _check_indices(VERDICTS[name], BIG_N[name])))
        jobs.append(cli_job(
            ["tree", path, "--radius", str(radius), "--format", "json"],
            _check_tree(tree_ball_size(graph, group.base, radius), radius)))
        for _ in range(sizes["repeat"]):
            g = word(group)
            jobs.append(Job(
                "api.vertex_index",
                lambda g=g, group=group: indices.vertex_index(g, group.base),
                _check_equal(path_index(graph, word_edges(g)))))

    for name in ("bs23", "gbs2"):
        group = groups[name]
        for _ in range(sizes["moved"]):
            g = word(group)
            limit = 2 * g.edge_length + 2
            jobs.append(Job(
                "api.moved_vertex",
                lambda g=g, group=group, limit=limit:
                    tree.moved_vertex(group, g, limit),
                _check_moved(group, g, limit)))

    group = groups["bs23"]
    a = group.vertex_generator(group.graph.terminus[group.graph.edge_id("y")])
    t = group.edge_generator("y")
    k = sizes["tail_k"]
    g = t ** k * a * t.inverse() ** k
    for _ in range(sizes["tail"]):
        jobs.append(Job(
            "api.theorem_data",
            lambda: pingpong.build_theorem_data(group, "y", g, 4),
            _check_theorem_data(group)))

    rng.shuffle(jobs)
    return jobs


def _check_reduce(group, expected):
    def check(text):
        text = text.strip()
        if text != expected:
            return f"reduce gave {text!r}, want {expected!r}"
        again = group.to_string(group.from_string(text))
        if again != text:
            return f"reduce not idempotent: {text!r} -> {again!r}"
        return None
    return check


def _check_modular(ratio):
    def check(text):
        if abs(Fraction(text.strip())) != ratio:
            return f"|modular| {text.strip()} != index ratio {ratio}"
        return None
    return check


def _check_verdict(met):
    def check(text):
        verdict = json.loads(text)
        if verdict["sufficient_conditions_met"] is not met:
            return f"verdict {verdict}, want met={met}"
        return None
    return check


def _check_indices(met, big_n):
    def check(text):
        report = json.loads(text)
        if report["sufficient_conditions_met"] is not met:
            return f"indices verdict {report}, want met={met}"
        if report["big_N"] != big_n:
            return f"big_N {report['big_N']}, want {big_n}"
        return None
    return check


def _check_tree(vertices, radius):
    def check(text):
        ball = json.loads(text)
        n = len(ball["vertices"])
        if n != vertices or len(ball["edges"]) != n - 1:
            return (f"tree ball {n} vertices, {len(ball['edges'])} edges; "
                    f"want {vertices}")
        if max(v["depth"] for v in ball["vertices"]) != radius:
            return "tree ball depth"
        return None
    return check


def _check_equal(expected):
    def check(out):
        return None if out == expected else f"got {out}, want {expected}"
    return check


def _check_moved(group, g, limit):
    from gbs import tree

    def check(out):
        v, depth = out
        if depth > limit:
            return f"moved vertex at depth {depth} > {limit}"
        if tree.act(group, g, v) == v:
            return "returned vertex is fixed"
        return None
    return check


def _check_theorem_data(group):
    def check(td):
        if len(td.w) != 4:
            return f"{len(td.w)} w_i, want 4"
        for i, w in enumerate(td.w, 1):
            q = modular(group.graph, word_edges(w))
            if q != 1:
                return f"modular value of w_{i} is {q}"
        return None
    return check


WORKLOADS = {"pingpong": pingpong_jobs, "normest": normest_jobs,
             "queries": queries_jobs}
FIXTURES_OF = {"pingpong": ("bs23", "gbs2"), "normest": ("bs23", "gbs2"),
               "queries": ("bs23", "gbs2", "chain3", "two_vertex")}


# -- measurement --------------------------------------------------------------


class Rounds:
    """Round wall times, job latencies and failures of one run mode."""

    def __init__(self):
        self.walls = []
        self.latencies = []
        self.attempted = 0
        self.failures = []

    def run(self, jobs, tracer=None):
        gc.collect()
        outputs = []
        wall = 0.0
        if tracer is not None:
            tracer.install()
        try:
            for i, job in enumerate(jobs):
                t0 = time.perf_counter()
                try:
                    if tracer is None:
                        out = job.run()
                    else:
                        out = tracer.run_job(i, job.kind, job.run)
                    error = None
                except Exception as exc:  # a failed job, counted below
                    out, error = None, f"{type(exc).__name__}: {exc}"
                dt = time.perf_counter() - t0
                wall += dt
                self.latencies.append(dt)
                outputs.append((out, error))
        finally:
            if tracer is not None:
                tracer.uninstall()
        self.walls.append(wall)
        for job, (out, error) in zip(jobs, outputs):
            self.attempted += 1
            if error is None:
                try:
                    error = job.check(out)
                except Exception as exc:  # malformed output
                    error = f"check raised {type(exc).__name__}: {exc}"
            if error is not None:
                self.failures.append(f"{job.kind}: {error}")


def layer_metrics(tracer, traced_walls, plain_wall):
    from tracing import Stat

    stats = tracer.stats

    def stat(key):
        return stats.get(key) or Stat(key, "")

    def rate(a, b):
        return a / b if b else 0.0

    n = len(traced_walls)
    traced_wall = statistics.median(traced_walls)
    mul = stat("wordcore.mul_items")
    canon = stat("wordcore.canon_items")
    emul = stat("words.GroupElement.__mul__")
    closed = stat("words.closed_words")
    verify = stat("pingpong.verify_pingpong")
    ball = stat("opsim.enumerate_ball")
    op = stat("opsim.operator_of")
    power = stat("opsim._power_iteration")
    vindex = stat("indices.vertex_index")
    parse = stat("graphs.parse_graph")
    tball = stat("tree.ball")
    pairs = verify.extra.get("pairs", 0)
    products = mul.callers.get(verify.key, 0)
    matvecs = power.extra.get("matvecs", 0)
    selfs = tracer.layer_self_times()

    values = {
        "wordcore.mul_calls": mul.calls / n,
        "wordcore.mul_s": mul.busy / n,
        "wordcore.mul_per_s": rate(mul.calls, mul.busy),
        "wordcore.canon_calls": canon.calls / n,
        "wordcore.canon_s": canon.busy / n,
        "wordcore.inv_calls": stat("wordcore.inv_items").calls / n,
        "words.element_mul_calls": emul.calls / n,
        "words.element_mul_self_s": emul.self_time / n,
        "words.closed_words_yielded": closed.extra.get("yielded", 0) / n,
        "words.closed_words_s": closed.busy / n,
        "words.cyclic_membership_calls":
            stat("words.GbsGroup.cyclic_membership").calls / n,
        "pingpong.pairs": pairs / n,
        "pingpong.products": products / n,
        "pingpong.products_per_pair": rate(products, pairs),
        "pingpong.verify_self_s": verify.self_time / n,
        "opsim.ball_elements": ball.extra.get("elements", 0) / n,
        "opsim.ball_s": ball.busy / n,
        "opsim.operator_nnz": op.extra.get("nnz", 0) / n,
        "opsim.operator_s": op.busy / n,
        "opsim.average_s": stat("opsim.average_conjugates").busy / n,
        "opsim.operator_coverage":
            rate(op.extra.get("nnz", 0), op.extra.get("slots", 0)),
        "opsim.matvecs": matvecs / n,
        "opsim.power_s": power.busy / n,
        "opsim.matvecs_per_s": rate(matvecs, power.busy),
        "indices.vertex_index_calls": vindex.calls / n,
        "indices.vertex_index_s": vindex.busy / n,
        "indices.check_theorem_s": stat("indices.check_theorem").busy / n,
        "graphs.parse_calls": parse.calls / n,
        "graphs.parse_s": parse.busy / n,
        "tree.ball_vertices": tball.extra.get("vertices", 0) / n,
        "tree.ball_s": tball.busy / n,
        "tree.moved_vertex_s": stat("tree.moved_vertex").busy / n,
        "trace.wall_s": traced_wall,
        "trace.self_share": rate(sum(selfs.values()), sum(traced_walls)),
        "trace_overhead": rate(traced_wall, plain_wall),
    }
    for layer, self_time in selfs.items():
        values[f"{layer}.self_s"] = self_time / n
    return {name: {"value": values[name], "unit": unit}
            for name, unit in metric_units("per_layer").items()}


def run(workload, seed, seconds, trace, sizes=None, setup_runs=SETUP_RUNS):
    """Run one workload; returns (report, result) as printed by main."""
    gbs = _import_gbs()
    sizes = (sizes or SIZES)[workload]
    setup_s = measure_setup(FIXTURES_OF[workload], setup_runs)
    groups = {name: load_group(name) for name in FIXTURES_OF[workload]}
    jobs = WORKLOADS[workload](groups, seed, sizes)

    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer()
    plain, traced = Rounds(), Rounds()
    start = time.perf_counter()
    cycles = 0
    while True:
        plain.run(jobs)
        if tracer is not None:
            traced.run(jobs, tracer)
        cycles += 1
        elapsed = time.perf_counter() - start
        if elapsed * (cycles + 1) / cycles > seconds:
            break

    attempted = plain.attempted + traced.attempted
    failures = plain.failures + traced.failures
    wall_s = statistics.median(plain.walls)
    report = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "kernel_backend": gbs.kernel_backend(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "rounds": len(plain.walls),
        "jobs_per_round": len(jobs),
        "job_samples": len(plain.latencies),
        "fail_ratio": {"value": len(failures) / attempted, "unit": "1"},
        "failures": failures[:10],
    }
    if workload == "pingpong":
        pairs = sum(spec[4] for spec in sizes["runs"])
        report["pairs_per_s"] = {"value": pairs / wall_s, "unit": "1/s"}
    if tracer is None:
        metrics = {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "job_p50_ms": 1e3 * statistics.median(plain.latencies),
            "job_p99_ms": 1e3 * statistics.quantiles(
                plain.latencies, n=100, method="inclusive")[98],
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": metrics[name], "unit": unit}
                   for name, unit in metric_units("end_to_end").items()}
    else:
        metrics = layer_metrics(tracer, traced.walls, wall_s)
        path = TRACE_DIR / f"trace-{workload}-seed{seed}.json"
        tracer.write(path)
        report["trace_file"] = os.path.relpath(path, ROOT)
        report["traced_rounds"] = len(traced.walls)
        report["layer_targets"] = LAYER_TARGETS
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    return report, result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        report, result = run(args.workload, args.seed, args.seconds,
                             bool(args.trace))
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
