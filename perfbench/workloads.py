"""The benchmark's workloads: seeded inputs, one timed pass, correctness gates.

Each workload is a closed loop with one client: it calls steklov's public
functions one after another from this process. The seed only relabels or
generates the inputs; steklov sees nothing but the resulting graphs. Calls go
through attribute lookups on ``steklov`` and ``steklov.cli`` at call time, so
the tracer's wrappers see them.
"""

import hashlib
import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

import steklov
import steklov.cli
from steklov.graphs import INF

N_SCAN = (2.0, 3.0, 5.0, 10.0, INF)


class Failed:
    """An operation that raised instead of returning."""

    def __init__(self, exc):
        self.reason = f"raised {type(exc).__name__}: {exc}"


def call(tracer, op, fn, *args):
    """Run one top-level operation under its own span; an error fails only it."""
    with tracer.span(op):
        try:
            return fn(*args)
        except Exception as exc:  # the gates count it as a failed operation
            return Failed(exc)


class Outcomes:
    """Operations attempted and the named ones that failed a gate."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, op, problem=None):
        self.attempted += 1
        if problem:
            self.failures.append(f"{op}: {problem}")


def _relabelled(rng, vertex_specs, edge_specs):
    """build_graph with the vertex order and edge order shuffled by the seed."""
    order = rng.permutation(len(vertex_specs))
    edges = [edge_specs[k] for k in rng.permutation(len(edge_specs))]
    return steklov.build_graph([vertex_specs[k] for k in order], edges)


# ---------------------------------------------------------------------------
# grid_curvature
# ---------------------------------------------------------------------------

def unit_grid_specs(k):
    ids = {(i, j): f"g{i}_{j}" for i in range(k) for j in range(k)}
    edges = []
    for (i, j), v in ids.items():
        if i + 1 < k:
            edges.append((v, ids[i + 1, j], 1.0))
        if j + 1 < k:
            edges.append((v, ids[i, j + 1], 1.0))
    return [(v, 1.0) for v in ids.values()], edges


class GridCurvature:
    """curvature_profile(g, (2, inf)) on unit grids of two sizes."""

    name = "grid_curvature"
    SIDES = {"full": (12, 16), "toy": (5, 6)}
    # Global minimum of kappa over each grid, per n, recorded from the initial
    # toolkit; every grid with side >= 5 has the same two values.
    GLOBAL_MIN = {2.0: -1.9999999999999996, INF: 0.0}

    def __init__(self, seed, workdir, scale="full"):
        rng = np.random.default_rng(seed)
        self.grids = [_relabelled(rng, *unit_grid_specs(k)) for k in self.SIDES[scale]]

    def run_pass(self, tracer):
        return [
            (f"profile.N{g.num_vertices}",
             call(tracer, f"profile.N{g.num_vertices}", steklov.curvature_profile, g, (2.0, INF)))
            for g in self.grids
        ]

    def check(self, results, outcomes):
        for op, profile in results:
            outcomes.record(op, self._problem(profile))

    def _problem(self, profile):
        if isinstance(profile, Failed):
            return profile.reason
        for n, per_vertex in profile.results.items():
            for v, res in per_vertex.items():
                if not res.kernel_ok:
                    return f"kernel_ok false at vertex {v}, n = {n}"
                if abs(res.kappa - res.witness_quotient) > 1e-8 * (1.0 + abs(res.kappa)):
                    return f"witness quotient {res.witness_quotient!r} != kappa {res.kappa!r} at {v}, n = {n}"
        for n, expected in self.GLOBAL_MIN.items():
            got = profile.global_min[n][0]
            if abs(got - expected) > 1e-9 * (1.0 + abs(expected)):
                return f"global min {got!r} at n = {n}, expected {expected!r}"
        return None


# ---------------------------------------------------------------------------
# unit_scan
# ---------------------------------------------------------------------------

class UnitScan:
    """The exhaustive unit-weight scan: every connected atlas graph, every boundary."""

    name = "unit_scan"
    MAX_VERTICES = {"full": 6, "toy": 4}
    # graphs, placements, Steklov solves; the equality labels are the same at
    # both sizes because every rigid unit graph has at most 4 vertices.
    TOTALS = {"full": (142, 1868, 1059), "toy": (9, 45, 13)}
    LABELS = ["unit_path3", "unit_square", "unit_square", "unit_square_diag"]

    def __init__(self, seed, workdir, scale="full"):
        import networkx as nx

        rng = np.random.default_rng(seed)
        self.totals = self.TOTALS[scale]
        self.graphs = []
        for G in nx.graph_atlas_g():
            nv = G.number_of_nodes()
            if not 2 <= nv <= self.MAX_VERTICES[scale] or not nx.is_connected(G):
                continue
            ids = [f"u{k}" for k in rng.permutation(nv)]
            g = _relabelled(rng, [(v, 1.0) for v in ids], [(ids[a], ids[b], 1.0) for a, b in G.edges()])
            adj = g.weights > 0.0
            placements = []
            for mask in range(1, 2**nv - 1):
                chosen = [i for i in range(nv) if (mask >> i) & 1]
                if not any(adj[i, j] for i in chosen for j in chosen if i < j):
                    placements.append({g.vertices[i] for i in chosen})
            self.graphs.append((g, placements))

    @staticmethod
    def _scan_graph(g, placements):
        profile = steklov.curvature_profile(g, N_SCAN)
        rows = []
        for boundary in placements:
            bg = steklov.attach_boundary(g, boundary)
            label = steklov.classify_unit_weight(bg).label.value
            hits = []
            if len(boundary) >= 2:
                sigma2 = float(steklov.steklov_spectrum(bg).values[1])
                for n in N_SCAN:
                    K = profile.global_min[n][0]
                    bound = K if n == INF else n * K / (n - 1.0)
                    if K > 1e-9 and abs(sigma2 - bound) <= 1e-8 * bound:
                        hits.append((K, n))
            report = steklov.check_rigidity(bg, *hits[0]) if hits else None
            rows.append((sorted(boundary), len(boundary) >= 2, label, hits, report))
        return rows

    def run_pass(self, tracer):
        return [
            (f"scan.{i}", call(tracer, f"scan.{i}", self._scan_graph, g, placements))
            for i, (g, placements) in enumerate(self.graphs)
        ]

    def check(self, results, outcomes):
        placements = solves = 0
        labels = []
        for op, rows in results:
            if isinstance(rows, Failed):
                outcomes.record(op, rows.reason)
                continue
            problem = None
            for boundary, solved, label, hits, report in rows:
                placements += 1
                solves += solved
                if bool(hits) != (label != "not_rigid"):
                    problem = problem or f"classifier says {label}, spectral hits {hits} at boundary {boundary}"
                if hits:
                    labels.append(label)
                    if len(hits) != 1 or not (report.is_rigid and report.consistent):
                        problem = problem or f"hit at boundary {boundary} is not a consistent rigid report"
            outcomes.record(op, problem)
        got = (len(results), placements, solves)
        problem = None
        if got != self.totals:
            problem = f"(graphs, placements, solves) = {got}, expected {self.totals}"
        elif sorted(labels) != self.LABELS:
            problem = f"equality labels {sorted(labels)}, expected {self.LABELS}"
        outcomes.record("scan.totals", problem)


# ---------------------------------------------------------------------------
# rigidity_complete
# ---------------------------------------------------------------------------

class RigidityComplete:
    """construct_rigid_family over complete interiors, then check it and a twin."""

    name = "rigidity_complete"
    SIZES = {"full": (10, 20, 30), "toy": (3, 4)}
    N, K, M = 10.0, 1.0, 1.0

    def __init__(self, seed, workdir, scale="full"):
        rng = np.random.default_rng(seed)
        self.cases = []
        for size in self.SIZES[scale]:
            ids = [f"x{k}" for k in rng.permutation(size)]
            interior = steklov.build_graph(
                [(v, 1.0) for v in ids],
                [(ids[a], ids[b], 1.0) for a in range(size) for b in range(a + 1, size)],
            )
            # which boundary edge the twin scales by 1.01
            self.cases.append((size, interior, int(rng.integers(2)), int(rng.integers(size))))

    @staticmethod
    def twin(bg, b_pos, x_pos):
        """The same graph with one boundary edge weight scaled by 1.01."""
        g = bg.graph
        b, x = bg.boundary[b_pos], bg.interior[x_pos]
        edges = [(u, v, w * 1.01 if {u, v} == {b, x} else w) for u, v, w in g.edge_list()]
        vertices = [(v, g.measure(v)) for v in g.vertices]
        return steklov.attach_boundary(steklov.build_graph(vertices, edges), set(bg.boundary))

    def _twin_report(self, bg, b_pos, x_pos):
        return steklov.check_rigidity(self.twin(bg, b_pos, x_pos), self.K, self.N)

    def run_pass(self, tracer):
        out = []
        for size, interior, b_pos, x_pos in self.cases:
            built = call(tracer, f"construct.S{size}", steklov.construct_rigid_family,
                         interior, self.N, self.K, self.M)
            out.append((f"construct.S{size}", built))
            if isinstance(built, Failed):
                continue
            out.append((f"rigid.S{size}", call(tracer, f"rigid.S{size}", steklov.check_rigidity,
                                               built.graph, self.K, self.N)))
            out.append((f"twin.S{size}", call(tracer, f"twin.S{size}", self._twin_report,
                                              built.graph, b_pos, x_pos)))
        return out

    def check(self, results, outcomes):
        for op, res in results:
            outcomes.record(op, self._problem(op, res))

    @staticmethod
    def _problem(op, res):
        if isinstance(res, Failed):
            return res.reason
        if op.startswith("construct."):
            return None if res.interior_report.passed else "constructed graph fails condition (5)"
        if not res.consistent:
            return "report is not consistent"
        if op.startswith("rigid."):
            label = res.classification.label.value
            if not res.is_rigid or label != "general_equality":
                return f"expected rigid general_equality, got is_rigid={res.is_rigid} label={label}"
        elif res.is_rigid:
            return "perturbed twin reported rigid"
        return None


# ---------------------------------------------------------------------------
# the CLI
# ---------------------------------------------------------------------------

# family -> (make_example parameters, K, n); every command exits 0 on these
FAMILIES = {
    "unit_path3": ({}, "0.5", "2"),
    "unit_square": ({}, "2", "inf"),
    "unit_square_diag": ({}, "2", "inf"),
    "weighted_path3": ({"n": 3.0, "K": 1.0, "m": 1.0}, "1", "3"),
    "weighted_square": ({"K": 1.0, "m": 1.0}, "1", "inf"),
    "complete_interior": ({"interior_size": 4, "n": 10.0, "K": 1.0, "m": 1.0}, "1", "10"),
}


def random_boundary_graph(rng, n_interior, n_boundary):
    """Seeded weighted graph: an interior ring with chords, each boundary vertex
    joined to two interior vertices, weights and measures in [0.5, 2]."""
    edges = {}
    for i in range(n_interior):
        edges[min(i, (i + 1) % n_interior), max(i, (i + 1) % n_interior)] = None
        for j in rng.choice(n_interior, size=2, replace=False).tolist():
            if j != i:
                edges[min(i, j), max(i, j)] = None
    for b in range(n_interior, n_interior + n_boundary):
        for j in rng.choice(n_interior, size=2, replace=False).tolist():
            edges[j, b] = None
    ids = [f"v{i}" for i in range(n_interior + n_boundary)]
    weights = rng.uniform(0.5, 2.0, size=len(edges))
    measures = rng.uniform(0.5, 2.0, size=len(ids))
    g = steklov.build_graph(
        [(v, float(m)) for v, m in zip(ids, measures)],
        [(ids[i], ids[j], float(w)) for (i, j), w in zip(edges, weights)],
    )
    return steklov.attach_boundary(g, set(ids[n_interior:]))


def run_cli(argv):
    """One in-process CLI invocation: exit code, stdout text, latency in seconds."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        code = steklov.cli.run(argv)
        latency = time.perf_counter() - start
    return code, out.getvalue(), latency


class CliCalls:
    """The CLI on graph files written at set-up.

    Small calls run every command on the six example families; large calls
    run spectrum and steklov on one seeded random graph of about 300 vertices.
    The other workloads time the small calls alone (large=False).
    """

    name = "cli_calls"
    COMMANDS = (("rigidity", True), ("curvature", False), ("cd-check", True),
                ("steklov", False), ("spectrum", False), ("ball-scan", False))
    LARGE = {"full": (240, 60), "toy": (16, 4)}

    def __init__(self, seed, workdir, large=True, scale="full"):
        os.makedirs(workdir, exist_ok=True)
        self.small = []
        for family, (params, K, n) in FAMILIES.items():
            path = os.path.join(workdir, f"{family}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(steklov.serialize_graph(steklov.make_example(family, **params)))
            for command, needs_kn in self.COMMANDS:
                argv = [command, "--graph", path]
                if command == "curvature":
                    argv += ["--n", "2,3,inf"]
                elif needs_kn:
                    argv += ["--K", K, "--n", n]
                self.small.append((f"cmd.{command}.{family}", argv))
        self.large = []
        if large:
            path = os.path.join(workdir, "random_boundary.json")
            bg = random_boundary_graph(np.random.default_rng(seed), *self.LARGE[scale])
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(steklov.serialize_graph(bg))
            self.large = [(f"cmd.{c}.random", [c, "--graph", path]) for c in ("spectrum", "steklov")]
        self.digests = {}

    def run_pass(self, tracer):
        """[(op, (code, stdout, latency) or Failed, is_small)] for one round."""
        out = []
        for calls, small in ((self.small, True), (self.large, False)):
            for op, argv in calls:
                out.append((op, call(tracer, op, run_cli, argv), small))
        return out

    def check(self, results, outcomes):
        for op, res, _ in results:
            outcomes.record(op, self._problem(op, res))

    def _problem(self, op, res):
        if isinstance(res, Failed):
            return res.reason
        code, stdout, _ = res
        if code != 0:
            return f"exit code {code}, expected 0"
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        first = self.digests.get(op)
        if first is None:
            try:
                json.loads(stdout)
            except ValueError as e:
                return f"stdout is not JSON: {e}"
            self.digests[op] = digest
        elif first != digest:
            return "stdout differs from the first round"
        return None


def small_latencies(results):
    return [res[2] for _, res, small in results if small and not isinstance(res, Failed)]


def cold_start(outcomes):
    """Wall time of one fresh `python -m steklov.cli --version` process."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "steklov.cli", "--version"],
                          capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - start
    ok = proc.returncode == 0 and proc.stdout.startswith("steklov ")
    outcomes.record("cli.cold_start", None if ok else f"exit {proc.returncode}: {proc.stderr[-200:]!r}")
    return elapsed


def import_seconds():
    """Self import time of numpy, scipy and steklov modules in a fresh `import steklov.cli`."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import steklov.cli"],
                          capture_output=True, text=True, timeout=60, check=True)
    totals = dict.fromkeys(("numpy", "scipy", "steklov"), 0.0)
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, _, name = (part.strip() for part in line[len("import time:"):].split("|"))
        top = name.split(".")[0]
        if top in totals:
            totals[top] += int(self_us) / 1e6
    return totals


WORKLOADS = {w.name: w for w in (GridCurvature, UnitScan, RigidityComplete, CliCalls)}
