"""Spans and counts at steklov's module boundaries, recorded from outside the package.

The tracer wraps each function that one module calls in another under the
name the caller looks it up by (a module global bound by ``from .x import f``,
or a class attribute for methods), so every crossing passes through a wrapper
and nothing under ``src/`` is edited. Spans stay in memory until the run ends.
"""

import importlib
import statistics
import time
from collections import Counter
from contextlib import contextmanager

LAYERS = ("graphs", "operators", "curvature", "spectra", "rigidity", "jsonio", "cli")

# Binding sites as "module:attribute". The package-level names are the ones the
# benchmark itself calls; the rest are the names other steklov modules (or the
# defining module, for calls within one layer that the metrics split out) use.
BOUNDARIES = (
    # graphs
    "steklov.graphs:WeightedGraph.hop_distances",
    "steklov.graphs:WeightedGraph.delta_operator",
    "steklov:build_graph",
    "steklov:attach_boundary",
    "steklov.cli:parse_graph_file",
    "steklov.cli:induced_interior_graph",
    "steklov.rigidity:induced_interior_graph",
    "steklov.rigidity:join_equality_boundary",
    # operators
    "steklov.curvature:_gamma2_matrix",
    "steklov.rigidity:_gamma2_matrix",
    "steklov.rigidity:_gamma_matrix",
    "steklov.rigidity:interior_edges",
    "steklov.spectra:laplacian",
    "steklov.spectra:differential",
    "steklov.spectra:inner_product_forms",
    "steklov.spectra:inner_product_functions",
    # curvature
    "steklov:curvature_profile",
    "steklov.cli:curvature_profile",
    "steklov.curvature:curvature_at",
    "steklov.rigidity:curvature_at",
    "steklov.cli:cd_check",
    "steklov.rigidity:cd_check",
    # spectra
    "steklov:steklov_spectrum",
    "steklov.cli:steklov_spectrum",
    "steklov.rigidity:steklov_spectrum",
    "steklov.spectra:dtn_operator",
    "steklov.cli:laplacian_spectrum",
    "steklov.spectra:laplacian_spectrum",
    "steklov.rigidity:steklov_eigenfunction_diagnostics",
    "steklov.spectra:harmonic_extension",
    # rigidity
    "steklov:check_rigidity",
    "steklov.cli:check_rigidity",
    "steklov:construct_rigid_family",
    "steklov:classify_unit_weight",
    "steklov.cli:classify_unit_weight",
    "steklov.rigidity:classify_unit_weight",
    "steklov.rigidity:classify_partial",
    "steklov.rigidity:check_necessary_conditions",
    "steklov.rigidity:assemble_interior_form",
    "steklov.rigidity:check_interior_inequality",
    "steklov.rigidity:two_ball_identity_check",
    "steklov.rigidity:disjoint_ball_scan",
    "steklov.cli:disjoint_ball_scan",
    # jsonio: only the name cli uses, so recursion inside jsonio is not split
    "steklov.cli:format_json",
    # cli
    "steklov.cli:run",
)


def span_name(fn):
    """Layer-qualified name of a function: defining module, then bare name."""
    module = fn.__module__.rpartition(".")[2]
    return f"{module}.{fn.__qualname__.rpartition('.')[2].lstrip('_')}"


class Tracer:
    """Records spans as [name, start, end, parent, op] and counts per name.

    A span opened with no span open starts a new top-level operation; every
    span under it carries that operation's id.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = Counter()
        self.op_names = {}
        self.wrapped = []
        self._stack = []
        self._patched = []

    def _open(self, name):
        if self._stack:
            parent = self._stack[-1]
            op = self.spans[parent][4]
        else:
            parent = None
            op = len(self.op_names)
            self.op_names[op] = name
        sid = len(self.spans)
        self.spans.append([name, self.clock(), None, parent, op])
        self._stack.append(sid)
        self.counts[name] += 1
        return sid

    def _close(self, sid):
        self.spans[sid][2] = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        sid = self._open(name)
        try:
            yield
        finally:
            self._close(sid)

    def wrap(self, fn, name):
        def traced(*args, **kwargs):
            sid = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid)

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Replace every binding site with a wrapper; uninstall() restores them."""
        for site in BOUNDARIES:
            module_name, _, path = site.partition(":")
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            fn = getattr(owner, attr)
            self.wrapped.append(fn)
            self._patched.append((owner, attr, fn))
            setattr(owner, attr, self.wrap(fn, span_name(fn)))

    def uninstall(self):
        while self._patched:
            owner, attr, fn = self._patched.pop()
            setattr(owner, attr, fn)


class NoTracer:
    """Stand-in for untraced runs: top-level spans cost one context manager."""

    @contextmanager
    def span(self, name):
        yield


def self_times(spans):
    """Each span's duration minus the part of it that its child spans cover."""
    children = [[] for _ in spans]
    for sid, span in enumerate(spans):
        if span[3] is not None:
            children[span[3]].append(sid)
    out = []
    for sid, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c in sorted(children[sid], key=lambda c: spans[c][1]):
            lo = max(spans[c][1], reach)
            hi = min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def count_under(spans, name, ancestor):
    """How many spans called `name` have a span called `ancestor` above them."""
    total = 0
    for span in spans:
        if span[0] != name:
            continue
        parent = span[3]
        while parent is not None and spans[parent][0] != ancestor:
            parent = spans[parent][3]
        total += parent is not None
    return total


def _ratio(num, base):
    return num / base if base else 0.0


def per_layer_metrics(tracer, passes, stdout_bytes, imports, wall_untraced, wall_traced):
    """Per-pass layer metrics from a traced run of `passes` identical passes.

    Returns the metrics and the bases of the ratios. Every wrapped function
    gets `.calls` and `.self_s` and every layer `.self_s`, zero where the
    workload does not reach it.
    """
    spans = tracer.spans
    names = {span_name(fn) for fn in tracer.wrapped}
    self_s = Counter()
    for span, own in zip(spans, self_times(spans)):
        self_s[span[0]] += own
    metrics = {}
    for name in sorted(names):
        metrics[f"{name}.calls"] = tracer.counts[name] / passes
        metrics[f"{name}.self_s"] = self_s[name] / passes
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(t for n, t in self_s.items() if n.startswith(layer + ".")) / passes

    vertex_ms = {}
    for n in (144, 256):
        ops = {op for op, op_name in tracer.op_names.items() if op_name == f"profile.N{n}"}
        times = [s[2] - s[1] for s in spans if s[0] == "curvature.curvature_at" and s[4] in ops]
        vertex_ms[n] = 1e3 * sum(times) / len(times) if times else 0.0
        metrics[f"curvature.vertex_ms.N{n}"] = vertex_ms[n]
    metrics["curvature.vertex_cost_ratio"] = _ratio(vertex_ms[256], vertex_ms[144])

    rigidity_calls = tracer.counts["rigidity.check_rigidity"]
    bases = {"check_rigidity calls": rigidity_calls, "N144 vertex_ms": vertex_ms[144]}
    for metric, name in (("spectra.laplacian_spectra_per_rigidity", "spectra.laplacian_spectrum"),
                         ("rigidity.necessary_checks_per_rigidity", "rigidity.check_necessary_conditions")):
        metrics[metric] = _ratio(count_under(spans, name, "rigidity.check_rigidity"), rigidity_calls)

    metrics["cli.stdout_bytes"] = stdout_bytes
    for module in ("numpy", "scipy", "steklov"):
        metrics[f"cli.import_s.{module}"] = statistics.median(i[module] for i in imports)
    untraced = statistics.median(wall_untraced)
    metrics["trace.overhead_frac"] = statistics.median(wall_traced) / untraced - 1.0
    bases["untraced wall_s"] = untraced
    return metrics, bases
