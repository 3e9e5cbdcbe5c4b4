"""Command-line surface: machine-readable reports over the whole toolkit.

Reports are deterministic JSON on stdout (sorted keys, 17-significant-digit
floats, so identical invocations on one BLAS build and thread count are
byte-identical); short human summaries go to stderr. Exit codes: 0 success,
1 verification failure (a check the command ran came out negative), 2 input
or usage errors.

A call loads only the library layers its command runs: --version and --help
load none, and a usage error only the JSON writer (and numpy).
"""

import argparse
import functools
import importlib
import math
import sys

from . import __version__
from .errors import ParseError, SteklovError

# the library names the handlers read from this module's globals, by module;
# each is bound on the first dispatch of a command that needs it (or on the
# first attribute lookup here, as when perfbench's tracer wraps the name)
_LIBRARY = {
    "jsonio": ("format_json",),
    "graphs": ("GREEN_TOL", "induced_interior_graph", "is_infinite", "make_example", "parse_graph_file",
               "serialize_graph"),
    "spectra": ("laplacian_spectrum", "steklov_spectrum"),
    "curvature": ("cd_check", "curvature_profile"),
    "operators": ("VertexFunction", "scaled_green_residual"),
    "rigidity": ("check_rigidity", "classify_normalized", "classify_partial", "classify_unit_weight",
                 "disjoint_ball_scan"),
}


@functools.cache
def _bind(module):
    """Bind module's names from _LIBRARY here, keeping any name already bound (a tracer's wrapper, a test's patch)."""
    lib = importlib.import_module(f"{__package__}.{module}")
    for name in _LIBRARY[module]:
        globals().setdefault(name, getattr(lib, name))


def __getattr__(name):
    for module, names in _LIBRARY.items():
        if name in names:
            _bind(module)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _number_key(x):
    """Stable string key for a float (used for n-indexed tables)."""
    if is_infinite(x):
        return "inf"
    return f"{x:.17g}"


def _parse_float(text, flag):
    try:
        value = float(text)
    except ValueError:
        raise UsageError(f"{flag} expects a number, got {text!r}") from None
    if math.isnan(value):
        raise UsageError(f"{flag} must not be NaN")
    return value


def _load_graph(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise UsageError(f"cannot read graph file {path}: {e}") from None
    except UnicodeDecodeError as e:
        raise ParseError(None, f"graph file is not UTF-8 text: {e}") from None
    return parse_graph_file(text)


def _function_payload(f):
    return {"domain": [str(v) for v in f.domain], "values": f.values}


def _spectrum_payload(spec):
    domain = [str(v) for v in spec.domain]
    return {
        "kind": spec.kind.value,
        "values": spec.values,
        "multiplicity_groups": [list(grp) for grp in spec.multiplicity_groups()],
        "eigenfunctions": [{"domain": domain, "values": row} for row in spec.vectors],
    }


def _emit(report, summary_lines):
    _bind("jsonio")
    sys.stdout.write(format_json(report, sort_keys=True))
    sys.stdout.write("\n")
    for line in summary_lines:
        print(line, file=sys.stderr)


@functools.cache
def _build_parser():
    parser = _Parser(prog="steklov", description=__doc__)
    parser.add_argument("--version", action="version", version=f"steklov {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def graph_cmd(name, help_text, needs_kn=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--graph", required=True, help="graph file to analyze")
        if needs_kn:
            p.add_argument("--K", required=True, help="curvature lower bound K > 0")
            p.add_argument("--n", required=True, help="dimension parameter in (1, inf]; 'inf' accepted")
        return p

    graph_cmd("spectrum", "Laplacian eigenvalues of the underlying graph")
    graph_cmd("steklov", "Steklov eigenvalues of the boundary graph")

    p = graph_cmd("curvature", "per-vertex curvature over a grid of dimensions")
    p.add_argument("--n", required=True, help="comma-separated dimension values, e.g. 2,3,inf")

    graph_cmd("cd-check", "verify the curvature-dimension condition CD(K, n)", needs_kn=True)
    graph_cmd("rigidity", "decide equality in sigma_2 >= nK/(n-1)", needs_kn=True)

    p = graph_cmd("classify", "match the graph against the rigid shapes")
    p.add_argument("--class", dest="klass", required=True, choices=("unit", "normalized", "partial"))
    p.add_argument("--K", help="required for --class partial")
    p.add_argument("--n", help="required for --class partial")

    p = graph_cmd("green-check", "audit Green's identity on random functions")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("generate", help="write an example family to a graph file")
    p.add_argument("--family", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--n", help="dimension parameter (weighted_path3, complete_interior)")
    p.add_argument("--K", help="curvature parameter")
    p.add_argument("--m", help="boundary measure")
    p.add_argument("--lam", help="interior weight scale (complete_interior)")
    p.add_argument("--interior-size", dest="interior_size", type=int,
                   help="number of interior vertices (complete_interior)")

    graph_cmd("ball-scan", "search the interior for two disjoint radius-2 balls")
    return parser


def _cmd_spectrum(args):
    bg = _load_graph(args.graph)
    spec = laplacian_spectrum(bg.graph)
    results = _spectrum_payload(spec)
    return 0, results, [f"laplacian spectrum: {spec.values.round(12).tolist()}"]


def _cmd_steklov(args):
    bg = _load_graph(args.graph)
    spec = steklov_spectrum(bg)
    results = _spectrum_payload(spec)
    return 0, results, [f"steklov spectrum: {spec.values.round(12).tolist()}"]


def _cmd_curvature(args):
    bg = _load_graph(args.graph)
    grid = [_parse_float(part, "--n") for part in args.n.split(",") if part.strip()]
    if not grid:
        raise UsageError(f"--n expects at least one dimension value, got {args.n!r}")
    profile = curvature_profile(bg.graph, grid)  # its kappas and kernel_ok need no eigenvectors
    ids = [str(v) for v in profile.vertices]
    unreliable = [v for v, ok in zip(ids, profile.kernel_ok.tolist()) if not ok]
    kappa = {}
    global_min = {}
    warnings = []
    for n, column in zip(profile.n_values, profile.kappas.T.tolist()):
        key = _number_key(n)
        kappa[key] = dict(zip(ids, column))
        value, vertex = profile.global_min[n]
        global_min[key] = {"kappa": value, "vertex": str(vertex)}
        warnings += [f"kernel_ok is false at vertex {v}, n = {key}: an S2 pivot underflowed to 0 "
                     "or its reciprocal overflowed, so this kappa is not reliable" for v in unreliable]
    results = {
        "n_grid": list(profile.n_values),
        "kappa": kappa,
        "global_min": global_min,
    }
    lines = [
        f"n = {_number_key(n)}: global curvature {profile.global_min[n][0]:.12g} "
        f"at vertex {profile.global_min[n][1]}"
        for n in profile.n_values
    ]
    return 0, results, lines, warnings


def _cmd_cd_check(args):
    bg = _load_graph(args.graph)
    K = _parse_float(args.K, "--K")
    n = _parse_float(args.n, "--n")
    report = cd_check(bg.graph, K, n)
    checks = []
    for c in report.checks:
        entry = {
            "vertex": str(c.vertex),
            "lambda_min": c.lambda_min,
            "form_norm": c.form_norm,
            "holds": c.holds,
        }
        if c.witness is not None:
            entry["witness"] = _function_payload(c.witness)
        checks.append(entry)
    results = {"K": K, "n": n, "holds": report.holds, "vertices": checks}
    lines = [f"CD({K:g}, {_number_key(n)}) {'holds' if report.holds else 'FAILS'}"]
    if not report.holds:
        bad = report.first_violation
        lines.append(f"violated at vertex {bad.vertex} (lambda_min = {bad.lambda_min:.6g})")
    return (0 if report.holds else 1), results, lines, _cd_warnings(report)


def _cd_warnings(cd_report):
    """A warning for each vertex whose lambda_min in a CD verdict is NaN or -inf."""
    return [f"lambda_min is {'NaN' if math.isnan(c.lambda_min) else '-inf'} at vertex {c.vertex}: an S2 pivot "
            "underflowed to 0 or its reciprocal overflowed, so this verdict is not reliable"
            for c in cd_report.checks if math.isnan(c.lambda_min) or c.lambda_min == -math.inf]


def _condition_payload(report):
    return [
        {"index": c.index, "passed": c.passed, "detail": c.detail}
        for c in report.conditions
    ]


def _cmd_rigidity(args):
    bg = _load_graph(args.graph)
    K = _parse_float(args.K, "--K")
    n = _parse_float(args.n, "--n")
    report = check_rigidity(bg, K, n)
    results = {
        "K": K,
        "n": n,
        "cd_holds": report.cd_holds,
        "sigma2": report.sigma2,
        "bound": report.bound,
        "slack": report.slack,
        "bound_equality": report.bound_equality,
        "conditions": _condition_payload(report),
        "all_conditions_hold": report.all_conditions_hold,
        "is_rigid": report.is_rigid,
        "classification": {
            "label": report.classification.label.value,
            "params": dict(report.classification.params),
        },
        "diagnostics": {
            k: (list(map(str, v)) if isinstance(v, tuple) else v)
            for k, v in report.diagnostics.items()
        },
    }
    lines = [
        f"sigma_2 = {report.sigma2}, bound = {report.bound:.12g}, "
        f"equality: {report.bound_equality}",
        f"classification: {report.classification.label.value}",
    ]
    return (0 if report.is_rigid else 1), results, lines, _cd_warnings(report.cd_report)


def _cmd_classify(args):
    bg = _load_graph(args.graph)
    if args.klass == "unit":
        result = classify_unit_weight(bg)
    elif args.klass == "normalized":
        result = classify_normalized(bg)
    else:
        if args.K is None or args.n is None:
            raise UsageError("--class partial needs --K and --n")
        result = classify_partial(bg, _parse_float(args.K, "--K"), _parse_float(args.n, "--n"))
    results = {
        "class": args.klass,
        "label": result.label.value,
        "params": dict(result.params),
        "matched": result.matched,
    }
    return (0 if result.matched else 1), results, [f"classification: {result.label.value}"]


def _cmd_green_check(args):
    bg = _load_graph(args.graph)
    g = bg.graph
    if args.trials < 1:
        raise UsageError("--trials must be at least 1")
    if args.seed < 0:
        raise UsageError("--seed must be non-negative")
    import numpy as np
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    for _ in range(args.trials):
        u = VertexFunction(g.vertices, rng.standard_normal(g.num_vertices))
        v = VertexFunction(g.vertices, rng.standard_normal(g.num_vertices))
        worst = max(worst, scaled_green_residual(bg, u, v))
    ok = worst <= GREEN_TOL
    results = {
        "trials": args.trials,
        "seed": args.seed,
        "max_scaled_residual": worst,
        "tolerance": GREEN_TOL,
        "holds": ok,
    }
    return (0 if ok else 1), results, [f"green identity max scaled residual {worst:.3e}"]


def _cmd_generate(args):
    params = {}
    for flag in ("n", "K", "m", "lam"):
        value = getattr(args, flag)
        if value is not None:
            params[flag] = _parse_float(value, f"--{flag}")
    if args.interior_size is not None:
        params["interior_size"] = args.interior_size
    bg = make_example(args.family, **params)
    text = serialize_graph(bg)
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise UsageError(f"cannot write {args.out}: {e}") from None
    results = {
        "family": args.family,
        "params": params,
        "path": args.out,
        "vertices": len(bg.graph.vertices),
        "edges": len(bg.graph.edge_list()),
        "boundary": [str(v) for v in bg.boundary],
    }
    return 0, results, [f"wrote {args.family} graph to {args.out}"]


def _cmd_ball_scan(args):
    bg = _load_graph(args.graph)
    scan = disjoint_ball_scan(induced_interior_graph(bg))
    results = {
        "interior": [str(v) for v in bg.interior],
        "pair": None if scan.pair is None else [str(v) for v in scan.pair],
        "connected": scan.connected,
        "diameter": scan.diameter,
    }
    line = (
        "no disjoint radius-2 ball pair in the interior"
        if scan.pair is None
        else f"disjoint radius-2 balls centered at {scan.pair[0]} and {scan.pair[1]}"
    )
    return 0, results, [line]


# each handler returns (exit code, results, stderr summary lines), and a list
# of warnings for the report when it can have any; with it, the library
# modules whose names it reads besides graphs' (every command reads or
# writes a graph file)
_COMMANDS = {
    "spectrum": (_cmd_spectrum, ("spectra",)),
    "steklov": (_cmd_steklov, ("spectra",)),
    "curvature": (_cmd_curvature, ("curvature",)),
    "cd-check": (_cmd_cd_check, ("curvature",)),
    "rigidity": (_cmd_rigidity, ("rigidity",)),
    "classify": (_cmd_classify, ("rigidity",)),
    "green-check": (_cmd_green_check, ("operators",)),
    "generate": (_cmd_generate, ()),
    "ball-scan": (_cmd_ball_scan, ("rigidity",)),
}


def _echo_inputs(args):
    return {
        key.replace("_", "-"): value
        for key, value in sorted(vars(args).items())
        if key != "command" and value is not None
    }


def run(argv):
    """Execute one CLI invocation; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        handler, modules = _COMMANDS[args.command]
        for module in ("graphs", *modules):
            _bind(module)
        code, results, lines, *warnings = handler(args)
        report = {
            "command": args.command,
            "inputs": _echo_inputs(args),
            "results": results,
            "warnings": warnings[0] if warnings else [],
        }
        _emit(report, lines)
        return code
    except UsageError as e:
        _emit({"error": {"type": "usage", "message": str(e)}}, [f"error: {e}"])
        return 2
    except SteklovError as e:
        _emit({"error": {"type": type(e).__name__, "message": str(e)}}, [f"error: {e}"])
        return 2


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
