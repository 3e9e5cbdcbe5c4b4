"""One workload in one fresh process; prints a JSON object as its last line.

Started by run.py, which sets PYTHONPATH to the checkout's src/ and the BLAS
thread count. --t0 is the parent's clock just before it started this
process, so set-up time covers the interpreter, `import steklov` and building
the inputs.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import numpy as np

from spans import NoTracer

ROOT = Path(__file__).resolve().parent.parent

# Side measurements spread over every untraced run: rounds of the small CLI
# calls (in workloads other than cli_calls; 14 x 36 calls leave 50 beyond
# p90), cold `--version` spawns and set-up processes.
PROBE_ROUNDS = 14
COLD_STARTS = 12
SETUP_SPAWNS = 5
IMPORT_SPAWNS = 3
MAX_TRACED_PASSES = 10


def percentile(values, q):
    """Nearest-rank percentile: the smallest value with at least q of the sample at or below it."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


def interleave(*groups):
    """Merge task lists so that each list's tasks spread evenly over the result."""
    keyed = [((i + 0.5) / len(g), k, task) for k, g in enumerate(groups) for i, task in enumerate(g)]
    return [task for _, _, task in sorted(keyed, key=lambda x: x[:2])]


class Reference:
    """A fixed computation that never touches steklov, timed between measurements.

    The speed of a shared host drifts by tens of percent over seconds and
    moves every timing with it. A timing divided by the mean time of this
    computation within SMOOTH_S seconds of it drifts far less. The window
    spans several samples, so the reference's own jitter over its ~50 ms
    does not leak into long passes. It mixes the kinds of work steklov does:
    interpreted loops, small and medium symmetric eigensolves, and 17-digit
    float formatting.
    """

    SMOOTH_S = 2.0

    def __init__(self):
        rng = np.random.default_rng(0)
        small = rng.standard_normal((12, 12))
        medium = rng.standard_normal((120, 120))
        self.small, self.medium = small + small.T, medium @ medium.T
        self.floats = rng.standard_normal(15000).tolist()
        self.samples = []
        self.midpoints = []

    def sample(self):
        start = time.perf_counter()
        total = 0
        for i in range(200000):
            total += i % 7
        for _ in range(400):
            np.linalg.eigh(self.small)
        for _ in range(8):
            np.linalg.eigh(self.medium)
        ",".join(f"{x:.17g}" for x in self.floats)
        end = time.perf_counter()
        self.samples.append(end - start)
        self.midpoints.append(0.5 * (start + end))

    @staticmethod
    def tag(seconds):
        """A measurement of `seconds` that ended now, with its end time."""
        return seconds, time.perf_counter()

    def ratios(self, tagged):
        """Each tagged measurement over the mean sample within SMOOTH_S of it."""
        mids = np.array(self.midpoints)
        times = np.array(self.samples)
        out = []
        for seconds, end in tagged:
            near = (mids >= end - seconds - self.SMOOTH_S) & (mids <= end + self.SMOOTH_S)
            out.append(seconds / times[near].mean())
        return out


def timed_passes(work, seconds, outcomes, reference, min_passes=1, side_tasks=(),
                 collect=lambda results, end: None):
    """Run untraced passes until `seconds` have elapsed; gate each pass after timing it.

    The side tasks run between passes, spread over the window in proportion
    to the time elapsed, so their samples see the same host as the passes.
    The reference is sampled before the first pass and after every pass and
    side task; the pass times come back tagged with their end time. Each
    pass's results go to `collect` with that tag and are then dropped, so
    memory does not grow with the number of passes.
    """
    sample = reference.sample
    walls = []
    done = 0
    start = time.perf_counter()
    sample()
    while True:
        t = time.perf_counter()
        results = work.run_pass(NoTracer())
        walls.append(reference.tag(time.perf_counter() - t))
        sample()
        work.check(results, outcomes)
        collect(results, walls[-1][1])
        del results
        share = min(1.0, (time.perf_counter() - start) / seconds) if seconds > 0 else 1.0
        while done < len(side_tasks) * share:
            side_tasks[done]()
            sample()
            done += 1
        if share >= 1.0 and len(walls) >= min_passes:
            break
    for task in side_tasks[done:]:
        task()
        sample()
    return walls


def setup_spawn(args):
    """Set-up time of a fresh worker process that stops before its first timed call."""
    t0 = time.time()
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
         "--t0", repr(t0), "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def host_info():
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    scipy_blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "networkx": metadata.version("networkx"),
        "numpy_blas": f"{blas.get('name')} {blas.get('version')}",
        "scipy_blas": f"{scipy_blas.get('name')} {scipy_blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def untraced_run(work, args, outcomes, setup_s):
    import workloads

    reference = Reference()
    setups, colds, latencies = [setup_s], [], []
    probes = []
    is_cli = isinstance(work, workloads.CliCalls)
    if not is_cli:
        probe = workloads.CliCalls(args.seed, work_dir(args), large=False)

        def probe_round():
            res = probe.run_pass(NoTracer())
            probe.check(res, outcomes)
            latencies.extend(reference.tag(lat) for lat in workloads.small_latencies(res))

        probes = [probe_round] * PROBE_ROUNDS
    side = interleave(
        [lambda: setups.append(setup_spawn(args))] * SETUP_SPAWNS,
        [lambda: colds.append(reference.tag(workloads.cold_start(outcomes)))] * COLD_STARTS,
        probes,
    )

    def collect(results, end):
        if is_cli:
            latencies.extend((lat, end) for lat in workloads.small_latencies(results))

    walls = timed_passes(work, args.seconds, outcomes, reference,
                         min_passes=PROBE_ROUNDS if is_cli else 1, side_tasks=side, collect=collect)
    call_refs = reference.ratios(latencies)
    return {
        "wall_ref": statistics.median(reference.ratios(walls)),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cli_cold_start_ref": statistics.median(reference.ratios(colds)),
        "cli_call_p50_ref": percentile(call_refs, 50),
        "cli_call_p90_ref": percentile(call_refs, 90),
    }, {
        "seconds": {
            "wall_s": statistics.median(v for v, _ in walls),
            "cli_cold_start_s": statistics.median(v for v, _ in colds),
            "cli_call_p50_s": percentile([v for v, _ in latencies], 50),
            "cli_call_p90_s": percentile([v for v, _ in latencies], 90),
            "reference_s": statistics.median(reference.samples),
        },
        "passes": len(walls),
        "cli_call_samples": len(latencies),
        "samples": {"wall_s": walls, "cli_cold_start_s": colds, "cli_call_s": latencies, "setup_s": setups,
                    "reference_s": list(zip(reference.samples, reference.midpoints))},
    }


def traced_run(work, args, outcomes, setup_s):
    import workloads
    from spans import Tracer, per_layer_metrics

    # Untraced and traced passes alternate, so both see the same host and
    # their difference is the tracing overhead.
    tracer = Tracer()
    plain, traced = [], []
    start = time.perf_counter()
    while not traced or (len(traced) < MAX_TRACED_PASSES and time.perf_counter() - start < args.seconds):
        t = time.perf_counter()
        work.check(work.run_pass(NoTracer()), outcomes)
        plain.append(time.perf_counter() - t)
        tracer.install()
        try:
            t = time.perf_counter()
            res = work.run_pass(tracer)
            traced.append(time.perf_counter() - t)
        finally:
            tracer.uninstall()
        work.check(res, outcomes)
    stdout_bytes = 0
    if isinstance(work, workloads.CliCalls):
        stdout_bytes = sum(len(out[1].encode()) for _, out, _ in res
                           if not isinstance(out, workloads.Failed))
    imports = [workloads.import_seconds() for _ in range(IMPORT_SPAWNS)]
    metrics, bases = per_layer_metrics(tracer, len(traced), stdout_bytes, imports,
                                       wall_untraced=plain, wall_traced=traced)
    spans_path = ROOT / ".perfbench" / f"spans-{args.workload}-seed{args.seed}.jsonl"
    spans_path.parent.mkdir(exist_ok=True)
    with open(spans_path, "w", encoding="utf-8") as fh:
        for sid, (name, start, end, parent, op) in enumerate(tracer.spans):
            fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                 "parent": parent, "op": tracer.op_names[op]}) + "\n")
    return metrics, {
        "untraced_passes": len(plain),
        "traced_passes": len(traced),
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "ratio_bases": bases,
    }


def work_dir(args):
    return ROOT / ".perfbench" / "work" / args.workload


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import steklov

    src = ROOT / "src"
    if Path(steklov.__file__).resolve().parent.parent != src:
        sys.exit(f"steklov imported from {steklov.__file__}, not from {src}")
    import workloads

    work = workloads.WORKLOADS[args.workload](args.seed, work_dir(args))
    setup_s = time.time() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    outcomes = workloads.Outcomes()
    run = traced_run if args.trace else untraced_run
    metrics, details = run(work, args, outcomes, setup_s)
    print(json.dumps({
        "metrics": metrics,
        "details": details,
        "attempted": outcomes.attempted,
        "failures": outcomes.failures,
        "host": host_info(),
    }))


if __name__ == "__main__":
    main()
