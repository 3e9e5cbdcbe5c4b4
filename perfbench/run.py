"""Benchmark of the steklov toolkit: one workload per run, metrics as JSON.

Run from the root of a checkout:

    python3 perfbench/run.py --workload grid_curvature --seed 1 --seconds 15 --trace 0

--workload is one of the names in BENCHMARK.json, or `all` to run each in
turn. With --trace 0 the last line of stdout carries the end-to-end metrics,
with --trace 1 the per-layer ones; both are named in BENCHMARK.json. Each run
also writes .perfbench/result-<workload>-seed<seed>-trace<t>.json with the
host, the settings and the samples behind every figure.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
# One BLAS thread: the same on every machine with at least one core, and no
# contention with the other processes of a shared host.
BLAS_THREADS = 1
RUN_TIMEOUT_S = 170.0


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_worker(argv, deadline):
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *argv, "--t0", repr(time.time())],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {argv} did not finish in time") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker {argv} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_identity():
    """The git commit when the checkout is a repository, and a digest of src/."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                capture_output=True, text=True, timeout=10).stdout.strip() or None
    except OSError:
        commit = None
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def run_workload(spec, workload, seed, seconds, trace, deadline):
    """Metrics for one workload, as declared in BENCHMARK.json."""
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    out = run_worker(argv, deadline)
    found = out["metrics"]
    declared = spec["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in found]
    if missing:
        raise BenchError(f"workload {workload} did not measure {missing}")
    metrics = {m["name"]: {"value": found[m["name"]], "unit": m["unit"]} for m in declared}
    failed = len(out["failures"])
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "host": dict(out["host"], **source_identity()),
        "metrics": metrics,
        "error_rate": failed / max(out["attempted"], 1),
        "attempted": out["attempted"],
        "failures": out["failures"],
        "details": out["details"],
    }
    result_dir = ROOT / ".perfbench"
    result_dir.mkdir(exist_ok=True)
    path = result_dir / f"result-{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    for name, m in metrics.items():
        print(f"{workload}  {name} = {m['value']:.6g} {m['unit']}")
    print(f"{workload}  error_rate = {failed}/{out['attempted']}")
    for failure in out["failures"][:20]:
        print(f"{workload}  FAILED {failure}")
    host = record["host"]
    print(f"{workload}  host: python {host['python']}, numpy {host['numpy']}, scipy {host['scipy']}, "
          f"networkx {host['networkx']}, {host['numpy_blas']}, nproc {host['nproc']}, "
          f"blas threads {host['blas_threads']}, commit {host['git_commit']}, seed {seed}")
    return metrics, out["attempted"], failed


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "steklov" / "__init__.py").is_file():
        sys.exit(f"error: no steklov sources under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {names} or all")
    chosen = names if args.workload == "all" else [args.workload]

    metrics, attempted, failed = {}, 0, 0
    try:
        for workload in chosen:
            deadline = time.monotonic() + RUN_TIMEOUT_S
            found, a, f = run_workload(spec, workload, args.seed, args.seconds, args.trace, deadline)
            prefix = "" if len(chosen) == 1 else workload + "."
            metrics.update({prefix + k: v for k, v in found.items()})
            attempted += a
            failed += f
    except BenchError as e:
        sys.exit(f"error: {e}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
