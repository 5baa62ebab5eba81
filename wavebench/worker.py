"""One benchmark worker process: a set-up sample, a measured run or the capacity scan.

``run.py`` starts a fresh worker for every sample, so the library's basis-table
cache starts cold and ``ru_maxrss`` is the peak of one run.  The worker pins
the BLAS thread count before numpy loads, imports ``wavegs`` from the
checkout's ``src/`` and prints one JSON document as its last stdout line.
"""

import time

T0 = time.perf_counter()  # the worker's start; set-up time counts from here

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
CLI_RTOL = 1e-12
OVERHEAD_OPS = 3

import workloads  # noqa: E402


def import_wavegs():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    t = time.perf_counter()
    import wavegs

    elapsed = time.perf_counter() - t
    if Path(wavegs.__file__).resolve().parent != (src / "wavegs").resolve():
        raise SystemExit(f"wavegs was imported from {wavegs.__file__}, not from {src}")
    return wavegs, elapsed


def blas_threads():
    """Threads the loaded OpenBLAS reports, or None when it cannot be asked."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(wavegs):
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    sha = None
    if (ROOT / ".git").exists():  # a checkout inside another repository must not report its sha
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "wavegs").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       None)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_reported": blas_threads(),
        "numba": importlib.util.find_spec("numba") is not None,
        "wavegs": wavegs.__version__,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
    }


def fine_points(grid):
    """Points of the 2x refined grid that ``quadrature_refinement_gap`` tabulates."""
    return grid.n_points * 2 ** (grid.dims + 1)


def run_op(wavegs, workload, state, seed, span):
    """One timed operation with its checks; a raise is a counted failure."""
    import spans

    t = time.perf_counter()
    try:
        with span(spans.ROOT):
            res = workload.run(wavegs, state, seed, span)
    except Exception:  # every operation is attempted; its traceback is the failure reason
        return {"seed": seed, "time_s": time.perf_counter() - t,
                "reasons": ["raised: " + traceback.format_exc(limit=3).strip()]}, None
    elapsed = time.perf_counter() - t
    reasons, values = workload.check(seed, res)
    op = {"seed": seed, "time_s": elapsed, "reasons": reasons, **values}
    if workload.kind == "solve":
        hist = res.history
        op["outer_steps"] = sum(1 for r in hist if r.get("outer", 0) > 0 and "event" not in r)
        op["starts_stalled"] = sum(1 for r in hist if r.get("event") == "stalled")
        op["starts_diverged"] = sum(1 for r in hist if r.get("event") == "diverged")
    op["known_defect"] = bool(reasons) and workload.is_known_defect(seed, values)
    return op, res


def cli_check(wavegs, workload, seed, lib_res):
    """Run the same problem through ``validate_config`` and ``run``; compare values."""
    import wavegs.cli as cli

    out = OUT / f"cli-{workload.name}-{os.getpid()}"
    out.mkdir(parents=True, exist_ok=True)
    t0 = t1 = t2 = time.perf_counter()
    try:
        cfg_path = out / "config.json"
        cfg_path.write_text(json.dumps(workload.cli_config(seed, out)))
        t0 = time.perf_counter()
        config = cli.validate_config(cfg_path)
        t1 = time.perf_counter()
        code = cli.run(config)
        t2 = time.perf_counter()
        result = json.loads((out / "result.json").read_text())["result"]
        value = workload.cli_value(result)
    except Exception:  # a broken CLI path is a counted failure, not a crashed run
        return {"seed": seed, "validate_s": t1 - t0, "run_s": t2 - t1,
                "reasons": ["cli raised: " + traceback.format_exc(limit=3).strip()]}
    finally:
        shutil.rmtree(out, ignore_errors=True)
    expected = workload.lib_value(lib_res)
    want_code = 0 if getattr(lib_res, "converged", True) else cli.EXIT_NO_CONVERGENCE
    reasons = []
    if code != want_code:
        reasons.append(f"cli exit code {code}, expected {want_code}")
    if not abs(value - expected) <= CLI_RTOL * abs(expected):
        reasons.append(f"cli value {value!r} differs from library value {expected!r}")
    return {"seed": seed, "validate_s": t1 - t0, "run_s": t2 - t1, "reasons": reasons}


def measure(args, wavegs, import_s, workload):
    import spans  # after wavegs, so that import_s includes numpy

    tracer = spans.Tracer() if args.trace else None
    context_cls = (spans.traced_context_class(wavegs.EnergyContext, tracer) if tracer
                   else wavegs.EnergyContext)
    state, stages = workload.setup(wavegs, context_cls, time.perf_counter)
    setup = {"setup_s": time.perf_counter() - T0, "import_s": import_s, **stages}
    if args.mode == "setup":
        return {"setup": setup}

    span = tracer.span if tracer else (lambda name: nullcontext())
    hooks = spans.Instrumentation(tracer) if tracer else None
    ops, results = [], []
    deadline = time.perf_counter() + args.seconds
    for block in itertools.count():
        for seed in workload.block(args.seed):
            op, res = run_op(wavegs, workload, state, seed, span)
            ops.append({"block": block, **op})
            results.append(res)
        if time.perf_counter() >= deadline:
            break
    doc = {"setup": setup, "ops": ops}

    if tracer:
        hooks.remove()
        doc["trace"] = spans.summarize(tracer)
        doc["trace"]["counts"] = dict(tracer.counts)
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"{workload.name}-seed{args.seed}-spans.npz")
        # the last operations once more with tracing off: traced minus untraced time
        plain = dict(state)
        if "ctx" in state:
            c = state["ctx"]
            plain["ctx"] = wavegs.EnergyContext(c.catalog, c.grid, c.weight, c.nonlinearity)
        again = ops[-OVERHEAD_OPS:]
        t = time.perf_counter()
        for op in again:
            workload.run(wavegs, plain, op["seed"], lambda name: nullcontext())
        untraced = (time.perf_counter() - t) / len(again)
        doc["trace"]["overhead_s"] = sum(op["time_s"] for op in again) / len(again) - untraced

    first = next((i for i, r in enumerate(results) if r is not None), None)
    if first is None:
        doc["cli"] = {"seed": None, "validate_s": 0.0, "run_s": 0.0,
                      "reasons": ["no operation returned a result to compare with"]}
    else:
        doc["cli"] = cli_check(wavegs, workload, ops[first]["seed"], results[first])
        if doc["cli"]["reasons"]:
            ops[first]["reasons"] += doc["cli"]["reasons"]
            ops[first]["known_defect"] = False
    modes, kernel_dim, grid = workload.sizes(wavegs, state)
    doc["sizes"] = {"modes": modes, "kernel_dim": kernel_dim, "points": grid.n_points,
                    "fine_points": fine_points(grid)}
    doc["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    doc["env"] = environment(wavegs)
    return doc


def capacity(wavegs):
    """Smallest circle and T^2 cutoffs the basis-table cap blocks, from sizes alone."""
    cap = getattr(wavegs.fields, "_MAX_MATRIX_ELEMENTS", None)
    rows = []
    for label, domain, k_limit in (("circle", wavegs.DomainSpec.circle(), 64),
                                   ("T^2", wavegs.DomainSpec.torus(2), 16)):
        row = {"domain": label, "cap_entries": cap, "fails_after_solve_from": None,
               "refused_at_setup_from": None}
        for k in range(1, k_limit + 1) if cap else ():
            cat = wavegs.build_catalog(domain, wavegs.OperatorSpec.laplacian_power(2), k, k)
            grid = wavegs.ProductGrid.for_catalog(cat)
            if row["fails_after_solve_from"] is None and cat.size * fine_points(grid) > cap:
                row["fails_after_solve_from"] = k
            if cat.size * grid.n_points > cap:
                row["refused_at_setup_from"] = k
                break
        rows.append(row)
    return {"capacity": rows}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "measure", "capacity"), required=True)
    ap.add_argument("--workload", choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true")
    args = ap.parse_args()
    wavegs, import_s = import_wavegs()
    if args.mode == "capacity":
        doc = capacity(wavegs)
    else:
        doc = measure(args, wavegs, import_s, workloads.get(args.workload, args.quick))
    sys.stdout.write(json.dumps(doc) + "\n")


if __name__ == "__main__":
    main()
