"""wavegs benchmark: time set-up and operations of one workload, check every result.

    python3 wavebench/run.py --workload circle-beam --seed 0 --seconds 20 --trace 0
    python3 wavebench/run.py --workload all            # every workload, report only
    python3 wavebench/run.py --workload all --quick    # tiny sizes, a few seconds

Each sample runs in a fresh worker process (``worker.py``): ``SETUP_PROBES``
set-up-only workers, then one measuring worker that repeats whole operation
blocks until ``--seconds`` have passed.  With ``--trace 0`` the last stdout line
carries the end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` the
measuring worker records spans and the line carries the per-layer metrics.
Earlier lines are a human-readable report; details go to ``wavebench/out/``.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 8
TIME_LIMIT_S = 170.0


class BenchError(RuntimeError):
    pass


def call_worker(mode, workload=None, seed=0, seconds=0.0, trace=0, quick=False, timeout=60.0):
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace)]
    if workload:
        cmd += ["--workload", workload]
    if quick:
        cmd.append("--quick")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the worker
        raise BenchError(f"{mode} worker for {workload} exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker for {workload} exited with code {proc.returncode}")
    try:
        return json.loads(lines[-1])
    except ValueError as exc:
        raise BenchError(f"{mode} worker for {workload} printed no result") from exc


def _median(values):
    return statistics.median(values) if values else 0.0


def op_time(ops):
    """Median over blocks of the block's mean verified-operation time.

    A block is one operation, or on circle-beam one pass over the seed panel,
    whose solves differ in length by seed: the median of three such solves
    picks one of them, while their mean pools a whole pass of timed work.
    """
    good = [op for op in ops if not op["reasons"]] or ops
    blocks = {}
    for op in good:
        blocks.setdefault(op["block"], []).append(op["time_s"])
    return _median([statistics.fmean(times) for times in blocks.values()]), len(good), len(blocks)


def end_to_end(doc, setups):
    """The user-visible metrics of one run; op_s is solve_s or diag_s by workload."""
    return {
        "op_s": (op_time(doc["ops"])[0], "s"),
        "setup_s": (_median([s["setup_s"] for s in setups]), "s"),
        "peak_rss_mb": (doc["peak_rss_mb"], "MB"),
    }


def per_layer(doc, setups):
    """Per-operation means of span self times and counts, plus set-up stages."""
    ops, trace, sizes = doc["ops"], doc["trace"], doc["sizes"]
    n = len(ops)
    by, counts = trace["by_name"], trace["counts"]

    def calls(*names):
        return sum(by.get(k, {}).get("calls", 0) for k in names) / n

    def own(*names):
        return sum(by.get(k, {}).get("self_s", 0.0) for k in names) / n

    def stage(key):
        return _median([s.get(key, 0.0) for s in setups])

    def per_op(key):
        return sum(op.get(key, 0) for op in ops) / n

    trials = counts.get("saddle.outer_trials", 0) / n
    steps = per_op("outer_steps")
    mb = sizes["modes"] * 8 / 1e6
    return {
        "catalog.build_s": (stage("catalog_s") + own("catalog.build_catalog"), "s"),
        "catalog.modes": (sizes["modes"], "count"),
        "catalog.kernel_dim": (sizes["kernel_dim"], "count"),
        "fields.context_s": (stage("context_s"), "s"),
        "fields.synth_calls": (calls("fields.synth"), "count"),
        "fields.synth_s": (own("fields.synth"), "s"),
        "fields.analyze_calls": (calls("fields.analyze"), "count"),
        "fields.analyze_s": (own("fields.analyze"), "s"),
        "fields.rows_s": (own("fields.basis_rows"), "s"),
        "fields.basis_mb": (mb * sizes["points"], "MB"),
        "fields.fine_basis_mb": (mb * sizes["fine_points"], "MB"),
        "energy.potential_calls": (calls("energy.potential"), "count"),
        "energy.potential_s": (own("energy.potential"), "s"),
        "energy.qgap_s": (own("energy.qgap"), "s"),
        "accel.pointwise_calls": (calls("accel.pointwise"), "count"),
        "accel.pointwise_s": (own("accel.pointwise"), "s"),
        "accel.scan_s": (own("accel.scan"), "s"),
        "saddle.inner_calls": (calls("saddle.inner_maximize"), "count"),
        "saddle.inner_cold": (counts.get("saddle.inner_cold", 0) / n, "count"),
        "saddle.inner_iters": (counts.get("saddle.inner_iters", 0) / n, "count"),
        "saddle.inner_s": (own("saddle.inner_maximize"), "s"),
        "saddle.outer_steps": (steps, "count"),
        "saddle.outer_trials": (trials, "count"),
        "saddle.accept_ratio": (steps / trials if trials else 0.0, "1"),
        "saddle.psi_grad_s": (own("saddle.psi_gradient"), "s"),
        "saddle.starts_stalled": (per_op("starts_stalled"), "count"),
        "saddle.starts_diverged": (per_op("starts_diverged"), "count"),
        "control.gram_s": (own("control.kernel_gram"), "s"),
        "control.slices_s": (own("control.slice_profiles", "control.xi_eta_infimum"), "s"),
        "control.dalembert_s": (own("control.dalembert_split", "control.reconstruct"), "s"),
        "embedding.torus_series_s": (own("embedding.torus_gap_series"), "s"),
        "embedding.sphere_series_s": (own("embedding.sphere_embedding_series"), "s"),
        "embedding.gap_ratio_s": (own("embedding.gap_ratio_bracket"), "s"),
        "cli.import_s": (stage("import_s"), "s"),
        "cli.validate_s": (doc["cli"]["validate_s"], "s"),
        "cli.run_s": (doc["cli"]["run_s"], "s"),
        "trace.coverage": (trace["coverage"], "1"),
        "trace.overhead_s": (trace["overhead_s"], "s"),
    }


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def select(values, declared):
    """Exactly the declared metrics, in declared order, with their declared units."""
    out = {}
    for m in declared:
        if m["name"] not in values:
            raise BenchError(f"metric {m['name']} is declared but not measured")
        value, unit = values[m["name"]]
        if unit != m["unit"]:
            raise BenchError(f"metric {m['name']} measured in {unit}, declared in {m['unit']}")
        out[m["name"]] = {"value": value, "unit": unit}
    return out


def verdict(doc):
    """(attempted, failed, correct): correct unless a failure is not a documented defect."""
    ops = doc["ops"]
    failed = [op for op in ops if op["reasons"]]
    correct = not doc["cli"]["reasons"] and all(op.get("known_defect") for op in failed)
    return len(ops), len(failed), correct


def report(wl, args, doc, setups, e2e, layers, attempted, failed, correct):
    good = [op for op in doc["ops"] if not op["reasons"]]
    label = "solve_s" if wl.kind == "solve" else "diag_s"
    print(f"== {wl.name}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}"
          f"{'  quick' if args.quick else ''}")
    print(f"   problem: {wl.describe()}")
    _, n_good, n_blocks = op_time(doc["ops"])
    print(f"   {label:<14}{e2e['op_s'][0]:12.6g} s      {n_good} verified operations in "
          f"{n_blocks} block(s): median of block means (first, cold: "
          f"{doc['ops'][0]['time_s']:.6g} s)")
    print(f"   {'setup_s':<14}{e2e['setup_s'][0]:12.6g} s      median of {len(setups)} "
          f"fresh-process set-ups")
    print(f"   {'peak_rss_mb':<14}{e2e['peak_rss_mb'][0]:12.6g} MB     ru_maxrss of the "
          f"measuring worker")
    if wl.kind == "solve":
        residual = _median([op["residual"] for op in good])
        print(f"   {'residual':<14}{residual:12.6g} 1      median of {len(good)} verified solves")
    print(f"   {'failed_frac':<14}{failed / attempted:12.6g} 1      {failed} failed of "
          f"{attempted} attempted")
    for op in doc["ops"]:
        if op["reasons"]:
            tag = f"  [{wl.known_defects[op['seed']]}]" if op.get("known_defect") else ""
            print(f"   FAILED seed {op['seed']}: {'; '.join(op['reasons'])}{tag}")
    print(f"   cli check (seed {doc['cli']['seed']}): "
          f"{'; '.join(doc['cli']['reasons']) or 'agrees with the library path'}")
    print(f"   correct {correct}")
    if layers:
        for key, (value, unit) in layers.items():
            print(f"   {key:<28}{value:14.6g} {unit}")
        overhead = layers["trace.overhead_s"][0]
        print(f"   tracing overhead {overhead:.4g} s per operation "
              f"({overhead / (e2e['op_s'][0] - overhead):.2%} of its untraced time); "
              f"spans {doc['trace']['spans']}, nesting violations "
              f"{doc['trace']['nesting_violations']}")
    env = doc["env"]
    print("   env: " + ", ".join(f"{k}={v}" for k, v in env.items()))


def run_workload(name, args, budget_end):
    def probe():
        return call_worker("setup", name, args.seed, trace=args.trace, quick=args.quick,
                           timeout=budget_end - time.monotonic())["setup"]

    # half the set-up probes before the measuring worker and half after, so
    # that the set-up samples span the run rather than its first seconds
    setups = [probe() for _ in range(SETUP_PROBES // 2)]
    doc = call_worker("measure", name, args.seed, args.seconds, args.trace, args.quick,
                      timeout=budget_end - time.monotonic())
    setups.append(doc["setup"])
    setups += [probe() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    wl = workloads.get(name, args.quick)
    e2e = end_to_end(doc, setups)
    layers = per_layer(doc, setups) if args.trace else None
    attempted, failed, correct = verdict(doc)
    report(wl, args, doc, setups, e2e, layers, attempted, failed, correct)
    metrics = select(layers if args.trace else e2e, declared_metrics(args.trace))
    OUT.mkdir(exist_ok=True)
    detail = {"workload": name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "quick": args.quick, "problem": wl.describe(), "setups": setups,
              "metrics": metrics,
              "all_metrics": {k: v[0] for k, v in {**e2e, **(layers or {})}.items()}, **doc}
    (OUT / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1))
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def capacity_report():
    rows = call_worker("capacity", timeout=120.0)["capacity"]
    print("== capacity: the basis-table cap, from catalog and grid sizes alone")
    for r in rows:
        print(f"   {r['domain']}: cap {r['cap_entries']} entries; K = L >= "
              f"{r['fails_after_solve_from']} fails in quadrature_refinement_gap after a full "
              f"solve; K = L >= {r['refused_at_setup_from']} is refused at setup")
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.NAMES + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="tiny problem sizes (smoke test)")
    args = ap.parse_args(argv)
    # SystemExit inside subprocess.run makes it kill and reap the running worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "wavegs" / "__init__.py").is_file():
        print(f"error: no wavegs sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.workload != "all":
            result = run_workload(args.workload, args, time.monotonic() + TIME_LIMIT_S)
            print(json.dumps(result))
            return 0
        results = {}
        for name in workloads.NAMES:
            results[name] = run_workload(name, args, time.monotonic() + TIME_LIMIT_S)
        capacity = capacity_report()
        print(json.dumps({"workloads": results, "capacity": capacity}))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
