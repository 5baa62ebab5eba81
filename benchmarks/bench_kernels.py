"""Time catalog builds, the ``wavegs._accel`` kernels, the kernel Gram and the d'Alembert split.

Sizes are those of the ``wavebench`` diagnostics batch (and, for the
pointwise nonlinearity, a large solve grid; for the catalog, the circle
classical wave at K = L = 48 and T^2 beams at 16 and 24; for the kernel Gram,
also the README beam's weight on T^2 and T^3 at K = L = 8).  The per-evaluation
cost of the inner ascent is timed as 1,000 (on T^2, 100) value-plus-gradient
evaluations of one ``saddle._InnerProblem`` at the state (t, r) of its
maximizer, built from the result's ``m_hat`` as a warm start builds it, at the
circle-beam (K = L = 8, power 2) and wave-kernel (K = L = 16, power 1) sizes,
and with the space-time weight (t in [0, 3.1416]), whose support hull is about
37% of the grid, for the classical wave on the circle at K = L = 16 and the
beam on T^2 at K = L = 8.  Each kernel is timed in this process as the best
of a few calls, and its tracemalloc peak is taken from one more call;
``import wavegs`` is timed cold, in fresh interpreters (best and median).  The
script prints a table and then one JSON line with the seconds and peak MB per
kernel, the import times and the machine facts, and writes that document to
``--out``.  Usage:

    PYTHONPATH=src python3 benchmarks/bench_kernels.py [--repeats N] [--out BENCH_kernels.json]
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

import wavegs
from wavegs import _accel, saddle

# the diagnostics batch's rectangle weight and raster set, and the space-time t side
X_SPAN, T_SPAN, T_HALF = (0.0, 4.71), (0.0, 6.2832), (0.0, 3.1416)


def _best(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _peak_mb(fn):
    """Peak MB that tracemalloc sees during one call (numpy buffers included)."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def cold_import_seconds(runs):
    """Best and median seconds of ``import wavegs`` in ``runs`` fresh interpreters."""
    probe = "import time; t = time.perf_counter(); import wavegs; print(time.perf_counter() - t)"
    env = {**os.environ, "PYTHONPATH": str(Path(wavegs.__file__).resolve().parents[1])}
    times = sorted(
        float(subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                             text=True, check=True).stdout)
        for _ in range(runs)
    )
    return {"best": times[0], "median": times[len(times) // 2], "runs": runs}


def _torus_nu(n, cutoff):
    """Distinct |k|^2 over the box [0, cutoff]^n, as torus_gap_series sums them."""
    grids = np.meshgrid(*([np.arange(cutoff + 1)] * n), indexing="ij")
    return np.unique(sum(g.ravel() ** 2 for g in grids)).astype(np.int64)


def _inner_evaluations(power, cutoff, count=1000, t_span=T_SPAN, torus_dim=0):
    """``count`` value-plus-gradient evaluations of the README weight's inner problem
    (p = 4) with the given t side, on the circle or T^torus_dim, at the maximizer of
    the lowest plus direction."""
    domain = wavegs.DomainSpec.torus(torus_dim) if torus_dim else wavegs.DomainSpec.circle()
    cat = wavegs.build_catalog(domain, wavegs.OperatorSpec.laplacian_power(power), cutoff, cutoff)
    grid = wavegs.ProductGrid.for_catalog(cat)
    weight = wavegs.weight_rectangle(grid, X_SPAN, t_span, 1.0, 0.0, 0.1)
    ctx = wavegs.EnergyContext(cat, grid, weight, wavegs.NonlinearitySpec.pure_power(4.0))
    w = wavegs.lowest_plus_direction(cat)
    res = wavegs.inner_maximize(w, ctx, wavegs.SolverConfig())
    problem = saddle._InnerProblem(w, ctx)
    x = problem.warm_state(res.m_hat)  # the state (t, r) of the maximizer

    def run():
        for _ in range(count):
            problem.gradient(*problem.value(x)[1:])

    return run


def cases():
    """(name, zero-argument call) at the diagnostics sizes."""
    rng = np.random.default_rng(0)
    v = rng.standard_normal(2_000_000)
    terms = ((1.0, 3.0), (0.4, 4.5))
    nu_a, nu_b = _torus_nu(2, 96), _torus_nu(3, 24)
    js = np.arange(-64, 65, dtype=np.int64)
    mask = wavegs.RasterSet.rectangle(X_SPAN, T_SPAN, 2048).mask
    cat = wavegs.build_catalog(
        wavegs.DomainSpec.circle(), wavegs.OperatorSpec.laplacian_power(1), 48, 48
    )
    grid = wavegs.ProductGrid.for_catalog(cat)
    weight = wavegs.weight_rectangle(grid, X_SPAN, T_SPAN, 1.0, 0.0, 0.1)
    coeffs = np.zeros(cat.size)
    coeffs[cat.zero_idx] = rng.standard_normal(cat.kernel_dim())
    kernel_field = wavegs.SpectralField(cat, coeffs)
    phi, psi = wavegs.dalembert_split(kernel_field)
    xs, ts = np.meshgrid(grid.x_nodes, grid.t_nodes, indexing="ij")
    circle, torus2 = wavegs.DomainSpec.circle(), wavegs.DomainSpec.torus(2)
    wave, beam = wavegs.OperatorSpec.laplacian_power(1), wavegs.OperatorSpec.laplacian_power(2)
    # the README beam's weight on T^2 and T^3 at K = L = 8 (ROADMAP item 12's sizes)
    tori = {}
    for n in (2, 3):
        tcat = wavegs.build_catalog(wavegs.DomainSpec.torus(n), beam, 8, 8)
        tgrid = wavegs.ProductGrid.for_catalog(tcat)
        tori[n] = (wavegs.weight_rectangle(tgrid, X_SPAN, T_SPAN, 1.0, 0.0, 0.1), tcat, tgrid)
    return [
        ("build_catalog_circle_48", lambda: wavegs.build_catalog(circle, wave, 48, 48)),
        ("build_catalog_T2_16", lambda: wavegs.build_catalog(torus2, beam, 16, 16)),
        ("build_catalog_T2_24", lambda: wavegs.build_catalog(torus2, beam, 24, 24)),
        ("quasipoly_f_2e6", lambda: _accel.quasipoly_f(v, terms)),
        ("quasipoly_prim_2e6", lambda: _accel.quasipoly_prim(v, terms)),
        ("quasipoly_2e6", lambda: _accel.quasipoly(v, terms)),
        ("inner_value_gradient_beam_8_x1000", _inner_evaluations(2, 8)),
        ("inner_value_gradient_wave_16_x1000", _inner_evaluations(1, 16)),
        ("inner_value_gradient_spacetime_wave_16_x1000",
         _inner_evaluations(1, 16, t_span=T_HALF)),
        ("inner_value_gradient_T2_spacetime_beam_8_x100",
         _inner_evaluations(2, 8, 100, T_HALF, torus_dim=2)),
        (f"torus_l_sums_T2_96_{len(nu_a)}nu", lambda: _accel.torus_l_sums(nu_a, 2, 3.0)),
        (f"torus_l_sums_T3_24_{len(nu_b)}nu", lambda: _accel.torus_l_sums(nu_b, 2, 2.0)),
        # s = p / (p - 2); wexp = 2 p sigma_p / (p - 2) with p = 3: 1.0 on S^3, 0.5 on S^2
        ("sphere_inner_kg_S3_l1e4",
         lambda: _accel.sphere_series_inner(js, 3, 1, 3.0, 1.0, 10000, True)),
        ("sphere_inner_power_S2_l1e4",
         lambda: _accel.sphere_series_inner(js, 2, 2, 3.0, 0.5, 10000, False)),
        ("gap_ratio_scan_l1e4", lambda: _accel.gap_ratio_scan(2, 2, 10000)),
        ("gap_ratio_scan_l1e6", lambda: _accel.gap_ratio_scan(2, 2, 1_000_000)),
        ("raster_rectangle_2048", lambda: wavegs.RasterSet.rectangle(X_SPAN, T_SPAN, 2048)),
        ("char_slice_counts_2048", lambda: _accel.char_slice_counts(mask)),
        ("kernel_gram_circle_48", lambda: wavegs.kernel_gram(weight, cat, grid)),
        ("kernel_gram_T2_8", lambda: wavegs.kernel_gram(*tori[2])),
        ("kernel_gram_T3_8", lambda: wavegs.kernel_gram(*tori[3])),
        ("dalembert_split_circle_48", lambda: wavegs.dalembert_split(kernel_field)),
        ("dalembert_profiles_circle_48", lambda: phi(xs + ts) + psi(xs - ts)),
    ]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", default="BENCH_kernels.json")
    args = parser.parse_args()
    timings, peaks = {}, {}
    for name, fn in cases():
        timings[name] = _best(fn, args.repeats)
        peaks[name] = _peak_mb(fn)
    cold = cold_import_seconds(5)
    width = max(len(k) for k in timings)
    print(f"{'kernel':<{width}}  {'best [ms]':>10}  {'peak [MB]':>10}")
    for name, sec in timings.items():
        print(f"{name:<{width}}  {sec * 1e3:10.2f}  {peaks[name]:10.2f}")
    print(f"{'import wavegs (cold)':<{width}}  {cold['best'] * 1e3:10.2f}"
          f"  (median {cold['median'] * 1e3:.2f} of {cold['runs']})")
    facts = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpus": os.cpu_count(),
        "machine": platform.machine(),
        "repeats": args.repeats,
    }
    doc = json.dumps({"seconds": timings, "peak_mb": peaks, "import_wavegs_s": cold,
                      "machine": facts}, sort_keys=True)
    print(doc)
    Path(args.out).write_text(doc + "\n")


if __name__ == "__main__":
    main()
