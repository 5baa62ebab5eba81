"""Solve a fixed ladder of problems and record what each solve cost and returned.

The problems are variations of the README solve config (circle, (-Laplace)^2,
p = 4, rectangle weight x in [0, 4.71], t in [0, 6.2832], smoothing 0.1,
K = L = 8, 4 starts, seed 0): the README beam at seeds 0-3, two nonlinearity
terms ((1, 3), (0.5, 5)), the weight times 1e4, 1e6 and 1e-6, the weight
with x in [0, 1], T^2 at K = L = 4, K = L = 24, the classical wave
({"power": 1}) at K = L = 16 with 1 start, the space-time classical wave
(t in [0, 3.1416]) at K = L = 16 with 1 and with 4 starts, and the space-time
beam with 2 starts.  Every problem is
built through the public ``wavegs`` API and solved once.

Per problem the JSON document records the energy, residual, ``converged``,
each start's ``stop`` and the Psi of its last record (``last_psi``; None for a
start dropped without a descent), the transforms (``EnergyContext.synth``
calls) and the inner iterations (summed over the inner ascents) that the
solver reports as ``GroundStateResult.transforms`` and ``inner_iters``, the rejected outer
trials (``backtracks``) and the inner iterations of their ascents
(``rejected_inner_iters``), summed over ``history``, the outer records
(``len(history)``), the wall time of the solve, which runs with no counting
wrapper, and ``l_nonzero_share``, the fraction of sum(u_i^2) of u* on the
modes with l != 0 (0 for a stationary u*).  Counts are deterministic for a
fixed checkout and BLAS thread count; wall times are not.  A solve that raises ``NoCoerciveDirectionError`` records
its message and the counts the exception carries.  Usage:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 benchmarks/bench_solve.py \\
        [--problems beam_seed0,wave_16] [--out BENCH_solve.json]
"""

import argparse
import json
import os
import platform
import time
from pathlib import Path

import numpy as np

import wavegs

X_SPAN, T_SPAN, T_HALF = (0.0, 4.71), (0.0, 6.2832), (0.0, 3.1416)


def _problem(power=2, cutoff=8, terms=((1.0, 4.0),), inside=1.0, x_span=X_SPAN, t_span=T_SPAN,
             torus_dim=0, starts=4, seed=0):
    """(context, solver config) of the README config with the given changes."""
    domain = wavegs.DomainSpec.torus(torus_dim) if torus_dim else wavegs.DomainSpec.circle()
    cat = wavegs.build_catalog(domain, wavegs.OperatorSpec.laplacian_power(power), cutoff, cutoff)
    grid = wavegs.ProductGrid.for_catalog(cat)
    weight = wavegs.weight_rectangle(grid, x_span, t_span, inside, 0.0, 0.1)
    ctx = wavegs.EnergyContext(cat, grid, weight, wavegs.NonlinearitySpec(terms))
    return ctx, wavegs.SolverConfig(n_starts=starts, seed=seed)


PROBLEMS = {
    **{f"beam_seed{s}": dict(seed=s) for s in range(4)},
    "two_terms": dict(terms=((1.0, 3.0), (0.5, 5.0))),
    "beam_q1e4": dict(inside=1e4),
    "beam_q1e6": dict(inside=1e6),
    "beam_q1e-6": dict(inside=1e-6),
    # constant in t, yet its lowest state found is not stationary
    "beam_x1": dict(x_span=(0.0, 1.0)),
    "torus2_4": dict(torus_dim=2, cutoff=4),
    "beam_24": dict(cutoff=24),
    "wave_16": dict(power=1, cutoff=16, starts=1),
    "spacetime_wave_16": dict(power=1, cutoff=16, starts=1, t_span=T_HALF),
    "spacetime_wave_16_4starts": dict(power=1, cutoff=16, starts=4, t_span=T_HALF),
    "spacetime_beam": dict(t_span=T_HALF, starts=2),
}


def l_nonzero_share(u):
    """Fraction of sum(u_i^2) on the modes with l != 0."""
    sq = u.coeffs * u.coeffs
    return float(np.sum(sq[u.catalog.l != 0]) / np.sum(sq))


def solve(name):
    ctx, cfg = _problem(**PROBLEMS[name])
    ctx.kernel_report  # the q-Gram is set-up, not solve, work
    t0 = time.perf_counter()
    try:
        res = wavegs.ground_state(ctx, cfg)
    except wavegs.NoCoerciveDirectionError as exc:
        res = exc
    wall = time.perf_counter() - t0
    cost = {"transforms": res.transforms, "inner_iters": res.inner_iters, "wall_s": wall}
    for key in ("backtracks", "rejected_inner_iters"):
        cost[key] = sum(rec.get(key, 0) for rec in res.history)
    if isinstance(res, wavegs.NoCoerciveDirectionError):
        return {"error": str(res), **cost}
    ends = [rec for rec in res.history if "stop" in rec]  # each start's last record
    return {
        "energy": res.energy,
        "residual": res.residual,
        "converged": res.converged,
        "stops": [rec["stop"] for rec in ends],
        "last_psi": [rec.get("psi") for rec in ends],
        "outer_records": len(res.history),
        "l_nonzero_share": l_nonzero_share(res.u_star),
        **cost,
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--problems", default=",".join(PROBLEMS),
                        help="comma-separated problem names (default: all)")
    parser.add_argument("--out", default="BENCH_solve.json")
    args = parser.parse_args()
    names = args.problems.split(",")
    unknown = sorted(set(names) - set(PROBLEMS))
    if unknown:
        parser.error(f"unknown problems {unknown}; choose from {list(PROBLEMS)}")
    results = {}
    print(f"{'problem':<26} {'energy':>20} {'residual':>9} {'transforms':>10} "
          f"{'inner':>7} {'outer':>5} {'l!=0':>7} {'wall [s]':>8}  stops")
    for name in names:
        r = results[name] = solve(name)
        if "error" in r:
            print(f"{name:<26} {r['error']} ({r['transforms']} transforms)", flush=True)
            continue
        print(f"{name:<26} {r['energy']:20.15g} {r['residual']:9.2e} {r['transforms']:10d} "
              f"{r['inner_iters']:7d} {r['outer_records']:5d} {r['l_nonzero_share']:7.3f} "
              f"{r['wall_s']:8.2f}  "
              f"{','.join(r['stops'])}", flush=True)
    facts = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpus": os.cpu_count(),
        "machine": platform.machine(),
        "openblas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
    doc = json.dumps({"problems": results, "machine": facts}, sort_keys=True)
    print(doc)
    Path(args.out).write_text(doc + "\n")


if __name__ == "__main__":
    main()
