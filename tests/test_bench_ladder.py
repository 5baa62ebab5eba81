"""The solve ladder's reference answers, checked on ``benchmarks/bench_solve.py`` itself.

The script is loaded by path and its ``solve`` run on every problem, so the
ladder that the benchmark times is the ladder these references pin.  A change
that moves a reference or a tolerance says why in CHANGES.md.
"""

import importlib.util
from pathlib import Path

BENCH_SOLVE = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_solve.py"

CONVERGED = ["beam_seed0", "beam_seed1", "beam_seed2", "beam_seed3", "two_terms", "beam_q1e4",
             "beam_q1e6", "torus2_4", "beam_24", "wave_16", "spacetime_wave_16_4starts"]
ENERGIES = {"beam_seed0": 6.947093992690465, "beam_seed1": 6.947093992690457,
            "beam_seed2": 6.947093992690448, "beam_seed3": 6.947093992690473,
            "two_terms": 3.5005188160077303, "beam_q1e4": 0.0006947093992889862,
            "beam_q1e6": 6.9470940211904996e-06, "torus2_4": 31.00239237424444,
            "beam_24": 6.890172770585565, "wave_16": 6.5915001200900045,
            "spacetime_wave_16_4starts": 64.44651543254231}
# answers that stay uncertified: the lowest Psi their starts reach
UNCERTIFIED = {"beam_x1": 1606.2156231333136, "beam_q1e-6": 6947093.992690462,
               "spacetime_beam": 500.9094989788685}
FINISHED = ("converged", "max_outer", "stalled_at_floor")


def _load_bench_solve():
    spec = importlib.util.spec_from_file_location("bench_solve", BENCH_SOLVE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_solve_ladder_keeps_its_reference_answers():
    bench = _load_bench_solve()
    p = {name: bench.solve(name) for name in bench.PROBLEMS}

    bad = [n for n in CONVERGED if p[n].get("converged") is not True]
    assert not bad, f"ladder problems that no longer converge: {bad}"

    off = {n: (p[n].get("energy"), e) for n, e in ENERGIES.items()
           if not abs(p[n].get("energy", 0.0) / e - 1) <= 1e-9}
    assert not off, f"ladder energies (got, reference) more than 1e-9 apart: {off}"

    e = p["beam_x1"].get("energy")
    assert e is not None and e < 1640, (
        f"beam_x1 energy {e!r} is not below 1640: its full-box state (1606.2156) lies below "
        "the stationary level 1649.3222")

    off = {n: (r["energy"], psi) for n, r in p.items() if "error" not in r
           and r["energy"] != (psi := min(e for e, s in zip(r["last_psi"], r["stops"])
                                          if s in FINISHED))}
    assert not off, f"ladder energies (got, lowest Psi of a finished start) that differ: {off}"

    off = {n: (p[n].get("energy"), e) for n, e in UNCERTIFIED.items()
           if not abs(p[n].get("energy", 0.0) / e - 1) <= 1e-9}
    assert not off, f"uncertified ladder answers (got, reference) more than 1e-9 apart: {off}"
