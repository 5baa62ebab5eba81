"""The three benchmark workloads: problems, recorded references and checks.

Every problem is built through the public ``wavegs`` API, the way the README
quick start does it.  References were recorded from this code with one BLAS
thread; an operation fails when it raises, returns ``converged=False``, has a
residual above ``RESIDUAL_BOUND`` or an energy off the reference, or when a
diagnostic verdict or value differs from its reference.
"""

from __future__ import annotations

import math

RESIDUAL_BOUND = 1e-6
ENERGY_RTOL = 1e-9
VALUE_RTOL = 1e-9
RECON_ATOL = 1e-10

# Every circle-beam run solves this same panel of seeds, rotated by --seed, so
# that all runs time the same work: at K = L = 8 one solve takes 5 to 34 s
# depending on its seed.  The panel holds the README seed 0 and the documented
# seed-2 defect.
SEED_PANEL = (0, 1, 2, 3)

# The README solve config, as written; power, cutoffs and starts vary below.
WEIGHT = {"kind": "rectangle", "x": [0.0, 4.71], "t": [0.0, 6.2832],
          "inside": 1.0, "outside": 0.0, "smoothing": 0.1}
EXPONENT = 4.0
TOL_OUTER = 1e-6


def _close(value, ref, rtol=VALUE_RTOL):
    return math.isclose(value, ref, rel_tol=rtol, abs_tol=0.0)


class SolveWorkload:
    """One ``ground_state`` call per operation on a fixed circle problem."""

    kind = "solve"

    def __init__(self, name, power, cutoff, starts, energy, panel, known_defects):
        self.name = name
        self.power = power
        self.cutoff = cutoff
        self.starts = starts
        self.energy = energy
        self.panel = panel
        self.known_defects = known_defects

    def describe(self):
        return (f"circle, (-Laplace)^{self.power}, p = {EXPONENT:g}, K = L = {self.cutoff}, "
                f"{self.starts} start(s), seeds {','.join(map(str, self.panel))}")

    def block(self, seed):
        """Operation inputs of one timed block: the seed panel rotated by ``seed``."""
        n = len(self.panel)
        return [self.panel[(seed + i) % n] for i in range(n)]

    def setup(self, wavegs, context_cls, clock):
        """Catalog, grid, weight and context; returns (state, per-stage seconds)."""
        t0 = clock()
        cat = wavegs.build_catalog(wavegs.DomainSpec.circle(),
                                   wavegs.OperatorSpec.laplacian_power(self.power),
                                   self.cutoff, self.cutoff)
        t1 = clock()
        grid = wavegs.ProductGrid.for_catalog(cat)
        weight = wavegs.weight_rectangle(grid, tuple(WEIGHT["x"]), tuple(WEIGHT["t"]),
                                         WEIGHT["inside"], WEIGHT["outside"], WEIGHT["smoothing"])
        nonlin = wavegs.NonlinearitySpec.pure_power(EXPONENT)
        t2 = clock()
        ctx = context_cls(cat, grid, weight, nonlin)
        t3 = clock()
        state = {"catalog": cat, "grid": grid, "weight": weight, "nonlinearity": nonlin, "ctx": ctx}
        return state, {"catalog_s": t1 - t0, "weight_s": t2 - t1, "context_s": t3 - t2}

    def run(self, wavegs, state, seed, span):
        cfg = wavegs.SolverConfig(n_starts=self.starts, seed=seed, tol_outer=TOL_OUTER)
        return wavegs.ground_state(state["ctx"], cfg)

    def check(self, seed, res):
        """(list of failure reasons, summary values) for one solve."""
        reasons = []
        if not res.converged:
            reasons.append(f"converged=False ({res.message})")
        if not res.residual <= RESIDUAL_BOUND:
            reasons.append(f"residual {res.residual:.3e} above bound {RESIDUAL_BOUND:g}")
        if not _close(res.energy, self.energy, ENERGY_RTOL):
            reasons.append(f"energy {res.energy!r} off reference {self.energy!r}")
        return reasons, {"energy": res.energy, "residual": res.residual}

    def is_known_defect(self, seed, values):
        """The documented spurious solve: converged, but at a near-zero energy."""
        energy = values.get("energy")
        return (seed in self.known_defects and energy is not None
                and abs(energy) < 1e-2 * self.energy)

    def cli_config(self, seed, out):
        return {"task": "solve", "domain": {"kind": "circle"}, "operator": {"power": self.power},
                "cutoffs": {"k_max": self.cutoff, "l_max": self.cutoff},
                "nonlinearity": {"terms": [[1.0, EXPONENT]]}, "weight": WEIGHT,
                "grid": {"oversample": 2},
                "solver": {"starts": self.starts, "tol_outer": TOL_OUTER},
                "seed": seed, "out": str(out)}

    def cli_value(self, result):
        return result["energy"]

    def lib_value(self, res):
        return res.energy

    def sizes(self, wavegs, state):
        cat, grid = state["catalog"], state["grid"]
        return cat.size, cat.kernel_dim(), grid


class DiagnosticsWorkload:
    """One batch of the embedding and control diagnostics per operation."""

    kind = "diagnostics"

    def __init__(self, name, refs, torus_a, torus_b, j_cut, l_cut, gap_l, raster, gram_cutoff):
        self.name = name
        self.refs = refs
        self.torus_a = torus_a
        self.torus_b = torus_b
        self.j_cut = j_cut
        self.l_cut = l_cut
        self.gap_l = gap_l
        self.raster = raster
        self.gram_cutoff = gram_cutoff

    def describe(self):
        return (f"torus_gap_series{self.torus_a}, torus_gap_series{self.torus_b}, "
                f"sphere series j_cut={self.j_cut} l_cut={self.l_cut}, "
                f"gap_ratio_bracket(2,2,{self.gap_l}), slices on a {self.raster} raster, "
                f"kernel_gram and dalembert_split at K = L = {self.gram_cutoff}")

    def block(self, seed):
        return [seed]

    def setup(self, wavegs, context_cls, clock):
        return {}, {}

    def run(self, wavegs, state, seed, span):
        """The batch; each call is looked up on its module at call time."""
        import numpy as np

        emb, ctl, fld = wavegs.embedding, wavegs.control, wavegs.fields
        out = {
            "torus_a": emb.torus_gap_series(*self.torus_a),
            "torus_b": emb.torus_gap_series(*self.torus_b),
            "sphere_kg": emb.sphere_embedding_series(3, 1, 3.0, self.j_cut, self.l_cut,
                                                     "klein_gordon"),
            "sphere_power": emb.sphere_embedding_series(2, 2, 3.0, self.j_cut, self.l_cut, "power"),
            "gap_ratio": emb.gap_ratio_bracket(2, 2, self.gap_l),
        }
        omega = ctl.RasterSet.rectangle(tuple(WEIGHT["x"]), tuple(WEIGHT["t"]), self.raster)
        out["xi_eta"] = ctl.xi_eta_infimum(omega)
        _, meas_a, meas_b = ctl.slice_profiles(omega)
        out["slices"] = (float(meas_a.sum()), float(meas_b.sum()))

        cat, grid = self._catalog(wavegs)
        weight = wavegs.weight_rectangle(grid, tuple(WEIGHT["x"]), tuple(WEIGHT["t"]),
                                         WEIGHT["inside"], WEIGHT["outside"], WEIGHT["smoothing"])
        out["gram"] = ctl.kernel_gram(weight, cat, grid)

        coeffs = np.zeros(cat.size)
        coeffs[cat.zero_idx] = np.random.default_rng(seed).standard_normal(cat.kernel_dim())
        phi, psi = ctl.dalembert_split(wavegs.SpectralField(cat, coeffs))
        with span("control.reconstruct"):
            xs, ts = np.meshgrid(grid.x_nodes, grid.t_nodes, indexing="ij")
            profiles = (phi(xs + ts) + psi(xs - ts)).ravel()
            direct = coeffs[cat.zero_idx] @ fld.basis_rows(cat, grid, cat.zero_idx)
            out["recon_error"] = float(np.max(np.abs(profiles - direct)))
        return out

    def _catalog(self, wavegs):
        """The classical-wave catalog and grid of the Gram and d'Alembert calls."""
        k = self.gram_cutoff
        cat = wavegs.catalog.build_catalog(wavegs.DomainSpec.circle(),
                                           wavegs.OperatorSpec.laplacian_power(1), k, k)
        return cat, wavegs.ProductGrid.for_catalog(cat)

    def check(self, seed, out):
        ref = self.refs
        reasons = []
        for key in ("torus_a", "torus_b", "sphere_kg", "sphere_power"):
            rep, (verdict, total, tail) = out[key], ref[key]
            if rep.verdict != verdict:
                reasons.append(f"{key}: verdict {rep.verdict!r}, expected {verdict!r}")
            if not (_close(rep.total, total) and _close(rep.tail_exponent, tail)):
                reasons.append(f"{key}: total/tail {rep.total!r}/{rep.tail_exponent!r}, "
                               f"expected {total!r}/{tail!r}")
        for key in ("gap_ratio", "xi_eta", "slices"):
            got = tuple(float(v) for v in out[key])
            if not all(_close(g, r) for g, r in zip(got, ref[key])):
                reasons.append(f"{key}: {got!r}, expected {ref[key]!r}")
        gram, (dim, eig_min, eig_max) = out["gram"], ref["gram"]
        if gram.dim != dim or gram.below_floor or not (
                _close(gram.eig_min, eig_min) and _close(gram.eig_max, eig_max)):
            reasons.append(f"kernel_gram: dim {gram.dim}, eig [{gram.eig_min!r}, "
                           f"{gram.eig_max!r}], below floor {gram.below_floor}; expected "
                           f"dim {dim}, eig [{eig_min!r}, {eig_max!r}]")
        if not out["recon_error"] <= RECON_ATOL:
            reasons.append(f"dalembert_split: reconstruction error {out['recon_error']:.3e} "
                           f"above {RECON_ATOL:g}")
        return reasons, {"recon_error": out["recon_error"]}

    def is_known_defect(self, seed, values):
        return False

    def cli_config(self, seed, out):
        n, m, p, cutoff = self.torus_a
        return {"task": "series", "domain": {"kind": "torus", "dim": n}, "operator": {"power": m},
                "nonlinearity": {"terms": [[1.0, p]]}, "series": {"p": p, "cutoff": cutoff},
                "seed": seed, "out": str(out)}

    def cli_value(self, result):
        return result["series"]["total"]

    def lib_value(self, out):
        return out["torus_a"].total

    def sizes(self, wavegs, state):
        cat, grid = self._catalog(wavegs)
        return cat.size, cat.kernel_dim(), grid


CIRCLE_BEAM_DEFECT = ("known defect: converged=True on a spurious near-zero critical point "
                      "(E = 3.49e-5, residual 8.5e-3)")

FULL = {
    "circle-beam": SolveWorkload("circle-beam", power=2, cutoff=8, starts=4,
                                 energy=6.947093992690483, panel=SEED_PANEL,
                                 known_defects={2: CIRCLE_BEAM_DEFECT}),
    "wave-kernel": SolveWorkload("wave-kernel", power=1, cutoff=16, starts=1,
                                 energy=6.591500120089954, panel=(0,), known_defects={}),
    "diagnostics": DiagnosticsWorkload(
        "diagnostics",
        refs={
            "torus_a": ("converges", 6.885242593136184, -4.999955179003615),
            "torus_b": ("converges", 26.05065880129385, -1.9975827168754448),
            "sphere_kg": ("converges", 4.996005990250582, -1.3304606990087275),
            "sphere_power": ("converges", 2.2419373637447544, -3.15969934487074),
            "gap_ratio": (0.5025062499609381, 9.842329219213246),
            "xi_eta": (4.709321018808918, 4.709321018808918),
            "slices": (9644.689446520668, 9644.689446520668),
            "gram": (193, 0.5755746607209323, 0.8919373762486813),
        },
        torus_a=(2, 2, 3.0, 96), torus_b=(3, 2, 4.0, 24), j_cut=64, l_cut=10000,
        gap_l=10000, raster=2048, gram_cutoff=48),
}

# Tiny sizes for the smoke test; same code paths, references recorded alike.
QUICK = {
    "circle-beam": SolveWorkload("circle-beam", power=2, cutoff=4, starts=4,
                                 energy=7.085376018122719, panel=SEED_PANEL, known_defects={}),
    "wave-kernel": SolveWorkload("wave-kernel", power=1, cutoff=6, starts=1,
                                 energy=6.66373857345002, panel=(0,), known_defects={}),
    "diagnostics": DiagnosticsWorkload(
        "diagnostics",
        refs={
            "torus_a": ("converges", 6.885240786619866, -5.000735877797299),
            "torus_b": ("converges", 24.734263502178905, -1.9785067128078062),
            "sphere_kg": ("converges", 4.332761539593632, -1.2999905710972282),
            "sphere_power": ("converges", 2.2410746881356105, -3.1246380675582612),
            "gap_ratio": (0.5079681902446592, 9.842329219213246),
            "xi_eta": (4.71238898038469, 4.71238898038469),
            "slices": (1206.3715789784803, 1206.3715789784803),
            "gram": (49, 0.5723895970288738, 0.8891488645095859),
        },
        torus_a=(2, 2, 3.0, 24), torus_b=(3, 2, 4.0, 8), j_cut=16, l_cut=1000,
        gap_l=1000, raster=256, gram_cutoff=12),
}

NAMES = tuple(FULL)


def get(name, quick=False):
    return (QUICK if quick else FULL)[name]
