"""Two-level variational solver for the strongly indefinite energy.

Inner level: for a unit plus-direction w, monotone ascent of
G(t, z) = t^2/2 - ||z^-||_-^2/2 - I(t w + z) over the half-space
R+ w (+) E0 (+) E-, giving the maximizer m(w), its height s_w and the reduced
value Psi(w).  Outer level: projected gradient descent of Psi on the unit
sphere of the truncated plus space, multi-start.  The reduced gradient is the
Riesz representative of h -> s_w Phi'(m(w))[h] in the plus inner product.

Steps use a Barzilai-Borwein guess from successive gradients, safeguarded by
backtracking so the inner ascent is monotone and the outer descent never
increases Psi.

An outer trial is accepted only if Psi(trial) <= Psi(w) - drop, so its inner
ascent gets the ceiling Psi(w) - drop and stops as soon as its value exceeds
it.  The ascent never lowers its value and every exit returns the current
value (or a divergence, which is rejected too), so a run that passes the
ceiling would have ended above it: the trial is rejected exactly as after the
full ascent.  Accepted trials never reach the ceiling and run unchanged, so
the solve trajectory does not depend on the ceiling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import energy
from .control import GramReport, kernel_gram, kernel_gram_basis
from .energy import EnergyContext, phi_eval, phi_gradient, residual_dual_norm
from .fields import SpectralField


class NoCoerciveDirectionError(RuntimeError):
    """Raised when every start diverges: no maximizable plus-direction found."""


@dataclass
class SolverConfig:
    # defaults sit above the float64 monotone-ascent noise floor measured on
    # desk-scale problems (value-monitored ascent cannot certify gains below
    # ~16 ulp of G, which caps reachable gradient norms near 2e-9)
    tol_inner: float = 1e-8
    tol_outer: float = 1e-6
    max_inner: int = 4000
    max_outer: int = 400
    n_starts: int = 4
    divergence_norm: float = 1e6
    eps_kernel: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if min(self.tol_inner, self.tol_outer) <= 0:
            raise ValueError("tolerances must be positive")
        if self.n_starts < 1:
            raise ValueError("need at least one start")


@dataclass
class SaddleResult:
    """One inner ascent; ``stop`` says why it ended.

    ``stop`` is ``converged`` (gradient norm <= tol_inner), ``roundoff_floor``
    (three accepted steps in a row gained <= 16 ulp of G, or the step was
    halved until no shorter step can show a gain above that noise),
    ``no_ascent`` (60 halvings gave no Armijo gain), ``ceiling`` (the value
    passed the caller's ceiling), ``max_inner`` or ``diverged``.
    """

    m_hat: SpectralField
    s_w: float
    psi: float
    iterations: int
    grad_norm: float
    stop: str
    _state: tuple = field(default=None, repr=False)

    @property
    def converged(self) -> bool:
        return self.stop == "converged"

    @property
    def diverged(self) -> bool:
        return self.stop == "diverged"


@dataclass
class GroundStateResult:
    u_star: SpectralField
    energy: float
    residual: float
    s_w: float
    converged: bool
    message: str
    history: list
    kernel_report: GramReport | None
    dropped_kernel: list
    quadrature_gap: float = 0.0


def plus_norm(u: SpectralField) -> float:
    """||.||_+ of the plus part."""
    cat = u.catalog
    c = u.coeffs[cat.plus_idx]
    return math.sqrt(float(np.sum(cat.eig[cat.plus_idx] * c * c)))


def _normalized_plus(catalog, plus_coeffs) -> SpectralField:
    """The plus-field with coefficients ``plus_coeffs``, scaled to unit plus-norm."""
    if len(catalog.plus_idx) == 0:
        raise ValueError("catalog has no plus modes")
    coeffs = np.zeros(catalog.size)
    coeffs[catalog.plus_idx] = plus_coeffs
    f = SpectralField(catalog, coeffs)
    f.coeffs /= plus_norm(f)
    return f


def random_plus_direction(catalog, rng) -> SpectralField:
    """Random unit plus-field, H^-1-smoothed: coefficient k is N(0, 1) / lambda_k.

    A white-noise start puts most of its plus-norm on the highest modes, far
    from any ground state; damping by the eigenvalue keeps the draw random in
    every mode while its cold ascent and outer descent stay short.
    """
    plus = catalog.plus_idx
    return _normalized_plus(catalog, rng.standard_normal(len(plus)) / catalog.eig[plus])


def lowest_plus_direction(catalog) -> SpectralField:
    """Unit plus-field concentrated on the smallest positive eigenvalue."""
    if len(catalog.plus_idx) == 0:
        raise ValueError("catalog has no plus modes")
    lam_plus = catalog.eig[catalog.plus_idx]
    return _normalized_plus(catalog, np.arange(len(lam_plus)) == np.argmin(lam_plus))


def _check_plus_unit(w: SpectralField):
    cat = w.catalog
    off = w.coeffs[cat.classes != 1]
    if off.size and float(np.max(np.abs(off))) > 1e-12:
        raise ValueError("w must be plus-class only")
    n = plus_norm(w)
    if abs(n - 1.0) > 1e-8:
        raise ValueError("w must have unit plus-norm")


class _InnerProblem:
    """G(t, y, zm) with its Riesz-ascent gradient, on the restricted kernel."""

    def __init__(self, w, ctx, kernel_basis):
        cat = ctx.catalog
        self.ctx = ctx
        self.cat = cat
        self.plus = cat.plus_idx
        self.zero = cat.zero_idx
        self.minus = cat.minus_idx
        self.wp = w.coeffs[self.plus]
        self.lam_minus = cat.eig[self.minus]  # negative values
        # (n_zero, n_kept); None keeps the whole kernel
        self.V = np.eye(len(self.zero)) if kernel_basis is None else kernel_basis
        self.n_y = self.V.shape[1]

    def assemble(self, t, y, zm):
        u = np.zeros(self.cat.size)
        u[self.plus] = t * self.wp
        u[self.zero] = self.V @ y
        u[self.minus] = zm
        return u

    def value(self, t, y, zm):
        """(G, coefficients, grid values); the values feed ``gradient`` at this state."""
        u = self.assemble(t, y, zm)
        vals = self.ctx.synth(u)
        quad = 0.5 * t * t - 0.5 * float(np.sum(-self.lam_minus * zm * zm))
        return quad - self.ctx.potential_from_values(vals), u, vals

    def gradient(self, u, vals):
        g = self.ctx.nonlinear_coeffs(vals)
        full = self.cat.eig * u - g
        gt = float(full[self.plus] @ self.wp)
        gy = self.V.T @ full[self.zero]
        gm = full[self.minus]
        dm = gm / np.abs(self.lam_minus)
        norm = math.sqrt(gt * gt + float(gy @ gy) + float(gm @ dm))
        return gt, gy, dm, norm


def _initial_height(problem, cfg):
    """Height of the maximum of t -> Phi(t w): the Nehari scaling of w, or None.

    With f(s) = sum_i a_i |s|^(p_i - 2) s, d/dt Phi(t w) = t (1 - h(t)) with
    h(t) = sum_i c_i t^(p_i - 2) and c_i = a_i * integral of q |w|^p_i.  h rises
    strictly from 0, so h(t) = 1 has one root; it lies between the smallest t
    at which a single term reaches 1/n and the smallest at which one reaches
    1, and is bisected there in log t.  None when q misses the ray or the root
    lies beyond ``divergence_norm``: the ray is not maximizable.
    """
    ctx = problem.ctx
    w = problem.assemble(1.0, np.zeros(problem.n_y), np.zeros(len(problem.minus)))
    wvals = np.abs(ctx.synth(w))
    qw = ctx.weight.values * ctx.grid.quad_weight
    terms = [(a * float(qw @ wvals**p), p - 2.0) for a, p in ctx.nonlinearity.terms]
    terms = [(c, e) for c, e in terms if c > 0]
    if not terms:
        return None
    lo = min(-math.log(len(terms) * c) / e for c, e in terms)
    hi = min(-math.log(c) / e for c, e in terms)
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if sum(c * math.exp(e * mid) for c, e in terms) < 1.0:
            lo = mid
        else:
            hi = mid
    t = math.exp(hi)
    return t if t <= cfg.divergence_norm else None


def inner_maximize(
    w: SpectralField,
    ctx: EnergyContext,
    cfg: SolverConfig,
    kernel_basis: np.ndarray | None = None,
    warm: tuple | None = None,
) -> SaddleResult:
    """Maximize Phi over the half-space of w; see module docstring.

    ``kernel_basis`` restricts the kernel block to the columns of an
    orthonormal matrix (the q-Gram subspace computed by the caller); ``warm``
    is a previous (t, y, zm) state, or (t, y, zm, ceiling).  A warm state whose
    value is below 0 is off the maximizer's basin (Psi > 0 and s_w is bounded
    away from 0 on the Nehari-Pankov set), so the height is re-seeded as for a
    cold start.  With a ceiling the ascent returns as soon as its value exceeds
    it, after the start evaluation or after an accepted step (grad_norm inf,
    stop ``ceiling``).  The ascent is monotone and every other exit returns
    the current value, so the uncapped run would also end above the ceiling or
    diverge; a run that stays at or below the ceiling is the uncapped run, bit
    for bit.  Every block, the height too, takes the same Riesz step
    (t + eta * dG/dt), so the rule does not depend on the scale of t; a trial
    at t <= 0 is rejected and its step halved like a trial without a gain.
    """
    _check_plus_unit(w)
    problem = _InnerProblem(w, ctx, kernel_basis)
    zero_y, zero_m = np.zeros(problem.n_y), np.zeros(len(problem.minus))

    def result(t, y, zm, value, iters, gnorm, stop):
        u = problem.assemble(t, y, zm)
        return SaddleResult(SpectralField(ctx.catalog, u), t, value, iters, gnorm, stop,
                            _state=(t, y.copy(), zm.copy()))

    ceiling = math.inf
    if warm is not None:
        t, y, zm, *cap = warm
        if cap:
            (ceiling,) = cap
        t = max(float(t), 1e-8)
        y = np.asarray(y, dtype=float).copy()
        zm = np.asarray(zm, dtype=float).copy()
        if y.shape != (problem.n_y,) or zm.shape != (len(problem.minus),):
            raise ValueError("warm state has wrong block sizes")
        value, u, vals = problem.value(t, y, zm)
    if warm is None or value < 0:
        t = _initial_height(problem, cfg)
        if t is None:
            return result(1.0, zero_y, zero_m, math.nan, 0, math.inf, "diverged")
        y, zm = zero_y, zero_m
        value, u, vals = problem.value(t, y, zm)

    if value > ceiling:
        return result(t, y, zm, value, 0, math.inf, "ceiling")
    gt, gy, dm, gnorm = problem.gradient(u, vals)
    eta = 1.0
    prev = None  # (t, y, zm, gt, gy, dm)
    stagnant = 0

    for it in range(1, cfg.max_inner + 1):
        if gnorm <= cfg.tol_inner:
            return result(t, y, zm, value, it - 1, gnorm, "converged")
        state_norm = math.sqrt(t * t + float(y @ y) + float(zm @ zm))
        # G <= t^2/2, so a runaway value also shows here first
        if state_norm > cfg.divergence_norm:
            return result(t, y, zm, value, it - 1, gnorm, "diverged")

        if prev is not None:
            ds = np.concatenate(([t - prev[0]], y - prev[1], zm - prev[2]))
            dg = np.concatenate(([gt - prev[3]], gy - prev[4], dm - prev[5]))
            denom = -float(ds @ dg)
            if denom > 1e-300:
                eta = min(max(float(ds @ ds) / denom, 1e-12), 1e6)
        prev = (t, y.copy(), zm.copy(), gt, gy, dm.copy())

        floor = 16.0 * np.finfo(float).eps * max(1.0, abs(value))
        accepted = False
        for _ in range(60):
            t_try = t + eta * gt
            if t_try > 0 and math.isfinite(t_try):
                y_try = y + eta * gy
                zm_try = zm + eta * dm
                v_try, u_try, vals_try = problem.value(t_try, y_try, zm_try)
                if v_try >= value + 1e-4 * eta * gnorm * gnorm:
                    gain = v_try - value
                    t, y, zm, value, u, vals = t_try, y_try, zm_try, v_try, u_try, vals_try
                    accepted = True
                    break
            eta *= 0.5
            # G rises by about eta * gnorm^2 along the step, so below 16 ulp of G
            # no shorter step can show a gain above roundoff
            if eta * gnorm * gnorm < floor:
                return result(t, y, zm, value, it, gnorm, "roundoff_floor")
        if not accepted:
            return result(t, y, zm, value, it, gnorm, "no_ascent")
        if value > ceiling:
            return result(t, y, zm, value, it, math.inf, "ceiling")
        if gain <= floor:
            stagnant += 1
            if stagnant >= 3:
                # ascent hit the roundoff floor of G; gnorm is the honest exit norm
                return result(t, y, zm, value, it, gnorm, "roundoff_floor")
        else:
            stagnant = 0
        gt, gy, dm, gnorm = problem.gradient(u, vals)

    stop = "converged" if gnorm <= cfg.tol_inner else "max_inner"
    return result(t, y, zm, value, cfg.max_inner, gnorm, stop)


def psi_gradient(w: SpectralField, saddle: SaddleResult, ctx: EnergyContext) -> SpectralField:
    """Riesz representative of the reduced derivative, tangent at w."""
    cat = ctx.catalog
    g = phi_gradient(saddle.m_hat, ctx).coeffs
    lam_plus = cat.eig[cat.plus_idx]
    rep = saddle.s_w * g[cat.plus_idx] / lam_plus
    wp = w.coeffs[cat.plus_idx]
    for _ in range(2):  # re-orthogonalize once to push tangency to roundoff
        rep = rep - float(np.sum(lam_plus * rep * wp)) * wp
    out = np.zeros(cat.size)
    out[cat.plus_idx] = rep
    return SpectralField(cat, out)


def _run_start(start_id, w, ctx, cfg, kernel_basis, records):
    """Outer descent from ``w``; its last record in ``records`` gets a ``stop`` key."""
    saddle = inner_maximize(w, ctx, cfg, kernel_basis)
    if saddle.diverged:
        records.append({"start": start_id, "outer": 0, "event": "diverged", "stop": "diverged"})
        return None
    eta = 0.5
    outer = 0
    grad = psi_gradient(w, saddle, ctx)
    gn = plus_norm(grad)
    records.append(
        {"start": start_id, "outer": outer, "psi": saddle.psi, "grad_plus": gn,
         "inner_iters": saddle.iterations}
    )
    stop = "max_outer"
    while gn > cfg.tol_outer and outer < cfg.max_outer:
        outer += 1
        accepted = False
        backtracks = rejected_iters = 0
        # require a decrease that beats both Armijo and the roundoff floor of Psi
        noise = 32.0 * np.finfo(float).eps * max(1.0, abs(saddle.psi))
        while True:
            trial = _normalized_plus(
                ctx.catalog, (w.coeffs - eta * grad.coeffs)[ctx.catalog.plus_idx]
            )
            drop = max(1e-4 * eta * gn * gn, noise)
            ceiling = saddle.psi - drop
            # the ceiling rides in ``warm``, so wrappers of the five-argument
            # call shape pass it on unchanged
            s_trial = inner_maximize(trial, ctx, cfg, kernel_basis, warm=(*saddle._state, ceiling))
            # a Psi value counts only from an ascent that converged or reached
            # the roundoff floor of G; an unfinished ascent can sit far below
            # the maximum (toward t -> 0) and fake a decrease
            if s_trial.stop in ("converged", "roundoff_floor") and s_trial.psi <= ceiling:
                w, saddle = trial, s_trial
                accepted = True
                eta = min(eta * 1.3, 1e3)
                break
            backtracks += 1
            rejected_iters += s_trial.iterations
            eta *= 0.5
            # Psi falls by about eta * gn^2 along the step, so below the noise
            # drop no shorter trial can be accepted (NaN also stops here)
            if not eta * gn * gn >= noise:
                break
        counts = {"backtracks": backtracks, "rejected_inner_iters": rejected_iters}
        if not accepted:
            records.append({"start": start_id, "outer": outer, "event": "stalled",
                            "psi": saddle.psi, "grad_plus": gn, **counts})
            stop = "stalled_at_floor"
            break
        grad = psi_gradient(w, saddle, ctx)
        gn = plus_norm(grad)
        records.append(
            {"start": start_id, "outer": outer, "psi": saddle.psi, "grad_plus": gn,
             "inner_iters": saddle.iterations, **counts}
        )
    stop = "converged" if gn <= cfg.tol_outer else stop
    records[-1]["stop"] = stop
    return {"saddle": saddle, "stop": stop}


def _kernel_split(ctx: EnergyContext, eps_kernel: float):
    """(q-Gram report, kept kernel basis, dropped directions) of ctx's kernel.

    Memoized in one slot on the context: repeated solves on one context with
    the same floor share one report instead of re-assembling the Gram.
    """
    memo = ctx._kernel_memo
    if memo is None or memo[0] != eps_kernel:
        report = kernel_gram(ctx.weight, ctx.catalog, ctx.grid, eps_kernel)
        memo = ctx._kernel_memo = (eps_kernel, report, *kernel_gram_basis(report))
    return memo[1:]


def ground_state(ctx: EnergyContext, cfg: SolverConfig) -> GroundStateResult:
    """Multi-start outer minimization; returns the best converged saddle point.

    Before solving, the truncated-kernel q-Gram is diagonalized and directions
    below the eigenvalue floor are dropped from the inner problem (reported in
    the result).  Raises NoCoerciveDirectionError if every start diverges.
    The starts run one after another.
    """
    if ctx.weight.is_trivial():
        raise ValueError("weight must not vanish identically for a solve")
    cat = ctx.catalog
    kernel_report = None
    kernel_basis = None
    dropped: list = []
    if cat.kernel_dim() > 0:
        kernel_report, kernel_basis, dropped = _kernel_split(ctx, cfg.eps_kernel)

    rng = np.random.default_rng(cfg.seed)
    starts = [lowest_plus_direction(cat)]
    while len(starts) < cfg.n_starts:
        starts.append(random_plus_direction(cat, rng))

    records: list = []
    outcomes = [_run_start(i, w, ctx, cfg, kernel_basis, records) for i, w in enumerate(starts)]

    finished = [o for o in outcomes if o is not None]
    if not finished:
        raise NoCoerciveDirectionError("no coercive direction detected: all starts diverged")

    def rank(o):
        res = residual_dual_norm(phi_gradient(o["saddle"].m_hat, ctx))
        # a start that converged or stalled at the roundoff floor of Psi counts
        # as solved when its residual is within tol_outer: the residual is the
        # certificate, not the outer stop test, which carries the factor s_w
        certified = o["stop"] in ("converged", "stalled_at_floor") and res <= cfg.tol_outer
        return (not certified, o["saddle"].psi, res)

    # the start index breaks ties, in start order, before the dicts are compared
    uncertified, _, residual, _, best = min((*rank(o), i, o) for i, o in enumerate(finished))
    u_star = best["saddle"].m_hat
    e_star = phi_eval(u_star, ctx)
    converged = not uncertified
    if converged and best["stop"] == "converged":
        message = "converged"
    elif converged:
        message = (f"converged: stalled at the roundoff floor of Psi with residual "
                   f"{residual:.3e} <= tol_outer")
    elif best["stop"] == "max_outer":
        message = "max_outer reached; best iterate returned"
    else:
        message = f"residual {residual:.3e} above tol_outer; best iterate returned"
    return GroundStateResult(
        u_star=u_star,
        energy=e_star,
        residual=residual,
        s_w=best["saddle"].s_w,
        converged=converged,
        message=message,
        history=records,
        kernel_report=kernel_report,
        dropped_kernel=dropped,
        quadrature_gap=energy.quadrature_refinement_gap(u_star, ctx),
    )
