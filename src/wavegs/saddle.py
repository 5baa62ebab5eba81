"""Two-level variational solver for the strongly indefinite energy.

Inner level: for a unit plus-direction w, monotone ascent of
G(t, z) = t^2/2 - ||z^-||_-^2/2 - I(t w + z) over the half-space
R+ w (+) E0 (+) E-, giving the maximizer m(w), its height s_w and the reduced
value Psi(w).  Outer level: projected gradient descent of Psi on the unit
sphere of the truncated plus space, multi-start.  The reduced gradient is the
Riesz representative of h -> s_w Phi'(m(w))[h] in the plus inner product.  A
descent stops once the residual of its saddle, the dual norm of Phi'(m(w)),
is within tol_outer: the same number certifies the returned ground state.

Both levels start at step 1 and, after each accepted step, take the
Barzilai-Borwein step of their last two iterates (``_bb_step``; the outer level
measures it in the plus metric), safeguarded by backtracking so the inner
ascent is monotone and the outer descent never increases Psi.

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
# saddle.kernel_gram stays importable: the benchmark tracer wraps it by name
from .control import GramReport, kernel_gram  # noqa: F401
from .energy import EnergyContext, phi_eval, residual_dual_norm
from .fields import SpectralField


class NoCoerciveDirectionError(RuntimeError):
    """Raised when every start diverges: no maximizable plus-direction found."""


# Fixed limits, read at call time.  TOL_INNER sits above the float64 noise
# floor of the value-monitored ascent (gains below ~16 ulp of G cannot be
# certified, which caps reachable gradient norms near 2e-9 on desk problems).
TOL_INNER = 1e-8
MAX_INNER = 4000
MAX_OUTER = 400
DIVERGENCE_NORM = 1e6  # an inner state or cold height beyond this diverges


@dataclass
class SolverConfig:
    tol_outer: float = 1e-6
    n_starts: int = 4
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.tol_outer < math.inf:
            raise ValueError("tol_outer must be positive and finite")
        if self.n_starts < 1:
            raise ValueError("need at least one start")


@dataclass
class SaddleResult:
    """One inner ascent; ``stop`` says why it ended.

    ``stop`` is ``converged`` (gradient norm <= TOL_INNER), ``roundoff_floor``
    (three accepted steps in a row gained <= 16 ulp of G, or the step was
    halved until no shorter step can show a gain above that noise),
    ``no_ascent`` (60 halvings gave no Armijo gain), ``ceiling`` (the value
    passed the caller's ceiling), ``max_inner`` or ``diverged``.  ``grad``
    holds the coefficients of Phi'(m_hat), evaluated by the ascent at its last
    state; it is None after ``ceiling`` and ``diverged``.  ``_state`` is the
    state vector (t, y, z^-) that a warm start takes back.
    """

    m_hat: SpectralField
    s_w: float
    psi: float
    iterations: int
    grad_norm: float
    stop: str
    grad: np.ndarray | None = field(default=None, repr=False)
    _state: np.ndarray = field(default=None, repr=False)

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
    kernel_report: GramReport
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
    """G(x) with its Riesz-ascent gradient; x = (t, y, z^-), y in the kernel basis."""

    def __init__(self, w, ctx, kernel_basis):
        cat = ctx.catalog
        self.ctx = ctx
        self.cat = cat
        self.plus = cat.plus_idx
        self.zero = cat.zero_idx
        self.minus = cat.minus_idx
        self.wp = w.coeffs[self.plus]
        self.V = ctx.kernel_report.basis if kernel_basis is None else kernel_basis
        self.ys = slice(1, 1 + self.V.shape[1])
        self.ms = slice(self.ys.stop, None)
        # Riesz metric of the state: 1 on t and y, |lambda| on z^-
        self.metric = np.concatenate((np.ones(self.ys.stop), np.abs(cat.eig[self.minus])))
        self.size = len(self.metric)

    def assemble(self, x):
        u = np.zeros(self.cat.size)
        u[self.plus] = x[0] * self.wp
        u[self.zero] = self.V @ x[self.ys]
        u[self.minus] = x[self.ms]
        return u

    def value(self, x):
        """(G, coefficients, grid values); the values feed ``gradient`` at this state."""
        u = self.assemble(x)
        vals = self.ctx.synth(u)
        t, zm = float(x[0]), x[self.ms]
        quad = 0.5 * t * t - 0.5 * float(np.sum(self.metric[self.ms] * zm * zm))
        return quad - self.ctx.potential_from_values(vals), u, vals

    def gradient(self, u, vals):
        """(Phi'(u) coefficients, Riesz ascent direction d, ||d||) at the state of ``u``."""
        full = self.cat.eig * u - self.ctx.nonlinear_coeffs(vals)
        g = np.concatenate(([full[self.plus] @ self.wp], self.V.T @ full[self.zero],
                            full[self.minus]))
        d = g / self.metric
        return full, d, math.sqrt(float(g @ d))


def _initial_height(problem):
    """Height of the maximum of t -> Phi(t w): the Nehari scaling of w, or None.

    With f(s) = sum_i a_i |s|^(p_i - 2) s, d/dt Phi(t w) = t (1 - h(t)) with
    h(t) = sum_i c_i t^(p_i - 2) and c_i = a_i * integral of q |w|^p_i.  h rises
    strictly from 0, so h(t) = 1 has one root; it lies between the smallest t
    at which a single term reaches 1/n and the smallest at which one reaches
    1, and is bisected there in log t.  None when q misses the ray or the root
    lies beyond ``DIVERGENCE_NORM``: the ray is not maximizable.
    """
    ctx = problem.ctx
    ray = np.zeros(problem.size)
    ray[0] = 1.0
    wvals = np.abs(ctx.synth(problem.assemble(ray)))
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
    return t if t <= DIVERGENCE_NORM else None


def _bb_step(ds, dd, eta, metric=1.0):
    """Barzilai-Borwein step <ds, ds> / <ds, dd> in the inner product ``metric``.

    ``ds`` is the change of the iterate and ``dd`` the fall of the Riesz step
    direction; without positive curvature along ``ds`` the old ``eta`` stays.
    """
    mds = metric * ds
    denom = float(mds @ dd)
    return min(max(float(mds @ ds) / denom, 1e-12), 1e6) if denom > 1e-300 else eta


def inner_maximize(
    w: SpectralField,
    ctx: EnergyContext,
    cfg: SolverConfig,
    kernel_basis: np.ndarray | None = None,
    warm: tuple | None = None,
) -> SaddleResult:
    """Maximize Phi over the half-space of w; see module docstring.

    ``kernel_basis`` restricts the kernel block to the columns of an
    orthonormal matrix; None, as in every solve, takes
    ``ctx.kernel_report.basis``, the q-Gram eigenvectors above the floor.
    ``warm`` is ``(state, ceiling)``: a previous ``_state`` and a ceiling (``inf`` for
    none).  A warm state whose value is below 0 is off the maximizer's basin
    (Psi > 0 and s_w is bounded away from 0 on the Nehari-Pankov set), so the
    height is re-seeded as for a cold start.  With a ceiling the ascent returns
    as soon as its value exceeds it, after the start evaluation or after an
    accepted step (grad_norm inf, stop ``ceiling``).  The ascent is monotone
    and every other exit returns the current value, so the uncapped run would
    also end above the ceiling or diverge; a run that stays at or below the
    ceiling is the uncapped run, bit for bit.  Every entry of the state x =
    (t, y, z^-), the height too, takes the same Riesz step x + eta * d, so the
    rule does not depend on the scale of t; a trial at t <= 0 is rejected and
    its step halved like a trial without a gain.  ``cfg`` is not read (the
    inner level has no caller-set value); it keeps the
    ``(w, ctx, cfg, kernel_basis, warm)`` call shape that wrappers forward.
    """
    _check_plus_unit(w)
    problem = _InnerProblem(w, ctx, kernel_basis)

    def result(x, value, iters, gnorm, stop, grad=None):
        m_hat = SpectralField(ctx.catalog, problem.assemble(x))
        return SaddleResult(m_hat, float(x[0]), value, iters, gnorm, stop, grad, _state=x)

    ceiling = math.inf
    if warm is not None:
        state, ceiling = warm
        x = np.array(state, dtype=float)
        if x.shape != (problem.size,):
            raise ValueError("warm state has the wrong size")
        x[0] = max(x[0], 1e-8)
        value, u, vals = problem.value(x)
    if warm is None or value < 0:
        x = np.zeros(problem.size)
        if (t := _initial_height(problem)) is None:
            return result(x, math.nan, 0, math.inf, "diverged")
        x[0] = t
        value, u, vals = problem.value(x)

    if value > ceiling:
        return result(x, value, 0, math.inf, "ceiling")
    full, d, gnorm = problem.gradient(u, vals)
    eta = 1.0
    prev = None  # (x, d) of the previous iteration
    stagnant = 0

    for it in range(1, MAX_INNER + 1):
        if gnorm <= TOL_INNER:
            return result(x, value, it - 1, gnorm, "converged", full)
        # G <= t^2/2, so a runaway value also shows here first
        if math.sqrt(float(x @ x)) > DIVERGENCE_NORM:
            return result(x, value, it - 1, gnorm, "diverged")

        if prev is not None:
            eta = _bb_step(x - prev[0], prev[1] - d, eta)
        prev = (x, d)

        floor = 16.0 * np.finfo(float).eps * max(1.0, abs(value))
        for _ in range(60):
            x_try = x + eta * d
            if x_try[0] > 0 and math.isfinite(x_try[0]):
                v_try, u_try, vals_try = problem.value(x_try)
                if v_try >= value + 1e-4 * eta * gnorm * gnorm:
                    break
            eta *= 0.5
            # G rises by about eta * gnorm^2 along the step, so below 16 ulp of G
            # no shorter step can show a gain above roundoff
            if eta * gnorm * gnorm < floor:
                return result(x, value, it, gnorm, "roundoff_floor", full)
        else:
            return result(x, value, it, gnorm, "no_ascent", full)
        gain = v_try - value
        x, value, u, vals = x_try, v_try, u_try, vals_try
        if value > ceiling:
            return result(x, value, it, math.inf, "ceiling")
        full, d, gnorm = problem.gradient(u, vals)
        stagnant = stagnant + 1 if gain <= floor else 0
        if stagnant >= 3:
            # ascent hit the roundoff floor of G; gnorm belongs to the returned state
            return result(x, value, it, gnorm, "roundoff_floor", full)

    stop = "converged" if gnorm <= TOL_INNER else "max_inner"
    return result(x, value, MAX_INNER, gnorm, stop, full)


def psi_gradient(w: SpectralField, saddle: SaddleResult, ctx: EnergyContext) -> SpectralField:
    """Riesz representative of the reduced derivative, tangent at w.

    It is s_w Phi'(m_hat) on the plus block, read from ``saddle.grad``: the
    inner ascent already evaluated Phi'(m_hat), so this costs no transform.
    """
    cat = ctx.catalog
    lam_plus = cat.eig[cat.plus_idx]
    rep = saddle.s_w * saddle.grad[cat.plus_idx] / lam_plus
    wp = w.coeffs[cat.plus_idx]
    for _ in range(2):  # re-orthogonalize once to push tangency to roundoff
        rep = rep - float(np.sum(lam_plus * rep * wp)) * wp
    out = np.zeros(cat.size)
    out[cat.plus_idx] = rep
    return SpectralField(cat, out)


def _run_start(start_id, w, ctx, cfg, records):
    """Outer descent from ``w``; its last record in ``records`` gets a ``stop`` key.

    It stops ``converged`` as soon as the residual of its saddle, the dual norm
    of Phi'(m_hat) that certifies the start, is within ``tol_outer``; else at
    ``max_outer`` or ``stalled_at_floor`` (no trial beats the roundoff of Psi).
    """
    saddle = inner_maximize(w, ctx, cfg)
    if saddle.diverged:
        records.append({"start": start_id, "outer": 0, "event": "diverged", "stop": "diverged"})
        return None
    cat = ctx.catalog
    eta, prev, counts = 1.0, None, {}
    for outer in range(MAX_OUTER + 1):
        grad = psi_gradient(w, saddle, ctx)
        gn = plus_norm(grad)
        residual = residual_dual_norm(SpectralField(cat, saddle.grad))
        record = {"start": start_id, "outer": outer, "psi": saddle.psi, "grad_plus": gn,
                  "residual": residual}
        records.append({**record, "inner_iters": saddle.iterations, **counts})
        stop = "converged" if residual <= cfg.tol_outer else "max_outer"
        if stop == "converged" or outer == MAX_OUTER:
            break
        if prev is not None:
            eta = _bb_step(w.coeffs - prev[0].coeffs, grad.coeffs - prev[1].coeffs, eta, cat.eig)
        prev = (w, grad)
        counts = {"backtracks": 0, "rejected_inner_iters": 0}
        # require a decrease that beats both Armijo and the roundoff floor of Psi
        noise = 32.0 * np.finfo(float).eps * max(1.0, abs(saddle.psi))
        # Psi falls by about eta * gn^2 along the step, so below the noise drop
        # no shorter trial can be accepted (NaN also stops here)
        while eta * gn * gn >= noise:
            trial = _normalized_plus(cat, (w.coeffs - eta * grad.coeffs)[cat.plus_idx])
            ceiling = saddle.psi - max(1e-4 * eta * gn * gn, noise)
            # the ceiling rides in ``warm``, so wrappers of the five-argument
            # call shape pass it on unchanged
            s_trial = inner_maximize(trial, ctx, cfg, warm=(saddle._state, ceiling))
            # a Psi value counts only from an ascent that converged or reached
            # the roundoff floor of G; an unfinished ascent can sit far below
            # the maximum (toward t -> 0) and fake a decrease
            if s_trial.stop in ("converged", "roundoff_floor") and s_trial.psi <= ceiling:
                w, saddle = trial, s_trial
                break
            counts["backtracks"] += 1
            counts["rejected_inner_iters"] += s_trial.iterations
            eta *= 0.5
        else:
            stop = "stalled_at_floor"
            records.append({**record, "outer": outer + 1, "event": "stalled", **counts})
            break
    records[-1]["stop"] = stop
    return {"saddle": saddle, "stop": stop, "residual": residual}


def ground_state(ctx: EnergyContext, cfg: SolverConfig) -> GroundStateResult:
    """Multi-start outer minimization; returns the best converged saddle point.

    Every inner ascent keeps the kernel block of ``ctx.kernel_report`` (the
    directions above its eigenvalue floor), which the result reports.  Raises
    NoCoerciveDirectionError if every start diverges.
    The starts run one after another.
    """
    if ctx.weight.is_trivial():
        raise ValueError("weight must not vanish identically for a solve")
    cat = ctx.catalog
    rng = np.random.default_rng(cfg.seed)
    starts = [lowest_plus_direction(cat)]
    while len(starts) < cfg.n_starts:
        starts.append(random_plus_direction(cat, rng))

    records: list = []
    outcomes = [_run_start(i, w, ctx, cfg, records) for i, w in enumerate(starts)]

    finished = [o for o in outcomes if o is not None]
    if not finished:
        raise NoCoerciveDirectionError("no coercive direction detected: all starts diverged")

    # a start is certified exactly when it stopped converged; the start index
    # breaks ties, in start order, before the dicts are compared
    _, _, residual, _, best = min((o["stop"] != "converged", o["saddle"].psi, o["residual"], i, o)
                                  for i, o in enumerate(finished))
    u_star = best["saddle"].m_hat
    converged = best["stop"] == "converged"
    message = "converged" if converged else (
        f"{best['stop']}: residual {residual:.3e} above tol_outer; best iterate returned")
    return GroundStateResult(
        u_star=u_star,
        energy=phi_eval(u_star, ctx),
        residual=residual,
        s_w=best["saddle"].s_w,
        converged=converged,
        message=message,
        history=records,
        kernel_report=ctx.kernel_report,
        quadrature_gap=energy.quadrature_refinement_gap(u_star, ctx),
    )
