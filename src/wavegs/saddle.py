"""Two-level variational solver for the strongly indefinite energy.

Inner level: for a unit plus-direction w, monotone ascent of Phi itself over
the half-space R+ w (+) E0 (+) E-, on the field u = t w + r, giving the
maximizer m(w), its height s_w and the reduced value Psi(w) = Phi(m(w)).
Outer level: descent of Psi on the unit sphere of the truncated plus space by
limited-memory BFGS, multi-start, in the coordinates x = sqrt(lambda) w+,
where the plus metric is the dot product and the sphere is Euclidean.  The
reduced gradient (``psi_gradient``) is s_w Phi'(m(w))+ / sqrt(lambda) there,
projected tangent to x; ``_unit_plus`` turns coordinates into the unit
plus-field that the inner level takes.  A descent stops once the residual of
its saddle, the dual norm of Phi'(m(w)), is within tol_outer: the same number
certifies the returned ground state.

The inner ascent starts at step 1 and, after each accepted step, takes the
Barzilai-Borwein step of its last two iterates (``_bb_step``).  The outer step
is the L-BFGS direction (Absil, Mahony & Sepulchre 2008, section 8): the
two-loop recursion over the last ``LBFGS_MEMORY`` pairs of (change of x,
change of the gradient), a pair kept only if its curvature is positive
beyond roundoff, projected tangent to x (``_LBFGS``); steepest
descent if that is no descent direction, and -grad / max(1, ||grad||_+)
before the first pair.  One helper (``_backtrack``) halves either level's step
until the trial is accepted or no step can beat the level's roundoff floor.

An outer trial of step eta along d (slope s = -<d, grad>) is accepted only
if Psi(trial) <= Psi(w) - drop, drop = max(1e-4 eta s, noise).  Its warm ascent
needs to be only as accurate as that test can use (the forcing rule of inexact
Newton methods, Eisenstat & Walker 1996): it stops at the gradient norm
max(TOL_INNER, INNER_FORCING sqrt(eta s)), which is INNER_FORCING * grad_plus
for a full steepest-descent step.  An ascent that stops at gradient norm g
falls short of the maximum by about g^2 / (2 mu), mu the smallest curvature of
-Phi there (2 along the height for one power), so the Psi of such a trial is low
by about 5e-7 eta s / mu, below the drop unless mu is tiny.  A start stops
only at a saddle whose ascent reached TOL_INNER: a saddle from a looser ascent
is carried on to TOL_INNER before its residual may stop the start, and before
a stall ends it, so ``residual`` certifies exactly what an ascent at TOL_INNER
does.

Each trial state of the inner ascent is evaluated once (``_InnerProblem``) by
``EnergyContext.phi``, as ``phi_eval`` is, so a saddle's Psi is Phi(m_hat) bit
for bit; the ascent returns the Phi'(m_hat) its last state holds.
"""

from __future__ import annotations

import math
import numbers
import pickle
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import energy
# saddle.kernel_gram stays importable: the benchmark tracer wraps it by name
from .control import GramReport, kernel_gram  # noqa: F401
from .energy import EnergyContext, residual_dual_norm
from .fields import SpectralField


class NoCoerciveDirectionError(RuntimeError):
    """Raised when every start is dropped; carries the solve's history and counts."""

    def __init__(self, message, history=(), transforms=0, inner_iters=0):
        super().__init__(message)
        self.history, self.transforms, self.inner_iters = list(history), transforms, inner_iters


# Fixed limits, read at call time.  TOL_INNER sits above the float64 noise
# floor of the value-monitored ascent (gains below ~16 ulp of Phi cannot be
# certified, which caps reachable gradient norms near 2e-9 on desk problems).
TOL_INNER = 1e-8
MAX_INNER = 4000
MAX_OUTER = 400
DIVERGENCE_NORM = 1e6  # an inner state or cold height beyond this diverges
LBFGS_MEMORY = 7  # (step, gradient change) pairs behind the outer L-BFGS direction
INNER_FORCING = 1e-3  # C of a trial ascent's tolerance max(TOL_INNER, C sqrt(eta * slope))
_FINISHED = ("converged", "roundoff_floor")  # the stops whose Psi value counts
_EPS = float(np.finfo(float).eps)


@dataclass
class SolverConfig:
    tol_outer: float = 1e-6
    n_starts: int = 4
    seed: int = 0

    def __post_init__(self):
        tol = self.tol_outer
        if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not 0 < tol < math.inf:
            raise ValueError(f"tol_outer must be a positive finite number, got {tol!r}")
        for name in ("n_starts", "seed"):
            if isinstance(v := getattr(self, name), bool) or not isinstance(v, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {v!r}")
        if self.n_starts < 1:
            raise ValueError("need at least one start")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


@dataclass
class SaddleResult:
    """One inner ascent; ``stop`` says why it ended.

    ``stop`` is ``converged`` (gradient norm <= the ascent's tolerance, TOL_INNER
    unless a warm call passed a looser one), ``roundoff_floor``
    (no halved step gains above 16 ulp of Phi), ``max_inner`` or ``diverged``
    (state norm above DIVERGENCE_NORM, or a gradient norm that is not finite).
    ``psi`` and ``grad`` are Phi(m_hat) and Phi'(m_hat) as the last state
    evaluated them; ``grad`` is None after ``diverged``.  ``m_hat`` is the
    field a warm start takes back.
    """

    m_hat: SpectralField
    s_w: float
    psi: float
    iterations: int
    grad_norm: float
    stop: str
    grad: np.ndarray | None = field(default=None, repr=False)

    @property
    def converged(self) -> bool:
        return self.stop == "converged"

    @property
    def diverged(self) -> bool:
        return self.stop == "diverged"


@dataclass
class GroundStateResult:
    """A solve's outcome; ``energy`` is the chosen saddle's ``psi``, Phi(u_star).
    ``history`` is its list of records, one dict each, kept as one pickle (a
    sixth of the dicts' memory) and unpickled per read."""

    u_star: SpectralField
    energy: float
    residual: float
    s_w: float
    converged: bool
    message: str
    _history: bytes = field(repr=False)
    kernel_report: GramReport
    quadrature_gap: float = 0.0
    transforms: int = 0  # the solve's EnergyContext.synth calls
    inner_iters: int = 0  # the iterations of all its inner ascents

    @property
    def history(self) -> list:
        return pickle.loads(self._history)


def plus_norm(u: SpectralField) -> float:
    """||.||_+ of the plus part."""
    cat = u.catalog
    c = u.coeffs[cat.plus_idx]
    return math.sqrt(float(np.sum(cat.metric[cat.plus_idx] * c * c)))


def _unit_plus(catalog, y) -> SpectralField:
    """The unit plus-field w with coordinates sqrt(lambda) w+ = x = y / ||y||: its plus
    coefficients are x / sqrt(lambda), for the very x that ``_run_start`` carries."""
    coeffs = np.zeros(catalog.size)
    coeffs[catalog.plus_idx] = y / math.sqrt(float(y @ y)) / np.sqrt(catalog.metric[catalog.plus_idx])
    return SpectralField(catalog, coeffs)


def random_plus_direction(catalog, rng) -> SpectralField:
    """Random unit plus-field, H^-1-smoothed: coefficient k is N(0, 1) / lambda_k.

    A white-noise start puts most of its plus-norm on the highest modes, far
    from any ground state; damping by the eigenvalue keeps the draw random in
    every mode while its cold ascent and outer descent stay short.
    """
    if len(catalog.plus_idx) == 0:
        raise ValueError("catalog has no plus modes")
    root = np.sqrt(catalog.metric[catalog.plus_idx])
    return _unit_plus(catalog, rng.standard_normal(len(root)) / root)


def lowest_plus_direction(catalog) -> SpectralField:
    """Unit plus-field concentrated on the smallest positive eigenvalue."""
    if len(catalog.plus_idx) == 0:
        raise ValueError("catalog has no plus modes")
    lam_plus = catalog.metric[catalog.plus_idx]
    return _unit_plus(catalog, np.arange(len(lam_plus)) == np.argmin(lam_plus))


def _check_plus_unit(w: SpectralField):
    cat = w.catalog
    off = w.coeffs[cat.classes != 1]
    if off.size and float(np.max(np.abs(off))) > 1e-12:
        raise ValueError("w must be plus-class only")
    n = plus_norm(w)
    if abs(n - 1.0) > 1e-8:
        raise ValueError("w must have unit plus-norm")


class _InnerProblem:
    """Phi on the half-space of w, in the state x = (t, r): the field u = t w + r.

    r is a catalog coefficient vector, zero on the plus block, so the plus
    block of u is t w bit for bit; w's off-plus entries, below the 1e-12 that
    ``_check_plus_unit`` allows, enter u times t.  Each state is
    synthesized once: ``value`` returns Phi(u) (``EnergyContext.phi``) with u
    and q f(u), and ``gradient`` forms Phi'(u) = lambda u - analyze(q f(u)) and
    its Riesz direction on (t, r): <Phi'(u), w> on t (||w||_+ = 1), the
    projection V V^T Phi'(u) onto the kernel block V on r's kernel part, and
    Phi'(u) / |lambda| on its minus part.
    """

    def __init__(self, w, ctx):
        cat = ctx.catalog
        self.ctx, self.w, self.V, self.size = ctx, w.coeffs, ctx.kernel_report.basis, 1 + cat.size
        self.zero_idx, self.kernel = cat.zero_idx, 1 + cat.zero_idx  # r's kernel part in x
        self.minus_scale = (cat.classes == -1) / cat.metric  # 1 / |lambda| on minus, else 0

    def warm_state(self, m_hat):
        """A warm start's state: the height ``m_hat``'s plus-norm (>= 1e-8), r its off-plus part."""
        x = np.concatenate(([max(plus_norm(m_hat), 1e-8)], m_hat.coeffs))
        x[1 + self.ctx.catalog.plus_idx] = 0.0
        return x

    def assemble(self, x):
        return x[0] * self.w + x[1:]

    def value(self, x):
        """(Phi(u), u, q f(u)) at the state x; u and q f(u) feed ``gradient`` there."""
        u = self.assemble(x)
        phi, qf = self.ctx.phi(u)
        return phi, u, qf

    def gradient(self, u, qf):
        """(Phi'(u), Riesz ascent direction d, ||d||) at u, from the analyzed ``qf``."""
        grad = self.ctx.catalog.eig * u - self.ctx.analyze_values(qf)
        d = np.empty(self.size)
        d[0] = grad @ self.w
        d[1:] = grad * self.minus_scale
        d[self.kernel] = self.V @ (grad[self.zero_idx] @ self.V)
        return grad, d, math.sqrt(float(d[0] * d[0] + grad @ d[1:]))


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
    wvals = np.abs(ctx.synth(problem.w))
    terms = [(a * float(ctx.qw @ wvals**p), p - 2.0) for a, p in ctx.nonlinearity.terms]
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
    return math.exp(hi) if hi <= math.log(DIVERGENCE_NORM) else None  # exp(hi) may overflow


def _bb_step(ds, dd, eta):
    """Barzilai-Borwein step <ds, ds> / <ds, dd> of the inner ascent.

    ``ds`` is the change of the iterate and ``dd`` the fall of the Riesz step
    direction; without positive curvature along ``ds`` the old ``eta`` stays.
    """
    denom = float(ds @ dd)
    return min(max(float(ds @ ds) / denom, 1e-12), 1e6) if denom > 1e-300 else eta


class _LBFGS:
    """The outer L-BFGS direction (Nocedal & Wright, *Numerical Optimization*, Alg. 7.4).

    Iterates and gradients come in coordinates where the plus metric is the dot
    product.  ``pairs`` holds (s, y, <s, y>) of the last ``LBFGS_MEMORY`` steps,
    oldest first: s the change of the iterate, y that of its gradient.  A pair
    is kept only if <s, y> > eps <y, y> (Byrd, Lu, Nocedal & Zhu 1995), so H
    stays positive definite.
    """

    def __init__(self):
        self.pairs = deque(maxlen=LBFGS_MEMORY)
        self.prev = None

    def direction(self, x, g):
        """(d, -<d, g>) at the unit iterate x with gradient g, d tangent to the sphere.

        d is -H g by the two-loop recursion, H starting as <s, y> / <y, y> of the
        newest pair, projected tangent to x; it is -g when that projection is no
        descent direction (roundoff or non-finite).  Without a pair H is
        1 / max(1, ||g||), so the step at eta = 1 is no longer than the sphere's
        radius.
        """
        if self.prev is not None:
            s, y = x - self.prev[0], g - self.prev[1]
            if (sy := float(s @ y)) > _EPS * float(y @ y):  # positive beyond roundoff
                self.pairs.append((s, y, sy))
        self.prev = (x, g)
        q = g.copy()
        alphas = []
        for s, y, sy in reversed(self.pairs):
            alphas.append(float(s @ q) / sy)
            q -= alphas[-1] * y
        if self.pairs:
            s, y, sy = self.pairs[-1]
            q *= sy / float(y @ y)
        else:
            q /= max(1.0, math.sqrt(float(g @ g)))
        for (s, y, sy), a in zip(self.pairs, reversed(alphas)):
            q += (a - float(y @ q) / sy) * s
        d = float(q @ x) * x - q
        slope = -float(d @ g)
        return (d, slope) if slope > 0 else (-g, float(g @ g))


def _backtrack(eta, slope, floor, trial):
    """(eta, accepted) for the first of eta, eta/2, ... whose ``trial`` is not None.
    The given step is always tried (Armijo's test is relative, so it can pass below
    ``floor``); then ``(eta, None)`` once eta * slope is below ``floor`` or NaN."""
    while (accepted := trial(eta)) is None:
        eta *= 0.5
        if not eta * slope >= floor:
            return eta, None
    return eta, accepted


def inner_maximize(
    w: SpectralField,
    ctx: EnergyContext,
    cfg: SolverConfig,
    kernel_basis: np.ndarray | None = None,
    warm: tuple | None = None,
) -> SaddleResult:
    """Maximize Phi over the half-space of w; see module docstring.

    The kernel block is ``ctx.kernel_report.basis``, the q-Gram eigenvectors
    above the floor.  ``warm`` is ``(m_hat, tol)``: a previous result's
    ``m_hat`` on ``ctx.catalog``, whose plus-norm is the starting height and
    whose off-plus coefficients are the starting r, and the gradient norm at
    which the ascent stops ``converged`` (TOL_INNER for a call without
    ``warm``).  The ascent moves r only within the kernel block and the minus
    space, so a warm field's kernel part should lie in the block, as that of
    every result on the same context does.  A warm state whose value is below
    0 is off the maximizer's basin (Psi > 0 and s_w is bounded away from 0 on
    the Nehari-Pankov set), so the height is re-seeded as for a cold start.
    Every entry of the state x = (t, r), the height too, takes the same Riesz
    step x + eta * d, so the rule does not depend on the scale of t; a trial at
    t <= 0 is rejected and its step halved like a trial without a gain.
    ``cfg`` and ``kernel_basis`` are not read (the inner level has no
    caller-set value); they keep the ``(w, ctx, cfg, kernel_basis, warm)`` call
    shape that wrappers forward.
    """
    _check_plus_unit(w)
    problem = _InnerProblem(w, ctx)

    def result(x, value, iters, gnorm, stop, grad=None):
        return SaddleResult(SpectralField(ctx.catalog, problem.assemble(x)), float(x[0]), value,
                            iters, gnorm, stop, grad)

    tol = TOL_INNER
    if warm is not None:
        m_hat, tol = warm
        if getattr(m_hat, "catalog", None) is not ctx.catalog:
            raise ValueError("warm field is not on the context's catalog")
        x = problem.warm_state(m_hat)
        value, u, qf = problem.value(x)
    if warm is None or value < 0:
        x = np.zeros(problem.size)
        if (t := _initial_height(problem)) is None:
            return result(x, math.nan, 0, math.inf, "diverged")
        x[0] = t
        value, u, qf = problem.value(x)

    grad, d, gnorm = problem.gradient(u, qf)
    eta = 1.0
    prev = None  # (x, d) of the previous iteration

    def ascent(eta):  # the step from the current x, accepted at t > 0 with an Armijo gain
        x_try = x + eta * d
        if not 0 < x_try[0] < math.inf:
            return None
        v_try, u_try, qf_try = problem.value(x_try)
        return (x_try, v_try, u_try, qf_try) if v_try >= value + 1e-4 * eta * gnorm * gnorm else None

    for it in range(MAX_INNER + 1):
        if gnorm <= tol:
            return result(x, value, it, gnorm, "converged", grad)
        # Phi <= t^2/2 here, so a runaway value shows first; no step follows a NaN/inf gradient
        if math.sqrt(float(x @ x)) > DIVERGENCE_NORM or not math.isfinite(gnorm):
            return result(x, value, it, gnorm, "diverged")
        if it == MAX_INNER:
            return result(x, value, it, gnorm, "max_inner", grad)

        if prev is not None:
            eta = _bb_step(x - prev[0], prev[1] - d, eta)
        prev = (x, d)

        # Phi rises by about eta * gnorm^2 along the step, so below 16 ulp of Phi
        # no shorter step can show a gain above roundoff
        eta, accepted = _backtrack(eta, gnorm * gnorm, 16.0 * _EPS * max(1.0, abs(value)), ascent)
        if accepted is None:
            return result(x, value, it + 1, gnorm, "roundoff_floor", grad)
        x, value, u, qf = accepted
        grad, d, gnorm = problem.gradient(u, qf)


def psi_gradient(w: SpectralField, saddle: SaddleResult, ctx: EnergyContext) -> np.ndarray:
    """The reduced gradient at w in the L-BFGS coordinates x = sqrt(lambda) w+.

    It is s_w Phi'(m_hat)+ / sqrt(lambda) projected tangent to x, its Euclidean
    norm ||grad Psi||_+, read from ``saddle.grad`` at no transform.
    """
    cat = ctx.catalog
    root = np.sqrt(cat.metric[cat.plus_idx])
    g = saddle.s_w * saddle.grad[cat.plus_idx] / root
    x = root * w.coeffs[cat.plus_idx]
    for _ in range(2):  # re-orthogonalize once to push tangency to roundoff
        g = g - float(g @ x) * x
    return g


def _run_start(start_id, w, ctx, cfg, records):
    """Outer descent from ``w``; its last record gets ``stop`` and the start's counts.

    It stops ``converged`` as soon as the residual of its saddle, the dual norm
    of Phi'(m_hat) that certifies the start, is within ``tol_outer``; else at
    ``max_outer`` or ``stalled_at_floor`` (no trial beats the roundoff of Psi).
    A start whose cold ascent does not finish (``diverged`` or ``max_inner``:
    its Psi may sit far below the maximum) is dropped with that stop, and so is
    one whose finishing ascent to TOL_INNER does not.
    """
    cat = ctx.catalog
    x = np.sqrt(cat.metric[cat.plus_idx]) * w.coeffs[cat.plus_idx]  # w's L-BFGS coordinates
    transforms, first = ctx.transforms, len(records)
    saddle, tol = inner_maximize(w, ctx, cfg), TOL_INNER
    pending = saddle.iterations  # the ascents that found ``saddle``, in no record yet
    lbfgs, counts, outer, stalled = _LBFGS(), {}, 0, False
    while True:
        if saddle.stop not in _FINISHED:  # the start is dropped
            stop = saddle.stop
            records.append({"start": start_id, "outer": outer, "event": stop,
                            "inner_iters": pending, **counts})
            break
        grad = psi_gradient(w, saddle, ctx)
        residual = residual_dual_norm(SpectralField(cat, saddle.grad))
        if tol > TOL_INNER and (stalled or residual <= cfg.tol_outer or outer == MAX_OUTER):
            # stop only at an ascent finished to TOL_INNER, so the residual certifies
            # the same saddle whatever the trial tolerances were
            saddle, tol = inner_maximize(w, ctx, cfg, warm=(saddle.m_hat, TOL_INNER)), TOL_INNER
            pending += saddle.iterations
            continue
        record = {"start": start_id, "outer": outer, "psi": saddle.psi,
                  "grad_plus": math.sqrt(float(grad @ grad)), "residual": residual}
        records.append({**record, "inner_iters": pending, **counts})
        pending = 0
        stop = "converged" if residual <= cfg.tol_outer else "max_outer"
        if stop == "converged" or outer == MAX_OUTER:
            break

        d, slope = lbfgs.direction(x, grad)
        counts = {"backtracks": 0, "rejected_inner_iters": 0}
        # require a decrease that beats both Armijo and the roundoff floor of Psi
        noise = 32.0 * _EPS * max(1.0, abs(saddle.psi))

        def descent(eta):  # the normalized step from x, accepted by its warm ascent
            y = x + eta * d
            trial = _unit_plus(cat, y)
            armijo = saddle.psi - max(1e-4 * eta * slope, noise)
            trial_tol = max(TOL_INNER, INNER_FORCING * math.sqrt(eta * slope))
            # the tolerance rides in ``warm``, so wrappers of the five-argument
            # call shape pass it on unchanged
            s_trial = inner_maximize(trial, ctx, cfg, warm=(saddle.m_hat, trial_tol))
            # a Psi value counts only from an ascent that converged or reached
            # the roundoff floor of Phi; an unfinished ascent can sit far below
            # the maximum (toward t -> 0) and fake a decrease
            if s_trial.stop in _FINISHED and s_trial.psi <= armijo:
                return y / math.sqrt(float(y @ y)), trial, s_trial, trial_tol
            counts["backtracks"] += 1
            counts["rejected_inner_iters"] += s_trial.iterations
            return None
        # Psi falls by about eta * slope along the step, so below the noise drop
        # no shorter trial can be accepted
        _, accepted = _backtrack(1.0, slope, noise, descent)
        outer += 1
        stalled = accepted is None
        if accepted is not None:
            x, w, saddle, tol = accepted
            pending = saddle.iterations
        elif tol == TOL_INNER:
            stop = "stalled_at_floor"
            records.append({**record, "outer": outer, "event": "stalled", **counts})
            break
    records[-1].update(stop=stop, start_transforms=ctx.transforms - transforms, start_inner_iters=sum(
        rec.get("inner_iters", 0) + rec.get("rejected_inner_iters", 0) for rec in records[first:]))
    finished = saddle.stop in _FINISHED
    return {"saddle": saddle, "stop": stop, "residual": residual} if finished else None


def ground_state(ctx: EnergyContext, cfg: SolverConfig) -> GroundStateResult:
    """Multi-start outer minimization; returns the finished start of lowest Psi.

    Each finished start's Psi bounds the ground level, the infimum of Psi on the
    plus sphere, from above, so the lowest wins, ties broken by residual and then
    start index; ``converged`` and ``message`` are that start's.  Raises
    NoCoerciveDirectionError if every start is dropped (see ``_run_start``).  The
    starts run one after another, each keeping ``ctx.kernel_report``'s block.
    """
    if ctx.weight.is_trivial():
        raise ValueError("weight must not vanish identically for a solve")
    cat = ctx.catalog
    starts = [lowest_plus_direction(cat)]
    if cfg.n_starts > 1:  # a one-start solve draws nothing and never loads numpy.random
        rng = np.random.default_rng(cfg.seed)
        starts += [random_plus_direction(cat, rng) for _ in range(cfg.n_starts - 1)]

    records, transforms = [], ctx.transforms
    outcomes = [_run_start(i, w, ctx, cfg, records) for i, w in enumerate(starts)]
    inner_iters = sum(rec.get("start_inner_iters", 0) for rec in records)

    finished = [o for o in outcomes if o is not None]
    if not finished:
        raise NoCoerciveDirectionError("no coercive direction detected: every start's "
                                       "ascent diverged or stopped at max_inner",
                                       records, ctx.transforms - transforms, inner_iters)

    # the start index breaks ties before the dicts are compared
    _, residual, _, best = min((o["saddle"].psi, o["residual"], i, o) for i, o in enumerate(finished))
    m_hat = best["saddle"].m_hat
    converged = best["stop"] == "converged"
    message = "converged" if converged else (
        f"{best['stop']}: residual {residual:.3e} above tol_outer; best iterate returned")
    gap = energy.quadrature_refinement_gap(m_hat, ctx)
    history, transforms = pickle.dumps(records), ctx.transforms - transforms
    # what the result keeps is allocated last, once the solve's temporaries are
    # freed, so a caller that keeps many results keeps them packed (wave-kernel:
    # 13.3 -> 11.0 KB of resident memory per kept result)
    return GroundStateResult(
        u_star=SpectralField(cat, m_hat.coeffs.copy()),
        energy=best["saddle"].psi,
        residual=residual,
        s_w=best["saddle"].s_w,
        converged=converged,
        message=message,
        _history=history,
        kernel_report=ctx.kernel_report,
        quadrature_gap=gap,
        transforms=transforms, inner_iters=inner_iters,
    )
