"""Eigenvalue-gap series diagnostics for the compact-embedding condition.

Convergence of sum |lambda_{kl}|^(-p/(p-2)) over nonresonant modes (torus) or
of the mode-shifted, Sogge-weighted double series (sphere) is what makes the
signed spaces embed compactly into L^p.  These routines sum truncations of
the series with exact integer gaps, estimate the tail exponent by a log-log
fit over the trailing dyadic blocks, and return a verdict next to the
theoretical threshold p* so disagreement is visible.  ``compactness_threshold``
is the one place that decides p* for a (domain, operator) pair.  A verdict of
"diverges" is certified either by a bounded-gap witness family or by a tail
slope >= -1 with margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _accel
from .catalog import SPHERE, DomainSpec, OperatorSpec

TAIL_MARGIN = 0.1


@dataclass
class SeriesReport:
    params: dict
    index: np.ndarray          # shell radius (torus) or offset j (sphere)
    term_sums: np.ndarray      # series terms grouped by index
    total: float
    tail_exponent: float | None
    verdict: str
    p_star: float | None       # inf: every p covered; None: no threshold applies
    witness: list | None = None
    notes: str = ""

    def to_json(self):
        return {
            "params": self.params,
            "index": self.index.tolist(),
            "term_sums": self.term_sums.tolist(),
            "partial_sums": np.cumsum(self.term_sums).tolist(),
            # JSON has no infinity: "inf" stands for it, and a null p_star for no threshold
            "total": "inf" if self.total == math.inf else self.total,
            "tail_exponent": self.tail_exponent,
            "verdict": self.verdict,
            "p_star": "inf" if self.p_star == math.inf else self.p_star,
            "witness": self.witness,
            "notes": self.notes,
        }

    def terms_to_csv(self, path):
        data = np.column_stack([self.index, self.term_sums, np.cumsum(self.term_sums)])
        np.savetxt(path, data, delimiter=",", header="index,term_sum,partial_sum", comments="")


def tail_exponent(index: np.ndarray, values: np.ndarray) -> float | None:
    """LSQ slope of log(values) vs log(index) over the last two dyadic blocks."""
    index = np.asarray(index, dtype=float)
    values = np.asarray(values, dtype=float)
    ok = (index > 0) & (values > 0)
    index, values = index[ok], values[ok]
    if len(index) < 4:
        return None
    top = index.max()
    sel = index >= top / 4.0
    if sel.sum() < 3:
        sel = np.argsort(index)[-3:]
    x = np.log(index[sel])
    y = np.log(values[sel])
    slope = np.polyfit(x, y, 1)[0]
    return float(slope)


def _verdict_from_tail(tail: float | None) -> str:
    if tail is None:
        return "inconclusive"
    if tail < -1.0 - TAIL_MARGIN:
        return "converges"
    if tail >= -1.0 + TAIL_MARGIN:
        return "diverges"
    return "inconclusive"


def _half_power_exact(N: int, m: int) -> bool:
    """Whether nu^m is a perfect square for every Laplace eigenvalue nu: m even or N = 1."""
    return m % 2 == 0 or N == 1


def _require_half_power(N: int, m: int) -> None:
    if not _half_power_exact(N, m):
        raise ValueError("need m even or N = 1")


def compactness_threshold(domain: DomainSpec, operator: OperatorSpec) -> float | None:
    """p* such that the signed spaces embed compactly into L^p for 2 < p < p*.

    2N/(N-m) on T^N and 2(N+1)/(N-m) on S^N for the operator (-Laplace)^m,
    inf when N <= m; the Klein-Gordon mass shift on S^N counts as m = 1.
    None when no criterion applies: odd m on higher tori and spheres (for
    m = 1 on T^N, N >= 2, the bounded-gap witness shows the embedding fails
    for every p) and general polynomials.
    """
    N = domain.dim
    if domain.kind == SPHERE and operator == OperatorSpec.klein_gordon(N):
        m = 1  # the mass shift makes the half-power exact for every N
    else:
        m = operator.power_degree
        if m is None or not _half_power_exact(N, m):
            return None
    gap = N - m
    if gap <= 0:
        return math.inf
    return 2.0 * (N + 1 if domain.kind == SPHERE else N) / gap


def torus_gap_series(N: int, m: int, p: float, cutoff: int = 48) -> SeriesReport:
    """Partial sums of sum |nu^m - l^2|^(-p/(p-2)) over T^N modes, by shell.

    Shells collect lattice vectors with max-norm r; for m = 1 and N >= 2 the
    bounded-gap witness family certifies divergence without summation.  Odd
    m >= 3 with N >= 2 is an open case and refused.
    """
    if p <= 2:
        raise ValueError("need p > 2")
    if N < 1 or m < 1:
        raise ValueError("need N >= 1 and m >= 1")
    if cutoff < 0:
        raise ValueError(f"cutoff must be >= 0, got {cutoff}")
    params = {"N": N, "m": m, "p": p, "cutoff": cutoff}
    p_star = compactness_threshold(DomainSpec.torus(N), OperatorSpec.laplacian_power(m))
    if not _half_power_exact(N, m):
        if m == 1:
            return SeriesReport(params, np.zeros(0), np.zeros(0), math.inf, None, "diverges", p_star,
                                witness=noncompact_witness(N, count=8),
                                notes="bounded-gap family: infinitely many unit gaps")
        raise ValueError("odd m >= 3 on higher tori is unsupported (open case)")
    s = p / (p - 2.0)

    # unsigned lattice box with parity multiplicities = all of Z^N, grouped by shell
    grids = np.meshgrid(*([np.arange(cutoff + 1)] * N), indexing="ij")
    flat = np.stack([g.ravel() for g in grids])
    shell = flat.max(axis=0)
    nu = (flat * flat).sum(axis=0)
    mult = np.prod(np.where(flat > 0, 2.0, 1.0), axis=0)

    shells = np.arange(cutoff + 1)
    uniq, inverse = np.unique(nu.astype(np.int64), return_inverse=True)
    per_nu = _accel.torus_l_sums(uniq, m, s)
    sums = np.bincount(shell, weights=per_nu[inverse] * mult, minlength=cutoff + 1)
    tail = tail_exponent(shells, sums)
    total = float(np.sum(sums))
    return SeriesReport(params, shells, sums, total, tail, _verdict_from_tail(tail), p_star)


def _sigma_p(N: int, p: float) -> float:
    crit = 2.0 * (N + 1) / (N - 1) if N > 1 else math.inf
    if p <= crit:
        return (N - 1) * (p - 2.0) / (4.0 * p)
    return (p * (N - 1) - 2.0 * N) / (2.0 * p)


def sphere_embedding_series(
    N: int,
    m: int,
    p: float,
    j_cut: int = 64,
    l_cut: int = 10000,
    operator: str = "power",
) -> SeriesReport:
    """Mode-shifted Sogge-weighted series on S^N, grouped by offset j.

    ``operator`` selects (-Laplace)^m ("power") or the Klein-Gordon mass shift
    ("klein_gordon", N odd, m ignored).  Terms are inner l-sums raised to the
    power (p-2)/p; the tail exponent is fitted on the positive-j side.
    """
    if p <= 2:
        raise ValueError("need p > 2")
    for name, cut in (("j_cut", j_cut), ("l_cut", l_cut)):
        if cut < 0:
            raise ValueError(f"{name} must be >= 0, got {cut}")
    kg = operator == "klein_gordon"
    if kg:
        if N % 2 == 0:
            raise ValueError("the mass-shift preset needs odd N")
    else:
        _require_half_power(N, m)
    spec = OperatorSpec.klein_gordon(N) if kg else OperatorSpec.laplacian_power(m)
    p_star = compactness_threshold(DomainSpec.sphere(N), spec)
    s = p / (p - 2.0)
    wexp = 2.0 * p * _sigma_p(N, p) / (p - 2.0)
    js = np.arange(-j_cut, j_cut + 1, dtype=np.int64)
    inner = _accel.sphere_series_inner(js, N, m, s, wexp, l_cut, kg)
    terms = inner ** ((p - 2.0) / p)
    pos = js > 0
    tail = tail_exponent(js[pos], terms[pos])
    total = float(np.sum(terms))
    params = {
        "N": N, "m": m, "p": p, "operator": operator,
        "j_cut": j_cut, "l_cut": l_cut, "sigma_p": _sigma_p(N, p),
    }
    return SeriesReport(params, js, terms, total, tail, _verdict_from_tail(tail), p_star)


def noncompact_witness(N: int, count: int = 5) -> list:
    """The bounded-gap family of the classical wave on T^N, N >= 2, as JSON records: the
    modes k = (l, 1, 0, ..., 0), l = 1..count, each of eigenvalue |k|^2 - l^2 = 1."""
    if N < 2:
        raise ValueError("need N >= 2")
    return [{"k": [l, 1] + [0] * (N - 2), "l": l, "lambda": 1} for l in range(1, count + 1)]


def gap_ratio_bracket(N: int, m: int, l_max: int = 10000):
    """Extremes of gap / (2 l^((2m-1)/m) |j*|) over 1 <= |j| <= l^(1/m), l <= l_max.

    The denominator is the leading form of the near-resonance gap asymptotics
    on S^N, with its constant written out (j* the real offset of k_l + j from
    the exact resonance degree).  ``l_max`` must be at least 2: the scan starts at l = 2.
    """
    _require_half_power(N, m)
    if l_max < 2:
        raise ValueError(f"l_max must be at least 2, got {l_max}")
    return _accel.gap_ratio_scan(N, m, l_max)
