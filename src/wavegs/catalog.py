"""Exact eigenvalue catalogs for generalized wave operators on product cylinders.

The operator P(-Laplace) + d_tt acting on M x S^1 (M a circle, flat torus or
round sphere) is diagonal in the real separated basis zeta_k (x) e_l(t), with
e_l = cos(l t) for l > 0, e_{-l} = sin(l t), e_0 = const.  A catalog is a
truncated enumeration of these modes together with their eigenvalues
P(nu_spatial) - l^2, kept as exact integer numerators over one denominator so
that the plus/kernel/minus classification is never at the mercy of
floating-point roundoff.  The modes are listed in the C order of their box,
so on a torus a coefficient vector is the (2K+1)^N x (2L+1) box itself.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb, lcm

import numpy as np

TORUS = "torus"
SPHERE = "sphere"


@dataclass(frozen=True)
class DomainSpec:
    """Spatial manifold: a flat torus T^N (N=1 is the circle) or a sphere S^N."""

    kind: str
    dim: int

    def __post_init__(self):
        if self.kind not in (TORUS, SPHERE):
            raise ValueError(f"unknown domain kind {self.kind!r}")
        if self.dim < 1:
            raise ValueError("spatial dimension must be >= 1")

    @staticmethod
    def circle() -> "DomainSpec":
        return DomainSpec(TORUS, 1)

    @staticmethod
    def torus(dim: int) -> "DomainSpec":
        return DomainSpec(TORUS, dim)

    @staticmethod
    def sphere(dim: int) -> "DomainSpec":
        return DomainSpec(SPHERE, dim)

    @property
    def is_circle(self) -> bool:
        return self.kind == TORUS and self.dim == 1

    def to_json(self):
        return {"kind": self.kind, "dim": self.dim}


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):  # the nearest rational of denominator <= 1e12, kept only if it is x
        f = Fraction(x).limit_denominator(10**12)
        if float(f) != x:
            raise ValueError(f"float {x!r} is not a rational of denominator <= 1e12; "
                             'give it exactly as a "num/den" string or a [num, den] pair')
        return f
    try:
        if isinstance(x, str):
            return Fraction(x)
        if isinstance(x, (list, tuple)) and len(x) == 2:
            return Fraction(int(x[0]), int(x[1]))
    except ZeroDivisionError:
        raise ValueError(f"rational {x!r} has a zero denominator") from None
    raise TypeError(f"cannot interpret {x!r} as a rational")


@dataclass(frozen=True)
class OperatorSpec:
    """Polynomial symbol P of the spatial operator P(-Laplace).

    Coefficients are rationals c_0 ... c_m with P(tau) = sum c_j tau^j; the
    leading coefficient must be positive so that P(tau) -> infinity.
    """

    coefficients: tuple

    def __post_init__(self):
        if not isinstance(self.coefficients, (list, tuple)):
            raise ValueError(f"operator coefficients must be a list, got {self.coefficients!r}")
        coeffs = tuple(_as_fraction(c) for c in self.coefficients)
        if not coeffs or all(c == 0 for c in coeffs):
            raise ValueError("operator polynomial must be nonzero")
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        if coeffs[-1] <= 0:
            raise ValueError("leading coefficient of P must be positive")
        if len(coeffs) == 1:
            raise ValueError("P must be nonconstant (P(tau) -> infinity required)")
        object.__setattr__(self, "coefficients", coeffs)

    @staticmethod
    def laplacian_power(m: int) -> "OperatorSpec":
        """P(tau) = tau^m, i.e. the operator (-Laplace)^m."""
        if m < 1:
            raise ValueError("power must be >= 1")
        return OperatorSpec((0,) * m + (1,))

    @staticmethod
    def klein_gordon(dim: int) -> "OperatorSpec":
        """P(tau) = tau + ((N-1)/2)^2, the Klein-Gordon mass shift on S^N."""
        return OperatorSpec((Fraction(dim - 1, 2) ** 2, 1))

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    @property
    def power_degree(self):
        """m if P(tau) = tau^m exactly, else None."""
        if self.coefficients[-1] == 1 and all(c == 0 for c in self.coefficients[:-1]):
            return self.degree
        return None

    def evaluate(self, tau) -> Fraction:
        tau = _as_fraction(tau)
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * tau + c
        return acc

    def to_json(self):
        return {"coefficients": [[c.numerator, c.denominator] for c in self.coefficients]}


@dataclass(frozen=True)
class ModeKey:
    """One real eigenfunction zeta_k (x) e_l(t).

    For torus domains ``space`` is the signed wavevector: the sign of each
    component selects the cos (>= 0) or sin (< 0) branch of that circle
    factor, matching the signed temporal convention for l.  For spheres it is
    (degree, i) with 1 <= i <= multiplicity; no parity tags there.
    """

    space: tuple
    l: int


def laplace_eigenvalue(domain: DomainSpec, spatial) -> int:
    """Laplace-Beltrami eigenvalue of the spatial mode: |k|^2 or k(k+N-1)."""
    if domain.kind == TORUS:
        space = _torus_space(domain, spatial)
        return sum(int(c) * int(c) for c in space)
    degree = _sphere_degree(domain, spatial)
    return degree * (degree + domain.dim - 1)


def _torus_space(domain, spatial):
    if isinstance(spatial, (int, np.integer)):
        spatial = (int(spatial),)
    spatial = tuple(int(c) for c in spatial)
    if len(spatial) != domain.dim:
        raise ValueError(f"torus mode must have {domain.dim} components, got {spatial}")
    return spatial


def _sphere_degree(domain, spatial):
    if isinstance(spatial, (int, np.integer)):
        degree, index = int(spatial), 1
    else:
        degree, index = (int(spatial[0]), int(spatial[1]))
    if degree < 0:
        raise ValueError("sphere degree must be >= 0")
    if not 1 <= index <= sphere_multiplicity(domain.dim, degree):
        raise ValueError(f"sphere degeneracy index {index} out of range for degree {degree}")
    return degree


def eigenvalue(operator: OperatorSpec, domain: DomainSpec, spatial, l: int) -> Fraction:
    """Exact eigenvalue P(nu_spatial) - l^2 of the space-time mode."""
    nu = laplace_eigenvalue(domain, spatial)
    return operator.evaluate(nu) - Fraction(int(l) * int(l))


def sphere_multiplicity(N: int, k: int) -> int:
    """Dimension of the degree-k spherical harmonics on S^N."""
    if N < 1 or k < 0:
        raise ValueError("need N >= 1 and k >= 0")
    upper = comb(N + k, k)
    lower = comb(N + k - 2, k - 2) if k >= 2 else 0
    return upper - lower


CLASS_PLUS = 1
CLASS_ZERO = 0
CLASS_MINUS = -1

_TINY = float(np.finfo(float).tiny)  # an off-kernel |lambda| below this has no float64 inverse
_CLASS_NAMES = {CLASS_PLUS: "plus", CLASS_ZERO: "zero", CLASS_MINUS: "minus"}


class SpectralCatalog:
    """Immutable truncated list of every real mode within the cutoffs, classified exactly.

    Torus cutoffs are per-component (|k_j| <= k_max); sphere cutoffs bound the
    harmonic degree.  Mode i is (``space[i]``, ``l[i]``), as in ``ModeKey``, and
    the modes are in the C order of the box: the space rows (torus wavevectors
    in ``meshgrid(indexing="ij")`` order, sphere (degree, index)) outermost,
    then l.  Eigenvalue i is exactly ``lam_num[i] / lam_den``, with Python-int
    numerators (int64 overflows for high powers of P) over the lcm of P's
    denominators, so resonances land in the kernel class exactly.  A nonzero
    eigenvalue below the smallest normal float64 in magnitude is refused
    (``ValueError``), so ``metric`` is positive.
    """

    def __init__(self, domain: DomainSpec, operator: OperatorSpec, k_max: int, l_max: int):
        if k_max < 0 or l_max < 0:
            raise ValueError("cutoffs must be >= 0")
        self.domain = domain
        self.operator = operator
        self.k_max = int(k_max)
        self.l_max = int(l_max)
        self.cutoffs = (self.k_max,) * domain.dim + (self.l_max,)  # per torus axis (x_1.., t)
        self.space, self.l = _mode_box(domain, self.k_max, self.l_max)
        if domain.kind == TORUS:
            nu = (self.space * self.space).sum(axis=1)
        else:
            nu = self.space[:, 0] * (self.space[:, 0] + domain.dim - 1)
        self.lam_den = lcm(*(c.denominator for c in operator.coefficients))
        distinct, inverse = np.unique(nu, return_inverse=True)
        p_num = np.array([int(operator.evaluate(int(v)) * self.lam_den) for v in distinct], dtype=object)
        self.lam_num = p_num[inverse] - self.l.astype(object) ** 2 * self.lam_den
        # Python int / int is correctly rounded, so this equals float(Fraction)
        self.eig = (self.lam_num / self.lam_den).astype(np.float64)
        self.classes = np.sign(self.lam_num).astype(np.int8)
        lost = np.flatnonzero((self.classes != CLASS_ZERO) & (np.abs(self.eig) < _TINY))
        if lost.size:
            i = lost[0]
            raise ValueError(f"mode (space {tuple(self.space[i].tolist())}, l {self.l[i]}) has a nonzero "
                             f"eigenvalue below {_TINY:.3g} in magnitude, which float64 cannot hold")
        self.plus_idx = np.flatnonzero(self.classes == CLASS_PLUS)
        self.zero_idx = np.flatnonzero(self.classes == CLASS_ZERO)
        self.minus_idx = np.flatnonzero(self.classes == CLASS_MINUS)

    @property
    def size(self):
        return len(self.l)

    @cached_property
    def modes(self) -> tuple:
        """The modes as ``ModeKey`` objects, built on first use."""
        return tuple(ModeKey(tuple(s), l) for s, l in zip(self.space.tolist(), self.l.tolist()))

    @cached_property
    def eigenvalues(self) -> tuple:
        """The exact eigenvalues as ``Fraction`` objects, built on first use."""
        return tuple(Fraction(n, self.lam_den) for n in self.lam_num)

    @cached_property
    def metric(self) -> np.ndarray:
        """|lambda| off the kernel and 1 on it: the one weight of every norm, built on first use."""
        return np.where(self.classes == CLASS_ZERO, 1.0, np.abs(self.eig))

    def kernel_dim(self) -> int:
        return len(self.zero_idx)

    @cached_property
    def digest(self) -> str:
        """SHA-1 of the canonical JSON form, computed on first use."""
        return hashlib.sha1(json.dumps(self.to_json(), sort_keys=True).encode()).hexdigest()

    @cached_property
    def coords(self) -> np.ndarray:
        """Each mode's signed index per axis, ``space`` then ``l``, built on first use."""
        return np.column_stack([self.space, self.l])

    def to_json(self):
        # from the arrays, so a digest fills no cache; eigenvalues in lowest terms, as Fraction
        g = np.gcd(self.lam_num, self.lam_den)
        return {
            "domain": self.domain.to_json(),
            "operator": self.operator.to_json(),
            "k_max": self.k_max,
            "l_max": self.l_max,
            "modes": [{"space": s, "l": l} for s, l in zip(self.space.tolist(), self.l.tolist())],
            "eigenvalues": np.column_stack([self.lam_num // g, self.lam_den // g]).tolist(),
            "classes": [_CLASS_NAMES[int(c)] for c in self.classes],
        }


def _mode_box(domain: DomainSpec, k_max: int, l_max: int):
    """Every (space, l) within the cutoffs in the box's C order: (n, d) and (n,) int64 arrays."""
    if domain.kind == TORUS:
        axes = [np.arange(-k_max, k_max + 1)] * domain.dim
        space = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
    else:
        degrees = np.arange(k_max + 1)
        mult = np.array([sphere_multiplicity(domain.dim, int(k)) for k in degrees])
        index = np.arange(mult.sum()) - np.repeat(np.cumsum(mult) - mult, mult) + 1
        space = np.column_stack([np.repeat(degrees, mult), index])
    ls = np.arange(-l_max, l_max + 1)
    return np.repeat(space, len(ls), axis=0), np.tile(ls, len(space))


def build_catalog(domain: DomainSpec, operator: OperatorSpec, k_max: int, l_max: int) -> SpectralCatalog:
    """Enumerate all real modes within the cutoffs, classified exactly (see ``SpectralCatalog``)."""
    return SpectralCatalog(domain, operator, k_max, l_max)
