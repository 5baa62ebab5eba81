import hashlib
import inspect
import itertools
import json
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavegs import (
    DomainSpec,
    ModeKey,
    OperatorSpec,
    SpectralCatalog,
    build_catalog,
    eigenvalue,
    laplace_eigenvalue,
    sphere_multiplicity,
)

QUADRATIC = OperatorSpec((Fraction(1, 3), Fraction(1, 2), 1))
LAPLACE_12 = OperatorSpec.laplacian_power(12)

# SHA-1 digests of the canonical JSON, pinned from the per-mode Fraction build
# with its modes in the (|l|, l < 0, |space|, space < 0) order
PINNED_DIGESTS = [
    (DomainSpec.circle(), OperatorSpec.laplacian_power(1), 48, 48,
     "b1f1a2de750690653b8bc35887f309f36a9fe712"),
    (DomainSpec.circle(), OperatorSpec.laplacian_power(2), 8, 8,
     "f1f9b2e101f7817b7e15f75dacbe0066768f2d3f"),
    (DomainSpec.torus(2), OperatorSpec.laplacian_power(2), 6, 6,
     "60288676c33ffe723b7c220e3e86e39bba36fdad"),
    (DomainSpec.sphere(3), OperatorSpec.klein_gordon(3), 5, 5,
     "ff64680990fc0174c41359d8390911db429f4f16"),
    (DomainSpec.circle(), OperatorSpec((Fraction(1, 3), 1)), 6, 6,
     "052ab966d0a292326686c9aa8baca03c39daef5d"),
    (DomainSpec.torus(2), QUADRATIC, 4, 4, "a74c90f61b0f4a0f36dc50ecc78f5c74b8ff6007"),
    (DomainSpec.circle(), LAPLACE_12, 48, 48, "0260a6becf9fb64342cef8aa318deed1ff40cabb"),
]


def test_eigenvalue_torus_resonance():
    # (1+1)^2 - 4 = 0: resonance by construction
    dom = DomainSpec.torus(2)
    op = OperatorSpec.laplacian_power(2)
    assert eigenvalue(op, dom, (1, 1), 2) == 0


def test_eigenvalue_circle_wave():
    assert eigenvalue(OperatorSpec.laplacian_power(1), DomainSpec.circle(), 3, 2) == 5


def test_eigenvalue_sphere_klein_gordon_resonance():
    # k(k+N-1) + c_N = (k + (N-1)/2)^2 on S^3: 2*4 + 1 - 9 = 0
    dom = DomainSpec.sphere(3)
    op = OperatorSpec.klein_gordon(3)
    assert op.coefficients[0] == 1
    assert eigenvalue(op, dom, 2, 3) == 0


def test_eigenvalue_rejects_bad_modes():
    with pytest.raises(ValueError):
        eigenvalue(OperatorSpec.laplacian_power(1), DomainSpec.torus(2), (1,), 0)
    with pytest.raises(ValueError):
        eigenvalue(OperatorSpec.laplacian_power(2), DomainSpec.sphere(2), -1, 0)


def test_operator_spec_validation():
    with pytest.raises(ValueError):
        OperatorSpec((1, -1))  # negative leading coefficient
    with pytest.raises(ValueError):
        OperatorSpec((3,))  # constant polynomial
    op = OperatorSpec((Fraction(1, 2), 0, 1))
    assert op.evaluate(2) == Fraction(9, 2)
    assert OperatorSpec.laplacian_power(3).power_degree == 3
    assert op.power_degree is None
    # a string is iterable, so "12" once ran as P(tau) = 1 + 2 tau; "1/2"
    # strings inside a list stay rationals
    for bad in ("12", "1/2", 2, {"a": 1}):
        with pytest.raises(ValueError, match="operator coefficients must be a list"):
            OperatorSpec(bad)
    assert OperatorSpec(["1/2", 0, 1]) == op
    assert OperatorSpec((Fraction(1, 2), 0, 1, 0, 0)) == op  # trailing zeros are stripped


def test_a_float_coefficient_is_read_only_as_the_rational_it_is():
    for x, want in ((0.1, Fraction(1, 10)), (1 / 3, Fraction(1, 3)), (2 / 7, Fraction(2, 7)),
                    (1e-12, Fraction(1, 10**12))):
        assert OperatorSpec([x, 1]).coefficients[0] == want
    # the nearest rational of denominator <= 1e12 is another number: 1e-13 + tau was
    # read as the classical wave, 6e-13 as 1e-12 and the binary float 2^-45 as 0
    for x in (1e-13, 6e-13, 2.0**-45):
        with pytest.raises(ValueError, match=re.escape(
                f'float {x!r} is not a rational of denominator <= 1e12; give it exactly as a '
                '"num/den" string or a [num, den] pair')):
            OperatorSpec([x, 1])
    assert build_catalog(DomainSpec.circle(), OperatorSpec(["1e-13", 1]), 4, 4).kernel_dim() == 0
    assert build_catalog(DomainSpec.circle(), OperatorSpec([0, 1]), 4, 4).kernel_dim() == 17


def test_sphere_multiplicity_values():
    assert sphere_multiplicity(2, 0) == 1
    assert sphere_multiplicity(2, 2) == 5     # C(4,2) - C(2,0)
    assert sphere_multiplicity(3, 3) == 16    # C(6,3) - C(4,1) = (3+1)^2
    assert sphere_multiplicity(2, 1) == 3


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=12))
def test_sphere_multiplicity_positive_and_telescoping(n, k):
    # rho_k sums telescope: sum_{j<=k} rho_j = dim of polynomials restricted, C(n+k,k)+C(n+k-1,k-1)
    rho = sphere_multiplicity(n, k)
    assert rho >= 1
    from math import comb

    total = sum(sphere_multiplicity(n, j) for j in range(k + 1))
    assert total == comb(n + k, k) + (comb(n + k - 1, k - 1) if k >= 1 else 0)


def test_build_catalog_kernel_by_brute_force():
    # oracle: exhaustive enumeration of k^4 - l^2 = 0 over the cutoff box
    cat = build_catalog(DomainSpec.circle(), OperatorSpec.laplacian_power(2), 2, 4)
    expected = set()
    for k in range(-2, 3):
        for l in range(-4, 5):
            if (abs(k) ** 2) ** 2 == l * l:
                expected.add((k, l))
    got = {(cat.modes[i].space[0], cat.modes[i].l) for i in cat.zero_idx}
    assert got == expected
    assert {(0, 0), (1, 1), (-1, -1), (2, 4), (-2, -4)} <= got


def test_build_catalog_torus_plus_mode():
    cat = build_catalog(DomainSpec.torus(2), OperatorSpec.laplacian_power(1), 3, 3)
    i = cat.modes.index(ModeKey((3, 1), 3))
    assert cat.eigenvalues[i] == 1
    assert cat.classes[i] == 1  # plus


def test_build_catalog_all_plus_when_time_frozen():
    cat = build_catalog(DomainSpec.circle(), OperatorSpec((1, 1)), 5, 0)
    assert cat.kernel_dim() == 0
    assert len(cat.minus_idx) == 0
    assert len(cat.plus_idx) == cat.size


def test_rational_classification_resists_float_noise():
    # P(tau) = tau + 1/3: lambda = k^2 + 1/3 - l^2 never vanishes, even when tiny
    cat = build_catalog(DomainSpec.circle(), OperatorSpec((Fraction(1, 3), 1)), 6, 6)
    assert cat.kernel_dim() == 0
    # exactness: rational sign agrees with float sign whenever the float is not tiny
    for lam_exact, lam_float in zip(cat.eigenvalues, cat.eig):
        if abs(lam_float) > 2.0**-20:
            assert (lam_exact > 0) == (lam_float > 0)


def test_eigenvalue_symmetry_in_parity_and_sign():
    op = OperatorSpec.laplacian_power(2)
    dom = DomainSpec.torus(2)
    base = eigenvalue(op, dom, (2, 1), 3)
    for space in [(-2, 1), (2, -1), (-2, -1)]:
        assert eigenvalue(op, dom, space, 3) == base
        assert eigenvalue(op, dom, space, -3) == base


def test_kernel_characterization_torus_even_power():
    cat = build_catalog(DomainSpec.torus(2), OperatorSpec.laplacian_power(2), 3, 12)
    for i, mode in enumerate(cat.modes):
        nu = laplace_eigenvalue(cat.domain, mode.space)
        is_kernel = abs(mode.l) == nu  # |l| = |k|^2 for m = 2
        assert (cat.classes[i] == 0) == is_kernel


def test_monotone_exhaustion():
    small = build_catalog(DomainSpec.circle(), OperatorSpec.laplacian_power(2), 2, 2)
    big = build_catalog(DomainSpec.circle(), OperatorSpec.laplacian_power(2), 3, 4)
    assert set(small.modes) <= set(big.modes)


def test_every_mode_in_box_appears_once():
    cat = build_catalog(DomainSpec.torus(2), OperatorSpec.laplacian_power(2), 2, 2)
    assert cat.size == 5 * 5 * 5
    assert len(set(cat.modes)) == cat.size


def test_sphere_catalog_counts_degeneracy():
    cat = build_catalog(DomainSpec.sphere(2), OperatorSpec.laplacian_power(2), 3, 1)
    per_l = sum(sphere_multiplicity(2, k) for k in range(4))
    assert cat.size == 3 * per_l


def test_catalog_json_round_trip_fields():
    cat = build_catalog(DomainSpec.circle(), OperatorSpec((Fraction(1, 2), 1)), 2, 2)
    doc = cat.to_json()
    assert doc["eigenvalues"][0][1] in (1, 2)  # rational encoding as num/den
    assert len(doc["modes"]) == cat.size
    assert set(doc["classes"]) <= {"plus", "zero", "minus"}


def test_deterministic_mode_ordering():
    a = build_catalog(DomainSpec.torus(2), OperatorSpec.laplacian_power(2), 2, 2)
    b = build_catalog(DomainSpec.torus(2), OperatorSpec.laplacian_power(2), 2, 2)
    assert a.modes == b.modes
    assert a.digest == b.digest


def _in_pinned_order(doc):
    """The catalog document with its modes, eigenvalues and classes re-sorted
    by (|l|, l < 0, |space|, space < 0), the order the pinned digests hash."""
    space = np.array([m["space"] for m in doc["modes"]])
    l = np.array([m["l"] for m in doc["modes"]])
    # np.lexsort sorts by its last row first
    order = np.lexsort(np.vstack([(space < 0).T[::-1], np.abs(space).T[::-1], l < 0, np.abs(l)]))
    return {**doc, **{key: [doc[key][i] for i in order]
                      for key in ("modes", "eigenvalues", "classes")}}


@pytest.mark.parametrize("dom,op,k,l,digest", PINNED_DIGESTS)
def test_catalog_digest_is_pinned(dom, op, k, l, digest):
    # only the order of the modes differs from the pinned build
    doc = _in_pinned_order(build_catalog(dom, op, k, l).to_json())
    assert hashlib.sha1(json.dumps(doc, sort_keys=True).encode()).hexdigest() == digest


def test_torus_catalog_is_its_box_in_c_order():
    # a catalog is built from its cutoffs alone, never assembled from mode arrays,
    # so the transforms read every catalog as its box without checking it
    params = list(inspect.signature(SpectralCatalog).parameters)
    assert params == ["domain", "operator", "k_max", "l_max"]
    for dim in (1, 2, 3):
        cat = build_catalog(DomainSpec.torus(dim), OperatorSpec.laplacian_power(2), 2, 1)
        box = np.array([k + (l,) for k in itertools.product(range(-2, 3), repeat=dim)
                        for l in (-1, 0, 1)])
        np.testing.assert_array_equal(cat.coords, box)
        low = (-2,) * dim
        assert cat.modes[:4] == (ModeKey(low, -1), ModeKey(low, 0), ModeKey(low, 1),
                                 ModeKey(low[:-1] + (-1,), -1))


def test_sphere_catalog_lists_space_rows_then_l():
    cat = build_catalog(DomainSpec.sphere(2), OperatorSpec.laplacian_power(1), 2, 1)
    rows = [(0, 1), (1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (2, 4), (2, 5)]
    assert cat.modes == tuple(ModeKey(s, l) for s in rows for l in (-1, 0, 1))


@pytest.mark.parametrize("dom", [DomainSpec.circle(), DomainSpec.torus(2), DomainSpec.sphere(2)])
def test_digest_fills_neither_the_mode_nor_the_eigenvalue_cache(dom):
    cat = build_catalog(dom, QUADRATIC, 3, 3)
    digest = cat.digest
    assert "modes" not in cat.__dict__ and "eigenvalues" not in cat.__dict__
    doc = cat.to_json()
    through_caches = {
        **doc,
        "modes": [{"space": list(m.space), "l": m.l} for m in cat.modes],
        "eigenvalues": [[lam.numerator, lam.denominator] for lam in cat.eigenvalues],
    }
    assert doc == through_caches
    assert hashlib.sha1(json.dumps(through_caches, sort_keys=True).encode()).hexdigest() == digest


@pytest.mark.parametrize("dom,op,k", [
    (DomainSpec.torus(2), QUADRATIC, 4),
    (DomainSpec.circle(), LAPLACE_12, 48),  # 48^24 - 48^2 needs 135 bits
    (DomainSpec.sphere(3), OperatorSpec.klein_gordon(3), 4),
])
def test_catalog_matches_single_mode_reference(dom, op, k):
    cat = build_catalog(dom, op, k, k)
    for i in range(cat.size):
        lam = eigenvalue(op, dom, tuple(int(c) for c in cat.space[i]), int(cat.l[i]))
        assert cat.eigenvalues[i] == lam
        assert cat.eig[i] == float(lam)
        assert cat.classes[i] == (lam > 0) - (lam < 0)


@pytest.mark.parametrize("name", ["torus2_cat", "circle_wave_cat", "sphere_kg_cat"])
def test_metric_is_abs_lambda_off_the_kernel_and_one_on_it(name, request):
    cat = request.getfixturevalue(name)
    off = cat.classes != 0
    assert cat.kernel_dim() > 0 and off.any()
    np.testing.assert_array_equal(cat.metric[off], np.abs(cat.eig[off]))
    np.testing.assert_array_equal(cat.metric[~off], 1.0)


def test_catalog_refuses_an_eigenvalue_float64_cannot_hold():
    # P(tau) = 1e-400 + tau on the circle: the 9 modes with |k| = |l| are plus in
    # exact arithmetic, but their float eigenvalue is 0.0, and 1 / lambda is inf
    op = OperatorSpec([Fraction(1, 10**400), 1])
    with pytest.raises(ValueError, match=r"mode \(space \(-2,\), l -2\) has a nonzero eigenvalue"):
        build_catalog(DomainSpec.circle(), op, 2, 2)
    # a small but normal eigenvalue is kept
    cat = build_catalog(DomainSpec.circle(), OperatorSpec([Fraction(1, 10**300), 1]), 2, 2)
    assert cat.kernel_dim() == 0 and cat.metric.min() == pytest.approx(1e-300, rel=1e-12)


@pytest.mark.parametrize("call, error, message", [
    (lambda: DomainSpec("disk", 2), ValueError, "unknown domain kind 'disk'"),
    (lambda: DomainSpec.torus(0), ValueError, "spatial dimension must be >= 1"),
    (lambda: OperatorSpec((0, 0)), ValueError, "operator polynomial must be nonzero"),
    # (3, 0) is the constant 3 once its trailing zero is stripped
    (lambda: OperatorSpec((3, 0)), ValueError,
     "P must be nonconstant (P(tau) -> infinity required)"),
    (lambda: OperatorSpec((1, None)), TypeError, "cannot interpret None as a rational"),
    (lambda: OperatorSpec(("1/0", 1)), ValueError, "rational '1/0' has a zero denominator"),
    (lambda: OperatorSpec.laplacian_power(0), ValueError, "power must be >= 1"),
    (lambda: laplace_eigenvalue(DomainSpec.sphere(2), (2, 6)), ValueError,
     "sphere degeneracy index 6 out of range for degree 2"),
    (lambda: sphere_multiplicity(0, 1), ValueError, "need N >= 1 and k >= 0"),
    (lambda: sphere_multiplicity(2, -1), ValueError, "need N >= 1 and k >= 0"),
    (lambda: build_catalog(DomainSpec.circle(), LAPLACE_12, -1, 2), ValueError, "cutoffs must be >= 0"),
    (lambda: SpectralCatalog(DomainSpec.sphere(2), LAPLACE_12, 2, -1), ValueError,
     "cutoffs must be >= 0"),
], ids=["domain-kind", "domain-dim", "operator-zero", "operator-constant-after-strip",
        "operator-not-a-rational", "operator-zero-denominator", "laplacian-power-0",
        "sphere-index", "multiplicity-dim", "multiplicity-degree", "negative-k-max",
        "negative-l-max"])
def test_input_checks_name_the_fault(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
