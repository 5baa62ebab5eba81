import math
import re

import numpy as np
import pytest

from wavegs import embedding
from wavegs import (
    DomainSpec,
    OperatorSpec,
    _accel,
    compactness_threshold,
    eigenvalue,
    gap_ratio_bracket,
    noncompact_witness,
    sphere_embedding_series,
    torus_gap_series,
)


def mode_shift(N, m, l):
    """(k_l*, k_l) for one frequency, from the kernel the sphere series uses."""
    k_star, k_l = _accel._mode_shift(np.array([l], dtype=np.int64), N, m)
    return float(k_star[0]), int(k_l[0])


def test_torus_series_circle_beam_converges():
    rep = torus_gap_series(1, 2, 4.0, cutoff=200)
    assert rep.verdict == "converges"
    assert math.isinf(rep.p_star)
    assert rep.tail_exponent < -1.1
    # partial sums are monotone
    assert np.all(np.diff(np.cumsum(rep.term_sums)) >= 0)


def test_torus_series_wave_on_t2_diverges_by_witness():
    rep = torus_gap_series(2, 1, 3.0)
    assert rep.verdict == "diverges"
    assert rep.witness[0] == {"k": [1, 1], "l": 1, "lambda": 1}
    assert all(entry["lambda"] == 1 for entry in rep.witness)
    assert rep.p_star is None  # the embedding fails for every p: no threshold applies


def test_torus_series_biharmonic_t2_converges():
    rep = torus_gap_series(2, 2, 3.0, cutoff=48)
    assert rep.verdict == "converges"
    assert rep.tail_exponent < -1.1
    assert math.isinf(rep.p_star)  # 2N/(N-m)_+ with N = m = 2


def test_a_series_too_short_for_a_tail_fit_is_inconclusive():
    # shells 0, 1, 2: the fit needs four positive ones
    rep = torus_gap_series(2, 2, 3.0, 2)
    assert len(rep.index) == 3
    assert rep.tail_exponent is None
    assert rep.verdict == "inconclusive"


def test_a_tail_fit_with_fewer_than_three_top_points_takes_the_last_three():
    # only 100 lies in the top two dyadic blocks [25, 100]: the fit falls back
    # to the three largest indices, 2, 3 and 100
    index, values = np.array([1.0, 2.0, 3.0, 100.0]), np.array([1.0, 1.0, 1.0, 1e-4])
    expected = np.polyfit(np.log(index[1:]), np.log(values[1:]), 1)[0]
    assert embedding.tail_exponent(index, values) == pytest.approx(expected, rel=1e-12)
    assert embedding.tail_exponent(index[::-1], values[::-1]) == pytest.approx(expected, rel=1e-12)


def test_torus_series_thresholds_and_errors():
    assert torus_gap_series(3, 2, 3.0, cutoff=12).p_star == pytest.approx(6.0)


@pytest.mark.parametrize("args, message", [
    ((2, 2, 2.0), "need p > 2"),
    ((0, 2, 3.0), "need N >= 1 and m >= 1"),
    ((2, 0, 3.0), "need N >= 1 and m >= 1"),
    ((2, 3, 3.0), "odd m >= 3 on higher tori is unsupported (open case)"),
], ids=["p-2", "N-0", "m-0", "odd-m-open-case"])
def test_torus_series_checks_name_the_fault(args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        torus_gap_series(*args)


@pytest.mark.parametrize("call, name", [
    (lambda: torus_gap_series(2, 2, 3.0, cutoff=-3), "cutoff"),
    (lambda: torus_gap_series(2, 1, 3.0, cutoff=-1), "cutoff"),  # the witness branch too
    (lambda: sphere_embedding_series(2, 2, 3.0, j_cut=-2), "j_cut"),
    (lambda: sphere_embedding_series(3, 1, 3.0, l_cut=-1, operator="klein_gordon"), "l_cut"),
], ids=["torus-cutoff", "torus-witness-cutoff", "sphere-j-cut", "sphere-l-cut"])
def test_negative_series_truncations_are_named(call, name):
    # numpy once raised its own "'minlength' must not be negative", and a negative
    # j_cut returned an empty series with the verdict "inconclusive"
    with pytest.raises(ValueError, match=f"^{name} must be >= 0"):
        call()


def test_torus_series_shell_exponent_matches_theory():
    # per-shell sums scale like r^(N - 1 - m p/(p-2))
    rep = torus_gap_series(1, 2, 4.0, cutoff=200)
    assert rep.tail_exponent == pytest.approx(-4.0, abs=0.1)
    rep2 = torus_gap_series(2, 2, 3.0, cutoff=48)
    assert rep2.tail_exponent == pytest.approx(-5.0, abs=0.2)


def test_mode_shift_examples():
    k_star, k_l = mode_shift(1, 2, 9)
    assert k_star == pytest.approx(3.0) and k_l == 3
    k_star, k_l = mode_shift(2, 2, 6)
    assert k_star == pytest.approx(2.0) and k_l == 2  # k(k+1) = 6 exactly
    k_star, k_l = mode_shift(3, 2, 5)
    assert k_star == pytest.approx(math.sqrt(6) - 1)
    assert k_l == 1


def test_mode_shift_rounding_slack():
    for l in range(1, 300):
        k_star, k_l = mode_shift(3, 2, l)
        assert abs(k_l - k_star) <= 0.5 + 1e-12


def test_mode_shift_near_optimality():
    # for every l: the gap at k_l is neighbor-optimal, or k_l is within the
    # half-integer rounding slack of the exact resonance degree
    N, m = 2, 2
    for l in range(1, 500):
        k_star, k_l = mode_shift(N, m, l)
        gap = abs((k_l * (k_l + N - 1)) ** m - l * l)
        neighbor_optimal = all(
            gap <= abs((o * (o + N - 1)) ** m - l * l)
            for o in (k_l - 1, k_l + 1)
            if o >= 0
        )
        assert neighbor_optimal or abs(k_l - k_star) <= 0.5 + 1e-12


def test_sphere_series_biharmonic_s2_converges():
    rep = sphere_embedding_series(2, 2, 3.0, j_cut=48, l_cut=4000)
    assert rep.verdict == "converges"
    assert math.isinf(rep.p_star)


def test_sphere_series_klein_gordon_tail_slope():
    rep = sphere_embedding_series(3, 1, 3.0, operator="klein_gordon")
    assert rep.verdict == "converges"
    expected = -2.0 + (3 + 1) * (3.0 - 2.0) / (2.0 * 3.0)  # -4/3
    assert rep.tail_exponent == pytest.approx(expected, abs=0.15)
    assert rep.p_star == pytest.approx(4.0)


def test_sphere_series_klein_gordon_supercritical():
    rep = sphere_embedding_series(3, 1, 4.5, operator="klein_gordon")
    # at finite truncation the slope sits at -1 up to truncation bias
    assert rep.tail_exponent >= -1.05
    assert rep.verdict in ("diverges", "inconclusive")


def test_sphere_series_circle_klein_gordon_is_the_power_series():
    # on S^1 the mass shift is 0, so both presets sum the same terms
    kg = sphere_embedding_series(1, 1, 3.0, operator="klein_gordon")
    power = sphere_embedding_series(1, 1, 3.0, operator="power")
    assert np.array_equal(kg.term_sums, power.term_sums)
    assert kg.total == power.total
    assert kg.p_star == power.p_star == math.inf


_T, _S = DomainSpec.torus, DomainSpec.sphere
_P = OperatorSpec.laplacian_power


@pytest.mark.parametrize(
    "domain, operator, expected",
    [
        (_T(1), _P(2), math.inf),  # the circle: every p
        (_T(3), _P(2), 6.0),  # 2N/(N-m)
        (_T(2), _P(1), None),  # bounded-gap witness: fails for every p
        (_T(2), _P(3), None),  # odd m >= 3 on a higher torus: open case
        (_S(3), OperatorSpec.klein_gordon(3), 4.0),  # 2(N+1)/(N-1)
        (_S(1), OperatorSpec.klein_gordon(1), math.inf),
        (_S(3), _P(2), 8.0),  # 2(N+1)/(N-m)
        (_S(2), _P(3), None),  # odd m on a higher sphere
        (_S(2), OperatorSpec((1, 1)), None),  # general polynomial
    ],
)
def test_compactness_threshold(domain, operator, expected):
    assert compactness_threshold(domain, operator) == expected


def test_sphere_series_validation():
    with pytest.raises(ValueError):
        sphere_embedding_series(2, 2, 2.0)
    with pytest.raises(ValueError):
        sphere_embedding_series(2, 1, 3.0, operator="klein_gordon")  # even N
    with pytest.raises(ValueError):
        sphere_embedding_series(2, 3, 3.0)  # odd m on a higher sphere


def test_sphere_series_terms_positive_and_monotone_partials():
    rep = sphere_embedding_series(3, 2, 3.5, j_cut=32, l_cut=2000)
    assert np.all(rep.term_sums >= 0)
    part = np.cumsum(rep.term_sums)
    assert np.all(np.diff(part) >= 0)


def test_integer_gaps_off_kernel():
    # every nonresonant mode of integer eigenvalue data has gap >= 1
    rep = sphere_embedding_series(3, 2, 3.0, j_cut=8, l_cut=200)
    assert rep.total < math.inf
    N, m = 3, 2
    for l in range(0, 200):
        _, k_l = mode_shift(N, m, l)
        for j in range(-3, 4):
            k = k_l + j
            if k < 0:
                continue
            gap = abs((k * (k + N - 1)) ** m - l * l)
            assert gap == 0 or gap >= 1


def test_offset_band_inequalities():
    # the torus series bound rests on |(l_k + p)^2 - l_k^2| >= 2 p |k|^m and
    # |(l_k - p)^2 - l_k^2| >= p |k|^m for 1 <= p <= l_k; exact integers
    for kx in range(1, 20):
        for ky in range(0, 20):
            nu = kx * kx + ky * ky
            lk = nu  # |k|^m with m = 2
            for p in (1, 2, 5, lk):
                assert (lk + p) ** 2 - lk * lk >= 2 * p * lk
                if 1 <= p <= lk:
                    assert abs((lk - p) ** 2 - lk * lk) >= p * lk


def test_noncompact_witness_family():
    wit = noncompact_witness(2, 3)
    assert wit == [{"k": [1, 1], "l": 1, "lambda": 1}, {"k": [2, 1], "l": 2, "lambda": 1},
                   {"k": [3, 1], "l": 3, "lambda": 1}]
    assert noncompact_witness(3, 1) == [{"k": [1, 1, 0], "l": 1, "lambda": 1}]
    wave = OperatorSpec.laplacian_power(1)
    for N in (2, 3, 4):
        for rec in noncompact_witness(N):
            assert rec["lambda"] == eigenvalue(wave, DomainSpec.torus(N), tuple(rec["k"]), rec["l"])
    with pytest.raises(ValueError):
        noncompact_witness(1, 3)


def test_gap_ratio_bracket_within_ten():
    for N, m in ((2, 2), (3, 2)):
        lo, hi = gap_ratio_bracket(N, m, l_max=2000)
        assert lo >= 0.1
        assert hi <= 10.0


@pytest.mark.parametrize("l_max", [0, 1])
def test_gap_ratio_bracket_refuses_an_empty_scan(l_max):
    # the scan starts at l = 2; below that it returned (inf, 0.0) as a bracket
    with pytest.raises(ValueError, match="l_max must be at least 2"):
        gap_ratio_bracket(2, 2, l_max)


def test_series_report_csv(tmp_path):
    rep = torus_gap_series(1, 2, 4.0, cutoff=32)
    path = tmp_path / "terms.csv"
    rep.terms_to_csv(path)
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape[0] == len(rep.index)
    doc = rep.to_json()
    assert doc["verdict"] == rep.verdict
    assert doc["p_star"] == "inf"  # every p covered; null means no threshold applies
