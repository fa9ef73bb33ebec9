import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from febe import material as mat

from conftest import monotonicity_gap, tangent, tangent_apply

LAWS = [mat.MaterialLaw(p=p, delta=d)
        for p in (1.2, 1.5, 2.0, 3.0, 4.0) for d in (0.0, 0.5, 1.0)]


def _label(law):
    """Test id name of a law: the p-Laplace end (delta = 0) or a Carreau-type law."""
    return "plaplace" if law.delta == 0 else "carreau"


def test_plaplace_zero_extension():
    law = mat.MaterialLaw(p=1.5)
    assert np.all(mat.stress(law, np.zeros(2)) == 0.0)


def test_plaplace_identity_at_p2():
    law = mat.MaterialLaw(p=2.0)
    x = np.array([0.3, -1.2])
    assert mat.stress(law, x) == pytest.approx(x)


def test_plaplace_p3_norm2():
    law = mat.MaterialLaw(p=3.0)
    x = np.array([2.0, 0.0])
    assert mat.stress(law, x) == pytest.approx(2.0 * x)


def test_carreau_closed_form():
    law = mat.MaterialLaw(p=1.5, delta=1.0)
    x = np.array([1.0, 0.0])
    expect = np.array([2.0 ** -0.25, 0.0])
    assert mat.stress(law, x) == pytest.approx(expect)


def test_carreau_delta0_equals_plaplace():
    # the family is continuous at its p-Laplace end: delta -> 0 gives delta = 0
    rng = np.random.default_rng(0)
    x = rng.normal(size=(100, 2)) * np.exp(rng.uniform(-6, 6, size=(100, 1)))
    for p in (1.2, 1.5, 1.7, 2.0, 3.0, 3.5, 4.0):
        a, b = mat.MaterialLaw(p=p), mat.MaterialLaw(p=p, delta=1e-12)
        for fa, fb in ((mat.stress(a, x), mat.stress(b, x)),
                       *zip(mat.tangent_coeffs(a, x), mat.tangent_coeffs(b, x)),
                       (mat.potential(a, x), mat.potential(b, x))):
            assert fb == pytest.approx(fa, rel=1e-9, abs=0)


@pytest.mark.parametrize("delta", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("p", [1.2, 1.5, 3.0, 4.0])
def test_stress_grows_like_power_p_minus_1(p, delta):
    # |A'(x)| ~ |x|^(p-1) for large |x|, the growth of the two-sided bounds
    law = mat.MaterialLaw(p=p, delta=delta)
    s = np.array([1e6, 0.0])
    rate = np.log2(np.linalg.norm(mat.stress(law, 2 * s)) / np.linalg.norm(mat.stress(law, s)))
    assert abs(rate - (p - 1.0)) <= 1e-3


def test_tangent_identity_for_linear_law():
    law = mat.MaterialLaw(p=2.0)
    x = np.array([0.4, 0.9])
    assert tangent(law, x) == pytest.approx(np.eye(2))


def test_tangent_p4_closed_form():
    law = mat.MaterialLaw(p=4.0)
    x = np.array([1.0, 0.0])
    assert tangent(law, x) == pytest.approx(np.diag([3.0, 1.0]))


@pytest.mark.parametrize("law", LAWS, ids=lambda l: f"{_label(l)}-p{l.p}-d{l.delta}")
def test_tangent_matches_finite_differences(law):
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.normal(size=2)
        x *= max(np.linalg.norm(x), 1e-2) / np.linalg.norm(x)
        h = rng.normal(size=2)
        t = 1e-6 * max(1.0, np.linalg.norm(x))
        fd = (mat.stress(law, x + t * h) - mat.stress(law, x - t * h)) / (2 * t)
        an = tangent_apply(law, x, h)
        assert np.linalg.norm(an - fd) <= 1e-6 * max(np.linalg.norm(fd), 1e-10) + 1e-9


def test_tangent_floor_warning():
    law = mat.MaterialLaw(p=1.5)
    with pytest.warns(mat.SingularTangentWarning):
        mat.tangent_coeffs(law, np.array([1e-14, 0.0]))


def test_tangent_matrix_mode_spd():
    rng = np.random.default_rng(5)
    law = mat.MaterialLaw(p=3.0, mode=mat.MODE_MATRIX)
    g = rng.normal(size=(2, 2))
    x = 0.5 * (g + g.T)
    T = tangent(law, x)
    assert T == pytest.approx(T.T)
    assert np.linalg.eigvalsh(T).min() >= -1e-12


def test_monotonicity_gap_coincident():
    law = mat.MaterialLaw(p=1.5)
    x = np.array([0.3, 0.4])
    lhs, lo, up = monotonicity_gap(law, x, x)
    assert (lhs, lo, up) == (0.0, 0.0, 0.0)


def test_monotonicity_gap_p2_exact():
    law = mat.MaterialLaw(p=2.0)
    rng = np.random.default_rng(1)
    x, y = rng.normal(size=2), rng.normal(size=2)
    lhs, lo, up = monotonicity_gap(law, x, y)
    assert lhs == pytest.approx(np.sum((x - y) ** 2))
    assert lhs == pytest.approx(lo)
    assert lhs == pytest.approx(up)


@pytest.mark.parametrize("law", LAWS, ids=lambda l: f"{_label(l)}-p{l.p}-d{l.delta}")
def test_two_sided_bounds_fitted_constants(law):
    rng = np.random.default_rng(11)
    x = rng.uniform(-1, 1, size=(10000, 2))
    y = rng.uniform(-1, 1, size=(10000, 2))
    lhs, lo, up = monotonicity_gap(law, x, y)
    keep = lo > 1e-14
    clo = np.min(lhs[keep] / lo[keep])
    keep = up > 1e-14
    cup = np.max(lhs[keep] / up[keep])
    assert np.all(lhs >= -1e-14)
    assert 1e-3 <= clo
    assert cup <= 1e3


@settings(max_examples=50, deadline=None)
@given(st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5),
       st.sampled_from([1.2, 1.5, 2.0, 3.0, 4.0]))
def test_pointwise_monotone(x1, x2, y1, y2, p):
    law = mat.MaterialLaw(p=p, delta=0.5)
    lhs, _, _ = monotonicity_gap(law, np.array([x1, x2]), np.array([y1, y2]))
    assert lhs >= -1e-12


def test_potential_gradient_consistency():
    rng = np.random.default_rng(2)
    for law in (mat.MaterialLaw(p=3.0), mat.MaterialLaw(p=1.5, delta=0.7)):
        x = rng.normal(size=2)
        h = rng.normal(size=2)
        t = 1e-6
        fd = (mat.potential(law, x + t * h) - mat.potential(law, x - t * h)) / (2 * t)
        assert fd == pytest.approx(float(mat.stress(law, x) @ h), rel=1e-5)


def test_invalid_parameters():
    with pytest.raises(ValueError):
        mat.MaterialLaw(p=0.5)
    with pytest.raises(ValueError):
        mat.MaterialLaw(p=2.0, delta=1.5)
    with pytest.raises(ValueError):
        mat.ExteriorCoefficients(mu=-1.0)
    with pytest.raises(ValueError):
        mat.ExteriorCoefficients(mu=1.0, lam=-2.0)


@pytest.mark.parametrize("law", [mat.MaterialLaw(p=1.5, mode=mat.MODE_MATRIX),
                                 mat.MaterialLaw(p=3.0, mode=mat.MODE_MATRIX),
                                 mat.MaterialLaw(p=1.7, delta=0.5, mode=mat.MODE_MATRIX)],
                         ids=lambda l: f"{_label(l)}-p{l.p}")
def test_matrix_mode_on_flat_axis_matches_frobenius_formulas(law):
    # the (..., 2, 2) formulas with the '...ij,...ij' Frobenius pairing
    rng = np.random.default_rng(13)
    x, y, h = (rng.normal(size=(40, 3, 2, 2)) for _ in range(3))

    def norm(a):
        return np.sqrt(np.einsum("...ij,...ij->...", a, a))

    def stress(a):
        return mat._scalar_coeff(law, norm(a))[..., None, None] * a

    assert np.array_equal(mat.stress(law, x), stress(x))
    c1, c2 = mat.tangent_coeffs(law, x)
    dot = np.einsum("...ij,...ij->...", x, h)
    assert np.array_equal(tangent_apply(law, x, h),
                          c1[..., None, None] * h + (c2 * dot)[..., None, None] * x)
    lhs, lower, upper = monotonicity_gap(law, x, y)
    assert np.array_equal(lhs, np.einsum("...ij,...ij->...", stress(x) - stress(y), x - y))
    sd, ssum = norm(x - y), norm(x) + norm(y)
    mixed, powr = ssum ** (law.p - 2.0) * sd ** 2, sd ** law.p
    assert np.array_equal(lower, mixed if law.p < 2 else powr)
    assert np.array_equal(upper, powr if law.p < 2 else mixed)
    assert law.ncomp == 2 and mat.MaterialLaw(p=2.0).ncomp == 1
