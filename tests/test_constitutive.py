"""Potential, coefficient laws, sources and the assumption validator."""
import numpy as np
import pytest

from chbsim.constitutive import (
    CAP_LIMIT,
    CoefficientSpec,
    EdgeValues,
    MobilityViscositySpec,
    ModelParams,
    PotentialSpec,
    SourceSpec,
    cap_error,
    gamma_v_clamp,
    linear_growth_constant,
    mobilities,
    nutrient_energy,
    potential_eval,
    potential_second,
    sources,
    validate_params,
)


def params(eps=0.1, chi_s=1.0, chi_p=0.0, nu=1.0, b=0.0):
    return ModelParams(epsilon=eps, chi_sigma=chi_s, chi_phi=chi_p, nu=nu,
                       b=b, sigma_inf=EdgeValues.constant(1.0))


# ---------------------------------------------------------------------------
# potential
# ---------------------------------------------------------------------------

def test_quartic_well_values():
    spec = PotentialSpec.quartic()
    psi, dpsi = potential_eval(np.array([-1.0, 1.0]), spec)
    np.testing.assert_allclose(psi, 0.0, atol=1e-15)
    np.testing.assert_allclose(dpsi, 0.0, atol=1e-15)
    psi0, dpsi0 = potential_eval(np.array(0.0), spec)
    assert psi0 == pytest.approx(0.25) and dpsi0 == pytest.approx(0.0)


def test_quartic_growth_constants():
    # psi(t) - (t^2/8 - 1/2) = 1/4 (u-1)^2 - u/8 + 1/2 with u = t^2 >= 0;
    # the minimum over u sits at u = 5/4 with value 23/64 = 0.359375 > 0
    spec = PotentialSpec.quartic()
    assert spec.r1 == 0.125 and spec.r2 == 0.5
    t = np.linspace(-10.0, 10.0, 20001)
    psi, _ = potential_eval(t, spec)
    gap = psi - (spec.r1 * t * t - spec.r2)
    assert float(np.min(gap)) == pytest.approx(23.0 / 64.0, abs=1e-6)
    assert np.all(gap > 0.0)


@pytest.mark.parametrize("delta_cap", [-2.0, -1.0, -0.5, 1.158e77, float("nan")])
def test_quadratic_growth_refuses_a_cap_outside_one_to_the_float_limit(delta_cap):
    # below 1 the wells leave the quartic region; above CAP_LIMIT psi
    # overflowed inside potential_eval (RuntimeWarning at 1.158e77)
    with pytest.raises(ValueError, match="outside"):
        PotentialSpec.quadratic_growth(delta_cap)
    with pytest.raises(ValueError, match="outside"):
        PotentialSpec(kind="quadratic_growth", delta_cap=delta_cap)


def test_quadratic_growth_accepts_the_cap_range_ends():
    for delta_cap in (0.0, CAP_LIMIT - 1.0):
        spec = PotentialSpec.quadratic_growth(delta_cap)
        with np.errstate(all="raise"):
            psi, dpsi = potential_eval(np.array([-2.0, -0.5, 0.0, 0.5, 2.0]), spec)
        assert np.all(np.isfinite(psi)) and np.all(np.isfinite(dpsi))
    assert cap_error(0.0) is None and cap_error(-1e-300) is not None


def test_quadratic_growth_truncation_is_c2():
    spec = PotentialSpec.quadratic_growth(delta_cap=0.2)
    a = spec.cap
    t = np.array([a - 1e-7, a + 1e-7])
    psi, dpsi = potential_eval(t, spec)
    assert abs(psi[1] - psi[0]) < 1e-6
    assert abs(dpsi[1] - dpsi[0]) < 1e-6
    # second derivative capped at its value on the matching circle
    dd = potential_second(np.array([10.0, -10.0]), spec)
    np.testing.assert_allclose(dd, 3.0 * a * a - 1.0)
    # quartic grows ~ t^4, the truncation ~ t^2
    big, _ = potential_eval(np.array(100.0), spec)
    quart, _ = potential_eval(np.array(100.0), PotentialSpec.quartic())
    assert big < quart / 100.0


# ---------------------------------------------------------------------------
# coefficient laws
# ---------------------------------------------------------------------------

def test_coefficient_constant_and_clamped_interpolation():
    const = CoefficientSpec.constant(1.0)
    assert const(np.array([-2.0, 0.3, 5.0])).tolist() == [1.0, 1.0, 1.0]
    interp = CoefficientSpec(0.5, 2.0)
    assert interp(np.array(-1.0)) == pytest.approx(0.5)
    assert interp(np.array(1.0)) == pytest.approx(2.0)
    assert interp(np.array(3.0)) == pytest.approx(2.0)   # clamp saturation
    assert interp(np.array(0.0)) == pytest.approx(1.25)  # midpoint


def test_mobilities_viscosities_bundle():
    mv = MobilityViscositySpec(m=CoefficientSpec(0.1, 0.2),
                               n=CoefficientSpec.constant(1.0),
                               eta=CoefficientSpec.constant(2.0),
                               lam=CoefficientSpec.constant(0.0))
    m, n = mobilities(np.array([1.0, -1.0]), mv)
    np.testing.assert_allclose(m, [0.2, 0.1])
    np.testing.assert_allclose(n, [1.0, 1.0])


# ---------------------------------------------------------------------------
# nutrient energy
# ---------------------------------------------------------------------------

def test_nutrient_energy_partials():
    p = params(chi_s=1.0, chi_p=1.0)
    sig = np.array(1.0)
    n, n_sig, n_phi = nutrient_energy(np.array(1.0), sig, p)
    assert n == pytest.approx(0.5) and n_sig == pytest.approx(1.0) \
        and n_phi == pytest.approx(-1.0)
    n, n_sig, n_phi = nutrient_energy(np.array(0.3), np.array(0.0), p)
    assert n == 0.0 and n_sig == pytest.approx(0.7) and n_phi == 0.0
    n, n_sig, n_phi = nutrient_energy(np.array(0.0), sig, p)
    assert n == pytest.approx(1.5) and n_sig == pytest.approx(2.0) \
        and n_phi == pytest.approx(-1.0)


# ---------------------------------------------------------------------------
# sources
# ---------------------------------------------------------------------------

def test_lima_sources_vanish_in_host_tissue():
    spec = SourceSpec.lima(P=1.0, A=0.0, C=1.0)
    terms = sources(np.array(-1.0), np.array(0.7), np.array(0.0), spec, params())
    assert terms.gamma_phi == 0.0 and terms.gamma_sigma == 0.0 \
        and terms.gamma_v == 0.0


def test_lima_sources_in_tumour():
    spec = SourceSpec.lima(P=1.0, A=0.0, C=1.0)
    terms = sources(np.array(1.0), np.array(0.5), np.array(0.0), spec, params())
    assert terms.gamma_phi == pytest.approx(0.5)
    assert terms.gamma_sigma == pytest.approx(1.0)
    assert np.all(terms.theta_phi == 0.0)  # Lima has no mu coupling


def test_hawkins_sources_vanish_at_minus_one():
    spec = SourceSpec.hawkins(p0=1.0)
    terms = sources(np.array(-1.0), np.array(2.0), np.array(3.0), spec, params())
    assert terms.gamma_phi == 0.0 and terms.gamma_sigma == 0.0


def test_hawkins_positive_theta_floor():
    spec = SourceSpec.hawkins_positive(p0=2.0, rho_min=1e-3)
    terms = sources(np.array(-1.0), np.array(0.0), np.array(0.0), spec, params())
    assert float(terms.theta_phi) == pytest.approx(2e-3)
    assert spec.theta_strictly_positive()


def test_gamma_v_clamp_bounds_the_volume_source():
    p = params()
    spec = SourceSpec.lima(P=1.0, A=0.0, C=1.0, c_gamma_v=0.5)
    g0 = gamma_v_clamp(spec, p)
    assert g0 == pytest.approx(0.5 * 1.0 * 5.0)  # c * R0 * (1 + caps)
    rng = np.random.default_rng(7)
    phi = rng.uniform(-3.0, 3.0, 64)
    sig = rng.uniform(-3.0, 3.0, 64)
    terms = sources(phi, sig, np.zeros(64), spec, p)
    assert float(np.max(np.abs(terms.gamma_v))) <= g0 + 1e-15
    explicit = SourceSpec.lima(P=1.0, A=0.0, C=1.0, c_gamma_v=0.5, gamma0=0.1)
    terms = sources(phi, sig, np.zeros(64), explicit, p)
    assert float(np.max(np.abs(terms.gamma_v))) <= 0.1 + 1e-15


def test_source_growth_constant_sampled_bound():
    # |Gamma| <= R0 (1 + |phi| + |sigma| + |mu|-part) on the sampling box
    p = params(chi_p=1.0)
    rng = np.random.default_rng(20240901)
    phi = rng.uniform(-2.0, 2.0, 256)
    sig = rng.uniform(-2.0, 2.0, 256)
    mu = rng.uniform(-2.0, 2.0, 256)
    for spec in (SourceSpec.lima(P=0.7, A=0.3, C=0.4),
                 SourceSpec.hawkins(p0=0.5),
                 SourceSpec.hawkins_positive(p0=0.5)):
        r0 = linear_growth_constant(spec, p)
        terms = sources(phi, sig, mu, spec, p)
        lam_bound = r0 * (1.0 + np.abs(phi) + np.abs(sig))
        assert np.all(np.abs(terms.lambda_phi) <= lam_bound + 1e-12)
        assert np.all(np.abs(terms.theta_phi) <= r0 + 1e-12)


# ---------------------------------------------------------------------------
# validator
# ---------------------------------------------------------------------------

def mv_ok():
    return MobilityViscositySpec.constants(m=1.0, n=1.0, eta=1.0, lam=0.0)


def test_epsilon_condition_three_cases():
    quartic = PotentialSpec.quartic()
    src = SourceSpec.none()
    # chi_phi = 0: right side is zero, any epsilon passes
    rep = validate_params(params(eps=0.1, chi_p=0.0), quartic, mv_ok(), src)
    assert rep["epsilon_condition"].passed
    # chi_phi = chi_sigma = 1, eps = 0.05: 20 > 16
    rep = validate_params(params(eps=0.05, chi_p=1.0), quartic, mv_ok(), src)
    assert rep["epsilon_condition"].passed
    # same with eps = 0.1: 10 < 16
    rep = validate_params(params(eps=0.1, chi_p=1.0), quartic, mv_ok(), src)
    assert not rep["epsilon_condition"].passed
    assert rep.failures()


def test_validator_rejects_bad_coefficient_bounds():
    bad_m = MobilityViscositySpec(m=CoefficientSpec(-0.1, 1.0),
                                  n=CoefficientSpec.constant(1.0),
                                  eta=CoefficientSpec.constant(1.0),
                                  lam=CoefficientSpec.constant(0.0))
    rep = validate_params(params(), PotentialSpec.quartic(), bad_m,
                          SourceSpec.none())
    assert not rep["mobility_bounds"].passed
    bad_eta = MobilityViscositySpec(m=CoefficientSpec.constant(1.0),
                                    n=CoefficientSpec.constant(1.0),
                                    eta=CoefficientSpec.constant(0.0),
                                    lam=CoefficientSpec.constant(0.0))
    rep = validate_params(params(), PotentialSpec.quartic(), bad_eta,
                          SourceSpec.none())
    assert not rep["viscosity_bounds"].passed


def test_case_consistency_quartic_vs_hawkins():
    quartic = PotentialSpec.quartic()
    # plain hawkins: theta_phi vanishes at phi = -1 without being zero -> reject
    rep = validate_params(params(), quartic, mv_ok(), SourceSpec.hawkins(p0=1.0))
    assert not rep["case_consistency"].passed
    # positive variant accepted
    rep = validate_params(params(), quartic, mv_ok(),
                          SourceSpec.hawkins_positive(p0=1.0))
    assert rep["case_consistency"].passed
    # no mu coupling at all accepted
    rep = validate_params(params(), quartic, mv_ok(),
                          SourceSpec.lima(P=1.0, A=0.1, C=0.1))
    assert rep["case_consistency"].passed
    # bounded-growth potential takes the case-1 route with hawkins
    rep = validate_params(params(), PotentialSpec.quadratic_growth(), mv_ok(),
                          SourceSpec.hawkins(p0=1.0))
    assert rep["case_consistency"].passed


def test_validator_positivity_and_growth():
    rep = validate_params(params(), PotentialSpec.quartic(), mv_ok(),
                          SourceSpec.none())
    assert rep["positivity"].passed and rep["potential_growth"].passed
    assert not rep.failures()
    bad = ModelParams(epsilon=-1.0, chi_sigma=1.0, chi_phi=0.0, nu=1.0, b=0.0)
    rep = validate_params(bad, PotentialSpec.quartic(), mv_ok(), SourceSpec.none())
    assert not rep["positivity"].passed
