"""Energy, budgets, ledgers, norm quantities, comparison bound, weak probe."""
import numpy as np
import pytest

from chbsim.constitutive import (
    CoefficientSpec,
    EdgeValues,
    MobilityViscositySpec,
    ModelParams,
    ModelSpec,
    PotentialSpec,
    SourceSpec,
)
from chbsim.constitutive import mobilities
from chbsim.core import make_grid
from chbsim.diagnostics import (
    convection,
    energy,
    energy_budget,
    gronwall_bound,
    mass_balances,
    norm_estimates,
    old_level,
    time_level,
    weak_residuals,
)
from chbsim.elliptic import harmonic_face_coefficients
from chbsim.galerkin import build_basis
from chbsim.timestepper import SchemeOptions, SimSpec, initial_state, run, step


def build_model(nx=16, ny=16, eps=0.1, chi_phi=0.5, b=1.0,
                m=1e-3, source=None, lx=1.0):
    grid = make_grid(lx, 1.0, nx, ny)
    params = ModelParams(epsilon=eps, chi_sigma=1.0, chi_phi=chi_phi, nu=1.0,
                         b=b, sigma_inf=EdgeValues.constant(1.0))
    mobvis = MobilityViscositySpec(m=CoefficientSpec.constant(m),
                                   n=CoefficientSpec.constant(0.05),
                                   eta=CoefficientSpec.constant(1.0),
                                   lam=CoefficientSpec.constant(0.0))
    return ModelSpec(grid, params, PotentialSpec.quartic(), mobvis,
                     source or SourceSpec.none())


def max_abs(res):
    """Largest |entry| of each weak-residual table (0 for an empty one)."""
    return {name: float(np.max(np.abs(arr))) if arr.size else 0.0
            for name, arr in [("phi", res.phi), ("mu", res.mu), ("sigma", res.sigma),
                              ("momentum", res.momentum), ("div", res.div)]}


def uniform_state(model, phi=0.0, sigma=0.0, t=0.0):
    s = initial_state(np.full(model.grid.shape, float(phi)),
                      np.full(model.grid.shape, float(sigma)), model)
    s.t = t
    return s


# ---------------------------------------------------------------------------
# free energy
# ---------------------------------------------------------------------------

def test_energy_of_the_pure_phases():
    model = build_model()
    assert energy(uniform_state(model, phi=1.0), model) == pytest.approx(0.0)
    assert energy(uniform_state(model, phi=-1.0), model) == pytest.approx(0.0)


def test_energy_of_the_uniform_mixture():
    # psi(0)/eps integrated over the unit square
    model = build_model(eps=0.05)
    assert energy(uniform_state(model), model) == pytest.approx(5.0)


def test_energy_against_closed_form_quadratures():
    # phi = q cos(pi x), sigma = s0: every term integrates in closed form
    model = build_model(nx=64, ny=64, eps=1.0)
    g = model.grid
    x, _ = g.cell_centers()
    q, s0 = 0.1, 0.2
    state = initial_state(q * np.cos(np.pi * x), np.full(g.shape, s0), model)
    # int psi = 1/4 (1 - q^2 + 3 q^4 / 8)   [cos^2 -> 1/2, cos^4 -> 3/8]
    bulk = 0.25 * (1.0 - q * q + 0.375 * q ** 4)
    grad = 0.5 * (q * np.pi) ** 2 * 0.5          # eps/2 |grad phi|^2, eps = 1
    nut = 0.5 * s0 ** 2 + model.params.chi_phi * s0 * 1.0  # cos integrates out
    assert energy(state, model) == pytest.approx(bulk + grad + nut, abs=1e-4)


# ---------------------------------------------------------------------------
# energy budget
# ---------------------------------------------------------------------------

def test_budget_of_a_stationary_state_is_identically_zero():
    model = build_model()
    prev = uniform_state(model, phi=0.3, sigma=1.0)
    new = uniform_state(model, phi=0.3, sigma=1.0, t=1e-3)
    n_faces = harmonic_face_coefficients(mobilities(new.phi, model.mobvis)[1], model.grid)
    b = energy_budget(old_level(time_level(prev, model), model, True),
                      time_level(new, model), n_faces, convection(prev, new.v, model.grid),
                      1e-3, model)
    assert b.e_after == b.e_before
    for term in (b.diss_mu, b.diss_nsigma, b.diss_visc, b.src_phi_mu,
                 b.src_sigma_n, b.conv_work, b.budget_residual):
        assert term == pytest.approx(0.0, abs=1e-12)
    # the two wall terms are separately nonzero at the ambient equilibrium
    # (sigma' = sigma_inf) and cancel exactly in the residual
    assert b.bnd_sigma_sq == pytest.approx(b.bnd_income, abs=1e-12)
    assert b.bnd_sigma_sq > 0.0


def test_relaxation_step_dissipates_energy():
    model = build_model(chi_phi=0.0, b=0.0, eps=0.2, m=1e-2)
    g = model.grid
    x, y = g.cell_centers()
    state = initial_state(0.4 * np.cos(np.pi * x) * np.cos(np.pi * y),
                          np.zeros(g.shape), model)
    specs = SimSpec(model, SchemeOptions(dt=1e-4, flow=False))
    _, rep = step(time_level(state, model), specs)
    b = rep.budget
    assert b.diss_mu > 0.0
    assert b.diss_nsigma >= 0.0
    assert b.e_after < b.e_before
    # no sources, no walls, no flow: decay rate equals the dissipation up to
    # the one-step remainder
    assert abs(b.budget_residual) < 0.05 * max(1.0, abs(b.e_after))


def test_prepared_run_closes_the_budget_tightly(budget_runs):
    (coarse, fine), _, _ = budget_runs
    for res in (coarse, fine):
        assert res.reports
        for rep in res.reports:
            b = rep.budget
            assert abs(b.budget_residual) <= 1e-6 * max(1.0, abs(b.e_after))


# ---------------------------------------------------------------------------
# mass ledgers
# ---------------------------------------------------------------------------

def test_mass_balance_conventions():
    model = build_model()
    g = model.grid
    prev = uniform_state(model, phi=0.0, sigma=0.0)
    new = uniform_state(model, phi=0.2, sigma=0.0, t=1e-3)
    led = mass_balances(old_level(time_level(prev, model), model, False), new,
                        convection(prev, new.v, g), 1e-3, model)
    assert led.phi_change == pytest.approx(0.2 * g.area)
    assert led.phi_expected == pytest.approx(0.0)  # no sources, no flow
    assert led.phi_residual == pytest.approx(0.2 * g.area)
    # sigma side: income measured on the new trace
    assert led.sigma_expected == pytest.approx(1e-3 * g.perimeter * 1.0)
    assert led.sigma_change == pytest.approx(0.0)


def test_step_ledgers_close_after_the_conservation_shift():
    model = build_model(b=0.0, chi_phi=0.0)
    g = model.grid
    x, y = g.cell_centers()
    state = initial_state(0.3 * np.cos(np.pi * x), 0.5 + 0.2 * np.cos(np.pi * y),
                          model)
    specs = SimSpec(model, SchemeOptions(dt=1e-3, flow=False))
    level = time_level(state, model)
    new, _ = step(level, specs)
    led = mass_balances(old_level(level, model, False), new.state,
                        convection(state, new.state.v, g), 1e-3, model)
    assert abs(led.phi_residual) < 1e-13 * g.area
    assert abs(led.sigma_residual) < 1e-13 * g.area


# ---------------------------------------------------------------------------
# norm quantities
# ---------------------------------------------------------------------------

def test_norms_of_the_zero_trajectory():
    model = build_model()
    a = uniform_state(model)
    b = uniform_state(model, t=0.1)
    est = norm_estimates([a, b], model)
    for name, value in est.as_dict().items():
        assert value == pytest.approx(0.0, abs=1e-12), name


def test_norms_of_a_constant_unit_phase():
    model = build_model()
    a = uniform_state(model, phi=1.0)
    b = uniform_state(model, phi=1.0, t=0.5)
    est = norm_estimates([a, b], model)
    assert est.sup_h1_phi == pytest.approx(1.0)   # sqrt(area) on the unit square
    assert est.l2h2_phi == pytest.approx(0.0, abs=1e-12)
    assert est.dual_dt_phi == pytest.approx(0.0, abs=1e-10)


def test_norm_estimates_input_validation():
    model = build_model()
    a = uniform_state(model)
    with pytest.raises(ValueError):
        norm_estimates([a], model)
    with pytest.raises(ValueError):
        norm_estimates([a, a], model)  # equal times


def test_norms_match_an_independent_recomputation():
    model = build_model(source=SourceSpec.lima(P=0.3, A=0.1, C=0.2))
    g = model.grid
    x, y = g.cell_centers()
    state = initial_state(np.tanh((0.3 - np.hypot(x - 0.5, y - 0.5)) / 0.14),
                          np.ones(g.shape), model)
    specs = SimSpec(model, SchemeOptions(dt=1e-4, flow=False, snapshot_every=1))
    states = run(state, 4, specs).states
    est = norm_estimates(states, model)

    vol = g.cell_area

    def h1_sq(f):
        gx = (f[1:, :] - f[:-1, :]) / g.hx
        gy = (f[:, 1:] - f[:, :-1]) / g.hy
        return (np.sum(f * f) + np.sum(gx * gx) + np.sum(gy * gy)) * vol

    sup_h1 = max(np.sqrt(h1_sq(s.phi)) for s in states)
    assert est.sup_h1_phi == pytest.approx(sup_h1, rel=1e-12)
    sup_l2 = max(np.sqrt(np.sum(s.sigma ** 2) * vol) for s in states)
    assert est.sup_l2_sigma == pytest.approx(sup_l2, rel=1e-12)
    times = np.array([s.t for s in states])
    vals = np.array([h1_sq(s.sigma) for s in states])
    mid = 0.5 * (vals[1:] + vals[:-1])
    assert est.l2h1_sigma == pytest.approx(
        float(np.sqrt(np.sum(mid * np.diff(times)))), rel=1e-12)


# ---------------------------------------------------------------------------
# integral comparison bound
# ---------------------------------------------------------------------------

def test_comparison_bound_without_growth_returns_alpha():
    t = np.linspace(0.0, 1.0, 11)
    alpha = 2.0 + np.sin(t)
    res = gronwall_bound(t, alpha, 0.0, u=alpha * 0.9)
    np.testing.assert_allclose(res.bound, alpha, atol=1e-14)
    assert res.hypothesis_ok and res.verified


def test_comparison_bound_constant_coefficients_closed_form():
    # u identical to alpha satisfies the integral hypothesis with equality
    # at t=0, and the bound is exactly alpha e^{beta t} on any spacing
    t = np.array([0.0, 0.3, 0.45, 1.0, 1.7])
    alpha, beta = 1.3, 0.8
    res = gronwall_bound(t, alpha, beta, u=np.full(t.size, alpha))
    np.testing.assert_allclose(res.bound, alpha * np.exp(beta * t), rtol=1e-13)
    assert res.hypothesis_ok and res.verified
    assert np.all(res.margin() >= 0.0)


def test_comparison_bound_flags_violations():
    t = np.array([0.0, 1.0])
    res = gronwall_bound(t, 1.0, 0.0, u=np.array([1.0, 2.0]))
    assert not res.hypothesis_ok and not res.verified
    assert res.margin()[1] == pytest.approx(-1.0)


def test_comparison_bound_with_accumulating_term():
    # u + int v grows linearly; alpha(s) = 1 + s absorbs it with beta = 0
    t = np.linspace(0.0, 2.0, 9)
    res = gronwall_bound(t, 1.0 + t, 0.0, u=np.ones(t.size), v=1.0)
    np.testing.assert_allclose(res.lhs, 1.0 + t, atol=1e-14)
    assert res.hypothesis_ok and res.verified


def test_comparison_bound_input_validation():
    with pytest.raises(ValueError):
        gronwall_bound(np.array([0.0, 0.0]), 1.0, 0.0, u=np.zeros(2))
    with pytest.raises(ValueError):
        gronwall_bound(np.array([0.0, 1.0]), 1.0, 0.0, u=np.zeros(3))


# ---------------------------------------------------------------------------
# weak-form residual probe
# ---------------------------------------------------------------------------

def test_weak_residuals_vanish_on_the_uniform_equilibrium():
    model = build_model()
    a = uniform_state(model, phi=0.3, sigma=1.0)
    b = uniform_state(model, phi=0.3, sigma=1.0, t=1e-3)
    res = weak_residuals([a, b], model, n_modes=4)
    for name, value in max_abs(res).items():
        assert value == pytest.approx(0.0, abs=1e-11), name
    assert res.phi.shape == (1, 5)
    assert res.momentum.shape == (2, 10)


def test_weak_residuals_test_against_the_orthonormal_galerkin_basis():
    # with phi = sigma = 0 and v = 0 the mu residual of mu = w_m is the
    # column <w_m, w_n>: the m-th unit vector, since midpoint quadrature is
    # exact on the basis; the 2 x 1 domain orders its modes by eigenvalue
    model = build_model(nx=32, ny=16, lx=2.0)
    basis = build_basis(6, model.grid)
    for m in range(6):
        state = uniform_state(model)
        state.mu = basis.values[m].copy()
        res = weak_residuals([state], model)
        np.testing.assert_allclose(res.mu[0], np.eye(6)[m], rtol=0.0, atol=1e-13)


def test_weak_constant_test_tracks_the_mass_rate():
    # with no sources and no flow the constant-test phase residual is the
    # exact mass drift rate, which the conservation shift keeps at zero
    model = build_model(b=0.0, chi_phi=0.0)
    g = model.grid
    x, y = g.cell_centers()
    state = initial_state(0.4 * np.cos(np.pi * x) * np.cos(np.pi * y),
                          np.full(g.shape, 0.7), model)
    specs = SimSpec(model, SchemeOptions(dt=1e-3, flow=False, snapshot_every=1))
    states = run(state, 3, specs).states
    res = weak_residuals(states, model)
    np.testing.assert_allclose(res.phi[:, 0], 0.0, atol=1e-10)
    np.testing.assert_allclose(res.sigma[:, 0], 0.0, atol=1e-10)


def test_weak_residuals_shrink_under_refinement():
    # the probe discretizes independently of the scheme, so its defect must
    # shrink when both mesh and step refine on a smooth solution
    def probe(nx, dt, steps):
        model = build_model(nx=nx, ny=nx, eps=0.2, m=1e-2,
                            source=SourceSpec.lima(P=0.3, A=0.1, C=0.2,
                                                   c_gamma_v=0.1))
        g = model.grid
        x, y = g.cell_centers()
        state = initial_state(0.4 * np.cos(np.pi * x) * np.cos(np.pi * y),
                              np.ones(g.shape), model)
        specs = SimSpec(model, SchemeOptions(dt=dt, snapshot_every=1))
        states = run(state, steps, specs).states
        res = weak_residuals(states, model)
        out = max_abs(res)
        # the t = 0 sample is the rest state before any flow solve, so its
        # momentum/divergence rows measure the initial force, not the scheme
        out["momentum"] = float(np.max(np.abs(res.momentum[1:])))
        out["div"] = float(np.max(np.abs(res.div[1:])))
        return out

    coarse = probe(16, 2e-4, 2)
    fine = probe(32, 1e-4, 4)
    for name in ("phi", "sigma", "mu", "momentum"):
        assert fine[name] < 0.7 * coarse[name], (
            f"{name}: {coarse[name]:.3e} -> {fine[name]:.3e}")
    # divergence defect sits at the flow-solver tolerance, not the mesh scale
    assert fine["div"] < 1e-6 and coarse["div"] < 1e-6
