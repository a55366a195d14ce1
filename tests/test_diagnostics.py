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
from chbsim.brinkman import energy_parts
from chbsim.constitutive import mobilities, nutrient_energy, potential_eval
from chbsim.core import FaceField, State, extrapolate_to_walls, make_grid
from chbsim.diagnostics import (
    _grad_sq,
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
from chbsim.elliptic import face_gradient, harmonic_face_coefficients
from chbsim.galerkin import build_basis
from chbsim.timestepper import RunContext, SchemeOptions, SimSpec, initial_state, run, step


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
    _, rep = step(time_level(state, model), RunContext(specs))
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
# the fused quadratures against the face-gradient formulas
# ---------------------------------------------------------------------------
# Each oracle term is (value, scale): the quadrature as the zero-walled
# face_gradient formulas form it, and the sum of the absolute values of its
# summands, the scale its rounding error is measured against.

def oracle_grad_sq(f, grid, faces=None):
    g = face_gradient(f, grid)
    cu, cw = (1.0, 1.0) if faces is None else (faces.u, faces.w)
    value = (float((cu * g.u ** 2).sum()) + float((cw * g.w ** 2).sum())) * grid.cell_area
    return value, value


def oracle_energy(state, model):
    g, eps = model.grid, model.params.epsilon
    psi, _ = potential_eval(state.phi, model.potential)
    nut, _, _ = nutrient_energy(state.phi, state.sigma, model.params)
    grad, _ = oracle_grad_sq(state.phi, g)
    bulk = float((psi / eps + nut).sum()) * g.cell_area
    scale = float((np.abs(psi) / eps + np.abs(nut)).sum()) * g.cell_area
    return bulk + 0.5 * eps * grad, scale + 0.5 * eps * grad


def oracle_energy_parts(problem, v, p):
    g = problem.grid
    vol = g.cell_area
    dxx = (v.u[1:, :] - v.u[:-1, :]) / g.hx
    dyy = (v.w[:, 1:] - v.w[:, :-1]) / g.hy
    dxy = 0.5 * ((v.u[1:-1, 1:] - v.u[1:-1, :-1]) / g.hy
                 + (v.w[1:, 1:-1] - v.w[:-1, 1:-1]) / g.hx)
    visc_shear = (float(np.sum(2.0 * problem.eta * (dxx ** 2 + dyy ** 2))) * vol
                  + float(np.sum(4.0 * problem.eta_nodes * dxy ** 2)) * vol)
    visc_bulk = float(np.sum(problem.lam * (dxx + dyy) ** 2)) * vol
    friction = problem.nu * (float(np.sum(v.u ** 2 * problem.vu))
                             + float(np.sum(v.w ** 2 * problem.vw)))
    fu, fw = problem.force.u * v.u * problem.vu, problem.force.w * v.w * problem.vw
    pg = p * problem.gamma_v
    return {"visc_shear": (visc_shear, visc_shear), "visc_bulk": (visc_bulk, visc_bulk),
            "friction": (friction, friction),
            "force_work": (float(fu.sum() + fw.sum()),
                           float(np.abs(fu).sum() + np.abs(fw).sum())),
            "pressure_work": (float(pg.sum()) * vol, float(np.abs(pg).sum()) * vol)}


def wall_sums(pieces, grid):
    """hy * (left + right) + hx * (bottom + top) of per-wall arrays, and
    the same of their absolute values."""
    left, right, bottom, top = pieces
    value = (float(left.sum() + right.sum()) * grid.hy
             + float(bottom.sum() + top.sum()) * grid.hx)
    scale = (float(np.abs(left).sum() + np.abs(right).sum()) * grid.hy
             + float(np.abs(bottom).sum() + np.abs(top).sum()) * grid.hx)
    return value, scale


def walls_of(f):
    return f[0, :], f[-1, :], f[:, 0], f[:, -1]


def oracle_budget(old, new_level, n_faces, conv, dt, model):
    g, p = model.grid, model.params
    new, nsig, vol = new_level.state, new_level.n_sigma, g.cell_area
    terms = {"diss_mu": oracle_grad_sq(new.mu, g, old.m_faces),
             "diss_nsigma": oracle_grad_sq(p.chi_sigma * new.sigma - p.chi_phi * new.phi,
                                           g, n_faces)}
    tr = extrapolate_to_walls(new.sigma, g)
    traces = (tr.left, tr.right, tr.bottom, tr.top)
    sinf = [np.broadcast_to(getattr(p.sigma_inf, side), t.shape)
            for side, t in zip(("left", "right", "bottom", "top"), traces)]
    gain, gain_scale = wall_sums([a * b for a, b in zip(sinf, walls_of(nsig))], g)
    loss, loss_scale = wall_sums([t * p.chi_phi * b for t, b in
                                  zip(traces, walls_of(1.0 - new.phi))], g)
    terms["bnd_income"] = p.b * (gain - loss), p.b * (gain_scale + loss_scale)
    sq, sq_scale = wall_sums([t * b for t, b in zip(traces, walls_of(new.sigma))], g)
    terms["bnd_sigma_sq"] = p.b * p.chi_sigma * sq, p.b * p.chi_sigma * sq_scale
    pairs = {"src_phi_mu": (old.src.lambda_phi - old.src.theta_phi * new.mu) * new.mu,
             "src_sigma_n": -(old.src.lambda_sigma - old.src.theta_sigma * new.mu) * nsig}
    for name, a in pairs.items():
        terms[name] = float(a.sum()) * vol, float(np.abs(a).sum()) * vol
    terms["diss_visc"] = terms["conv_work"] = (0.0, 0.0)
    if old.flow is not None:
        parts = oracle_energy_parts(old.flow, new.v, new.p)
        visc = [parts[k] for k in ("visc_shear", "visc_bulk", "friction")]
        terms["diss_visc"] = sum(v for v, _ in visc), sum(s for _, s in visc)
        transported = [conv.phi.div * new.mu, conv.sigma.div * nsig]
        terms["conv_work"] = (
            parts["force_work"][0] + parts["pressure_work"][0]
            - sum(float(a.sum()) * vol for a in transported),
            parts["force_work"][1] + parts["pressure_work"][1]
            + sum(float(np.abs(a).sum()) * vol for a in transported))
    e0, e1 = old.energy, new_level.energy
    signs = {"diss_mu": 1, "diss_nsigma": 1, "diss_visc": 1, "bnd_sigma_sq": 1,
             "src_phi_mu": -1, "src_sigma_n": -1, "bnd_income": -1, "conv_work": -1}
    terms["budget_residual"] = (
        (e1 - e0) / dt + sum(sign * terms[k][0] for k, sign in signs.items()),
        (oracle_energy(old.state, model)[1] + oracle_energy(new, model)[1]) / dt
        + sum(terms[k][1] for k in signs))
    return terms


def oracle_ledgers(old, new, conv, dt, model):
    g, p = model.grid, model.params
    prev, src, vol = old.state, old.src, g.cell_area
    gamma_phi = src.lambda_phi - src.theta_phi * new.mu
    gamma_sig = src.lambda_sigma - src.theta_sigma * new.mu
    tr = extrapolate_to_walls(new.sigma, g)
    income, income_scale = wall_sums(
        [np.broadcast_to(getattr(p.sigma_inf, side), t.shape) - t for side, t in
         zip(("left", "right", "bottom", "top"), (tr.left, tr.right, tr.bottom, tr.top))], g)
    theta_mu = [np.abs(src.theta_phi * new.mu), np.abs(src.theta_sigma * new.mu)]
    return {
        "phi_expected": (dt * (float(gamma_phi.sum()) * vol - conv.phi.outflow),
                         dt * (float((np.abs(src.lambda_phi) + theta_mu[0]).sum()) * vol
                               + abs(conv.phi.outflow))),
        "sigma_expected": (dt * (-float(gamma_sig.sum()) * vol + p.b * income
                                 - conv.sigma.outflow),
                           dt * (float((np.abs(src.lambda_sigma) + theta_mu[1]).sum()) * vol
                                 + p.b * income_scale + abs(conv.sigma.outflow))),
        "phi_change": (float(new.phi.sum()) * vol - float(prev.phi.sum()) * vol,
                       float(np.abs(new.phi).sum() + np.abs(prev.phi).sum()) * vol),
        "sigma_change": (float(new.sigma.sum()) * vol - float(prev.sigma.sum()) * vol,
                         float(np.abs(new.sigma).sum() + np.abs(prev.sigma).sum()) * vol)}


ULPS = 8   # allowed rounding difference, in units of eps times a term's scale


def assert_within_ulps(got, want, scale, name):
    assert abs(got - want) <= ULPS * np.finfo(float).eps * scale, (name, got, want, scale)


def random_step(n, flow, b, variable, seed):
    """A model on an n by 3n/4 grid (hx != hy) with Hawkins sources (theta
    != 0), random old and new fields and, with the flow on, a random new
    velocity and pressure: the inputs of one step's self-check."""
    rng = np.random.default_rng(seed)
    ny = 3 * n // 4
    grid = make_grid(1.0, 0.75, n, ny)
    sinf = (EdgeValues(*(rng.uniform(0.5, 1.5, k) for k in (ny, ny, n, n))) if variable
            else EdgeValues(0.9, 1.1, 1.0, 0.8))
    params = ModelParams(epsilon=0.1, chi_sigma=1.3, chi_phi=0.4, nu=2.0, b=b,
                         sigma_inf=sinf)
    coeff = (lambda lo, hi: CoefficientSpec(lo, hi)) if variable else (
        lambda lo, hi: CoefficientSpec.constant(hi))
    mobvis = MobilityViscositySpec(m=coeff(1e-3, 3e-3), n=coeff(0.05, 0.5),
                                   eta=coeff(1.0, 100.0), lam=coeff(0.0, 0.5))
    model = ModelSpec(grid, params, PotentialSpec.quartic(), mobvis,
                      SourceSpec.hawkins(p0=0.5, c_gamma_v=0.1))

    def fields(t):
        u, w = rng.standard_normal((n + 1, ny)), rng.standard_normal((n, ny + 1))
        return State(t, rng.uniform(-1.1, 1.1, grid.shape), rng.standard_normal(grid.shape),
                     rng.uniform(0.0, 1.5, grid.shape),
                     rng.standard_normal(grid.shape) if flow else np.zeros(grid.shape),
                     FaceField(u, w) if flow else FaceField.zeros(grid))
    prev, new = fields(0.0), fields(1e-3)
    old = old_level(time_level(prev, model), model, flow)
    n_faces = harmonic_face_coefficients(mobvis.n(new.phi), grid)
    return model, old, time_level(new, model), n_faces, convection(prev, new.v, grid)


@pytest.mark.parametrize("variable", [False, True], ids=["constant", "variable"])
@pytest.mark.parametrize("b", [0.0, 1.5])
@pytest.mark.parametrize("flow", [False, True], ids=["still", "flow"])
@pytest.mark.parametrize("n", [16, 64])
def test_fused_quadratures_equal_the_face_gradient_formulas(n, flow, b, variable):
    model, old, new, n_faces, conv = random_step(n, flow, b, variable, seed=n + int(b > 0))
    g, dt = model.grid, 1e-3
    for f, faces in ((new.state.phi, None), (new.state.mu, old.m_faces),
                     (new.state.sigma, n_faces)):
        assert_within_ulps(_grad_sq(f, g, faces), *oracle_grad_sq(f, g, faces), "grad_sq")
    for level in (old, new):
        assert_within_ulps(level.energy, *oracle_energy(level.state, model), "energy")

    budget = energy_budget(old, new, n_faces, conv, dt, model)
    want = oracle_budget(old, new, n_faces, conv, dt, model)
    assert (budget.e_before, budget.e_after) == (old.energy, new.energy)
    for name, (value, scale) in want.items():
        assert_within_ulps(getattr(budget, name), value, scale, name)
    if flow:
        parts = energy_parts(old.flow, new.state.v, new.state.p)
        for name, (value, scale) in oracle_energy_parts(old.flow, new.state.v,
                                                        new.state.p).items():
            assert_within_ulps(parts[name], value, scale, name)
    else:
        assert budget.diss_visc == budget.conv_work == 0.0
    if b == 0.0:
        assert budget.bnd_income == budget.bnd_sigma_sq == 0.0

    ledger = mass_balances(old, new.state, conv, dt, model)
    for name, (value, scale) in oracle_ledgers(old, new.state, conv, dt, model).items():
        assert_within_ulps(getattr(ledger, name), value, scale, name)


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
    new, _ = step(level, RunContext(specs))
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
