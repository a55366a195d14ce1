"""Semi-implicit stepping: fixed points, dense oracles, ledgers, convergence."""
import sys
from dataclasses import replace as dc_replace

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
    mobilities,
    potential_eval,
    sources,
)
from chbsim.core import FaceField, integrate_cell, make_grid
from chbsim.diagnostics import convection, energy_budget, mass_balances, old_level, time_level
from chbsim.elliptic import (
    StencilOperator,
    apply_neumann_laplacian,
    diffusion_stencil,
    harmonic_face_coefficients,
    materialize_dense,
    robin_source,
    solve_general,
    upwind_transport,
)
from chbsim.timestepper import (
    SchemeOptions,
    SimSpec,
    StepFailure,
    initial_state,
    phase_inverse,
    run,
    step,
    step_phase,
)
from chbsim import brinkman, constitutive, diagnostics, elliptic, timestepper, verify


def build_model(nx=16, ny=16, eps=0.1, chi_phi=0.5, b=1.0, nu=1.0,
                m=CoefficientSpec.constant(1e-3), source=None,
                potential=None):
    grid = make_grid(1.0, 1.0, nx, ny)
    params = ModelParams(epsilon=eps, chi_sigma=1.0, chi_phi=chi_phi, nu=nu,
                         b=b, sigma_inf=EdgeValues.constant(1.0))
    mobvis = MobilityViscositySpec(m=m, n=CoefficientSpec.constant(0.05),
                                   eta=CoefficientSpec.constant(1.0),
                                   lam=CoefficientSpec.constant(0.0))
    return ModelSpec(grid, params, potential or PotentialSpec.quartic(),
                     mobvis, source or SourceSpec.none())


def specs_for(model, dt, **kw):
    return SimSpec(model, SchemeOptions(dt=dt, **kw))


def step_from(state, specs):
    """One step from a state: the new state and the step report."""
    new, rep = step(time_level(state, specs.model), specs)
    return new.state, rep


def old_record(state, model):
    """The flow-free old-level record of the step leaving `state`."""
    return old_level(time_level(state, model), model, False)


def disc_phase(grid, radius=0.3, eps=0.1):
    x, y = grid.cell_centers()
    r = np.hypot(x - 0.5, y - 0.5)
    return np.tanh((radius - r) / (np.sqrt(2.0) * eps))


# ---------------------------------------------------------------------------
# fixed points
# ---------------------------------------------------------------------------

def test_uniform_state_is_a_fixed_point():
    model = build_model()
    phi_bar, sig_bar = 0.3, 1.0  # sigma at the ambient value
    state = initial_state(np.full(model.grid.shape, phi_bar),
                          np.full(model.grid.shape, sig_bar), model)
    new, rep = step_from(state, specs_for(model, 1e-3, flow=False))
    np.testing.assert_allclose(new.phi, phi_bar, atol=1e-13)
    np.testing.assert_allclose(new.sigma, sig_bar, atol=1e-13)
    _, dpsi = potential_eval(np.array(phi_bar), model.potential)
    mu_exact = float(dpsi) / model.params.epsilon \
        - model.params.chi_phi * sig_bar
    np.testing.assert_allclose(new.mu, mu_exact, atol=1e-12)
    assert rep.ledger_phi == pytest.approx(0.0, abs=1e-13)


def test_host_tissue_is_stationary_under_lima_sources():
    # h(phi) vanishes at phi = -1, so a pure host domain does not grow even
    # with positive proliferation; full pipeline including the flow solve
    model = build_model(source=SourceSpec.lima(P=0.5, A=0.0, C=0.2, c_gamma_v=0.1))
    state = initial_state(-np.ones(model.grid.shape),
                          np.ones(model.grid.shape), model)
    res = run(state, 3, specs_for(model, 1e-3, flow=True))
    final = res.final_state
    np.testing.assert_allclose(final.phi, -1.0, atol=1e-12)
    np.testing.assert_allclose(final.sigma, 1.0, atol=1e-12)
    np.testing.assert_allclose(final.v.u, 0.0, atol=1e-11)


def test_uniform_tumour_grows_at_the_lima_rate():
    # phi = +1 with sigma = sigma_bar: exact one-step update
    # phi' = 1 + dt (P sigma_bar - A) with everything spatially constant
    model = build_model(source=SourceSpec.lima(P=0.4, A=0.1, C=0.0))
    dt, sig_bar = 2e-3, 1.0
    state = initial_state(np.ones(model.grid.shape),
                          np.full(model.grid.shape, sig_bar), model)
    still = upwind_transport(state.phi, FaceField.zeros(model.grid), model.grid)
    phi_new, _, _ = step_phase(old_record(state, model), still, specs_for(model, dt))
    np.testing.assert_allclose(phi_new, 1.0 + dt * (0.4 * sig_bar - 0.1),
                               atol=1e-13)


# ---------------------------------------------------------------------------
# dense two-field block oracle for the eliminated phase solve
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("variant", ["spd_constant_mobility", "varying_mobility_theta"])
def test_phase_step_matches_dense_block_solve(variant):
    if variant == "spd_constant_mobility":
        model = build_model(nx=12, ny=12,
                            source=SourceSpec.lima(P=0.3, A=0.1, C=0.2))
    else:
        model = build_model(nx=12, ny=12, m=CoefficientSpec(1e-3, 2e-3),
                            source=SourceSpec.hawkins_positive(p0=0.5))
    g, p = model.grid, model.params
    eps, s, dt = p.epsilon, 2.0, 1e-3
    x, y = g.cell_centers()
    phi_n = np.tanh(2.0 * np.cos(np.pi * x) * np.cos(2.0 * np.pi * y))
    sigma_n = 0.6 + 0.3 * np.cos(np.pi * x)
    state = initial_state(phi_n, sigma_n, model)

    # independent route: materialize the two-field block system and solve it
    # directly instead of eliminating mu
    m_cell, _ = mobilities(phi_n, model.mobvis)
    m_faces = harmonic_face_coefficients(m_cell, g)
    ones = FaceField(np.ones((g.nx + 1, g.ny)), np.ones((g.nx, g.ny + 1)))
    src = sources(phi_n, sigma_n, state.mu, model.source, p)
    theta = src.theta_phi

    a_mat = materialize_dense(StencilOperator(
        lambda f: (s / eps) * f - eps * apply_neumann_laplacian(f, ones, g),
        g.shape))
    lm_mat = materialize_dense(StencilOperator(
        lambda f: -apply_neumann_laplacian(f, m_faces, g) + theta * f, g.shape))
    n = phi_n.size
    eye = np.eye(n)
    block = np.block([[eye, dt * lm_mat], [-a_mat, eye]])

    xs = np.linspace(0.0, g.Lx, g.nx + 1)
    ys = np.linspace(0.0, g.Ly, g.ny + 1)
    psi = 0.05 * np.sin(np.pi * xs)[:, None] * np.sin(np.pi * ys)[None, :]
    v_new = FaceField((psi[:, 1:] - psi[:, :-1]) / g.hy,
                      -(psi[1:, :] - psi[:-1, :]) / g.hx)

    _, dpsi = potential_eval(phi_n, model.potential)
    c_lin = dpsi / eps - (s / eps) * phi_n - p.chi_phi * sigma_n
    top = phi_n + dt * (src.lambda_phi - upwind_transport(phi_n, v_new, g).div)
    sol = np.linalg.solve(block, np.concatenate([top.ravel(), c_lin.ravel()]))
    phi_oracle = sol[:n].reshape(g.shape)
    mu_oracle = sol[n:].reshape(g.shape)

    phi_new, mu_new, rep = step_phase(old_record(state, model),
                                      upwind_transport(phi_n, v_new, g), specs_for(model, dt))
    assert rep.converged
    np.testing.assert_allclose(phi_new, phi_oracle, atol=1e-8)
    np.testing.assert_allclose(mu_new, mu_oracle, atol=1e-7)


@pytest.mark.parametrize("theta", [0.0, 0.35])
def test_phase_inverse_matches_the_dense_inverse(theta):
    grid = make_grid(1.0, 0.5, 9, 6)  # hx = 1/9, hy = 1/12
    dt, s, eps, m = 1e-2, 2.0, 0.1, 0.7
    m_faces = harmonic_face_coefficients(np.full(grid.shape, m), grid)
    ones = FaceField(np.ones((grid.nx + 1, grid.ny)), np.ones((grid.nx, grid.ny + 1)))

    def apply(f):
        a_eps = (s / eps) * f - eps * apply_neumann_laplacian(f, ones, grid)
        return f + dt * (-apply_neumann_laplacian(a_eps, m_faces, grid) + theta * a_eps)

    dense_inv = np.linalg.inv(materialize_dense(StencilOperator(apply, grid.shape)))
    inv = materialize_dense(StencilOperator(phase_inverse(grid, dt, s, eps, m, theta),
                                            grid.shape))
    assert np.max(np.abs(inv - dense_inv)) <= 1e-10 * np.max(np.abs(dense_inv))


def constant_mobility_state(source):
    """A 32^2 state with constant mobility and constant theta_phi: theta_phi
    = 0 (Lima), or theta_phi = p0 rho_min > 0 (Hawkins below the floor,
    phi < -1 + 2 rho_min everywhere)."""
    if source == "lima":
        model = build_model(nx=32, ny=32, source=SourceSpec.lima(P=0.3, A=0.1, C=0.2))
        phi0 = disc_phase(model.grid)
    else:
        model = build_model(nx=32, ny=32, source=SourceSpec.hawkins_positive(p0=0.5, rho_min=0.2))
        phi0 = -1.0 + 0.15 * (1.0 + disc_phase(model.grid))
    return initial_state(phi0, np.full(model.grid.shape, 0.8), model), model


@pytest.mark.parametrize("source", ["lima", "hawkins_positive_floor"])
def test_constant_mobility_phase_solve_is_preconditioned(source, monkeypatch):
    # in both cases the phase preconditioner is the exact inverse
    state, model = constant_mobility_state(source)
    specs = specs_for(model, 1e-3, flow=False)
    new, rep = step_from(state, specs)
    assert rep.phase.converged and rep.phase.iterations <= 2
    assert abs(rep.ledger_phi) <= 1e-11

    monkeypatch.setattr(timestepper, "phase_inverse", lambda *args: None)
    plain, plain_rep = step_from(state, specs)
    assert plain_rep.phase.iterations > 10
    assert (np.linalg.norm(new.phi - plain.phi)
            <= 1e-10 * np.linalg.norm(plain.phi))


SOURCES = {"lima": SourceSpec.lima(P=0.3, A=0.1, C=0.2),
           "hawkins": SourceSpec.hawkins(p0=0.5)}


def variable_mobility_step(n, contrast, source):
    """One flow-free step on an n^2 grid from a tanh disc, with mobility in
    [1e-3, contrast * 1e-3]: the BiCGStab branch of step_phase."""
    model = build_model(nx=n, ny=n, m=CoefficientSpec(1e-3, contrast * 1e-3),
                        source=SOURCES[source])
    state = initial_state(disc_phase(model.grid), np.full(model.grid.shape, 0.8), model)
    specs = specs_for(model, 1e-3, flow=False)
    new, rep = step_from(state, specs)
    return state, specs, new, rep


@pytest.mark.parametrize("source", ["lima", "hawkins"])
def test_variable_mobility_phase_solve_is_preconditioned(source, monkeypatch):
    state, specs, new, rep = variable_mobility_step(32, 2.0, source)
    assert rep.phase.converged and abs(rep.ledger_phi) <= 1e-11

    monkeypatch.setattr(timestepper, "phase_inverse", lambda *args: None)
    plain, plain_rep = step_from(state, specs)
    assert plain_rep.phase.converged
    assert 3 * rep.phase.iterations <= plain_rep.phase.iterations
    assert (np.linalg.norm(new.phi - plain.phi)
            <= 1e-10 * np.linalg.norm(plain.phi))


@pytest.mark.parametrize("case", ["lima", "hawkins_positive_floor", "variable"])
def test_phase_solve_is_one_preconditioned_bicgstab(case, monkeypatch):
    # constant and variable mobility alike: BiCGStab with the one
    # preconditioner the step builds, and never CG
    if case == "variable":
        model = build_model(nx=32, ny=32, m=CoefficientSpec(1e-3, 2e-3),
                            source=SOURCES["lima"])
        state = initial_state(disc_phase(model.grid), np.full(model.grid.shape, 0.8), model)
    else:
        state, model = constant_mobility_state(case)
    built, used = [], []

    def spy_inverse(*args):
        built.append(phase_inverse(*args))
        return built[-1]

    def spy_general(op, rhs, opts=None, precond=None):
        used.append(precond)
        return solve_general(op, rhs, opts, precond=precond)

    def no_cg(*args, **kwargs):
        raise AssertionError("step_phase called solve_spd")

    monkeypatch.setattr(timestepper, "phase_inverse", spy_inverse)
    monkeypatch.setattr(timestepper, "solve_general", spy_general)
    monkeypatch.setattr(timestepper, "solve_spd", no_cg, raising=False)
    still = upwind_transport(state.phi, FaceField.zeros(model.grid), model.grid)
    _, _, rep = step_phase(old_record(state, model), still,
                           specs_for(model, 1e-3, flow=False))
    assert len(built) == 1 and len(used) == 1 and used[0] is built[0]
    assert rep.converged
    if case != "variable":
        assert rep.iterations == 1


@pytest.mark.parametrize("n", [32, 64])
@pytest.mark.parametrize("source", ["lima", "hawkins"])
@pytest.mark.parametrize("contrast", [2.0, 10.0, 100.0])
def test_mobility_contrast_sweep_converges(contrast, source, n):
    rep = variable_mobility_step(n, contrast, source)[3]
    assert rep.phase.converged and abs(rep.ledger_phi) <= 1e-11


def test_mobility_contrast_100_at_128_converges():
    # the preconditioned recurrence stops at a true residual of ~1.3e-11 >
    # 10 tol here; BiCGStab restarts from the true residual and converges
    # (plain BiCGStab stalls at ~1e-10 after ~4500 iterations)
    _, _, new, rep = variable_mobility_step(128, 100.0, "hawkins")
    assert rep.phase.converged and rep.phase.iterations <= 200
    assert abs(rep.ledger_phi) <= 1e-11 and np.all(np.isfinite(new.phi))


def test_variable_mobility_iterations_do_not_grow_with_the_grid():
    coarse = variable_mobility_step(32, 2.0, "hawkins")[3].phase.iterations
    fine = variable_mobility_step(128, 2.0, "hawkins")[3].phase.iterations
    assert fine <= 1.5 * coarse


def test_nutrient_step_matches_dense_solve():
    model = build_model(nx=12, ny=12, source=SourceSpec.lima(P=0.3, A=0.1, C=0.2))
    g, p = model.grid, model.params
    dt = 1e-3
    x, y = g.cell_centers()
    phi_n = np.tanh(2.0 * np.cos(np.pi * x))
    sigma_n = 0.5 + 0.2 * np.cos(np.pi * y)
    state = initial_state(phi_n, sigma_n, model)
    new, _ = step_from(state, specs_for(model, dt, flow=False))

    _, n_cell = mobilities(new.phi, model.mobvis)
    n_faces = harmonic_face_coefficients(n_cell, g)
    chi_faces = FaceField(p.chi_sigma * n_faces.u, p.chi_sigma * n_faces.w)
    robin = diffusion_stencil(chi_faces, g, p.b)
    mat = materialize_dense(StencilOperator(lambda f: f - dt * robin(f), g.shape))
    src = sources(phi_n, sigma_n, state.mu, model.source, p)
    gamma_sig = src.lambda_sigma - src.theta_sigma * new.mu
    rhs = sigma_n + dt * (robin_source(p.b, p.sigma_inf, g)
                          - p.chi_phi * apply_neumann_laplacian(new.phi, n_faces, g)
                          - gamma_sig)
    sigma_oracle = np.linalg.solve(mat, rhs.ravel()).reshape(g.shape)
    # the conservation shift is of the size of the Krylov residual
    np.testing.assert_allclose(new.sigma, sigma_oracle, atol=1e-8)


# ---------------------------------------------------------------------------
# conservation and wall exchange
# ---------------------------------------------------------------------------

def test_closed_system_conserves_both_masses():
    model = build_model(chi_phi=0.0, b=0.0)
    g = model.grid
    rng = np.random.default_rng(71)
    x, y = g.cell_centers()
    phi0 = 0.5 * np.cos(np.pi * x) * np.cos(np.pi * y)
    sigma0 = 0.8 + 0.1 * np.cos(np.pi * y)
    res = run(initial_state(phi0, sigma0, model), 5,
              specs_for(model, 1e-3, flow=False))
    m_phi = [row["mass_phi"] for row in res.rows]
    m_sig = [row["mass_sigma"] for row in res.rows]
    np.testing.assert_allclose(m_phi, m_phi[0], atol=1e-12)
    np.testing.assert_allclose(m_sig, m_sig[0], atol=1e-12)


def test_robin_wall_income_matches_mass_gain():
    model = build_model(chi_phi=0.0)
    g = model.grid
    dt = 1e-3
    state = initial_state(np.zeros(g.shape), np.zeros(g.shape), model)
    new, rep = step_from(state, specs_for(model, dt, flow=False))
    gain = integrate_cell(new.sigma, g) - 0.0
    # income b * perimeter * sigma_inf, reduced slightly by the implicit
    # rise of the wall trace within the step
    expected = dt * model.params.b * g.perimeter * 1.0
    assert gain == pytest.approx(expected, rel=0.05)
    assert gain < expected
    assert rep.ledger_sigma == pytest.approx(0.0, abs=1e-12)


def test_mass_ledgers_close_exactly_with_flow_and_sources():
    model = build_model(nu=100.0,
                        source=SourceSpec.lima(P=0.2, A=0.05, C=0.1, c_gamma_v=0.05))
    g = model.grid
    phi0 = disc_phase(g)
    res = run(initial_state(phi0, np.ones(g.shape), model), 3,
              specs_for(model, 1e-4, flow=True))
    for rep in res.reports:
        assert abs(rep.ledger_phi) < 1e-11
        assert abs(rep.ledger_sigma) < 1e-11
        assert rep.div_residual < 1e-8


# ---------------------------------------------------------------------------
# one old-level record per step
# ---------------------------------------------------------------------------

def flow_model_with_lima_sources():
    return build_model(nu=100.0,
                       source=SourceSpec.lima(P=0.2, A=0.05, C=0.1, c_gamma_v=0.05))


def test_old_level_coefficients_are_evaluated_once_per_step(monkeypatch):
    # psi', N_sigma and the energy of each level are evaluated once, when the
    # level is produced (t = 0 by `run`); the sources, the face mobilities
    # and, with the flow on, the viscosities and the capillary force once per
    # step, shared by the three stages, the mass ledgers and the energy budget
    model = flow_model_with_lima_sources()
    state = initial_state(disc_phase(model.grid), np.ones(model.grid.shape), model)
    calls = {}
    for origin, name in [(constitutive, "sources"), (constitutive, "viscosities"),
                         (constitutive, "mobilities"), (constitutive, "potential_eval"),
                         (constitutive, "nutrient_energy"), (brinkman, "capillary_force"),
                         (diagnostics, "energy")]:
        original = getattr(origin, name)
        calls[name] = 0

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for key, module in list(sys.modules.items()):
            if ((key == "chbsim" or key.startswith("chbsim."))
                    and getattr(module, name, None) is original):
                monkeypatch.setattr(module, name, counted)
    n = 3
    for flow in (True, False):
        calls.update(dict.fromkeys(calls, 0))
        run(state, n, specs_for(model, 1e-4, flow=flow))
        per_flow_step = n if flow else 0
        assert calls == {"sources": n, "mobilities": n, "potential_eval": n + 1,
                         "nutrient_energy": n + 1, "viscosities": per_flow_step,
                         "capillary_force": per_flow_step, "energy": 0}, flow


def test_each_step_makes_one_upwind_pass_per_transported_field(monkeypatch):
    # with the flow on, phi_n and sigma_n are transported by the new velocity
    # once each per step, and both stages, the mass ledgers and the energy
    # budget read those two passes; with the flow off v = 0 and no pass is made
    model = flow_model_with_lima_sources()
    state = initial_state(disc_phase(model.grid), np.ones(model.grid.shape), model)
    original = elliptic.upwind_transport
    passes = []

    def counted(q, v, grid):
        passes.append(q)
        return original(q, v, grid)

    for key, module in list(sys.modules.items()):
        if ((key == "chbsim" or key.startswith("chbsim."))
                and getattr(module, "upwind_transport", None) is original):
            monkeypatch.setattr(module, "upwind_transport", counted)
    n = 3
    for flow, per_step in ((True, 2), (False, 0)):
        passes.clear()
        run(state, n, specs_for(model, 1e-4, flow=flow))
        assert len(passes) == per_step * n, flow


def test_rebuilt_old_level_records_reproduce_the_step_diagnostics():
    # every step's budget and ledgers, recomputed from records rebuilt from
    # the saved levels, equal the run's own bit for bit, with the flow on
    # and off: each record is built from its level alone
    model = flow_model_with_lima_sources()
    dt = 1e-4
    state0 = initial_state(disc_phase(model.grid), np.ones(model.grid.shape), model)
    for flow in (True, False):
        res = run(state0, 3, specs_for(model, dt, flow=flow, snapshot_every=1))
        assert len(res.states) == len(res.reports) + 1 == 4
        for prev, new, rep in zip(res.states, res.states[1:], res.reports):
            old = old_level(time_level(prev, model), model, flow)
            n_faces = harmonic_face_coefficients(mobilities(new.phi, model.mobvis)[1],
                                                 model.grid)
            conv = convection(prev, new.v, model.grid)
            assert (energy_budget(old, time_level(new, model), n_faces, conv, dt, model)
                    == rep.budget)
            ledger = mass_balances(old, new, conv, dt, model)
            assert ledger.phi_residual == rep.ledger_phi
            assert ledger.sigma_residual == rep.ledger_sigma


# ---------------------------------------------------------------------------
# run bookkeeping
# ---------------------------------------------------------------------------

def test_run_row_and_snapshot_counts():
    model = build_model()
    state = initial_state(disc_phase(model.grid), np.ones(model.grid.shape), model)
    res = run(state, 4, specs_for(model, 1e-4, flow=False, snapshot_every=2))
    assert len(res.rows) == 5
    assert len(res.reports) == 4
    assert len(res.states) == 3  # t = 0, 2dt, 4dt
    assert res.states[1].t == pytest.approx(2e-4)
    assert res.final_state.t == pytest.approx(4e-4)
    # ends only when no cadence is requested
    res = run(state, 4, specs_for(model, 1e-4, flow=False))
    assert len(res.states) == 2


def test_rerun_is_bitwise_deterministic():
    model = build_model(source=SourceSpec.lima(P=0.2, A=0.05, C=0.1))
    state = initial_state(disc_phase(model.grid), np.ones(model.grid.shape), model)
    a = run(state, 3, specs_for(model, 1e-4, flow=False))
    b = run(state, 3, specs_for(model, 1e-4, flow=False))
    assert np.array_equal(a.final_state.phi, b.final_state.phi)
    assert a.rows[-1]["energy"] == b.rows[-1]["energy"]


def test_flow_solve_starts_from_the_projected_flow():
    # criterion-4/5 disc at 32^2, relaxed flow-free first as the disc_flow
    # benchmark workload does; `run` starts each flow solve from its window
    # of solved flows, a plain `step` loop starts every solve from x_n
    cfg = dc_replace(verify.DISC, nx=32, ny=32, t_end=1e-3)
    model = cfg.model_spec()
    phi, _ = cfg.initial_fields()
    relax = dc_replace(cfg, mobility=(1e-2, 1e-2), dt=2e-3, t_end=2e-2, flow=False)
    phi = run(initial_state(phi, verify._steady_nutrient(phi, model), relax.model_spec()),
              relax.n_steps, relax.sim_spec()).final_state.phi
    state0 = initial_state(phi, verify._steady_nutrient(phi, model), model)
    n_steps = cfg.n_steps
    spec = dc_replace(cfg, snapshot_every=1).sim_spec()
    res = run(state0, n_steps, spec)
    plain = [time_level(state0, model)]
    plain_its = []
    for _ in range(n_steps):
        new, rep = step(plain[-1], spec)
        plain.append(new)
        plain_its.append(rep.flow.iterations)
    plain = [level.state for level in plain]

    def fields(st):
        return (st.phi, st.mu, st.sigma, st.p, st.v.u, st.v.w)

    # step 1 starts from x_n: the t = 0 rest flow is no solution, and the
    # window is still empty
    assert all(np.array_equal(a, b) for a, b in zip(fields(res.states[1]), fields(plain[1])))
    its = [rep.flow.iterations for rep in res.reports]
    assert all(a <= 0.75 * b for a, b in zip(its[3:], plain_its[3:])), (its, plain_its)
    # the same fields to the benchmark's reference tolerance: three solves
    # per step, each stopped at <= 10 tol (FLOW_TOL, the loosest), times a
    # condition number of 1e3
    tol = n_steps * 3 * 10.0 * timestepper.FLOW_TOL * 1e3
    for a, b in zip(fields(res.final_state), fields(plain[-1])):
        assert np.max(np.abs(a - b)) <= tol * max(1.0, float(np.max(np.abs(b))))
    # a rerun repeats every level and every iteration count bit for bit
    again = run(state0, n_steps, spec)
    assert [rep.flow.iterations for rep in again.reports] == its
    assert all(np.array_equal(a, b) for st_a, st_b in zip(again.states, res.states)
               for a, b in zip(fields(st_a), fields(st_b)))


def test_step_failure_carries_the_partial_record(monkeypatch):
    model = build_model()
    state = initial_state(disc_phase(model.grid), np.ones(model.grid.shape), model)
    monkeypatch.setattr(timestepper, "MAX_ITERS", 1)
    with pytest.raises(StepFailure) as exc:
        run(state, 3, specs_for(model, 1e-3, flow=False))
    partial = exc.value.partial
    assert partial is not None
    assert len(partial.rows) == 1 and not partial.reports
    assert partial.states[0].t == 0.0


def test_scheme_options_validation():
    with pytest.raises(ValueError):
        SchemeOptions(dt=0.0)
    with pytest.raises(ValueError):
        SchemeOptions(dt=1e-3, s=-1.0)


def test_phase_abort_guard_trips_on_explosion(monkeypatch):
    model = build_model()
    state = initial_state(disc_phase(model.grid), np.ones(model.grid.shape), model)
    monkeypatch.setattr(timestepper, "PHI_ABORT", 0.5)
    with pytest.raises(StepFailure, match="range explosion"):
        step_from(state, specs_for(model, 1e-3, flow=False))


# ---------------------------------------------------------------------------
# first-order self convergence in dt
# ---------------------------------------------------------------------------

def test_time_stepping_is_first_order_in_dt():
    model = build_model(source=SourceSpec.lima(P=0.5, A=0.1, C=0.2))
    g = model.grid
    state = initial_state(disc_phase(g), np.ones(g.shape), model)
    horizon = 1e-3
    finals = []
    for dt in (2e-4, 1e-4, 5e-5):
        res = run(state, round(horizon / dt), specs_for(model, dt, flow=False))
        finals.append(res.final_state.phi)
    e1 = float(np.max(np.abs(finals[0] - finals[1])))
    e2 = float(np.max(np.abs(finals[1] - finals[2])))
    order = np.log2(e1 / e2)
    assert 0.8 < order < 1.2, f"order {order:.3f} from gaps {e1:.3e}, {e2:.3e}"
