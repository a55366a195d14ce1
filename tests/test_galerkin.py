"""Spectral route: basis quality, projected derivatives, RK4 integration."""
import sys
from dataclasses import replace

import numpy as np
import pytest

from chbsim import brinkman, constitutive, core, galerkin
from chbsim.constitutive import (
    CoefficientSpec,
    EdgeValues,
    MobilityViscositySpec,
    ModelParams,
    ModelSpec,
    PotentialSpec,
    SourceSpec,
)
from chbsim.brinkman import (
    BrinkmanProblem,
    ProjectedStart,
    brinkman_operator,
    solve_brinkman,
)
from chbsim.core import FaceField, integrate_cell, make_grid
from chbsim.diagnostics import energy
from chbsim.galerkin import (
    FLOW_TOL,
    FLOW_WINDOW,
    GalerkinResult,
    SpectralBlowup,
    SpectralState,
    Stage,
    assemble_matrices,
    build_basis,
    chemical_coeffs,
    integrate,
    project,
    stage,
    synthesize,
    wall_pairing,
)


def build_model(nx=32, ny=32, Lx=1.0, Ly=1.0, b=1.0, chi_phi=0.5,
                m=1e-2, source=None, eta=CoefficientSpec.constant(1.0)):
    grid = make_grid(Lx, Ly, nx, ny)
    params = ModelParams(epsilon=0.1, chi_sigma=1.0, chi_phi=chi_phi, nu=1.0,
                         b=b, sigma_inf=EdgeValues.constant(1.0))
    mobvis = MobilityViscositySpec(m=CoefficientSpec.constant(m),
                                   n=CoefficientSpec.constant(0.05),
                                   eta=eta,
                                   lam=CoefficientSpec.constant(0.0))
    return ModelSpec(grid, params, PotentialSpec.quartic(), mobvis,
                     source or SourceSpec.none())


# ---------------------------------------------------------------------------
# basis
# ---------------------------------------------------------------------------

def test_mode_ordering_and_eigenvalues():
    basis = build_basis(4, make_grid(1.0, 1.0, 32, 32))
    assert basis.modes[0] == (0, 0)
    assert basis.eigenvalues[0] == 0.0
    np.testing.assert_allclose(basis.values[0], 1.0)  # 1/sqrt(area) = 1
    # the two first excited modes are degenerate at pi^2
    np.testing.assert_allclose(basis.eigenvalues[1:3], np.pi ** 2)
    assert set(basis.modes[1:3]) == {(0, 1), (1, 0)}


def test_quadrature_gram_matrix_is_the_identity():
    grid = make_grid(1.0, 1.0, 64, 64)
    basis = build_basis(25, grid)
    vals = basis.values.reshape(basis.k, -1)
    gram = vals @ vals.T * grid.cell_area
    np.testing.assert_allclose(gram, np.eye(basis.k), atol=1e-10)


def test_basis_guard_rejects_underresolved_modes():
    grid = make_grid(1.0, 1.0, 8, 8)  # admits (8//4+1)^2 = 9 modes
    build_basis(9, grid)
    with pytest.raises(ValueError):
        build_basis(10, grid)
    with pytest.raises(ValueError):
        build_basis(0, grid)


def per_mode_basis(k, g):
    """The basis evaluated one mode at a time on the full grid: the oracle
    `build_basis`'s per-axis tables must reproduce bit for bit."""
    imax, jmax = g.nx // 4, g.ny // 4
    pairs = sorted((np.pi ** 2 * ((i / g.Lx) ** 2 + (j / g.Ly) ** 2), i, j)
                   for i in range(imax + 1) for j in range(jmax + 1))[:k]
    xs = (np.arange(g.nx) + 0.5) * g.hx
    ys = (np.arange(g.ny) + 0.5) * g.hy
    x2, y2 = np.meshgrid(xs, ys, indexing="ij")
    arrays = {name: [] for name in ("values", "grad_x", "grad_y", "edge_left",
                                    "edge_right", "edge_bottom", "edge_top")}
    for lam, i, j in pairs:
        kx, ky = i * np.pi / g.Lx, j * np.pi / g.Ly
        kap = np.sqrt((2.0 if i else 1.0) * (2.0 if j else 1.0) / (g.Lx * g.Ly))
        cx, cy = np.cos(kx * x2), np.cos(ky * y2)
        arrays["values"].append(kap * cx * cy)
        arrays["grad_x"].append(-kap * kx * np.sin(kx * x2) * cy)
        arrays["grad_y"].append(-kap * ky * cx * np.sin(ky * y2))
        arrays["edge_left"].append(kap * np.cos(ky * ys))
        arrays["edge_right"].append(kap * np.cos(kx * g.Lx) * np.cos(ky * ys))
        arrays["edge_bottom"].append(kap * np.cos(kx * xs))
        arrays["edge_top"].append(kap * np.cos(kx * xs) * np.cos(ky * g.Ly))
    arrays = {name: np.array(rows) for name, rows in arrays.items()}
    arrays["eigenvalues"] = np.array([lam for lam, _, _ in pairs])
    return tuple((i, j) for _, i, j in pairs), arrays


@pytest.mark.parametrize("Lx, Ly, nx, ny", [
    (1.0, 1.0, 8, 8), (1.0, 1.0, 32, 32), (2.0, 1.0, 32, 16),
    (1.0, 3.0, 12, 20), (0.7, 4.3, 37, 9), (2.5, 0.3, 20, 44),
])
def test_basis_matches_the_per_mode_evaluation_bit_for_bit(Lx, Ly, nx, ny):
    g = make_grid(Lx, Ly, nx, ny)
    for k in range(1, (nx // 4 + 1) * (ny // 4 + 1) + 1):
        basis = build_basis(k, g)
        modes, arrays = per_mode_basis(k, g)
        assert basis.modes == modes
        for name, want in arrays.items():
            got = getattr(basis, name)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (k, name)
        for name in ("values", "grad_x", "grad_y"):
            assert getattr(basis, name).flags.c_contiguous, (k, name)


def test_project_constant_field():
    grid = make_grid(2.0, 1.0, 32, 16)
    basis = build_basis(3, grid)
    coeffs = project(np.full(grid.shape, 0.7), basis)
    assert coeffs[0] == pytest.approx(0.7 * np.sqrt(grid.area))
    np.testing.assert_allclose(coeffs[1:], 0.0, atol=1e-14)


def test_project_synthesize_round_trip():
    grid = make_grid(1.0, 1.0, 32, 32)
    basis = build_basis(9, grid)
    rng = np.random.default_rng(3)
    coeffs = rng.standard_normal(basis.k)
    back = project(synthesize(coeffs, basis), basis)
    np.testing.assert_allclose(back, coeffs, atol=1e-10)
    np.testing.assert_allclose(project(basis.values[2], basis), np.eye(basis.k)[2],
                               atol=1e-10)


def test_projection_satisfies_the_bessel_inequality():
    grid = make_grid(1.0, 1.0, 32, 32)
    basis = build_basis(9, grid)
    x, y = grid.cell_centers()
    f = np.tanh(3.0 * (x - 0.4)) * np.cos(2.0 * np.pi * y)
    coeffs = project(f, basis)
    assert float(np.sum(coeffs ** 2)) <= integrate_cell(f * f, grid) + 1e-8


def test_synthesize_returns_the_mode_sums():
    grid = make_grid(1.0, 1.0, 16, 16)
    basis = build_basis(2, grid)
    np.testing.assert_allclose(synthesize(np.array([0.5, 0.0]), basis), 0.5)
    np.testing.assert_allclose(synthesize(np.array([0.0, 1.0]), basis), basis.values[1])
    np.testing.assert_allclose(synthesize(np.array([0.0, 0.0]), basis), 0.0)


# ---------------------------------------------------------------------------
# projected derivatives
# ---------------------------------------------------------------------------

def test_stiffness_with_constant_mobility_is_diagonal():
    # a hand-built stage with a = b = e_j, no sources and no flow: only the
    # stiffness pairings act, da = -m lambda_j e_j, dc = n chi_phi lambda_j e_j
    model = build_model(b=0.0)
    basis = build_basis(8, model.grid)
    z = np.zeros(8)
    for j in range(8):
        e = np.eye(8)[j]
        phi = synthesize(e, basis)
        src = constitutive.sources(phi, 0.0 * phi, phi, model.source, model.params)
        st = Stage(a=e, c=z, b=e, phi=phi, mu=phi, sigma=0.0 * phi, src=src)
        da, dc = assemble_matrices(st, FaceField.zeros(model.grid), model, basis)
        lam = basis.eigenvalues[j]
        np.testing.assert_allclose(da, -1e-2 * lam * e, atol=1e-9)
        np.testing.assert_allclose(dc, 0.05 * model.params.chi_phi * lam * e, atol=1e-9)


def test_boundary_mass_of_the_constant_mode():
    grid = make_grid(1.0, 1.0, 16, 16)
    basis = build_basis(1, grid)
    traces = EdgeValues(basis.edge_left[0], basis.edge_right[0],
                        basis.edge_bottom[0], basis.edge_top[0])
    assert wall_pairing(traces, basis)[0] == pytest.approx(grid.perimeter / grid.area)


def test_convection_matrix_against_trig_quadrature():
    # constant rightward wind; the oracle re-evaluates every mode with its
    # analytic gradient from scratch and sums the quadrature by explicit loops.
    # Column s of the convection matrix is what the wind takes off da at the
    # stage a = e_s
    model = build_model(nx=16, ny=16)
    g = model.grid
    basis = build_basis(5, g)
    cvel = 0.37
    v = FaceField(np.full((g.nx + 1, g.ny), cvel), np.zeros((g.nx, g.ny + 1)))
    c_mat = np.empty((5, 5))
    for s_ in range(5):
        st = stage(np.eye(5)[s_], np.zeros(5), basis, model)
        c_mat[:, s_] = -(assemble_matrices(st, v, model, basis)[0]
                         - assemble_matrices(st, FaceField.zeros(g), model, basis)[0])

    xs = (np.arange(g.nx) + 0.5) * g.hx
    ys = (np.arange(g.ny) + 0.5) * g.hy
    expect = np.zeros((5, 5))
    for r, (i1, j1) in enumerate(basis.modes):
        k1 = np.sqrt((2.0 if i1 else 1.0) * (2.0 if j1 else 1.0) / g.area)
        for s_, (i2, j2) in enumerate(basis.modes):
            k2 = np.sqrt((2.0 if i2 else 1.0) * (2.0 if j2 else 1.0) / g.area)
            acc = 0.0
            for ix in range(g.nx):
                for iy in range(g.ny):
                    w_r = k1 * np.cos(i1 * np.pi * xs[ix]) * np.cos(j1 * np.pi * ys[iy])
                    dwx = -k2 * i2 * np.pi * np.sin(i2 * np.pi * xs[ix]) \
                        * np.cos(j2 * np.pi * ys[iy])
                    acc += w_r * cvel * dwx
            expect[r, s_] = acc * g.cell_area
    np.testing.assert_allclose(c_mat, expect, atol=1e-10)


def test_rhs_assembles_the_coefficient_odes():
    # the reference assembles the k x k Galerkin matrices and applies them:
    # da = -S_m b + G - (C + D) a and
    # dc = S_n (chi_phi a - chi_sigma c) - F - (C + D) c + b (Sig - M c),
    # with phase and nutrient mobilities that follow phi, a volume source
    # and a Robin exchange with a different sigma_inf on every wall, on a
    # domain whose cells are not square
    model = build_model(nx=32, ny=24, Ly=1.5, b=1.5,
                        source=SourceSpec.lima(P=0.3, A=0.1, C=0.2, c_gamma_v=0.1))
    model = replace(
        model,
        params=replace(model.params, sigma_inf=EdgeValues(1.0, 0.8, 1.2, 0.9)),
        mobvis=replace(model.mobvis, m=CoefficientSpec(1e-2, 3e-2),
                       n=CoefficientSpec(0.05, 0.08)))
    g, prm = model.grid, model.params
    k = 6
    basis = build_basis(k, g)
    rng = np.random.default_rng(9)
    a, c = 0.3 * rng.standard_normal(k), 0.3 * rng.standard_normal(k)
    st = stage(a, c, basis, model)
    xs, ys = np.linspace(0.0, 1.0, g.nx + 1), np.linspace(0.0, 1.5, g.ny + 1)
    psi = 0.1 * np.sin(np.pi * xs)[:, None] * np.sin(np.pi * ys / 1.5)[None, :]
    v = FaceField((psi[:, 1:] - psi[:, :-1]) / g.hy,
                  -(psi[1:, :] - psi[:-1, :]) / g.hx)
    da, dc = assemble_matrices(st, v, model, basis)

    vol = g.cell_area
    vals, gx, gy = (f.reshape(k, -1) for f in (basis.values, basis.grad_x, basis.grad_y))
    m_cell, n_cell = (f.ravel() for f in constitutive.mobilities(st.phi, model.mobvis))
    assert np.ptp(m_cell) > 0.0 and np.ptp(n_cell) > 0.0
    s_m = vol * ((gx * m_cell) @ gx.T + (gy * m_cell) @ gy.T)
    s_n = vol * ((gx * n_cell) @ gx.T + (gy * n_cell) @ gy.T)
    vx, vy = (f.ravel() for f in core.face_to_center(v))
    gam_v = st.src.gamma_v.ravel()
    assert np.ptp(gam_v) > 0.0
    conv = vol * (vals @ (gx * vx + gy * vy).T + vals @ (vals * gam_v).T)
    g_vec = project(st.src.lambda_phi - st.src.theta_phi * st.mu, basis)
    f_vec = project(st.src.lambda_sigma - st.src.theta_sigma * st.mu, basis)
    edges = ((basis.edge_left, basis.edge_right, g.hy),
             (basis.edge_bottom, basis.edge_top, g.hx))
    m_bnd = sum(h * (lo @ lo.T + hi @ hi.T) for lo, hi, h in edges)
    sinf = prm.sigma_inf
    sig_vec = (g.hy * (sinf.left * basis.edge_left.sum(axis=1)
                       + sinf.right * basis.edge_right.sum(axis=1))
               + g.hx * (sinf.bottom * basis.edge_bottom.sum(axis=1)
                         + sinf.top * basis.edge_top.sum(axis=1)))
    da_ref = -(s_m @ st.b) + g_vec - conv @ a
    dc_ref = (s_n @ (prm.chi_phi * a - prm.chi_sigma * c) - f_vec - conv @ c
              + prm.b * (sig_vec - m_bnd @ c))
    for got, want in ((da, da_ref), (dc, dc_ref)):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_zero_state_without_boundary_data_is_stationary():
    model = build_model(b=0.0)
    basis = build_basis(4, model.grid)
    z = np.zeros(4)
    da, dc = assemble_matrices(stage(z, z, basis, model), FaceField.zeros(model.grid),
                               model, basis)
    np.testing.assert_allclose(da, 0.0, atol=1e-14)
    np.testing.assert_allclose(dc, 0.0, atol=1e-14)


# ---------------------------------------------------------------------------
# time integration
# ---------------------------------------------------------------------------

def test_single_mode_relaxes_on_the_exact_exponential():
    # with one mode, no sources and no flow only the Robin exchange is left:
    # c' = b (Sig_1 - M_11 c) with M_11 = 4, Sig_1 = 4 sigma_inf on the unit
    # square, so c(t) = 1 + (c0 - 1) exp(-4 b t); the phase coefficient is
    # frozen because every stiffness entry carries the zero eigenvalue
    model = build_model(nx=16, ny=16, b=1.0)
    basis = build_basis(1, model.grid)
    c0 = 0.25
    state0 = SpectralState(0.0, np.array([0.4]), np.array([c0]))
    res = integrate(state0, 1e-3, 500, model, basis, flow=False)
    t_end = float(res.times[-1])
    assert t_end == pytest.approx(0.5)
    exact = 1.0 + (c0 - 1.0) * np.exp(-4.0 * t_end)
    assert res.c[-1][0] == pytest.approx(exact, abs=1e-9)
    assert np.array_equal(res.a[-1], res.a[0])


def test_uniform_spectral_state_is_stationary():
    model = build_model(b=0.0)
    basis = build_basis(6, model.grid)
    a0 = np.array([0.3, 0, 0, 0, 0, 0.0])
    c0 = np.array([0.8, 0, 0, 0, 0, 0.0])
    res = integrate(SpectralState(0.0, a0, c0), 1e-3, 20,
                    model, basis, flow=False)
    np.testing.assert_allclose(res.a[-1], a0, atol=1e-12)
    np.testing.assert_allclose(res.c[-1], c0, atol=1e-12)


def test_rk4_is_fourth_order_by_richardson():
    model = build_model(nx=32, ny=32)
    basis = build_basis(6, model.grid)
    x, y = model.grid.cell_centers()
    phi0 = np.tanh(2.0 * np.cos(np.pi * x) * np.cos(np.pi * y))
    state0 = SpectralState(0.0, project(phi0, basis),
                           project(np.full(model.grid.shape, 0.8), basis))
    horizon = 0.016
    finals = []
    for dt in (4e-3, 2e-3, 1e-3):
        res = integrate(state0, dt, round(horizon / dt), model, basis, flow=False)
        finals.append(np.concatenate([res.a[-1], res.c[-1]]))
    e1 = float(np.max(np.abs(finals[0] - finals[1])))
    e2 = float(np.max(np.abs(finals[1] - finals[2])))
    order = np.log2(e1 / e2)
    assert 3.5 < order < 4.5, f"order {order:.2f} from gaps {e1:.3e}, {e2:.3e}"


def test_free_energy_decays_for_the_closed_relaxation():
    model = build_model(b=0.0, chi_phi=0.0)
    basis = build_basis(6, model.grid)
    rng = np.random.default_rng(21)
    a0 = 0.2 * rng.standard_normal(6)
    state0 = SpectralState(0.0, a0, np.zeros(6))
    res = integrate(state0, 2e-3, 50, model, basis, flow=False)
    e_start = energy(res.states[0], model)
    e_end = energy(res.states[-1], model)
    assert res.states[-1].t == res.times[-1]
    assert e_end < e_start


def test_oversized_timestep_raises_blowup():
    model = build_model()
    basis = build_basis(6, model.grid)
    x, y = model.grid.cell_centers()
    a0 = project(np.tanh(3.0 * np.cos(2 * np.pi * x)), basis)
    c0 = project(np.ones(model.grid.shape), basis)
    with pytest.raises(SpectralBlowup):
        integrate(SpectralState(0.0, a0, c0), 5.0, 50,
                  model, basis, flow=False)


def _flow_run(monkeypatch=None, counted=()):
    """Three flow-on RK4 steps at k = 4 on 16x16, with Lima sources; each
    function named in `counted` is wrapped in every chbsim module binding it
    and its calls are tallied."""
    model = build_model(nx=16, ny=16,
                        source=SourceSpec.lima(P=0.3, A=0.1, C=0.2, c_gamma_v=0.1))
    x, y = model.grid.cell_centers()
    phi0 = 0.5 * np.cos(np.pi * x) * np.cos(np.pi * y)
    calls = {}
    for origin, name in counted:
        original = getattr(origin, name)
        calls[name] = 0

        def tallied(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for key, module in list(sys.modules.items()):
            if ((key == "chbsim" or key.startswith("chbsim."))
                    and getattr(module, name, None) is original):
                monkeypatch.setattr(module, name, tallied)
    basis = build_basis(4, model.grid)
    state0 = SpectralState(0.0, project(phi0, basis),
                           project(np.ones(model.grid.shape), basis))
    res = integrate(state0, 1e-4, 3, model, basis, flow=True)
    return res, model, basis, calls


def test_stage_fields_and_sources_are_evaluated_once_per_stage(monkeypatch):
    # the flow solve, the projections and the samples share one stage
    # record: 3 steps of 4 stages plus the closing sample are 13 stages, and
    # the mobilities are evaluated once in each of the 12 RK4 stages (the
    # closing sample takes no derivatives)
    _, _, _, calls = _flow_run(monkeypatch, [
        (constitutive, "sources"), (constitutive, "potential_eval"),
        (constitutive, "mobilities"), (galerkin, "synthesize")])
    stages = 4 * 3 + 1
    assert calls["sources"] == stages
    assert calls["potential_eval"] == stages
    assert calls["mobilities"] == stages - 1
    assert calls["synthesize"] <= 3 * stages


BUILDS = [(brinkman, "brinkman_operator"), (brinkman, "_block_preconditioner"),
          (brinkman, "_saddle_inverse")]


def test_a_run_builds_its_flow_operator_once(monkeypatch):
    # constant eta and lam: one operator and one exact inverse per integrate
    # call (13 flow solves), no block preconditioner (every exact start
    # meets the tolerance), and no bit changes when every stage builds
    # afresh (a window that never finds its key)
    res, _, _, calls = _flow_run(monkeypatch, BUILDS)
    assert calls == {"brinkman_operator": 1, "_block_preconditioner": 0, "_saddle_inverse": 1}
    monkeypatch.setattr(brinkman, "bits", lambda *values: object())
    fresh, _, _, calls = _flow_run(monkeypatch, BUILDS)
    assert calls == {"brinkman_operator": 13, "_block_preconditioner": 0, "_saddle_inverse": 13}
    assert res.flow_iterations == fresh.flow_iterations
    assert res.a.tobytes() == fresh.a.tobytes() and res.c.tobytes() == fresh.c.tobytes()
    for a, b in zip(res.states, fresh.states, strict=True):
        assert all(x.tobytes() == y.tobytes() for x, y in zip(
            (a.phi, a.mu, a.sigma, a.p, a.v.u, a.v.w), (b.phi, b.mu, b.sigma, b.p, b.v.u, b.v.w)))


def test_variable_coefficients_are_rebuilt_at_every_stage(monkeypatch):
    # eta and m follow phi: the flow operator is built for each of the 13
    # flow solves
    model = build_model(nx=16, ny=16, eta=CoefficientSpec(1.0, 10.0))
    model = replace(model, mobvis=replace(model.mobvis, m=CoefficientSpec(1e-2, 2e-2)))
    calls = {name: 0 for _, name in BUILDS}
    for origin, name in BUILDS:
        def tallied(*args, _name=name, _original=getattr(origin, name)):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(origin, name, tallied)
    x, y = model.grid.cell_centers()
    basis = build_basis(4, model.grid)
    state0 = SpectralState(0.0, project(0.5 * np.cos(np.pi * x) * np.cos(np.pi * y), basis),
                           project(np.ones(model.grid.shape), basis))
    integrate(state0, 1e-4, 3, model, basis, flow=True)
    assert calls == {"brinkman_operator": 13, "_block_preconditioner": 13, "_saddle_inverse": 0}


def test_sampled_states_hold_the_synthesized_recorded_coefficients():
    res, model, basis, _ = _flow_run()
    assert len(res.states) == len(res.times) == 4
    for s, t, a, c in zip(res.states, res.times, res.a, res.c):
        b = chemical_coeffs(a, c, synthesize(a, basis), basis, model)
        assert s.t == t
        assert np.array_equal(s.phi, synthesize(a, basis))
        assert np.array_equal(s.mu, synthesize(b, basis))
        assert np.array_equal(s.sigma, synthesize(c, basis))


def test_integrate_records_flow_samples():
    model = build_model(nx=16, ny=16)
    basis = build_basis(4, model.grid)
    x, y = model.grid.cell_centers()
    phi0 = 0.5 * np.cos(np.pi * x) * np.cos(np.pi * y)
    state0 = SpectralState(0.0, project(phi0, basis),
                           project(np.ones(model.grid.shape), basis))
    res = integrate(state0, 1e-4, 4, model, basis, flow=True)
    assert isinstance(res, GalerkinResult)
    assert len(res.states) == 5  # stage 1 of every step, then the final state
    # constant viscosities: every stage's flow starts from the exact solve
    assert res.flow_iterations == 0
    assert all(np.any(s.v.u) and np.any(s.v.w) for s in res.states[1:])
    assert all(np.all(np.isfinite(f)) for s in res.states
               for f in (s.phi, s.mu, s.sigma, s.p, s.v.u, s.v.w))
    assert res.states[-1].t == pytest.approx(4e-4)


def test_repeated_integrations_are_bit_identical():
    # the projected start keeps nothing between integrate calls
    first, _, _, _ = _flow_run()
    again, _, _, _ = _flow_run()
    assert first.flow_iterations == again.flow_iterations == 0   # exact starts
    assert np.array_equal(first.a, again.a)
    assert np.array_equal(first.c, again.c)


def test_viscosity_contrast_converges_at_every_stage(monkeypatch):
    # eta from 1 to 10 across phi in [-1, 1]: the operator changes between
    # the stages whose flows the projected start mixes
    model = build_model(nx=16, ny=16, eta=CoefficientSpec(1.0, 10.0),
                        source=SourceSpec.lima(P=0.3, A=0.1, C=0.2, c_gamma_v=0.1))
    x, y = model.grid.cell_centers()
    basis = build_basis(4, model.grid)
    state0 = SpectralState(0.0, project(np.cos(np.pi * x) * np.cos(np.pi * y), basis),
                           project(np.ones(model.grid.shape), basis))
    reports, etas = [], []

    def spy(problem, tol, *args):
        sol = solve_brinkman(problem, tol, *args)
        reports.append(sol.report)
        etas.append(float(np.ptp(problem.eta)))
        return sol
    monkeypatch.setattr(brinkman, "solve_brinkman", spy)
    steps = 5
    res = integrate(state0, 1e-4, steps, model, basis, flow=True)
    assert len(reports) == 4 * steps + 1
    assert min(etas) > 8.0
    assert all(r.converged and r.rel_residual <= FLOW_TOL for r in reports)
    assert res.flow_iterations == sum(r.iterations for r in reports)


# ---------------------------------------------------------------------------
# projected start of the flow solves
# ---------------------------------------------------------------------------

def _flow_problems(weights, seed=5):
    """Brinkman problems on 10x10 sharing one operator (eta from 1 to 4 across
    x): problem i has force and divergence sum_j weights[i][j] (f_j, g_j)
    over fixed random data (f_j, g_j)."""
    grid = make_grid(1.0, 1.0, 10, 10)
    x, _ = grid.cell_centers()
    eta = 2.5 + 1.5 * np.tanh(4.0 * (x - 0.5))
    rng = np.random.default_rng(seed)
    weights = np.asarray(weights, dtype=float)
    data = [(rng.standard_normal((11, 10)), rng.standard_normal((10, 11)),
             0.1 * rng.standard_normal(grid.shape)) for _ in range(weights.shape[1])]
    return [BrinkmanProblem(grid, eta, np.zeros(grid.shape), 1.0,
                            FaceField(sum(c * d[0] for c, d in zip(row, data)),
                                      sum(c * d[1] for c, d in zip(row, data))),
                            sum(c * d[2] for c, d in zip(row, data)))
            for row in weights]


def _solved_pair(problem, x0=None):
    sol = solve_brinkman(problem, 1e-12, x0)
    assert sol.report.converged
    return sol.x, problem.rhs, sol.report


def test_projected_start_solves_a_rhs_in_the_stored_span():
    *stored, combined = _flow_problems(
        [np.eye(3)[0], np.eye(3)[1], np.eye(3)[2], [0.3, -0.7, 1.1]])
    window = ProjectedStart(FLOW_WINDOW)
    assert window.start(combined.rhs) is None
    for prob in stored:
        window.add(*_solved_pair(prob)[:2])
    x0 = window.start(combined.rhs)
    sol = solve_brinkman(combined, FLOW_TOL, x0)
    assert sol.report.converged
    assert sol.report.iterations == 0


def test_projected_start_of_a_repeated_pair_is_finite_and_the_window_bounded():
    probs = _flow_problems(np.eye(2 * FLOW_WINDOW + 1))
    x, b, _ = _solved_pair(probs[0])
    window = ProjectedStart(FLOW_WINDOW)
    window.add(x, b)
    window.add(x, b)  # the second copy collapses in the Gram-Schmidt pass
    x0 = window.start(b)
    assert np.all(np.isfinite(x0))
    np.testing.assert_allclose(x0, x, rtol=0.0, atol=1e-12 * np.max(np.abs(x)))
    exact = ProjectedStart(FLOW_WINDOW)  # here the second copy collapses to exactly 0
    exact.add(np.arange(1.0, 5.0), np.array([2.0, 0.0, 0.0, 0.0]))
    exact.add(np.arange(1.0, 5.0), np.array([2.0, 0.0, 0.0, 0.0]))
    assert np.array_equal(exact.start(np.array([1.0, 0.0, 0.0, 0.0])),
                          [0.5, 1.0, 1.5, 2.0])
    for prob in probs[1:]:
        window.add(*_solved_pair(prob)[:2])
        assert len(window) <= FLOW_WINDOW
        assert np.all(np.isfinite(window.start(b)))
    assert len(window) == FLOW_WINDOW


def test_projected_start_is_never_worse_than_the_newest_flow():
    # a smooth drift of the data, as between RK4 stages, long enough for the
    # window to slide; with one operator A, ||b - A x0|| <= ||b - A x_newest||
    times = 0.1 * np.arange(2 * FLOW_WINDOW)
    probs = _flow_problems([[1.0, t, t * t, np.sin(3.0 * t)] for t in times])
    op = brinkman_operator(probs[0])
    window = ProjectedStart(FLOW_WINDOW)
    newest = None
    gains = []
    for prob in probs:
        b = prob.rhs
        x0 = window.start(b)
        if newest is not None:
            start_res = np.linalg.norm(b - op.apply(x0))
            newest_res = np.linalg.norm(b - op.apply(newest))
            assert start_res <= newest_res + 1e-9 * np.linalg.norm(b)
            gains.append(start_res / newest_res)
        newest, b_solved, _ = _solved_pair(prob, x0)
        window.add(newest, b_solved)
    assert min(gains) < 1e-3  # four data vectors span every later rhs
