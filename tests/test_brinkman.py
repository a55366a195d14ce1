"""Brinkman saddle solver against the loop-assembled dense oracle."""
import gc
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from chbsim import brinkman, diagnostics, elliptic, io, timestepper, verify
from chbsim.constitutive import ModelParams, nutrient_energy
from chbsim.core import FaceField, make_grid
from chbsim.elliptic import (
    StencilOperator,
    materialize_dense,
    solve_minres,
)
from chbsim.brinkman import (
    BrinkmanProblem,
    brinkman_operator,
    capillary_force,
    dense_oracle_solve,
    divergence,
    energy_parts,
    loop_assemble_dense,
    solve_brinkman,
    strain_rates,
)


def problem(grid, nu=1.0, eta=1.0, lam=0.0, force=None, gamma_v=None):
    return BrinkmanProblem(
        grid,
        np.full(grid.shape, float(eta)),
        np.full(grid.shape, float(lam)),
        nu,
        force if force is not None else FaceField.zeros(grid),
        gamma_v if gamma_v is not None else np.zeros(grid.shape),
    )


def apply_brinkman(prob, v, p):
    """Momentum residual in PDE units plus the cell divergence, (mom_u,
    mom_w, div_v): for the exact solution mom == force and div_v == gamma_v.
    At wall faces the momentum includes the weak traction terms, so a
    constant pressure shows up there and nowhere else."""
    g = prob.grid
    au, aw, ap = np.empty(v.u.shape), np.empty(v.w.shape), np.empty(g.shape)
    brinkman._saddle_apply(prob)(v.u, v.w, p, au, aw, ap)
    return au / prob.vu, aw / prob.vw, -ap / g.cell_area


def random_data(grid, seed):
    rng = np.random.default_rng(seed)
    force = FaceField(rng.standard_normal((grid.nx + 1, grid.ny)),
                      rng.standard_normal((grid.nx, grid.ny + 1)))
    return force, 0.5 * rng.standard_normal(grid.shape)


# drawn grids (hx != hy in general) and coefficients; preconditioner tests
# draw sides up to 12, the dense loop-assembled oracle up to 8
SIDES = st.integers(4, 12)
LENGTHS = st.floats(0.5, 2.0)
FRICTIONS = st.floats(1e-2, 1e3)
SEEDS = st.integers(0, 2 ** 32 - 1)
TOL = 1e-11


# ---------------------------------------------------------------------------
# operator identities
# ---------------------------------------------------------------------------

def test_constant_velocity_feels_only_friction():
    grid = make_grid(1.0, 1.0, 8, 8)
    prob = problem(grid, nu=2.5)
    v = FaceField(np.full((grid.nx + 1, grid.ny), 0.7),
                  np.full((grid.nx, grid.ny + 1), -0.3))
    mom_u, mom_w, div = apply_brinkman(prob, v, np.zeros(grid.shape))
    np.testing.assert_allclose(mom_u, 2.5 * 0.7, atol=1e-12)
    np.testing.assert_allclose(mom_w, 2.5 * -0.3, atol=1e-12)
    np.testing.assert_allclose(div, 0.0, atol=1e-13)


def test_constant_pressure_appears_only_as_wall_traction():
    grid = make_grid(1.0, 1.0, 6, 6)
    prob = problem(grid)
    mom_u, mom_w, div = apply_brinkman(prob, FaceField.zeros(grid),
                                       np.full(grid.shape, 3.0))
    np.testing.assert_allclose(mom_u[1:-1, :], 0.0, atol=1e-13)
    np.testing.assert_allclose(mom_w[:, 1:-1], 0.0, atol=1e-13)
    # weak traction of the half-cell wall volumes: +-2p/h
    np.testing.assert_allclose(mom_u[0, :], 2.0 * 3.0 / grid.hx)
    np.testing.assert_allclose(mom_u[-1, :], -2.0 * 3.0 / grid.hx)
    np.testing.assert_allclose(div, 0.0, atol=1e-13)


def test_strain_rates_of_linear_shear():
    grid = make_grid(1.0, 1.0, 8, 8)
    _, yc = grid.cell_centers()
    u = np.broadcast_to(yc[0, :], (grid.nx + 1, grid.ny)).copy()  # u = y
    v = FaceField(u, np.zeros((grid.nx, grid.ny + 1)))
    dxx, dyy, dxy = strain_rates(v, grid)
    np.testing.assert_allclose(dxx, 0.0, atol=1e-14)
    np.testing.assert_allclose(dyy, 0.0, atol=1e-14)
    np.testing.assert_allclose(dxy, 0.5, atol=1e-13)
    np.testing.assert_allclose(divergence(v, grid), 0.0, atol=1e-14)


def test_divergence_is_the_sum_of_the_normal_strains_bit_for_bit():
    grid = make_grid(1.0, 1.5, 9, 7)
    force, _ = random_data(grid, 21)   # any face field
    dxx, dyy, _ = strain_rates(force, grid)
    assert np.array_equal(divergence(force, grid), dxx + dyy)


@st.composite
def saddle_problems(draw):
    """Drawn grids up to 8^2 with cell-wise eta in [0.1, 100] and lam in [0, 2]."""
    grid = make_grid(draw(LENGTHS), draw(LENGTHS), draw(st.integers(4, 8)),
                     draw(st.integers(4, 8)))
    eta, lam = (draw(arrays(float, grid.shape, elements=st.floats(lo, hi)))
                for lo, hi in ((0.1, 100.0), (0.0, 2.0)))
    force, gamma_v = random_data(grid, draw(SEEDS))
    return BrinkmanProblem(grid, eta, lam, draw(FRICTIONS), force, gamma_v)


@settings(max_examples=25, deadline=None)
@given(prob=saddle_problems(), seed=SEEDS)
def test_operator_matches_loop_assembled_matrix(prob, seed):
    mat, rhs = loop_assemble_dense(prob)
    scale = np.max(np.abs(mat))
    x = np.random.default_rng(seed).standard_normal(mat.shape[0])
    np.testing.assert_allclose(brinkman_operator(prob).apply(x), mat @ x,
                               rtol=0.0, atol=1e-13 * scale * np.max(np.abs(x)))
    np.testing.assert_allclose(prob.rhs, rhs, rtol=0.0, atol=1e-15 * np.max(np.abs(rhs)))
    assert np.max(np.abs(mat - mat.T)) <= 1e-15 * scale  # saddle symmetry


def test_operator_apply_keeps_the_evaluation_order():
    # the apply folds hx, hy, 2 eta, eta at the nodes and nu into
    # coefficient arrays and writes through scratch arrays; its bits must
    # equal the folded formula evaluated term by term (eta below 1, so that
    # the pressure terms show in the bits)
    grid = make_grid(1.0, 1.5, 7, 5)
    rng = np.random.default_rng(103)
    prob = BrinkmanProblem(grid, rng.uniform(0.01, 1.0, grid.shape),
                           rng.uniform(0.0, 1.0, grid.shape), 1.7,
                           FaceField.zeros(grid), np.zeros(grid.shape))
    op = brinkman_operator(prob)
    x = rng.standard_normal(op.shape)
    u, w, p = brinkman._unpack(x, grid)
    hx, hy = grid.hx, grid.hy
    dx = u[1:, :] - u[:-1, :]
    dy = w[:, 1:] - w[:, :-1]
    d = dx * (hy / hx) + dy
    ap = d * -hx
    lam_d = prob.lam * d
    pxx = (prob.eta * (2.0 * hy / hx)) * dx + lam_d - p * hy
    pyy = (prob.eta * (2.0 * hx / hy)) * dy + lam_d * (hx / hy) - (p * hy) * (hx / hy)
    su = u[1:-1, 1:] - u[1:-1, :-1]
    sw = w[1:, 1:-1] - w[:-1, 1:-1]
    qx = (prob.eta_nodes * (hx / hy)) * (su + sw * (hy / hx))
    qy = qx * (hy / hx)
    au = (prob.nu * prob.vu) * u
    au[1:, :] += pxx
    au[:-1, :] -= pxx
    au[1:-1, 1:] += qx
    au[1:-1, :-1] -= qx
    aw = (prob.nu * prob.vw) * w
    aw[:, 1:] += pyy
    aw[:, :-1] -= pyy
    aw[1:, 1:-1] += qy
    aw[:-1, 1:-1] -= qy
    assert np.array_equal(op.apply(x), np.concatenate([au.ravel(), aw.ravel(), ap.ravel()]))
    mom_u, mom_w, div_v = apply_brinkman(prob, FaceField(u, w), p)
    assert np.array_equal(mom_u, au / prob.vu) and np.array_equal(mom_w, aw / prob.vw)
    assert np.array_equal(div_v, -ap / grid.cell_area)


def test_operator_apply_on_power_of_two_spacings_keeps_the_unfolded_bits():
    # hx = 1/8, hy = 1/16: every folded scaling is exact, so the apply
    # reproduces the plain strain-rate formula bit for bit
    grid = make_grid(1.0, 0.5, 8, 8)
    rng = np.random.default_rng(107)
    prob = BrinkmanProblem(grid, rng.uniform(1.0, 100.0, grid.shape),
                           rng.uniform(0.0, 1.0, grid.shape), 1.7,
                           FaceField.zeros(grid), np.zeros(grid.shape))
    op = brinkman_operator(prob)
    x = rng.standard_normal(op.shape)
    u, w, p = brinkman._unpack(x, grid)
    hx, hy = grid.hx, grid.hy
    dxx, dyy, dxy = strain_rates(FaceField(u, w), grid)
    div = dxx + dyy
    pxx = (2.0 * prob.eta * dxx + prob.lam * div - p) * hy
    pyy = (2.0 * prob.eta * dyy + prob.lam * div - p) * hx
    qn = 2.0 * prob.eta_nodes * dxy
    au = prob.nu * u * prob.vu
    au[1:, :] += pxx
    au[:-1, :] -= pxx
    au[1:-1, 1:] += qn * hx
    au[1:-1, :-1] -= qn * hx
    aw = prob.nu * w * prob.vw
    aw[:, 1:] += pyy
    aw[:, :-1] -= pyy
    aw[1:, 1:-1] += qn * hy
    aw[:-1, 1:-1] -= qn * hy
    ap = -div * grid.cell_area
    assert np.array_equal(op.apply(x), np.concatenate([au.ravel(), aw.ravel(), ap.ravel()]))


def saddle_oracle(problem):
    """The saddle apply in the natural layout of each block: u, w, p and the
    cell and node arrays as 2-D slices, so every y-shift is a column-shifted
    view.  The kernel under test keeps its evaluation order element by
    element."""
    g = problem.grid
    hx, hy = g.hx, g.hy
    ryx, rxy = hy / hx, hx / hy
    times = brinkman._times
    cxx, cyy = problem.eta * (2.0 * ryx), problem.eta * (2.0 * rxy)
    cn, lam = problem.eta_nodes * rxy, problem.lam
    nvu, nvw = problem.nu * problem.vu, problem.nu * problem.vw
    dx, dy, d, hp, pxx, pyy, tmp = (np.empty(g.shape) for _ in range(7))
    su, sw, qx, qy = (np.empty((g.nx - 1, g.ny - 1)) for _ in range(4))

    def apply(u, w, p, au, aw, ap):
        np.subtract(u[1:, :], u[:-1, :], out=dx)
        np.subtract(w[:, 1:], w[:, :-1], out=dy)
        np.add(times(dx, ryx, d), dy, out=d)
        np.multiply(d, -hx, out=ap)
        np.multiply(lam, d, out=d)
        np.multiply(p, hy, out=hp)
        np.add(np.multiply(cxx, dx, out=pxx), d, out=pxx)
        np.subtract(pxx, hp, out=pxx)
        np.add(np.multiply(cyy, dy, out=pyy), times(d, rxy, tmp), out=pyy)
        np.subtract(pyy, times(hp, rxy, tmp), out=pyy)

        np.subtract(u[1:-1, 1:], u[1:-1, :-1], out=su)
        np.subtract(w[1:, 1:-1], w[:-1, 1:-1], out=sw)
        np.add(su, times(sw, ryx, sw), out=su)
        np.multiply(cn, su, out=qx)
        qh = times(qx, ryx, qy)

        np.multiply(nvu, u, out=au)
        au[1:, :] += pxx
        au[:-1, :] -= pxx
        au[1:-1, 1:] += qx
        au[1:-1, :-1] -= qx

        np.multiply(nvw, w, out=aw)
        aw[:, 1:] += pyy
        aw[:, :-1] -= pyy
        aw[1:, 1:-1] += qh
        aw[:-1, 1:-1] -= qh
    return apply


def bits(a):
    return np.ascontiguousarray(a).view(np.int64)


# grids with nx != ny and any spacing, powers of two among them
UNEQUAL_SIDES = st.tuples(SIDES, SIDES).filter(lambda sides: sides[0] != sides[1])
SPACINGS = st.floats(0.5, 2.0) | st.integers(-3, 2).map(lambda k: 2.0 ** k)


@settings(max_examples=60, deadline=None)
@given(sides=UNEQUAL_SIDES, spacing=st.tuples(SPACINGS, SPACINGS), nu=FRICTIONS,
       variable=st.booleans(), data=st.data())
def test_saddle_apply_equals_the_slice_oracle_bit_for_bit(sides, spacing, nu, variable,
                                                          data, kept_arrays):
    nx, ny = sides
    grid = make_grid(nx * spacing[0], ny * spacing[1], nx, ny)
    if variable:
        eta = data.draw(arrays(float, grid.shape, elements=st.floats(0.01, 100.0)))
        lam = data.draw(arrays(float, grid.shape, elements=st.floats(0.0, 2.0)))
    else:
        eta, lam = np.full(grid.shape, data.draw(st.floats(0.01, 100.0))), np.zeros(grid.shape)
    prob = BrinkmanProblem(grid, eta, lam, nu, FaceField.zeros(grid), np.zeros(grid.shape))
    op = brinkman_operator(prob)
    oracle = saddle_oracle(prob)
    scratch = kept_arrays(op.apply)
    # a second call sees the scratch the first one left; zeros of random
    # sign show where a signed zero reaches a face that it should leave alone
    zeros = np.random.default_rng(data.draw(SEEDS)).choice([0.0, -0.0], op.shape)
    for x in (data.draw(arrays(float, op.shape, elements=st.floats(-10.0, 10.0))), zeros):
        x_in = x.copy()
        want = np.empty(op.shape)
        oracle(*brinkman._unpack(x, grid), *brinkman._unpack(want, grid))
        got = op.apply(x)
        np.testing.assert_array_equal(bits(got), bits(want))
        np.testing.assert_array_equal(bits(x), bits(x_in))
        assert not any(np.shares_memory(got, a) for a in scratch)
        u, w, p = brinkman._unpack(x, grid)
        mom_u, mom_w, div_v = apply_brinkman(prob, FaceField(u, w), p)
        wu, ww, wp = brinkman._unpack(want, grid)
        np.testing.assert_array_equal(bits(mom_u), bits(wu / prob.vu))
        np.testing.assert_array_equal(bits(mom_w), bits(ww / prob.vw))
        np.testing.assert_array_equal(bits(div_v), bits(-wp / grid.cell_area))


@pytest.mark.parametrize("contrast, lam", [(1.0, 0.0), (100.0, 0.3)])
def test_operator_and_preconditioner_return_fresh_arrays(contrast, lam):
    # both reuse scratch arrays from call to call (the preconditioner at
    # constant and at variable viscosity); what a call returns must not be
    # one of them, and no call may write into its input
    prob = disc_problem(make_grid(1.0, 1.5, 9, 7), contrast, 2.0, lam)
    rng = np.random.default_rng(5)
    for apply in (brinkman_operator(prob).apply, brinkman._block_preconditioner(prob)):
        a, b = rng.standard_normal((2, prob.rhs.size))
        a_in, b_in = a.copy(), b.copy()
        first = apply(a)
        kept = first.copy()
        second = apply(b)
        assert not np.shares_memory(first, second)
        assert np.array_equal(first, kept)
        assert np.array_equal(a, a_in) and np.array_equal(b, b_in)
        assert np.array_equal(apply(a), kept)


# ---------------------------------------------------------------------------
# solves
# ---------------------------------------------------------------------------

def test_zero_data_gives_zero_flow():
    grid = make_grid(1.0, 1.0, 8, 8)
    sol = solve_brinkman(problem(grid), TOL)
    np.testing.assert_allclose(sol.v.u, 0.0, atol=1e-13)
    np.testing.assert_allclose(sol.v.w, 0.0, atol=1e-13)
    np.testing.assert_allclose(sol.p, 0.0, atol=1e-13)


def test_constant_force_drives_uniform_darcy_flow():
    grid = make_grid(1.0, 1.0, 16, 16)
    nu, c = 2.0, 0.6
    force = FaceField(np.full((grid.nx + 1, grid.ny), c),
                      np.zeros((grid.nx, grid.ny + 1)))
    prob = problem(grid, nu=nu, force=force)
    sol = solve_brinkman(prob, TOL)
    assert sol.report.converged
    np.testing.assert_allclose(sol.v.u, c / nu, atol=1e-10)
    np.testing.assert_allclose(sol.v.w, 0.0, atol=1e-10)
    np.testing.assert_allclose(sol.p, 0.0, atol=1e-10)
    mom_u, mom_w, _ = apply_brinkman(prob, sol.v, sol.p)
    assert max(np.max(np.abs(mom_u - force.u)), np.max(np.abs(mom_w - force.w))) < 1e-9
    assert sol.divergence_residual < 1e-10


def manufactured_flow(grid, eta, lam, nu, k):
    """(problem, u, w, p) of the manufactured flow at constant eta and lam:
    u = sin(pi x) cos(pi y), w = cos(pi x) sin(pi y) and
    p = (2 eta + 2 lam) pi cos(pi x) cos(pi y) + k sin(pi x) sin(pi y), on
    the unit square.  The shear strain and the normal traction vanish on
    every wall, gamma_v = div v = 2 pi cos(pi x) cos(pi y), and the force is
    f_u = (2 eta pi^2 + nu) sin(pi x) cos(pi y) + k pi cos(pi x) sin(pi y),
    f_w its mirror image."""
    pi = np.pi
    xc, yc = grid.cell_centers()
    xu, yu = np.arange(grid.nx + 1)[:, None] * grid.hx, yc[:1, :]
    xw, yw = xc[:, :1], np.arange(grid.ny + 1)[None, :] * grid.hy
    u = np.sin(pi * xu) * np.cos(pi * yu)
    w = np.cos(pi * xw) * np.sin(pi * yw)
    p = (2.0 * eta + 2.0 * lam) * pi * np.cos(pi * xc) * np.cos(pi * yc) \
        + k * np.sin(pi * xc) * np.sin(pi * yc)
    force = FaceField((2.0 * eta * pi ** 2 + nu) * u + k * pi * np.cos(pi * xu) * np.sin(pi * yu),
                      (2.0 * eta * pi ** 2 + nu) * w + k * pi * np.sin(pi * xw) * np.cos(pi * yw))
    gamma_v = 2.0 * pi * np.cos(pi * xc) * np.cos(pi * yc)
    return problem(grid, nu=nu, eta=eta, lam=lam, force=force, gamma_v=gamma_v), u, w, p


@pytest.mark.parametrize("eta, lam, nu, k", [(1.0, 0.0, 1.0, 0.0), (1.0, 0.5, 10.0, 3.0)])
def test_manufactured_flow_converges_at_second_order(eta, lam, nu, k):
    # solve_brinkman above the dense oracle's 12^2: L2 errors of u, w (face
    # volumes) and p (cells) halve twice per halving of h
    errors = []
    for n in (16, 32, 64):
        prob, u, w, p = manufactured_flow(make_grid(1.0, 1.0, n, n), eta, lam, nu, k)
        sol = solve_brinkman(prob, 1e-12)
        assert sol.report.converged, sol.report
        errors.append([np.sqrt(np.sum((sol.v.u - u) ** 2 * prob.vu)),
                       np.sqrt(np.sum((sol.v.w - w) ** 2 * prob.vw)),
                       np.sqrt(np.sum((sol.p - p) ** 2) * prob.grid.cell_area)])
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    lo, hi = verify.SPACE_ORDER
    assert np.all((orders > lo) & (orders < hi)), orders


def test_krylov_solution_matches_dense_oracle():
    grid = make_grid(1.0, 1.0, 8, 8)
    x, y = grid.cell_centers()
    gamma_v = 0.3 * np.cos(np.pi * x) * np.cos(np.pi * y)
    prob = problem(grid, nu=1.0, eta=0.8, lam=0.2, gamma_v=gamma_v)
    krylov = solve_brinkman(prob, TOL)
    direct = dense_oracle_solve(prob)
    assert krylov.report.converged
    np.testing.assert_allclose(krylov.v.u, direct.v.u, atol=1e-8)
    np.testing.assert_allclose(krylov.v.w, direct.v.w, atol=1e-8)
    np.testing.assert_allclose(krylov.p, direct.p, atol=1e-8)
    assert krylov.divergence_residual < 1e-10
    # prescribed divergence is actually met
    np.testing.assert_allclose(divergence(krylov.v, grid), gamma_v, atol=1e-9)


def test_resolve_is_deterministic():
    grid = make_grid(1.0, 1.0, 8, 8)
    rng = np.random.default_rng(7)
    force = FaceField(rng.standard_normal((grid.nx + 1, grid.ny)),
                      rng.standard_normal((grid.nx, grid.ny + 1)))
    a = solve_brinkman(problem(grid, force=force), TOL)
    b = solve_brinkman(problem(grid, force=force), TOL)
    assert np.array_equal(a.v.u, b.v.u) and np.array_equal(a.p, b.p)


def test_energy_identity_holds_for_the_solution():
    grid = make_grid(1.0, 1.0, 10, 10)
    x, y = grid.cell_centers()
    force = FaceField(np.zeros((grid.nx + 1, grid.ny)),
                      np.zeros((grid.nx, grid.ny + 1)))
    force.u[1:-1, :] = np.sin(np.pi * 0.5 * (x[1:, :] + x[:-1, :]))
    prob = problem(grid, nu=1.0, eta=0.5, lam=0.3, force=force,
                   gamma_v=0.1 * np.cos(np.pi * x) * np.cos(np.pi * y))
    sol = solve_brinkman(prob, TOL)
    parts = energy_parts(prob, sol.v, sol.p)
    assert parts["dissipation"] >= 0.0
    lhs = parts["dissipation"]
    rhs = parts["force_work"] + parts["pressure_work"]
    assert lhs == pytest.approx(rhs, rel=1e-7, abs=1e-10)


def test_dense_oracle_rejects_frictionless_singular_system():
    grid = make_grid(1.0, 1.0, 6, 6)
    prob = problem(grid, nu=0.0)
    with pytest.raises(np.linalg.LinAlgError):
        dense_oracle_solve(prob)
    with pytest.raises(ValueError):
        dense_oracle_solve(problem(make_grid(1.0, 1.0, 16, 16)))


def test_problem_validation():
    grid = make_grid(1.0, 1.0, 6, 6)
    with pytest.raises(ValueError):
        BrinkmanProblem(grid, np.zeros(grid.shape), np.zeros(grid.shape), 1.0,
                        FaceField.zeros(grid), np.zeros(grid.shape))
    with pytest.raises(ValueError):
        BrinkmanProblem(grid, np.ones(grid.shape), -np.ones(grid.shape), 1.0,
                        FaceField.zeros(grid), np.zeros(grid.shape))


@pytest.mark.parametrize("bad", ["inf everywhere", "one nan cell"])
def test_problem_rejects_non_finite_viscosity(bad):
    # np.ptp of an all-inf eta is nan, which sent the preconditioner's
    # variable-coefficient branch into endless recursion
    grid = make_grid(1.0, 1.0, 6, 6)
    eta = np.ones(grid.shape)
    if bad == "inf everywhere":
        eta[:] = np.inf
    else:
        eta[2, 3] = np.nan
    with pytest.raises(ValueError, match="finite"):
        BrinkmanProblem(grid, eta, np.zeros(grid.shape), 1.0,
                        FaceField.zeros(grid), np.zeros(grid.shape))


# ---------------------------------------------------------------------------
# block preconditioner
# ---------------------------------------------------------------------------

@pytest.fixture
def block_calls(monkeypatch):
    """Counts the solves that build the cosine-transform block preconditioner."""
    calls = []
    original = brinkman._block_preconditioner

    def spy(problem):
        calls.append(problem)
        return original(problem)
    monkeypatch.setattr(brinkman, "_block_preconditioner", spy)
    return calls


@settings(max_examples=10, deadline=None)
@given(nx=SIDES, ny=SIDES, lx=LENGTHS, ly=LENGTHS, nu=FRICTIONS,
       eta=st.floats(0.1, 10.0), lam=st.floats(0.0, 2.0), seed=SEEDS)
def test_block_preconditioner_is_symmetric_positive_definite(nx, ny, lx, ly, nu,
                                                            eta, lam, seed):
    grid = make_grid(lx, ly, nx, ny)
    force, gamma_v = random_data(grid, seed)
    prob = problem(grid, nu=nu, eta=eta, lam=lam, force=force, gamma_v=gamma_v)
    n = prob.rhs.size
    mat = materialize_dense(StencilOperator(brinkman._block_preconditioner(prob),
                                            (n,), symmetric=True))
    assert np.max(np.abs(mat - mat.T)) <= 1e-14 * np.max(np.abs(mat))
    assert np.min(np.linalg.eigvalsh(mat)) > 0.0


def saddle_inverse(prob):
    """The exact inverse of prob's constant-coefficient saddle matrix, densely."""
    apply = brinkman._saddle_inverse(prob.grid, float(prob.eta[0, 0]),
                                     float(prob.lam[0, 0]), prob.nu)
    return materialize_dense(StencilOperator(apply, (prob.rhs.size,)))


def assert_inverts_the_saddle_matrix(prob):
    # |K^-1 A - I| is round-off, of order eps cond(A) for a backward-stable
    # inverse
    a = loop_assemble_dense(prob)[0]
    residual = np.max(np.abs(saddle_inverse(prob) @ a - np.eye(len(a))))
    assert residual <= 64 * np.finfo(float).eps * np.linalg.cond(a), residual


@pytest.mark.parametrize("n", [2, 5, 32, 127, 256])
def test_node_sines_are_the_dst1_in_the_cell_mode_frame(n):
    # sqrt(2 / n) sin(pi k i / n) on the n + 1 nodes, zero on the wall rows
    # and in the padding column k = 0, to a few eps; the n - 1 interior
    # modes are orthonormal
    s = brinkman._node_sines(n)
    i, k = np.meshgrid(np.arange(n + 1), np.arange(n), indexing="ij")
    want = np.sqrt(2.0 / n) * np.sin(np.pi * (i * k % (2 * n)) / n)
    want[[0, n], :] = want[:, 0] = 0.0
    eps = np.finfo(float).eps
    assert np.max(np.abs(s - want)) <= 4 * eps
    assert np.all(s[[0, n], :] == 0.0) and np.all(s[:, 0] == 0.0)
    assert np.max(np.abs(s[:, 1:].T @ s[:, 1:] - np.eye(n - 1))) <= 8 * eps


@pytest.mark.parametrize("nx, ny, tables", [(12, 12, 1), (12, 10, 2)])
def test_a_square_grid_builds_its_exact_inverse_from_one_table(nx, ny, tables):
    elliptic.trig_table.cache_clear()
    elliptic.laplacian_basis.cache_clear()
    brinkman._saddle_inverse(make_grid(1.0, 1.0, nx, ny), 1.0, 0.0, 1.0)
    assert elliptic.trig_table.cache_info().misses == tables


@pytest.mark.parametrize("nx, ny", [(8, 6), (7, 9)])
@pytest.mark.parametrize("lam", [0.0, 0.4])
@pytest.mark.parametrize("nu", [1e-2, 1.0, 1e3])
def test_saddle_inverse_inverts_the_constant_coefficient_saddle_matrix(nx, ny, lam, nu):
    # hx = 1/8 or 1/7 against hy = 1/4 or 1/6; odd sides put a face on
    # each mirror line
    assert_inverts_the_saddle_matrix(
        problem(make_grid(1.0, 1.5, nx, ny), nu=nu, eta=0.8, lam=lam))


@settings(max_examples=10, deadline=None)
@given(nx=SIDES, ny=SIDES, lx=LENGTHS, ly=LENGTHS, log_nu=st.floats(-2.0, 3.0),
       eta=st.floats(0.1, 10.0), lam=st.one_of(st.just(0.0), st.floats(0.0, 2.0)))
def test_saddle_inverse_inverts_drawn_saddle_matrices(nx, ny, lx, ly, log_nu, eta, lam):
    assert_inverts_the_saddle_matrix(
        problem(make_grid(lx, ly, nx, ny), nu=10.0 ** log_nu, eta=eta, lam=lam))


# the benchmark's hetero_io config: eta and lam follow phi
HETERO_IO = io.RunConfig(
    nx=64, ny=64, dt=1e-4, t_end=5e-4, epsilon=0.1, chi_sigma=1.0, chi_phi=0.5,
    nu=10.0, b=1.0, mobility=(1e-3, 5e-3), nutrient_mobility=(0.05, 0.05),
    viscosity=(1.0, 100.0), bulk_viscosity=(0.0, 0.5), source="lima",
    source_P=0.05, source_A=0.01, source_C=0.025, c_gamma_v=0.05,
    phi0="tanh_disc", phi0_radius=0.25, sigma0="cosine", sigma0_value=1.0,
    sigma0_amplitude=0.05)


def first_flow(cfg):
    """The Brinkman problem of cfg's first step."""
    model = cfg.model_spec()
    level = diagnostics.time_level(cfg.initial_state(), model)
    return diagnostics.old_level(level, model, True).flow


@pytest.mark.parametrize("cfg", [replace(c, nx=20, ny=20)
                                 for c in (verify.DISC, verify.COUPLED, HETERO_IO)],
                         ids=["disc", "coupled", "hetero_io"])
def test_exact_blocks_through_the_composition_take_three_iterations(cfg):
    # With A_vv^-1 and the exact Schur inverse (G^T A_vv^-1 G)^-1 as the
    # velocity and pressure parts, the preconditioned saddle matrix has the
    # three eigenvalues 1 and (1 +- sqrt 5) / 2, so MINRES ends after 3
    # iterations.  Left out: an off-centre disc at nu = 1e-2, where the net
    # capillary force meets friction alone in a nearly rigid slide, A_vv is
    # nearly singular, and rounding spreads the three eigenvalues (19
    # iterations with both parts exact at 20^2).
    prob = first_flow(cfg)
    mat = loop_assemble_dense(prob)[0]
    nv = prob.vu.size + prob.vw.size
    a_inv = np.linalg.inv(mat[:nv, :nv])
    g = mat[:nv, nv:]
    s_inv = np.linalg.inv(g.T @ a_inv @ g)

    def velocity(ru, rw, zu, zw):
        z = a_inv @ np.concatenate([ru.ravel(), rw.ravel()])
        zu[...] = z[:zu.size].reshape(zu.shape)
        zw[...] = z[zu.size:].reshape(zw.shape)

    def pressure(rp, zp):
        zp[...] = (s_inv @ rp.ravel()).reshape(zp.shape)

    _, rep = solve_minres(brinkman_operator(prob), prob.rhs, TOL,
                          precond=brinkman._compose(prob.grid, velocity, pressure))
    assert rep.converged and rep.iterations <= 3, rep


@pytest.fixture
def minres_calls(monkeypatch):
    """Counts the calls of `solve_minres` that brinkman makes."""
    calls = []
    original = brinkman.solve_minres

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)
    monkeypatch.setattr(brinkman, "solve_minres", spy)
    return calls


@pytest.mark.parametrize("cfg", [verify.DISC, verify.COUPLED, verify.GALERKIN],
                         ids=["disc", "coupled", "galerkin"])
def test_constant_viscosity_first_flows_take_no_minres_iteration(cfg, block_calls,
                                                                 minres_calls):
    # the exact start K^-1 rhs already meets the run's flow tolerance: a
    # direct solve and a window solve alike never call MINRES nor build the
    # block preconditioner
    prob = first_flow(cfg)
    assert prob.constant is not None
    for solve in (solve_brinkman, brinkman.ProjectedStart(4).solve):
        sol = solve(prob, timestepper.FLOW_TOL)
        assert sol.report.converged and sol.report.iterations == 0, sol.report
    assert block_calls == [] and minres_calls == []


def test_refined_start_at_small_friction_is_not_spoilt_by_minres(block_calls, minres_calls):
    # a random force at nu = 1e-3: the refined start reads ~9.7e-11, within
    # 10 FLOW_TOL; MINRES from it used to end at ~1.4e-10 after 53
    # iterations, an unconverged report that failed the step
    grid = make_grid(1.0, 1.0, 64, 64)
    force, gamma_v = random_data(grid, 11)
    prob = problem(grid, nu=1e-3, eta=3.16, lam=0.5, force=force, gamma_v=gamma_v)
    sol = solve_brinkman(prob, timestepper.FLOW_TOL)
    assert sol.report.converged and sol.report.iterations == 0, sol.report
    assert block_calls == [] and minres_calls == []


def smooth_problem(n, nu):
    """Constant eta = 1 on n x n cells: u force sin(pi x), gamma_v = 0.3
    cos(pi x) cos(pi y)."""
    grid = make_grid(1.0, 1.0, n, n)
    x, y = grid.cell_centers()
    force = FaceField(np.zeros((n + 1, n)), np.zeros((n, n + 1)))
    force.u[1:-1, :] = np.sin(np.pi * 0.5 * (x[1:, :] + x[:-1, :]))
    return problem(grid, nu=nu, force=force,
                   gamma_v=0.3 * np.cos(np.pi * x) * np.cos(np.pi * y))


def counted_exact_path(monkeypatch, spoil):
    """Patch the operator and the exact inverse to count their applies, the
    inverse spoilt by the factor 1 + spoil; returns the two tallies."""
    applies, inverses = [], []
    operator, inverse = brinkman.brinkman_operator, brinkman._saddle_inverse

    def counted_operator(p):
        op = operator(p)
        apply = op.apply
        op.apply = lambda x: applies.append(1) or apply(x)
        return op

    def spoilt(*args):
        exact = inverse(*args)
        return lambda x: inverses.append(1) or exact(x) * (1.0 + spoil)
    monkeypatch.setattr(brinkman, "brinkman_operator", counted_operator)
    monkeypatch.setattr(brinkman, "_saddle_inverse", spoilt)
    return applies, inverses


def test_refined_exact_start_meets_the_flow_tolerance_at_128(block_calls, monkeypatch):
    # rounding leaves K^-1 rhs at a relative residual of ~4.5e-11 here,
    # above FLOW_TOL = 1e-11; one refinement (one more apply of A and of
    # K^-1) reaches ~5e-12
    prob = smooth_problem(128, 1.0)
    start = brinkman._saddle_inverse(prob.grid, 1.0, 0.0, 1.0)(prob.rhs)
    residual = prob.rhs - brinkman_operator(prob).apply(start)
    assert np.linalg.norm(residual) > 1e-11 * np.linalg.norm(prob.rhs)
    applies, inverses = counted_exact_path(monkeypatch, 0.0)
    sol = solve_brinkman(prob, timestepper.FLOW_TOL)
    assert sol.report.converged and sol.report.iterations == 0, sol.report
    assert sol.report.rel_residual <= timestepper.FLOW_TOL
    assert block_calls == [] and len(applies) == 2 and len(inverses) == 2


def test_exact_start_that_misses_after_its_refinement_fails_the_step(
        block_calls, minres_calls, monkeypatch):
    # an exact inverse spoilt by a factor 1 + 1e-3 leaves the start and its
    # one refinement at relative residuals of ~1e-3 and ~1e-6: the report is
    # unconverged with 0 iterations, no MINRES runs, and the step fails
    counted_exact_path(monkeypatch, 1e-3)
    cfg = replace(verify.DISC, nx=16, ny=16)
    model = cfg.model_spec()
    old = diagnostics.old_level(diagnostics.time_level(cfg.initial_state(), model),
                                model, True)
    sol = solve_brinkman(old.flow, timestepper.FLOW_TOL)
    assert not sol.report.converged and sol.report.iterations == 0, sol.report
    assert 1e-7 < sol.report.rel_residual < 1e-5, sol.report
    with pytest.raises(timestepper.StepFailure, match="flow"):
        timestepper.solve_flow(old, brinkman.ProjectedStart(4))
    assert block_calls == [] and minres_calls == []


def test_exact_solve_refines_a_start_that_misses_once(monkeypatch):
    # K^-1 spoilt by 1 + 1e-4 leaves K^-1 b at 1e-4 of b and its one
    # refinement at 1e-8: at tol 1e-6 the refined start meets the goal at
    # one more apply of A and of K^-1; at tol 1e-12 it still misses, and the
    # solve ends there with no second refinement
    applies, inverses = counted_exact_path(monkeypatch, 1e-4)
    prob = smooth_problem(16, 1.0)
    for tol, converged in ((1e-6, True), (1e-12, False)):
        del applies[:], inverses[:]
        rep = solve_brinkman(prob, tol).report
        assert rep.converged == converged and rep.iterations == 0, rep
        assert rep.rel_residual == pytest.approx(1e-8, rel=1e-2), rep
        assert len(applies) == 2 and len(inverses) == 2


def test_exact_solve_of_a_start_that_meets_the_goal_is_not_refined(monkeypatch):
    # the refinement runs only on a miss: K^-1 b within tol, or a given
    # start within it, costs the one apply that measures it
    applies, inverses = counted_exact_path(monkeypatch, 1e-4)
    prob = smooth_problem(16, 1.0)
    sol = solve_brinkman(prob, 1e-3)
    assert sol.report.converged and sol.report.rel_residual > 1e-5, sol.report
    assert len(applies) == 1 and len(inverses) == 1
    x0 = sol.x.copy()
    again = solve_brinkman(prob, 1e-3, x0)
    assert again.report == sol.report and len(applies) == 2 and len(inverses) == 1
    assert np.array_equal(again.x, x0) and not np.shares_memory(again.x, x0)


@pytest.mark.parametrize("lam", [0.0, 0.3])
@pytest.mark.parametrize("nu", [1e-2, 1.0, 1e3])
def test_exact_path_matches_dense_oracle(block_calls, nu, lam):
    grid = make_grid(1.0, 1.5, 8, 6)
    force, gamma_v = random_data(grid, 11)
    prob = problem(grid, nu=nu, eta=0.8, lam=lam, force=force, gamma_v=gamma_v)
    krylov = solve_brinkman(prob, 1e-13)
    direct = dense_oracle_solve(prob)
    # constant viscosities: the exact inverse, with no block preconditioner
    assert block_calls == [] and krylov.report.converged
    for a, b in ((krylov.v.u, direct.v.u), (krylov.v.w, direct.v.w),
                 (krylov.p, direct.p)):
        np.testing.assert_allclose(a, b, atol=1e-10 * np.max(np.abs(b)))


@pytest.mark.parametrize("nu", [1.0, 1e3])
def test_block_preconditioner_iterations_from_zero_do_not_grow_with_the_grid(nu):
    # the block preconditioner serves variable viscosities only; from zero,
    # its iteration count on the smooth problem is set by the preconditioner
    iters = []
    for n in (16, 64):
        prob = smooth_problem(n, nu)
        _, rep = solve_minres(brinkman_operator(prob), prob.rhs, TOL,
                              precond=brinkman._block_preconditioner(prob))
        assert rep.converged
        iters.append(rep.iterations)
    assert iters[1] <= 1.5 * iters[0], iters


def disc_problem(grid, contrast, nu, lam, seed=11):
    """Off-centre tanh disc of width eps = 0.1: eta from 1 outside to
    `contrast` inside, lam from 0 to `lam`, random force and divergence."""
    x, y = grid.cell_centers()
    frac = 0.5 * (1.0 + np.tanh((0.25 - np.hypot(x - 0.4, y - 0.55)) / (np.sqrt(2.0) * 0.1)))
    force, gamma_v = random_data(grid, seed)
    return BrinkmanProblem(grid, 1.0 + (contrast - 1.0) * frac, lam * frac, nu,
                           force, gamma_v)


@settings(max_examples=10, deadline=None)
@given(nx=SIDES, ny=SIDES, lx=LENGTHS, ly=LENGTHS, nu=FRICTIONS,
       contrast=st.floats(1.0, 1e3), seed=SEEDS, constant=st.booleans())
def test_rescaled_block_preconditioner_is_symmetric_positive_definite(
        nx, ny, lx, ly, nu, contrast, seed, constant):
    # cell-wise random eta in [0.5, 0.5 contrast] and lam in [0, 2], or the
    # values of one cell on every cell, where the rescaling is 1 up to
    # rounding
    grid = make_grid(lx, ly, nx, ny)
    rng = np.random.default_rng(seed)
    force, gamma_v = random_data(grid, seed)
    eta, lam = rng.uniform(0.5, 0.5 * contrast, grid.shape), rng.uniform(0.0, 2.0, grid.shape)
    if constant:
        eta, lam = np.full(grid.shape, eta[0, 0]), np.full(grid.shape, lam[0, 0])
    prob = BrinkmanProblem(grid, eta, lam, nu, force, gamma_v)
    assert (prob.constant is not None) == constant
    n = prob.rhs.size
    mat = materialize_dense(StencilOperator(brinkman._block_preconditioner(prob),
                                            (n,), symmetric=True))
    assert np.max(np.abs(mat - mat.T)) <= 1e-14 * np.max(np.abs(mat))
    assert np.min(np.linalg.eigvalsh(mat)) > 0.0


@pytest.mark.parametrize("contrast, nu, lam", [
    (c, nu, lam) for c in (10.0, 100.0) for nu in (1.0, 1e3) for lam in (0.0, 0.3)
] + [(10.0, 1e-2, 0.0), (10.0, 1e-2, 0.3)])
def test_rescaled_block_path_matches_dense_oracle(block_calls, contrast, nu, lam):
    prob = disc_problem(make_grid(1.0, 1.5, 8, 6), contrast, nu, lam)
    krylov = solve_brinkman(prob, 1e-12)
    direct = dense_oracle_solve(prob)
    assert block_calls and krylov.report.converged
    for a, b in ((krylov.v.u, direct.v.u), (krylov.v.w, direct.v.w),
                 (krylov.p, direct.p)):
        np.testing.assert_allclose(a, b, atol=1e-10 * np.max(np.abs(b)))


EPS = brinkman._PRESSURE_EPS
LOG_FRICTIONS = st.floats(-2.0, 3.0).map(lambda e: 10.0 ** e)


def pressure_block(prob):
    """The pressure block of the constant-coefficient block preconditioner,
    densely: its p output for each unit p input."""
    apply = brinkman._block_preconditioner(prob)
    n, m = prob.rhs.size, prob.grid.nx * prob.grid.ny
    e, cols = np.zeros(n), []
    for k in range(n - m, n):
        e[k] = 1.0
        cols.append(apply(e)[n - m:])
        e[k] = 0.0
    return np.array(cols).T


def full_pressure_modes(prob):
    """Q and s of the full Cahouet-Chabard block Q diag(s) Q^T =
    (nu (-Lap_D)^-1 + 2 eta + lam) / vol, Q the DST-II tensor basis."""
    g = prob.grid
    (qx, lx), (qy, ly) = (elliptic.laplacian_basis(n, "dirichlet") for n in g.shape)
    kappa = lx[:, None] / g.hx ** 2 + ly[None, :] / g.hy ** 2
    ce = 2.0 * float(prob.eta[0, 0]) + float(prob.lam[0, 0])
    return np.kron(qx, qy), ((prob.nu / kappa + ce) / g.cell_area).ravel()


@settings(max_examples=15, deadline=None)
@given(nx=SIDES, ny=SIDES, lx=LENGTHS, ly=LENGTHS, nu=LOG_FRICTIONS,
       eta=st.floats(0.1, 10.0), lam=st.floats(0.0, 2.0))
def test_low_rank_pressure_block_is_spd_and_within_eps_of_the_full_block(
        nx, ny, lx, ly, nu, eta, lam):
    # the dropped modes get ce / vol in place of (nu / kappa + ce) / vol
    # with nu / kappa <= EPS ce: the generalized eigenvalues of the new
    # block against the full one lie in [1 / (1 + EPS), 1]
    prob = problem(make_grid(lx, ly, nx, ny), nu=nu, eta=eta, lam=lam)
    new = pressure_block(prob)
    assert np.max(np.abs(new - new.T)) <= 1e-14 * np.max(np.abs(new))
    assert np.min(np.linalg.eigvalsh(new)) > 0.0
    q, s = full_pressure_modes(prob)
    root = q * s ** -0.5        # P_full^(-1/2) = Q diag(s^(-1/2)) Q^T
    ratio = np.linalg.eigvalsh(root.T @ new @ root)
    assert ratio.min() >= (1.0 - 1e-12) / (1.0 + EPS), ratio.min()
    assert ratio.max() <= 1.0 + 1e-12, ratio.max()


def test_low_rank_pressure_block_keeps_every_mode_at_large_friction():
    prob = problem(make_grid(1.0, 1.5, 8, 6), nu=1e3, eta=0.8, lam=0.3)
    q, s = full_pressure_modes(prob)
    full = (q * s) @ q.T
    np.testing.assert_allclose(pressure_block(prob), full, rtol=0.0,
                               atol=1e-14 * np.max(np.abs(full)))


@settings(max_examples=10, deadline=None)
@given(nx=SIDES, ny=SIDES, lx=LENGTHS, ly=LENGTHS, eta=st.floats(1.0, 10.0),
       lam=st.floats(0.0, 2.0))
def test_low_rank_pressure_block_without_kept_modes_is_a_multiple_of_identity(
        nx, ny, lx, ly, eta, lam):
    # nu / kappa <= 1e-2 / (pi^2 (1 / lx^2 + 1 / ly^2)) < EPS (2 eta + lam)
    grid = make_grid(lx, ly, nx, ny)
    new = pressure_block(problem(grid, nu=1e-2, eta=eta, lam=lam))
    assert np.array_equal(new, (2.0 * eta + lam) / grid.cell_area * np.eye(nx * ny))


@pytest.mark.parametrize("contrast, nu, start", [
    (1.0, 1e3, False), (100.0, 1.0, True), (10.0, 1e-2, False)])
def test_minres_applies_the_preconditioner_once_per_iteration_and_recurrence(
        monkeypatch, contrast, nu, start):
    # the last case restarts its recurrence (see the test below); no other
    # apply, e.g. one for the preconditioned norm of rhs, may be made
    cycles, applies = [], []
    original = elliptic._minres_cycle

    def spy(*args):
        cycles.append(args)
        return original(*args)
    monkeypatch.setattr(elliptic, "_minres_cycle", spy)
    prob = disc_problem(make_grid(1.0, 1.5, 8, 6), contrast, nu, 0.3)
    block = brinkman._block_preconditioner(prob)

    def counted(a):
        applies.append(a)
        return block(a)
    x0 = np.random.default_rng(4).standard_normal(prob.rhs.size) if start else None
    _, rep = solve_minres(brinkman_operator(prob), prob.rhs, 1e-12, x0, precond=counted)
    assert rep.converged and cycles
    assert len(applies) == rep.iterations + len(cycles)


def test_detached_estimate_restarts_from_the_true_residual(monkeypatch):
    # at nu = 1e-2 the preconditioned-norm estimate keeps falling after the
    # true residual has stalled; the check sees the true residual fall less
    # than 100x and restarts from it, where continuing the one recurrence
    # runs past a thousand iterations without converging
    cycles = []
    original = elliptic._minres_cycle

    def spy(*args):
        cycles.append(args)
        return original(*args)
    monkeypatch.setattr(elliptic, "_minres_cycle", spy)
    prob = disc_problem(make_grid(1.0, 1.5, 8, 6), 10.0, 1e-2, 0.0)
    krylov = solve_brinkman(prob, 1e-12)
    direct = dense_oracle_solve(prob)
    assert len(cycles) >= 2 and krylov.report.converged, krylov.report
    assert krylov.report.iterations <= 1000, krylov.report
    for a, b in ((krylov.v.u, direct.v.u), (krylov.v.w, direct.v.w),
                 (krylov.p, direct.p)):
        np.testing.assert_allclose(a, b, atol=1e-10 * np.max(np.abs(b)))


@pytest.mark.parametrize("nu", [1.0, 1e3])
def test_rescaled_block_iterations_do_not_grow_with_the_grid(nu):
    iters = []
    for n in (16, 64):
        sol = solve_brinkman(disc_problem(make_grid(1.0, 1.0, n, n), 100.0, nu, 0.0), TOL)
        assert sol.report.converged
        iters.append(sol.report.iterations)
    assert iters[1] <= 1.5 * iters[0], iters


@pytest.mark.parametrize("interface, n, ratio", [("step", 16, 0.6), ("tanh", 32, 0.2)])
def test_viscosity_contrast_uses_the_rescaled_block_and_beats_jacobi(
        block_calls, interface, n, ratio):
    grid = make_grid(1.0, 1.0, n, n)
    x, y = grid.cell_centers()
    r = np.hypot(x - 0.5, y - 0.5)
    inside = (r < 0.25) if interface == "step" else \
        0.5 * (1.0 + np.tanh((0.25 - r) / (np.sqrt(2.0) * 0.1)))
    force, gamma_v = random_data(grid, 17)
    prob = BrinkmanProblem(grid, 1.0 + 99.0 * inside, np.zeros(grid.shape), 1.0,
                           force, gamma_v)
    sol = solve_brinkman(prob, TOL)
    assert block_calls
    assert sol.report.converged and sol.divergence_residual < 1e-8
    _, jac = solve_minres(brinkman_operator(prob), prob.rhs, 1e-11,
                          precond=lambda a, d=brinkman._jacobi_diagonal(prob): a / d)
    assert jac.converged
    assert sol.report.iterations <= ratio * jac.iterations, \
        (sol.report.iterations, jac.iterations)


def test_solve_minres_leaves_rhs_and_start_alone():
    prob = disc_problem(make_grid(1.0, 1.5, 9, 7), 100.0, 2.0, 0.3)
    x0 = np.random.default_rng(6).standard_normal(prob.rhs.size)
    rhs, start = prob.rhs.copy(), x0.copy()
    x, rep = solve_minres(brinkman_operator(prob), prob.rhs, 1e-11, x0,
                          precond=brinkman._block_preconditioner(prob))
    assert rep.converged and not np.shares_memory(x, x0)
    assert np.array_equal(prob.rhs, rhs) and np.array_equal(x0, start)


def test_solution_views_the_packed_vector_the_solver_returned():
    prob = disc_problem(make_grid(1.0, 1.5, 9, 7), 10.0, 2.0, 0.3)
    sol = solve_brinkman(prob, TOL)
    assert sol.report.converged
    assert all(np.shares_memory(a, sol.x) for a in (sol.v.u, sol.v.w, sol.p))
    assert np.array_equal(sol.x, brinkman._pack(sol.v.u, sol.v.w, sol.p))


def test_solve_brinkman_rejects_zero_friction(monkeypatch):
    # a direct solve and a window solve, at constant and at variable
    # viscosities, refuse nu = 0 before building anything, with no warning
    built = spied_builds(monkeypatch, ("brinkman_operator", "_block_preconditioner",
                                       "_saddle_inverse"))
    grid = make_grid(1.0, 1.5, 9, 7)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for contrast in (1.0, 10.0):
            prob = disc_problem(grid, contrast, 0.0, 0.0)
            assert (prob.constant is not None) == (contrast == 1.0)
            for solve in (solve_brinkman, brinkman.ProjectedStart(4).solve):
                with pytest.raises(ValueError, match="nu > 0"):
                    solve(prob, TOL)
    assert built == []


# Not strict: the floor lands on either side of the test from one data set to
# the next, so a strict mark would fail whenever it happens to pass.
_STALL = pytest.mark.xfail(strict=False, reason=(
    "round-off floor: contrast 100 at nu = 1e-2 (cond ~1e7) ends at a relative "
    "residual of 5e-11 to 1e-10 at 32^2 and 1.4e-10 to 3e-10 at 64^2, around "
    "the 10 tol = 1e-10 test, under Jacobi and the block preconditioner alike"))


@pytest.mark.parametrize("lam", [0.0, 1.0])
@pytest.mark.parametrize("contrast, nu", [
    pytest.param(c, nu, marks=_STALL) if (c, nu) == (100.0, 1e-2) else (c, nu)
    for c in (1.0, 10.0, 100.0) for nu in (1e-2, 1.0, 1e3)])
def test_robustness_sweep_converges(contrast, nu, lam):
    sol = solve_brinkman(disc_problem(make_grid(1.0, 1.0, 32, 32), contrast, nu, lam),
                         1e-11)
    assert sol.report.converged, sol.report


# ---------------------------------------------------------------------------
# projected start of a sequence of solves
# ---------------------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(size=st.sampled_from([1, 2, 4, 8]), n=st.integers(16, 60), seed=SEEDS,
       data=st.data())
def test_projected_start_equals_a_least_squares_start_over_the_kept_pairs(
        size, n, seed, data):
    # 3 size random pairs, one of them a copy of an earlier one, and one
    # within 1e-3 of a mix of the pairs the window keeps when it comes (x
    # near the same mix of the kept x as b of the kept b, as for x = A^-1 b);
    # a copy of a pair still in the window lies in its span and is not
    # stored, the near one is stored after a second Gram-Schmidt pass
    rng = np.random.default_rng(seed)
    pairs = [(rng.standard_normal(n), rng.standard_normal(n)) for _ in range(3 * size)]
    at = data.draw(st.integers(1, len(pairs)), label="copy at")
    pairs.insert(at, pairs[data.draw(st.integers(0, at - 1), label="copy of")])
    near_at = data.draw(st.integers(2, len(pairs)), label="near at")
    pairs.insert(near_at, None)
    window = brinkman.ProjectedStart(size)
    assert window.start(pairs[0][1]) is None
    kept = []
    for pair in pairs:
        if pair is None:
            stay = kept[1:] if len(kept) == size else kept
            if not stay:
                continue
            mix = rng.standard_normal(len(stay))
            pair = tuple(near + 1e-3 * np.linalg.norm(near) / np.linalg.norm(off) * off
                         for near, off in ((np.array(col).T @ mix, rng.standard_normal(n))
                                           for col in zip(*stay)))
        x, b = pair
        window.add(x, b)
        if len(kept) == size:
            kept.pop(0)
        if not any(b is old for _, old in kept):
            kept.append((x, b))
        assert len(window) == len(kept) <= size
        q = window._qx[:len(window), :n]   # one pass would leave ~1e-13 here
        assert np.max(np.abs(q @ q.T - np.eye(len(window)))) <= 1e-14
        xs, bs = (np.array(col).T for col in zip(*kept))
        for rhs in (rng.standard_normal(n), b):
            want = xs @ np.linalg.lstsq(bs, rhs, rcond=None)[0]
            got = window.start(rhs)
            assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


def test_window_solve_is_a_solve_from_the_start_then_an_add():
    grid = make_grid(1.0, 1.5, 9, 7)
    window, by_hand = brinkman.ProjectedStart(2), brinkman.ProjectedStart(2)
    for seed in range(4):   # the third solve makes the windows slide
        prob = disc_problem(grid, 10.0, 2.0, 0.3, seed)
        sol = window.solve(prob, TOL)
        want = solve_brinkman(prob, TOL, by_hand.start(prob.rhs))
        by_hand.add(want.x, prob.rhs)
        assert sol.report == want.report and sol.report.converged
        assert np.array_equal(sol.x, want.x)
        assert len(window) == len(by_hand)
    assert np.array_equal(window.start(prob.rhs), by_hand.start(prob.rhs))


def test_window_keeps_no_stalled_solve(monkeypatch):
    grid = make_grid(1.0, 1.5, 9, 7)
    window = brinkman.ProjectedStart(4)
    window.solve(disc_problem(grid, 10.0, 2.0, 0.3, 1), TOL)
    monkeypatch.setattr(elliptic, "MAX_ITERS", 1)
    sol = window.solve(disc_problem(grid, 10.0, 2.0, 0.3, 2), TOL)
    assert not sol.report.converged and sol.report.iterations == 1
    assert len(window) == 1


def test_constant_viscosity_window_stores_nothing(monkeypatch):
    # each solve starts from K^-1 rhs, as a fresh solve does, and the window
    # neither reads nor keeps a pair; it is a `solve_brinkman` call, the
    # span the benchmark times every flow solve by
    calls = []
    monkeypatch.setattr(brinkman, "solve_brinkman",
                        lambda *args: calls.append(args) or solve_brinkman(*args))
    grid = make_grid(1.0, 1.5, 9, 7)
    window = brinkman.ProjectedStart(4)
    for seed in range(3):
        force, gamma_v = random_data(grid, seed)
        prob = problem(grid, nu=2.0, eta=0.8, lam=0.3, force=force, gamma_v=gamma_v)
        sol, fresh = window.solve(prob, TOL), solve_brinkman(prob, TOL)
        assert sol.report == fresh.report and sol.report.converged
        assert sol.x.tobytes() == fresh.x.tobytes()
        assert len(window) == 0 and len(calls) == seed + 1


def test_variable_viscosity_solve_never_builds_the_exact_inverse(monkeypatch):
    built = []
    original = brinkman._saddle_inverse
    monkeypatch.setattr(brinkman, "_saddle_inverse",
                        lambda *args: built.append(args) or original(*args))
    grid = make_grid(1.0, 1.5, 9, 7)
    window = brinkman.ProjectedStart(4)
    for seed in range(2):
        assert window.solve(disc_problem(grid, 10.0, 2.0, 0.3, seed), TOL).report.converged
    # eta constant but lam varying is variable too
    assert solve_brinkman(disc_problem(grid, 1.0, 2.0, 0.3), TOL).report.converged
    assert built == [] and len(window) == 2
    assert solve_brinkman(problem(grid, nu=2.0, eta=0.8, lam=0.3), TOL).report.converged
    assert len(built) == 1


def spied_builds(monkeypatch, names):
    """Patch each brinkman builder in names to record (name, weakref to what
    it built); returns the record."""
    built = []
    for name in names:
        def spy(*args, _f=getattr(brinkman, name), _n=name):
            out = _f(*args)
            built.append((_n, weakref.ref(out)))
            return out
        monkeypatch.setattr(brinkman, name, spy)
    return built


def test_window_rebuilds_its_operator_when_a_coefficient_changes_a_bit(monkeypatch):
    # the window keeps its own copy of the bits its exact solver was built
    # for: a new nu, a new grid, an eta with one bit flipped in place and a
    # lam of -0.0 in place of 0.0 each build afresh, an equal copy does not;
    # every solve has the bits of a fresh solve
    built = spied_builds(monkeypatch, ("brinkman_operator", "_saddle_inverse"))
    window = brinkman.ProjectedStart(4)

    def builds(grid, eta, lam, nu=2.0):
        """Operator and exact-inverse builds of one window solve."""
        force, gamma_v = random_data(grid, 3)
        prob = BrinkmanProblem(grid, eta, lam, nu, force, gamma_v)
        before = len(built)
        sol = window.solve(prob, TOL)
        made = [name for name, _ in built[before:]]
        assert made in ([], ["brinkman_operator", "_saddle_inverse"])
        fresh = solve_brinkman(prob, TOL)
        assert sol.report == fresh.report and sol.x.tobytes() == fresh.x.tobytes()
        assert len(window) == 0
        return len(made) // 2

    grid = make_grid(1.0, 1.5, 9, 7)
    eta, lam = np.full(grid.shape, 0.8), np.zeros(grid.shape)
    assert builds(grid, eta, lam) == 1
    assert builds(grid, eta.copy(), lam.copy()) == 0
    eta.view(np.int64)[...] ^= 1   # the last mantissa bit of every cell
    assert builds(grid, eta, lam) == 1
    assert builds(grid, eta, np.full(grid.shape, -0.0)) == 1
    assert builds(grid, eta, -lam) == 0
    assert builds(grid, eta, -lam, nu=3.0) == 1
    assert builds(make_grid(1.0, 2.0, 9, 7), eta, -lam, nu=3.0) == 1


def test_a_variable_viscosity_solve_keeps_nothing_it_built(monkeypatch):
    # the operator and preconditioner of a variable-viscosity solve die with
    # the solve; the exact solver of a constant-viscosity one lives as long
    # as the window
    built = spied_builds(monkeypatch, ("brinkman_operator", "_block_preconditioner",
                                       "_saddle_inverse"))
    grid = make_grid(1.0, 1.5, 9, 7)
    window = brinkman.ProjectedStart(4)
    for seed in range(2):
        assert window.solve(disc_problem(grid, 10.0, 2.0, 0.3, seed), TOL).report.converged
    gc.collect()
    assert all(ref() is None for _, ref in built) and len(window) == 2
    assert [name for name, _ in built] == ["brinkman_operator", "_block_preconditioner"] * 2
    del built[:]
    assert window.solve(problem(grid, nu=2.0, eta=0.8, lam=0.3), TOL).report.converged
    gc.collect()
    assert [name for name, _ in built] == ["brinkman_operator", "_saddle_inverse"]
    assert all(ref() is not None for _, ref in built)
    del window
    gc.collect()
    assert all(ref() is None for _, ref in built)


# ---------------------------------------------------------------------------
# capillary force
# ---------------------------------------------------------------------------

def test_capillary_force_of_uniform_fields_vanishes():
    grid = make_grid(1.0, 1.0, 8, 8)
    params = ModelParams(epsilon=0.1, chi_sigma=1.0, chi_phi=0.5, nu=1.0, b=0.0)
    phi, sigma = np.full(grid.shape, 0.4), np.full(grid.shape, 0.9)
    _, n_sigma, _ = nutrient_energy(phi, sigma, params)
    f = capillary_force(phi, sigma, np.full(grid.shape, -1.2), n_sigma, grid)
    np.testing.assert_allclose(f.u, 0.0, atol=1e-14)
    np.testing.assert_allclose(f.w, 0.0, atol=1e-14)


def test_capillary_force_walls_are_force_free():
    grid = make_grid(1.0, 1.0, 8, 8)
    params = ModelParams(epsilon=0.1, chi_sigma=1.0, chi_phi=0.5, nu=1.0, b=1.0)
    rng = np.random.default_rng(13)
    phi, sigma = rng.standard_normal(grid.shape), rng.standard_normal(grid.shape)
    _, n_sigma, _ = nutrient_energy(phi, sigma, params)
    f = capillary_force(phi, sigma, rng.standard_normal(grid.shape), n_sigma, grid)
    assert np.all(f.u[0, :] == 0.0) and np.all(f.u[-1, :] == 0.0)
    assert np.all(f.w[:, 0] == 0.0) and np.all(f.w[:, -1] == 0.0)
    assert np.any(f.u[1:-1, :] != 0.0)


def test_capillary_force_linear_phase_gradient():
    # phi = x with constant mu and sigma = 0: force is mu * grad(phi) = mu along x
    grid = make_grid(1.0, 1.0, 8, 8)
    x, _ = grid.cell_centers()
    f = capillary_force(x, np.zeros(grid.shape), np.full(grid.shape, 2.0),
                        np.ones(grid.shape), grid)
    np.testing.assert_allclose(f.u[1:-1, :], 2.0, atol=1e-13)
    np.testing.assert_allclose(f.w, 0.0, atol=1e-14)
