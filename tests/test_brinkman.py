"""Brinkman saddle solver against the loop-assembled dense oracle."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from chbsim import brinkman, elliptic
from chbsim.constitutive import ModelParams, nutrient_energy
from chbsim.core import FaceField, make_grid
from chbsim.elliptic import (
    SolverOptions,
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
OPTS = SolverOptions(tol=1e-11, max_iters=20000)


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
    sol = solve_brinkman(problem(grid), OPTS)
    np.testing.assert_allclose(sol.v.u, 0.0, atol=1e-13)
    np.testing.assert_allclose(sol.v.w, 0.0, atol=1e-13)
    np.testing.assert_allclose(sol.p, 0.0, atol=1e-13)


def test_constant_force_drives_uniform_darcy_flow():
    grid = make_grid(1.0, 1.0, 16, 16)
    nu, c = 2.0, 0.6
    force = FaceField(np.full((grid.nx + 1, grid.ny), c),
                      np.zeros((grid.nx, grid.ny + 1)))
    prob = problem(grid, nu=nu, force=force)
    sol = solve_brinkman(prob, OPTS)
    assert sol.report.converged
    np.testing.assert_allclose(sol.v.u, c / nu, atol=1e-10)
    np.testing.assert_allclose(sol.v.w, 0.0, atol=1e-10)
    np.testing.assert_allclose(sol.p, 0.0, atol=1e-10)
    mom_u, mom_w, _ = apply_brinkman(prob, sol.v, sol.p)
    assert max(np.max(np.abs(mom_u - force.u)), np.max(np.abs(mom_w - force.w))) < 1e-9
    assert sol.divergence_residual < 1e-10


def test_krylov_solution_matches_dense_oracle():
    grid = make_grid(1.0, 1.0, 8, 8)
    x, y = grid.cell_centers()
    gamma_v = 0.3 * np.cos(np.pi * x) * np.cos(np.pi * y)
    prob = problem(grid, nu=1.0, eta=0.8, lam=0.2, gamma_v=gamma_v)
    krylov = solve_brinkman(prob, OPTS)
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
    a = solve_brinkman(problem(grid, force=force), OPTS)
    b = solve_brinkman(problem(grid, force=force), OPTS)
    assert np.array_equal(a.v.u, b.v.u) and np.array_equal(a.p, b.p)


def test_energy_identity_holds_for_the_solution():
    grid = make_grid(1.0, 1.0, 10, 10)
    x, y = grid.cell_centers()
    force = FaceField(np.zeros((grid.nx + 1, grid.ny)),
                      np.zeros((grid.nx, grid.ny + 1)))
    force.u[1:-1, :] = np.sin(np.pi * 0.5 * (x[1:, :] + x[:-1, :]))
    prob = problem(grid, nu=1.0, eta=0.5, lam=0.3, force=force,
                   gamma_v=0.1 * np.cos(np.pi * x) * np.cos(np.pi * y))
    sol = solve_brinkman(prob, OPTS)
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


@pytest.mark.parametrize("lam", [0.0, 0.3])
@pytest.mark.parametrize("nu", [1e-2, 1.0, 1e3])
def test_block_path_matches_dense_oracle(block_calls, nu, lam):
    grid = make_grid(1.0, 1.5, 8, 6)
    force, gamma_v = random_data(grid, 11)
    prob = problem(grid, nu=nu, eta=0.8, lam=lam, force=force, gamma_v=gamma_v)
    krylov = solve_brinkman(prob, SolverOptions(tol=1e-13, max_iters=5000))
    direct = dense_oracle_solve(prob)
    assert block_calls and krylov.report.converged
    for a, b in ((krylov.v.u, direct.v.u), (krylov.v.w, direct.v.w),
                 (krylov.p, direct.p)):
        np.testing.assert_allclose(a, b, atol=1e-10 * np.max(np.abs(b)))


@pytest.mark.parametrize("nu", [1.0, 1e3])
def test_block_iterations_do_not_grow_with_the_grid(block_calls, nu):
    iters = []
    for n in (16, 64):
        grid = make_grid(1.0, 1.0, n, n)
        x, y = grid.cell_centers()
        force = FaceField(np.zeros((n + 1, n)), np.zeros((n, n + 1)))
        force.u[1:-1, :] = np.sin(np.pi * 0.5 * (x[1:, :] + x[:-1, :]))
        prob = problem(grid, nu=nu, force=force,
                       gamma_v=0.3 * np.cos(np.pi * x) * np.cos(np.pi * y))
        sol = solve_brinkman(prob, OPTS)
        assert sol.report.converged
        iters.append(sol.report.iterations)
    assert len(block_calls) == 2
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
       contrast=st.floats(1.0, 1e3), seed=SEEDS)
def test_rescaled_block_preconditioner_is_symmetric_positive_definite(
        nx, ny, lx, ly, nu, contrast, seed):
    # cell-wise random eta in [0.5, 0.5 contrast] and lam in [0, 2]
    grid = make_grid(lx, ly, nx, ny)
    rng = np.random.default_rng(seed)
    force, gamma_v = random_data(grid, seed)
    prob = BrinkmanProblem(grid, rng.uniform(0.5, 0.5 * contrast, grid.shape),
                           rng.uniform(0.0, 2.0, grid.shape), nu, force, gamma_v)
    n = prob.rhs.size
    mat = materialize_dense(StencilOperator(brinkman._block_preconditioner(prob),
                                            (n,), symmetric=True))
    assert np.max(np.abs(mat - mat.T)) <= 1e-14 * np.max(np.abs(mat))
    assert np.min(np.linalg.eigvalsh(mat)) > 0.0


def test_constant_coefficients_skip_the_rescaling(block_calls):
    grid = make_grid(1.0, 1.5, 7, 5)
    force, gamma_v = random_data(grid, 3)
    prob = problem(grid, nu=2.0, eta=0.8, lam=0.3, force=force, gamma_v=gamma_v)
    apply = brinkman._block_preconditioner(prob)
    assert len(block_calls) == 1  # no reference problem was built
    # and the rescaling would not change a bit: s is exactly 1
    a = np.random.default_rng(9).standard_normal(prob.rhs.size)
    s = np.sqrt(brinkman._jacobi_diagonal(prob) / brinkman._jacobi_diagonal(prob))
    assert np.array_equal(apply(a), s * apply(s * a))


@pytest.mark.parametrize("contrast, nu, lam", [
    (c, nu, lam) for c in (10.0, 100.0) for nu in (1.0, 1e3) for lam in (0.0, 0.3)
] + [(10.0, 1e-2, 0.0), (10.0, 1e-2, 0.3)])
def test_rescaled_block_path_matches_dense_oracle(block_calls, contrast, nu, lam):
    prob = disc_problem(make_grid(1.0, 1.5, 8, 6), contrast, nu, lam)
    krylov = solve_brinkman(prob, SolverOptions(tol=1e-12, max_iters=5000))
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
    _, rep = solve_minres(brinkman_operator(prob), prob.rhs,
                          SolverOptions(tol=1e-12, max_iters=5000, x0=x0), precond=counted)
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
    krylov = solve_brinkman(prob, SolverOptions(tol=1e-12, max_iters=5000))
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
        sol = solve_brinkman(disc_problem(make_grid(1.0, 1.0, n, n), 100.0, nu, 0.0), OPTS)
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
    sol = solve_brinkman(prob, OPTS)
    assert block_calls
    assert sol.report.converged and sol.divergence_residual < 1e-8
    _, jac = solve_minres(brinkman_operator(prob), prob.rhs,
                          SolverOptions(tol=1e-11, max_iters=20000),
                          precond=lambda a, d=brinkman._jacobi_diagonal(prob): a / d)
    assert jac.converged
    assert sol.report.iterations <= ratio * jac.iterations, \
        (sol.report.iterations, jac.iterations)


def test_solve_minres_leaves_rhs_and_start_alone():
    prob = disc_problem(make_grid(1.0, 1.5, 9, 7), 100.0, 2.0, 0.3)
    x0 = np.random.default_rng(6).standard_normal(prob.rhs.size)
    rhs, start = prob.rhs.copy(), x0.copy()
    x, rep = solve_minres(brinkman_operator(prob), prob.rhs,
                          SolverOptions(tol=1e-11, max_iters=5000, x0=x0),
                          precond=brinkman._block_preconditioner(prob))
    assert rep.converged and not np.shares_memory(x, x0)
    assert np.array_equal(prob.rhs, rhs) and np.array_equal(x0, start)


def test_solution_views_the_packed_vector_the_solver_returned():
    prob = disc_problem(make_grid(1.0, 1.5, 9, 7), 10.0, 2.0, 0.3)
    sol = solve_brinkman(prob, OPTS)
    assert sol.report.converged
    assert all(np.shares_memory(a, sol.x) for a in (sol.v.u, sol.v.w, sol.p))
    assert np.array_equal(sol.x, brinkman._pack(sol.v.u, sol.v.w, sol.p))


def test_solve_brinkman_rejects_zero_friction():
    with pytest.raises(ValueError):
        solve_brinkman(problem(make_grid(1.0, 1.0, 6, 6), nu=0.0), OPTS)


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
                         SolverOptions(tol=1e-11, max_iters=20000))
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
