"""Face-based operators, Robin walls, upwind advection and Krylov solvers."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from chbsim import elliptic
from chbsim.constitutive import EdgeValues
from chbsim.core import FaceField, extrapolate_to_walls, make_grid, integrate_cell
from chbsim.elliptic import (
    StencilOperator,
    apply_neumann_laplacian,
    diffusion_stencil,
    face_gradient,
    harmonic_face_coefficients,
    laplacian_basis,
    materialize_dense,
    neumann_multiplier,
    robin_basis,
    robin_influx,
    robin_inverse,
    robin_source,
    separable_inverse,
    solve_general,
    solve_minres,
    stencil_scratch,
    transform_scratch,
    upwind_transport,
)


# small random grids for the property tests
SIDES = st.integers(4, 12)
LENGTHS = st.floats(1.0, 2.0)
SEEDS = st.integers(0, 2 ** 32 - 1)


def unit_faces(grid):
    return FaceField(np.ones((grid.nx + 1, grid.ny)),
                     np.ones((grid.nx, grid.ny + 1)))


def jacobi(diag):
    """Diagonal preconditioner a -> a / diag."""
    return lambda a: a / diag


# ---------------------------------------------------------------------------
# Laplacian
# ---------------------------------------------------------------------------

def test_laplacian_annihilates_constants_and_is_linear():
    grid = make_grid(1.0, 1.0, 12, 10)
    c = harmonic_face_coefficients(np.full(grid.shape, 0.7), grid)
    out = apply_neumann_laplacian(np.full(grid.shape, 3.2), c, grid)
    np.testing.assert_allclose(out, 0.0, atol=1e-14)
    rng = np.random.default_rng(3)
    f, g = rng.standard_normal((2,) + grid.shape)
    lhs = apply_neumann_laplacian(2.0 * f - 3.0 * g, c, grid)
    rhs = 2.0 * apply_neumann_laplacian(f, c, grid) \
        - 3.0 * apply_neumann_laplacian(g, c, grid)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_laplacian_cosine_eigenfunction():
    # cos(pi x) sampled at cell centers is an exact eigenvector of the
    # zero-flux stencil with eigenvalue -(4/h^2) sin^2(pi h / 2)
    grid = make_grid(1.0, 1.0, 32, 8)
    x, _ = grid.cell_centers()
    f = np.cos(np.pi * x)
    out = apply_neumann_laplacian(f, unit_faces(grid), grid)
    lam = 4.0 / grid.hx ** 2 * np.sin(np.pi * grid.hx / 2.0) ** 2
    np.testing.assert_allclose(out, -lam * f, atol=1e-11)


@settings(max_examples=10, deadline=None)
@given(nx=SIDES, ny=SIDES, lx=LENGTHS, ly=LENGTHS, seed=SEEDS)
def test_laplacian_matches_its_dense_matrix_and_is_symmetric(nx, ny, lx, ly, seed):
    grid = make_grid(lx, ly, nx, ny)
    rng = np.random.default_rng(seed)
    c = harmonic_face_coefficients(rng.uniform(0.5, 2.0, grid.shape), grid)
    op = StencilOperator(lambda f: -apply_neumann_laplacian(f, c, grid),
                         grid.shape, symmetric=True)
    mat = materialize_dense(op)
    np.testing.assert_allclose(mat, mat.T, atol=1e-13)
    x = rng.standard_normal(grid.shape)
    np.testing.assert_allclose(op.apply(x).ravel(), mat @ x.ravel(), atol=1e-12)
    # row sums vanish: constants are in the kernel
    np.testing.assert_allclose(mat @ np.ones(mat.shape[0]), 0.0, atol=1e-12)


def test_harmonic_faces_recover_constant_coefficient():
    grid = make_grid(1.0, 1.0, 8, 8)
    c = harmonic_face_coefficients(np.full(grid.shape, 2.5), grid)
    np.testing.assert_allclose(c.u, 2.5)
    np.testing.assert_allclose(c.w, 2.5)


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan])
def test_harmonic_faces_reject_a_cell_that_is_not_positive(bad):
    grid = make_grid(1.0, 1.0, 4, 4)
    cell = np.full(grid.shape, 2.5)
    cell[1, 2] = bad
    with pytest.raises(ValueError, match="strictly positive"):
        harmonic_face_coefficients(cell, grid)


# ---------------------------------------------------------------------------
# Robin walls
# ---------------------------------------------------------------------------

def test_robin_equilibrium_at_ambient_value():
    grid = make_grid(1.0, 1.0, 16, 16)
    sinf = EdgeValues.constant(1.3)
    f = np.full(grid.shape, 1.3)
    out = diffusion_stencil(unit_faces(grid), grid, 0.8)(f) + robin_source(0.8, sinf, grid)
    np.testing.assert_allclose(out, 0.0, atol=1e-13)
    assert robin_influx(f, 0.8, sinf, grid) == pytest.approx(0.0, abs=1e-13)


def test_robin_with_zero_permeability_is_neumann():
    grid = make_grid(1.0, 1.0, 10, 12)
    rng = np.random.default_rng(5)
    f = rng.standard_normal(grid.shape)
    c = harmonic_face_coefficients(rng.uniform(0.5, 2.0, grid.shape), grid)
    np.testing.assert_allclose(diffusion_stencil(c, grid, 0.0)(f),
                               apply_neumann_laplacian(f, c, grid), atol=1e-14)


def test_robin_source_integrates_to_perimeter_income():
    grid = make_grid(1.0, 1.0, 16, 16)
    sinf = EdgeValues.constant(1.0)
    src = robin_source(1.0, sinf, grid)
    assert integrate_cell(src, grid) == pytest.approx(grid.perimeter)
    # income of a zero field is the same total
    assert robin_influx(np.zeros(grid.shape), 1.0, sinf, grid) == pytest.approx(4.0)


def test_robin_field_integrates_to_reported_income():
    grid = make_grid(2.0, 1.0, 12, 9)
    rng = np.random.default_rng(17)
    f = rng.standard_normal(grid.shape)
    c = harmonic_face_coefficients(rng.uniform(0.5, 2.0, grid.shape), grid)
    sinf = EdgeValues(0.7, 1.1, 0.2, 0.9)
    out = diffusion_stencil(c, grid, 1.4)(f) + robin_source(1.4, sinf, grid)
    # the interior fluxes telescope: the field integrates to the wall income
    assert integrate_cell(out, grid) == pytest.approx(robin_influx(f, 1.4, sinf, grid),
                                                      abs=1e-12)


# ---------------------------------------------------------------------------
# Upwind advection
# ---------------------------------------------------------------------------

def stream_function_velocity(grid):
    """Exactly divergence-free velocity with zero wall flux, from vertex
    differences of a stream function that vanishes on the boundary."""
    xs = np.linspace(0.0, grid.Lx, grid.nx + 1)
    ys = np.linspace(0.0, grid.Ly, grid.ny + 1)
    psi = np.sin(np.pi * xs / grid.Lx)[:, None] * np.sin(np.pi * ys / grid.Ly)[None, :]
    u = (psi[:, 1:] - psi[:, :-1]) / grid.hy
    w = -(psi[1:, :] - psi[:-1, :]) / grid.hx
    return FaceField(u, w)


def test_upwind_zero_velocity_and_constant_transport():
    grid = make_grid(1.0, 1.0, 8, 8)
    rng = np.random.default_rng(2)
    q = rng.standard_normal(grid.shape)
    still = FaceField.zeros(grid)
    np.testing.assert_allclose(upwind_transport(q, still, grid).div, 0.0, atol=0.0)
    # uniform rightward wind with uniform q: inflow equals outflow cellwise
    wind = FaceField(np.ones((grid.nx + 1, grid.ny)),
                     np.zeros((grid.nx, grid.ny + 1)))
    tr = upwind_transport(np.ones(grid.shape), wind, grid)
    np.testing.assert_allclose(tr.div, 0.0, atol=1e-14)
    assert tr.outflow == pytest.approx(0.0)


def test_upwind_constant_q_in_divergence_free_flow():
    grid = make_grid(1.0, 1.0, 24, 24)
    v = stream_function_velocity(grid)
    # check the construction really is discretely divergence free
    div = (v.u[1:, :] - v.u[:-1, :]) / grid.hx + (v.w[:, 1:] - v.w[:, :-1]) / grid.hy
    np.testing.assert_allclose(div, 0.0, atol=1e-12)
    out = upwind_transport(np.full(grid.shape, 1.7), v, grid).div
    np.testing.assert_allclose(out, 0.0, atol=1e-12)


def test_upwind_picks_the_upstream_cell():
    grid = make_grid(1.0, 1.0, 4, 4)
    q = np.zeros(grid.shape)
    q[1, 2] = 1.0  # a single loaded cell
    v = FaceField.zeros(grid)
    v.u[2, 2] = 1.0  # wind blowing from cell (1,2) into cell (2,2)
    out = upwind_transport(q, v, grid).div
    assert out[1, 2] == pytest.approx(1.0 / grid.hx)   # mass leaves upstream
    assert out[2, 2] == pytest.approx(-1.0 / grid.hx)  # and arrives downstream
    v.u[2, 2] = -1.0  # reversed wind carries cell (2,2)'s value, which is zero
    np.testing.assert_allclose(upwind_transport(q, v, grid).div, 0.0, atol=0.0)


# ---------------------------------------------------------------------------
# Fused kernels against the face-gradient formulas they replaced
# ---------------------------------------------------------------------------

EPS = np.finfo(float).eps


def diffusion_oracle(f, c, grid, b=None):
    """div(c grad f) from `face_gradient`, with zero-flux walls (b None) or
    the Robin walls of sigma_inf = 0: the unfused formula, step by step."""
    g = face_gradient(f, grid)
    fu = c.u * g.u
    fw = c.w * g.w
    if b is not None:
        tr = extrapolate_to_walls(f, grid)
        fu[0, :] = b * tr.left
        fu[-1, :] = -b * tr.right
        fw[:, 0] = b * tr.bottom
        fw[:, -1] = -b * tr.top
    return (fu[1:, :] - fu[:-1, :]) / grid.hx + (fw[:, 1:] - fw[:, :-1]) / grid.hy


def upwind_oracle(q, v, grid):
    """Face fluxes, divergence and outward wall flux of the unfused upwind pass."""
    qx = np.concatenate([q[:1, :], q, q[-1:, :]], axis=0)
    qy = np.concatenate([q[:, :1], q, q[:, -1:]], axis=1)
    fu = v.u * np.where(v.u >= 0.0, qx[:-1, :], qx[1:, :])
    fw = v.w * np.where(v.w >= 0.0, qy[:, :-1], qy[:, 1:])
    div = (fu[1:, :] - fu[:-1, :]) / grid.hx + (fw[:, 1:] - fw[:, :-1]) / grid.hy
    lr = float(np.sum(fu[-1, :]) - np.sum(fu[0, :])) * grid.hy
    bt = float(np.sum(fw[:, -1]) - np.sum(fw[:, 0])) * grid.hx
    return fu, fw, div, lr + bt


def bits(a):
    return np.ascontiguousarray(a).view(np.int64)


@st.composite
def grids(draw):
    """Grids up to 12^2 whose spacings are powers of two (flag True) or not."""
    nx, ny = draw(SIDES), draw(SIDES)
    if draw(st.booleans()):
        lx, ly = (n * 2.0 ** draw(st.integers(-5, 1)) for n in (nx, ny))
        return make_grid(lx, ly, nx, ny), True
    return make_grid(draw(LENGTHS), draw(LENGTHS), nx, ny), False


COEFFS = st.floats(1e-3, 1e3)
WALLS = st.none() | st.just(0.0) | st.floats(1e-3, 10.0)
# field values kept clear of underflow, where a power-of-two scaling rounds too
VALUES = st.floats(-10.0, 10.0).map(lambda x: x if abs(x) >= 1e-100 else 0.0)


@settings(max_examples=60, deadline=None)
@given(drawn=grids(), b=WALLS, data=st.data())
def test_diffusion_stencil_equals_the_face_gradient_formula(drawn, b, data):
    # bit for bit on power-of-two spacings, where folding 1/h^2 into the face
    # coefficients rounds nothing, and to round-off elsewhere
    grid, exact = drawn
    nx, ny = grid.shape
    if data.draw(st.booleans()):
        c = FaceField(data.draw(arrays(float, (nx + 1, ny), elements=COEFFS)),
                      data.draw(arrays(float, (nx, ny + 1), elements=COEFFS)))
        stencil = diffusion_stencil(c, grid, b)
    else:   # one number on every face
        c0 = data.draw(COEFFS)
        c = FaceField(np.full((nx + 1, ny), c0), np.full((nx, ny + 1), c0))
        stencil = diffusion_stencil(c0, grid, b)
    f = data.draw(arrays(float, grid.shape, elements=VALUES))
    want = diffusion_oracle(f, c, grid, b)
    got = stencil(f)
    if exact:
        np.testing.assert_array_equal(bits(got), bits(want))
    else:
        walls = 0.0 if b is None else b / grid.hx + b / grid.hy
        scale = (c.u.max() / grid.hx ** 2 + c.w.max() / grid.hy ** 2 + walls) * 4.0
        assert np.max(np.abs(got - want)) <= 16 * EPS * scale * max(1.0, np.abs(f).max())
    # the named Neumann wrapper is the kernel, and so is an apply into `out`
    if b is None:
        np.testing.assert_array_equal(bits(apply_neumann_laplacian(f, c, grid)), bits(got))
    out = np.empty(grid.shape)
    assert stencil(f, out=out) is out
    np.testing.assert_array_equal(bits(out), bits(got))


def stencil_oracle(coeff_faces, grid, b=None):
    """`diffusion_stencil` with its face fluxes in the natural face layout:
    the y-fluxes as column-shifted 2-D slices between zero (or Robin) wall
    columns.  The kernel under test keeps its evaluation order element by
    element."""
    nx, ny = grid.shape
    if isinstance(coeff_faces, FaceField):
        cu, cw = coeff_faces.u[1:-1, :], coeff_faces.w[:, 1:-1]
    else:
        cu = cw = float(coeff_faces)
    ku, kw = cu / grid.hx ** 2, cw / grid.hy ** 2
    fu = np.zeros((nx + 1, ny))
    fw = np.zeros((nx, ny + 1))
    walls = () if b is None else (
        (fu[0, :], np.s_[0, :], np.s_[1, :], b / grid.hx),
        (fu[-1, :], np.s_[-1, :], np.s_[-2, :], -b / grid.hx),
        (fw[:, 0], np.s_[:, 0], np.s_[:, 1], b / grid.hy),
        (fw[:, -1], np.s_[:, -1], np.s_[:, -2], -b / grid.hy))

    def apply(f):
        fu[1:-1, :] = f[1:, :] - f[:-1, :]
        fu[1:-1, :] *= ku
        fw[:, 1:-1] = f[:, 1:] - f[:, :-1]
        fw[:, 1:-1] *= kw
        for flux, near, next_, scale in walls:
            np.multiply(f[near], 1.5, out=flux)
            flux -= 0.5 * f[next_]
            flux *= scale
        out = fu[1:, :] - fu[:-1, :]
        out += fw[:, 1:] - fw[:, :-1]
        return out
    return apply


# grids with nx != ny and any spacing, powers of two among them
UNEQUAL_SIDES = st.tuples(SIDES, SIDES).filter(lambda sides: sides[0] != sides[1])
SPACINGS = st.floats(0.5, 2.0) | st.integers(-3, 2).map(lambda k: 2.0 ** k)


@settings(max_examples=80, deadline=None)
@given(sides=UNEQUAL_SIDES, spacing=st.tuples(SPACINGS, SPACINGS), b=WALLS,
       faces=st.booleans(), data=st.data())
def test_diffusion_stencil_equals_the_slice_oracle_bit_for_bit(sides, spacing, b, faces,
                                                               data, kept_arrays):
    nx, ny = sides
    grid = make_grid(nx * spacing[0], ny * spacing[1], nx, ny)
    if faces:
        c = FaceField(data.draw(arrays(float, (nx + 1, ny), elements=COEFFS)),
                      data.draw(arrays(float, (nx, ny + 1), elements=COEFFS)))
    else:
        c = data.draw(COEFFS)
    stencil, oracle = diffusion_stencil(c, grid, b), stencil_oracle(c, grid, b)
    scratch = kept_arrays(stencil)
    out = np.empty(grid.shape)
    # a second call sees the scratch the first one left; zeros of random
    # sign show where a signed zero reaches a sum that it should leave alone
    zeros = np.random.default_rng(data.draw(SEEDS)).choice([0.0, -0.0], grid.shape)
    for f in (data.draw(arrays(float, grid.shape, elements=st.floats(-10.0, 10.0))), zeros):
        f_in = f.copy()
        want = oracle(f)
        got = stencil(f)
        np.testing.assert_array_equal(bits(got), bits(want))
        assert stencil(f, out=out) is out
        np.testing.assert_array_equal(bits(out), bits(want))
        np.testing.assert_array_equal(bits(f), bits(f_in))
        assert not any(np.shares_memory(a, kept) for a in (got, out) for kept in scratch)


def test_builds_sharing_one_scratch_keep_their_bits(kept_arrays):
    # zero-flux stencils, one on faces, and a Robin stencil, all on one
    # `stencil_scratch` and applied in turn (the Robin apply writes the
    # x-wall fluxes the others hold at zero), and two inverses on one
    # `transform_scratch`, equal the same builds on scratch of their own
    grid = make_grid(1.0, 0.75, 12, 9)
    rng = np.random.default_rng(11)
    faces = harmonic_face_coefficients(rng.uniform(0.5, 2.0, grid.shape), grid)
    flux, transform = stencil_scratch(grid), transform_scratch(grid)
    builds = [
        (flux, lambda s: diffusion_stencil(faces, grid, 1.5, scratch=s)),
        (flux, lambda s: diffusion_stencil(1.0, grid, scratch=s)),
        (flux, lambda s: diffusion_stencil(faces, grid, scratch=s)),
        (transform, lambda s: neumann_multiplier(grid, lambda k: 1.0 / (1.0 + k), scratch=s)),
        (transform, lambda s: robin_inverse(grid, 1.0, 0.1, 0.7, 1.5, scratch=s))]
    pairs = [(build(shared), build(None)) for shared, build in builds]
    for (shared, _), (apply, _) in zip(builds, pairs):
        assert any(k is shared[0] for k in kept_arrays(apply))
    for f in rng.standard_normal((2,) + grid.shape):
        for k in (0, 1, 2, 0, 2, 1, 3, 4, 3):
            np.testing.assert_array_equal(bits(pairs[k][0](f)), bits(pairs[k][1](f)))


@settings(max_examples=40, deadline=None)
@given(sides=UNEQUAL_SIDES, data=st.data())
def test_harmonic_faces_equal_the_slice_formula_bit_for_bit(sides, data):
    nx, ny = sides
    grid = make_grid(1.0, 1.0, nx, ny)
    c = data.draw(arrays(float, grid.shape, elements=st.floats(1e-3, 1e3)))
    c_in = c.copy()
    faces = harmonic_face_coefficients(c, grid)
    for got, inner, walls, a, b in (
            (faces.u, np.s_[1:-1, :], np.s_[[0, -1], :], c[:-1, :], c[1:, :]),
            (faces.w, np.s_[:, 1:-1], np.s_[:, [0, -1]], c[:, :-1], c[:, 1:])):
        np.testing.assert_array_equal(bits(got[inner]), bits(2.0 * a * b / (a + b)))
        np.testing.assert_array_equal(bits(got[walls]), bits(c[walls]))
    np.testing.assert_array_equal(bits(c), bits(c_in))


def test_diffusion_stencil_returns_a_fresh_array_per_apply():
    # Krylov solvers keep the results of earlier applies alive
    grid = make_grid(1.0, 1.0, 8, 6)
    rng = np.random.default_rng(11)
    c = harmonic_face_coefficients(rng.uniform(0.5, 2.0, grid.shape), grid)
    for b in (None, 1.5):
        stencil = diffusion_stencil(c, grid, b)
        f, g = rng.standard_normal((2,) + grid.shape)
        first = stencil(f)
        kept = first.copy()
        second = stencil(g)
        assert not np.shares_memory(first, second)
        np.testing.assert_array_equal(first, kept)


@settings(max_examples=40, deadline=None)
@given(drawn=grids(), data=st.data())
def test_upwind_divergence_telescopes_to_boundary_flux(drawn, data):
    # one pass gives the unfused divergence and wall flux bit for bit
    grid, _ = drawn
    nx, ny = grid.shape
    q = data.draw(arrays(float, grid.shape, elements=VALUES))
    v = FaceField(data.draw(arrays(float, (nx + 1, ny), elements=VALUES)),
                  data.draw(arrays(float, (nx, ny + 1), elements=VALUES)))
    fu, fw, div, outflow = upwind_oracle(q, v, grid)
    tr = upwind_transport(q, v, grid)
    np.testing.assert_array_equal(bits(tr.div), bits(div))
    assert tr.outflow == outflow
    # the divergence telescopes to the wall flux; in floating point up to the
    # rounding of the cell differences and of the two sums
    size = float(np.abs(fu).sum()) * grid.hy + float(np.abs(fw).sum()) * grid.hx
    assert abs(integrate_cell(tr.div, grid) - tr.outflow) <= 32 * EPS * size


# ---------------------------------------------------------------------------
# Krylov solvers against dense oracles
# ---------------------------------------------------------------------------

def spd_operator(grid, rng, shift=1.0):
    c = harmonic_face_coefficients(rng.uniform(0.5, 2.0, grid.shape), grid)
    d = rng.uniform(0.5, 1.5, grid.shape) * shift

    def apply(f):
        return d * f - apply_neumann_laplacian(f, c, grid)

    return StencilOperator(apply, grid.shape, symmetric=True)


def test_solve_minres_singular_neumann_system():
    # the pure-Neumann system is singular; from zero, on a zero-mean rhs,
    # every MINRES iterate stays in the operator's range, so the solution is
    # the zero-mean one (the pseudo-inverse solution) without a projection
    grid = make_grid(1.0, 1.0, 8, 8)
    rng = np.random.default_rng(43)
    c = harmonic_face_coefficients(rng.uniform(0.5, 2.0, grid.shape), grid)
    op = StencilOperator(lambda f: -apply_neumann_laplacian(f, c, grid),
                         grid.shape, symmetric=True)
    rhs = rng.standard_normal(grid.shape)
    rhs -= rhs.mean()
    x, rep = solve_minres(op, rhs, 1e-10)
    assert rep.converged
    assert abs(x.mean()) < 1e-12  # gauge fixed to zero mean
    np.testing.assert_allclose(op.apply(x), rhs, atol=1e-8)
    pinv = np.linalg.pinv(materialize_dense(op))
    np.testing.assert_allclose(x.ravel(), pinv @ rhs.ravel(), atol=1e-8)


def test_solve_minres_continues_one_recurrence_past_the_norm_gap(monkeypatch):
    # a badly scaled Jacobi preconditioner opens a wide gap between the
    # preconditioned-norm estimate and the plain residual; when the estimate
    # meets its target the true residual is measured, the target tightened
    # by the observed gap and the same recurrence continued, with no restart
    rng = np.random.default_rng(71)
    d = np.concatenate([rng.uniform(1.0, 3.0, 40), -rng.uniform(0.5, 2.0, 24)])
    d[:4] *= 1e4
    m = np.abs(d) ** 0.5
    args = []
    cycles = []

    def apply(x):
        args.append(x.copy())
        return d * x

    cycle = elliptic._minres_cycle

    def counted_cycle(*a):
        cycles.append(a)
        return cycle(*a)

    monkeypatch.setattr(elliptic, "_minres_cycle", counted_cycle)
    op = StencilOperator(apply, d.shape, symmetric=True)
    rhs = rng.standard_normal(d.shape)
    x, rep = solve_minres(op, rhs, 1e-12, precond=jacobi(m))
    assert rep.converged
    np.testing.assert_allclose(x, rhs / d, atol=1e-9)
    assert len(cycles) == 1
    # Lanczos vectors have unit preconditioned norm v.(m v) = 1; every other
    # apply is at an iterate: the initial residual or a true-residual check
    lanczos = sum(abs(a @ (m * a) - 1.0) < 1e-8 for a in args)
    checks = len(args) - lanczos - 1
    assert lanczos == rep.iterations and 1 <= checks <= 2
    assert len(args) <= rep.iterations + checks + 1
    # the report reuses the last check, made at the returned iterate
    assert np.array_equal(args[-1], x)
    assert rep.residual == np.linalg.norm(rhs - d * x)


def test_solve_minres_lucky_breakdown_applies_the_last_update():
    # with the exact Jacobi preconditioner M^-1 A = I, so the Krylov space
    # is exhausted after one step: bsq = 0 there is a lucky breakdown and
    # the step's update must still be applied
    rng = np.random.default_rng(73)
    d = rng.uniform(1.0, 5.0, 50)
    op = StencilOperator(lambda x: d * x, d.shape, symmetric=True)
    x, rep = solve_minres(op, rng.standard_normal(d.shape), 1e-12,
                          precond=jacobi(d))
    assert rep.converged and rep.iterations == 1 and rep.rel_residual <= 1e-12
    # powers of two summing to 64 = 8^2, rhs = d: every operation is exact,
    # so the breakdown is bsq == 0 exactly, not a round-off remainder
    d = np.array([1.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0])
    op = StencilOperator(lambda x: d * x, d.shape, symmetric=True)
    x, rep = solve_minres(op, d.copy(), 1e-12, precond=jacobi(d))
    assert rep.converged and rep.iterations == 1 and rep.rel_residual <= 1e-12
    assert np.array_equal(x, np.ones_like(d))


def test_solve_general_agrees_with_minres_on_symmetric_systems():
    grid = make_grid(1.0, 1.0, 8, 8)
    rng = np.random.default_rng(47)
    op = spd_operator(grid, rng)
    rhs = rng.standard_normal(grid.shape)
    x_mr, _ = solve_minres(op, rhs, 1e-13)
    x_bi, rep = solve_general(op, rhs, 1e-13)
    assert rep.converged
    np.testing.assert_allclose(x_bi, x_mr, atol=1e-10)


DT, S, EPS = 1e-3, 2.0, 0.1


def phase_like_operator(grid):
    """The eliminated phase system f + dt L_m A_eps f with mobility in
    [0.05, 0.95] and theta in [0.1, 0.3]: two symmetric stencils whose
    composition is not symmetric when the coefficients vary."""
    x0, y0 = grid.cell_centers()
    phi = np.tanh(3.0 * np.cos(np.pi * x0) * np.cos(np.pi * y0))
    m = harmonic_face_coefficients(0.5 + 0.45 * phi, grid)
    theta = 0.2 + 0.1 * np.cos(np.pi * y0)

    def a_eps(f):
        return (S / EPS) * f - EPS * apply_neumann_laplacian(f, unit_faces(grid), grid)

    def l_m(f):
        return -apply_neumann_laplacian(f, m, grid) + theta * f

    return StencilOperator(lambda f: f + DT * l_m(a_eps(f)), grid.shape)


def test_solve_general_nonsymmetric_composition_vs_dense():
    # the eliminated phase system composes two symmetric stencils, which is
    # not symmetric when the coefficients vary; BiCGStab must still match a
    # dense direct solve
    grid = make_grid(1.0, 1.0, 8, 8)
    rng = np.random.default_rng(53)
    op = phase_like_operator(grid)
    mat = materialize_dense(op)
    assert np.max(np.abs(mat - mat.T)) > 1e-8  # genuinely nonsymmetric
    rhs = rng.standard_normal(grid.shape)
    x, rep = solve_general(op, rhs, 1e-12)
    assert rep.converged
    np.testing.assert_allclose(x.ravel(), np.linalg.solve(mat, rhs.ravel()),
                               atol=1e-8)


def test_solve_general_identity_preconditioner_is_plain_bicgstab():
    grid = make_grid(1.0, 1.0, 8, 8)
    rng = np.random.default_rng(59)
    op = phase_like_operator(grid)
    rhs = rng.standard_normal(grid.shape)
    x0 = rng.standard_normal(grid.shape)
    x_plain, rep_plain = solve_general(op, rhs, 1e-12, x0)
    x_ident, rep_ident = solve_general(op, rhs, 1e-12, x0, precond=lambda a: a.copy())
    assert rep_plain.converged and rep_plain.iterations > 5
    assert np.array_equal(x_ident, x_plain)
    assert rep_ident == rep_plain


def test_preconditioned_bicgstab_matches_dense_solve():
    # right preconditioning by the exact inverse of the constant-coefficient
    # operator at the largest mobility and theta (DCT-II): the solution is
    # the dense one, and the stopping test stays on the plain residual
    grid = make_grid(1.0, 0.75, 12, 9)
    rng = np.random.default_rng(73)
    op = phase_like_operator(grid)
    mat = materialize_dense(op)
    assert np.max(np.abs(mat - mat.T)) > 1e-8
    precond = neumann_multiplier(grid, lambda kappa: 1.0 / (
        1.0 + DT * (0.95 * kappa + 0.3) * (S / EPS + EPS * kappa)))
    rhs = rng.standard_normal(grid.shape)
    _, rep_plain = solve_general(op, rhs, 1e-12)
    x, rep = solve_general(op, rhs, 1e-12, precond=precond)
    assert rep.converged and rep.rel_residual <= 1e-11
    assert rep.iterations <= rep_plain.iterations // 2
    np.testing.assert_allclose(x.ravel(), np.linalg.solve(mat, rhs.ravel()),
                               atol=1e-9)


def test_solve_general_restarts_when_the_true_residual_fails():
    # on this badly scaled system the BiCGStab recurrence residual drifts
    # below the target while rhs - A x stays above 10 tol; the solver must
    # check the true residual on exit and restart instead of reporting failure
    rng = np.random.default_rng(98)
    n = 24
    a = np.diag(np.logspace(0, 6, n)) + rng.standard_normal((n, n))
    rhs = rng.standard_normal(n)
    op = StencilOperator(lambda x: a @ x, (n,))
    x, rep = solve_general(op, rhs, 1e-14)
    assert rep.converged and rep.rel_residual <= 1e-13
    np.testing.assert_allclose(np.linalg.norm(rhs - a @ x), rep.residual, rtol=1e-12)


def test_solve_minres_indefinite_diagonal():
    rng = np.random.default_rng(59)
    d = np.concatenate([rng.uniform(1.0, 3.0, 40), -rng.uniform(0.5, 2.0, 24)])
    rng.shuffle(d)
    op = StencilOperator(lambda x: d * x, d.shape, symmetric=True)
    rhs = rng.standard_normal(d.shape)
    x, rep = solve_minres(op, rhs, 1e-12,
                          precond=jacobi(np.abs(d)))
    assert rep.converged
    np.testing.assert_allclose(x, rhs / d, atol=1e-9)
    with pytest.raises(ValueError):
        solve_minres(StencilOperator(lambda x: d * x, d.shape, symmetric=False), rhs, 1e-12)


def test_solve_minres_start_that_meets_the_goal_costs_one_apply():
    # a start within tol is returned as it is, at the one apply that
    # measures it
    d = np.linspace(1.0, 2.0, 20)
    rhs = np.cos(np.arange(20.0))
    applies = []
    op = StencilOperator(lambda x: applies.append(1) or d * x, d.shape, symmetric=True)
    x, rep = solve_minres(op, rhs, 1e-12, rhs / d)
    assert rep.converged and rep.iterations == 0 and len(applies) == 1
    assert np.array_equal(x, rhs / d)


def stiffness_and_mass(n, kind):
    """Dense unit-spacing 1D stiffness K and diagonal mass M of a
    `laplacian_basis` kind on n >= 2 cells, assembled entry by entry."""
    size = n + 1 if kind == "node" else n
    k = 2.0 * np.eye(size) - np.eye(size, k=1) - np.eye(size, k=-1)
    k[0, 0] = k[-1, -1] = 3.0 if kind == "dirichlet" else 1.0
    weight = np.ones(size)
    if kind == "node":
        weight[[0, -1]] = 0.5
    return k, np.diag(weight)


@pytest.mark.parametrize("n", [2, 7])
def test_laplacian_bases_diagonalize_the_1d_stiffness(n):
    for kind in ("cell", "dirichlet", "node"):
        k, m = stiffness_and_mass(n, kind)
        q, lam = laplacian_basis(n, kind)
        np.testing.assert_allclose(q.T @ m @ q, np.eye(len(m)), atol=1e-14)
        np.testing.assert_allclose(m @ q @ np.diag(lam) @ q.T @ m, k, atol=1e-14)
    with pytest.raises(ValueError):
        laplacian_basis(n, "edge")


# side lengths up to 256, with the n-th one of each where the floating-point
# angle reduction of the old per-kind formulas drifted most
TABLE_SIDES = [2, 3, 5, 8, 31, 32, 33, 64, 93, 120, 128, 255, 256]
LONG = np.longdouble


def long_basis(n, kind):
    """The per-kind formula of `laplacian_basis` in long double: (q, lam)."""
    j, pi = np.arange(n, dtype=LONG) + 0.5, 4 * np.arctan(LONG(1))
    if kind == "cell":
        k, rows, weight = np.arange(n, dtype=LONG), j, np.ones(n, dtype=LONG)
        q = np.cos(pi * np.outer(rows, k) / n)
    elif kind == "dirichlet":
        k, rows, weight = np.arange(1, n + 1, dtype=LONG), j, np.ones(n, dtype=LONG)
        q = np.sin(pi * np.outer(rows, k) / n)
    else:
        k = rows = np.arange(n + 1, dtype=LONG)
        weight = np.ones(n + 1, dtype=LONG)
        weight[[0, -1]] = 0.5
        q = np.cos(pi * np.outer(rows, k) / n)
    return q / np.sqrt(weight @ q ** 2), 2 - 2 * np.cos(pi * k / n), weight


@pytest.mark.skipif(np.finfo(LONG).eps >= np.finfo(float).eps,
                    reason="long double carries no extra precision here")
@pytest.mark.parametrize("kind", ["cell", "dirichlet", "node"])
def test_laplacian_bases_are_the_per_kind_formulas_to_a_few_eps(kind):
    # the trig_table bases against their formulas in long double, entry by
    # entry and eigenvalue by eigenvalue; their Gram matrix (formed in long
    # double, so only the bases' own rounding counts) is I to 4 eps at every
    # side up to 256, where the floating-point angles drifted to 49-66 eps
    eps = np.finfo(float).eps
    for n in TABLE_SIDES:
        q, lam = laplacian_basis(n, kind)
        want_q, want_lam, weight = long_basis(n, kind)
        assert float(np.max(np.abs(q - want_q))) <= 4 * eps, n
        assert float(np.max(np.abs(lam - want_lam))) <= 8 * eps, n
        gram = q.astype(LONG).T @ (weight[:, None] * q.astype(LONG))
        assert float(np.max(np.abs(gram - np.eye(len(gram), dtype=LONG)))) <= 4 * eps, n


def test_each_side_length_reads_one_cached_table():
    elliptic.trig_table.cache_clear()
    laplacian_basis.cache_clear()
    for kind in ("cell", "dirichlet", "node"):
        laplacian_basis(24, kind)
    laplacian_basis(25, "cell")
    info = elliptic.trig_table.cache_info()
    assert info.misses == 2 and info.hits == 2
    cos, sin = elliptic.trig_table(24)
    assert cos.shape == sin.shape == (96,) and not cos.flags.writeable
    for m in (0, 24, 48, 72):   # the quarter turns: the table holds what np.cos gives
        assert cos[m] == np.cos(np.pi / 48 * m) and sin[m] == np.sin(np.pi / 48 * m)


KINDS = st.sampled_from(("cell", "dirichlet", "node"))
WEIGHTS = st.floats(0.1, 10.0)


@settings(max_examples=10, deadline=None)
@given(nx=st.integers(2, 12), ny=st.integers(2, 12), kind_x=KINDS, kind_y=KINDS,
       ax=WEIGHTS, ay=WEIGHTS, shift=WEIGHTS, seed=SEEDS)
def test_separable_inverse_matches_a_dense_solve(nx, ny, kind_x, kind_y, ax, ay,
                                                 shift, seed):
    # ax Kx (x) My + ay Mx (x) Ky + shift Mx (x) My is diagonal in the tensor
    # basis, with entries ax lam_x + ay lam_y + shift
    (qx, lx), (qy, ly) = laplacian_basis(nx, kind_x), laplacian_basis(ny, kind_y)
    (kx, mx), (ky, my) = stiffness_and_mass(nx, kind_x), stiffness_and_mass(ny, kind_y)
    mat = ax * np.kron(kx, my) + ay * np.kron(mx, ky) + shift * np.kron(mx, my)
    inv = separable_inverse(qx, qy, 1.0 / (ax * lx[:, None] + ay * ly[None, :] + shift))
    r = np.random.default_rng(seed).standard_normal((len(lx), len(ly)))
    want = np.linalg.solve(mat, r.ravel())
    np.testing.assert_allclose(inv(r).ravel(), want, rtol=0.0,
                               atol=1e-11 * np.max(np.abs(want)))


@settings(max_examples=20, deadline=None)
@given(nx=st.integers(2, 12), ny=st.integers(2, 12), kind_x=KINDS, kind_y=KINDS,
       data=st.data(), seed=SEEDS)
def test_separable_inverse_on_leading_modes_matches_the_dense_formula(
        nx, ny, kind_x, kind_y, data, seed):
    # the first mx, my columns of the bases: qx ((qx^T r qy) * scale) qy^T
    (qx, _), (qy, _) = laplacian_basis(nx, kind_x), laplacian_basis(ny, kind_y)
    mx = data.draw(st.integers(1, qx.shape[1]))
    my = data.draw(st.integers(1, qy.shape[1]))
    bx, by = qx[:, :mx], qy[:, :my]
    rng = np.random.default_rng(seed)
    scale = rng.uniform(0.1, 10.0, (mx, my))
    r = rng.standard_normal((len(qx), len(qy)))
    want = bx @ (scale * (bx.T @ r @ by)) @ by.T
    inv = separable_inverse(bx, by, scale)
    out = np.empty_like(r)
    assert inv(r, out=out) is out
    for got in (out, inv(r)):
        np.testing.assert_allclose(got, want, rtol=0.0,
                                   atol=1e-13 * np.max(np.abs(want)))


@settings(max_examples=10, deadline=None)
@given(nx=SIDES, ny=SIDES, lx=LENGTHS, ly=LENGTHS, alpha=st.floats(1e-3, 1.0),
       seed=SEEDS)
def test_neumann_multiplier_matches_a_dense_solve(nx, ny, lx, ly, alpha, seed):
    # symbol 1 / (1 + alpha kappa) is the inverse of I - alpha Lap
    grid = make_grid(lx, ly, nx, ny)
    lap = materialize_dense(StencilOperator(
        lambda f: apply_neumann_laplacian(f, unit_faces(grid), grid),
        grid.shape, symmetric=True))
    r = np.random.default_rng(seed).standard_normal(grid.shape)
    got = neumann_multiplier(grid, lambda kappa: 1.0 / (1.0 + alpha * kappa))(r)
    want = np.linalg.solve(np.eye(grid.nx * grid.ny) - alpha * lap, r.ravel())
    np.testing.assert_allclose(got.ravel(), want, rtol=0.0,
                               atol=1e-11 * np.max(np.abs(want)))


@pytest.mark.parametrize("sides", [(9, 6, 1.0, 0.5), (7, 11, 1.3, 0.7)])
@pytest.mark.parametrize("alpha, beta, c, b", [
    (1.0, 0.3, 0.7, 0.0),     # zero-flux walls
    (1.0, 0.3, 0.7, 1.0),     # Robin walls
    (1.0, 1e-4, 0.05, 2.5),   # a nutrient step's shape
    (0.0, 1.0, 0.05, 1.0),    # steady: alpha = 0, the Robin walls alone keep it regular
], ids=["neumann", "robin", "step", "steady"])
def test_robin_inverse_matches_the_dense_inverse(sides, alpha, beta, c, b):
    nx, ny, lx, ly = sides   # hx != hy
    grid = make_grid(lx, ly, nx, ny)
    robin = diffusion_stencil(c, grid, b)
    mat = materialize_dense(StencilOperator(lambda f: alpha * f - beta * robin(f),
                                            grid.shape))
    inv = robin_inverse(grid, alpha, beta, c, b)
    got = materialize_dense(StencilOperator(inv, grid.shape))
    want = np.linalg.inv(mat)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    r = np.random.default_rng(3).standard_normal(grid.shape)
    out = np.empty_like(r)
    assert inv(r, out=out) is out and np.array_equal(out, inv(r))


@pytest.mark.parametrize("n", [4, 9, 64])
@pytest.mark.parametrize("k, w", [(1.0, 0.0), (81.0, 9.0), (204.8, 64.0)])
def test_robin_basis_pair_is_biorthogonal(n, k, w):
    # right^T left = I: the diagonal similarity cancels up to a few ulps
    left, right, lam = robin_basis(n, k, w)
    gap = np.max(np.abs(right.T @ left - np.eye(n)))
    assert gap <= 8 * np.finfo(float).eps
    # negative definite with Robin walls; zero-flux walls keep the constants
    top = np.max(lam)
    assert top < 0.0 if w > 0.0 else abs(top) <= 16 * np.finfo(float).eps * k


def test_face_gradient_walls_are_zero():
    grid = make_grid(1.0, 1.0, 6, 6)
    rng = np.random.default_rng(61)
    g = face_gradient(rng.standard_normal(grid.shape), grid)
    np.testing.assert_allclose(g.u[0, :], 0.0)
    np.testing.assert_allclose(g.u[-1, :], 0.0)
    np.testing.assert_allclose(g.w[:, 0], 0.0)
    np.testing.assert_allclose(g.w[:, -1], 0.0)
