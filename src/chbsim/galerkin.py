"""Spectral Galerkin route: cosine eigenbasis of the Neumann Laplacian.

The phase and nutrient fields are expanded in the first k eigenfunctions
w_m(x, y) = kappa_m cos(i pi x / Lx) cos(j pi y / Ly) and the PDE system is
projected onto the span, yielding an ODE system in the coefficient vectors
which is marched with classical RK4.  Velocity and pressure are NOT spectral:
every stage re-solves the staggered Brinkman system on the grid, started from
the best mix of the flows of the last FLOW_WINDOW solved stages (a
`ProjectedStart`).  A stage synthesizes its fields and evaluates psi' and the
sources once, into a `Stage` record that the flow solve, the assembly and the
sampled States all read.

Midpoint quadrature at the cell centers is exact for products of admissible
modes (combined index below twice the cell count per direction), so the Gram
matrix is the identity and the stiffness matrix is exactly diag(lambda_m) up
to rounding.  We enforce at least 8 cells per shortest wavelength, which
keeps all assembled quadratures in that exact regime with margin.

Nonlinear terms (psi', mobilities, sources, convection products) are
evaluated by collocation on the same grid and projected back.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import FaceField, Grid, State, face_to_center
from .constitutive import (
    ModelSpec,
    SourceTerms,
    mobilities,
    nutrient_energy,
    potential_eval,
    sources,
)
from .elliptic import SolverOptions
from .brinkman import ProjectedStart, brinkman_problem, solve_brinkman


# ---------------------------------------------------------------------------
# Basis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralBasis:
    """First k cosine modes with everything pre-evaluated on the grid.

    values/grad_x/grad_y hold the modes and their analytic gradients at the
    cell centers, shape (k, nx, ny); the edge_* arrays hold traces on the
    four walls at the boundary-face midpoints (exact, not extrapolated).
    """

    grid: Grid
    k: int
    modes: tuple                      # ((i, j), ...) in eigenvalue order
    eigenvalues: np.ndarray           # (k,) lambda_m = pi^2 (i^2/Lx^2 + j^2/Ly^2)
    values: np.ndarray
    grad_x: np.ndarray
    grad_y: np.ndarray
    edge_left: np.ndarray             # (k, ny)
    edge_right: np.ndarray            # (k, ny)
    edge_bottom: np.ndarray           # (k, nx)
    edge_top: np.ndarray              # (k, nx)
    m_bnd: np.ndarray = field(init=False)  # (k, k) boundary mass, built once

    def __post_init__(self) -> None:
        object.__setattr__(self, "m_bnd", boundary_mass(self))


def build_basis(k: int, grid: Grid) -> SpectralBasis:
    """Enumerate modes by eigenvalue and evaluate them on the grid.

    Modes with index i need 8 grid cells per wavelength 2 Lx / i, i.e.
    i <= nx / 4 (same in y); asking for more modes than that admits raises.
    The constant mode comes first, normalized to 1/sqrt(|Omega|) so the
    quadrature Gram matrix is the identity.
    """
    if k < 1:
        raise ValueError(f"need at least one mode, got k={k}")
    g = grid
    imax, jmax = g.nx // 4, g.ny // 4
    admissible = (imax + 1) * (jmax + 1)
    if k > admissible:
        raise ValueError(
            f"k={k} exceeds the quadrature resolution of a {g.nx}x{g.ny} grid: "
            f"only {admissible} modes keep >= 8 cells per wavelength")
    pairs = [(np.pi ** 2 * ((i / g.Lx) ** 2 + (j / g.Ly) ** 2), i, j)
             for i in range(imax + 1) for j in range(jmax + 1)]
    pairs.sort()
    chosen = pairs[:k]

    xs = (np.arange(g.nx) + 0.5) * g.hx
    ys = (np.arange(g.ny) + 0.5) * g.hy
    x2, y2 = np.meshgrid(xs, ys, indexing="ij")
    vals = np.empty((k, g.nx, g.ny))
    gx = np.empty((k, g.nx, g.ny))
    gy = np.empty((k, g.nx, g.ny))
    e_l = np.empty((k, g.ny))
    e_r = np.empty((k, g.ny))
    e_b = np.empty((k, g.nx))
    e_t = np.empty((k, g.nx))
    lams = np.empty(k)
    modes = []
    for m, (lam, i, j) in enumerate(chosen):
        kx, ky = i * np.pi / g.Lx, j * np.pi / g.Ly
        kap = np.sqrt((2.0 if i else 1.0) * (2.0 if j else 1.0) / (g.Lx * g.Ly))
        cx, cy = np.cos(kx * x2), np.cos(ky * y2)
        vals[m] = kap * cx * cy
        gx[m] = -kap * kx * np.sin(kx * x2) * cy
        gy[m] = -kap * ky * cx * np.sin(ky * y2)
        e_l[m] = kap * np.cos(ky * ys)                      # x = 0
        e_r[m] = kap * np.cos(kx * g.Lx) * np.cos(ky * ys)  # x = Lx
        e_b[m] = kap * np.cos(kx * xs)                      # y = 0
        e_t[m] = kap * np.cos(kx * xs) * np.cos(ky * g.Ly)  # y = Ly
        lams[m] = lam
        modes.append((i, j))
    return SpectralBasis(grid=g, k=k, modes=tuple(modes), eigenvalues=lams,
                         values=vals, grad_x=gx, grad_y=gy,
                         edge_left=e_l, edge_right=e_r,
                         edge_bottom=e_b, edge_top=e_t)


def synthesize(coeffs: np.ndarray, basis: SpectralBasis) -> np.ndarray:
    """Sum_m coeffs[m] w_m evaluated at the cell centers."""
    return np.tensordot(coeffs, basis.values, axes=1)


def project(field: np.ndarray, basis: SpectralBasis) -> np.ndarray:
    """Quadrature projection <field, w_m> for all modes."""
    vol = basis.grid.cell_area
    return np.tensordot(basis.values, field, axes=2) * vol


# ---------------------------------------------------------------------------
# State, matrices, right-hand side
# ---------------------------------------------------------------------------

@dataclass
class SpectralState:
    t: float
    a: np.ndarray   # phase coefficients
    c: np.ndarray   # nutrient coefficients


def chemical_coeffs(a: np.ndarray, c: np.ndarray, phi: np.ndarray,
                    basis: SpectralBasis, model: ModelSpec) -> np.ndarray:
    """b = eps lambda a + <psi'(phi), w> / eps - chi_phi c, phi the synthesized a."""
    eps = model.params.epsilon
    _, dpsi = potential_eval(phi, model.potential)
    psi_vec = project(dpsi, basis)
    return eps * basis.eigenvalues * a + psi_vec / eps - model.params.chi_phi * c


@dataclass(frozen=True)
class Stage:
    """One RK4 stage at coefficients (a, c), evaluated once."""

    b: np.ndarray          # chemical-potential coefficients
    phi: np.ndarray        # the synthesized a, b and c
    mu: np.ndarray
    sigma: np.ndarray
    src: SourceTerms       # sources of (phi, sigma, mu)


def stage(a: np.ndarray, c: np.ndarray, basis: SpectralBasis,
          model: ModelSpec) -> Stage:
    """Evaluate the stage at (a, c): b from psi'(phi), then the sources."""
    phi, sigma = synthesize(a, basis), synthesize(c, basis)
    b = chemical_coeffs(a, c, phi, basis, model)
    mu = synthesize(b, basis)
    return Stage(b, phi, mu, sigma, sources(phi, sigma, mu, model.source, model.params))


@dataclass
class GalerkinMatrices:
    s_m: np.ndarray      # phase-mobility-weighted stiffness
    s_n: np.ndarray      # nutrient-mobility-weighted stiffness
    m_bnd: np.ndarray    # boundary mass matrix
    c_mat: np.ndarray    # convection, (C)_{ji} = <(grad w_i . v), w_j>
    d_mat: np.ndarray    # volume-source mass, (D)_{ji} = <Gamma_v w_i, w_j>
    g_vec: np.ndarray    # <Gamma_phi, w_j>
    f_vec: np.ndarray    # <Gamma_sigma, w_j>
    sig_vec: np.ndarray  # boundary data, <sigma_inf, w_j>_{boundary}


def _weighted_stiffness(weight: np.ndarray, basis: SpectralBasis) -> np.ndarray:
    g = basis.grid
    p = g.nx * g.ny
    gx = basis.grad_x.reshape(basis.k, p)
    gy = basis.grad_y.reshape(basis.k, p)
    w = weight.reshape(p) * g.cell_area
    mat = (gx * w) @ gx.T + (gy * w) @ gy.T
    return 0.5 * (mat + mat.T)


def boundary_mass(basis: SpectralBasis) -> np.ndarray:
    g = basis.grid
    mat = (basis.edge_left @ basis.edge_left.T
           + basis.edge_right @ basis.edge_right.T) * g.hy
    mat += (basis.edge_bottom @ basis.edge_bottom.T
            + basis.edge_top @ basis.edge_top.T) * g.hx
    return 0.5 * (mat + mat.T)


def assemble_matrices(st: Stage, v: FaceField, model: ModelSpec,
                      basis: SpectralBasis) -> GalerkinMatrices:
    """All projections by the shared midpoint quadrature.

    Nonlinearities are read from the stage's grid fields and sources; the
    convection matrix uses the face velocity averaged to the cell centers.
    """
    g, prm = basis.grid, model.params
    k, p = basis.k, g.nx * g.ny
    vol = g.cell_area
    src = st.src
    m_cell, n_cell = mobilities(st.phi, model.mobvis)

    vals = basis.values.reshape(k, p)
    gx = basis.grad_x.reshape(k, p)
    gy = basis.grad_y.reshape(k, p)
    vx, vy = (comp.reshape(p) for comp in face_to_center(v))
    gam_v = src.gamma_v.reshape(p)

    wind = gx * vx                   # grad w_i . v, one (k, p) temporary
    wind += gy * vy
    c_mat = vol * (vals @ wind.T)
    d_mat = vol * (vals @ (vals * gam_v).T)

    sinf = prm.sigma_inf
    sig_vec = g.hy * (sinf.left * basis.edge_left.sum(axis=1)
                      + sinf.right * basis.edge_right.sum(axis=1))
    sig_vec += g.hx * (sinf.bottom * basis.edge_bottom.sum(axis=1)
                       + sinf.top * basis.edge_top.sum(axis=1))

    return GalerkinMatrices(
        s_m=_weighted_stiffness(m_cell, basis),
        s_n=_weighted_stiffness(n_cell, basis),
        m_bnd=basis.m_bnd,
        c_mat=c_mat,
        d_mat=d_mat,
        g_vec=project(src.lambda_phi - src.theta_phi * st.mu, basis),
        f_vec=project(src.lambda_sigma - src.theta_sigma * st.mu, basis),
        sig_vec=sig_vec,
    )


def rhs(a: np.ndarray, b: np.ndarray, c: np.ndarray, mats: GalerkinMatrices,
        model: ModelSpec) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient derivatives (da/dt, dc/dt) from assembled matrices."""
    prm = model.params
    conv = mats.c_mat + mats.d_mat
    da = -(mats.s_m @ b) + mats.g_vec - conv @ a
    dc = (mats.s_n @ (prm.chi_phi * a - prm.chi_sigma * c) - mats.f_vec
          - conv @ c + prm.b * (mats.sig_vec - mats.m_bnd @ c))
    return da, dc


# ---------------------------------------------------------------------------
# Time integration
# ---------------------------------------------------------------------------

FLOW_TOL = 1e-10         # relative tolerance of every stage's Brinkman solve
FLOW_WINDOW = 8          # solved stages a flow solve's projected start mixes


class SpectralBlowup(RuntimeError):
    pass


@dataclass
class GalerkinResult:
    times: np.ndarray
    a: np.ndarray                 # (steps+1, k)
    c: np.ndarray                 # (steps+1, k)
    states: list[State]           # synthesized samples with the stage-1 flow
    flow_iterations: int


def integrate(state0: SpectralState, dt: float, steps: int, model: ModelSpec,
              basis: SpectralBasis, *, flow: bool = True) -> GalerkinResult:
    """Classical RK4 march of the coefficient ODEs.

    Every stage re-solves the grid Brinkman system from its `Stage` record
    to FLOW_TOL, started by a `ProjectedStart` over this call's last
    FLOW_WINDOW solved stages (nothing is kept between calls).  Aborts when
    ||a|| + ||c|| exceeds 1e6.  Samples the stage-1 record of every step as
    a State (with that stage's velocity and pressure), and the final state,
    without assembling its matrices.
    """
    if dt <= 0.0 or steps < 0:
        raise ValueError("need dt > 0 and steps >= 0")
    g = basis.grid
    k = basis.k
    a, c = state0.a.copy(), state0.c.copy()
    t = state0.t
    a_hist = np.empty((steps + 1, k))
    c_hist = np.empty((steps + 1, k))
    times = np.empty(steps + 1)
    a_hist[0], c_hist[0], times[0] = a, c, t
    states: list[State] = []
    window = ProjectedStart(FLOW_WINDOW)
    flow_iters = 0

    def evaluate(aa: np.ndarray, cc: np.ndarray,
                 record: float | None) -> tuple[Stage, FaceField]:
        """The stage record and its flow; sampled when `record` is a time."""
        nonlocal flow_iters
        if float(np.linalg.norm(aa)) + float(np.linalg.norm(cc)) > 1e6:
            raise SpectralBlowup(f"coefficient blow-up at t={t:g}")
        st = stage(aa, cc, basis, model)
        if flow:
            problem = brinkman_problem(
                st.phi, st.sigma, st.mu, nutrient_energy(st.phi, st.sigma, model.params)[1],
                st.src.gamma_v, model)
            sol = solve_brinkman(problem, SolverOptions(
                tol=FLOW_TOL, x0=window.start(problem.rhs)))
            if not sol.report.converged:
                raise SpectralBlowup(
                    f"spectral-route flow solve stalled: rel residual "
                    f"{sol.report.rel_residual:.3e}")
            v, p = sol.v, sol.p
            window.add(sol.x, problem.rhs)
            flow_iters += sol.report.iterations
        else:
            v, p = FaceField.zeros(g), np.zeros(g.shape)
        if record is not None:
            states.append(State(t=record, phi=st.phi, mu=st.mu, sigma=st.sigma,
                                p=p, v=v))
        return st, v

    def derivative(aa: np.ndarray, cc: np.ndarray,
                   record: float | None) -> tuple[np.ndarray, np.ndarray]:
        st, v = evaluate(aa, cc, record)
        return rhs(aa, st.b, cc, assemble_matrices(st, v, model, basis), model)

    for n in range(steps):
        k1a, k1c = derivative(a, c, t)
        k2a, k2c = derivative(a + 0.5 * dt * k1a, c + 0.5 * dt * k1c, None)
        k3a, k3c = derivative(a + 0.5 * dt * k2a, c + 0.5 * dt * k2c, None)
        k4a, k4c = derivative(a + dt * k3a, c + dt * k3c, None)
        a = a + (dt / 6.0) * (k1a + 2.0 * k2a + 2.0 * k3a + k4a)
        c = c + (dt / 6.0) * (k1c + 2.0 * k2c + 2.0 * k3c + k4c)
        t = state0.t + (n + 1) * dt
        a_hist[n + 1], c_hist[n + 1], times[n + 1] = a, c, t
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(c))):
            raise SpectralBlowup(f"non-finite coefficients at t={t:g}")

    evaluate(a, c, t)  # sample the final state (and validate it)
    return GalerkinResult(times=times, a=a_hist, c=c_hist, states=states,
                          flow_iterations=flow_iters)
