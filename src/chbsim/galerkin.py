"""Spectral Galerkin route: cosine eigenbasis of the Neumann Laplacian.

The phase and nutrient fields are expanded in the first k eigenfunctions
w_m(x, y) = kappa_m cos(i pi x / Lx) cos(j pi y / Ly) and the PDE system is
projected onto the span, yielding an ODE system in the coefficient vectors
which is marched with classical RK4.  Velocity and pressure are NOT spectral:
unless the flow is off, every stage re-solves the staggered Brinkman system
on the grid through a `ProjectedStart`: from the exact solve at constant
viscosities, built once per `integrate` call, otherwise from the
least-squares mix of the flows of the last FLOW_WINDOW solved stages.  A stage synthesizes its
fields and evaluates psi' and the sources once, into a `Stage` record that
the flow solve, the projections and the sampled States all read.

A stage's coefficient derivatives are the quadrature pairings of its fluxes
and sources with the modes and their gradients (`assemble_matrices`); no
k x k matrix is formed.  Midpoint quadrature at the cell centers is exact
for products of admissible modes (combined index below twice the cell count
per direction), so the Gram matrix is the identity and the stiffness
pairing is exactly diag(lambda_m) up to rounding.  We enforce at least 8
cells per shortest wavelength, which keeps all these quadratures in that
exact regime with margin.

Nonlinear terms (psi', mobilities, sources, convection products) are
evaluated by collocation on the same grid and projected back.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import EdgeValues, FaceField, Grid, State, face_to_center
from .constitutive import (
    ModelSpec,
    SourceTerms,
    mobilities,
    nutrient_energy,
    potential_eval,
    sources,
)
from .brinkman import ProjectedStart, brinkman_problem


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


def check_cutoff(k: int, grid: Grid) -> tuple[int, int]:
    """The largest mode indices (imax, jmax) of the grid, once the cutoff k
    is checked against the modes they admit; raises ValueError otherwise.

    Modes with index i need 8 grid cells per wavelength 2 Lx / i, i.e.
    i <= nx / 4 (same in y), so the grid admits (imax + 1) (jmax + 1) modes.
    """
    if k < 1:
        raise ValueError(f"need at least one mode, got k={k}")
    imax, jmax = grid.nx // 4, grid.ny // 4
    admissible = (imax + 1) * (jmax + 1)
    if k > admissible:
        raise ValueError(
            f"k={k} exceeds the quadrature resolution of a {grid.nx}x{grid.ny} grid: "
            f"only {admissible} modes keep >= 8 cells per wavelength")
    return imax, jmax


def build_basis(k: int, grid: Grid) -> SpectralBasis:
    """Enumerate modes by eigenvalue and evaluate them on the grid.

    Asking for more modes than the grid admits raises (`check_cutoff`).
    The constant mode comes first, normalized to 1/sqrt(|Omega|) so the
    quadrature Gram matrix is the identity.
    """
    imax, jmax = check_cutoff(k, grid)
    g = grid
    pairs = [(np.pi ** 2 * ((i / g.Lx) ** 2 + (j / g.Ly) ** 2), i, j)
             for i in range(imax + 1) for j in range(jmax + 1)]
    pairs.sort()
    lams, i, j = (np.array(col) for col in zip(*pairs[:k]))

    # per axis, one row per wavenumber: cos and sin at the cell centers and
    # cos at the far wall; a mode is the product of an x row and a y row
    wx, wy = np.arange(imax + 1) * np.pi / g.Lx, np.arange(jmax + 1) * np.pi / g.Ly
    xs, ys = (np.arange(g.nx) + 0.5) * g.hx, (np.arange(g.ny) + 0.5) * g.hy
    cos_x, sin_x, far_x = np.cos(np.outer(wx, xs)), np.sin(np.outer(wx, xs)), np.cos(wx * g.Lx)
    cos_y, sin_y, far_y = np.cos(np.outer(wy, ys)), np.sin(np.outer(wy, ys)), np.cos(wy * g.Ly)
    kap = np.sqrt(np.where(i, 2.0, 1.0) * np.where(j, 2.0, 1.0) / (g.Lx * g.Ly))
    cx, cy = kap[:, None] * cos_x[i], cos_y[j]
    return SpectralBasis(
        grid=g, k=k, modes=tuple(zip(i.tolist(), j.tolist())), eigenvalues=lams,
        values=cx[:, :, None] * cy[:, None, :],
        grad_x=((-kap * wx[i])[:, None] * sin_x[i])[:, :, None] * cy[:, None, :],
        grad_y=((-kap * wy[j])[:, None] * cos_x[i])[:, :, None] * sin_y[j][:, None, :],
        edge_left=kap[:, None] * cy,                     # x = 0
        edge_right=(kap * far_x[i])[:, None] * cy,       # x = Lx
        edge_bottom=cx,                                  # y = 0
        edge_top=cx * far_y[j][:, None])                 # y = Ly


def synthesize(coeffs: np.ndarray, basis: SpectralBasis) -> np.ndarray:
    """Sum_m coeffs[m] w_m evaluated at the cell centers."""
    return np.tensordot(coeffs, basis.values, axes=1)


def project(field: np.ndarray, basis: SpectralBasis) -> np.ndarray:
    """Quadrature projection <field, w_m> for all modes."""
    vol = basis.grid.cell_area
    return np.tensordot(basis.values, field, axes=2) * vol


# ---------------------------------------------------------------------------
# State, stages, right-hand side
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

    a: np.ndarray          # phase and nutrient coefficients
    c: np.ndarray
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
    return Stage(a, c, b, phi, mu, sigma, sources(phi, sigma, mu, model.source, model.params))


def wall_pairing(values: EdgeValues, basis: SpectralBasis) -> np.ndarray:
    """<values, w_j> over the boundary by the midpoint rule of each wall,
    for values given per wall cell."""
    g = basis.grid
    return ((basis.edge_left @ values.left + basis.edge_right @ values.right) * g.hy
            + (basis.edge_bottom @ values.bottom + basis.edge_top @ values.top) * g.hx)


def assemble_matrices(st: Stage, v: FaceField, model: ModelSpec,
                      basis: SpectralBasis) -> tuple[np.ndarray, np.ndarray]:
    """The coefficient derivatives (da/dt, dc/dt) of the stage under the flow v.

    The name is kept from when this built the stage matrices: the bench's
    `galerkin.assemble_ms` span looks it up.  Every term is one pairing with
    the basis by the shared midpoint quadrature.  The gradients of phi,
    sigma, mu and chi_phi phi - chi_sigma sigma are the analytic ones of the
    modes; the nonlinearities are read from the stage's grid fields and
    sources, and v is the face velocity averaged to the cell centers:

        da_j = <Gamma_phi - v . grad phi - phi Gamma_v, w_j> - <m grad mu, grad w_j>
        dc_j = -<Gamma_sigma + v . grad sigma + sigma Gamma_v, w_j>
               + <n grad(chi_phi phi - chi_sigma sigma), grad w_j>
               + b <sigma_inf - sigma, w_j>_boundary

    with sigma on the walls the exact trace of the modes.
    """
    g, prm, src = basis.grid, model.params, st.src
    k, p = basis.k, g.nx * g.ny
    vals = basis.values.reshape(k, p)
    gx = basis.grad_x.reshape(k, p)
    gy = basis.grad_y.reshape(k, p)
    coeffs = np.stack([st.a, st.c, st.b, prm.chi_phi * st.a - prm.chi_sigma * st.c])
    dx, dy = coeffs @ gx, coeffs @ gy        # rows: phi, sigma, mu, chemotaxis
    m_cell, n_cell = (f.reshape(p) for f in mobilities(st.phi, model.mobvis))
    vx, vy = (comp.reshape(p) for comp in face_to_center(v))
    cell = (np.stack([src.gamma_phi, -src.gamma_sigma]).reshape(2, p)
            - (vx * dx[:2] + vy * dy[:2])
            - np.stack([st.phi, st.sigma]).reshape(2, p) * src.gamma_v.reshape(p))
    flux_x = np.stack([-m_cell * dx[2], n_cell * dx[3]])
    flux_y = np.stack([-m_cell * dy[2], n_cell * dy[3]])
    da, dc = (cell @ vals.T + flux_x @ gx.T + flux_y @ gy.T) * g.cell_area
    sinf = prm.sigma_inf
    dc += prm.b * wall_pairing(EdgeValues(
        sinf.left - st.c @ basis.edge_left, sinf.right - st.c @ basis.edge_right,
        sinf.bottom - st.c @ basis.edge_bottom, sinf.top - st.c @ basis.edge_top), basis)
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

    With `flow`, every stage re-solves the grid Brinkman system from its
    `Stage` record to FLOW_TOL through a `ProjectedStart` over this call's
    last FLOW_WINDOW solved stages, from the exact solve (built once per
    call) at constant viscosities; nothing is kept between calls.  Without
    it v and p are zero.  Aborts when ||a|| + ||c|| exceeds 1e6.  Samples
    the stage-1 record of every step as a State (with that stage's velocity
    and pressure), and the final state, without taking its derivatives.
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
            sol = window.solve(problem, FLOW_TOL)
            if not sol.report.converged:
                raise SpectralBlowup(
                    f"spectral-route flow solve stalled: rel residual "
                    f"{sol.report.rel_residual:.3e}")
            v, p = sol.v, sol.p
            flow_iters += sol.report.iterations
        else:
            v, p = FaceField.zeros(g), np.zeros(g.shape)
        if record is not None:
            states.append(State(t=record, phi=st.phi, mu=st.mu, sigma=st.sigma,
                                p=p, v=v))
        return st, v

    def derivative(aa: np.ndarray, cc: np.ndarray,
                   record: float | None) -> tuple[np.ndarray, np.ndarray]:
        return assemble_matrices(*evaluate(aa, cc, record), model, basis)

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
