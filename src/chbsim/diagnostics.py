"""Run diagnostics: energy, per-step budget, mass ledgers, norms, Gronwall.

Each time level is evaluated once, into a `time_level` record, and a step
adds its old-level coefficients to it (`old_level`); the stages, the mass
ledgers and the energy budget read those records.  The budget routine
mirrors the scheme's own quadratures term by term (same face coefficients,
same upwind fluxes, same wall traces), so its residual contains only the
time-discretization remainder and the Krylov floors, and shrinks linearly
with the step size.  The weak-form residuals at the bottom of the module
deliberately do NOT mirror the scheme: they test snapshots against the
spectral route's cosine basis with centered differences, which makes them an
independent consistency probe.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    FaceField,
    Grid,
    State,
    extrapolate_to_walls,
    face_to_center,
    integrate_cell,
)
from .constitutive import (
    ModelSpec,
    SourceTerms,
    mobilities,
    nutrient_energy,
    potential_eval,
    sources,
    viscosities,
)
from .elliptic import (
    Transport,
    apply_neumann_laplacian,
    face_gradient,
    harmonic_face_coefficients,
    neumann_multiplier,
    robin_influx,
    upwind_transport,
)
from .brinkman import (BrinkmanProblem, _face_volumes, brinkman_problem, energy_parts,
                       strain_rates)
from .galerkin import build_basis


def _grad_sq(f: np.ndarray, grid: Grid) -> float:
    g = face_gradient(f, grid)
    return (float((g.u ** 2).sum()) + float((g.w ** 2).sum())) * grid.cell_area


# ---------------------------------------------------------------------------
# Time-level records, free energy and its per-step budget
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TimeLevel:
    """What the fields of one time level alone determine, evaluated once."""

    state: State
    dpsi: np.ndarray           # psi'(phi)
    n_sigma: np.ndarray        # N_sigma(phi, sigma)
    energy: float              # free energy E, see `energy`


def time_level(state: State, model: ModelSpec) -> TimeLevel:
    """The record of the level `state`."""
    g = model.grid
    eps = model.params.epsilon
    psi, dpsi = potential_eval(state.phi, model.potential)
    nut, n_sigma, _ = nutrient_energy(state.phi, state.sigma, model.params)
    bulk = integrate_cell(psi / eps + nut, g)
    return TimeLevel(state, dpsi, n_sigma, float(bulk + 0.5 * eps * _grad_sq(state.phi, g)))


def energy(state: State, model: ModelSpec) -> float:
    """Total free energy: bulk potential, interfacial gradient, nutrient part.

    E = int 1/eps psi(phi) + eps/2 |grad phi|^2 + N(phi, sigma),
    with the gradient measured on faces (zero at the walls), matching the
    stencil the time stepper dissipates.
    """
    return time_level(state, model).energy


@dataclass(frozen=True)
class OldLevel(TimeLevel):
    """A time level with the coefficients of the step that leaves it."""

    src: SourceTerms                # sources of (phi_n, sigma_n, mu_n)
    m_faces: FaceField              # harmonic face mobility m(phi_n)
    flow: BrinkmanProblem | None    # of (phi_n, sigma_n, mu_n); None with the flow off


def old_level(level: TimeLevel, model: ModelSpec, flow: bool) -> OldLevel:
    """Evaluate the old-level coefficients of the step leaving `level`."""
    st = level.state
    src = sources(st.phi, st.sigma, st.mu, model.source, model.params)
    m_faces = harmonic_face_coefficients(model.mobvis.m(st.phi), model.grid)
    problem = (brinkman_problem(st.phi, st.sigma, st.mu, level.n_sigma, src.gamma_v, model)
               if flow else None)
    return OldLevel(**vars(level), src=src, m_faces=m_faces, flow=problem)


@dataclass(frozen=True)
class Convection:
    """The upwind transport of a step's old phi and sigma by its new velocity:
    one flux pass each, read by both stages, the ledgers and the budget (with
    the flow off, zero divergence and outflow, and no pass)."""

    phi: Transport
    sigma: Transport


def convection(state: State, v: FaceField, grid: Grid) -> Convection:
    """The upwind transport of `state`'s phi and sigma by the velocity v."""
    return Convection(upwind_transport(state.phi, v, grid),
                      upwind_transport(state.sigma, v, grid))


@dataclass
class EnergyBudget:
    """One step of the discrete energy identity.

    budget_residual = (e_after - e_before)/dt + dissipation - sources -
    boundary income - convective work; all terms are quadratures of the
    fields the step actually produced.
    """

    e_before: float
    e_after: float
    diss_mu: float        # int m(phi_n) |grad mu'|^2
    diss_nsigma: float    # int n(phi') |grad N_sigma'|^2
    diss_visc: float      # 2 eta |Dv|^2 + lam (div v)^2 + nu |v|^2
    bnd_sigma_sq: float   # b chi_sigma * wall quadrature of sigma' trace * sigma'
    src_phi_mu: float     # int Gamma_phi' mu'
    src_sigma_n: float    # -int Gamma_sigma' N_sigma'
    bnd_income: float     # b * wall quadrature of (sigma_inf N_sigma' - trace chi_phi (1-phi'))
    conv_work: float      # force/pressure work minus upwind transport pairings
    budget_residual: float


def energy_budget(old: OldLevel, new_level: TimeLevel, n_faces: FaceField,
                  conv: Convection, dt: float, model: ModelSpec) -> EnergyBudget:
    """Recompute every term of the step energy identity, by its own quadratures,
    from the records of both levels, the face mobility n(phi') and the step's
    upwind transport `conv` of the old fields by the new velocity.  The time
    levels are the scheme's: mobilities m(phi_n) and n(phi'), old fields
    convected by the new velocity, sources Lambda(old) - theta(old) mu',
    sigma' wall traces; with the flow off v = p = 0, and so is the flow part."""
    g, p = model.grid, model.params
    new, nsig = new_level.state, new_level.n_sigma

    gmu = face_gradient(new.mu, g)
    diss_mu = (float((old.m_faces.u * gmu.u ** 2).sum())
               + float((old.m_faces.w * gmu.w ** 2).sum())) * g.cell_area

    nhat = p.chi_sigma * new.sigma - p.chi_phi * new.phi
    gnh = face_gradient(nhat, g)
    diss_nsigma = (float((n_faces.u * gnh.u ** 2).sum())
                   + float((n_faces.w * gnh.w ** 2).sum())) * g.cell_area

    tr = extrapolate_to_walls(new.sigma, g)
    sinf = p.sigma_inf
    one_minus_phi = 1.0 - new.phi
    income = p.b * (
        float((sinf.left * nsig[0, :] - tr.left * p.chi_phi * one_minus_phi[0, :]).sum()) * g.hy
        + float((sinf.right * nsig[-1, :] - tr.right * p.chi_phi * one_minus_phi[-1, :]).sum()) * g.hy
        + float((sinf.bottom * nsig[:, 0] - tr.bottom * p.chi_phi * one_minus_phi[:, 0]).sum()) * g.hx
        + float((sinf.top * nsig[:, -1] - tr.top * p.chi_phi * one_minus_phi[:, -1]).sum()) * g.hx
    )
    bnd_sigma_sq = p.b * p.chi_sigma * (
        float((tr.left * new.sigma[0, :]).sum() + (tr.right * new.sigma[-1, :]).sum()) * g.hy
        + float((tr.bottom * new.sigma[:, 0]).sum() + (tr.top * new.sigma[:, -1]).sum()) * g.hx
    )

    gamma_phi = old.src.lambda_phi - old.src.theta_phi * new.mu
    gamma_sig = old.src.lambda_sigma - old.src.theta_sigma * new.mu
    src_phi_mu = integrate_cell(gamma_phi * new.mu, g)
    src_sigma_n = -integrate_cell(gamma_sig * nsig, g)

    diss_visc = conv_work = 0.0
    if old.flow is not None:
        parts = energy_parts(old.flow, new.v, new.p)
        diss_visc = parts["dissipation"]
        conv_work = (parts["force_work"] + parts["pressure_work"]
                     - integrate_cell(conv.phi.div * new.mu, g)
                     - integrate_cell(conv.sigma.div * nsig, g))

    e0, e1 = old.energy, new_level.energy
    residual = ((e1 - e0) / dt + diss_mu + diss_nsigma + diss_visc + bnd_sigma_sq
                - src_phi_mu - src_sigma_n - income - conv_work)
    return EnergyBudget(e0, e1, diss_mu, diss_nsigma, diss_visc, bnd_sigma_sq,
                        src_phi_mu, src_sigma_n, income, conv_work, residual)


# ---------------------------------------------------------------------------
# Integral mass ledgers
# ---------------------------------------------------------------------------

@dataclass
class BalanceLedger:
    phi_change: float
    phi_expected: float
    sigma_change: float
    sigma_expected: float

    @property
    def phi_residual(self) -> float:
        return self.phi_change - self.phi_expected

    @property
    def sigma_residual(self) -> float:
        return self.sigma_change - self.sigma_expected


def mass_balances(old: OldLevel, new: State, conv: Convection, dt: float,
                  model: ModelSpec) -> BalanceLedger:
    """Integral ledgers of one step, with the scheme's own flux conventions;
    `conv` is the step's upwind transport of the old fields by new.v.

    phi:   d(int phi)   = dt [ int (Lambda - theta mu') - outward upwind flux ]
    sigma: d(int sigma) = dt [ -int Gamma_sigma' + Robin income(sigma')
                               - outward upwind flux ]
    """
    g, p = model.grid, model.params
    prev, src = old.state, old.src
    gamma_phi = src.lambda_phi - src.theta_phi * new.mu
    gamma_sig = src.lambda_sigma - src.theta_sigma * new.mu

    phi_change = integrate_cell(new.phi, g) - integrate_cell(prev.phi, g)
    phi_expected = dt * (integrate_cell(gamma_phi, g) - conv.phi.outflow)
    sigma_change = integrate_cell(new.sigma, g) - integrate_cell(prev.sigma, g)
    sigma_expected = dt * (-integrate_cell(gamma_sig, g)
                           + robin_influx(new.sigma, p.b, p.sigma_inf, g)
                           - conv.sigma.outflow)
    return BalanceLedger(phi_change, phi_expected, sigma_change, sigma_expected)


# ---------------------------------------------------------------------------
# A-priori norm quantities
# ---------------------------------------------------------------------------

@dataclass
class NormEstimates:
    """The quantities controlled by the continuous a-priori estimate, computed
    on a sampled trajectory (sup norms over samples, trapezoidal in time)."""

    sup_h1_phi: float
    l2h2_phi: float        # via the discrete Laplacian
    dual_dt_phi: float     # H^1-dual proxy of the discrete rate
    sup_l2_sigma: float
    l2h1_sigma: float
    l2h1_mu: float
    bnd_l2_sigma: float    # sqrt(b) * L^2 of the wall trace, integrated in time
    l43_p: float           # L^{4/3} in time of the pressure L^2 norm
    l2h1_v: float
    l2l32_div_phiv: float  # L^2 in time of the L^{3/2} norm of div(phi v)

    def as_dict(self) -> dict[str, float]:
        return dict(self.__dict__)


def _trapez(values: np.ndarray, times: np.ndarray) -> float:
    if len(times) < 2:
        return 0.0
    dt = np.diff(times)
    mid = 0.5 * (values[1:] + values[:-1])
    return float(np.sum(mid * dt))


def _dual_proxy(rate: np.ndarray, grid: Grid) -> float:
    """|| grad (-lap + I)^{-1} rate ||_{L^2}, the inverse applied exactly in
    the cosine basis."""
    x = neumann_multiplier(grid, lambda kappa: 1.0 / (1.0 + kappa))(rate)
    return float(np.sqrt(_grad_sq(x, grid)))


def norm_estimates(states: Sequence[State], model: ModelSpec) -> NormEstimates:
    if len(states) < 2:
        raise ValueError("need at least two samples to integrate in time")
    g, p = model.grid, model.params
    times = np.array([s.t for s in states], dtype=float)
    if np.any(np.diff(times) <= 0.0):
        raise ValueError("sample times must be strictly increasing")
    vol = g.cell_area
    vu, vw = _face_volumes(g)

    h1_phi, lap_phi_sq = [], []
    l2_sig, h1_sig_sq, h1_mu_sq = [], [], []
    trace_sq, p_l2, v_h1_sq, div_l32_sq = [], [], [], []
    ones = FaceField.ones(g)
    for s in states:
        h1_phi.append(np.sqrt(integrate_cell(s.phi ** 2, g) + _grad_sq(s.phi, g)))
        lap = apply_neumann_laplacian(s.phi, ones, g)
        lap_phi_sq.append(integrate_cell(lap ** 2, g))
        l2_sig.append(np.sqrt(integrate_cell(s.sigma ** 2, g)))
        h1_sig_sq.append(integrate_cell(s.sigma ** 2, g) + _grad_sq(s.sigma, g))
        h1_mu_sq.append(integrate_cell(s.mu ** 2, g) + _grad_sq(s.mu, g))
        tr = extrapolate_to_walls(s.sigma, g)
        trace_sq.append(float(np.sum(tr.left ** 2) + np.sum(tr.right ** 2)) * g.hy
                        + float(np.sum(tr.bottom ** 2) + np.sum(tr.top ** 2)) * g.hx)
        p_l2.append(np.sqrt(integrate_cell(s.p ** 2, g)))
        dxx = (s.v.u[1:, :] - s.v.u[:-1, :]) / g.hx
        dyy = (s.v.w[:, 1:] - s.v.w[:, :-1]) / g.hy
        dudy = (s.v.u[1:-1, 1:] - s.v.u[1:-1, :-1]) / g.hy
        dwdx = (s.v.w[1:, 1:-1] - s.v.w[:-1, 1:-1]) / g.hx
        vsq = float(np.sum(s.v.u ** 2 * vu)) + float(np.sum(s.v.w ** 2 * vw))
        gradsq = (float(np.sum(dxx ** 2)) + float(np.sum(dyy ** 2))
                  + float(np.sum(dudy ** 2)) + float(np.sum(dwdx ** 2))) * vol
        v_h1_sq.append(vsq + gradsq)
        dphiv = upwind_transport(s.phi, s.v, g).div
        div_l32_sq.append(integrate_cell(np.abs(dphiv) ** 1.5, g) ** (4.0 / 3.0))

    dual_sq = 0.0
    for k in range(len(states) - 1):
        h = times[k + 1] - times[k]
        rate = (states[k + 1].phi - states[k].phi) / h
        dual_sq += _dual_proxy(rate, g) ** 2 * h

    return NormEstimates(
        sup_h1_phi=float(np.max(h1_phi)),
        l2h2_phi=float(np.sqrt(_trapez(np.array(lap_phi_sq), times))),
        dual_dt_phi=float(np.sqrt(dual_sq)),
        sup_l2_sigma=float(np.max(l2_sig)),
        l2h1_sigma=float(np.sqrt(_trapez(np.array(h1_sig_sq), times))),
        l2h1_mu=float(np.sqrt(_trapez(np.array(h1_mu_sq), times))),
        bnd_l2_sigma=float(np.sqrt(p.b * _trapez(np.array(trace_sq), times))),
        l43_p=float(_trapez(np.array(p_l2) ** (4.0 / 3.0), times) ** 0.75),
        l2h1_v=float(np.sqrt(_trapez(np.array(v_h1_sq), times))),
        l2l32_div_phiv=float(np.sqrt(_trapez(np.array(div_l32_sq), times))),
    )


# ---------------------------------------------------------------------------
# Gronwall comparison
# ---------------------------------------------------------------------------

@dataclass
class GronwallResult:
    bound: np.ndarray     # alpha(s) + int_0^s alpha beta exp(int_t^s beta) dt
    lhs: np.ndarray       # u(s) + int_0^s v dt (left-endpoint quadrature)
    hypothesis_ok: bool   # u(s) + int v <= alpha(s) + int beta u at all samples
    verified: bool        # lhs <= bound at all samples

    def margin(self) -> np.ndarray:
        return self.bound - self.lhs


def gronwall_bound(times: np.ndarray, alpha: np.ndarray | float,
                   beta: np.ndarray | float, u: np.ndarray,
                   v: np.ndarray | float = 0.0) -> GronwallResult:
    """Integral comparison bound with piecewise-constant data.

    alpha and beta are taken constant on each subinterval [t_i, t_{i+1})
    (left endpoint); the exponential kernel is then integrated in closed
    form, so beta = 0 returns alpha exactly and constant alpha, beta return
    alpha * exp(beta s) exactly, for any sample spacing.
    """
    t = np.asarray(times, dtype=float)
    n = t.size
    if n < 1 or np.any(np.diff(t) <= 0.0):
        raise ValueError("times must be non-empty and strictly increasing")
    a = np.broadcast_to(np.asarray(alpha, dtype=float), (n,)).copy()
    b = np.broadcast_to(np.asarray(beta, dtype=float), (n,)).copy()
    uu = np.asarray(u, dtype=float)
    vv = np.broadcast_to(np.asarray(v, dtype=float), (n,)).copy()
    if uu.shape != (n,):
        raise ValueError("u must have one value per sample")

    dt = np.diff(t)
    # left-endpoint quadratures of int v and int beta u
    int_v = np.concatenate([[0.0], np.cumsum(vv[:-1] * dt)])
    int_bu = np.concatenate([[0.0], np.cumsum(b[:-1] * uu[:-1] * dt)])
    lhs = uu + int_v
    hyp = lhs <= a + int_bu + 1e-12 * np.maximum(1.0, np.abs(a + int_bu))

    # cumulative exponent B_j = int_0^{t_j} beta
    big_b = np.concatenate([[0.0], np.cumsum(b[:-1] * dt)])
    # subinterval i contributes alpha_i (e^{beta_i dt_i} - 1) e^{B_j - B_{i+1}}
    core = a[:-1] * np.expm1(b[:-1] * dt) * np.exp(-big_b[1:])
    csum = np.concatenate([[0.0], np.cumsum(core)])
    bound = a + np.exp(big_b) * csum

    tol = 1e-12 * np.maximum(1.0, np.abs(bound))
    return GronwallResult(bound, lhs, bool(np.all(hyp)),
                          bool(np.all(lhs <= bound + tol)))


# ---------------------------------------------------------------------------
# Weak-form residual probe
# ---------------------------------------------------------------------------

@dataclass
class WeakResiduals:
    """Residuals of the weak-form equations against the Galerkin route's
    orthonormal cosine basis (`galerkin.build_basis`).

    Rows follow the sample list (intervals for the time-dependent equations,
    samples for the algebraic ones); columns follow the basis, in eigenvalue
    order with the constant test first, and x / y alternate in `momentum`.
    `div` is the plain L^2 norm of div(v) - Gamma_v per sample.
    """

    phi: np.ndarray       # (n_samples-1, n_tests)
    mu: np.ndarray        # (n_samples,   n_tests)
    sigma: np.ndarray     # (n_samples-1, n_tests)
    momentum: np.ndarray  # (n_samples,   2*n_tests)
    div: np.ndarray       # (n_samples,)


def _centered_gradient(f: np.ndarray, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    g = face_gradient(f, grid)
    return 0.5 * (g.u[1:, :] + g.u[:-1, :]), 0.5 * (g.w[:, 1:] + g.w[:, :-1])


def weak_residuals(states: Sequence[State], model: ModelSpec,
                   n_modes: int = 5) -> WeakResiduals:
    """Test the snapshots against the first 1 + n_modes functions w_m of
    `galerkin.build_basis`, which raises on a grid too coarse for them.

    The tests are orthonormal, w_m = kappa_m cos(i pi x / Lx) cos(j pi y / Ly),
    so column m is kappa_m times the residual against the plain cosine, and
    they come in eigenvalue order (not i^2 + j^2 order on a non-square domain).
    Deliberately not the scheme's discretization: analytic test gradients,
    centered convection v . grad q, cell-centered coefficient products.  The
    constant test w_0 = 1/sqrt(|Omega|) of the phase equation reproduces the
    mass-ledger rate, scaled by w_0.
    """
    g, p = model.grid, model.params
    basis = build_basis(1 + n_modes, g)
    sinf = p.sigma_inf

    def pair(f: np.ndarray, flux_x: np.ndarray, flux_y: np.ndarray) -> np.ndarray:
        """<f, w_m> + <(flux_x, flux_y), grad w_m> for every test at once."""
        return (np.tensordot(basis.values, f, axes=2)
                + np.tensordot(basis.grad_x, flux_x, axes=2)
                + np.tensordot(basis.grad_y, flux_y, axes=2)) * g.cell_area

    ns = len(states)
    r_phi = np.zeros((max(ns - 1, 0), basis.k))
    r_sigma = np.zeros((max(ns - 1, 0), basis.k))
    r_mu = np.zeros((ns, basis.k))
    r_mom = np.zeros((ns, 2 * basis.k))
    r_div = np.zeros(ns)

    for k, s in enumerate(states):
        src = sources(s.phi, s.sigma, s.mu, model.source, p)
        _, dpsi = potential_eval(s.phi, model.potential)
        gpx, gpy = _centered_gradient(s.phi, g)
        gsx, gsy = _centered_gradient(s.sigma, g)
        gmx, gmy = _centered_gradient(s.mu, g)
        vx, vy = face_to_center(s.v)
        _, nsig, _ = nutrient_energy(s.phi, s.sigma, p)
        eta, lam = viscosities(s.phi, model.mobvis)
        dxx, dyy, shear = strain_rates(s.v, g)
        # node shear averaged back to cells (wall nodes carry no shear)
        mean4 = np.zeros(g.shape)
        cnt = np.zeros(g.shape)
        for sl in [(slice(None, -1), slice(None, -1)), (slice(1, None), slice(None, -1)),
                   (slice(None, -1), slice(1, None)), (slice(1, None), slice(1, None))]:
            mean4[sl] += shear
            cnt[sl] += 1.0
        dxy_cells = mean4 / cnt
        div_v = dxx + dyy
        bulk = lam * div_v - s.p

        r_div[k] = float(np.sqrt(integrate_cell((div_v - src.gamma_v) ** 2, g)))
        r_mu[k] = pair(s.mu - dpsi / p.epsilon + p.chi_phi * s.sigma,
                       -p.epsilon * gpx, -p.epsilon * gpy)
        mom_x = pair(p.nu * vx - (s.mu * gpx + nsig * gsx),
                     2.0 * eta * dxx + bulk, 2.0 * eta * dxy_cells)
        mom_y = pair(p.nu * vy - (s.mu * gpy + nsig * gsy),
                     2.0 * eta * dxy_cells, 2.0 * eta * dyy + bulk)
        r_mom[k] = np.stack([mom_x, mom_y], axis=1).ravel()

        if k == 0:
            continue
        older = states[k - 1]
        h = s.t - older.t
        if h <= 0.0:
            raise ValueError("sample times must be strictly increasing")
        m_cell, n_cell = mobilities(s.phi, model.mobvis)
        r_phi[k - 1] = pair((s.phi - older.phi) / h + vx * gpx + vy * gpy
                            + s.phi * src.gamma_v - src.gamma_phi,
                            m_cell * gmx, m_cell * gmy)
        tr = extrapolate_to_walls(s.sigma, g)
        robin = p.b * ((basis.edge_left @ (sinf.left - tr.left)
                        + basis.edge_right @ (sinf.right - tr.right)) * g.hy
                       + (basis.edge_bottom @ (sinf.bottom - tr.bottom)
                          + basis.edge_top @ (sinf.top - tr.top)) * g.hx)
        r_sigma[k - 1] = pair((s.sigma - older.sigma) / h + vx * gsx + vy * gsy
                              + s.sigma * src.gamma_v + src.gamma_sigma,
                              n_cell * (p.chi_sigma * gsx - p.chi_phi * gpx),
                              n_cell * (p.chi_sigma * gsy - p.chi_phi * gpy)) - robin

    return WeakResiduals(r_phi, r_mu, r_sigma, r_mom, r_div)
