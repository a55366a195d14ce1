"""Semi-implicit time stepping for the coupled phase/nutrient/flow system.

One step from t_n advances in three stages that share one old-level record:

  (i)   Brinkman solve with capillary forcing assembled from the old fields,
        giving the velocity and pressure used by both transport equations;
        in a run, started from the best mix of the last FLOW_WINDOW solved
        flows for this rhs (`brinkman.ProjectedStart`), from the old flow
        x_n while none is solved yet;
  (ii)  phase update with the stabilized linear splitting: psi'(phi_n) kept
        explicit plus s/eps (phi' - phi_n), surface term and mu-feedback of
        the sources implicit.  The chemical potential is eliminated from the
        two-field block and the single-field system is solved with BiCGStab,
        right-preconditioned by the cosine-transform inverse of the
        constant-coefficient operator at the upper mobility bound and the
        largest theta_phi; at constant mobility and theta_phi that inverse
        is exact and one iteration suffices.
        mu' is then evaluated exactly from phi', so the constitutive relation
        holds to machine precision;
  (iii) nutrient update with implicit Robin-wall diffusion, the fresh phi'
        in the cross-diffusion flux and explicit upwind convection.

After (ii) and (iii) the field is shifted by a spatial constant (of the order
of the Krylov tolerance) chosen so the integral mass ledgers close exactly.
Each level's psi', N_sigma and energy are evaluated once, into the
`diagnostics.TimeLevel` record that `run` (t = 0) or `step` (the new level)
builds; a step adds the sources, face mobility and, with the flow on, the
Brinkman problem to it (`diagnostics.old_level`), and n(phi') is computed
once for the nutrient update and the budget.  The upwind transport of phi_n
and of sigma_n by the new velocity is one flux pass each
(`diagnostics.convection`), read by both stages, the ledgers and the budget;
with the flow off v = 0, so both are zero and no pass is made.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from .core import FaceField, Grid, State, integrate_cell
from .constitutive import ModelSpec, mobilities, potential_eval
from .elliptic import (
    MAX_ITERS,
    SolveReport,
    SolverOptions,
    StencilOperator,
    Transport,
    diffusion_stencil,
    harmonic_face_coefficients,
    neumann_multiplier,
    robin_influx,
    robin_source,
    solve_general,
)
from .brinkman import BrinkmanSolution, ProjectedStart, _pack, solve_brinkman
from . import diagnostics

PHI_ABORT = 10.0   # a step whose max |phi'| exceeds this fails: range explosion
# Krylov policy of the three solves of a step: relative tolerances; the
# iteration cap is elliptic.MAX_ITERS, passed by name so a test can lower it
PHASE_TOL = 1e-12
NUTRIENT_TOL = 1e-12
FLOW_TOL = 1e-11
FLOW_WINDOW = 4    # solved flows a run's projected start of the flow solve mixes


@dataclass
class SchemeOptions:
    """Scheme knobs: step size, stabilization, flow on or off, cadence."""

    dt: float
    s: float = 2.0               # stabilization, >= sup psi''/2 on the visited range
    flow: bool = True            # solve the Brinkman system (else v = 0, p = 0)
    snapshot_every: int = 0      # keep every k-th state in the run record (0: ends only)

    def __post_init__(self) -> None:
        if not self.dt > 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not self.s >= 0.0:
            raise ValueError(f"stabilization s must be non-negative, got {self.s}")


@dataclass
class SimSpec:
    model: ModelSpec
    scheme: SchemeOptions


@dataclass
class StepReport:
    flow: SolveReport | None
    phase: SolveReport
    nutrient: SolveReport
    div_residual: float
    ledger_phi: float
    ledger_sigma: float
    budget: diagnostics.EnergyBudget


class StepFailure(RuntimeError):
    """A step could not be completed; carries whatever was computed so far."""

    def __init__(self, message: str, partial: "RunResult | None" = None) -> None:
        super().__init__(message)
        self.partial = partial


def _require_converged(solve: str, t: float, rep: SolveReport) -> None:
    if not rep.converged:
        raise StepFailure(
            f"{solve} solve stalled at t={t:g}: rel residual "
            f"{rep.rel_residual:.3e} after {rep.iterations} iterations")


def chemical_potential(phi: np.ndarray, sigma: np.ndarray,
                       model: ModelSpec) -> np.ndarray:
    """Diagnostic mu(phi, sigma) = psi'(phi)/eps - eps lap(phi) - chi_phi sigma."""
    eps = model.params.epsilon
    _, dpsi = potential_eval(phi, model.potential)
    lap = diffusion_stencil(1.0, model.grid)(phi)
    return dpsi / eps - eps * lap - model.params.chi_phi * sigma


def initial_state(phi0: np.ndarray, sigma0: np.ndarray, model: ModelSpec) -> State:
    """Assemble a consistent rest state at t = 0 (mu from the fields, v = p = 0)."""
    g = model.grid
    mu0 = chemical_potential(phi0, sigma0, model)
    return State(t=0.0,
                 phi=np.array(phi0, dtype=float),
                 mu=mu0,
                 sigma=np.array(sigma0, dtype=float),
                 p=np.zeros(g.shape),
                 v=FaceField.zeros(g))


# ---------------------------------------------------------------------------
# Stage solvers
# ---------------------------------------------------------------------------

def solve_flow(old: diagnostics.OldLevel, window: ProjectedStart | None) -> BrinkmanSolution:
    """Solve the old level's Brinkman problem, started from the projected
    start of `window` for its rhs, or from the old flow x_n while the window
    is empty or not given; the solution joins the window."""
    rhs = old.flow.rhs
    x0 = window.start(rhs) if window is not None else None
    if x0 is None:
        x0 = _pack(old.state.v.u, old.state.v.w, old.state.p)
    sol = solve_brinkman(old.flow, SolverOptions(tol=FLOW_TOL, max_iters=MAX_ITERS, x0=x0))
    _require_converged("flow", old.state.t, sol.report)
    if window is not None:
        window.add(sol.x, rhs)
    return sol


def phase_inverse(grid: Grid, dt: float, s: float, eps: float, m: float,
                  theta: float) -> Callable[[np.ndarray], np.ndarray]:
    """Exact inverse of the phase operator f + dt L_m A_eps f for constant
    mobility m and constant theta: L_m = m (-lap) + theta and
    A_eps = s/eps - eps lap are polynomials in the Neumann cell Laplacian."""
    return neumann_multiplier(grid, lambda kappa: 1.0 / (
        1.0 + dt * (m * kappa + theta) * (s / eps + eps * kappa)))


def step_phase(old: diagnostics.OldLevel, conv: Transport,
               specs: SimSpec) -> tuple[np.ndarray, np.ndarray, SolveReport]:
    """Advance the phase field; returns (phi', mu', solver report).

    Solves  phi' + dt L_m[(s/eps) phi' - eps lap phi' + c] = rhs  where
    L_m = -div(m(phi_n) grad .) + theta_phi and c collects the explicit
    parts of mu'; afterwards mu' is evaluated from phi' exactly.  `conv` is
    the upwind transport of phi_n by the new velocity.
    """
    model, sc = specs.model, specs.scheme
    g, p, dt = model.grid, model.params, sc.dt
    eps, s = p.epsilon, sc.s
    phi_n, sigma_n = old.state.phi, old.state.sigma
    theta = old.src.theta_phi
    lap = diffusion_stencil(1.0, g)
    lap_m = diffusion_stencil(old.m_faces, g)
    a_buf, l_buf, tmp = np.empty(g.shape), np.empty(g.shape), np.empty(g.shape)

    c_lin = old.dpsi / eps - (s / eps) * phi_n - p.chi_phi * sigma_n

    def a_eps(f: np.ndarray) -> np.ndarray:
        """(s/eps) f - eps lap f, in a scratch array."""
        lap(f, out=a_buf)
        np.multiply(a_buf, eps, out=a_buf)
        return np.subtract(np.multiply(f, s / eps, out=tmp), a_buf, out=a_buf)

    def l_m(f: np.ndarray) -> np.ndarray:
        """-div(m grad f) + theta f, in a scratch array."""
        lap_m(f, out=l_buf)
        return np.subtract(np.multiply(theta, f, out=tmp), l_buf, out=l_buf)

    def apply(f: np.ndarray) -> np.ndarray:
        lf = l_m(a_eps(f))
        lf *= dt
        return np.add(f, lf)

    rhs = phi_n + dt * (old.src.lambda_phi - conv.div) - dt * l_m(c_lin)
    # The preconditioner inverts the operator at the upper mobility bound and
    # the largest theta; when both are constant it is the exact inverse (both
    # factors are polynomials in the Neumann Laplacian): one iteration.
    op = StencilOperator(apply, g.shape)
    opts = SolverOptions(tol=PHASE_TOL, max_iters=MAX_ITERS, x0=phi_n.copy())
    precond = phase_inverse(g, dt, s, eps, model.mobvis.m.hi, float(np.max(theta)))
    phi_new, rep = solve_general(op, rhs, opts, precond=precond)
    _require_converged("phase", old.state.t, rep)
    mu_new = a_eps(phi_new) + c_lin

    # constant shift closing the integral ledger exactly
    gamma_new = old.src.lambda_phi - theta * mu_new
    mismatch = (integrate_cell(phi_new, g) - integrate_cell(phi_n, g)
                - dt * (integrate_cell(gamma_new, g) - conv.outflow))
    phi_new = phi_new - mismatch / g.area

    peak = float(np.max(np.abs(phi_new)))
    if not np.isfinite(peak) or peak > PHI_ABORT:
        raise StepFailure(
            f"phase range explosion at t={old.state.t:g}: max|phi| = {peak:g}")
    return phi_new, mu_new, rep


def step_nutrient(old: diagnostics.OldLevel, conv: Transport,
                  phi_new: np.ndarray, mu_new: np.ndarray, n_faces: FaceField,
                  specs: SimSpec) -> tuple[np.ndarray, SolveReport]:
    """Advance the nutrient; returns (sigma', solver report).

    Implicit diffusion chi_sigma div(n(phi') grad sigma') with Robin walls,
    the cross flux -chi_phi div(n(phi') grad phi') and the sources evaluated
    with the fresh mu', convection explicit upwind; `conv` is the upwind
    transport of sigma_n by the new velocity, `n_faces` is n(phi') on the
    faces.
    """
    model, sc = specs.model, specs.scheme
    g, p, dt = model.grid, model.params, sc.dt
    sigma_n = old.state.sigma

    gamma_sig = old.src.lambda_sigma - old.src.theta_sigma * mu_new
    rhs = sigma_n + dt * (robin_source(p.b, p.sigma_inf, g)
                          - p.chi_phi * diffusion_stencil(n_faces, g)(phi_new)
                          - gamma_sig - conv.div)

    robin = diffusion_stencil(FaceField(p.chi_sigma * n_faces.u, p.chi_sigma * n_faces.w),
                              g, p.b)
    r_buf = np.empty(g.shape)

    def apply(f: np.ndarray) -> np.ndarray:
        robin(f, out=r_buf)
        np.multiply(r_buf, dt, out=r_buf)
        return np.subtract(f, r_buf)

    opts = SolverOptions(tol=NUTRIENT_TOL, max_iters=MAX_ITERS, x0=sigma_n.copy())
    sigma_new, rep = solve_general(StencilOperator(apply, g.shape), rhs, opts)
    _require_converged("nutrient", old.state.t, rep)

    # constant shift closing the sigma ledger exactly; the shift moves the
    # extrapolated wall trace by the same constant, hence the denominator
    mismatch = (integrate_cell(sigma_new, g) - integrate_cell(sigma_n, g)
                - dt * (-integrate_cell(gamma_sig, g)
                        + robin_influx(sigma_new, p.b, p.sigma_inf, g)
                        - conv.outflow))
    sigma_new = sigma_new - mismatch / (g.area + dt * p.b * g.perimeter)
    if not np.all(np.isfinite(sigma_new)):
        raise StepFailure(f"nutrient field lost finiteness at t={old.state.t:g}")
    return sigma_new, rep


def step(level: diagnostics.TimeLevel, specs: SimSpec,
         window: ProjectedStart | None = None) -> tuple[diagnostics.TimeLevel, StepReport]:
    """One full step from the record of the level it leaves: flow, phase,
    nutrient, ledgers, budget; returns the record of the new level.

    `window`, the solved flows of the steps before, only moves the start of
    the flow solve (see `solve_flow`)."""
    model, dt = specs.model, specs.scheme.dt
    g = model.grid
    old = diagnostics.old_level(level, model, specs.scheme.flow)

    flow_report = None
    div_residual = 0.0
    if old.flow is not None:
        sol = solve_flow(old, window)
        v_new, p_new = sol.v, sol.p
        flow_report = sol.report
        div_residual = sol.divergence_residual
        conv = diagnostics.convection(old.state, v_new, g)
    else:   # v = 0 transports nothing: no upwind pass
        v_new, p_new = FaceField.zeros(g), np.zeros(g.shape)
        still = Transport(np.zeros(g.shape), 0.0)
        conv = diagnostics.Convection(still, still)
    phi_new, mu_new, phase_rep = step_phase(old, conv.phi, specs)
    n_faces = harmonic_face_coefficients(mobilities(phi_new, model.mobvis)[1], g)
    sigma_new, nut_rep = step_nutrient(old, conv.sigma, phi_new, mu_new, n_faces, specs)

    new = diagnostics.time_level(State(t=old.state.t + dt, phi=phi_new, mu=mu_new,
                                       sigma=sigma_new, p=p_new, v=v_new), model)
    ledger = diagnostics.mass_balances(old, new.state, conv, dt, model)
    report = StepReport(
        flow=flow_report, phase=phase_rep, nutrient=nut_rep,
        div_residual=div_residual,
        ledger_phi=ledger.phi_residual, ledger_sigma=ledger.sigma_residual,
        budget=diagnostics.energy_budget(old, new, n_faces, conv, dt, model))
    return new, report


# ---------------------------------------------------------------------------
# Fixed-step march
# ---------------------------------------------------------------------------

_SOLVES = ("flow", "phase", "nutrient")   # StepReport's solver reports
_BUDGET_TERMS = tuple(f.name for f in fields(diagnostics.EnergyBudget)
                      if f.name not in ("e_before", "e_after"))
# The time-series columns and their types, declared once: the level's own
# quantities, the terms of its step's energy budget, each solver's iterations.
COLUMNS: dict[str, type] = {
    "t": float, "energy": float, "mass_phi": float, "mass_sigma": float,
    **dict.fromkeys(_BUDGET_TERMS, float),
    "div_residual": float, "phi_min": float, "phi_max": float,
    **{f"{solve}_iters": int for solve in _SOLVES},
}


@dataclass
class RunResult:
    rows: list[dict]                 # one COLUMNS row per time level
    reports: list[StepReport]
    states: list[State]              # sampled per snapshot_every, ends included

    @property
    def final_state(self) -> State:
        return self.states[-1]


def _row(level: diagnostics.TimeLevel, model: ModelSpec,
         rep: StepReport | None = None) -> dict:
    """The time-series row of `level`, reached by the step `rep` reports;
    without one (t = 0) every rate, residual and count is zero."""
    g, st = model.grid, level.state
    row = {name: kind() for name, kind in COLUMNS.items()}
    row.update(t=st.t, energy=level.energy, mass_phi=integrate_cell(st.phi, g),
               mass_sigma=integrate_cell(st.sigma, g),
               phi_min=float(np.min(st.phi)), phi_max=float(np.max(st.phi)))
    if rep is not None:
        row.update({name: getattr(rep.budget, name) for name in _BUDGET_TERMS},
                   div_residual=rep.div_residual)
        row.update({f"{solve}_iters": report.iterations for solve in _SOLVES
                    if (report := getattr(rep, solve)) is not None})
    return row


def run(state0: State, n_steps: int, specs: SimSpec) -> RunResult:
    """March n_steps fixed steps, collecting one diagnostics row per level.

    The row at t = 0 carries the initial energy and masses with zero rates.
    Each flow solve starts from the run's last FLOW_WINDOW solved flows (the
    t = 0 rest flow is no solution and never joins them).  On a failed step
    the partial record is attached to the raised StepFailure so callers can
    keep what was completed.
    """
    model, sc = specs.model, specs.scheme
    level = diagnostics.time_level(state0, model)
    rows = [_row(level, model)]
    reports: list[StepReport] = []
    states = [state0.copy()]
    window = ProjectedStart(FLOW_WINDOW)
    try:
        for k in range(n_steps):
            level, rep = step(level, specs, window)
            rows.append(_row(level, model, rep))
            reports.append(rep)
            last = k == n_steps - 1
            if (sc.snapshot_every > 0 and (k + 1) % sc.snapshot_every == 0) or last:
                states.append(level.state.copy())
    except StepFailure as exc:
        if states[-1].t != level.state.t:
            states.append(level.state.copy())
        exc.partial = RunResult(rows, reports, states)
        raise
    return RunResult(rows, reports, states)
