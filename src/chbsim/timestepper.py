"""Semi-implicit time stepping for the coupled phase/nutrient/flow system.

One step from t_n advances in three stages that share one old-level record:

  (i)   Brinkman solve with capillary forcing assembled from the old fields,
        giving the velocity and pressure used by both transport equations,
        through the run's `brinkman.ProjectedStart`: from the exact solve,
        built once per run, at constant viscosities, otherwise from the best
        mix of the run's last FLOW_WINDOW solved flows for this rhs (zero
        while none is solved yet), with an operator and preconditioner built
        for this step alone;
  (ii)  phase update with the stabilized linear splitting: psi'(phi_n) kept
        explicit plus s/eps (phi' - phi_n), surface term and mu-feedback of
        the sources implicit.  The chemical potential is eliminated from the
        two-field block and the single-field system is solved with BiCGStab,
        started from and right-preconditioned by the cosine-transform
        inverse of the constant-coefficient operator at the upper mobility
        bound and the largest theta_phi, which the run holds and builds
        again only when that largest theta_phi changes; at constant
        mobility and theta_phi that inverse is exact, and the true-residual
        check at the start ends the solve with no iteration.
        mu' is then evaluated exactly from phi', so the constitutive relation
        holds to machine precision;
  (iii) nutrient update with implicit Robin-wall diffusion, the fresh phi'
        in the cross-diffusion flux and explicit upwind convection, solved
        with plain BiCGStab started from the separable inverse of the
        diffusion at the upper nutrient-mobility bound
        (`elliptic.robin_inverse`, built once per run); at constant
        nutrient mobility that start is exact and no iteration is made.

The steps of a run share one `RunContext`: the flow window, the two
inverses, the Neumann Laplacian and the Robin wall income, and at a
constant mobility its face values and the stencils on them (`lap_m` for
(ii), the cross flux and the Robin diffusion for (iii)).  Each is built at
the first step that needs it; where a mobility follows phi its faces and
stencils are built every step.

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
from typing import Callable, TypeVar

import numpy as np

from .core import FaceField, Grid, State, bits, integrate_cell
from .constitutive import CoefficientSpec, ModelSpec, potential_eval
from .elliptic import (
    SolveReport,
    StencilOperator,
    Transport,
    diffusion_stencil,
    harmonic_face_coefficients,
    neumann_multiplier,
    robin_influx,
    robin_inverse,
    robin_source,
    solve_general,
    stencil_scratch,
    transform_scratch,
)
from .brinkman import BrinkmanSolution, ProjectedStart
from . import diagnostics

PHI_ABORT = 10.0   # a step whose max |phi'| exceeds this fails: range explosion
# relative tolerances of the three solves of a step
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


T = TypeVar("T")


class RunContext:
    """What one run of `specs` builds once and its steps share.

    `window`, the run's `ProjectedStart`, starts each flow solve.  Each
    other slot holds one build whose inputs are constants of the run, made
    at the first step that needs it: the Neumann Laplacian
    `diffusion_stencil(1.0)` and `phase_inverse` for the phase stage,
    `robin_source` and `robin_inverse` for the nutrient stage.
    `phase_inverse` is keyed by m.hi and max theta_phi, and
    `robin_inverse` by chi_sigma n.hi, b and dt; a slot is rebuilt when
    its key changes (max theta_phi follows phi under Hawkins sources).  At
    a constant mobility (lo == hi) its faces are run constants too, and so
    are the stencils built on them: m(phi) on the faces and `lap_m` for
    the phase, n(phi) on the faces, the cross flux and the Robin diffusion
    for the nutrient.  Where a mobility follows phi they are built afresh
    every step.  A slot holds one build at a time, the face fields and the
    Robin source are read-only, and all of it goes with the context, which
    `run` lets go when it returns.

    The stencils the stages build write their face fluxes to the one
    `flux` scratch of the context, and both inverses their transforms to
    its one `transform` scratch: no stage applies one of them inside
    another's apply.
    """

    def __init__(self, specs: SimSpec) -> None:
        self.specs = specs
        self.window = ProjectedStart(FLOW_WINDOW)
        self._slots: dict[str, tuple] = {}   # slot -> (key, build)
        grid = specs.model.grid
        self.flux = stencil_scratch(grid)
        self.transform = transform_scratch(grid)

    def held(self, slot: str, build: Callable[[], T], key: tuple = ()) -> T:
        """The build in `slot`, made by `build()` when the slot is empty or
        holds one made under another key; the old build is let go first."""
        kept = self._slots.get(slot)
        if kept is not None and kept[0] == key:
            return kept[1]
        self._slots.pop(slot, None)
        made = build()
        self._slots[slot] = (key, made)
        return made

    def on_faces(self, slot: str, coeff: CoefficientSpec, build: Callable[[], T]) -> T:
        """`build()` of something on the faces of the mobility `coeff`:
        held in `slot` at a constant coeff, made afresh otherwise."""
        return self.held(slot, build) if coeff.lo == coeff.hi else build()

    def face_mobility(self, slot: str, coeff: CoefficientSpec,
                      phi: np.ndarray) -> FaceField:
        """coeff(phi) on the faces (`harmonic_face_coefficients`), read-only,
        through `on_faces`."""
        def build() -> FaceField:
            faces = harmonic_face_coefficients(coeff(phi), self.specs.model.grid)
            _read_only(faces.u)
            _read_only(faces.w)
            return faces
        return self.on_faces(slot, coeff, build)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


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

def solve_flow(old: diagnostics.OldLevel, window: ProjectedStart) -> BrinkmanSolution:
    """Solve the old level's Brinkman problem through `window`
    (`ProjectedStart.solve`); a stalled solve fails the step."""
    sol = window.solve(old.flow, FLOW_TOL)
    _require_converged("flow", old.state.t, sol.report)
    return sol


def phase_inverse(grid: Grid, dt: float, s: float, eps: float, m: float,
                  theta: float, scratch: tuple[np.ndarray, ...] | None = None
                  ) -> Callable[..., np.ndarray]:
    """Exact inverse of the phase operator f + dt L_m A_eps f for constant
    mobility m and constant theta: L_m = m (-lap) + theta and
    A_eps = s/eps - eps lap are polynomials in the Neumann cell Laplacian;
    `scratch` as in `elliptic.separable_inverse`."""
    return neumann_multiplier(grid, lambda kappa: 1.0 / (
        1.0 + dt * (m * kappa + theta) * (s / eps + eps * kappa)), scratch=scratch)


def step_phase(old: diagnostics.OldLevel, conv: Transport,
               ctx: RunContext) -> tuple[np.ndarray, np.ndarray, SolveReport]:
    """Advance the phase field; returns (phi', mu', solver report).

    Solves  phi' + dt L_m[(s/eps) phi' - eps lap phi' + c] = rhs  where
    L_m = -div(m(phi_n) grad .) + theta_phi and c collects the explicit
    parts of mu'; afterwards mu' is evaluated from phi' exactly.  `conv` is
    the upwind transport of phi_n by the new velocity; the stencils and the
    inverse come from the run's `ctx`.
    """
    model, sc = ctx.specs.model, ctx.specs.scheme
    g, p, dt = model.grid, model.params, sc.dt
    eps, s = p.epsilon, sc.s
    phi_n, sigma_n = old.state.phi, old.state.sigma
    theta = old.src.theta_phi
    lap = ctx.held("lap", lambda: diffusion_stencil(1.0, g, scratch=ctx.flux))
    lap_m = ctx.on_faces("lap_m", model.mobvis.m,
                         lambda: diffusion_stencil(old.m_faces, g, scratch=ctx.flux))
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
    # The start and the preconditioner invert the operator at the upper
    # mobility bound and the largest theta; when both are constant that is
    # the exact inverse (both factors are polynomials in the Neumann
    # Laplacian), and the start already meets the tolerance.
    op = StencilOperator(apply, g.shape)
    m_hi, theta_max = model.mobvis.m.hi, float(np.max(theta))
    precond = ctx.held("phase_inverse",
                       lambda: phase_inverse(g, dt, s, eps, m_hi, theta_max,
                                             scratch=ctx.transform),
                       bits(m_hi, theta_max))
    phi_new, rep = solve_general(op, rhs, PHASE_TOL, precond(rhs), precond=precond)
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
                  ctx: RunContext) -> tuple[np.ndarray, SolveReport]:
    """Advance the nutrient; returns (sigma', solver report).

    Implicit diffusion chi_sigma div(n(phi') grad sigma') with Robin walls,
    the cross flux -chi_phi div(n(phi') grad phi') and the sources evaluated
    with the fresh mu', convection explicit upwind; `conv` is the upwind
    transport of sigma_n by the new velocity, `n_faces` is n(phi') on the
    faces; the stencils, the wall income and the start come from the run's
    `ctx`.
    """
    model, sc = ctx.specs.model, ctx.specs.scheme
    g, p, dt = model.grid, model.params, sc.dt
    n, sigma_n = model.mobvis.n, old.state.sigma

    income = ctx.held("robin_source", lambda: _read_only(robin_source(p.b, p.sigma_inf, g)))
    cross = ctx.on_faces("cross", n, lambda: diffusion_stencil(n_faces, g, scratch=ctx.flux))
    gamma_sig = old.src.lambda_sigma - old.src.theta_sigma * mu_new
    rhs = sigma_n + dt * (income
                          - p.chi_phi * cross(phi_new)
                          - gamma_sig - conv.div)

    robin = ctx.on_faces("robin", n, lambda: diffusion_stencil(
        FaceField(p.chi_sigma * n_faces.u, p.chi_sigma * n_faces.w), g, p.b,
        scratch=ctx.flux))
    r_buf = np.empty(g.shape)

    def apply(f: np.ndarray) -> np.ndarray:
        robin(f, out=r_buf)
        np.multiply(r_buf, dt, out=r_buf)
        return np.subtract(f, r_buf)

    # started from the inverse at the upper nutrient-mobility bound, exact
    # when n is constant
    c = p.chi_sigma * n.hi
    start = ctx.held("robin_inverse",
                     lambda: robin_inverse(g, 1.0, dt, c, p.b, scratch=ctx.transform),
                     bits(c, p.b, dt))
    sigma_new, rep = solve_general(StencilOperator(apply, g.shape), rhs, NUTRIENT_TOL,
                                   start(rhs))
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


def step(level: diagnostics.TimeLevel,
         ctx: RunContext) -> tuple[diagnostics.TimeLevel, StepReport]:
    """One full step of the run `ctx` from the record of the level it
    leaves: flow, phase, nutrient, ledgers, budget; returns the record of
    the new level.

    What `ctx` holds changes no bit: its window, the solved flows of the
    steps before, only moves the start of the flow solve (see
    `solve_flow`), and its other builds are the ones a fresh context would
    make from the same constants."""
    specs = ctx.specs
    model, dt = specs.model, specs.scheme.dt
    g, mobvis = model.grid, model.mobvis
    old = diagnostics.old_level(level, model, specs.scheme.flow,
                                ctx.face_mobility("m_faces", mobvis.m, level.state.phi))

    flow_report = None
    div_residual = 0.0
    if old.flow is not None:
        sol = solve_flow(old, ctx.window)
        v_new, p_new = sol.v, sol.p
        flow_report = sol.report
        div_residual = sol.divergence_residual
        conv = diagnostics.convection(old.state, v_new, g)
    else:   # v = 0 transports nothing: no upwind pass
        v_new, p_new = FaceField.zeros(g), np.zeros(g.shape)
        still = Transport(np.zeros(g.shape), 0.0)
        conv = diagnostics.Convection(still, still)
    phi_new, mu_new, phase_rep = step_phase(old, conv.phi, ctx)
    n_faces = ctx.face_mobility("n_faces", mobvis.n, phi_new)
    sigma_new, nut_rep = step_nutrient(old, conv.sigma, phi_new, mu_new, n_faces, ctx)

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
    The steps share one `RunContext`, made here and let go on return: each
    flow solve starts from the run's last FLOW_WINDOW solved flows, the
    first from zero, and the builds whose inputs are run constants (the
    constant-coefficient inverses, and at a constant mobility its faces and
    stencils) are made at the first step and rebuilt only when their key
    changes.  On a failed step the partial record is attached to the raised
    StepFailure so callers can keep what was completed.
    """
    model, sc = specs.model, specs.scheme
    level = diagnostics.time_level(state0, model)
    rows = [_row(level, model)]
    reports: list[StepReport] = []
    states = [state0.copy()]
    ctx = RunContext(specs)
    try:
        for k in range(n_steps):
            level, rep = step(level, ctx)
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
