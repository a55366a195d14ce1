"""Built-in verification suite: ten numbered acceptance checks.

Each criterion function returns a CriterionResult with a one-line detail
string; `run_all` shares expensive simulation runs between criteria through
a cache.  The checks are intentionally strict — tolerances are asserted,
never adjusted to the observed values.

Every simulated scenario is a `RunConfig` (`DECAY`, `DISC`, `COUPLED`,
`GALERKIN`, and criterion 10's copy of `COUPLED`): its model, initial fields and
scheme come from the config, variants are `dataclasses.replace` copies, and
`save_config` writes any of them out as an INI file.
"""
from __future__ import annotations

import os
import tempfile
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .core import EdgeValues, FaceField, Grid, make_grid
from .constitutive import (
    CoefficientSpec,
    MobilityViscositySpec,
    ModelParams,
    ModelSpec,
    PotentialSpec,
    SourceSpec,
    gamma_v_clamp,
    mobilities,
    sources,
    validate_params,
)
from .elliptic import (
    SolverOptions,
    StencilOperator,
    apply_neumann_laplacian,
    diffusion_stencil,
    harmonic_face_coefficients,
    robin_source,
    solve_general,
    solve_spd,
)
from .brinkman import BrinkmanProblem, dense_oracle_solve, solve_brinkman
from .timestepper import RunResult, initial_state, run
from . import diagnostics, galerkin, io


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        tag = "pass" if self.passed else "FAIL"
        return f"criterion {self.index:2d} [{tag}] {self.name}: {self.detail}"


class Cache(dict):
    def fetch(self, key, builder):
        if key not in self:
            self[key] = builder()
        return self[key]


def _l2(field: np.ndarray, g: Grid) -> float:
    return float(np.sqrt(np.sum(field ** 2) * g.cell_area))


def _fit_order(hs, errors) -> float:
    """Least-squares slope of log error against log spacing."""
    return float(np.polyfit(np.log(np.asarray(hs)),
                            np.log(np.asarray(errors)), 1)[0])


def _run(cfg: io.RunConfig, phi: np.ndarray, sigma: np.ndarray) -> RunResult:
    """The run `cfg` declares, started from (phi, sigma)."""
    specs = cfg.sim_spec()
    return run(initial_state(phi, sigma, specs.model), cfg.n_steps, specs)


# ---------------------------------------------------------------------------
# 1. Krylov Brinkman solutions match the dense oracle
# ---------------------------------------------------------------------------

def criterion_1(cache: Cache) -> CriterionResult:
    rng = np.random.default_rng(20240601)
    worst_gap = 0.0
    worst_div = 0.0
    t0 = time.perf_counter()
    for n in (6, 8, 12):
        g = make_grid(1.0, 1.0, n, n)
        eta = 0.5 + rng.random(g.shape)          # within [eta0, eta1]
        lam = 0.3 * rng.random(g.shape)          # within [0, lam0]
        force = FaceField(rng.standard_normal((n + 1, n)),
                          rng.standard_normal((n, n + 1)))
        gamma_v = 0.5 * rng.standard_normal(g.shape)
        problem = BrinkmanProblem(g, eta, lam, nu=2.0, force=force,
                                  gamma_v=gamma_v)
        sol = solve_brinkman(problem, SolverOptions(tol=1e-12))
        ora = dense_oracle_solve(problem)
        gap = max(float(np.max(np.abs(sol.v.u - ora.v.u))),
                  float(np.max(np.abs(sol.v.w - ora.v.w))),
                  float(np.max(np.abs(sol.p - ora.p))))
        worst_gap = max(worst_gap, gap)
        worst_div = max(worst_div, sol.divergence_residual)
    elapsed = time.perf_counter() - t0
    passed = worst_gap <= 1e-8 and worst_div <= 1e-9 and elapsed < 10.0
    return CriterionResult(1, "Brinkman oracle equivalence", passed,
                           f"max |Krylov - dense| = {worst_gap:.3e} (<= 1e-8), "
                           f"max div residual = {worst_div:.3e} (<= 1e-9), "
                           f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. Constant force: exact uniform-velocity solution
# ---------------------------------------------------------------------------

def criterion_2(cache: Cache) -> CriterionResult:
    g = make_grid(1.0, 1.0, 16, 16)
    c, nu = 2.0, 4.0
    force = FaceField(np.full((17, 16), c), np.zeros((16, 17)))
    problem = BrinkmanProblem(g, np.full(g.shape, 1.0), np.full(g.shape, 0.3),
                              nu=nu, force=force, gamma_v=np.zeros(g.shape))
    sol = solve_brinkman(problem, SolverOptions(tol=1e-13))
    err = max(float(np.max(np.abs(sol.v.u - c / nu))),
              float(np.max(np.abs(sol.v.w))),
              float(np.max(np.abs(sol.p))))
    return CriterionResult(2, "constant-force Brinkman exactness", err <= 1e-10,
                           f"max deviation from (c/nu, 0, p=0) = {err:.3e} "
                           f"(<= 1e-10)")


# ---------------------------------------------------------------------------
# 3. Pure gradient flow: energy decays every step
# ---------------------------------------------------------------------------

# flow-free, source-free gradient flow of a four-mode cosine perturbation
DECAY = io.RunConfig(
    nx=64, ny=64, dt=1e-3, t_end=0.5, sigma_inf=(0.0,) * 4,
    mobility=(5e-3, 5e-3), stabilization_s=1.7, flow=False,
    phi0="cosine_perturbation", phi0_amplitude=0.05,
    phi0_modes=((1, 0), (0, 1), (1, 1), (2, 1)), sigma0_value=0.0)


def _decay_run() -> tuple[RunResult, ModelSpec]:
    return _run(DECAY, *DECAY.initial_fields()), DECAY.model_spec()


def criterion_3(cache: Cache) -> CriterionResult:
    t0 = time.perf_counter()
    result, _ = cache.fetch("decay_run", _decay_run)
    elapsed = time.perf_counter() - t0
    energies = [row["energy"] for row in result.rows]
    worst = max(e1 - (e0 + 1e-12 * max(1.0, abs(e0)))
                for e0, e1 in zip(energies, energies[1:]))
    passed = worst <= 0.0 and elapsed < 60.0
    return CriterionResult(3, "gradient-flow energy decay", passed,
                           f"{DECAY.n_steps} steps, max uphill slack = {worst:.3e} "
                           f"(<= 0), E: {energies[0]:.6f} -> {energies[-1]:.6f}, "
                           f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4. Mass ledgers close to machine precision on every cached run
# ---------------------------------------------------------------------------

def criterion_4(cache: Cache) -> CriterionResult:
    decay, model_a = cache.fetch("decay_run", _decay_run)
    (coarse, fine), model_b, prep = cache.fetch("budget_runs", _budget_runs)
    runs = [(decay, model_a), (coarse, model_b), (fine, model_b)]
    runs += [(r, model_b) for r in prep]
    worst = 0.0
    n_steps = 0
    for result, model in runs:
        n_steps += len(result.reports)
        for rep in result.reports:
            worst = max(worst, abs(rep.ledger_phi) / model.grid.area,
                        abs(rep.ledger_sigma) / model.grid.area)
    passed = worst <= 1e-11
    return CriterionResult(4, "mass ledgers", passed,
                           f"max |ledger residual| / |Omega| = {worst:.3e} "
                           f"(<= 1e-11) over {n_steps} steps of {len(runs)} runs")


# ---------------------------------------------------------------------------
# 5. Energy-budget residual small and shrinking with dt
# ---------------------------------------------------------------------------

# tanh disc with Lima sources under strong friction, coupled flow; the
# budget runs start it from the steady nutrient, not from sigma0
DISC = io.RunConfig(
    nx=64, ny=64, dt=1e-4, t_end=5e-3, chi_phi=0.5, nu=1000.0, b=1.0,
    mobility=(5e-4, 5e-4), nutrient_mobility=(0.05, 0.05), source="lima",
    source_P=0.05, source_A=0.01, source_C=0.025, c_gamma_v=0.05,
    phi0="tanh_disc")


def _disc_model() -> ModelSpec:
    return DISC.model_spec()


def _steady_nutrient(phi: np.ndarray, model: ModelSpec) -> np.ndarray:
    """Nutrient field balancing diffusion, active transport, consumption
    and wall supply for a frozen phase field (zero velocity)."""
    g = model.grid
    params = model.params
    _, n_cell = mobilities(phi, model.mobvis)
    n_faces = harmonic_face_coefficients(n_cell, g)
    chi_faces = FaceField(params.chi_sigma * n_faces.u,
                          params.chi_sigma * n_faces.w)
    consumption = model.source.C * np.clip(0.5 * (1.0 + phi), 0.0, 1.0)
    robin = diffusion_stencil(chi_faces, g, params.b)
    op = StencilOperator(lambda f: -robin(f), g.shape)
    rhs = (robin_source(params.b, params.sigma_inf, g)
           - params.chi_phi * apply_neumann_laplacian(phi, n_faces, g)
           - consumption)
    sigma, _ = solve_general(op, rhs, SolverOptions(tol=1e-13))
    return sigma


def _budget_runs() -> tuple[tuple[RunResult, RunResult], ModelSpec,
                            tuple[RunResult, RunResult]]:
    """Two flow-coupled runs over a shared horizon at dt and dt/2.

    Both start from the same prepared disc: the raw tanh profile is first
    relaxed with a large phase mobility (a cheap way to reach the interface
    profile the discrete dynamics actually sustains) and then settled for a
    few steps under the measured coefficients, so the recorded residuals
    reflect the time-stepping remainder of the modeled dynamics rather than
    the projection shock of an arbitrary initial guess.
    """
    model = _disc_model()
    phi0, _ = DISC.initial_fields()
    relax = _run(replace(DISC, mobility=(1e-2, 1e-2), dt=2e-4, t_end=2e-2),
                 phi0, _steady_nutrient(phi0, model))
    settle = _run(replace(DISC, t_end=2e-3),
                  relax.final_state.phi, relax.final_state.sigma)
    prepared = settle.final_state
    coarse, fine = (_run(cfg, prepared.phi, prepared.sigma)
                    for cfg in (DISC, replace(DISC, dt=5e-5)))
    return (coarse, fine), model, (relax, settle)


def _max_scaled_residual(result: RunResult) -> float:
    worst = 0.0
    for row in result.rows[1:]:
        worst = max(worst, abs(row["budget_residual"])
                    / max(1.0, abs(row["energy"])))
    return worst


def criterion_5(cache: Cache) -> CriterionResult:
    (coarse, fine), _, _ = cache.fetch("budget_runs", _budget_runs)
    r_coarse = _max_scaled_residual(coarse)
    r_fine = _max_scaled_residual(fine)
    ratio = r_coarse / r_fine if r_fine > 0 else np.inf
    # First-order consistency: the ceiling halves with the step, and the
    # measured residual actually shrinks (ratio safely above 1).
    passed = (r_coarse <= 1e-6 and r_fine <= 0.5e-6
              and r_fine <= 0.75 * r_coarse)
    return CriterionResult(5, "energy-budget residual", passed,
                           f"max scaled residual {r_coarse:.3e} at dt=1e-4 "
                           f"(<= 1e-6), {r_fine:.3e} at dt=5e-5 (<= 5e-7), "
                           f"shrink ratio {ratio:.2f}")


# ---------------------------------------------------------------------------
# 6. Manufactured solutions: spatial order 2, coupled order 1 in dt
# ---------------------------------------------------------------------------

# the fitted orders criterion 6 and `chbsim mms` accept: second order in
# space, first order in dt
SPACE_ORDER = (1.8, 2.2)
TIME_ORDER = (0.8, 1.2)


def poisson_convergence(sizes=(16, 32, 64, 128)) -> tuple[list, list, float]:
    """-lap u = f, homogeneous Neumann, u* = cos(pi x) cos(pi y)."""
    hs, errs = [], []
    for n in sizes:
        g = make_grid(1.0, 1.0, n, n)
        x, y = g.cell_centers()
        exact = np.cos(np.pi * x) * np.cos(np.pi * y)
        rhs = 2.0 * np.pi ** 2 * exact
        ones = FaceField.ones(g)
        op = StencilOperator(
            lambda f, g=g, ones=ones: -apply_neumann_laplacian(f, ones, g),
            g.shape, symmetric=True, nullspace="constants")
        u, rep = solve_spd(op, rhs, SolverOptions(tol=1e-12))
        exact0 = exact - np.mean(exact)
        errs.append(_l2(u - exact0, g))
        hs.append(g.hx)
    return hs, errs, _fit_order(hs, errs)


def robin_convergence(sizes=(16, 32, 64, 128)) -> tuple[list, list, float]:
    """u - div(grad u) = f with Robin walls, u* = cos(pi x) cos(pi y) + 2.

    The manufactured trace is fed through the per-edge boundary-data arrays;
    the normal derivative of u* vanishes on all four walls, so the Robin
    data equals the trace itself.
    """
    hs, errs = [], []
    for n in sizes:
        g = make_grid(1.0, 1.0, n, n)
        x, y = g.cell_centers()
        exact = np.cos(np.pi * x) * np.cos(np.pi * y) + 2.0
        rhs_f = exact + 2.0 * np.pi ** 2 * (exact - 2.0)
        xs = (np.arange(g.nx) + 0.5) * g.hx
        ys = (np.arange(g.ny) + 0.5) * g.hy
        traces = EdgeValues(left=np.cos(np.pi * ys) + 2.0,
                            right=np.cos(np.pi * 1.0) * np.cos(np.pi * ys) + 2.0,
                            bottom=np.cos(np.pi * xs) + 2.0,
                            top=np.cos(np.pi * xs) * np.cos(np.pi * 1.0) + 2.0)
        robin = diffusion_stencil(FaceField.ones(g), g, 1.0)
        op = StencilOperator(lambda f, robin=robin: f - robin(f), g.shape)
        rhs = rhs_f + robin_source(1.0, traces, g)
        u, rep = solve_general(op, rhs, SolverOptions(tol=1e-12))
        errs.append(_l2(u - exact, g))
        hs.append(g.hx)
    return hs, errs, _fit_order(hs, errs)


# tanh disc with Lima sources and bulk viscosity, coupled flow; run to a
# fixed horizon at dt, dt/2 and dt/4
COUPLED = io.RunConfig(
    nx=32, ny=32, dt=2e-4, t_end=2e-3, chi_phi=0.25, nu=10.0, b=0.5,
    mobility=(0.01, 0.01), nutrient_mobility=(0.01, 0.01),
    bulk_viscosity=(0.1, 0.1), source="lima", source_P=0.5, source_A=0.1,
    source_C=0.2, c_gamma_v=0.05, phi0="tanh_disc")


def coupled_dt_convergence() -> tuple[list, list, float]:
    """Self-convergence of the full step at a fixed short horizon."""
    phi0, sigma0 = COUPLED.initial_fields()
    dts = (COUPLED.dt, COUPLED.dt / 2, COUPLED.dt / 4)
    finals = [_run(replace(COUPLED, dt=dt), phi0, sigma0).final_state.phi
              for dt in dts]
    g = COUPLED.grid()
    gaps = [_l2(finals[0] - finals[1], g), _l2(finals[1] - finals[2], g)]
    order = float(np.log2(gaps[0] / gaps[1]))
    return list(dts), gaps, order


def criterion_6(cache: Cache) -> CriterionResult:
    _, _, p_ord = cache.fetch("mms_poisson", poisson_convergence)
    _, _, r_ord = cache.fetch("mms_robin", robin_convergence)
    _, _, t_ord = cache.fetch("mms_coupled", coupled_dt_convergence)
    passed = all(lo <= order <= hi for order, (lo, hi) in
                 ((p_ord, SPACE_ORDER), (r_ord, SPACE_ORDER), (t_ord, TIME_ORDER)))
    return CriterionResult(6, "manufactured-solution convergence", passed,
                           f"L2 orders: Poisson {p_ord:.2f}, Robin {r_ord:.2f} "
                           f"(within {list(SPACE_ORDER)}); coupled dt order "
                           f"{t_ord:.2f} (within {list(TIME_ORDER)})")


# ---------------------------------------------------------------------------
# 7. Spectral route: bounded quantities stabilize in k
# ---------------------------------------------------------------------------

GALERKIN_KS = (1, 5, 15, 30)


# the sweep's model, step and horizon; its initial fields, with two
# amplitudes in phi, are `_galerkin_table`'s, which a config cannot carry
GALERKIN = io.RunConfig(
    nx=32, ny=32, dt=5e-4, t_end=2e-2, chi_phi=0.25, nu=10.0, b=0.5,
    mobility=(0.05, 0.05), nutrient_mobility=(0.05, 0.05), source="lima",
    source_P=0.5, source_A=0.1, source_C=0.2, c_gamma_v=0.05)


def _galerkin_model() -> ModelSpec:
    return GALERKIN.model_spec()


def galerkin_sweep(model: ModelSpec, phi0: np.ndarray, sigma0: np.ndarray,
                   ks, dt: float, steps: int) -> dict:
    """Bounded-quantity table per cutoff k (shared by verify and the CLI)."""
    table = {}
    for k in ks:
        basis = galerkin.build_basis(k, model.grid)
        st0 = galerkin.SpectralState(t=0.0, a=galerkin.project(phi0, basis),
                                     c=galerkin.project(sigma0, basis))
        res = galerkin.integrate(st0, dt, steps, model, basis, flow=True)
        table[k] = diagnostics.norm_estimates(res.states, model).as_dict()
    return table


def k_gap_check(table: dict) -> tuple[bool, float]:
    """(passed, gap) for a `galerkin_sweep` table: it passes when every
    quantity is finite and the largest relative gap between the two largest
    cutoffs is below 0.2.  With one cutoff the gap is 0."""
    finite = all(np.isfinite(v) for norms in table.values() for v in norms.values())
    ks = sorted(table)
    if len(ks) < 2:
        return finite, 0.0
    lo, hi = table[ks[-2]], table[ks[-1]]
    worst = max(abs(hi[n] - lo[n]) / max(abs(hi[n]), 1e-12) for n in hi)
    return finite and worst < 0.2, worst


def _galerkin_table() -> dict:
    model = _galerkin_model()
    g = model.grid
    x, y = g.cell_centers()
    phi0 = (-0.2 + 0.1 * np.cos(np.pi * x) * np.cos(np.pi * y)
            + 0.05 * np.cos(np.pi * x))
    sigma0 = 0.9 + 0.05 * np.cos(np.pi * y)
    return galerkin_sweep(model, phi0, sigma0, GALERKIN_KS, dt=GALERKIN.dt,
                          steps=GALERKIN.n_steps)


def criterion_7(cache: Cache) -> CriterionResult:
    t0 = time.perf_counter()
    table = cache.fetch("galerkin_table", _galerkin_table)
    elapsed = time.perf_counter() - t0
    k_lo, k_hi = sorted(table.keys())[-2:]
    stable, worst_rel = k_gap_check(table)
    passed = stable and elapsed < 300.0
    return CriterionResult(7, "k-uniform bound echo", passed,
                           f"all quantities finite for k in {GALERKIN_KS}; "
                           f"max relative gap k={k_lo} vs k={k_hi}: "
                           f"{worst_rel:.3f} (< 0.2), {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 8. Assumption validator behaves as specified
# ---------------------------------------------------------------------------

def criterion_8(cache: Cache) -> CriterionResult:
    quartic = PotentialSpec.quartic()
    mobvis = MobilityViscositySpec.constants()
    subchecks = []

    def params(eps, chi_phi):
        return ModelParams(epsilon=eps, chi_sigma=1.0, chi_phi=chi_phi,
                           nu=1.0, b=0.0)

    # epsilon-condition example triple: pass / pass / fail
    for eps, chi_phi, expect in ((0.1, 0.0, True), (0.05, 1.0, True),
                                 (0.1, 1.0, False)):
        rep = validate_params(params(eps, chi_phi), quartic, mobvis,
                              SourceSpec.none())
        subchecks.append(("eps-condition", rep["epsilon_condition"].passed is expect))

    # coefficient bound checks: interpolating specs stay within declared
    # bounds on a wide sample; inverted/negative bounds are rejected
    good = MobilityViscositySpec(m=CoefficientSpec(0.5, 2.0),
                                 n=CoefficientSpec(0.1, 1.0),
                                 eta=CoefficientSpec(1.0, 3.0),
                                 lam=CoefficientSpec(0.0, 0.5))
    t = np.linspace(-10.0, 10.0, 401)
    within = all(
        bool(np.all((c.lo - 1e-14 <= c(t)) & (c(t) <= c.hi + 1e-14)))
        for c in (good.m, good.n, good.eta, good.lam))
    rep_good = validate_params(params(0.1, 0.0), quartic, good, SourceSpec.none())
    subchecks.append(("coeff-bounds sampled", within))
    subchecks.append(("coeff-bounds validator",
                      rep_good["mobility_bounds"].passed
                      and rep_good["viscosity_bounds"].passed))
    bad = MobilityViscositySpec(m=CoefficientSpec(-0.1, 1.0),
                                n=CoefficientSpec(0.1, 1.0),
                                eta=CoefficientSpec(1.0, 0.5),
                                lam=CoefficientSpec(0.0, 0.5))
    rep_bad = validate_params(params(0.1, 0.0), quartic, bad, SourceSpec.none())
    subchecks.append(("bad bounds rejected",
                      not rep_bad["mobility_bounds"].passed
                      and not rep_bad["viscosity_bounds"].passed))

    # volume-source clamp is exact
    src = SourceSpec.lima(P=2.0, A=0.5, C=1.0, c_gamma_v=0.4)
    prm = params(0.05, 1.0)
    g0 = gamma_v_clamp(src, prm)
    rng = np.random.default_rng(7)
    phi = 4.0 * rng.standard_normal(1000)
    sig = 4.0 * rng.standard_normal(1000)
    mu = 4.0 * rng.standard_normal(1000)
    terms = sources(phi, sig, mu, src, prm)
    subchecks.append(("gamma_v clamp",
                      bool(np.all(np.abs(terms.gamma_v) <= g0 + 1e-15))))

    # case-consistency: hawkins with quartic rejected, positive variant and
    # quadratic-growth pairing accepted
    rep1 = validate_params(prm, quartic, mobvis, SourceSpec.hawkins(p0=1.0))
    rep2 = validate_params(prm, quartic, mobvis,
                           SourceSpec.hawkins_positive(p0=1.0))
    rep3 = validate_params(prm, PotentialSpec.quadratic_growth(), mobvis,
                           SourceSpec.hawkins(p0=1.0))
    subchecks.append(("hawkins+quartic rejected",
                      not rep1["case_consistency"].passed))
    subchecks.append(("hawkins_positive accepted",
                      rep2["case_consistency"].passed))
    subchecks.append(("hawkins+quadratic_growth accepted",
                      rep3["case_consistency"].passed))

    failed = [name for name, ok in subchecks if not ok]
    return CriterionResult(8, "assumption validator", not failed,
                           f"{len(subchecks)} sub-checks"
                           + ("" if not failed else f"; failed: {failed}"))


# ---------------------------------------------------------------------------
# 9. Gronwall checker: closed forms exact, fitted bound dominates the run
# ---------------------------------------------------------------------------

def criterion_9(cache: Cache) -> CriterionResult:
    subchecks = []

    times = np.array([0.0, 0.3, 0.7, 1.2, 2.0])
    alpha = 2.0 + np.sin(times)
    res0 = diagnostics.gronwall_bound(times, alpha, np.zeros_like(times),
                                      0.9 * alpha)
    subchecks.append(("beta=0 identity",
                      res0.verified
                      and bool(np.allclose(res0.bound, alpha, rtol=1e-14,
                                           atol=0.0))))

    a0, b0 = 1.5, 0.7
    exact = a0 * np.exp(b0 * times)
    res1 = diagnostics.gronwall_bound(times, np.full_like(times, a0),
                                      np.full_like(times, b0),
                                      np.full_like(times, a0))
    subchecks.append(("constant closed form",
                      res1.verified
                      and bool(np.allclose(res1.bound, exact, rtol=1e-13,
                                           atol=0.0))))

    (coarse, _), _, _ = cache.fetch("budget_runs", _budget_runs)
    rows = coarse.rows
    t = np.array([row["t"] for row in rows])
    energy = np.array([row["energy"] for row in rows])
    u = energy - energy.min() + 1.0
    diss = np.array([row["diss_mu"] + row["diss_nsigma"] + row["diss_visc"]
                     + row["bnd_sigma_sq"] for row in rows])
    gain = np.array([row["src_phi_mu"] + row["src_sigma_n"]
                     + row["bnd_income"] + row["budget_residual"] + row["conv_work"]
                     for row in rows])
    # left-endpoint rates: the step ending at t_k carries rate index k-1
    v_rate = np.zeros_like(u)
    rhs_rate = np.zeros_like(u)
    v_rate[:-1] = diss[1:]
    rhs_rate[:-1] = gain[1:]
    beta = max(0.0, float(np.max(rhs_rate[:-1] / u[:-1])))
    alpha_fit = np.full_like(u, u[0])
    res2 = diagnostics.gronwall_bound(t, alpha_fit,
                                      np.full_like(u, beta), u, v=v_rate)
    subchecks.append(("hypothesis holds", res2.hypothesis_ok))
    subchecks.append(("fitted bound dominates", res2.verified))

    failed = [name for name, ok in subchecks if not ok]
    return CriterionResult(
        9, "Gronwall checker", not failed,
        ("closed forms exact; fitted bound dominates the budget run "
         f"(beta = {beta:.3g}, min margin = {float(res2.margin().min()):.3e})")
        if not failed else f"failed: {failed}")


# ---------------------------------------------------------------------------
# 10. Bit-identical reruns
# ---------------------------------------------------------------------------

def criterion_10(cache: Cache) -> CriterionResult:
    cfg = replace(COUPLED, nx=16, ny=16, t_end=1e-3, snapshot_every=2,
                  bulk_viscosity=(0.0, 0.0), formats=("csv", "vtk"))
    with tempfile.TemporaryDirectory() as tmp:
        outs = []
        saved = os.environ.get(io.OUTPUT_ROOT_ENV)
        try:
            # same relative directory both times, rooted in fresh parents, so
            # every written file (config echo included) must match exactly
            for sub in ("a", "b"):
                os.environ[io.OUTPUT_ROOT_ENV] = str(Path(tmp) / sub)
                _, outdir = io.run_from_config(cfg)
                outs.append(outdir)
        finally:
            if saved is None:
                os.environ.pop(io.OUTPUT_ROOT_ENV, None)
            else:
                os.environ[io.OUTPUT_ROOT_ENV] = saved
        names = sorted(p.name for p in outs[0].iterdir())
        names_b = sorted(p.name for p in outs[1].iterdir())
        same_listing = names == names_b
        diffs = [n for n in names
                 if (outs[0] / n).read_bytes() != (outs[1] / n).read_bytes()]
    passed = same_listing and not diffs
    return CriterionResult(10, "deterministic outputs", passed,
                           f"{len(names)} files compared byte-for-byte"
                           + ("" if passed else f"; differing: {diffs}"))


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------

CRITERIA = (criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
            criterion_6, criterion_7, criterion_8, criterion_9, criterion_10)


def run_all(cache: Cache | None = None, indices=None,
            progress=None) -> list[CriterionResult]:
    cache = cache if cache is not None else Cache()
    wanted = set(indices) if indices else set(range(1, len(CRITERIA) + 1))
    results = []
    for k, fn in enumerate(CRITERIA, start=1):
        if k not in wanted:
            continue
        try:
            res = fn(cache)
        except Exception as exc:  # a crashed check is a failed check
            res = CriterionResult(k, fn.__name__, False,
                                  f"raised {type(exc).__name__}: {exc}")
        results.append(res)
        if progress is not None:
            progress(res)
    return results
