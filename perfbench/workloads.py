"""The four benchmark workloads.

Each workload turns a seed into small input perturbations (`inputs`), builds
what a user's run builds before its first step (`setup`), drives one run to
its fixed horizon (`solve`) and checks the run's outputs (`check`).  The
program only ever sees the generated fields and configs.

Seeds map onto `VARIANTS` perturbation variants, so that every input has a
final-field reference recorded on the seed commit in `reference.json`.
"""
from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from chbsim import io, timestepper, verify
from chbsim.constitutive import (
    CoefficientSpec,
    EdgeValues,
    MobilityViscositySpec,
    ModelParams,
    ModelSpec,
    PotentialSpec,
    SourceSpec,
)
from chbsim.core import make_grid

VARIANTS = 8
JITTER = 0.01               # relative size of the seeded perturbations
REFERENCE = Path(__file__).with_name("reference.json")

# Ceilings taken from the acceptance criteria, never from observed values.
LEDGER_CEILING = 1e-11       # criterion 4: |ledger| / |Omega|
UPHILL_SLACK = 1e-12         # criterion 3: E1 <= E0 + slack * max(1, |E0|)
BUDGET_CEILING = 1e-6        # criterion 5: scaled budget residual at dt = 1e-4
# Agreement with the recorded reference: each solve stops at a relative
# residual of at most 10 * tol, the error it leaves is at most the
# operator's condition number times that (COND allows 1e3), and errors of
# successive solves add up at worst.
COND = 1e3


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def _probe(field: np.ndarray) -> list[float]:
    """Compact summary of a field: mean, L2 norm and a 4x4 sample."""
    nx, ny = field.shape
    idx = np.ix_(np.linspace(0, nx - 1, 4).astype(int),
                 np.linspace(0, ny - 1, 4).astype(int))
    return ([float(field.mean()), float(np.sqrt(np.mean(field ** 2)))]
            + [float(v) for v in field[idx].ravel()])


@dataclass
class Checked:
    failed: int          # failed operations
    messages: list[str]


class Workload:
    name = ""
    why = ""
    horizon = 0          # steps per solution
    min_reps = 1         # solutions per measured run, at least
    # Percentile reported as step_ms_tail.  At least ten of the
    # horizon * min_reps step samples lie beyond it, and it falls inside a
    # class of steps (cold first step, steps that write output), not on the
    # edge between two classes, where a small shift moves it far.
    tail_pct = 90
    step_hook = ("chbsim.timestepper", "step")
    exit_hook = ("chbsim.timestepper", "run")
    stages_per_step = 1  # hook calls per step
    loosest_tol = 1e-11
    solves_per_step = 3
    model_area = 1.0     # every workload runs on the unit square

    def rng(self, variant: int) -> np.random.Generator:
        return np.random.default_rng([variant, sum(map(ord, self.name))])

    def ops_per_solution(self) -> int:
        return self.horizon

    # -- reference ----------------------------------------------------------

    def summary(self, outcome) -> dict:
        st = outcome.final_state
        return {"phi": _probe(st.phi), "mu": _probe(st.mu),
                "sigma": _probe(st.sigma), "p": _probe(st.p)}

    def compare(self, outcome, variant: int) -> list[str]:
        try:
            ref = json.loads(REFERENCE.read_text())[self.name][str(variant)]
        except (OSError, KeyError, ValueError) as exc:
            return [f"no reference for variant {variant}: {exc!r}"]
        tol = self.horizon * self.solves_per_step * 10.0 * self.loosest_tol * COND
        got = self.summary(outcome)
        bad = []
        for key, want in ref.items():
            want, have = np.asarray(want), np.asarray(got[key])
            scale = max(1.0, float(np.max(np.abs(want))))
            gap = float(np.max(np.abs(have - want)))
            if not gap <= tol * scale:
                bad.append(f"{key} differs from the reference by {gap:.3e} "
                           f"(> {tol * scale:.3e})")
        return bad

    # -- exact counts -------------------------------------------------------

    def fingerprint(self, outcome) -> tuple:
        """Iteration counts per step and a digest of the final fields."""
        its = tuple((r.flow.iterations if r.flow else 0, r.phase.iterations,
                     r.nutrient.iterations) for r in outcome.reports)
        st = outcome.final_state
        return its, _digest(st.phi, st.mu, st.sigma, st.p, st.v.u, st.v.w)

    # -- step checks ---------------------------------------------------------

    def check(self, outcome, variant: int) -> Checked:
        bad_steps: set[int] = set()
        msgs: list[str] = []
        for k, rep in enumerate(outcome.reports):
            solves = [rep.phase, rep.nutrient] + ([rep.flow] if rep.flow else [])
            if not all(s.converged for s in solves):
                bad_steps.add(k)
                msgs.append(f"step {k}: a solve did not converge")
            worst = max(abs(rep.ledger_phi), abs(rep.ledger_sigma)) / self.model_area
            if not worst <= LEDGER_CEILING:
                bad_steps.add(k)
                msgs.append(f"step {k}: mass ledger {worst:.3e} > {LEDGER_CEILING}")
        for k in self.extra_step_failures(outcome, msgs):
            bad_steps.add(k)
        whole = self.compare(outcome, variant) + self.output_failures(outcome)
        if len(outcome.reports) != self.horizon:
            whole.append(f"{len(outcome.reports)} steps instead of {self.horizon}")
        return Checked(len(bad_steps) + len(whole), msgs + whole)

    def extra_step_failures(self, outcome, msgs) -> list[int]:
        return []

    def output_failures(self, outcome) -> list[str]:
        return []


# ---------------------------------------------------------------------------
# decay: criterion-3 gradient flow, no flow, constant mobility
# ---------------------------------------------------------------------------

class Decay(Workload):
    name = "decay"
    why = ("criterion-3 gradient flow at 64^2, flow off: the constant-mobility CG "
           "phase solve dominates and brinkman is never called, so Brinkman-only "
           "changes must show nothing")
    horizon = 50
    min_reps = 6
    tail_pct = 96        # 12 of 300 beyond
    loosest_tol = 1e-12
    solves_per_step = 2

    def inputs(self, variant: int) -> dict:
        amp = 1.0 + JITTER * self.rng(variant).uniform(-1.0, 1.0, 4)
        g = make_grid(1.0, 1.0, 64, 64)
        x, y = g.cell_centers()
        cx, cy, c2x = np.cos(np.pi * x), np.cos(np.pi * y), np.cos(2 * np.pi * x)
        phi0 = 0.05 * (amp[0] * cx + amp[1] * cy + amp[2] * cx * cy + amp[3] * c2x * cy)
        return {"phi0": phi0}

    def setup(self, inputs: dict):
        g = make_grid(1.0, 1.0, 64, 64)
        params = ModelParams(epsilon=0.1, chi_sigma=1.0, chi_phi=0.0, nu=1.0,
                             b=0.0, sigma_inf=EdgeValues.constant(0.0))
        model = ModelSpec(grid=g, params=params, potential=PotentialSpec.quartic(),
                          mobvis=MobilityViscositySpec.constants(m=0.005, n=1.0),
                          source=SourceSpec.none())
        state0 = timestepper.initial_state(inputs["phi0"], np.zeros(g.shape), model)
        spec = timestepper.SimSpec(model=model, scheme=timestepper.SchemeOptions(
            dt=1e-3, s=1.7, flow=False))
        return state0, spec

    def solve(self, prepared, workdir: Path):
        state0, spec = prepared
        return timestepper.run(state0, self.horizon, spec)

    def extra_step_failures(self, outcome, msgs) -> list[int]:
        bad = []
        energies = [row["energy"] for row in outcome.rows]
        for k, (e0, e1) in enumerate(zip(energies, energies[1:])):
            if not e1 <= e0 + UPHILL_SLACK * max(1.0, abs(e0)):
                bad.append(k)
                msgs.append(f"step {k}: energy went uphill by {e1 - e0:.3e}")
        return bad


# ---------------------------------------------------------------------------
# disc_flow: criterion-4/5 disc with Lima sources and strong friction
# ---------------------------------------------------------------------------

class DiscFlow(Workload):
    name = "disc_flow"
    why = ("criterion-4/5 disc at 64^2, flow on, nu = 1000, constant coefficients: "
           "the Brinkman MINRES solve is ~96% of a step, so flow-solver changes "
           "show here")
    horizon = 10
    min_reps = 10
    tail_pct = 85        # 15 of 100 beyond; the cold first step is the top 10%

    def inputs(self, variant: int) -> dict:
        """A jittered tanh disc, relaxed by the program itself.

        The raw tanh profile is not a discrete interface profile; its first
        steps show a projection shock of order 1e-2 in the budget residual.
        As criterion 5 does, the disc is relaxed first: ten flow-free steps
        at a large phase mobility, from the steady nutrient.  The relaxed
        phase field is the input.
        """
        jit = self.rng(variant).uniform(-1.0, 1.0, 3)
        model = verify._disc_model()
        g = model.grid
        x, y = g.cell_centers()
        cx, cy = 0.508 + 0.001 * jit[0], 0.494 + 0.001 * jit[1]
        dist = np.sqrt((x - cx) ** 2 + (y - cy) ** 2)
        phi = np.tanh((0.25 + 0.001 * jit[2] - dist) / (np.sqrt(2.0) * model.params.epsilon))
        relax_model = replace(model, mobvis=replace(model.mobvis,
                                                    m=CoefficientSpec.constant(1e-2)))
        relaxed = timestepper.run(
            timestepper.initial_state(phi, verify._steady_nutrient(phi, model), relax_model),
            10, timestepper.SimSpec(model=relax_model, scheme=timestepper.SchemeOptions(
                dt=2e-3, s=2.0, flow=False)))
        return {"phi0": relaxed.final_state.phi}

    def setup(self, inputs: dict):
        model = verify._disc_model()
        phi0 = inputs["phi0"]
        state0 = timestepper.initial_state(phi0, verify._steady_nutrient(phi0, model), model)
        spec = timestepper.SimSpec(model=model, scheme=timestepper.SchemeOptions(
            dt=1e-4, s=2.0, flow=True))
        return state0, spec

    solve = Decay.solve

    def extra_step_failures(self, outcome, msgs) -> list[int]:
        bad = []
        for k, row in enumerate(outcome.rows[1:]):
            scaled = abs(row["budget_residual"]) / max(1.0, abs(row["energy"]))
            if not scaled <= BUDGET_CEILING:
                bad.append(k)
                msgs.append(f"step {k}: budget residual {scaled:.3e} > {BUDGET_CEILING}")
        return bad


# ---------------------------------------------------------------------------
# hetero_io: config-driven run, variable coefficients, csv+vtk snapshots
# ---------------------------------------------------------------------------

class HeteroIO(Workload):
    name = "hetero_io"
    why = ("io.run_from_config, centred disc, mobility 1e-3..5e-3 (BiCGStab phase "
           "path), viscosity 1..100 (weak case of block preconditioners), csv+vtk "
           "snapshots every step")
    horizon = 5
    min_reps = 8
    tail_pct = 70        # 12 of 40 beyond; the two slowest steps are the top 40%

    def inputs(self, variant: int) -> dict:
        jit = self.rng(variant).uniform(-1.0, 1.0, 2)
        return {"radius": 0.25 + 0.001 * jit[0], "sigma_amp": 0.05 * (1.0 + JITTER * jit[1])}

    def setup(self, inputs: dict):
        return io.RunConfig(
            nx=64, ny=64, dt=1e-4, t_end=self.horizon * 1e-4, snapshot_every=1,
            epsilon=0.1, chi_sigma=1.0, chi_phi=0.5, nu=10.0, b=1.0,
            mobility=(1e-3, 5e-3), nutrient_mobility=(0.05, 0.05),
            viscosity=(1.0, 100.0), bulk_viscosity=(0.0, 0.5),
            source="lima", source_P=0.05, source_A=0.01, source_C=0.025,
            c_gamma_v=0.05, phi0="tanh_disc", phi0_radius=float(inputs["radius"]), sigma0="cosine",
            sigma0_value=1.0, sigma0_amplitude=float(inputs["sigma_amp"]),
            formats=("csv", "vtk"), directory="run")

    def solve(self, cfg, workdir: Path):
        os.environ[io.OUTPUT_ROOT_ENV] = str(workdir)
        result, outdir = io.run_from_config(cfg)
        result.outdir = outdir
        return result

    def output_failures(self, outcome) -> list[str]:
        """The written files hold what the run computed, bit for bit."""
        bad = []
        names = sorted(p.name for p in outcome.outdir.iterdir())
        want = (["config.ini"]
                + [f"snap_{k:06d}.{fmt}" for k in range(self.horizon + 1)
                   for fmt in ("csv", "vtk")] + ["timeseries.csv"])
        if names != sorted(want):
            bad.append(f"output files {names} != {sorted(want)}")
            return bad
        header, cols = io.read_snapshot(outcome.outdir / f"snap_{self.horizon:06d}.csv")
        st = outcome.final_state
        for key in ("phi", "mu", "sigma", "p"):
            if not np.array_equal(cols[key], getattr(st, key)):
                bad.append(f"final snapshot {key} does not match the run")
        rows = io.read_timeseries(outcome.outdir / "timeseries.csv")
        if len(rows) != self.horizon + 1 or rows[-1]["energy"] != outcome.rows[-1]["energy"]:
            bad.append("timeseries.csv does not match the run")
        return bad


# ---------------------------------------------------------------------------
# galerkin_k30: one cutoff of the criterion-7 spectral sweep
# ---------------------------------------------------------------------------

class GalerkinK30(Workload):
    name = "galerkin_k30"
    why = ("criterion-7 spectral route at k = 30 on 32^2: four warm-started "
           "Brinkman solves per RK4 step, the only workload where per-call set-up "
           "in brinkman counts")
    horizon = 3
    min_reps = 12
    tail_pct = 72        # 10 of 36 beyond; the slowest step is the top third
    step_hook = ("chbsim.galerkin", "chemical_coeffs")
    exit_hook = ("chbsim.galerkin", "integrate")
    stages_per_step = 4
    loosest_tol = 1e-10
    solves_per_step = 4
    k = 30

    def ops_per_solution(self) -> int:
        return 1

    def inputs(self, variant: int) -> dict:
        jit = 1.0 + JITTER * self.rng(variant).uniform(-1.0, 1.0, 3)
        g = make_grid(1.0, 1.0, 32, 32)
        x, y = g.cell_centers()
        phi0 = (-0.2 + 0.1 * jit[0] * np.cos(np.pi * x) * np.cos(np.pi * y)
                + 0.05 * jit[1] * np.cos(np.pi * x))
        sigma0 = 0.9 + 0.05 * jit[2] * np.cos(np.pi * y)
        return {"phi0": phi0, "sigma0": sigma0}

    def setup(self, inputs: dict):
        return verify._galerkin_model(), inputs["phi0"], inputs["sigma0"]

    def solve(self, prepared, workdir: Path):
        model, phi0, sigma0 = prepared
        return verify.galerkin_sweep(model, phi0, sigma0, (self.k,), dt=5e-4,
                                     steps=self.horizon)[self.k]

    def summary(self, outcome) -> dict:
        return {"norms": [float(outcome[key]) for key in sorted(outcome)]}

    def fingerprint(self, outcome) -> tuple:
        return tuple(sorted(outcome.items()))

    def check(self, outcome, variant: int) -> Checked:
        msgs = [f"{key} is not finite" for key, v in outcome.items() if not np.isfinite(v)]
        msgs += self.compare(outcome, variant)
        return Checked(1 if msgs else 0, msgs)


WORKLOADS = {w.name: w for w in (DiscFlow(), Decay(), HeteroIO(), GalerkinK30())}
