"""Verification scenarios: each is one `RunConfig` that a config file carries."""
from dataclasses import replace

import numpy as np
import pytest

from chbsim import cli, elliptic, verify
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
from chbsim.io import OUTPUT_ROOT_ENV, load_config, read_timeseries, save_config
from chbsim.timestepper import run

SCENARIOS = ("DECAY", "DISC", "COUPLED", "GALERKIN")


@pytest.mark.parametrize("name", SCENARIOS)
def test_scenario_configs_round_trip_and_validate(tmp_path, name):
    cfg = getattr(verify, name)
    path = tmp_path / f"{name.lower()}.ini"
    save_config(cfg, path)
    assert load_config(path) == cfg     # load_config also runs every validation


def test_benchmark_models_are_unchanged():
    # the disc_flow and galerkin_k30 workloads take their models from here
    c = CoefficientSpec.constant
    assert verify._disc_model() == ModelSpec(
        grid=make_grid(1.0, 1.0, 64, 64),
        params=ModelParams(epsilon=0.1, chi_sigma=1.0, chi_phi=0.5, nu=1000.0, b=1.0,
                           sigma_inf=EdgeValues.constant(1.0)),
        potential=PotentialSpec.quartic(),
        mobvis=MobilityViscositySpec(m=c(5e-4), n=c(0.05), eta=c(1.0), lam=c(0.0)),
        source=SourceSpec.lima(P=0.05, A=0.01, C=0.025, c_gamma_v=0.05))
    assert verify._galerkin_model() == ModelSpec(
        grid=make_grid(1.0, 1.0, 32, 32),
        params=ModelParams(epsilon=0.1, chi_sigma=1.0, chi_phi=0.25, nu=10.0, b=0.5,
                           sigma_inf=EdgeValues.constant(1.0)),
        potential=PotentialSpec.quartic(),
        mobvis=MobilityViscositySpec(m=c(0.05), n=c(0.05), eta=c(1.0), lam=c(0.0)),
        source=SourceSpec.lima(P=0.5, A=0.1, C=0.2, c_gamma_v=0.05))


def test_a_saved_scenario_runs_from_the_command_line(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path / "out"))
    cfg = replace(verify.DECAY, t_end=5 * verify.DECAY.dt, directory="decay")
    save_config(cfg, tmp_path / "decay.ini")
    assert cli.main(["run", str(tmp_path / "decay.ini")]) == 0
    rows = read_timeseries(tmp_path / "out" / "decay" / "timeseries.csv")
    direct = run(verify.DECAY.initial_state(), 5, verify.DECAY.sim_spec())
    assert [row["energy"] for row in rows] == [row["energy"] for row in direct.rows]


@pytest.mark.parametrize("solve, study", [
    ("Poisson solve stalled on the 8x8 grid",
     lambda: verify.poisson_convergence((8, 16))),
    ("Robin solve stalled on the 8x8 grid",
     lambda: verify.robin_convergence((8, 16))),
    ("steady nutrient solve stalled on the 64x64 grid",
     lambda: verify._steady_nutrient(verify.DISC.initial_fields()[0],
                                     verify._disc_model())),
], ids=["poisson", "robin", "steady_nutrient"])
def test_a_stalled_study_solve_raises(monkeypatch, solve, study):
    # a stalled solve used to reach criterion 6 as an order outside its
    # bracket, and criterion 5 and the disc_flow inputs as a wrong field;
    # the Robin solves start from zero here, not from their exact inverse
    monkeypatch.setattr(elliptic, "MAX_ITERS", 0)
    monkeypatch.setattr(verify, "robin_inverse", lambda *args: np.zeros_like)
    with pytest.raises(RuntimeError, match=f"^{solve}: rel residual 1.000e[+]00 "
                       "after 0 iterations$"):
        study()


def test_a_stalled_poisson_solve_fails_criterion_6_and_mms(monkeypatch, capsys):
    monkeypatch.setattr(elliptic, "MAX_ITERS", 0)
    [res] = verify.run_all(indices=[6])
    assert not res.passed
    assert "Poisson solve stalled on the 16x16 grid" in res.detail
    assert cli.main(["mms"]) == 1
    assert "chbsim: error: Poisson solve stalled on the 16x16 grid" in capsys.readouterr().err
