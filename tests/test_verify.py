"""Verification scenarios: each is one `RunConfig` that a config file carries."""
from dataclasses import replace

import pytest

from chbsim import cli, verify
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
