"""Config parsing, snapshot/timeseries formats, output layout, CLI contract."""
import configparser
import hashlib
import math
import os
import re
import shutil
import socket
import subprocess
import sys
from dataclasses import fields, replace
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from chbsim import brinkman, cli, elliptic, galerkin, timestepper, verify
from chbsim.core import FaceField, Grid, State, face_to_center, make_grid
from chbsim.io import (
    _CHOICES,
    _SECTIONS,
    _csv_prefixes,
    _semantic_errors,
    _snapshot_text,
    repr_texts,
    OUTPUT_ROOT_ENV,
    SNAPSHOT_FIELDS,
    ConfigError,
    OutputLock,
    RunConfig,
    load_config,
    read_snapshot,
    read_timeseries,
    resolve_output_dir,
    run_from_config,
    save_config,
    write_snapshot,
    write_timeseries,
)
from chbsim.timestepper import COLUMNS, run


SMALL_RUN = """
[domain]
nx = 8
ny = 8

[time]
dt = 1e-3
t_end = 2e-3
snapshot_every = 1

[model]
epsilon = 0.1
b = 1.0

[constitutive]
mobility = 1e-3
nutrient_mobility = 0.05
source = lima
source_p = 0.1
source_c = 0.05

[solver]
flow = off

[init]
phi0 = cosine_perturbation
phi0_amplitude = 0.2

[output]
directory = demo
"""


def write_small_config(tmp_path, text=SMALL_RUN, name="run.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_empty_config_yields_all_defaults(tmp_path):
    path = tmp_path / "empty.ini"
    path.write_text("", encoding="utf-8")
    assert load_config(path) == RunConfig()


def test_config_parses_sections_and_shorthands(tmp_path):
    cfg = load_config(write_small_config(tmp_path))
    assert cfg.nx == 8 and cfg.dt == 1e-3 and cfg.b == 1.0
    assert cfg.mobility == (1e-3, 1e-3)       # single value expands to lo=hi
    assert cfg.sigma_inf == (1.0, 1.0, 1.0, 1.0)
    assert cfg.source == "lima" and cfg.source_P == 0.1
    assert cfg.flow is False
    assert cfg.n_steps == 2


def test_readme_example_config_loads_and_round_trips(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    (example,) = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
    cfg = load_config(write_small_config(tmp_path, text=example))
    save_config(cfg, tmp_path / "saved.ini")
    assert load_config(tmp_path / "saved.ini") == cfg


def test_config_rejects_unknown_sections_and_keys(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[domain]\nnx = 8\nwidth = 3\n\n[physics]\nq = 1\n",
                    encoding="utf-8")
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    msg = str(exc.value)
    assert "width" in msg and "[physics]" in msg


def test_config_rejects_inadmissible_parameters(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[model]\nchi_phi = 2.0\nepsilon = 0.1\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="epsilon_condition"):
        load_config(path)
    path.write_text("[time]\ndt = 1e-2\nt_end = 1e-3\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="shorter than one step"):
        load_config(path)
    path.write_text("[constitutive]\nsource = mitosis\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="source must be one of"):
        load_config(path)


@pytest.mark.parametrize("t_end, nearest", [
    ("2.5e-3", "0.002 and 0.003"),    # int(round(2.5)) made 2 steps
    ("1.05e-2", "0.01 and 0.011"),    # and 10.5 made 10
])
def test_config_rejects_a_horizon_that_is_no_whole_number_of_steps(tmp_path, t_end, nearest):
    path = tmp_path / "bad.ini"
    path.write_text(f"[time]\ndt = 1e-3\nt_end = {t_end}\n", encoding="utf-8")
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert len(exc.value.errors) == 1
    assert "not a whole number of steps" in exc.value.errors[0]
    assert nearest in exc.value.errors[0]
    path.write_text("[time]\ndt = 1e-4\nt_end = 5e-3\n", encoding="utf-8")
    assert load_config(path).n_steps == 50


def assert_one_error_and_no_output(path, name, out, capsys) -> str:
    """load_config and `chbsim run` report `path` in one error naming `name`,
    and the run leaves no output directory behind; returns the error."""
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert len(exc.value.errors) == 1 and name in exc.value.errors[0]
    assert cli.main(["run", str(path)]) == 1
    assert capsys.readouterr().err == f"chbsim: {exc.value}\n"
    assert not out.exists()
    return exc.value.errors[0]


@pytest.mark.parametrize("line, name", [
    ("stabilization_s = -1", "stabilization"),
    ("stabilization_s = nan", "stabilization"),
    ("phase_tol = 1e-12", "unknown key 'phase_tol' in section [solver]"),
    ("dt = nan", "dt"),
    ("t_end = nan", "t_end"),
    ("t_end = inf", "t_end"),
    ("lx = inf", "lx"),
    ("nu = inf", "nu"),
    ("sigma_inf = 1 nan 1 1", "sigma_inf"),
    ("viscosity = inf", "viscosity"),
    ("gamma0 = inf", "gamma0"),
    ("t_end = 1.7e308", "overflows the step count"),       # 1.7e311 steps of dt = 1e-3
    ("t_end = 2.5e-3", "not a whole number of steps"),
    ("directory = runs #2", "inline comment"),
])
def test_config_rejects_bad_step_and_solver_settings_before_any_output(
        tmp_path, monkeypatch, capsys, line, name):
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path / "out"))
    key = line.split()[0]
    kept = [row for row in SMALL_RUN.splitlines() if not row.startswith(key + " ")]
    # a key no section holds (a removed solver setting) goes to [solver]
    section = next((f"[{s}]" for s, attrs in _SECTIONS.items()
                    if key in (a.lower() for a in attrs)), "[solver]")
    kept.insert(kept.index(section) + 1, line)
    path = write_small_config(tmp_path, text="\n".join(kept) + "\n")
    assert_one_error_and_no_output(path, name, tmp_path / "out", capsys)


@pytest.mark.parametrize("text, where", [
    ("[time]\ndt = 1e-3\ndt = 2e-3\n", "[line 3]"),       # repeated key
    ("[domain]\nnx = 8\n\n[domain]\nny = 8\n", "[line 4]"),  # repeated section
    ("nx = 8\n[domain]\n", "line: 1"),                   # key before any section
    ("[output]\ndirectory = runs\udcff\n", "not UTF-8"),    # the byte 0xff
], ids=["repeated key", "repeated section", "no section header", "not UTF-8"])
def test_config_reports_malformed_files_in_one_line(
        tmp_path, monkeypatch, capsys, text, where):
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path / "out"))
    path = tmp_path / "run.ini"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    error = assert_one_error_and_no_output(path, where, tmp_path / "out", capsys)
    assert str(path) in error and "\n" not in error


def test_non_finite_initial_fields_are_rejected_before_any_output(
        tmp_path, monkeypatch, capsys):
    # the parser cannot see this: 1e308 times a sum of two cosines overflows
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path / "out"))
    text = SMALL_RUN.replace("phi0_amplitude = 0.2", "phi0_amplitude = 1e308")
    cfg = load_config(write_small_config(tmp_path, text=text))
    with pytest.raises(ConfigError, match="non-finite"):
        run_from_config(cfg)
    assert not (tmp_path / "out").exists()
    for argv in (["run", str(tmp_path / "run.ini")],
                 ["galerkin", str(tmp_path / "run.ini"), "--k", "1,4"]):
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == ("chbsim: invalid configuration:\n"
                                           "  initial fields contain non-finite values\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("directory", ["runs #2", "runs ;2", "#runs", " runs", "runs ",
                                       "runs\n2", "runs\r2"])
def test_directory_names_a_config_file_cannot_carry_are_refused(
        tmp_path, monkeypatch, directory):
    # a blank before '#' or ';' starts a comment, the parser strips blanks
    # at either end and a line break ends the value: none would load back
    cfg = RunConfig(directory=directory)
    with pytest.raises(ConfigError) as exc:
        save_config(cfg, tmp_path / "dir.ini")
    assert len(exc.value.errors) == 1 and exc.value.errors[0].startswith("[output] directory")
    assert not (tmp_path / "dir.ini").exists()
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path / "out"))
    with pytest.raises(ConfigError):
        run_from_config(cfg)
    assert not (tmp_path / "out").exists()


def test_run_from_config_checks_a_config_built_in_code(tmp_path, monkeypatch):
    # 2.5 steps: load_config refuses it, and so must a run of the same
    # config built in code, before any output exists (it used to make 2
    # steps and write a config.ini that load_config refuses)
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path / "out"))
    with pytest.raises(ConfigError, match="not a whole number of steps") as exc:
        run_from_config(RunConfig(nx=8, ny=8, dt=1e-3, t_end=2.5e-3))
    assert len(exc.value.errors) == 1
    assert not (tmp_path / "out").exists()
    # every scenario config passes the same check, the benchmark's
    # hetero_io run (its radius drawn within 0.25 +- 0.001) included
    hetero = RunConfig(
        nx=64, ny=64, dt=1e-4, t_end=5e-4, snapshot_every=1, epsilon=0.1,
        chi_sigma=1.0, chi_phi=0.5, nu=10.0, b=1.0, mobility=(1e-3, 5e-3),
        nutrient_mobility=(0.05, 0.05), viscosity=(1.0, 100.0),
        bulk_viscosity=(0.0, 0.5), source="lima", source_P=0.05, source_A=0.01,
        source_C=0.025, c_gamma_v=0.05, phi0="tanh_disc", phi0_radius=0.2505,
        sigma0="cosine", sigma0_value=1.0, sigma0_amplitude=0.05,
        formats=("csv", "vtk"), directory="run")
    for cfg in (verify.DECAY, verify.DISC, verify.COUPLED, verify.GALERKIN, hetero):
        assert _semantic_errors(cfg) == []

def test_save_load_round_trip(tmp_path):
    cfg = RunConfig(lx=2.0, nx=16, ny=8, dt=5e-4, t_end=1e-3,
                    chi_phi=0.25, b=0.5, sigma_inf=(1.0, 0.5, 1.0, 0.5),
                    potential="quadratic_growth", delta_cap=0.3,
                    mobility=(1e-3, 2e-3), source="hawkins_positive",
                    source_p0=0.4, c_gamma_v=0.2, gamma0=0.7,
                    phi0="tanh_disc", phi0_radius=0.3,
                    sigma0="cosine", sigma0_amplitude=0.1,
                    formats=("csv", "vtk"))
    path = tmp_path / "round.ini"
    save_config(cfg, path)
    assert load_config(path) == cfg


# ---------------------------------------------------------------------------
# config properties
# ---------------------------------------------------------------------------

FIELDS = {f.name: f for f in fields(RunConfig)}
FLOATS = st.floats(allow_nan=False, allow_infinity=False)
MODES = st.lists(st.tuples(st.integers(-99, 99), st.integers(-99, 99)),
                 max_size=3).map(tuple)
# a value of each field that save_config can write; directory names keep to
# characters the INI format carries unchanged (it strips blanks around a
# value and cuts it at a " #" or " ;" inline comment)
FIELD_VALUES = {
    "float": st.one_of(FLOATS, st.floats(0.01, 10.0)),
    "int": st.integers(0, 2 ** 40),
    "bool": st.booleans(),
    "potential": st.sampled_from(_CHOICES["potential"]),
    "source": st.sampled_from(_CHOICES["source"]),
    "phi0": st.sampled_from(_CHOICES["phi0"]),
    "sigma0": st.sampled_from(_CHOICES["sigma0"]),
    "directory": st.from_regex(r"[A-Za-z0-9_./-]{1,12}", fullmatch=True),
    "sigma_inf": st.tuples(FLOATS, FLOATS, FLOATS, FLOATS),
    "mobility": st.tuples(FLOATS, FLOATS),
    "nutrient_mobility": st.tuples(FLOATS, FLOATS),
    "viscosity": st.tuples(FLOATS, FLOATS),
    "bulk_viscosity": st.tuples(FLOATS, FLOATS),
    "gamma0": st.none() | FLOATS,
    "phi0_center": st.tuples(FLOATS, FLOATS),
    "phi0_modes": MODES,
    "sigma0_modes": MODES,
    "formats": st.lists(st.sampled_from(("csv", "vtk")), min_size=1,
                        max_size=3).map(tuple),
}
CHANGES = st.lists(st.sampled_from(sorted(FIELDS)).flatmap(
    lambda name: st.tuples(st.just(name), FIELD_VALUES[
        name if name in FIELD_VALUES else FIELDS[name].type])),
    max_size=4).map(dict)
KEYS = [(section, attr.lower()) for section, attrs in _SECTIONS.items()
        for attr in attrs]
NUMBER = st.one_of(st.floats().map(repr), st.integers().map(str),
                   st.sampled_from(["inf", "-inf", "nan", "1e400", "-1e400"]))
TEXT = st.one_of(st.text(), NUMBER, st.lists(NUMBER, min_size=1, max_size=4)
                 .map(" ".join))
PROPERTY = settings(max_examples=200, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


def load_one(tmp_path, section, key, text):
    """The config of a file setting one key, or None if load_config rejects it."""
    path = tmp_path / "one.ini"
    path.write_text(f"[{section}]\n{key} = {text}\n", encoding="utf-8")
    try:
        return load_config(path)
    except ConfigError:
        return None


def test_every_field_has_one_lower_case_key_in_one_section(tmp_path):
    path = tmp_path / "full.ini"
    save_config(RunConfig(), path)
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str                    # keep the keys as written
    parser.read(path, encoding="utf-8")
    keys = [key for section in parser.sections() for key in parser[section]]
    assert sorted(keys) == sorted(name.lower() for name in FIELDS)


@PROPERTY
@given(changes=CHANGES)
def test_saved_configs_load_back_unchanged(tmp_path, changes):
    cfg = replace(RunConfig(), **changes)
    path = tmp_path / "saved.ini"
    save_config(cfg, path)
    errors = _semantic_errors(cfg)
    if errors:
        with pytest.raises(ConfigError) as exc:
            load_config(path)
        assert exc.value.errors == errors
    else:
        assert load_config(path) == cfg


def cap_message(delta_cap):
    return [f"delta_cap={delta_cap!r} puts the cap 1 + delta_cap outside [1, 8.188e+76]: "
            "below 1 the wells at +-1 leave the quartic, above it psi overflows"]


@pytest.mark.parametrize("delta_cap", [1.158e77, -1.158e77])
def test_a_cap_beyond_the_float_range_is_refused(tmp_path, delta_cap):
    # hypothesis once drew 1.158e77: psi's quartic at the cap overflowed
    # inside the check, instead of the check refusing the config; -1.158e77
    # is a cap below 1 as well
    cfg = RunConfig(potential="quadratic_growth", delta_cap=delta_cap)
    path = tmp_path / "saved.ini"
    save_config(cfg, path)
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert exc.value.errors == cap_message(delta_cap)


@pytest.mark.parametrize("delta_cap", [-2.0, -1.0, -0.5, 0.0])
def test_a_cap_below_the_wells_is_refused(tmp_path, delta_cap):
    # a cap below 1 puts the wells at +-1 outside the quartic region; at
    # delta_cap = -2.0 psi(-0.5, 0, 0.5) read (2.25, 1, 2.25), no double well
    cfg = RunConfig(potential="quadratic_growth", delta_cap=delta_cap)
    path = tmp_path / "saved.ini"
    save_config(cfg, path)
    if delta_cap < 0.0:
        with pytest.raises(ConfigError) as exc:
            load_config(path)
        assert exc.value.errors == cap_message(delta_cap)
    else:
        assert load_config(path) == cfg


DIRECTORIES = st.one_of(st.text(st.sampled_from("ab/._-#; \t\n\r"), max_size=8),
                        st.text(max_size=8))


@PROPERTY
@given(directory=DIRECTORIES)
def test_a_saved_directory_loads_back_unchanged_or_is_refused(tmp_path, directory):
    path = tmp_path / "dir.ini"
    path.unlink(missing_ok=True)
    try:
        save_config(RunConfig(directory=directory), path)
    except ConfigError:
        assert not path.exists()
        assert directory != directory.strip() or any(c in directory for c in "#;\n\r")
    else:
        assert load_config(path).directory == directory


@PROPERTY
@given(key=st.sampled_from(KEYS), text=TEXT)
def test_any_value_gives_a_config_or_a_config_error(tmp_path, key, text):
    cfg = load_one(tmp_path, *key, text)
    assert cfg is None or isinstance(cfg, RunConfig)


def floats_in(value):
    if isinstance(value, tuple):
        for item in value:
            yield from floats_in(item)
    elif isinstance(value, float):
        yield value


@PROPERTY
@given(key=st.sampled_from(KEYS), text=TEXT)
def test_loaded_configs_hold_only_finite_floats(tmp_path, key, text):
    cfg = load_one(tmp_path, *key, text)
    if cfg is not None:
        values = [getattr(cfg, name) for name in FIELDS]
        assert all(math.isfinite(v) for v in floats_in(tuple(values)))


def test_initial_field_presets():
    cfg = RunConfig(nx=16, ny=16, phi0="tanh_disc", phi0_radius=0.25,
                    sigma0="uniform", sigma0_value=0.5)
    phi, sigma = cfg.initial_fields()
    assert phi[8, 8] > 0.85         # inside the disc
    assert phi[0, 0] < -0.9         # far outside
    np.testing.assert_allclose(sigma, 0.5)
    cfg = RunConfig(nx=16, ny=16, phi0="cosine_perturbation",
                    phi0_value=0.1, phi0_amplitude=0.05)
    phi, _ = cfg.initial_fields()
    assert phi.max() <= 0.2 and abs(phi.mean() - 0.1) < 1e-12


# ---------------------------------------------------------------------------
# snapshots
# ---------------------------------------------------------------------------

def run_two_steps():
    cfg = RunConfig(nx=8, ny=8, dt=1e-3, t_end=2e-3, b=1.0,
                    mobility=(1e-3, 1e-3), nutrient_mobility=(0.05, 0.05),
                    phi0="cosine_perturbation", phi0_amplitude=0.2)
    state0 = cfg.initial_state()
    return cfg, run(state0, 2, cfg.sim_spec())


def test_snapshot_csv_round_trip_is_bit_exact(tmp_path):
    cfg, result = run_two_steps()
    state = result.final_state
    grid = cfg.grid()
    path = tmp_path / "snap.csv"
    header = write_snapshot(state, grid, path, fmt="csv")
    header2, arrays = read_snapshot(path)
    assert header2 == header
    assert header2.time == state.t and (header2.nx, header2.ny) == (8, 8)
    assert np.array_equal(arrays["phi"], state.phi)
    assert np.array_equal(arrays["mu"], state.mu)
    assert np.array_equal(arrays["sigma"], state.sigma)
    assert np.array_equal(arrays["p"], state.p)


def test_snapshot_rejects_unknown_format_and_bad_file(tmp_path):
    cfg, result = run_two_steps()
    with pytest.raises(ValueError):
        write_snapshot(result.final_state, cfg.grid(), tmp_path / "x.bin",
                       fmt="hdf5")
    bad = tmp_path / "not_a_snapshot.csv"
    bad.write_text("x,y\n1,2\n", encoding="utf-8")
    with pytest.raises(ValueError):
        read_snapshot(bad)


def small_snapshot_lines(tmp_path):
    """A 4x4 CSV snapshot with distinct values; returns its path and lines."""
    grid = make_grid(1.0, 1.0, 4, 4)
    x, y = grid.cell_centers()
    state = State(t=0.5, phi=x + 10.0 * y, mu=x * y, sigma=1.0 + x, p=y,
                  v=FaceField.zeros(grid))
    path = tmp_path / "snap.csv"
    write_snapshot(state, grid, path, fmt="csv")
    return path, path.read_text(encoding="utf-8").splitlines()


def test_snapshot_reader_rejects_a_truncated_file(tmp_path):
    path, lines = small_snapshot_lines(tmp_path)
    path.write_text("\n".join(lines[:-3]) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match="3 of 16 cells missing"):
        read_snapshot(path)
    cut = lines[-1].rsplit(",", 2)[0]          # last row loses two values
    path.write_text("\n".join(lines[:-1] + [cut]) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match="has 4 values for 6 fields"):
        read_snapshot(path)


HEADER = ["# chbsim-snapshot 1", "# t = 0.5", "# grid = 1.0 1.0 4 4", "# fields = phi"]


@pytest.mark.parametrize("header", [
    HEADER[:1],                                  # stops after the version line
    HEADER[:2],                                  # ... after the time
    HEADER[:3],                                  # ... after the grid
    [HEADER[0], HEADER[1], "# grid 1.0 1.0 4 4", HEADER[3]],  # a line without "="
    [HEADER[0], "# t = soon", *HEADER[2:]],      # a value that is no number
    [*HEADER[:2], "# grid = 1.0 1.0 4", HEADER[3]],           # three grid entries
    [*HEADER[:2], "# grid = 1.0 1.0 -1 4", HEADER[3]],        # no cells
    ["# chbsim-snapshot one", *HEADER[1:]],      # a version that is no number
    ["# chbsim-snapshot 2", *HEADER[1:]],        # a version this reader does not read
    [HEADER[0], "# energy = 3.0", *HEADER[2:]],  # another key where t belongs
    [*HEADER, "not,a,header"],                   # a column line other than the fields'
    # each below has the column line its fields ask for
    [*HEADER[:3], "# fields = phi phi", "i,j,x,y,phi,phi"],   # a field named twice
    [HEADER[0], "# t = nan", *HEADER[2:], "i,j,x,y,phi"],     # a time that is no number
    [HEADER[0], "# t = inf", *HEADER[2:], "i,j,x,y,phi"],     # ... or not finite
    [*HEADER[:2], "# grid = inf 1.0 4 4", HEADER[3], "i,j,x,y,phi"],  # a length not finite
    [*HEADER[:2], "# grid = 1.0 nan 4 4", HEADER[3], "i,j,x,y,phi"],  # ... or no number
    [*HEADER[:2], "# grid = 1.0 0.0 4 4", HEADER[3], "i,j,x,y,phi"],  # ... or not positive
    [*HEADER[:2], "# grid = -1.0 1.0 4 4", HEADER[3], "i,j,x,y,phi"],
])
def test_snapshot_reader_rejects_a_malformed_header(tmp_path, header):
    # each used to escape as an IndexError or a ValueError without the path
    path = tmp_path / "snap.csv"
    path.write_text("\n".join(header) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{path}: malformed snapshot header")):
        read_snapshot(path)


@pytest.mark.parametrize("index, match", [("-1", "outside the 4x4 grid"),
                                          ("4", "outside the 4x4 grid"),
                                          ("0", "appears twice"),
                                          ("a", "invalid literal for int")])
def test_snapshot_reader_rejects_bad_cell_indices(tmp_path, index, match):
    # the last row, cell (3, 3), relabelled: -1 used to overwrite row 3
    # in place, 0 overwrote cell (0, 3) and left (3, 3) unread, and a
    # raised a ValueError without the path
    path, lines = small_snapshot_lines(tmp_path)
    last = ",".join([index] + lines[-1].split(",")[1:])
    path.write_text("\n".join(lines[:-1] + [last]) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{path}: line {len(lines)}: ") + ".*" + match):
        read_snapshot(path)


def test_snapshot_reader_names_the_file_of_a_value_that_is_no_number(tmp_path):
    path, lines = small_snapshot_lines(tmp_path)
    last = ",".join(lines[-1].split(",")[:4] + ["abc"] + lines[-1].split(",")[5:])
    path.write_text("\n".join(lines[:-1] + [last]) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(
            f"{path}: line {len(lines)}: could not convert string to float: 'abc'")):
        read_snapshot(path)


def test_snapshot_vtk_layout(tmp_path):
    cfg, result = run_two_steps()
    grid = cfg.grid()
    path = tmp_path / "snap.vtk"
    write_snapshot(result.final_state, grid, path, fmt="vtk")
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "# vtk DataFile Version 3.0"
    assert lines[2] == "ASCII"
    assert lines[3] == "DATASET STRUCTURED_POINTS"
    assert lines[4] == f"DIMENSIONS {grid.nx + 1} {grid.ny + 1} 1"
    assert lines[7] == f"CELL_DATA {grid.nx * grid.ny}"
    assert lines.count("LOOKUP_TABLE default") == 6  # one block per field
    k = lines.index("SCALARS phi double 1")
    vals = lines[k + 2:k + 2 + grid.nx * grid.ny]
    # x varies fastest in VTK cell order
    assert float(vals[1]) == result.final_state.phi[1, 0]


def fixed_snapshot_state():
    """A 7x5 state built with exactly rounded arithmetic only (no libm), with
    a signed zero, a subnormal-range and a huge value among the entries."""
    grid = make_grid(1.0, 0.7, 7, 5)

    def field(k, shape):
        return ((np.arange(np.prod(shape)).reshape(shape) * 7919 + k) % 1013 - 506) / 37.0

    phi = field(1, grid.shape)
    phi[0, 0], phi[1, 0], phi[2, 0] = -0.0, 1e-300, 1e300
    state = State(t=0.1 + 0.2, phi=phi, mu=field(2, grid.shape) * 1e-7,
                  sigma=field(3, grid.shape) + 0.1, p=field(4, grid.shape) * 3.0,
                  v=FaceField(field(5, (8, 5)), field(6, (7, 6))))
    return grid, state


# SHA-256 of the files the element-by-element writers produced for this state
SNAPSHOT_SHA256 = {
    "csv": "3cfbabaf418c096f2801c318159fd68b1cf40bf0a5e412a93c807acb09308130",
    "vtk": "e6f616fd77fb9706213e68e0f0aa1bea8e5f2591cc1b2933bc6b720a10b5163d",
}


@pytest.mark.parametrize("fmt", ["csv", "vtk"])
def test_snapshot_bytes_are_unchanged(fmt, tmp_path):
    grid, state = fixed_snapshot_state()
    path = tmp_path / f"snap.{fmt}"
    write_snapshot(state, grid, path, fmt=fmt)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SNAPSHOT_SHA256[fmt]


# layout edges of repr: the fixed/exponent switch at 1e-04 and 1e+16,
# integers that take ".0", the subnormal and normal extremes, the signed zero
# and values whose shortest form has 16 (1/3, 2/3) and 17 (0.1 + 0.2) digits
EDGE_VALUES = [1e-05, 0.0001, 9999999999999998.0, 1e+16, 1000000000000000.0, 100.0,
               2.0 ** 53, 2.0 ** 53 + 2, 1e+22, -0.0, 5e-324, 1e-323,
               2.2250738585072014e-308, 1.7976931348623157e+308, 1 / 3, 0.1 + 0.2,
               2 / 3, 1.5e-323, 123456789012345678.0, 0.001]


def edge_snapshot_state():
    """A 5x4 state of EDGE_VALUES, built with exactly rounded arithmetic only."""
    grid = make_grid(1.0, 0.8, 5, 4)
    vals = np.array(EDGE_VALUES).reshape(grid.shape)
    small = np.array(EDGE_VALUES[:6] + EDGE_VALUES[9:12] + EDGE_VALUES[14:18])
    state = State(t=1 / 3, phi=vals, mu=-vals, sigma=vals[::-1, ::-1].copy(), p=vals * 0.5,
                  v=FaceField(np.resize(small, (6, 4)), -np.resize(small[::-1], (5, 5))))
    return grid, state


# SHA-256 of the files the per-value `repr` writer produced for this state
EDGE_SNAPSHOT_SHA256 = {
    "csv": "e41ac5a10eab768c2ca03b2f05807dfc49cf8030849917eb3e3ef2dbb277779d",
    "vtk": "13c6a8415f7164a8765b3d42535fd901eeabd27f4f56a88afc1fa78acaa9ceab",
}


@pytest.mark.parametrize("fmt", ["csv", "vtk"])
def test_edge_value_snapshot_bytes_are_unchanged(fmt, tmp_path):
    grid, state = edge_snapshot_state()
    path = tmp_path / f"snap.{fmt}"
    write_snapshot(state, grid, path, fmt=fmt)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == EDGE_SNAPSHOT_SHA256[fmt]


def test_repr_texts_of_the_layout_edges():
    values = np.array(EDGE_VALUES + [-v for v in EDGE_VALUES]
                      + [0.0, math.inf, -math.inf, math.nan, 4.9406564584124654e-322])
    assert repr_texts(values) == [repr(v) for v in values.tolist()]
    assert repr_texts(values[:0]) == []
    assert repr_texts(values.reshape(5, -1)) == [repr(v) for v in values.tolist()]
    # the subnormals c = 10, 12, ..., 20 (exponent field 0), written as a
    # kernel that tried one digit fewer only from s >= 100 wrote them;
    # `repr` has "5e-323" ... "1e-322"
    small = np.array([4.9e-323, 5.9e-323, 6.9e-323, 7.9e-323, 8.9e-323, 9.9e-323])
    small = np.concatenate([small, -small])
    assert repr_texts(small) == [repr(v) for v in small.tolist()]


@settings(max_examples=60, deadline=None)
@given(bits=st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=300))
def test_repr_texts_equal_repr_on_any_bit_pattern(bits):
    # raw 64-bit patterns: every exponent, subnormals, infinities and NaNs
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    assert repr_texts(values) == [repr(v) for v in values.tolist()]


@pytest.mark.parametrize("shrink", ["phi", "u", "text"])
def test_a_snapshot_that_does_not_fit_its_grid_is_refused_before_the_file(tmp_path, shrink):
    # a 4x4 state on an 8x8 grid used to give a CSV of 16 mislabelled rows
    # that read_snapshot refused and a VTK of 16 values for CELL_DATA 64
    grid = make_grid(1.0, 1.0, 8, 8)
    small = make_grid(1.0, 1.0, 4, 4)
    state = State(0.0, *np.ones((4,) + grid.shape), FaceField.zeros(grid))
    text = None
    if shrink == "phi":
        state = replace(state, phi=np.ones(small.shape))
    elif shrink == "u":
        state = replace(state, v=FaceField(np.zeros((8, 8)), state.v.w))
    else:
        text = _snapshot_text(State(0.0, *np.ones((4,) + small.shape), FaceField.zeros(small)))
    path = tmp_path / "snap.csv"
    with pytest.raises(ValueError, match="does not fit the 8x8 grid"):
        write_snapshot(state, grid, path, "csv", text)
    assert not path.exists()


def test_both_formats_from_one_shared_table_keep_their_bytes(tmp_path):
    # as run_from_config writes them: each value formatted once, in (i, j)
    # order, and read by both writers; the 7x5 grid shows any C/F order slip
    grid, state = fixed_snapshot_state()
    text = _snapshot_text(state)
    for fmt in ("csv", "vtk"):
        path = tmp_path / f"snap.{fmt}"
        write_snapshot(state, grid, path, fmt, text)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == SNAPSHOT_SHA256[fmt], fmt


def test_run_snapshots_equal_files_written_one_at_a_time(tmp_path, monkeypatch):
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path / "out"))
    cfg = replace(load_config(write_small_config(tmp_path)), formats=("csv", "vtk"))
    result, outdir = run_from_config(cfg)
    alone = tmp_path / "alone"
    alone.mkdir()
    for step, state in enumerate(result.states):         # snapshot_every = 1
        for fmt in cfg.formats:
            write_snapshot(state, cfg.grid(), alone / f"snap_{step:06d}.{fmt}", fmt)
    names = sorted(p.name for p in alone.iterdir())
    assert len(names) == 6
    assert sorted(p.name for p in outdir.glob("snap_*")) == names
    for name in names:
        assert (outdir / name).read_bytes() == (alone / name).read_bytes(), name


def test_csv_row_prefixes_are_built_once_per_grid(tmp_path):
    grid = make_grid(1.0, 0.5, 6, 4)
    state = State(0.0, *np.zeros((4,) + grid.shape), FaceField.zeros(grid))
    _csv_prefixes.cache_clear()
    for k in range(3):
        write_snapshot(replace(state, t=0.1 * k), make_grid(1.0, 0.5, 6, 4),
                       tmp_path / f"snap_{k}.csv")
    assert _csv_prefixes.cache_info().misses == 1
    assert len(_csv_prefixes(grid)) == grid.nx * grid.ny


# finite values, with the signed zero, subnormals and the far ends of the range
VALUES = st.one_of(st.floats(-1e300, 1e300),
                   st.sampled_from([-0.0, 5e-324, -2.5e-310, 1e-300, -1e-300,
                                    1e300, -1e300]))


@st.composite
def snapshot_states(draw):
    nx, ny = draw(st.integers(2, 9)), draw(st.integers(2, 9))
    field = lambda shape: draw(arrays(np.float64, shape, elements=VALUES))
    state = State(t=draw(st.floats(0.0, 1e3)), phi=field((nx, ny)), mu=field((nx, ny)),
                  sigma=field((nx, ny)), p=field((nx, ny)),
                  v=FaceField(field((nx + 1, ny)), field((nx, ny + 1))))
    return Grid(1.0, 1.0, nx, ny), state        # below make_grid's 4-cell floor


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(drawn=snapshot_states())
def test_snapshot_files_read_back_bit_exactly(tmp_path, drawn):
    grid, state = drawn
    vx, vy = face_to_center(state.v)
    want = dict(zip(SNAPSHOT_FIELDS, (state.phi, state.mu, state.sigma, state.p, vx, vy)))
    text = _snapshot_text(state)
    write_snapshot(state, grid, tmp_path / "snap.csv", "csv", text)
    write_snapshot(state, grid, tmp_path / "snap.vtk", "vtk", text)
    header, back = read_snapshot(tmp_path / "snap.csv")
    assert header.time == state.t
    for name in SNAPSHOT_FIELDS:      # bytes, so -0.0 must come back as -0.0
        assert back[name].tobytes() == want[name].tobytes(), name
    lines = (tmp_path / "snap.vtk").read_text(encoding="utf-8").splitlines()
    n = grid.nx * grid.ny
    assert len(lines) == 8 + len(SNAPSHOT_FIELDS) * (2 + n)
    for name in SNAPSHOT_FIELDS:
        k = lines.index(f"SCALARS {name} double 1")
        assert lines[k + 1] == "LOOKUP_TABLE default"
        # VTK cell order: x varies fastest
        block = np.array([float(v) for v in lines[k + 2:k + 2 + n]])
        assert block.reshape(grid.ny, grid.nx).T.tobytes() == want[name].tobytes(), name


# ---------------------------------------------------------------------------
# timeseries
# ---------------------------------------------------------------------------

def test_timeseries_header_only_when_empty(tmp_path):
    path = tmp_path / "ts.csv"
    write_timeseries([], path)
    text = path.read_text(encoding="utf-8")
    assert text == ",".join(COLUMNS) + "\n"
    assert read_timeseries(path) == []


def test_timeseries_round_trip(tmp_path):
    _, result = run_two_steps()
    path = tmp_path / "ts.csv"
    write_timeseries(result.rows, path)
    back = read_timeseries(path)
    assert len(back) == 3  # initial level plus two steps
    for row, orig in zip(back, result.rows):
        assert list(row) == list(orig) == list(COLUMNS)
        for name, kind in COLUMNS.items():
            assert row[name] == orig[name], name
            assert type(row[name]) is type(orig[name]) is kind, name


def test_flow_on_timeseries_rederives_its_budget_residual(tmp_path, monkeypatch):
    # every term of the step energy identity is a column: the file alone, with
    # the config's dt and the previous row's energy, closes each step's
    # budget_residual bit for bit
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path / "out"))
    text = SMALL_RUN.replace("flow = off", "flow = on")
    _, outdir = run_from_config(load_config(write_small_config(tmp_path, text=text)))
    dt = load_config(outdir / "config.ini").dt
    rows = read_timeseries(outdir / "timeseries.csv")
    assert len(rows) == 3
    for prev, row in zip(rows, rows[1:]):
        # constant viscosities: the flow solve starts exact and takes no iteration
        assert row["conv_work"] != 0.0 and row["flow_iters"] == 0
        assert row["budget_residual"] == (
            (row["energy"] - prev["energy"]) / dt + row["diss_mu"] + row["diss_nsigma"]
            + row["diss_visc"] + row["bnd_sigma_sq"] - row["src_phi_mu"]
            - row["src_sigma_n"] - row["bnd_income"] - row["conv_work"])


@pytest.mark.parametrize("text, match", [
    ("", "columns"),
    ("t,energy,cg_iters_total\n0.0,1.0,0\n", "columns"),
    (",".join(COLUMNS) + "\n0.0,1.0\n", "cells"),
    pytest.param(",".join(COLUMNS) + "\n" + ",".join(["soon"] + ["0"] * (len(COLUMNS) - 1)),
                 "could not convert string to float: 'soon'", id="a cell that is no number"),
])
def test_timeseries_of_another_layout_is_rejected(tmp_path, text, match):
    path = tmp_path / "ts.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{path}: ") + ".*" + match):
        read_timeseries(path)


# ---------------------------------------------------------------------------
# output directories
# ---------------------------------------------------------------------------

def test_output_root_redirects_relative_paths(tmp_path, monkeypatch):
    from pathlib import Path

    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path / "root"))
    assert resolve_output_dir("demo") == tmp_path / "root" / "demo"
    absolute = tmp_path / "elsewhere"
    assert resolve_output_dir(absolute) == absolute
    monkeypatch.delenv(OUTPUT_ROOT_ENV)
    assert resolve_output_dir("demo") == Path("demo")


def test_output_lock_is_exclusive(tmp_path):
    with OutputLock(tmp_path):
        # the sentinel names its run, and the refusal quotes it
        owner = (tmp_path / "run.lock").read_text(encoding="utf-8").strip()
        pid, host, started = re.fullmatch(r"pid (\d+) on (\S+), started (.+)", owner).groups()
        assert int(pid) == os.getpid()
        assert host == socket.gethostname()
        datetime.strptime(started, "%Y-%m-%d %H:%M:%S %z")
        with pytest.raises(RuntimeError, match=re.escape(f"locked by another run ({owner};")):
            with OutputLock(tmp_path):
                pass
    assert not (tmp_path / "run.lock").exists()
    # a fresh lock works again after release
    with OutputLock(tmp_path):
        pass


def reaped_pid():
    """The pid of a child process that has exited and been reaped."""
    child = subprocess.run([sys.executable, "-c", "import os; print(os.getpid())"],
                           capture_output=True, text=True, check=True, timeout=60)
    return int(child.stdout)


LIVE_OWNER = f"pid {os.getpid()} on {socket.gethostname()}, started 2026-01-01 00:00:00 +0000"
# above any pid_max, so no such process; its host is not this one
REMOTE_OWNER = f"pid 999999999 on other.{socket.gethostname()}, started 2026-01-01 00:00:00 +0000"


@pytest.mark.parametrize("held, quoted", [
    ("pid 4242, started 2026-01-01 00:00:00 +0000\n",   # no host: cannot be checked
     "pid 4242, started 2026-01-01 00:00:00 +0000"),
    ("", "owner not recorded"),                 # a sentinel that holds no owner
    pytest.param(LIVE_OWNER + "\n", LIVE_OWNER, id="live-pid-on-this-host"),
    pytest.param(REMOTE_OWNER + "\n", REMOTE_OWNER, id="pid-of-another-host"),
])
def test_a_run_into_a_locked_directory_is_refused(tmp_path, monkeypatch, held, quoted):
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    cfg = load_config(write_small_config(tmp_path))
    outdir = tmp_path / cfg.directory
    outdir.mkdir()
    (outdir / "run.lock").write_text(held, encoding="utf-8")
    with pytest.raises(RuntimeError, match=re.escape(f"locked by another run ({quoted};")):
        run_from_config(cfg)
    # nothing written, and the other run's lock is left in place
    assert [p.name for p in outdir.iterdir()] == ["run.lock"]
    assert (outdir / "run.lock").read_text(encoding="utf-8") == held


def test_a_dead_runs_lock_on_this_host_is_taken_over(tmp_path, monkeypatch):
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    cfg = load_config(write_small_config(tmp_path))
    outdir = tmp_path / cfg.directory
    outdir.mkdir()
    held = f"pid {reaped_pid()} on {socket.gethostname()}, started 2026-01-01 00:00:00 +0000\n"
    # a sentinel that a live run wrote after the dead one's was read is put back
    (outdir / "run.lock").write_text(LIVE_OWNER + "\n", encoding="utf-8")
    assert not OutputLock(outdir)._clear_dead(held.strip())
    assert [p.name for p in outdir.iterdir()] == ["run.lock"]
    assert (outdir / "run.lock").read_text(encoding="utf-8") == LIVE_OWNER + "\n"
    (outdir / "run.lock").write_text(held, encoding="utf-8")
    result, _ = run_from_config(cfg)
    assert len(result.rows) == 3
    assert sorted(p.name for p in outdir.iterdir()) == sorted(
        ["config.ini", "timeseries.csv", "snap_000000.csv", "snap_000001.csv",
         "snap_000002.csv"])   # the dead run's sentinel is gone, and no copy of it


def test_run_from_config_layout_and_rerun_identity(tmp_path, monkeypatch):
    cfg = load_config(write_small_config(tmp_path))
    names = ("config.ini", "timeseries.csv", "snap_000000.csv",
             "snap_000001.csv", "snap_000002.csv")
    outputs = {}
    for sub in ("first", "second"):
        monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path / sub))
        result, outdir = run_from_config(cfg)
        assert outdir == tmp_path / sub / "demo"
        assert len(result.rows) == 3
        assert sorted(p.name for p in outdir.iterdir()) == sorted(names)
        outputs[sub] = {n: (outdir / n).read_bytes() for n in names}
    for name in names:
        assert outputs["first"][name] == outputs["second"][name], name


# ---------------------------------------------------------------------------
# CLI contract
# ---------------------------------------------------------------------------

def test_cli_requires_a_subcommand(capsys):
    assert cli.main([]) == 2
    err = capsys.readouterr().err
    assert "usage" in err


def test_cli_run_missing_config_exits_2(capsys):
    assert cli.main(["run", "/nonexistent/chbsim.ini"]) == 2
    err = capsys.readouterr().err
    assert "usage" in err and "not found" in err


def test_cli_run_completes_a_small_simulation(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path / "out"))
    path = write_small_config(tmp_path)
    assert cli.main(["run", str(path)]) == 0
    out = capsys.readouterr().out
    assert "completed 2 steps" in out
    assert (tmp_path / "out" / "demo" / "timeseries.csv").exists()


def test_cli_run_that_stalls_keeps_the_initial_outputs(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path / "out"))
    monkeypatch.setattr(elliptic, "MAX_ITERS", 0)
    # variable mobility: the phase start is inexact, and no iteration is allowed
    text = SMALL_RUN.replace("mobility = 1e-3", "mobility = 1e-3 2e-3")
    assert cli.main(["run", str(write_small_config(tmp_path, text=text))]) == 1
    err = capsys.readouterr().err
    assert err.startswith("run aborted: ") and "solve stalled at t=0" in err
    outdir = tmp_path / "out" / "demo"
    assert sorted(p.name for p in outdir.iterdir()) == [
        "config.ini", "snap_000000.csv", "timeseries.csv"]
    rows = read_timeseries(outdir / "timeseries.csv")
    assert len(rows) == 1 and rows[0]["t"] == 0.0


def test_cli_run_reports_config_errors(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text("[model]\nchi_phi = 2.0\n", encoding="utf-8")
    assert cli.main(["run", str(path)]) == 1
    assert "epsilon_condition" in capsys.readouterr().err


def test_cli_oracle_passes(capsys):
    # the dense-oracle cross-checks are criteria 1 and 2 of `chbsim verify`
    assert cli.main(["verify", "--only", "1,2"]) == 0
    out = capsys.readouterr().out
    assert out.count("[pass]") == 2 and "[FAIL]" not in out


def test_cli_mms_tables_pass(capsys):
    assert cli.main(["mms"]) == 0
    out = capsys.readouterr().out
    assert out.count("fitted order") == 3
    assert "FAIL" not in out


def test_cli_galerkin_sweep_small(tmp_path, capsys):
    text = SMALL_RUN.replace("nx = 8", "nx = 16").replace("ny = 8", "ny = 16")
    path = write_small_config(tmp_path, text=text)
    assert cli.main(["galerkin", str(path), "--k", "4,9"]) == 0
    out = capsys.readouterr().out
    assert "k=4" in out and "k=9" in out and "FAIL" not in out
    assert "max relative gap" in out
    # one Fourier mode cannot track four: the gap check must catch that
    assert cli.main(["galerkin", str(path), "--k", "1,4"]) == 1
    assert "FAIL" in capsys.readouterr().out
    assert cli.main(["galerkin", str(path), "--k", " "]) == 2


def test_cli_galerkin_follows_the_flow_key(tmp_path, monkeypatch, capsys):
    # [solver] flow = off: no flow solve, so the pressure and velocity norms
    # are 0; flow = on solves every stage's flow, 4 per step and the final one
    solves = []
    solve = brinkman.ProjectedStart.solve

    def counted(self, problem, tol):
        solves.append(tol)
        return solve(self, problem, tol)

    monkeypatch.setattr(brinkman.ProjectedStart, "solve", counted)
    text = SMALL_RUN.replace("nx = 8", "nx = 16").replace("ny = 8", "ny = 16")
    for flow, n_solves in (("off", 0), ("on", 2 * (4 * 2 + 1))):
        path = write_small_config(tmp_path, text=text.replace("flow = off", f"flow = {flow}"))
        del solves[:]
        assert cli.main(["galerkin", str(path), "--k", "4,9"]) == 0
        rows = {line.split()[0]: [float(v) for v in line.split()[1:]]
                for line in capsys.readouterr().out.splitlines() if line.startswith("  l")}
        assert len(solves) == n_solves
        for name in ("l43_p", "l2h1_v"):
            assert len(rows[name]) == 2
            assert all(v == 0.0 for v in rows[name]) == (flow == "off"), (flow, name)


def test_cli_galerkin_builds_each_basis_once(tmp_path, monkeypatch, capsys):
    # --k is checked by the rule build_basis applies, without building a basis
    built = []
    build = galerkin.build_basis

    def counted(k, grid):
        built.append(k)
        return build(k, grid)

    monkeypatch.setattr(galerkin, "build_basis", counted)
    text = SMALL_RUN.replace("nx = 8", "nx = 16").replace("ny = 8", "ny = 16")
    path = write_small_config(tmp_path, text=text)
    assert cli.main(["galerkin", str(path), "--k", "1,4,9"]) == 0
    assert built == [1, 4, 9]
    assert "k=9" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["verify", "--only", "11"],
    ["verify", "--only", "0,3"],
    ["verify", "--only", "x"],
    ["galerkin", "CONFIG", "--k", "x"],
    ["galerkin", "CONFIG", "--k", "0"],
    ["galerkin", "CONFIG", "--k", "4,40"],  # 16x16 resolves 25 modes
])
def test_cli_usage_errors_exit_2_with_one_line(tmp_path, capsys, argv):
    text = SMALL_RUN.replace("nx = 8", "nx = 16").replace("ny = 8", "ny = 16")
    path = write_small_config(tmp_path, text=text)
    argv = [str(path) if arg == "CONFIG" else arg for arg in argv]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("chbsim: error:") and captured.err.count("\n") == 1


# ---------------------------------------------------------------------------
# whole runs across the admitted config space
# ---------------------------------------------------------------------------

def _scaled(lo_range, contrast):
    """A (lo, hi) coefficient pair: lo log-uniform in 10**lo_range, hi = lo
    times a contrast up to `contrast` (1: constant)."""
    return st.tuples(st.floats(*lo_range), st.sampled_from([1.0, contrast])
                     | st.floats(1.0, contrast)).map(lambda t: (10.0 ** t[0],
                                                                10.0 ** t[0] * t[1]))


# growth rates bounded away from zero: a volume source needs a positive clamp
_C_GAMMA_V = st.just(0.0) | st.floats(0.01, 0.2)
_SOURCES = {
    "none": st.fixed_dictionaries({}),
    "lima": st.fixed_dictionaries({
        "source_P": st.floats(0.01, 1.0), "source_A": st.floats(0.0, 0.5),
        "source_C": st.floats(0.0, 0.5), "c_gamma_v": _C_GAMMA_V}),
    "hawkins": st.fixed_dictionaries({
        "source_p0": st.floats(0.01, 1.0), "c_gamma_v": _C_GAMMA_V}),
    "hawkins_positive": st.fixed_dictionaries({
        "source_p0": st.floats(0.01, 1.0), "source_rho_min": st.floats(1e-3, 0.5),
        "c_gamma_v": _C_GAMMA_V}),
}


@st.composite
def admitted_runs(draw):
    """Two-step runs on grids up to 12^2 from every corner the parser admits:
    variable mobilities and viscosities, Robin walls with b >= 0, the flow on
    and off, both potentials and every source kind that goes with each."""
    potential = draw(st.sampled_from(["quartic", "quadratic_growth"]))
    # the quartic needs theta_phi identically zero or strictly positive
    kinds = (["none", "lima", "hawkins_positive"] if potential == "quartic"
             else sorted(_SOURCES))
    source = draw(st.sampled_from(kinds))
    lx, ly = draw(st.floats(0.5, 2.0)), draw(st.floats(0.5, 2.0))
    dt = draw(st.floats(1e-5, 1e-3))
    disc = draw(st.booleans())
    init = (dict(phi0="tanh_disc",
                 phi0_center=(lx * draw(st.floats(0.2, 0.8)), ly * draw(st.floats(0.2, 0.8))),
                 phi0_radius=min(lx, ly) * draw(st.floats(0.1, 0.35)))
            if disc else
            dict(phi0="cosine_perturbation", phi0_value=draw(st.floats(-0.5, 0.5)),
                 phi0_amplitude=draw(st.floats(0.0, 0.4))))
    return RunConfig(
        lx=lx, ly=ly, nx=draw(st.integers(4, 12)), ny=draw(st.integers(4, 12)),
        dt=dt, t_end=2.0 * dt,
        epsilon=draw(st.floats(0.05, 0.3)), chi_sigma=draw(st.floats(0.5, 2.0)),
        chi_phi=draw(st.floats(0.0, 0.3)), nu=10.0 ** draw(st.floats(-2.0, 3.0)),
        b=draw(st.just(0.0) | st.floats(0.0, 5.0)),
        sigma_inf=draw(st.tuples(*[st.floats(0.0, 2.0)] * 4)),
        potential=potential, delta_cap=draw(st.floats(0.05, 0.5)),
        mobility=draw(_scaled((-4.0, -2.0), 100.0)),
        nutrient_mobility=draw(_scaled((-2.0, 0.0), 10.0)),
        viscosity=draw(_scaled((-1.0, 1.0), 100.0)),
        bulk_viscosity=draw(st.just((0.0, 0.0)) | _scaled((-2.0, 0.0), 10.0)),
        source=source, **draw(_SOURCES[source]),
        flow=draw(st.booleans()),
        sigma0="cosine", sigma0_value=draw(st.floats(0.0, 1.5)),
        sigma0_amplitude=draw(st.floats(0.0, 0.5)), **init)


# A draw on a known defect, kept so that the StepFailure end is always run:
# its first flow solve stops at a relative residual of ~1.2e-10, just above
# the 10 tol = 1e-10 test (found by a 3000-draw sweep of this strategy).
_ROUND_OFF_FLOOR = RunConfig(nx=8, ny=8, dt=1e-3, t_end=2e-3, nu=0.0401,
                             viscosity=(3.16, 316.0), phi0="cosine_perturbation",
                             phi0_value=0.5, phi0_amplitude=0.0782)


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cfg=admitted_runs())
@example(cfg=_ROUND_OFF_FLOOR).via(
    "FOUND: flow solve round-off floor, eta contrast 100 at nu ~ 1e-2 ends around "
    "the 10 tol test")
def test_admitted_whole_runs_end_finite_with_closed_ledgers_or_one_step_failure(
        tmp_path, cfg):
    # the parser decides what is admissible: every draw must load back as it
    # was saved, then run to its end or fail one step with partial outputs
    path = tmp_path / "drawn.ini"
    outdir = tmp_path / "drawn"
    shutil.rmtree(outdir, ignore_errors=True)   # tmp_path outlives one draw
    cfg = replace(cfg, directory=str(outdir))
    save_config(cfg, path)
    assert load_config(path) == cfg
    try:
        result, _ = run_from_config(cfg)
    except timestepper.StepFailure as exc:
        assert exc.partial is not None
        assert len(read_timeseries(outdir / "timeseries.csv")) == len(exc.partial.rows)
        return
    assert len(result.reports) == cfg.n_steps == 2
    final = result.final_state
    for field in (final.phi, final.mu, final.sigma, final.p, final.v.u, final.v.w):
        assert np.all(np.isfinite(field))
    for rep in result.reports:
        assert abs(rep.ledger_phi) <= 1e-11 and abs(rep.ledger_sigma) <= 1e-11
