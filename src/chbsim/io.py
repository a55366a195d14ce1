"""Configuration files, snapshot/timeseries serialization, run outputs.

Configs are sectioned key=value text (INI).  Each key is the name of a
`RunConfig` field in lower case, and its section is fixed; unknown
sections or keys are rejected so typos cannot silently fall back to
defaults.  Every key has a default, so even an empty file is a valid
configuration.  Every number must be finite, and so must t_end / dt,
which must be a whole number of steps to 1e-9 (relative).  A
malformed file (not UTF-8, a repeated key or section, a key above the first
section, a value that does not parse, an inline comment on the output
directory line, whose name could hold one) raises `ConfigError` with one
line per problem before any output is made.  Floats are written with
`repr`, which round-trips bit exactly, making save -> load the identity and
reruns byte-identical; a value the file cannot carry is refused.

Snapshots come in two flavours: CSV (one row per cell, the bit-exact
archival format) and legacy-VTK structured points (ASCII, for viewers).
The output directory can be redirected with the CHBSIM_OUTPUT_ROOT
environment variable and is protected by a lock sentinel per run.
"""
from __future__ import annotations

import configparser
import math
import os
import re
import socket
import time
from dataclasses import dataclass, fields
from functools import lru_cache
from itertools import chain, islice
from pathlib import Path

import numpy as np

from .core import Grid, State, face_to_center, make_grid
from .constitutive import (
    CoefficientSpec,
    EdgeValues,
    MobilityViscositySpec,
    ModelParams,
    ModelSpec,
    PotentialSpec,
    SourceSpec,
    cap_error,
    validate_params,
)
from .timestepper import (
    COLUMNS,
    RunResult,
    SchemeOptions,
    SimSpec,
    StepFailure,
    initial_state,
    run,
)


class ConfigError(ValueError):
    """Invalid configuration; `errors` lists every individual problem."""

    def __init__(self, errors: list[str]) -> None:
        super().__init__("invalid configuration:\n  " + "\n  ".join(errors))
        self.errors = errors


# ---------------------------------------------------------------------------
# RunConfig
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunConfig:
    # [domain]
    lx: float = 1.0
    ly: float = 1.0
    nx: int = 64
    ny: int = 64
    # [time]
    dt: float = 1e-3
    t_end: float = 1e-2
    snapshot_every: int = SchemeOptions.snapshot_every
    # [model]
    epsilon: float = 0.1
    chi_sigma: float = 1.0
    chi_phi: float = 0.0
    nu: float = 1.0
    b: float = 0.0
    sigma_inf: tuple = (1.0, 1.0, 1.0, 1.0)   # left right bottom top
    # [constitutive]
    potential: str = "quartic"
    delta_cap: float = 0.2
    mobility: tuple = (1.0, 1.0)              # lo hi
    nutrient_mobility: tuple = (1.0, 1.0)
    viscosity: tuple = (1.0, 1.0)
    bulk_viscosity: tuple = (0.0, 0.0)
    source: str = "none"
    source_P: float = 0.0
    source_A: float = 0.0
    source_C: float = 0.0
    source_p0: float = 0.0
    source_rho_min: float = 1e-3
    c_gamma_v: float = 0.0
    gamma0: float | None = None
    # [solver], defaulting to the scheme's own settings
    stabilization_s: float = SchemeOptions.s
    flow: bool = SchemeOptions.flow
    # [init]
    phi0: str = "uniform"
    phi0_value: float = 0.0
    phi0_center: tuple = (0.5, 0.5)
    phi0_radius: float = 0.25
    phi0_amplitude: float = 0.0
    phi0_modes: tuple = ((1, 0), (0, 1))
    sigma0: str = "uniform"
    sigma0_value: float = 1.0
    sigma0_amplitude: float = 0.0
    sigma0_modes: tuple = ((1, 1),)
    # [output]
    directory: str = "run"
    formats: tuple = ("csv",)

    # -- assembly into model objects ------------------------------------

    def grid(self) -> Grid:
        return make_grid(self.lx, self.ly, self.nx, self.ny)

    def model_params(self) -> ModelParams:
        l, r, bo, t = self.sigma_inf
        return ModelParams(epsilon=self.epsilon, chi_sigma=self.chi_sigma,
                           chi_phi=self.chi_phi, nu=self.nu, b=self.b,
                           sigma_inf=EdgeValues(l, r, bo, t))

    def potential_spec(self) -> PotentialSpec:
        if self.potential == "quartic":
            return PotentialSpec.quartic()
        return PotentialSpec.quadratic_growth(self.delta_cap)

    def mobvis_spec(self) -> MobilityViscositySpec:
        pair = lambda t: CoefficientSpec(t[0], t[1])
        return MobilityViscositySpec(m=pair(self.mobility),
                                     n=pair(self.nutrient_mobility),
                                     eta=pair(self.viscosity),
                                     lam=pair(self.bulk_viscosity))

    def source_spec(self) -> SourceSpec:
        kind = self.source
        if kind == "none":
            return SourceSpec.none()
        if kind == "lima":
            return SourceSpec.lima(self.source_P, self.source_A, self.source_C,
                                   self.c_gamma_v, self.gamma0)
        if kind == "hawkins":
            return SourceSpec.hawkins(self.source_p0, self.c_gamma_v, self.gamma0)
        return SourceSpec.hawkins_positive(self.source_p0, self.source_rho_min,
                                           self.c_gamma_v, self.gamma0)

    def model_spec(self) -> ModelSpec:
        return ModelSpec(grid=self.grid(), params=self.model_params(),
                         potential=self.potential_spec(),
                         mobvis=self.mobvis_spec(), source=self.source_spec())

    def scheme(self) -> SchemeOptions:
        return SchemeOptions(dt=self.dt, s=self.stabilization_s, flow=self.flow,
                             snapshot_every=self.snapshot_every)

    def sim_spec(self) -> SimSpec:
        return SimSpec(model=self.model_spec(), scheme=self.scheme())

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))

    def initial_fields(self) -> tuple[np.ndarray, np.ndarray]:
        """phi0 and sigma0 at the cell centers; a non-finite value, which the
        parser cannot see, is a ConfigError."""
        g = self.grid()
        x, y = g.cell_centers()

        def mix(modes):
            out = np.zeros(g.shape)
            for i, j in modes:
                out += (np.cos(i * np.pi * x / g.Lx)
                        * np.cos(j * np.pi * y / g.Ly))
            return out

        with np.errstate(over="ignore", invalid="ignore"):   # reported below
            if self.phi0 == "uniform":
                phi = np.full(g.shape, self.phi0_value)
            elif self.phi0 == "tanh_disc":
                cx, cy = self.phi0_center
                dist = np.sqrt((x - cx) ** 2 + (y - cy) ** 2)
                phi = np.tanh((self.phi0_radius - dist)
                              / (np.sqrt(2.0) * self.epsilon))
            else:  # cosine_perturbation
                phi = self.phi0_value + self.phi0_amplitude * mix(self.phi0_modes)

            if self.sigma0 == "uniform":
                sigma = np.full(g.shape, self.sigma0_value)
            else:  # cosine
                sigma = self.sigma0_value + self.sigma0_amplitude * mix(self.sigma0_modes)
        if not (np.all(np.isfinite(phi)) and np.all(np.isfinite(sigma))):
            raise ConfigError(["initial fields contain non-finite values"])
        return phi, sigma

    def initial_state(self) -> State:
        return initial_state(*self.initial_fields(), self.model_spec())


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def _float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"must be finite, got {text.strip()!r}")
    return value


def _floats(text: str) -> list[float]:
    return [_float(tok) for tok in text.replace(",", " ").split()]


def _pairs(text: str) -> tuple:
    out = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        i, j = chunk.split()
        out.append((int(i), int(j)))
    return tuple(out)


def _bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("on", "true", "yes", "1"):
        return True
    if t in ("off", "false", "no", "0"):
        return False
    raise ValueError(f"expected on/off, got {text!r}")


def _bounds(text: str) -> tuple:
    vals = _floats(text)
    if len(vals) == 1:
        return (vals[0], vals[0])
    if len(vals) == 2:
        return (vals[0], vals[1])
    raise ValueError("expected one value or a lo hi pair")


def _edges(text: str) -> tuple:
    vals = _floats(text)
    if len(vals) == 1:
        return (vals[0],) * 4
    if len(vals) == 4:
        return tuple(vals)
    raise ValueError("expected one value or four (left right bottom top)")


def _center(text: str) -> tuple:
    vals = _floats(text)
    if len(vals) != 2:
        raise ValueError("expected two coordinates")
    return (vals[0], vals[1])


def _formats(text: str) -> tuple:
    fmts = tuple(tok.strip() for tok in text.split(",") if tok.strip())
    for f in fmts:
        if f not in ("csv", "vtk"):
            raise ValueError(f"unknown snapshot format {f!r} (csv or vtk)")
    return fmts


def _opt_float(text: str) -> float | None:
    return None if not text.strip() else _float(text)


def _fmt_floats(vals) -> str:
    return " ".join(repr(float(v)) for v in vals)


def _fmt_pairs(pairs) -> str:
    return ", ".join(f"{i} {j}" for i, j in pairs)


# section -> the RunConfig fields it holds; a field's key is its name in lower case
_SECTIONS = {
    "domain": ("lx", "ly", "nx", "ny"),
    "time": ("dt", "t_end", "snapshot_every"),
    "model": ("epsilon", "chi_sigma", "chi_phi", "nu", "b", "sigma_inf"),
    "constitutive": ("potential", "delta_cap", "mobility", "nutrient_mobility",
                     "viscosity", "bulk_viscosity", "source", "source_P",
                     "source_A", "source_C", "source_p0", "source_rho_min",
                     "c_gamma_v", "gamma0"),
    "solver": ("stabilization_s", "flow"),
    "init": ("phi0", "phi0_value", "phi0_center", "phi0_radius",
             "phi0_amplitude", "phi0_modes", "sigma0", "sigma0_value",
             "sigma0_amplitude", "sigma0_modes"),
    "output": ("directory", "formats"),
}

# (parser, formatter) by field type, then for the fields whose type does not
# decide it
_TYPE_CODECS = {
    "float": (_float, repr),
    "int": (int, str),
    "str": (str.strip, str),
    "bool": (_bool, lambda v: "on" if v else "off"),
}
_FIELD_CODECS = {
    "sigma_inf": (_edges, _fmt_floats),
    "mobility": (_bounds, _fmt_floats),
    "nutrient_mobility": (_bounds, _fmt_floats),
    "viscosity": (_bounds, _fmt_floats),
    "bulk_viscosity": (_bounds, _fmt_floats),
    "gamma0": (_opt_float, lambda v: "" if v is None else repr(v)),
    "phi0_center": (_center, _fmt_floats),
    "phi0_modes": (_pairs, _fmt_pairs),
    "sigma0_modes": (_pairs, _fmt_pairs),
    "formats": (_formats, ", ".join),
}
_CODECS = {f.name: _FIELD_CODECS.get(f.name) or _TYPE_CODECS[f.type]
           for f in fields(RunConfig)}

_CHOICES = {
    "potential": ("quartic", "quadratic_growth"),
    "source": ("none", "lima", "hawkins", "hawkins_positive"),
    "phi0": ("uniform", "tanh_disc", "cosine_perturbation"),
    "sigma0": ("uniform", "cosine"),
}


def load_config(path: str | Path) -> RunConfig:
    """Parse, fill defaults, reject unknown keys, validate everything."""
    path = Path(path)
    parser = configparser.ConfigParser(interpolation=None,
                                       inline_comment_prefixes=("#", ";"))
    raw = configparser.ConfigParser(interpolation=None)   # values with their comments
    try:
        text = path.read_text(encoding="utf-8")
        for each in (parser, raw):
            each.read_string(text, source=str(path))
    except UnicodeDecodeError as exc:
        raise ConfigError([f"{path} is not UTF-8 text: {exc.reason}"]) from None
    except configparser.Error as exc:
        # its message names the file and the line, spread over several lines
        raise ConfigError([" ".join(str(exc).split())]) from None

    errors: list[str] = []
    directory = raw.get("output", "directory", fallback=None)
    if directory is not None and directory != parser["output"]["directory"]:
        errors.append(f"[output] directory: {directory!r} holds an inline comment, which "
                      f"would cut the name to {parser['output']['directory']!r}")
    values: dict = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            errors.append(f"unknown section [{section}]")
            continue
        attrs = {attr.lower(): attr for attr in _SECTIONS[section]}
        for key, raw in parser.items(section):
            attr = attrs.get(key)
            if attr is None:
                errors.append(f"unknown key {key!r} in section [{section}]")
                continue
            try:
                values[attr] = _CODECS[attr][0](raw)
            except ValueError as exc:
                errors.append(f"[{section}] {key}: {exc}")
    if errors:
        raise ConfigError(errors)

    cfg = RunConfig(**values)
    errors.extend(_semantic_errors(cfg))
    if errors:
        raise ConfigError(errors)
    return cfg


def _semantic_errors(cfg: RunConfig) -> list[str]:
    errors: list[str] = []
    for name, choices in _CHOICES.items():
        if getattr(cfg, name) not in choices:
            errors.append(f"{name} must be one of {choices}, "
                          f"got {getattr(cfg, name)!r}")
    if cfg.dt > 0.0 and not cfg.t_end >= cfg.dt:
        errors.append(f"t_end={cfg.t_end} is shorter than one step dt={cfg.dt}")
    if cfg.dt > 0.0 and not math.isfinite(cfg.t_end / cfg.dt):
        errors.append(f"t_end={cfg.t_end} / dt={cfg.dt} overflows the step count")
    elif cfg.dt > 0.0 and cfg.t_end >= cfg.dt:
        ratio = cfg.t_end / cfg.dt
        if abs(ratio - round(ratio)) > 1e-9 * ratio:
            errors.append(f"t_end={cfg.t_end} is not a whole number of steps dt={cfg.dt}; "
                          f"the nearest whole-step horizons are "
                          f"{math.floor(ratio) * cfg.dt!r} and {math.ceil(ratio) * cfg.dt!r}")
    if cfg.snapshot_every < 0:
        errors.append("snapshot_every must be >= 0")
    if not cfg.formats:
        errors.append("need at least one output format")
    if cfg.potential == "quadratic_growth" and (error := cap_error(cfg.delta_cap)):
        errors.append(error)
    for build in (cfg.grid, cfg.scheme):
        try:
            build()
        except ValueError as exc:
            errors.append(str(exc))
    if errors:
        return errors
    try:
        report = validate_params(cfg.model_params(), cfg.potential_spec(),
                                 cfg.mobvis_spec(), cfg.source_spec())
    except ValueError as exc:
        return [str(exc)]
    for check in report.failures():
        errors.append(f"assumption check {check.name!r} failed: {check.detail}")
    return errors


# what a config line cannot carry: blanks at either end of the value, a line
# break, or a comment ('#' or ';' at its start or after a blank)
_UNWRITABLE = re.compile(r"^\s|\s$|[\r\n]|(^|\s)[#;]")


def _config_text(cfg: RunConfig) -> str:
    """The full canonical file of `cfg`; raises `ConfigError` for a value
    the file cannot carry."""
    lines, errors = [], []
    for section, attrs in _SECTIONS.items():
        lines.append(f"[{section}]")
        for attr in attrs:
            text = _CODECS[attr][1](getattr(cfg, attr))
            if _UNWRITABLE.search(text):
                errors.append(f"[{section}] {attr.lower()}: a config file cannot carry "
                              f"{text!r} (blanks at an end, a line break or a comment)")
            lines.append(f"{attr.lower()} = {text}")
        lines.append("")
    if errors:
        raise ConfigError(errors)
    return "\n".join(lines)


def save_config(cfg: RunConfig, path: str | Path) -> None:
    """Write the full canonical file; load(save(cfg)) == cfg."""
    Path(path).write_text(_config_text(cfg), encoding="utf-8")


# ---------------------------------------------------------------------------
# Snapshots
# ---------------------------------------------------------------------------

SNAPSHOT_FIELDS = ("phi", "mu", "sigma", "p", "vx", "vy")
SNAPSHOT_VERSION = 1


@dataclass(frozen=True)
class SnapshotHeader:
    time: float
    lx: float
    ly: float
    nx: int
    ny: int
    fields: tuple = SNAPSHOT_FIELDS
    version: int = SNAPSHOT_VERSION


def _snapshot_text(state: State) -> dict:
    """The `repr` of every value of each `SNAPSHOT_FIELDS` column, in (i, j)
    order: each value is formatted once, and every writer reads this table."""
    vx, vy = face_to_center(state.v)
    cols = (state.phi, state.mu, state.sigma, state.p, vx, vy)
    return {name: list(map(repr, np.asarray(col, dtype=float).ravel().tolist()))
            for name, col in zip(SNAPSHOT_FIELDS, cols)}


def write_snapshot(state: State, grid: Grid, path: str | Path,
                   fmt: str = "csv", text: dict | None = None) -> SnapshotHeader:
    """Write one snapshot file.  `text` is `_snapshot_text(state)`, which a
    caller writing several formats of one state passes to each of them."""
    if fmt not in _CHUNKS:
        raise ValueError(f"unknown snapshot format {fmt!r}")
    header = SnapshotHeader(time=state.t, lx=grid.Lx, ly=grid.Ly,
                            nx=grid.nx, ny=grid.ny)
    text = _snapshot_text(state) if text is None else text
    with Path(path).open("w", encoding="utf-8") as f:
        f.writelines(_CHUNKS[fmt](header, text, grid))   # one write per chunk
    return header


@lru_cache(maxsize=4)
def _csv_prefixes(grid: Grid) -> tuple[str, ...]:
    """The "i,j,x,y" start of every CSV row in (i, j) order, built once per
    grid and shared by all of its snapshots."""
    x, y = grid.cell_centers()
    # x varies with i only and y with j only (an 'ij' meshgrid)
    xs = list(map(repr, x[:, 0].tolist()))
    ys = list(map(repr, y[0, :].tolist()))
    return tuple(f"{i},{j},{xv},{yv}" for i, xv in enumerate(xs)
                 for j, yv in enumerate(ys))


def _csv_chunks(header: SnapshotHeader, text: dict, grid: Grid):
    yield "\n".join([
        f"# chbsim-snapshot {header.version}",
        f"# t = {float(header.time)!r}",
        f"# grid = {float(header.lx)!r} {float(header.ly)!r} {header.nx} {header.ny}",
        "# fields = " + " ".join(header.fields),
        "i,j,x,y," + ",".join(header.fields),
    ]) + "\n"
    # one row per cell in (i, j) order, one column per field
    rows = map(",".join, zip(_csv_prefixes(grid),
                             *(text[name] for name in header.fields)))
    for _ in range(grid.nx):   # the cells of one grid row i per chunk
        yield "\n".join(islice(rows, grid.ny)) + "\n"


def read_snapshot(path: str | Path) -> tuple[SnapshotHeader, dict]:
    """Read a CSV snapshot back; values reproduce the written fields bit-exactly.

    The version must be SNAPSHOT_VERSION, lines 2 to 4 the t, grid and fields
    entries (t finite, the domain lengths finite and positive, the field
    names distinct), and line 5 the columns "i,j,x,y," and the fields; any
    other file is refused with one ValueError that names it."""
    text = Path(path).read_text(encoding="utf-8").splitlines()
    if not text or not text[0].startswith("# chbsim-snapshot"):
        raise ValueError(f"{path}: not a snapshot file")
    try:
        version = int(text[0].removeprefix("# chbsim-snapshot"))
        if version != SNAPSHOT_VERSION:
            raise ValueError(f"version {version}, not {SNAPSHOT_VERSION}")
        entries = [line.split(" = ", 1) for line in text[1:4]]
        if [entry[0] for entry in entries] != ["# t", "# grid", "# fields"]:
            raise ValueError("lines 2 to 4 are not the t, grid and fields entries")
        time, grid, fields = (entry[1] for entry in entries)
        gl, gly, gnx, gny = grid.split()
        header = SnapshotHeader(time=float(time), lx=float(gl), ly=float(gly),
                                nx=int(gnx), ny=int(gny), fields=tuple(fields.split()),
                                version=version)
        if min(header.nx, header.ny) < 1:
            raise ValueError(f"a {header.nx}x{header.ny} grid")
        if not all(0.0 < length < math.inf for length in (header.lx, header.ly)):
            raise ValueError(f"a {gl} by {gly} domain")
        if not math.isfinite(header.time):
            raise ValueError(f"t = {time}")
        if len(set(header.fields)) < len(header.fields):
            raise ValueError(f"the fields {fields} repeat a name")
        columns = "i,j,x,y," + ",".join(header.fields)
        if text[4:5] != [columns]:
            raise ValueError(f"the column line is not {columns}")
    except ValueError as exc:
        raise ValueError(f"{path}: malformed snapshot header ({exc})") from None
    fields = header.fields
    arrays = {name: np.empty((header.nx, header.ny)) for name in fields}
    seen = np.zeros((header.nx, header.ny), dtype=bool)
    for number, line in enumerate(text[5:], start=6):
        if not line.strip():
            continue
        toks = line.split(",")
        try:
            i, j = map(int, toks[:2])
            if not (0 <= i < header.nx and 0 <= j < header.ny):
                raise ValueError(f"cell ({i}, {j}) lies outside the "
                                 f"{header.nx}x{header.ny} grid")
            if seen[i, j]:
                raise ValueError(f"cell ({i}, {j}) appears twice")
            if len(toks) != 4 + len(fields):
                raise ValueError(f"cell ({i}, {j}) has {len(toks) - 4} "
                                 f"values for {len(fields)} fields")
            seen[i, j] = True
            for name, tok in zip(fields, toks[4:]):
                arrays[name][i, j] = float(tok)
        except ValueError as exc:
            raise ValueError(f"{path}: line {number}: {exc}") from None
    if not seen.all():
        raise ValueError(f"{path}: {int(np.count_nonzero(~seen))} of "
                         f"{seen.size} cells missing")
    return header, arrays


def _vtk_chunks(header: SnapshotHeader, text: dict, grid: Grid):
    yield "\n".join([
        "# vtk DataFile Version 3.0",
        f"chbsim snapshot t={float(header.time)!r} v{header.version}",
        "ASCII",
        "DATASET STRUCTURED_POINTS",
        f"DIMENSIONS {grid.nx + 1} {grid.ny + 1} 1",
        "ORIGIN 0 0 0",
        f"SPACING {float(grid.hx)!r} {float(grid.hy)!r} 1.0",
        f"CELL_DATA {grid.nx * grid.ny}",
    ]) + "\n"
    for name in header.fields:   # one field block per chunk; x varies fastest in VTK
        yield "\n".join(chain([f"SCALARS {name} double 1", "LOOKUP_TABLE default"],
                              *(text[name][j::grid.ny] for j in range(grid.ny)))) + "\n"


_CHUNKS = {"csv": _csv_chunks, "vtk": _vtk_chunks}


# ---------------------------------------------------------------------------
# Time series
# ---------------------------------------------------------------------------

def write_timeseries(rows: list[dict], path: str | Path) -> None:
    """CSV with exactly the `timestepper.COLUMNS`, each written by its type
    (floats with `repr`, so reading back is bit exact)."""
    lines = [",".join(COLUMNS)]
    for row in rows:
        lines.append(",".join(str(row[name]) if kind is int else repr(float(row[name]))
                              for name, kind in COLUMNS.items()))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_timeseries(path: str | Path) -> list[dict]:
    """The rows of a `write_timeseries` file; other columns, a short row or a
    cell that is no value of its column's type are refused."""
    text = Path(path).read_text(encoding="utf-8").splitlines()
    if not text or text[0].split(",") != list(COLUMNS):
        raise ValueError(f"{path}: the columns are not {list(COLUMNS)}")
    rows = [line.split(",") for line in text[1:] if line.strip()]
    if any(len(cells) != len(COLUMNS) for cells in rows):
        raise ValueError(f"{path}: a row does not hold {len(COLUMNS)} cells")
    try:
        return [{name: kind(cell) for (name, kind), cell in zip(COLUMNS.items(), cells)}
                for cells in rows]
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# Output directories and the run driver
# ---------------------------------------------------------------------------

OUTPUT_ROOT_ENV = "CHBSIM_OUTPUT_ROOT"


def resolve_output_dir(directory: str | Path) -> Path:
    """Relative output paths land under $CHBSIM_OUTPUT_ROOT when it is set."""
    p = Path(directory)
    root = os.environ.get(OUTPUT_ROOT_ENV)
    if root and not p.is_absolute():
        p = Path(root) / p
    return p


_OWNER = re.compile(r"pid (\d{1,9}) on (\S+), started ")


def _pid_alive(pid: int) -> bool:
    """Whether a process `pid` exists on this host; True where no probe
    that sends nothing is available."""
    if os.name != "posix":
        return True
    try:
        os.kill(pid, 0)   # signal 0: an existence check that sends nothing
    except ProcessLookupError:
        return False
    except PermissionError:   # exists, owned by another user
        pass
    return True


class OutputLock:
    """Exclusive lock sentinel: one live run per output directory.  The
    sentinel holds the pid, the host and the start time of the run that made
    it; a sentinel whose run no longer exists on this host is taken over."""

    def __init__(self, directory: Path) -> None:
        self.path = directory / "run.lock"

    def _owner(self, path: Path | None = None) -> str:
        try:
            return (path or self.path).read_text(encoding="utf-8").strip() \
                or "owner not recorded"
        except (OSError, UnicodeDecodeError):   # released meanwhile, or not ours
            return "owner unreadable"

    def _refusal(self, owner: str) -> RuntimeError:
        return RuntimeError(
            f"output directory {self.path.parent} is locked by another run "
            f"({owner}; remove {self.path.name} if that run is dead)")

    def _clear_dead(self, owner: str) -> bool:
        """Remove the sentinel when `owner` is a run of this host that no
        longer exists and the sentinel still names it.  It is moved aside
        first, so of two runs taking over at once only one removes it."""
        found = _OWNER.match(owner)
        if not found or found[2] != socket.gethostname() or _pid_alive(int(found[1])):
            return False
        aside = self.path.with_name(f"{self.path.name}.{os.getpid()}")
        try:
            os.rename(self.path, aside)
        except FileNotFoundError:   # the other run moved it first
            return True
        if self._owner(aside) == owner:
            aside.unlink()
            return True
        os.replace(aside, self.path)   # a live run's fresh sentinel: put it back
        return False

    def __enter__(self) -> "OutputLock":
        flags = os.O_CREAT | os.O_EXCL | os.O_WRONLY
        try:
            fd = os.open(self.path, flags)
        except FileExistsError:
            owner = self._owner()
            if not self._clear_dead(owner):
                raise self._refusal(owner) from None
            try:
                fd = os.open(self.path, flags)
            except FileExistsError:   # another run took the directory over first
                raise self._refusal(self._owner()) from None
        with os.fdopen(fd, "w", encoding="utf-8") as lock:
            lock.write(f"pid {os.getpid()} on {socket.gethostname()}, "
                       f"started {time.strftime('%Y-%m-%d %H:%M:%S %z')}\n")
        return self

    def __exit__(self, *exc) -> None:
        try:
            os.unlink(self.path)
        except FileNotFoundError:
            pass


def _write_outputs(result: RunResult, cfg: RunConfig, outdir: Path) -> None:
    grid = cfg.grid()
    write_timeseries(result.rows, outdir / "timeseries.csv")
    for state in result.states:
        step = int(round(state.t / cfg.dt))
        text = _snapshot_text(state)
        for fmt in cfg.formats:
            write_snapshot(state, grid, outdir / f"snap_{step:06d}.{fmt}", fmt, text)
        del text   # one table alive at a time: free it before the next is built


def run_from_config(cfg: RunConfig) -> tuple[RunResult, Path]:
    """Full simulation with all outputs; partial outputs survive a failed step.

    `cfg` gets the checks `load_config` makes, so a config built in code that
    no file could carry raises `ConfigError` before any output exists."""
    errors = _semantic_errors(cfg)
    if errors:
        raise ConfigError(errors)
    # an error in any of these leaves no output behind
    state0, text, n_steps = cfg.initial_state(), _config_text(cfg), cfg.n_steps
    specs = cfg.sim_spec()
    outdir = resolve_output_dir(cfg.directory)
    outdir.mkdir(parents=True, exist_ok=True)
    with OutputLock(outdir):
        (outdir / "config.ini").write_text(text, encoding="utf-8")
        try:
            result = run(state0, n_steps, specs)
        except StepFailure as exc:
            if exc.partial is not None:
                _write_outputs(exc.partial, cfg, outdir)
            raise
        _write_outputs(result, cfg, outdir)
    return result, outdir
