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
Their values carry the same text as `repr`, but `repr_texts` builds it for
a whole state at once: Schubfach's shortest digits in uint64 arithmetic and
`repr`'s layout from small tables.  A state whose fields do not fit the
grid is refused before its file is opened.
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

    def __post_init__(self) -> None:
        """Make the checks of `_semantic_errors`: a config that fails one is
        a `ConfigError` however it is built, so no caller checks again."""
        errors = _semantic_errors(self)
        if errors:
            raise ConfigError(errors)

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
    return RunConfig(**values)


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
    if not cfg.formats:
        errors.append("need at least one output format")
    repeated = sorted({f for f in cfg.formats if cfg.formats.count(f) > 1})
    if repeated:
        errors.append(f"formats names {', '.join(map(repr, repeated))} more than once: "
                      "each snapshot file would be written once per name")
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
# repr of whole float64 arrays
# ---------------------------------------------------------------------------
#
# The digits are Schubfach's (Giulietti, "The Schubfach way to render
# doubles", 2020): the shortest decimal in the value's rounding interval,
# the closest one if two are, the even one on a tie.  That is what `repr`
# writes.  They come from three round-to-odd products of the scaled
# significand with a 126-bit power of ten (rop below, as in the JDK's
# DoubleToDecimal), emulated in uint64 with 32-bit limbs.  The layout is
# `repr`'s: fixed notation for a decimal point position decpt in [-3, 16]
# ("0.000ddd", "dd.dd", "dd00.0"), d.ddde±XX otherwise.  Each value's text
# is built as three little-endian words of 8 characters from tables indexed
# by decpt and the digit count.  Zeros and non-finite values take `repr`
# itself.  The one-digit-shorter candidate is tried from two digits on
# (s >= 10), not from three as in the JDK, whose `Double.toString` keeps at
# least two digits where `repr` keeps one: the smallest subnormals come out
# as `repr`'s "5e-324" and "5e-323", not as "4.9e-324" and "4.9e-323".
#
# Every operand of the digit and word arithmetic is a uint64 array or an
# np.uint64 scalar (it relies on wrap-around; mixed with a signed integer,
# numpy would compute in float64).  Work goes in chunks of _CHUNK values
# through buffers made once per call, so no chunk maps fresh pages.

_U = np.uint64
_CHUNK = 4096
_K_MIN, _K_MAX = -324, 292       # the decimal exponents a double needs
_OFF = 330                       # decpt + _OFF indexes the layout tables
_M32, _M52, _M63 = _U(2 ** 32 - 1), _U(2 ** 52 - 1), _U(2 ** 63 - 1)


def _pow10_126(k: int) -> int:
    """g = floor(beta) + 1, where 10^-k = beta 2^r and 2^125 <= beta < 2^126."""
    num, den = (10 ** -k, 1) if k <= 0 else (1, 10 ** k)
    e = 125 - num.bit_length() + den.bit_length()
    while True:
        beta = (num << e) // den if e >= 0 else num // (den << -e)
        if beta >= 1 << 126:
            e -= 1
        elif beta < 1 << 125:
            e += 1
        else:
            return beta + 1


def _word(text: str) -> int:
    return int.from_bytes(text.encode("ascii"), "little")


@lru_cache(maxsize=1)
def _text_tables() -> tuple:
    """Read-only tables, built at first use:
    - by biased exponent + 2048 when the fraction is 0 (the irregular
      spacing of a power of two): g's limbs, the significand shift, the
      lower and upper interval offsets and the implicit bit; and k;
    - by decpt + _OFF (+ 2 _OFF for a negative value): the sign and
      "0.000" head, 2^(8 len), 63 - 8 len, the exponent text, a layout code
      (decpt for "dd.dd", 0 for "0.0dd", 17 for an exponent);
    - by 18 digits + code: the kept-digit masks, the masks and dot of the
      decimal point and the placement of the exponent text, per word."""
    g = [_pow10_126(k) for k in range(_K_MIN, _K_MAX + 1)]
    g1 = np.array([v >> 63 for v in g], dtype=_U)
    g0 = np.array([v & (2 ** 63 - 1) for v in g], dtype=_U)
    q = np.tile(np.maximum(np.arange(2048), 1) - 1075, 2)    # subnormals share q of exponent 1
    irregular = np.arange(4096) > 2049
    # floor(q log10 2) and floor(log10(3/4 2^q)), then floor(-k log2 10) (JDK MathUtils)
    k = (q * 661971961083 - irregular * 274743187321) >> 41
    h = q + ((-k * 913124641741) >> 38) + 2
    gi = np.clip(k, _K_MIN, _K_MAX) - _K_MIN
    h = np.clip(h, 0, 8)      # only exponent 2047, which never reaches the kernel, leaves 1..4
    digit = np.stack([g1[gi], g1[gi] >> _U(32), g1[gi] & _M32, g0[gi] >> _U(32), g0[gi] & _M32,
                      (h + 2).astype(_U), (np.where(irregular, 1, 2) << h).astype(_U),
                      (2 << h).astype(_U), np.where(np.arange(4096) % 2048 > 0, 2 ** 52, 0).astype(_U)])
    head = np.zeros((5, 4 * _OFF), _U)
    for negative in (0, 1):
        for decpt in range(-_OFF, _OFF):
            small, exponent = -4 < decpt <= 0, not -4 < decpt <= 16
            text = "-" * negative + ("0." + "0" * -decpt) * small
            e = f"e{decpt - 1:+03d}" if exponent else ""
            code = 17 if exponent else max(decpt, 0)
            head[:, decpt + _OFF + 2 * _OFF * negative] = (
                _word(text), 1 << 8 * len(text), 63 - 8 * len(text), _word(e), code)
    layout = np.zeros((15, 18 * 18), _U)
    for n in range(1, 18):
        for code in range(18):
            fixed = 1 <= code <= 16
            kept = max(n, code + 1) if fixed else n     # "dd00.0" keeps zeros
            point = code if fixed else int(code == 17 and n > 1)
            keep = 2 ** (8 * kept) - 1
            low = 2 ** (8 * point) - 1 if point else 2 ** 192 - 1
            dot = 0x2E << 8 * point if point else 0
            for j in range(3):
                shift = kept + (point > 0) - 8 * j   # of the exponent text in word j
                layout[j::3, n * 18 + code] = (
                    keep >> 64 * j & 2 ** 64 - 1, low >> 64 * j & 2 ** 64 - 1,
                    dot >> 64 * j & 2 ** 64 - 1, 2 ** (8 * shift) % 2 ** 64 if shift >= 0 else 1,
                    8 * min(max(-shift, 0), 7))
    tables = (digit, k, head, layout)
    for table in tables:
        table.setflags(write=False)
    return tables


def _rop(g1, g1h, g1l, g0h, g0l, cp, work):
    """floor(g cp / 2^127), odd when bits 64..126 of g cp are not all 0, with
    g = g1 2^63 + g0 (the JDK's rop); g's limbs g1h, g1l, g0h, g0l have 32 bits."""
    ch, cl, t, u, x1, y1, nonzero = work["rop"]
    np.right_shift(cp, _U(32), out=ch)
    np.bitwise_and(cp, _M32, out=cl)
    for gh, gl, hi in ((g0h, g0l, x1), (g1h, g1l, y1)):     # hi = the high word of g cp
        np.multiply(gl, cl, out=t)
        t >>= _U(32)
        np.multiply(gh, cl, out=u)
        t += u
        np.multiply(gl, ch, out=u)
        t += u
        t >>= _U(32)
        np.multiply(gh, ch, out=hi)
        hi += t
    np.multiply(g1, cp, out=t)                            # z = (g1 cp mod 2^64) / 2 + x1
    t >>= _U(1)
    t += x1
    np.right_shift(t, _U(63), out=u)
    y1 += u
    t <<= _U(1)
    np.not_equal(t, 0, out=nonzero)
    y1 |= nonzero
    return y1


def _shortest(mag, work):
    """The shortest decimal f 10^k of each positive finite double whose bits
    are `mag` (no zero)."""
    digit, exp10, _, _ = _text_tables()
    fraction = mag & _M52
    index = ((mag >> _U(52)) | ((fraction == 0).astype(_U) << _U(11))).astype(np.intp)
    g1, g1h, g1l, g0h, g0l, shift, dl, dr, implicit = np.take(
        digit, index, axis=1, out=work["digit"], mode="clip")
    c = fraction | implicit
    cp = work["cp"]          # the value and the ends of its rounding interval
    np.left_shift(c, shift, out=cp[0])
    np.subtract(cp[0], dl, out=cp[1])
    np.add(cp[0], dr, out=cp[2])
    vb, vbl, vbr = _rop(g1, g1h, g1l, g0h, g0l, cp, work)
    odd = c & _U(1)          # an odd significand's interval is open
    vbl += odd
    vbr -= odd
    s = vb >> _U(2)
    s10 = (s // _U(10)) * _U(10)
    # one digit fewer: s10 or s10 + 10 when in the interval (needs s >= 10)
    shorter_in = (vbl <= s10 << _U(2)) | ((s10 << _U(2)) + _U(40) <= vbr)
    upper10 = (s10 << _U(2)) + _U(40) <= vbr
    # else s or s + 1, the closer one when both are in (the even one on a tie)
    up = (vbl > s << _U(2)) | (((s << _U(2)) + _U(4) <= vbr)
                               & ((vb & _U(3)) + (s & _U(1)) > _U(2)))
    f = np.where((s >= _U(10)) & shorter_in, s10 + upper10.astype(_U) * _U(10),
                 s + up.astype(_U))
    return f, np.take(exp10, index)


_P10 = np.array([10 ** i for i in range(18)], dtype=_U)
_ASCII = _U(0x3030303030303030)


def _digit_bytes(x):
    """The 8 decimal digits of each x < 10^8, one per byte, first digit lowest."""
    hi = x // _U(10000)
    merged = hi | ((x - hi * _U(10000)) << _U(32))            # 4 digits per 32 bits
    top = ((merged * _U(10486)) >> _U(20)) & _U(0x7F0000007F)
    pairs = ((merged - _U(100) * top) << _U(16)) + top          # 2 digits per 16 bits
    tens = ((pairs * _U(103)) >> _U(10)) & _U(0x000F000F000F000F)
    return tens + ((pairs - _U(10) * tens) << _U(8))


def _length(words):
    """The bytes up to the highest nonzero one of each word (negative for 0)."""
    return ((words.astype(np.float64).view(np.int64) >> 52) - 1015) >> 3


def _chunk_text(x, work) -> list[str]:
    n = x.size
    _, _, head, layout = _text_tables()
    mag = x.view(_U) & _M63
    fallback = (mag - _U(1)) >= _U(0x7FF0000000000000 - 1)    # zero, inf, nan
    np.putmask(mag, fallback, _U(0x3FF0000000000000))
    f, k = _shortest(mag, work)
    nf = np.searchsorted(_P10, f, side="right")              # digits of f
    full = f * np.take(_P10, 17 - nf)                        # as 17 digits
    lead = full // _U(10 ** 16)
    rest = full - lead * _U(10 ** 16)
    pair = np.empty((2, n), _U)
    pair[0] = rest // _U(10 ** 8)
    pair[1] = rest - pair[0] * _U(10 ** 8)
    b, c = _digit_bytes(pair)                                # digits 1..8, 9..16
    digits = np.maximum(np.maximum(_length(b) + 1, _length(c) + 9), 1)   # without trailing 0s
    hw, scale, back, ew, code = np.take(head, nf + k + _OFF + np.signbit(x) * 2 * _OFF,
                                        axis=1, out=work["head"], mode="clip")
    lay = np.take(layout, digits * 18 + code.astype(np.intp), axis=1,
                  out=work["layout"], mode="clip")
    w = work["words"]
    np.bitwise_or(lead, b << _U(8), out=w[0])
    np.bitwise_or(b >> _U(56), c << _U(8), out=w[1])
    np.right_shift(c, _U(56), out=w[2])
    w |= _ASCII
    w &= lay[0:3]                                            # drop trailing zeros
    lo = w & lay[3:6]
    hi = w ^ lo                                              # the digits after the point
    w = (hi << _U(8)) | lo | lay[6:9] | ((ew * lay[9:12]) >> lay[12:15])
    w[1:] |= hi[:-1] >> _U(56)
    out = np.empty((n, 3), _U)                               # shifted right past the head
    np.multiply(w, scale, out=out.T)
    out.T[0] |= hw
    out.T[1:] |= (w[:-1] >> back) >> _U(1)
    if fallback.any():
        where = np.flatnonzero(fallback)
        bits, which = np.unique(x[where].view(_U), return_inverse=True)
        texts = b"".join(repr(v).encode("ascii").ljust(24, b"\0")
                         for v in bits.view(np.float64).tolist())
        out[where] = np.frombuffer(texts, _U).reshape(-1, 3)[which.ravel()]
    return out.view(np.uint8).astype(np.uint32).view("U24").ravel().tolist()


def repr_texts(values) -> list[str]:
    """[repr(float(v)) for v in values.ravel()], built for the whole array at
    once; equal to it for every float64 bit pattern."""
    x = np.ascontiguousarray(values, dtype=np.float64).ravel()
    size = x.size
    if size % _CHUNK:
        x = np.concatenate([x, np.ones(_CHUNK - size % _CHUNK)])
    work = {"digit": np.empty((9, _CHUNK), _U), "cp": np.empty((3, _CHUNK), _U),
            "rop": [np.empty((3, _CHUNK), _U) for _ in range(6)] + [np.empty((3, _CHUNK), bool)],
            "head": np.empty((5, _CHUNK), _U), "layout": np.empty((15, _CHUNK), _U),
            "words": np.empty((3, _CHUNK), _U)}
    texts = []
    for start in range(0, size, _CHUNK):
        texts += _chunk_text(x[start:start + _CHUNK], work)
    del texts[size:]
    return texts


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
    cols = [np.asarray(col, dtype=float).ravel()
            for col in (state.phi, state.mu, state.sigma, state.p, vx, vy)]
    texts = repr_texts(np.concatenate(cols))
    ends = np.cumsum([col.size for col in cols]).tolist()
    return {name: texts[end - col.size:end]
            for name, col, end in zip(SNAPSHOT_FIELDS, cols, ends)}


def _shape_errors(state: State, grid: Grid, text: dict | None) -> list[str]:
    """How `state` (or the `text` table passed for it) fails to fit `grid`."""
    nx, ny = grid.nx, grid.ny
    if text is not None:
        return [f"the {name} text holds {len(text.get(name, ()))} values, not {nx * ny}"
                for name in SNAPSHOT_FIELDS if len(text.get(name, ())) != nx * ny]
    arrays = (("phi", state.phi, (nx, ny)), ("mu", state.mu, (nx, ny)),
              ("sigma", state.sigma, (nx, ny)), ("p", state.p, (nx, ny)),
              ("u faces", state.v.u, (nx + 1, ny)), ("w faces", state.v.w, (nx, ny + 1)))
    return [f"{name} {np.shape(array)}, not {shape}"
            for name, array, shape in arrays if np.shape(array) != shape]


def write_snapshot(state: State, grid: Grid, path: str | Path,
                   fmt: str = "csv", text: dict | None = None) -> SnapshotHeader:
    """Write one snapshot file.  `text` is `_snapshot_text(state)`, which a
    caller writing several formats of one state passes to each of them.
    Fields (or a `text` table) that do not fit `grid` raise one ValueError
    naming them, before the file is opened."""
    if fmt not in _CHUNKS:
        raise ValueError(f"unknown snapshot format {fmt!r}")
    errors = _shape_errors(state, grid, text)
    if errors:
        raise ValueError(f"snapshot does not fit the {grid.nx}x{grid.ny} grid: "
                         + "; ".join(errors))
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

    `cfg` passed its checks when it was built; a value no file can carry or
    non-finite initial fields raise `ConfigError` before any output exists."""
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
