"""Constitutive laws: double-well potential, mobilities, viscosities, sources.

All evaluations are vectorized over numpy arrays and carry their admissibility
constants along, so the assumption validator can report concrete bounds
instead of asserting them blindly.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import EdgeValues, Grid

# Caps for the sampling box on which source growth constants are reported.
PHI_CAP = 2.0
SIGMA_CAP = 2.0


@dataclass(frozen=True)
class ModelParams:
    epsilon: float                     # interface width, > 0
    chi_sigma: float                   # nutrient diffusivity coefficient, > 0
    chi_phi: float                     # chemotaxis coefficient, >= 0
    nu: float                          # Brinkman friction, > 0
    b: float                           # Robin permeability, >= 0
    sigma_inf: EdgeValues = field(default_factory=lambda: EdgeValues.constant(1.0))


# ---------------------------------------------------------------------------
# Double-well potential
# ---------------------------------------------------------------------------

# the largest cap 1 + delta_cap of the quadratic-growth potential: below it the
# quartic and its C^2 continuation at the cap, at most 1.5 cap^4, are finite
CAP_LIMIT = float(np.finfo(float).max / 4.0) ** 0.25


def cap_error(delta_cap: float) -> str | None:
    """Why the quadratic-growth cap 1 + delta_cap is refused, or None when it
    lies in [1, CAP_LIMIT].  Below 1 the wells at +-1 leave the quartic
    region, and below 1 / sqrt(3) the continuation's psi'' = 3 cap^2 - 1 is
    negative, so psi loses its lower bound r1 t^2 - r2; above CAP_LIMIT psi
    overflows at the cap."""
    if 0.0 <= delta_cap and 1.0 + delta_cap <= CAP_LIMIT:
        return None
    return (f"delta_cap={delta_cap!r} puts the cap 1 + delta_cap outside [1, "
            f"{CAP_LIMIT:.3e}]: below 1 the wells at +-1 leave the quartic, above "
            f"it psi overflows")


@dataclass(frozen=True)
class PotentialSpec:
    """Double-well potential, either the plain quartic or its C^2 truncation
    to quadratic growth outside |t| <= 1 + delta_cap; a quadratic-growth
    spec with a cap that `cap_error` refuses raises ValueError.

    Reported constants:
      r1, r2   lower growth bound psi(t) >= r1 t^2 - r2
      r4       bound for |psi'| <= r4 (1+|t|) and |psi''| <= r4 (case 1 only)
    """

    kind: str                 # "quartic" | "quadratic_growth"
    delta_cap: float = 0.2
    r1: float = 0.125
    r2: float = 0.5
    r4: float | None = None

    def __post_init__(self) -> None:
        if self.kind == "quadratic_growth" and (error := cap_error(self.delta_cap)):
            raise ValueError(error)

    @classmethod
    def quartic(cls) -> "PotentialSpec":
        return cls(kind="quartic")

    @classmethod
    def quadratic_growth(cls, delta_cap: float = 0.2) -> "PotentialSpec":
        a = 1.0 + delta_cap
        return cls(kind="quadratic_growth", delta_cap=delta_cap,
                   r4=3.0 * a * a - 1.0)

    @property
    def cap(self) -> float:
        return 1.0 + self.delta_cap


def _quartic(t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    psi = 0.25 * (t * t - 1.0) ** 2
    dpsi = t * t * t - t
    ddpsi = 3.0 * t * t - 1.0
    return psi, dpsi, ddpsi


def potential_eval(phi: np.ndarray, spec: PotentialSpec) -> tuple[np.ndarray, np.ndarray]:
    """Return (psi(phi), psi'(phi)) elementwise."""
    t = np.asarray(phi, dtype=float)
    psi, dpsi, _ = _quartic(t)
    if spec.kind == "quartic":
        return psi, dpsi
    if spec.kind == "quadratic_growth":
        a = spec.cap
        pa, da, dda = _quartic(np.array(a))
        s = np.sign(t)
        r = np.abs(t) - a  # > 0 outside the well region
        outside = r > 0.0
        # C^2 quadratic continuation matching value/slope/curvature at +-a
        psi_out = pa + da * r + 0.5 * dda * r * r
        dpsi_out = s * (da + dda * r)
        return np.where(outside, psi_out, psi), np.where(outside, dpsi_out, dpsi)
    raise ValueError(f"unknown potential kind {spec.kind!r}")


def potential_second(phi: np.ndarray, spec: PotentialSpec) -> np.ndarray:
    """psi''(phi), used by the validator and the stabilization check."""
    t = np.asarray(phi, dtype=float)
    _, _, ddpsi = _quartic(t)
    if spec.kind == "quartic":
        return ddpsi
    a = spec.cap
    return np.where(np.abs(t) > a, 3.0 * a * a - 1.0, ddpsi)


# ---------------------------------------------------------------------------
# Mobilities and viscosities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoefficientSpec:
    """Coefficient bounded in [lo, hi], linearly interpolated in the phase:
    c(phi) = lo + (hi - lo) * clamp((1+phi)/2, 0, 1). lo == hi is a constant.
    """

    lo: float
    hi: float

    @classmethod
    def constant(cls, value: float) -> "CoefficientSpec":
        return cls(float(value), float(value))

    def __call__(self, phi: np.ndarray) -> np.ndarray:
        frac = np.clip(0.5 * (1.0 + np.asarray(phi, dtype=float)), 0.0, 1.0)
        return self.lo + (self.hi - self.lo) * frac


@dataclass(frozen=True)
class MobilityViscositySpec:
    m: CoefficientSpec    # phase mobility,    0 < m.lo <= m.hi
    n: CoefficientSpec    # nutrient mobility, 0 < n.lo <= n.hi
    eta: CoefficientSpec  # shear viscosity,   0 < eta.lo <= eta.hi
    lam: CoefficientSpec  # bulk viscosity,    0 <= lam.lo <= lam.hi

    @classmethod
    def constants(cls, m: float = 1.0, n: float = 1.0, eta: float = 1.0,
                  lam: float = 0.0) -> "MobilityViscositySpec":
        c = CoefficientSpec.constant
        return cls(c(m), c(n), c(eta), c(lam))


def mobilities(phi: np.ndarray, spec: MobilityViscositySpec) -> tuple[np.ndarray, np.ndarray]:
    return spec.m(phi), spec.n(phi)


def viscosities(phi: np.ndarray, spec: MobilityViscositySpec) -> tuple[np.ndarray, np.ndarray]:
    return spec.eta(phi), spec.lam(phi)


@dataclass(frozen=True)
class ModelSpec:
    """Everything that defines the continuous problem on a given grid.

    Bundles the domain discretization with the material laws so that the
    stepping and diagnostic routines can share one argument.  Scheme knobs
    (time step, stabilization, solver tolerances) live elsewhere; this is
    the model only.
    """

    grid: Grid
    params: ModelParams
    potential: PotentialSpec
    mobvis: MobilityViscositySpec
    source: "SourceSpec"


# ---------------------------------------------------------------------------
# Nutrient free energy
# ---------------------------------------------------------------------------

def nutrient_energy(phi: np.ndarray, sigma: np.ndarray,
                    params: ModelParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """N(phi, sigma) and its partials (N, N_sigma, N_phi).

    N = chi_sigma/2 |sigma|^2 + chi_phi sigma (1 - phi).
    """
    N = 0.5 * params.chi_sigma * sigma ** 2 + params.chi_phi * sigma * (1.0 - phi)
    N_sigma = params.chi_sigma * sigma + params.chi_phi * (1.0 - phi)
    N_phi = -params.chi_phi * sigma
    return N, N_sigma, N_phi


# ---------------------------------------------------------------------------
# Source terms
# ---------------------------------------------------------------------------

def _h_interp(phi: np.ndarray) -> np.ndarray:
    """Tumour fraction interpolation h(phi) = clamp((1+phi)/2, 0, 1)."""
    return np.clip(0.5 * (1.0 + phi), 0.0, 1.0)


@dataclass(frozen=True)
class SourceSpec:
    """Tumour source preset with its (Lambda, theta) split and Gamma_v clamp.

    Presets:
      none              Gamma_phi = Gamma_sigma = Gamma_v = 0
      lima              Gamma_phi = (P sigma - A) h(phi), Gamma_sigma = C h(phi)
      hawkins           Gamma_phi = P(phi)(sigma - chi_phi phi - mu),
                        Gamma_sigma = -Gamma_phi, P(phi) = p0 (1+phi)_+
      hawkins_positive  as hawkins but P(phi) = p0 max((1+phi)/2, rho_min),
                        strictly positive so theta_phi >= p0*rho_min > 0
    Gamma_v = clamp(c_gamma_v * Gamma_phi, +-gamma0).
    """

    preset: str = "none"
    P: float = 0.0          # lima proliferation rate
    A: float = 0.0          # lima apoptosis rate
    C: float = 0.0          # lima consumption rate
    p0: float = 0.0         # hawkins rate
    rho_min: float = 1e-3   # lower bound for the positive variant
    c_gamma_v: float = 0.0  # density ratio in Gamma_v = c * Gamma_phi
    gamma0: float | None = None  # clamp bound; default c*R0*(1+caps)

    @classmethod
    def none(cls) -> "SourceSpec":
        return cls(preset="none")

    @classmethod
    def lima(cls, P: float, A: float, C: float, c_gamma_v: float = 0.0,
             gamma0: float | None = None) -> "SourceSpec":
        return cls(preset="lima", P=P, A=A, C=C, c_gamma_v=c_gamma_v, gamma0=gamma0)

    @classmethod
    def hawkins(cls, p0: float, c_gamma_v: float = 0.0,
                gamma0: float | None = None) -> "SourceSpec":
        return cls(preset="hawkins", p0=p0, c_gamma_v=c_gamma_v, gamma0=gamma0)

    @classmethod
    def hawkins_positive(cls, p0: float, rho_min: float = 1e-3,
                         c_gamma_v: float = 0.0,
                         gamma0: float | None = None) -> "SourceSpec":
        return cls(preset="hawkins_positive", p0=p0, rho_min=rho_min,
                   c_gamma_v=c_gamma_v, gamma0=gamma0)

    def theta_strictly_positive(self) -> bool:
        return self.preset == "hawkins_positive" and self.p0 > 0.0

    def theta_identically_zero(self) -> bool:
        return self.preset in ("none", "lima")


def linear_growth_constant(spec: SourceSpec, params: ModelParams) -> float:
    """Reported R0 with |theta| <= R0 and |Lambda| <= R0(1+|phi|+|sigma|) on
    the sampling box |phi| <= PHI_CAP, |sigma| <= SIGMA_CAP."""
    if spec.preset == "none":
        return 0.0
    if spec.preset == "lima":
        return max(abs(spec.P), abs(spec.A), abs(spec.C))
    if spec.preset in ("hawkins", "hawkins_positive"):
        p_max = spec.p0 * (1.0 + PHI_CAP)  # covers both P variants on the box
        return p_max * max(1.0, params.chi_phi)
    raise ValueError(f"unknown source preset {spec.preset!r}")


def gamma_v_clamp(spec: SourceSpec, params: ModelParams) -> float:
    if spec.gamma0 is not None:
        return spec.gamma0
    r0 = linear_growth_constant(spec, params)
    return abs(spec.c_gamma_v) * r0 * (1.0 + PHI_CAP + SIGMA_CAP)


@dataclass
class SourceTerms:
    gamma_phi: np.ndarray
    gamma_sigma: np.ndarray
    gamma_v: np.ndarray
    lambda_phi: np.ndarray
    theta_phi: np.ndarray
    lambda_sigma: np.ndarray
    theta_sigma: np.ndarray


def sources(phi: np.ndarray, sigma: np.ndarray, mu: np.ndarray,
            spec: SourceSpec, params: ModelParams) -> SourceTerms:
    """Evaluate Gamma_phi = Lambda_phi - theta_phi mu, Gamma_sigma likewise,
    and the clamped volume source Gamma_v = clamp(c Gamma_phi, +-gamma0)."""
    phi = np.asarray(phi, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    mu = np.asarray(mu, dtype=float)
    zero = np.zeros_like(phi)

    if spec.preset == "none":
        lam_phi = theta_phi = lam_sig = theta_sig = zero
    elif spec.preset == "lima":
        h = _h_interp(phi)
        lam_phi = (spec.P * sigma - spec.A) * h
        theta_phi = zero
        lam_sig = spec.C * h
        theta_sig = zero
    elif spec.preset in ("hawkins", "hawkins_positive"):
        if spec.preset == "hawkins":
            prolif = spec.p0 * np.maximum(1.0 + phi, 0.0)
        else:
            prolif = spec.p0 * np.maximum(0.5 * (1.0 + phi), spec.rho_min)
        lam_phi = prolif * (sigma - params.chi_phi * phi)
        theta_phi = prolif
        lam_sig = -lam_phi
        theta_sig = -prolif
    else:
        raise ValueError(f"unknown source preset {spec.preset!r}")

    g_phi = lam_phi - theta_phi * mu
    g_sig = lam_sig - theta_sig * mu
    g0 = gamma_v_clamp(spec, params)
    g_v = np.clip(spec.c_gamma_v * g_phi, -g0, g0)
    return SourceTerms(g_phi, g_sig, g_v, lam_phi, theta_phi, lam_sig, theta_sig)


# ---------------------------------------------------------------------------
# Assumption validator
# ---------------------------------------------------------------------------

@dataclass
class Check:
    name: str
    passed: bool
    detail: str


@dataclass
class ValidationReport:
    checks: list[Check]

    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.passed]

    def __getitem__(self, name: str) -> Check:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def validate_params(params: ModelParams, potential: PotentialSpec,
                    mobvis: MobilityViscositySpec,
                    source_spec: SourceSpec) -> ValidationReport:
    """Check the model constants against the admissibility assumptions and
    report every named check with a pass/fail and a concrete detail string."""
    checks: list[Check] = []

    def add(name: str, passed: bool, detail: str) -> None:
        checks.append(Check(name, bool(passed), detail))

    add("positivity", params.epsilon > 0 and params.chi_sigma > 0
        and params.nu > 0 and params.chi_phi >= 0 and params.b >= 0,
        f"epsilon={params.epsilon}, chi_sigma={params.chi_sigma}, "
        f"chi_phi={params.chi_phi}, nu={params.nu}, b={params.b}")

    add("mobility_bounds", 0.0 < mobvis.m.lo <= mobvis.m.hi
        and 0.0 < mobvis.n.lo <= mobvis.n.hi,
        f"m in [{mobvis.m.lo}, {mobvis.m.hi}], n in [{mobvis.n.lo}, {mobvis.n.hi}]")

    add("viscosity_bounds", 0.0 < mobvis.eta.lo <= mobvis.eta.hi
        and 0.0 <= mobvis.lam.lo <= mobvis.lam.hi,
        f"eta in [{mobvis.eta.lo}, {mobvis.eta.hi}], "
        f"lam in [{mobvis.lam.lo}, {mobvis.lam.hi}]")

    r0 = linear_growth_constant(source_spec, params)
    g0 = gamma_v_clamp(source_spec, params)
    has_volume_source = source_spec.preset != "none" and source_spec.c_gamma_v != 0.0
    add("source_growth", np.isfinite(r0) and r0 >= 0.0
        and (not has_volume_source or g0 > 0.0),
        f"preset={source_spec.preset}, R0={r0:.6g}, gamma0={g0:.6g}")

    # Lower growth bound of the potential: sample and compare against r1,r2.
    t = np.linspace(-6.0, 6.0, 4001)
    psi, _ = potential_eval(t, potential)
    margin = float(np.min(psi - (potential.r1 * t * t - potential.r2)))
    add("potential_growth", margin >= 0.0 and float(np.min(psi)) >= 0.0,
        f"min(psi - (R1 t^2 - R2)) = {margin:.6g} with R1={potential.r1}, "
        f"R2={potential.r2}")

    # Epsilon smallness: 1/eps > 2 chi_phi^2 / (chi_sigma R1).
    lhs = 1.0 / params.epsilon if params.epsilon > 0 else np.inf
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # inf or nan, not an exception, if chi_sigma is 0 or chi_phi^2 overflows
        rhs = 2.0 * np.float64(params.chi_phi) ** 2 / (params.chi_sigma * potential.r1)
    add("epsilon_condition", lhs > rhs,
        f"1/eps = {lhs:.6g} vs 2 chi_phi^2/(chi_sigma R1) = {rhs:.6g}")

    # Case consistency: the quartic (case 2) needs theta_phi strictly
    # positive, unless theta_phi vanishes identically (no mu-coupling at all).
    if potential.kind == "quartic":
        ok = source_spec.theta_identically_zero() or source_spec.theta_strictly_positive()
        add("case_consistency", ok,
            f"quartic potential with preset={source_spec.preset}: theta_phi "
            + ("identically zero" if source_spec.theta_identically_zero()
               else "strictly positive" if source_spec.theta_strictly_positive()
               else "only non-negative (vanishes at phi=-1); use the rho_min "
                    "variant or the quadratic-growth potential"))
    else:
        if potential.r4 is None:
            add("case_consistency", False, "quadratic-growth potential missing R4")
        else:
            tt = np.linspace(-8.0, 8.0, 4001)
            _, dpsi = potential_eval(tt, potential)
            ddpsi = potential_second(tt, potential)
            ok1 = bool(np.all(np.abs(dpsi) <= potential.r4 * (1.0 + np.abs(tt)) + 1e-12))
            ok2 = bool(np.all(np.abs(ddpsi) <= potential.r4 + 1e-12))
            add("case_consistency", ok1 and ok2,
                f"case 1 bounds with R4={potential.r4:.6g}: |psi'|<=R4(1+|t|) "
                f"{ok1}, |psi''|<=R4 {ok2}")

    return ValidationReport(checks)
