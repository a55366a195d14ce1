"""Cell-centered grid, field containers and quadrature.

Scalar unknowns (phi, mu, sigma, p) live at cell centers of a uniform
rectangular grid; velocities live on the staggered faces (MAC layout).
Array index [i, j] maps to (x, y) with x = (i + 1/2) hx, y = (j + 1/2) hy.
Everything here is plain value data; functions are pure and deterministic
(fixed-order numpy reductions), which is what makes bit-identical reruns
possible further up the stack.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Grid:
    Lx: float  # domain size in x, > 0
    Ly: float  # domain size in y, > 0
    nx: int    # cells in x, >= 2
    ny: int    # cells in y, >= 2

    @property
    def hx(self) -> float:
        return self.Lx / self.nx

    @property
    def hy(self) -> float:
        return self.Ly / self.ny

    @property
    def cell_area(self) -> float:
        return self.hx * self.hy

    @property
    def area(self) -> float:
        return self.Lx * self.Ly

    @property
    def perimeter(self) -> float:
        return 2.0 * (self.Lx + self.Ly)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nx, self.ny)

    def cell_centers(self) -> tuple[np.ndarray, np.ndarray]:
        """Meshgrid (indexing='ij') of cell-center coordinates, shape (nx, ny)."""
        x = (np.arange(self.nx) + 0.5) * self.hx
        y = (np.arange(self.ny) + 0.5) * self.hy
        return np.meshgrid(x, y, indexing="ij")


def make_grid(Lx: float, Ly: float, nx: int, ny: int) -> Grid:
    if not (Lx > 0.0 and Ly > 0.0):
        raise ValueError(f"domain lengths must be positive, got Lx={Lx}, Ly={Ly}")
    if nx < 4 or ny < 4:
        raise ValueError(f"need at least 4 cells per direction, got nx={nx}, ny={ny}")
    return Grid(float(Lx), float(Ly), int(nx), int(ny))


@dataclass
class FaceField:
    """Staggered vector field: u on vertical faces, w on horizontal faces."""

    u: np.ndarray  # shape (nx+1, ny)
    w: np.ndarray  # shape (nx, ny+1)

    @classmethod
    def zeros(cls, grid: Grid) -> "FaceField":
        return cls(np.zeros((grid.nx + 1, grid.ny)), np.zeros((grid.nx, grid.ny + 1)))

    @classmethod
    def ones(cls, grid: Grid) -> "FaceField":
        return cls(np.ones((grid.nx + 1, grid.ny)), np.ones((grid.nx, grid.ny + 1)))

    def copy(self) -> "FaceField":
        return FaceField(self.u.copy(), self.w.copy())


@dataclass
class State:
    """Full solver state at one time level. All cell arrays share shape (nx, ny)."""

    t: float
    phi: np.ndarray
    mu: np.ndarray
    sigma: np.ndarray
    p: np.ndarray
    v: FaceField

    def copy(self) -> "State":
        return State(self.t, self.phi.copy(), self.mu.copy(), self.sigma.copy(),
                     self.p.copy(), self.v.copy())


@dataclass(frozen=True)
class EdgeValues:
    """One value per wall (e.g. the ambient nutrient) or one per wall cell
    (e.g. a trace sampled at the edge-cell midpoints)."""

    left: float | np.ndarray    # wall x = 0;  per cell: shape (ny,)
    right: float | np.ndarray   # wall x = Lx; per cell: shape (ny,)
    bottom: float | np.ndarray  # wall y = 0;  per cell: shape (nx,)
    top: float | np.ndarray     # wall y = Ly; per cell: shape (nx,)

    @classmethod
    def constant(cls, value: float) -> "EdgeValues":
        v = float(value)
        return cls(v, v, v, v)


def integrate_cell(values: np.ndarray, grid: Grid) -> float:
    """Midpoint-rule integral of a cell field over the domain."""
    return float(values.sum()) * grid.cell_area


def extrapolate_to_walls(field: np.ndarray, grid: Grid) -> EdgeValues:
    """Wall traces by linear extrapolation from the two nearest cell centers.

    The wall sits half a cell outside the first center, so the second-order
    trace is 1.5*f[0] - 0.5*f[1] (and mirrored on the other walls).
    """
    if grid.nx < 2 or grid.ny < 2:
        raise ValueError("trace extrapolation needs at least two cells per direction")
    return EdgeValues(
        left=1.5 * field[0, :] - 0.5 * field[1, :],
        right=1.5 * field[-1, :] - 0.5 * field[-2, :],
        bottom=1.5 * field[:, 0] - 0.5 * field[:, 1],
        top=1.5 * field[:, -1] - 0.5 * field[:, -2],
    )


def face_to_center(v: FaceField) -> tuple[np.ndarray, np.ndarray]:
    """Average staggered velocity components to cell centers."""
    vx = 0.5 * (v.u[:-1, :] + v.u[1:, :])
    vy = 0.5 * (v.w[:, :-1] + v.w[:, 1:])
    return vx, vy
