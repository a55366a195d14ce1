"""Finite-difference operators and iterative solvers on the cell grid.

Operators are conservative flux-difference stencils with mirror ghosts
(zero-flux walls) or Robin wall fluxes, built once per coefficient field
(`diffusion_stencil`); coefficients live on faces via harmonic means of the
adjacent cells. The stencil keeps its y-fluxes in the flat cell layout, so
their differences are contiguous offsets of 1; the slots where that offset
crosses a row end are walls held at +0.0, and Robin walls recompute the
first and last cell columns from their own fluxes. Solvers are two
matrix-free Krylov iterations, BiCGStab for the nonsymmetric phase and
nutrient systems and MINRES for the symmetric ones (the Brinkman saddle
system at variable viscosities, criterion 6's Neumann-Poisson study), each
with the same preconditioner hook a -> M^-1 a and fixed-order reductions,
so repeated runs are bit-identical. Every solve, these two and the exact
constant-coefficient Brinkman solve alike, reports its true residual
through `true_report`.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .core import EdgeValues, FaceField, Grid, extrapolate_to_walls


# ---------------------------------------------------------------------------
# Face coefficients and gradients
# ---------------------------------------------------------------------------

def harmonic_face_coefficients(cell_coeff: np.ndarray, grid: Grid) -> FaceField:
    """Harmonic mean of adjacent cell coefficients on each interior face.

    Wall faces copy the adjacent cell value; Neumann/Robin wall fluxes never
    use it, so the choice only matters for bookkeeping. Requires coeff > 0.
    """
    c = np.asarray(cell_coeff, dtype=float)
    if not np.all(c > 0.0):   # a NaN cell fails too
        raise ValueError("face coefficients need strictly positive cell values")
    nx, ny = grid.shape
    u = np.empty((nx + 1, ny))
    w = np.empty((nx, ny + 1))
    flat, den, along_y = c.reshape(-1), np.empty(c.size), np.empty(c.size)
    # ((2 a) b) / (a + b) at the flat offsets ny (the x-faces, written in u)
    # and 1 (the y-faces; the copy into w leaves out the row-crossing slots)
    for face, k in ((u[1:-1, :].reshape(-1), ny), (along_y[:-1], 1)):
        a, b = flat[:-k], flat[k:]
        np.multiply(2.0, a, out=face)
        face *= b
        face /= np.add(a, b, out=den[:face.size])
    w[:, 1:-1] = along_y.reshape(nx, ny)[:, :-1]
    u[0, :] = c[0, :]
    u[-1, :] = c[-1, :]
    w[:, 0] = c[:, 0]
    w[:, -1] = c[:, -1]
    return FaceField(u, w)


def face_gradient(f: np.ndarray, grid: Grid) -> FaceField:
    """Discrete gradient on faces with mirror ghosts (zero at the walls)."""
    gx = np.zeros((grid.nx + 1, grid.ny))
    gy = np.zeros((grid.nx, grid.ny + 1))
    gx[1:-1, :] = (f[1:, :] - f[:-1, :]) / grid.hx
    gy[:, 1:-1] = (f[:, 1:] - f[:, :-1]) / grid.hy
    return FaceField(gx, gy)


def stencil_scratch(grid: Grid) -> tuple[np.ndarray, ...]:
    """The arrays a `diffusion_stencil` apply on `grid` writes its face
    fluxes to.  Stencils whose applies never run inside one another may
    share one: an apply reads none of it before writing it, except the
    y-slots 0 and nx ny, which no apply writes."""
    nx, ny = grid.shape
    return (np.zeros((nx + 1, ny)), np.zeros(nx * ny + 1), np.empty((nx, ny)),
            np.empty(nx), np.empty(nx), np.empty(ny), np.empty(nx))


def diffusion_stencil(coeff_faces: FaceField | float, grid: Grid,
                      b: float | None = None,
                      scratch: tuple[np.ndarray, ...] | None = None
                      ) -> Callable[..., np.ndarray]:
    """f -> div(c grad f) for the face coefficients c (or one number c on
    every face), built once per c.

    With b None the walls carry no flux (mirror ghosts, as `face_gradient`);
    with a number b each wall carries the Robin flux with sigma_inf = 0, i.e.
    outward flux -b * f_wall, f_wall the extrapolated trace (as
    `extrapolate_to_walls`).  The mesh factors are folded into the face
    coefficients, c / h^2 on interior faces and b / h on the walls, so the
    result equals the `face_gradient` formula bit for bit when hx and hy are
    powers of two (barring underflow) and to round-off otherwise.  The face
    fluxes go to the `scratch` arrays (`stencil_scratch`), allocated here
    when None; `apply(f, out=None)` writes into `out` when given and into a
    new array otherwise.

    The y-fluxes live in the flat cell layout, so each of their differences
    is one contiguous operation at offset 1: slot k holds the face below
    flat cell k, and the slots k = i ny, where the offset crosses a row
    end, are walls held at +0.0, the zero-flux wall of both rows.  With
    Robin walls the first and last cell columns take their y-difference
    from the wall fluxes instead, so every sum is formed as in the face
    formula.
    """
    nx, ny = grid.shape
    n = nx * ny
    if isinstance(coeff_faces, FaceField):
        cu = coeff_faces.u[1:-1, :]
        cw = np.zeros((nx, ny))
        cw[:, 1:] = coeff_faces.w[:, 1:-1]
        cw = cw.reshape(-1)[1:]
    else:
        cu = cw = float(coeff_faces)
    ku, kw = cu / grid.hx ** 2, cw / grid.hy ** 2
    # the x-fluxes, the y-fluxes in the flat cell layout, their difference,
    # the Robin fluxes of the bottom and top walls and 0.5 f_next along a wall
    fu, fy, dy, fb, ft, half_x, half_y = (stencil_scratch(grid) if scratch is None
                                          else scratch)
    inner_u, inner_y, walls_y = fu[1:-1, :], fy[1:n], fy[ny:n:ny]
    # each Robin wall: its flux slot, its nearest and next cells, a scratch
    # row and b / h signed so that the axis flux is F = b (0 - trace) n_out
    walls = () if b is None else (
        (fu[0, :], np.s_[0, :], np.s_[1, :], half_x, b / grid.hx),
        (fu[-1, :], np.s_[-1, :], np.s_[-2, :], half_x, -b / grid.hx),
        (fb, np.s_[:, 0], np.s_[:, 1], half_y, b / grid.hy),
        (ft, np.s_[:, -1], np.s_[:, -2], half_y, -b / grid.hy))

    def apply(f: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        np.subtract(f[1:, :], f[:-1, :], out=inner_u)
        np.multiply(inner_u, ku, out=inner_u)
        flat = f.reshape(-1)
        np.subtract(flat[1:], flat[:-1], out=inner_y)
        np.multiply(inner_y, kw, out=inner_y)
        walls_y[...] = 0.0
        if not walls:   # zero-flux walls, whatever a Robin apply left there
            fu[::nx] = 0.0
        for flux, near, next_, half, scale in walls:   # trace 1.5 f_near - 0.5 f_next
            np.multiply(f[near], 1.5, out=flux)
            flux -= np.multiply(f[next_], 0.5, out=half)
            flux *= scale
        out = np.subtract(fu[1:, :], fu[:-1, :], out=out)
        np.subtract(fy[1:], fy[:-1], out=dy.reshape(-1))
        if walls:
            np.subtract(fy[1:n:ny], fb, out=dy[:, 0])
            np.subtract(ft, fy[ny - 1:n:ny], out=dy[:, -1])
        out += dy
        return out
    return apply


def apply_neumann_laplacian(f: np.ndarray, coeff_faces: FaceField,
                            grid: Grid) -> np.ndarray:
    """div(c grad f) with zero-flux walls. Conservative: integrates to zero."""
    return diffusion_stencil(coeff_faces, grid)(f)


# ---------------------------------------------------------------------------
# Robin-wall income (nutrient); the linear part is diffusion_stencil(c, grid, b)
# ---------------------------------------------------------------------------

def robin_source(b: float, sigma_inf: EdgeValues, grid: Grid) -> np.ndarray:
    """Constant inflow part of the Robin flux, b*sigma_inf per unit wall;
    sigma_inf holds one value per wall or one per wall cell."""
    src = np.zeros(grid.shape)
    src[0, :] += b * sigma_inf.left / grid.hx
    src[-1, :] += b * sigma_inf.right / grid.hx
    src[:, 0] += b * sigma_inf.bottom / grid.hy
    src[:, -1] += b * sigma_inf.top / grid.hy
    return src


def robin_influx(f: np.ndarray, b: float, sigma_inf: EdgeValues,
                 grid: Grid) -> float:
    """Total Robin boundary income: integral of b (sigma_inf - f_wall), with
    sigma_inf as in `robin_source`."""
    tr = extrapolate_to_walls(f, grid)
    lr = float((sigma_inf.left - tr.left).sum() + (sigma_inf.right - tr.right).sum())
    bt = float((sigma_inf.bottom - tr.bottom).sum() + (sigma_inf.top - tr.top).sum())
    return b * (lr * grid.hy + bt * grid.hx)


# ---------------------------------------------------------------------------
# Upwind advection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Transport:
    """One upwind pass of q by the face velocity v: the cell divergence
    div(q v) and the net outward flux through the walls, both from the same
    face fluxes, so integrate_cell(div) equals `outflow` up to round-off."""

    div: np.ndarray
    outflow: float


def upwind_transport(q: np.ndarray, v: FaceField, grid: Grid) -> Transport:
    """First-order upwind transport of q by v in conservative form; ghost
    cells copy the interior value, so wall fluxes use the adjacent cell."""
    qx = np.concatenate([q[:1, :], q, q[-1:, :]], axis=0)
    qy = np.concatenate([q[:, :1], q, q[:, -1:]], axis=1)
    fu = v.u * np.where(v.u >= 0.0, qx[:-1, :], qx[1:, :])
    fw = v.w * np.where(v.w >= 0.0, qy[:, :-1], qy[:, 1:])
    div = (fu[1:, :] - fu[:-1, :]) / grid.hx + (fw[:, 1:] - fw[:, :-1]) / grid.hy
    lr = float(fu[-1, :].sum() - fu[0, :].sum()) * grid.hy
    bt = float(fw[:, -1].sum() - fw[:, 0].sum()) * grid.hx
    return Transport(div, lr + bt)


# ---------------------------------------------------------------------------
# Matrix-free operators and Krylov solvers
# ---------------------------------------------------------------------------

@dataclass
class StencilOperator:
    """Linear operator acting on ndarrays of a fixed shape.  `apply`
    returns a new array, which MINRES updates in place."""

    apply: Callable[[np.ndarray], np.ndarray]
    shape: tuple[int, ...]
    symmetric: bool = False


MAX_ITERS = 40000   # the iteration cap of every Krylov solve, read at each call


@dataclass
class SolveReport:
    converged: bool
    iterations: int
    residual: float       # true absolute residual ||rhs - A x||
    rel_residual: float   # residual / ||rhs|| (1.0 if rhs == 0 and x != 0)


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.vdot(a, b))


def _norm(a: np.ndarray) -> float:
    return float(np.sqrt(np.vdot(a, a).real))


def true_report(rhs: np.ndarray, r: np.ndarray, iterations: int,
                tol: float) -> SolveReport:
    """Report for the true residual r = rhs - A x: converged when
    ||r|| <= 10 tol ||rhs||, the one rule of every solve's report."""
    res = _norm(r)
    nb = _norm(rhs)
    rel = res / nb if nb > 0.0 else (0.0 if res == 0.0 else 1.0)
    return SolveReport(rel <= 10.0 * tol or res <= 1e-300, iterations, res, rel)


def solve_general(op: StencilOperator, rhs: np.ndarray, tol: float,
                  x0: np.ndarray | None = None,
                  precond: Callable[[np.ndarray], np.ndarray] | None = None
                  ) -> tuple[np.ndarray, SolveReport]:
    """BiCGStab for nonsymmetric stencil systems, with an optional right
    preconditioner `precond` (a -> M^-1 a).

    Right preconditioning solves A M^-1 y = rhs with x = M^-1 y, so the
    recurrence residual is still rhs - A x and the stopping test
    ||r|| <= tol * ||rhs|| is on the plain residual. Without `precond` the
    iteration is plain BiCGStab.

    Restarts with the current iterate on the usual breakdowns (rho or omega
    collapsing), and also when the recurrence reports convergence but the
    true residual rhs - A x, recomputed at every exit, fails the report's
    own test (rel > 10 tol); at most 10 restarts. Reports that true residual.
    """
    minv = precond if precond is not None else (lambda a: a)
    x = np.zeros_like(rhs) if x0 is None else x0.copy()
    r = rhs - op.apply(x)
    nb = _norm(rhs)
    target = tol * nb if nb > 0.0 else 0.0
    it = 0
    restarts = 0
    while _norm(r) > target and it < MAX_ITERS and restarts < 10:
        r_hat = r.copy()
        rho = alpha = omega = 1.0
        v = np.zeros_like(r)
        p = np.zeros_like(r)
        broke = False
        while it < MAX_ITERS:
            rho_new = _dot(r_hat, r)
            if abs(rho_new) < 1e-300:
                broke = True
                break
            beta = (rho_new / rho) * (alpha / omega)
            rho = rho_new
            p = r + beta * (p - omega * v)
            p_hat = minv(p)
            v = op.apply(p_hat)
            rv = _dot(r_hat, v)
            if abs(rv) < 1e-300:
                broke = True
                break
            alpha = rho / rv
            s = r - alpha * v
            it += 1
            if _norm(s) <= target:
                x = x + alpha * p_hat
                r = s
                break
            s_hat = minv(s)
            t = op.apply(s_hat)
            tt = _dot(t, t)
            if tt <= 0.0:
                x = x + alpha * p_hat
                r = s
                broke = True
                break
            omega = _dot(t, s) / tt
            x = x + alpha * p_hat + omega * s_hat
            r = s - omega * t
            if abs(omega) < 1e-300:
                broke = True
                break
            if _norm(r) <= target:
                break
        r = rhs - op.apply(x)
        if not broke and true_report(rhs, r, it, tol).converged:
            break
        restarts += 1
    return x, true_report(rhs, r, it, tol)


def _minres_cycle(op: StencilOperator, rhs: np.ndarray, x: np.ndarray,
                  r1: np.ndarray, minv, target: float, goal: float,
                  budget: int) -> tuple[np.ndarray, np.ndarray, int, float]:
    """One Lanczos/Givens recurrence from iterate x, whose residual
    rhs - A x is r1, run until ||rhs - A x|| <= `goal`.

    Each time the estimate phibar of the preconditioned residual meets
    `target`, the true residual r is measured once. If ||r|| fell at least
    100x since the last measurement, the target is tightened by the observed
    gap, to half of phibar * goal / ||r|| but at most 100x at a time, and the
    same recurrence continues. Otherwise the estimate has come loose from
    the true residual, and the cycle returns so that the caller restarts
    from r; so does a recurrence whose estimate reached zero (a lucky
    breakdown that left round-off above the goal). The target is never
    tighter than the gap measured at r1 itself asks for.
    x is updated in place, and so are y, v and the three w vectors, whose
    buffers rotate; r1 is left as it is.
    Returns (x, rhs - A x, iterations, target)."""
    y = minv(r1)
    beta1_sq = _dot(r1, y)
    if beta1_sq <= 0.0:
        return x, r1, 0, target

    oldb = 0.0
    beta = np.sqrt(beta1_sq)
    dbar = epsln = 0.0
    phibar = beta
    cs, sn = -1.0, 0.0
    v, tmp = np.empty_like(x), np.empty_like(x)
    w1, w2, w = np.zeros_like(x), np.zeros_like(x), np.zeros_like(x)
    r2 = r1
    r, res = r1, _norm(r1)   # last measured true residual and its norm
    target = max(target, 0.5 * phibar * goal / res)
    moved = False            # x has changed since r was measured
    it = 0
    while True:
        if phibar <= target:
            if moved:
                last = res
                r = rhs - op.apply(x)
                res = _norm(r)
                moved = False
                # met the goal, came loose, or nothing left to continue with
                if res <= goal or res > 0.01 * last or phibar == 0.0:
                    break
            target = max(0.5 * phibar * goal / res, 0.01 * phibar)
        if it >= budget or target < 1e-280:
            break
        it += 1
        np.multiply(y, 1.0 / beta, out=v)
        y = op.apply(v)
        if it >= 2:
            y -= np.multiply(r1, beta / oldb, out=tmp)
        alfa = _dot(v, y)
        y -= np.multiply(r2, alfa / beta, out=tmp)
        r1 = r2
        r2 = y
        y = minv(r2)
        oldb = beta
        bsq = _dot(r2, y)
        if bsq < 0.0:
            break  # preconditioner lost positivity numerically
        beta = np.sqrt(bsq)
        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        gamma = max(np.sqrt(gbar * gbar + beta * beta), 1e-300)
        cs = gbar / gamma
        sn = beta / gamma
        phi = cs * phibar
        phibar = sn * phibar
        w1, w2, w = w2, w, w1   # w = (v - oldeps w1 - delta w2) / gamma
        np.subtract(v, np.multiply(w1, oldeps, out=w), out=w)
        w -= np.multiply(w2, delta, out=tmp)
        w *= 1.0 / gamma
        x += np.multiply(w, phi, out=tmp)
        moved = True
    if moved:
        r = rhs - op.apply(x)
    return x, r, it, target


def _misses(r: np.ndarray, goal: float) -> bool:
    """Whether the residual r misses the goal ||r|| <= tol ||rhs|| that
    MINRES iterates to."""
    res = _norm(r)
    return res > goal and res > 1e-300


def solve_minres(op: StencilOperator, rhs: np.ndarray, tol: float,
                 x0: np.ndarray | None = None,
                 precond: Callable[[np.ndarray], np.ndarray] | None = None
                 ) -> tuple[np.ndarray, SolveReport]:
    """MINRES for symmetric indefinite stencils, with an optional SPD
    preconditioner `precond` (a -> M^-1 a).

    The recurrence tracks the residual in the preconditioner norm, whose gap
    to the plain norm can reach sqrt(cond(M)). One recurrence serves the
    whole solve: its estimate first runs to half of tol * ||rhs|| times the
    gap measured at its first residual (the bound `_minres_cycle` sets), and
    each time it meets its target the true residual is measured once; the
    target is then tightened by the observed gap and the recurrence
    continues until ||rhs - A x|| <= tol * ||rhs||. Only when the estimate
    has come loose from the true residual (it fell less than 100x between
    two measurements, as on long ill-conditioned solves) is the recurrence
    restarted from the true residual, at most 8 times. The preconditioner
    is applied once per iteration and once per recurrence started, and the
    report reuses the last measured residual. A start that meets the goal
    costs the one apply that measures it."""
    if not op.symmetric:
        raise ValueError("solve_minres requires a symmetric operator")
    minv = precond if precond is not None else (lambda a: a)

    x = np.zeros_like(rhs) if x0 is None else x0.copy()
    goal = tol * _norm(rhs)
    target = 0.0
    it_total = 0
    r = rhs - op.apply(x)
    for _ in range(8):
        if not _misses(r, goal) or it_total >= MAX_ITERS or goal < 1e-280:
            break
        x, r, it, target = _minres_cycle(op, rhs, x, r, minv, target, goal,
                                         MAX_ITERS - it_total)
        it_total += it
    return x, true_report(rhs, r, it_total, tol)


# Not a solver: only perfbench/spans.py reads this name, wrapping it for its
# `cg` counter; ROADMAP item 6's benchmark change deletes both.
solve_spd = solve_minres


# ---------------------------------------------------------------------------
# Eigenbases of the 1D Laplacians and the separable inverses built on them
# ---------------------------------------------------------------------------

@lru_cache(maxsize=32)
def trig_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(cos, sin) of pi m / 2n for m = 0..4n-1, the one table every
    trigonometric basis on an axis of n cells is indexed out of: an angle
    pi a / 2n of such a basis is read at m = a mod 4n, reduced in integers,
    so its entries are exact to a few eps at any n (reducing the angle in
    floating point costs about n eps).  Cached and read-only."""
    angle = np.pi / (2 * n) * np.arange(4 * n)
    tables = np.cos(angle), np.sin(angle)
    for a in tables:
        a.setflags(write=False)
    return tables


@lru_cache(maxsize=32)
def laplacian_basis(n: int, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """Eigenbasis (q, lam) of a unit-spacing 1D Laplacian on n cells.

    kind "cell": the n cell values with zero-flux walls, q[:, k] =
    cos(pi k (j + 1/2) / n) (DCT-II), k = 0..n-1.
    kind "dirichlet": the n cell values with zero wall values (mirror ghost
    -f), q[:, k] = sin(pi k (j + 1/2) / n) (DST-II), k = 1..n.
    kind "node": the n + 1 node values with zero-flux walls and half weight
    m = (1/2, 1, ..., 1, 1/2) at the two ends, q[:, k] = cos(pi k i / n)
    (DCT-I), k = 0..n.
    q is orthonormal (m-orthonormal for "node"): sqrt(2 / n) times the
    `trig_table` entries, sqrt(1 / n) on the columns of constant modulus.
    lam_k = 2 - 2 cos(pi k / n) = 4 sin^2(pi k / 2n), and the stiffness
    matrix is q diag(lam) q^T (m q diag(lam) q^T m for "node"). The arrays
    are cached and read-only.
    """
    cos, sin = trig_table(n)
    rows = 2 * np.arange(n) + 1   # 2 j + 1 at the cells, 2 i at the nodes
    if kind == "cell":
        table, k, flat = cos, np.arange(n), [0]
    elif kind == "dirichlet":
        table, k, flat = sin, np.arange(1, n + 1), [-1]
    elif kind == "node":
        table, k, flat, rows = cos, np.arange(n + 1), [0, -1], 2 * np.arange(n + 1)
    else:
        raise ValueError(f"unknown Laplacian basis kind {kind!r}")
    norm = np.full(k.size, np.sqrt(2.0 / n))
    norm[flat] = np.sqrt(1.0 / n)
    q = table[np.outer(rows, k) % (4 * n)] * norm
    lam = (2.0 * sin[k]) ** 2
    q.setflags(write=False)
    lam.setflags(write=False)
    return q, lam


def transform_scratch(grid: Grid) -> tuple[np.ndarray, ...]:
    """The arrays a `separable_inverse` apply in full bases of `grid`
    writes its intermediate products to.  Inverses whose applies never run
    inside one another may share one: an apply reads none of it before
    writing it."""
    return tuple(np.empty(grid.shape) for _ in range(3))


def separable_inverse(qx: np.ndarray, qy: np.ndarray, scale: np.ndarray,
                      px: np.ndarray | None = None, py: np.ndarray | None = None,
                      scratch: tuple[np.ndarray, ...] | None = None
                      ) -> Callable[..., np.ndarray]:
    """r -> qx ((px^T r py) * scale) qy^T: the operator that is diagonal,
    with entries `scale`, in the tensor basis of qx and qy whose dual
    (biorthogonal) basis is px, py; without px and py the basis is
    orthonormal (px = qx, py = qy) and the operator symmetric.

    qx (nx by mx) and qy (ny by my) may be the first mx and my columns of a
    basis; scale is mx by my, and the operator is zero on the other modes.
    The four factors are held C-contiguous (copied here where they are
    not), so no BLAS product takes a transposed or strided operand.  The
    returned `apply(r, out=None)` writes into `out` when given and into a
    new array otherwise; its intermediate products go to the three
    `scratch` arrays (mx by ny, mx by my and nx by my; `transform_scratch`
    in full bases), allocated here when None, in the order of the formula
    (`np.dot`: the same BLAS products as `@`, with less overhead per
    call)."""
    px = qx if px is None else px
    py = qy if py is None else py
    qx, py = np.ascontiguousarray(qx), np.ascontiguousarray(py)
    pxt, qyt = np.ascontiguousarray(px.T), np.ascontiguousarray(qy.T)
    (nx, mx), (ny, my) = qx.shape, qy.shape
    a, b, c = ((np.empty((mx, ny)), np.empty((mx, my)), np.empty((nx, my)))
               if scratch is None else scratch)

    def apply(r: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        np.multiply(np.dot(np.dot(pxt, r, out=a), py, out=b), scale, out=b)
        return np.dot(np.dot(qx, b, out=c), qyt, out=out)
    return apply


def neumann_multiplier(grid: Grid, symbol: Callable[[np.ndarray], np.ndarray],
                       scratch: tuple[np.ndarray, ...] | None = None
                       ) -> Callable[..., np.ndarray]:
    """r -> symbol(-lap) r for the Neumann cell Laplacian, diagonal in the
    cosine basis (DCT-II) with eigenvalues kappa = lam_x / hx^2 + lam_y / hy^2;
    `scratch` as in `separable_inverse`."""
    qx, lx = laplacian_basis(grid.nx, "cell")
    qy, ly = laplacian_basis(grid.ny, "cell")
    return separable_inverse(qx, qy, symbol(lx[:, None] / grid.hx ** 2
                                            + ly[None, :] / grid.hy ** 2),
                             scratch=scratch)


@lru_cache(maxsize=32)
def robin_basis(n: int, k: float, w: float
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenbasis (left, right, lam) of the 1D operator that
    `diffusion_stencil` applies along one axis of n cells, with the face
    coefficient k = c / h^2 inside and the Robin weight w = b / h on the
    two walls (w = 0: zero-flux walls).

    The wall rows read the trace 1.5 f_0 - 0.5 f_1, so the tridiagonal
    matrix a is not symmetric; the diagonal similarity d a d^-1 with
    (d_{j+1} / d_j)^2 = a_{j,j+1} / a_{j+1,j} is, and splits as q diag(lam)
    q^T (`np.linalg.eigh`). Then a = left diag(lam) right^T with left =
    d^-1 q and right = d q, and right^T left = I (Lynch, Rice & Thomas,
    Numer. Math. 6, 1964). lam < 0 when w > 0; at w = 0 the constants
    give lam = 0 up to round-off. The arrays are cached and read-only."""
    diag = np.full(n, -2.0 * k)
    diag[[0, -1]] = -k - 1.5 * w
    upper, lower = np.full(n - 1, k), np.full(n - 1, k)
    upper[0] = lower[-1] = k + 0.5 * w     # a[0, 1] and a[n-1, n-2]
    d = np.concatenate(([1.0], np.cumprod(np.sqrt(upper / lower))))
    off = np.sqrt(upper * lower)
    lam, q = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    left, right = q / d[:, None], q * d[:, None]
    for a in (left, right, lam):
        a.setflags(write=False)
    return left, right, lam


def robin_inverse(grid: Grid, alpha: float, beta: float, c: float, b: float,
                  scratch: tuple[np.ndarray, ...] | None = None
                  ) -> Callable[..., np.ndarray]:
    """r -> (alpha - beta div(c grad))^-1 r for one number c on every face
    and Robin walls b (b = 0: zero-flux walls), the operator
    alpha f - beta * diffusion_stencil(c, grid, b)(f); needs alpha > 0 or
    b > 0. It is separable in the `robin_basis` pairs of the two axes
    (cached), so an apply is four BLAS products (`separable_inverse`, with
    its `scratch`)."""
    lx, rx, ex = robin_basis(grid.nx, c / grid.hx ** 2, b / grid.hx)
    ly, ry, ey = robin_basis(grid.ny, c / grid.hy ** 2, b / grid.hy)
    scale = 1.0 / (alpha - beta * (ex[:, None] + ey[None, :]))
    return separable_inverse(lx, ly, scale, rx, ry, scratch=scratch)


def materialize_dense(op: StencilOperator) -> np.ndarray:
    """Dense matrix of a stencil operator (test oracle; small grids only)."""
    n = int(np.prod(op.shape))
    if n > 4096:
        raise ValueError(f"refusing to densify an operator with {n} unknowns")
    mat = np.empty((n, n))
    e = np.zeros(op.shape)
    flat = e.reshape(-1)
    for k in range(n):
        flat[k] = 1.0
        mat[:, k] = op.apply(e).reshape(-1)
        flat[k] = 0.0
    return mat
