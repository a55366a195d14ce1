"""Stationary Brinkman flow subsystem on the staggered (MAC) grid.

    -div(2 eta(phi) Dv + lambda(phi) div(v) I - p I) + nu v = f,   div(v) = g,

with zero-traction walls. The discretization is variational: we minimize the
discrete energy

    1/2 int 2 eta |Dv|^2 + lambda (div v)^2 + nu |v|^2  -  int f . v

subject to the divergence constraint with multiplier p. Strain rates dxx, dyy
and div live at cell centers, the shear dxy at interior nodes; omitting the
shear energy at wall nodes imposes the tangential traction condition weakly,
and the normal traction (including the pressure) is the natural boundary
condition of the Lagrangian. The first-order system is symmetric indefinite
by construction and solved with preconditioned MINRES (nu > 0): a block-diagonal
preconditioner with cosine-transform velocity blocks and a Cahouet-Chabard
pressure block keeps the iteration count independent of the grid; variable
viscosity rescales it, cell by cell, by the Jacobi diagonals. The pressure
block is a constant plus a sine-transform correction on the few lowest modes
where the friction term is not negligible (all of them when nu is large).
A dense loop-assembled oracle covers small grids.

The matrix-free apply keeps every array at w's row stride ny + 1, so each
x- or y-shift is a flat offset (ny + 1 or 1) and every operation runs on
contiguous memory.  u and p are copied into zero-padded buffers and au and
ap out of two more; the cell arrays carry a dead slot at j = ny and the node
arrays wall slots at j = 0 and j = ny, set before each scatter that reads
them to the signed zero that leaves every real face's bits as the slice
formula gives them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constitutive import ModelSpec, viscosities
from .core import FaceField, Grid
from .elliptic import (
    SolveReport,
    SolverOptions,
    StencilOperator,
    laplacian_basis,
    separable_inverse,
    solve_minres,
)


@dataclass
class BrinkmanProblem:
    grid: Grid
    eta: np.ndarray      # shear viscosity at cells, > 0
    lam: np.ndarray      # bulk viscosity at cells, >= 0
    nu: float            # friction coefficient, > 0 for solvability
    force: FaceField     # right-hand side at faces
    gamma_v: np.ndarray  # prescribed divergence at cells
    # derived geometry, computed once here and shared by every operator apply
    vu: np.ndarray = field(init=False, repr=False, compare=False)   # u-face volumes
    vw: np.ndarray = field(init=False, repr=False, compare=False)   # w-face volumes
    eta_nodes: np.ndarray = field(init=False, repr=False, compare=False)
    rhs: np.ndarray = field(init=False, repr=False, compare=False)  # packed (u, w, p)

    def __post_init__(self) -> None:
        if not (np.all(np.isfinite(self.eta)) and np.all(np.isfinite(self.lam))):
            raise ValueError("viscosities must be finite")
        if np.any(self.eta <= 0.0):
            raise ValueError("shear viscosity must be strictly positive")
        if np.any(self.lam < 0.0):
            raise ValueError("bulk viscosity must be non-negative")
        if self.eta.shape != self.grid.shape or self.lam.shape != self.grid.shape:
            raise ValueError("viscosity fields must be cell fields")
        self.vu, self.vw = _face_volumes(self.grid)
        self.eta_nodes = _node_eta(self.eta)
        self.rhs = _pack(self.force.u * self.vu, self.force.w * self.vw,
                         -self.gamma_v * self.grid.cell_area)


@dataclass
class BrinkmanSolution:
    x: np.ndarray   # packed (u, w, p) as the solver returned it
    v: FaceField    # views into x
    p: np.ndarray   # view into x
    report: SolveReport
    divergence_residual: float  # max-norm of div(v) - gamma_v


# ---------------------------------------------------------------------------
# Geometry helpers
# ---------------------------------------------------------------------------

def _face_volumes(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Control volumes of u- and w-faces (halved on the walls)."""
    vu = np.full((grid.nx + 1, grid.ny), grid.cell_area)
    vu[0, :] *= 0.5
    vu[-1, :] *= 0.5
    vw = np.full((grid.nx, grid.ny + 1), grid.cell_area)
    vw[:, 0] *= 0.5
    vw[:, -1] *= 0.5
    return vu, vw


def strain_rates(v: FaceField, grid: Grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(dxx, dyy, dxy): normal strains at cells, shear at interior nodes."""
    dxx = (v.u[1:, :] - v.u[:-1, :]) / grid.hx
    dyy = (v.w[:, 1:] - v.w[:, :-1]) / grid.hy
    dudy = (v.u[1:-1, 1:] - v.u[1:-1, :-1]) / grid.hy
    dwdx = (v.w[1:, 1:-1] - v.w[:-1, 1:-1]) / grid.hx
    return dxx, dyy, 0.5 * (dudy + dwdx)


def divergence(v: FaceField, grid: Grid) -> np.ndarray:
    dxx, dyy, _ = strain_rates(v, grid)
    return dxx + dyy


def _node_eta(eta: np.ndarray) -> np.ndarray:
    """Viscosity at interior nodes: arithmetic mean of the four cells."""
    return 0.25 * (eta[:-1, :-1] + eta[1:, :-1] + eta[:-1, 1:] + eta[1:, 1:])


# ---------------------------------------------------------------------------
# Matrix-free operator (volume-weighted symmetric form)
# ---------------------------------------------------------------------------

def _pack(u: np.ndarray, w: np.ndarray, p: np.ndarray) -> np.ndarray:
    return np.concatenate([u.ravel(), w.ravel(), p.ravel()])


def _unpack(x: np.ndarray, grid: Grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    nu_ = (grid.nx + 1) * grid.ny
    nw_ = grid.nx * (grid.ny + 1)
    u = x[:nu_].reshape(grid.nx + 1, grid.ny)
    w = x[nu_:nu_ + nw_].reshape(grid.nx, grid.ny + 1)
    p = x[nu_ + nw_:].reshape(grid.nx, grid.ny)
    return u, w, p


def _times(a: np.ndarray, c: float, out: np.ndarray) -> np.ndarray:
    """a * c written into out, or a itself when c == 1 (the product is a)."""
    return a if c == 1.0 else np.multiply(a, c, out=out)


# the node wall slots (i, ny), (i + 1, 0) before the scatters into au: the
# first is subtracted from au[i, ny - 1], the second added to au[i + 1, 0]
_KEEP_AU = np.array((0.0, -0.0))


def _saddle_apply(problem: BrinkmanProblem):
    """(u, w, p, au, aw, ap) -> writes the volume-weighted residual blocks
    (Av + Gp, G^T v) into au, aw, ap; symmetric.  aw must be C-contiguous.

    With the plain differences dx = u[1:] - u[:-1] and dy = w[:, 1:] -
    w[:, :-1] at cells, and su = u[1:-1, 1:] - u[1:-1, :-1] and sw = w[1:,
    1:-1] - w[:-1, 1:-1] at interior nodes, let d = hy/hx dx + dy = hy div v.
    The cell stresses times the face lengths are
        pxx = 2 eta hy/hx dx + lam d - hy p,
        pyy = 2 eta hx/hy dy + hx/hy (lam d) - hx/hy (hy p),
    the node shear times hx is qx = eta_n hx/hy (su + hy/hx sw), times hy
    it is hy/hx qx, and ap = -hx d = -vol div v.  The coefficient arrays
    are folded once here, every intermediate goes to a scratch array
    allocated once here, and on square cells the unit scalings are skipped.
    Where hx, hy and hy/hx are powers of two, every scaling is exact and the
    bits are those of the unfolded formula.

    Every array here has w's row stride s = ny + 1: a y-neighbour is the
    flat offset 1, an x-neighbour the flat offset s, and each difference and
    each scatter is one contiguous operation on flat views (a strided 2-D
    operand would go through numpy's iterator buffer on every call).  u and
    p are copied once per apply into zero-padded buffers, and au and ap are
    copied out of two more.  The slots (i, ny) of the cell arrays are dead
    and the slots (i, 0) and (i, ny) of the node arrays are walls.  The
    scatters put some of them into the padded column of au and the rest
    onto real faces, so before each such scatter they are set to the signed
    zero that leaves every value as it is (x + -0.0 and x - 0.0 are x, also
    for x = -0.0).  Each real element sees the operations of the slice
    formula in its order, so the bits are its bits."""
    g = problem.grid
    nx, ny = g.shape
    hx, hy = g.hx, g.hy
    ryx, rxy = hy / hx, hx / hy
    s = ny + 1
    nc = nx * s - 1                  # cell slots: all but the last, dead one
    k0, k1 = s + 1, (nx - 1) * s + ny   # node slots (1, 1) .. (nx - 1, ny - 1)

    def padded(rows: int, real: np.ndarray | None = None) -> np.ndarray:
        a = np.zeros((rows, s))
        if real is not None:
            a[:, :real.shape[1]] = real
        return a

    cxx = padded(nx, problem.eta * (2.0 * ryx)).reshape(-1)[:nc]
    cyy = padded(nx, problem.eta * (2.0 * rxy)).reshape(-1)[:nc]
    lam = padded(nx, problem.lam).reshape(-1)[:nc]
    cn = padded(nx + 1)
    cn[1:-1, 1:-1] = problem.eta_nodes * rxy
    cn = cn.reshape(-1)[k0:k1]
    nvu = padded(nx + 1, problem.nu * problem.vu).reshape(-1)
    nvw = (problem.nu * problem.vw).reshape(-1)
    u_pad, p_pad, au_pad, ap_pad = padded(nx + 1), padded(nx), padded(nx + 1), padded(nx)
    uf, pf, auf, apf = (a.reshape(-1) for a in (u_pad, p_pad, au_pad, ap_pad))
    dx, dy, d, hp, pxx, pyy, tmp = (np.empty(nc) for _ in range(7))
    su, sw, qx, qy = (np.empty(k1 - k0) for _ in range(4))
    dead = pyy[ny::s]   # the dead slots of pyy that the scatters put onto w faces

    def walls(q: np.ndarray) -> np.ndarray:
        """Wall slot pairs (i, ny), (i + 1, 0) of a node array."""
        return q[ny - 1:ny - 1 + (nx - 2) * s].reshape(nx - 2, s)[:, :2]

    qx_walls, qy_walls = walls(qx), walls(qy)
    qh_walls = qx_walls if ryx == 1.0 else qy_walls

    def apply(u, w, p, au, aw, ap) -> None:
        u_pad[:, :ny] = u
        p_pad[:, :ny] = p
        w, aw = w.reshape(-1), aw.reshape(-1)
        np.subtract(uf[s:s + nc], uf[:nc], out=dx)
        np.subtract(w[1:], w[:-1], out=dy)
        np.add(_times(dx, ryx, d), dy, out=d)
        np.multiply(d, -hx, out=apf[:nc])
        np.multiply(lam, d, out=d)
        np.multiply(pf[:nc], hy, out=hp)
        np.add(np.multiply(cxx, dx, out=pxx), d, out=pxx)
        np.subtract(pxx, hp, out=pxx)
        np.add(np.multiply(cyy, dy, out=pyy), _times(d, rxy, tmp), out=pyy)
        np.subtract(pyy, _times(hp, rxy, tmp), out=pyy)

        np.subtract(uf[k0:k1], uf[k0 - 1:k1 - 1], out=su)
        np.subtract(w[k0:k1], w[k0 - s:k1 - s], out=sw)
        np.add(su, _times(sw, ryx, sw), out=su)
        np.multiply(cn, su, out=qx)
        qx_walls[...] = _KEEP_AU
        qh = _times(qx, ryx, qy)

        np.multiply(nvu, uf, out=auf)
        auf[s:s + nc] += pxx
        auf[:nc] -= pxx
        auf[k0:k1] += qx
        auf[k0 - 1:k1 - 1] -= qx
        au[...] = au_pad[:, :ny]

        np.multiply(nvw, w, out=aw)
        dead[...] = -0.0
        aw[1:] += pyy
        dead[...] = 0.0
        aw[:-1] -= pyy
        qh_walls[...] = -0.0
        aw[k0:k1] += qh
        qh_walls[...] = 0.0
        aw[k0 - s:k1 - s] -= qh
        ap[...] = ap_pad[:, :ny]
    return apply


def brinkman_operator(problem: BrinkmanProblem) -> StencilOperator:
    g = problem.grid
    n = (g.nx + 1) * g.ny + g.nx * (g.ny + 1) + g.nx * g.ny
    saddle = _saddle_apply(problem)

    def apply(x: np.ndarray) -> np.ndarray:
        out = np.empty(n)
        saddle(*_unpack(x, g), *_unpack(out, g))
        return out

    return StencilOperator(apply=apply, shape=(n,), symmetric=True)


def _jacobi_diagonal(problem: BrinkmanProblem, ce=None, en=None) -> np.ndarray:
    """Positive diagonal: diag(A) on velocities and a SIMPLE-style Schur
    surrogate diag(G^T diag(A)^-1 G) on the pressure.  ce = 2 eta + lam at
    cells and en = eta at interior nodes default to the problem's own; the
    constant-viscosity reference of `_block_preconditioner` passes constants."""
    g = problem.grid
    hx, hy = g.hx, g.hy
    if ce is None:
        ce, en = 2.0 * problem.eta + problem.lam, problem.eta_nodes

    du = problem.nu * problem.vu.copy()
    du[1:, :] += ce * hy / hx
    du[:-1, :] += ce * hy / hx
    du[1:-1, 1:] += en * hx / hy
    du[1:-1, :-1] += en * hx / hy

    dw = problem.nu * problem.vw.copy()
    dw[:, 1:] += ce * hx / hy
    dw[:, :-1] += ce * hx / hy
    dw[1:, 1:-1] += en * hy / hx
    dw[:-1, 1:-1] += en * hy / hx

    dp = (hy * hy) * (1.0 / du[:-1, :] + 1.0 / du[1:, :]) \
        + (hx * hx) * (1.0 / dw[:, :-1] + 1.0 / dw[:, 1:])
    return _pack(du, dw, dp)


# relative size below which nu (-Lap_D)^-1 is dropped from the pressure block
_PRESSURE_EPS = 1e-2


def _block_preconditioner(problem: BrinkmanProblem):
    """Block-diagonal SPD preconditioner for nu > 0.

    Variable eta or lam: P of the reference problem with constant eta, lam =
    their minima, rescaled as a -> s P(s a) with s = sqrt(d_ref / d) from the
    Jacobi diagonals (cell-wise viscosity weights, as in Grinevich &
    Olshanskii, SISC 31, 2009); SPD by construction. Its iteration counts stay
    flat with the grid for smooth viscosity profiles, not across a sharp jump.

    Constant eta and lam: velocity blocks vu (nu + (2 eta + lam) Lx + eta Ly)
    for u, where Lx is the node Laplacian along x (DCT-I, half weight at the
    walls) and Ly the cell Laplacian along y (DCT-II); w is the mirror image.
    They drop the u-w coupling and treat the wall rows as interior ones.
    Pressure block (Cahouet-Chabard): the inverse Schur surrogate
    (nu (-Lap_D)^-1 + 2 eta + lam) / vol. Lap_D is the cell Laplacian with
    zero wall values (DST-II on both axes): with traction walls the wall
    faces carry p itself, so G^T diag(vu, vw)^-1 G = -vol Lap_D exactly and
    the surrogate is exact in the friction limit.  It is applied as
    ce / vol r, ce = 2 eta + lam, plus the DST-II correction nu / (kappa vol)
    on the smallest rectangle of modes (mx, my) that holds every mode with
    nu / kappa > _PRESSURE_EPS ce; nu / kappa falls along both axes, so the
    rectangle is the first mx by my modes.  A mode outside it gets ce / vol,
    within a factor [1 / (1 + _PRESSURE_EPS), 1] of its surrogate value, so
    the block stays SPD; an empty rectangle leaves (ce / vol) I, and where
    nu is large the rectangle is the whole grid.
    """
    g = problem.grid
    eta, lam, nu = float(np.min(problem.eta)), float(np.min(problem.lam)), problem.nu
    ce = 2.0 * eta + lam
    kinds = ("node", "cell", "dirichlet")
    (qxn, lxn), (qxc, lxc), (qxd, lxd) = (laplacian_basis(g.nx, k) for k in kinds)
    (qyn, lyn), (qyc, lyc), (qyd, lyd) = (laplacian_basis(g.ny, k) for k in kinds)
    kx, ky = 1.0 / g.hx ** 2, 1.0 / g.hy ** 2
    vol = g.cell_area

    inv_u = separable_inverse(qxn, qyc, 1.0 / (vol * (
        nu + ce * kx * lxn[:, None] + eta * ky * lyc[None, :])))
    inv_w = separable_inverse(qxc, qyn, 1.0 / (vol * (
        nu + eta * kx * lxc[:, None] + ce * ky * lyn[None, :])))
    low = nu / (kx * lxd[:, None] + ky * lyd[None, :])
    kept = low > _PRESSURE_EPS * ce
    mx, my = int(np.count_nonzero(kept[:, 0])), int(np.count_nonzero(kept[0, :]))
    inv_low = separable_inverse(qxd[:, :mx], qyd[:, :my],
                                low[:mx, :my] / vol) if mx else None
    cp = ce / vol
    corr = np.empty(g.shape)

    def apply(x: np.ndarray) -> np.ndarray:
        out = np.empty(x.size)
        (ru, rw, rp), (zu, zw, zp) = _unpack(x, g), _unpack(out, g)
        inv_u(ru, out=zu)
        inv_w(rw, out=zw)
        np.multiply(rp, cp, out=zp)
        if inv_low is not None:
            zp += inv_low(rp, out=corr)
        return out

    if float(np.max(problem.eta)) == eta and float(np.max(problem.lam)) == lam:
        return apply
    s = np.sqrt(_jacobi_diagonal(problem, ce, eta) / _jacobi_diagonal(problem))
    sa = np.empty(s.size)

    def rescaled(a: np.ndarray) -> np.ndarray:
        out = apply(np.multiply(s, a, out=sa))
        out *= s
        return out
    return rescaled


def solve_brinkman(problem: BrinkmanProblem, opts: SolverOptions) -> BrinkmanSolution:
    """Solve the saddle system with MINRES and `_block_preconditioner`.
    Requires nu > 0: without friction its velocity blocks are singular."""
    if not problem.nu > 0.0:
        raise ValueError(f"solve_brinkman needs friction nu > 0, got {problem.nu}")
    x, report = solve_minres(brinkman_operator(problem), problem.rhs, opts,
                             precond=_block_preconditioner(problem))
    return _solution(problem, x, report)


def _solution(problem: BrinkmanProblem, x: np.ndarray,
              report: SolveReport) -> BrinkmanSolution:
    """Unpack x into views and measure its divergence residual."""
    u, w, p = _unpack(x, problem.grid)
    v = FaceField(u, w)
    div_res = float(np.max(np.abs(divergence(v, problem.grid) - problem.gamma_v)))
    return BrinkmanSolution(x, v, p, report, div_res)


# ---------------------------------------------------------------------------
# Start of a sequence of solves
# ---------------------------------------------------------------------------

_COLLAPSE = 1e-10   # relative norm below which a new rhs adds nothing to a window


class ProjectedStart:
    """Start for a sequence of Brinkman solves (Fischer, CMAME 163, 1998).

    Holds up to `size` solved pairs (x_i, b_i), x_i the packed flow and b_i
    its `BrinkmanProblem.rhs`, oldest first; the start for a new rhs b is
    X c, with c minimising ||b - B c||_2.  Only the stored b_i are used, so
    the start costs no operator apply and stays defined when the operator
    changes between solves.  The pairs are kept as B = Q R (Q orthonormal,
    R upper triangular) and X R^-1, so the start is (X R^-1)(Q^T b): 2 size
    stored vectors of length n, O(size n) work per start and per update.  A full window first
    lets its oldest pair go, by Givens rotations that restore the triangle
    of R without its first column, applied alike to Q and X R^-1.  A new b
    is then orthogonalised against Q by classical Gram-Schmidt, in the free
    row of the buffer; a second pass runs only when the first keeps less
    than 1/sqrt(2) of the norm of b ("twice is enough": Parlett-Kahan;
    Giraud, Langou & Rozloznik, 2005).  One whose remainder falls below
    _COLLAPSE of its norm lies in the stored span and is not stored.  The
    buffer is allocated once, at the first pair.
    """

    def __init__(self, size: int) -> None:
        self._r = np.zeros((size, size))
        self._qx: np.ndarray | None = None   # row i: column i of Q, then of X R^-1
        self._m = 0

    def __len__(self) -> int:
        return self._m

    def start(self, b: np.ndarray) -> np.ndarray | None:
        """X c for the stored pairs, or None while none is stored."""
        if not self._m:
            return None
        qx = self._qx[:self._m]
        return (qx[:, :b.size] @ b) @ qx[:, b.size:]

    def add(self, x: np.ndarray, b: np.ndarray) -> None:
        """Store a solved pair, dropping the oldest one when full."""
        size, n = len(self._r), b.size
        if self._qx is None:
            self._qx = np.empty((size, 2 * n))
        if self._m == size:
            self._drop_oldest()
        m, r, qx = self._m, self._r, self._qx
        q, v, y = qx[:m, :n], qx[m, :n], qx[m, n:]   # the new row is the free one
        h = q @ b
        r[:m, m] = h
        np.subtract(b, h @ q, out=v)
        norm_b, norm = float(np.linalg.norm(b)), float(np.linalg.norm(v))
        if norm < norm_b / math.sqrt(2.0):
            h = q @ v
            v -= h @ q
            r[:m, m] += h
            norm = float(np.linalg.norm(v))
        if not norm > _COLLAPSE * norm_b:
            return
        v /= norm
        np.subtract(x, r[:m, m] @ qx[:m, n:], out=y)
        y /= norm
        r[m, m] = norm
        self._m = m + 1

    def _drop_oldest(self) -> None:
        m, r, qx = self._m, self._r, self._qx
        r[:m, :m - 1] = r[:m, 1:m]   # upper Hessenberg once the first column goes
        for j in range(m - 1):
            a, c = float(r[j, j]), float(r[j + 1, j])
            h = math.hypot(a, c)
            rot = np.array(((a / h, c / h), (-c / h, a / h)))
            r[j:j + 2, j:m - 1] = rot @ r[j:j + 2, j:m - 1]
            r[j + 1, j] = 0.0
            qx[j:j + 2] = rot @ qx[j:j + 2]
        r[m - 1] = 0.0
        r[:, m - 1] = 0.0
        self._m = m - 1


# ---------------------------------------------------------------------------
# Energy identity and capillary force
# ---------------------------------------------------------------------------

def energy_parts(problem: BrinkmanProblem, v: FaceField,
                 p: np.ndarray) -> dict[str, float]:
    """Quadratures of the flow energy identity:
    a(v,v) = 2 eta |Dv|^2 + lam (div v)^2 + nu |v|^2 integrated, the force
    work <f, v> and the pressure work <p, gamma_v>. For the discrete solution
    a(v,v) = force_work + pressure_work up to the solver residual."""
    g = problem.grid
    vol = g.cell_area
    dxx, dyy, dxy = strain_rates(v, g)
    div = dxx + dyy
    vu, vw = problem.vu, problem.vw
    visc_shear = float(np.sum(2.0 * problem.eta * (dxx ** 2 + dyy ** 2))) * vol \
        + float(np.sum(4.0 * problem.eta_nodes * dxy ** 2)) * vol
    visc_bulk = float(np.sum(problem.lam * div ** 2)) * vol
    friction = problem.nu * (float(np.sum(v.u ** 2 * vu)) + float(np.sum(v.w ** 2 * vw)))
    force_work = float(np.sum(problem.force.u * v.u * vu)) \
        + float(np.sum(problem.force.w * v.w * vw))
    pressure_work = float(np.sum(p * problem.gamma_v)) * vol
    return {
        "visc_shear": visc_shear,
        "visc_bulk": visc_bulk,
        "friction": friction,
        "dissipation": visc_shear + visc_bulk + friction,
        "force_work": force_work,
        "pressure_work": pressure_work,
    }


def capillary_force(phi: np.ndarray, sigma: np.ndarray, mu: np.ndarray,
                    n_sigma: np.ndarray, grid: Grid) -> FaceField:
    """Momentum forcing mu grad(phi) + N_sigma grad(sigma) at faces.

    Interior faces use centered differences and arithmetic face averages of
    the scalar prefactors; wall faces carry zero force (exact for phi by the
    Neumann condition, first-order for sigma).
    """
    fu = np.zeros((grid.nx + 1, grid.ny))
    fw = np.zeros((grid.nx, grid.ny + 1))
    mu_f = 0.5 * (mu[1:, :] + mu[:-1, :])
    ns_f = 0.5 * (n_sigma[1:, :] + n_sigma[:-1, :])
    fu[1:-1, :] = mu_f * (phi[1:, :] - phi[:-1, :]) / grid.hx \
        + ns_f * (sigma[1:, :] - sigma[:-1, :]) / grid.hx
    mu_f = 0.5 * (mu[:, 1:] + mu[:, :-1])
    ns_f = 0.5 * (n_sigma[:, 1:] + n_sigma[:, :-1])
    fw[:, 1:-1] = mu_f * (phi[:, 1:] - phi[:, :-1]) / grid.hy \
        + ns_f * (sigma[:, 1:] - sigma[:, :-1]) / grid.hy
    return FaceField(fu, fw)


def brinkman_problem(phi: np.ndarray, sigma: np.ndarray, mu: np.ndarray,
                     n_sigma: np.ndarray, gamma_v: np.ndarray,
                     model: ModelSpec) -> BrinkmanProblem:
    """The model's Brinkman problem at (phi, sigma, mu) with N_sigma(phi, sigma)
    given, and divergence gamma_v."""
    eta, lam = viscosities(phi, model.mobvis)
    force = capillary_force(phi, sigma, mu, n_sigma, model.grid)
    return BrinkmanProblem(model.grid, eta, lam, model.params.nu, force, gamma_v)


# ---------------------------------------------------------------------------
# Dense oracle (loop assembly, independent of the vectorized operator)
# ---------------------------------------------------------------------------

def loop_assemble_dense(problem: BrinkmanProblem) -> tuple[np.ndarray, np.ndarray]:
    """Assemble the saddle matrix entry-by-entry from the energy quadrature.

    Scalar index loops, no numpy slicing: this is the independent oracle path
    used to cross-check the matrix-free operator and for dense direct solves.
    """
    g = problem.grid
    nx, ny, hx, hy = g.nx, g.ny, g.hx, g.hy
    vol = g.cell_area
    n_u = (nx + 1) * ny
    n_w = nx * (ny + 1)
    n = n_u + n_w + nx * ny

    def iu(i: int, j: int) -> int:
        return i * ny + j

    def iw(i: int, j: int) -> int:
        return n_u + i * (ny + 1) + j

    def ip(i: int, j: int) -> int:
        return n_u + n_w + i * ny + j

    mat = np.zeros((n, n))
    rhs = np.zeros(n)

    # cell terms: (2 eta + lam) dxx^2-type entries and the lam cross coupling
    for i in range(nx):
        for j in range(ny):
            e = problem.eta[i, j]
            la = problem.lam[i, j]
            h11 = 2.0 * e + la
            h12 = la
            stencil = [(iu(i + 1, j), 1.0 / hx, 0.0), (iu(i, j), -1.0 / hx, 0.0),
                       (iw(i, j + 1), 0.0, 1.0 / hy), (iw(i, j), 0.0, -1.0 / hy)]
            for a, ax, ay in stencil:
                for b, bx, by in stencil:
                    mat[a, b] += vol * (h11 * (ax * bx + ay * by)
                                        + h12 * (ax * by + ay * bx))
            # pressure coupling from -p (div v - gamma) vol
            for a, ax, ay in stencil:
                mat[a, ip(i, j)] += -vol * (ax + ay)
                mat[ip(i, j), a] += -vol * (ax + ay)
            rhs[ip(i, j)] = -vol * problem.gamma_v[i, j]

    # interior-node shear terms: 4 eta_n dxy^2
    for i in range(1, nx):
        for j in range(1, ny):
            en = 0.25 * (problem.eta[i - 1, j - 1] + problem.eta[i, j - 1]
                         + problem.eta[i - 1, j] + problem.eta[i, j])
            stencil = [(iu(i, j), 0.5 / hy), (iu(i, j - 1), -0.5 / hy),
                       (iw(i, j), 0.5 / hx), (iw(i - 1, j), -0.5 / hx)]
            for a, ca in stencil:
                for b, cb in stencil:
                    mat[a, b] += 4.0 * en * ca * cb * vol

    # friction and force with half control volumes on the walls
    for i in range(nx + 1):
        for j in range(ny):
            vuf = vol * (0.5 if i in (0, nx) else 1.0)
            mat[iu(i, j), iu(i, j)] += problem.nu * vuf
            rhs[iu(i, j)] += problem.force.u[i, j] * vuf
    for i in range(nx):
        for j in range(ny + 1):
            vwf = vol * (0.5 if j in (0, ny) else 1.0)
            mat[iw(i, j), iw(i, j)] += problem.nu * vwf
            rhs[iw(i, j)] += problem.force.w[i, j] * vwf

    return mat, rhs


def dense_oracle_solve(problem: BrinkmanProblem) -> BrinkmanSolution:
    """Direct dense solve on small grids; raises on singular systems."""
    g = problem.grid
    if g.nx > 12 or g.ny > 12:
        raise ValueError("dense oracle is restricted to grids up to 12x12")
    mat, rhs = loop_assemble_dense(problem)
    cond = np.linalg.cond(mat)
    if not np.isfinite(cond) or cond > 1e13:
        raise np.linalg.LinAlgError(
            f"Brinkman saddle matrix is numerically singular (cond={cond:.3g})")
    x = np.linalg.solve(mat, rhs)
    report = SolveReport(True, 0, float(np.linalg.norm(rhs - mat @ x)), 0.0)
    return _solution(problem, x, report)
