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
by construction and needs a finite nu > 0, which `BrinkmanProblem` checks
where a problem is made. At constant viscosities the whole saddle
system has an exact inverse K^-1: a 3 x 3 solve per sine/cosine mode on the
interior faces and pressure modes, and a capacitance solve on the wall
faces and the constant pressure. Such a solve is K^-1 b, refined once where
rounding leaves it above the tolerance (one step of fixed-precision
iterative refinement reaches the backward-stable floor: Skeel, Math. Comp.
35, 1980), and reports its true residual; it makes no Krylov iteration.
Variable viscosities are solved with MINRES and the block-diagonal
preconditioner of `_block_preconditioner`: cosine-transform u and w blocks
of a constant reference (the minimum viscosities) and a Cahouet-Chabard
pressure part (a constant plus a sine-transform correction on the lowest
modes where friction is not negligible, all of them when nu is large),
rescaled cell by cell by the Jacobi diagonals; a sequence of such solves
starts each from the least-squares mix of its last solved flows
(`ProjectedStart`). A dense loop-assembled oracle covers small grids.

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
from .core import FaceField, Grid, bits
from .elliptic import (
    SolveReport,
    StencilOperator,
    laplacian_basis,
    separable_inverse,
    solve_minres,
    trig_table,
    true_report,
)


@dataclass
class BrinkmanProblem:
    grid: Grid
    eta: np.ndarray      # shear viscosity at cells, > 0
    lam: np.ndarray      # bulk viscosity at cells, >= 0
    nu: float            # friction coefficient, finite and > 0
    force: FaceField     # right-hand side at faces
    gamma_v: np.ndarray  # prescribed divergence at cells
    # derived geometry, computed once here and shared by every operator apply
    vu: np.ndarray = field(init=False, repr=False, compare=False)   # u-face volumes
    vw: np.ndarray = field(init=False, repr=False, compare=False)   # w-face volumes
    eta_nodes: np.ndarray = field(init=False, repr=False, compare=False)
    rhs: np.ndarray = field(init=False, repr=False, compare=False)  # packed (u, w, p)
    # (eta, lam) where each takes one value on every cell, otherwise None
    constant: tuple[float, float] | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # a NaN or an infinity shows in the extremes of its field
        eta_lo, eta_hi, lam_lo, lam_hi = (float(f(a)) for a in (self.eta, self.lam)
                                          for f in (np.min, np.max))
        if not all(map(math.isfinite, (eta_lo, eta_hi, lam_lo, lam_hi))):
            raise ValueError("viscosities must be finite")
        if eta_lo <= 0.0:
            raise ValueError("shear viscosity must be strictly positive")
        if lam_lo < 0.0:
            raise ValueError("bulk viscosity must be non-negative")
        if not (math.isfinite(self.nu) and self.nu > 0.0):
            raise ValueError(f"friction must be finite with nu > 0, got nu = {self.nu}")
        if self.eta.shape != self.grid.shape or self.lam.shape != self.grid.shape:
            raise ValueError("viscosity fields must be cell fields")
        self.constant = ((float(self.eta.flat[0]), float(self.lam.flat[0]))
                         if eta_lo == eta_hi and lam_lo == lam_hi else None)
        self.vu, self.vw = face_volumes(self.grid)
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

def face_volumes(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
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
    """dxx + dyy at cells: the normal strains of `strain_rates`, without
    its node shear."""
    return (v.u[1:, :] - v.u[:-1, :]) / grid.hx + (v.w[:, 1:] - v.w[:, :-1]) / grid.hy


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


def _node_sines(n: int) -> np.ndarray:
    """The DST-I on the n + 1 nodes of an axis in the frame of its n cell
    modes, s[i, k] = sqrt(2 / n) sin(pi k i / n), read off `trig_table`.
    The wall rows i = 0, n and the column k = 0 are zero, so s maps the n - 1
    interior modes to node values that vanish on the walls."""
    s = np.sqrt(2.0 / n) * trig_table(n)[1][np.outer(2 * np.arange(n + 1), np.arange(n)) % (4 * n)]
    s[[0, n], :] = 0.0
    s[:, 0] = 0.0
    return s


def _saddle_inverse(grid: Grid, eta: float, lam: float, nu: float):
    """Apply x -> K^-1 x, packed in and out, of the exact inverse of the
    whole saddle matrix K at constant eta, lam and nu > 0.

    Interior faces and pressure modes (u for i = 1..nx-1, w for j = 1..ny-1,
    p but its constant mode): with the wall faces and the constant pressure
    held at zero, A_vv is the free-slip operator, since the traction walls
    leave out the shear at the wall nodes.  In the orthonormal bases u:
    DST-I(x) x DCT-II(y), w: DCT-II(x) x DST-I(y) and p: DCT-II(x) x
    DCT-II(y) the system is one 3 x 3 block [[M, g], [g^T, 0]] per mode (k,
    l), M = vol ((nu + eta |s|^2) I + (eta + lam) s s^T) and g = -vol s with
    s = (2 sin(pi k / 2 nx) / hx, 2 sin(pi l / 2 ny) / hy).  Its inverse,
    through sigma = g^T M^-1 g = vol |s|^2 / (a + (eta + lam) |s|^2), a =
    nu + eta |s|^2, is in closed form:
        v = (r_v - s (s . r_v) / |s|^2) / (vol a) - s r_p / (vol |s|^2),
        p = -((s . r_v) + (a + (eta + lam) |s|^2) r_p) / (vol |s|^2).
    All three share one nx by ny mode frame: the sine bases are padded with
    a zero mode (k = 0 for u, l = 0 for w), where s has a zero entry and the
    padding decouples; the mode (0, 0) is set to zero.

    Wall faces (u on the x-walls L and R, w on the y-walls B and T) and the
    constant pressure mode p0: they are eliminated by their capacitance
    matrix S = K_BB - K_BI K_II^-1 K_IB (Buzbee, Dorr, George & Golub, SINUM
    8, 1971; Proskurowski & Widlund, Math. Comp. 30, 1976).  A wall face
    couples only to the face next to it (u at i = 1 or nx - 1, w at j = 1 or
    ny - 1), through lam and p to the faces and the pressure of its wall
    cell, and to the wall face across a corner.  So K_IB maps the cosine
    mode l of L or R (Cy) to column l of the mode frame and the mode k of B
    or T (Cx) to row k, and S in those modes is built from elementwise
    products of the mode arrays, with no transform and no probing.  The wall
    modes are taken as (L + R, L - R) / sqrt(2) and (B + T, B - T) /
    sqrt(2): S commutes with the two mirror reflections, so in these modes
    it splits into four parity classes of about (nx + ny) / 2 rows.  p0
    touches only the modes l = 0 of L - R and k = 0 of B - T (its K_BI is
    the mode (0, 0) of their lifts), so it borders their class with a zero
    diagonal.  In each class the wall modes of L and R decouple from each
    other (a wall mode's lift fills one column), so the four classes, padded
    to one size, are inverted at once through the Schur complements of those
    diagonals.  A lift meets only the modes of its parity, so one mode array
    holds the lifts of L +- R, another those of B +- T.

    An apply: six transform products, which also gather the wall modes
    (the x basis of u carries L +- R as two extra columns; B +- T are read
    off the x-transformed w), the per-mode solve, the wall traces of it
    (products with two rows or columns), the solve with S, the spectral
    correction by K_IB of the wall values, the per-mode solve again and six
    inverse products, which also write the walls.  The last product of u
    runs along x, where its rounding costs least."""
    nx, ny = grid.shape
    hx, hy, vol = grid.hx, grid.hy, grid.cell_area
    ce = 2.0 * eta + lam
    (cx, sx_b), (cy, sy_b) = ((laplacian_basis(n, "cell")[0], _node_sines(n)) for n in grid.shape)
    sx = 2.0 * np.sin(0.5 * np.pi * np.arange(nx) / nx)[:, None] / hx
    sy = 2.0 * np.sin(0.5 * np.pi * np.arange(ny) / ny)[None, :] / hy
    h2 = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)

    # the per-mode solve on (u, w, p) stacks of full mode arrays (a
    # broadcast operand costs more than a full one); 1 / |s|^2 is zero at
    # the mode (0, 0).  q = ((s . r_v) / a + r_p) / (vol |s|^2) gives y_v =
    # r_v / (vol a) - s q, and y_p is formed next to it.
    s_v = np.stack(np.broadcast_arrays(sx, sy))
    s2 = s_v[0] ** 2 + s_v[1] ** 2
    inv_s2 = 1.0 / np.where(s2 > 0.0, s2, np.inf)
    a = nu + eta * s2
    ia = 1.0 / (vol * a)
    c_t = np.stack([-inv_s2 / vol, ia * inv_s2])                      # t -> (y_p, q)
    c_p = np.stack([-(a + (eta + lam) * s2) * inv_s2 / vol, inv_s2 / vol])   # r_p -> (y_p, q)
    t, tmp = np.empty((nx, ny)), np.empty((2, nx, ny))

    def mix(r: np.ndarray, y: np.ndarray) -> None:
        """y[:3] = K_II^-1 r per mode, r a (u, w, p) stack; y[3] is q."""
        np.add(*np.multiply(s_v, r[:2], out=tmp), out=t)
        np.add(np.multiply(c_t, t, out=y[2:]), np.multiply(c_p, r[2], out=tmp), out=y[2:])
        np.subtract(np.multiply(r[:2], ia, out=y[:2]), np.multiply(s_v, y[3], out=tmp),
                    out=y[:2])

    # K_IB in the mode frame, component c = u, w, p: for the wall modes L +
    # R, L - R (index l) a_lr[c, wall, k] * lr_scale[c, l], and for B + T, B
    # - T (index k) bt_scale[c, k] * b_bt[c, l, wall]
    c1, c2 = -ce * hy / hx, -ce * hx / hy
    a_lr = h2 @ np.stack([c1 * sx_b[[1, nx - 1]], lam * hy * np.stack([-cx[0], cx[nx - 1]]),
                          hy * np.stack([cx[0], -cx[nx - 1]])])
    lr_scale = np.stack([np.ones((1, ny)), sy, np.ones((1, ny))])
    b_bt = np.stack([lam * hx * np.stack([-cy[0], cy[ny - 1]], axis=1),
                     c2 * sy_b[[1, ny - 1]].T, hx * np.stack([cy[0], -cy[ny - 1]], axis=1)]) @ h2
    bt_scale = np.stack([sx, np.ones((nx, 1)), np.ones((nx, 1))])

    # S in the wall modes.  K_BB is diagonal but for the two wall faces at
    # each corner, coupled by +lam (L-B, R-T) or -lam (L-T, R-B): lam
    # y_corner x_corner in the modes, and for p0.  L + R and B + T are odd
    # under x -> -x and y -> -y, L - R, B - T and p0 even; the mode l of L,
    # R has parity (-1)^l under y -> -y, the mode k of B, T (-1)^k under x ->
    # -x.  So L + R (L - R) meets only the odd (even) k, and B + T (B - T)
    # only the odd (even) l: mode k meets the wall k_wall[k].
    x_corner = h2 @ np.stack([cx[0], -cx[nx - 1]])
    y_corner = h2 @ np.stack([cy[0], -cy[ny - 1]])
    k_wall, l_wall = (np.arange(nx) + 1) % 2, (np.arange(ny) + 1) % 2
    # The forward frames lie in one flat array: f_lr (L + R and L - R, 2 by
    # ny), the (u, w, p) mode stack, f_bt (B + T and B - T, nx by 2) and one
    # more slot, zero, where the padding rows of the classes read.  The
    # output frames z_lr, the stack with q as a fourth array, and z_bt lie
    # alike in another, where the padding rows write.
    n_m = nx * ny
    n_bt, n_zbt = 2 * ny + 3 * n_m, 2 * ny + 4 * n_m
    fwd, bwd = np.zeros(n_bt + 2 * nx + 1), np.empty(n_zbt + 2 * nx + 1)
    f_lr, f_m, f_bt = (fwd[:2 * ny].reshape(2, ny), fwd[2 * ny:n_bt].reshape(3, nx, ny),
                       fwd[n_bt:-1].reshape(nx, 2))
    z_lr, z_m, z_bt = (bwd[:2 * ny].reshape(2, ny), bwd[2 * ny:n_zbt].reshape(4, nx, ny),
                       bwd[n_zbt:-1].reshape(nx, 2))
    y1, lifted = np.empty((4, nx, ny)), np.empty((3, nx, ny))

    # the lifts and their per-mode solves, in stacks the apply overwrites
    np.multiply(a_lr[:, k_wall, np.arange(nx), None], lr_scale, out=lifted)
    np.multiply(bt_scale, b_bt[:, np.arange(ny), l_wall][:, None, :], out=f_m)
    mix(lifted, y1)
    mix(f_m, z_m)
    own_lr, own_bt = (np.einsum("ckl,ckl->kl", f, y[:3]) for f, y in ((lifted, y1), (f_m, z_m)))
    d_lr = np.ones((2, ny + 1))                  # column ny: padding
    d_lr[:, :ny] = ce * hy / hx + 0.5 * nu * vol - np.eye(2)[k_wall].T @ own_lr
    d_bt = np.ones((2, nx + 2))                  # column nx: padding, nx + 1: p0
    d_bt[:, :nx] = ce * hx / hy + 0.5 * nu * vol - (own_bt @ np.eye(2)[l_wall]).T
    d_bt[1, nx + 1] = 0.0
    cross = np.zeros((ny + 1, nx + 2))           # row ny, column nx: padding, nx + 1: p0
    cross[:ny, :nx] = (lam * np.outer(x_corner[k_wall, np.arange(nx)],
                                      y_corner[l_wall, np.arange(ny)])
                       - np.einsum("ckl,ckl->kl", lifted, z_m[:3])).T
    cross[0, nx + 1] = a_lr[2, 1, 0]

    # class 2 p + r holds the modes l = 1 - r, 3 - r, ... of L +- R, then k =
    # 1 - p, 3 - p, ... of B +- T, and p0 last in class 3; a slot past the
    # grid is padding, unit on the diagonal of S, and reads and writes the
    # last slot of fwd (zero) and bwd
    n_l, n_k = (ny + 1) // 2, (nx + 1) // 2 + 1
    p, r = np.arange(4)[:, None] // 2, np.arange(4)[:, None] % 2
    ls, ks = 1 - r + 2 * np.arange(n_l), 1 - p + 2 * np.arange(n_k)
    li, ki = np.minimum(ls, ny), np.minimum(ks, nx)
    ki[3, -1] = nx + 1
    e = d_bt[r, ki][:, :, None] * np.eye(n_k)
    e[3, 0, -1] = e[3, -1, 0] = b_bt[2, 0, 1]
    s_inv = _bordered_inverse(d_lr[p, li], cross[li[:, :, None], ki[:, None, :]], e)
    n_c = n_l + n_k
    gather, scatter = (np.concatenate([np.where(ls < ny, p * ny + ls, pad),
                                       np.where(ks < nx, start + 2 * ks + r, pad)], axis=1)
                       for start, pad in ((n_bt, fwd.size - 1), (n_zbt, bwd.size - 1)))
    gather[3, n_c - 1] = 2 * ny + 2 * n_m   # p0; set after the mix, not scattered

    # the sine basis of u along x with the wall modes L +- R as two extra
    # columns, first
    ext_x = np.zeros((nx + 1, nx + 2))
    ext_x[[0, nx], :2], ext_x[:, 2:] = h2, sx_b
    ext_xt, cxt, cyt, syt = (np.ascontiguousarray(m.T) for m in (ext_x, cx, cy, sy_b))
    # K_IB of the wall values z: lift_cols[c]^T @ lift_rows[c] in the mode
    # frame, with z_lr * lr_scale in rows 0, 1 of lift_rows and z_bt^T *
    # bt_scale^T in rows 2, 3 of lift_cols, written by each apply
    lift_cols, lift_rows = np.empty((3, 4, nx)), np.empty((3, 4, ny))
    lift_cols[:, :2] = a_lr
    lift_rows[:, 2:] = b_bt.transpose(0, 2, 1)
    bt_row = bt_scale.transpose(0, 2, 1)
    t_u, t_w, t_p = np.empty((nx + 2, ny)), np.empty((nx, ny + 1)), np.empty((nx, ny))
    w_bt = np.empty((nx, 2))
    pt, qt = np.empty((3, 2, ny)), np.empty((3, nx, 2))
    tr_lr, tr_bt = np.empty((2, ny)), np.empty((nx, 2))
    g_c, z_c = np.empty((4, n_c, 1)), np.empty((4, n_c, 1))
    f_u, z_u = fwd[:2 * ny + n_m].reshape(nx + 2, ny), bwd[:2 * ny + n_m].reshape(nx + 2, ny)

    def apply(x: np.ndarray) -> np.ndarray:
        out = np.empty(x.size)
        (bu, bw, bp), (zu, zw, zp) = _unpack(x, grid), _unpack(out, grid)
        np.dot(np.dot(ext_xt, bu, out=t_u), cy, out=f_u)
        np.dot(np.dot(cxt, bw, out=t_w), sy_b, out=f_m[1])
        np.dot(t_w[:, ::ny], h2, out=f_bt)
        np.dot(np.dot(cxt, bp, out=t_p), cy, out=f_m[2])
        mix(f_m, y1)
        np.multiply(np.matmul(a_lr, y1[:3], out=pt), lr_scale, out=pt)
        np.subtract(f_lr, np.add.reduce(pt, axis=0, out=tr_lr), out=f_lr)
        np.multiply(np.matmul(y1[:3], b_bt, out=qt), bt_scale, out=qt)
        np.subtract(f_bt, np.add.reduce(qt, axis=0, out=tr_bt), out=f_bt)
        bwd[scatter] = np.matmul(s_inv, np.take(fwd, gather[..., None], out=g_c),
                                 out=z_c)[..., 0]
        np.multiply(z_bt.T, bt_row, out=lift_cols[:, 2:])
        np.multiply(z_lr, lr_scale, out=lift_rows[:, :2])
        np.subtract(f_m, np.matmul(lift_cols.transpose(0, 2, 1), lift_rows, out=lifted),
                    out=f_m)
        mix(f_m, z_m)
        z_m[2, 0, 0] = z_c[3, n_c - 1, 0]   # p0, which the mix set to zero
        np.dot(ext_x, np.dot(z_u, cyt, out=t_u), out=zu)
        np.dot(z_m[1], syt, out=t_w)
        t_w[:, ::ny] = np.dot(z_bt, h2, out=w_bt)
        np.dot(cx, t_w, out=zw)
        np.dot(np.dot(cx, z_m[2], out=t_p), cyt, out=zp)
        return out
    return apply


def _bordered_inverse(d: np.ndarray, w: np.ndarray, e: np.ndarray) -> np.ndarray:
    """The inverses of a stack of matrices [[diag(d), w], [w^T, e]] (d: (b,
    n), w: (b, n, m), e: (b, m, m)), through the Schur complement t = e - w^T
    diag(d)^-1 w of the diagonal block: one batched inverse of the size of
    e."""
    n, f = d.shape[1], w / d[..., None]
    ti = np.linalg.inv(e - w.transpose(0, 2, 1) @ f)
    ft = f @ ti
    out = np.empty((len(d), n + e.shape[1], n + e.shape[1]))
    out[:, :n, :n] = ft @ f.transpose(0, 2, 1)
    out[:, np.arange(n), np.arange(n)] += 1.0 / d
    out[:, :n, n:], out[:, n:, :n], out[:, n:, n:] = -ft, -ft.transpose(0, 2, 1), ti
    return out


def _block_preconditioner(problem: BrinkmanProblem):
    """Block-diagonal SPD preconditioner for the MINRES solve of variable
    viscosities: a -> s P(s a), P that of the reference problem with
    constant eta, lam = their minima and s = sqrt(d_ref / d) from the
    Jacobi diagonals (cell-wise viscosity weights, as in Grinevich &
    Olshanskii, SISC 31, 2009); SPD by construction, also at constant
    viscosities, where s is 1 up to rounding.  Its iteration counts stay
    flat with the grid for smooth viscosity profiles, not across a sharp
    jump.

    P's u block is vu (nu + ce Lx + eta Ly)^-1, ce = 2 eta + lam, Lx the
    node Laplacian along x (DCT-I, half weight at the walls) and Ly the cell
    Laplacian along y (DCT-II); its w block is the mirror image.  They drop
    the u-w coupling and treat the wall rows as interior ones.  P's pressure
    block is the Cahouet-Chabard inverse Schur surrogate (nu (-Lap_D)^-1 +
    ce) / vol, Lap_D the cell Laplacian with zero wall values (DST-II on
    both axes): with traction walls the wall faces carry p itself, so G^T
    diag(vu, vw)^-1 G = -vol Lap_D exactly and the surrogate is exact in the
    friction limit.  It is applied as ce / vol r plus the DST-II correction
    nu / (kappa vol) on the smallest rectangle of modes, the first mx by my
    (nu / kappa falls along both axes), that holds every mode with nu /
    kappa > _PRESSURE_EPS ce.  A mode outside it gets ce / vol, within a
    factor [1 / (1 + _PRESSURE_EPS), 1] of its surrogate value, so the block
    stays SPD; the rectangle is empty, leaving (ce / vol) I, where nu is
    small, and the whole grid where it is large."""
    g = problem.grid
    eta, lam, nu = float(np.min(problem.eta)), float(np.min(problem.lam)), problem.nu
    kx, ky = 1.0 / g.hx ** 2, 1.0 / g.hy ** 2
    vol, ce = g.cell_area, 2.0 * eta + lam
    (qxn, lxn), (qxc, lxc), (qxd, lxd) = (laplacian_basis(g.nx, k)
                                          for k in ("node", "cell", "dirichlet"))
    (qyn, lyn), (qyc, lyc), (qyd, lyd) = (laplacian_basis(g.ny, k)
                                          for k in ("node", "cell", "dirichlet"))
    inv_u = separable_inverse(qxn, qyc, 1.0 / (vol * (
        nu + ce * kx * lxn[:, None] + eta * ky * lyc[None, :])))
    inv_w = separable_inverse(qxc, qyn, 1.0 / (vol * (
        nu + eta * kx * lxc[:, None] + ce * ky * lyn[None, :])))
    low = nu / (kx * lxd[:, None] + ky * lyd[None, :])
    kept = low > _PRESSURE_EPS * ce
    mx, my = int(np.count_nonzero(kept[:, 0])), int(np.count_nonzero(kept[0, :]))
    inv_low = separable_inverse(qxd[:, :mx], qyd[:, :my], low[:mx, :my] / vol) if mx else None
    cp = ce / vol
    s = np.sqrt(_jacobi_diagonal(problem, ce, eta) / _jacobi_diagonal(problem))
    sa, corr = np.empty(s.size), np.empty(g.shape)

    def apply(a: np.ndarray) -> np.ndarray:
        out = np.empty(a.size)
        (ru, rw, rp), (zu, zw, zp) = _unpack(np.multiply(s, a, out=sa), g), _unpack(out, g)
        inv_u(ru, out=zu)
        inv_w(rw, out=zw)
        np.multiply(rp, cp, out=zp)
        if inv_low is not None:
            zp += inv_low(rp, out=corr)
        out *= s
        return out
    return apply


def _exact_solve(problem: BrinkmanProblem, tol: float, x0: np.ndarray | None,
                 pair) -> BrinkmanSolution:
    """The solve at constant viscosities, pair = (operator, K^-1) of the
    problem's grid, nu and `constant` eta and lam: x = x0, or K^-1 rhs
    without it; a start that misses tol is refined once, x += K^-1 (rhs -
    A x), and the report (`true_report`, 0 iterations) is of the true
    residual.  A start that meets tol costs one apply of A, a refined two."""
    op, exact = pair
    b = problem.rhs
    x = exact(b) if x0 is None else x0.copy()
    r = b - op.apply(x)
    if true_report(b, r, 0, tol).rel_residual > tol:
        x += exact(r)
        r = b - op.apply(x)
    return _solution(problem, x, true_report(b, r, 0, tol))


def solve_brinkman(problem: BrinkmanProblem, tol: float,
                   x0: np.ndarray | None = None, exact=None) -> BrinkmanSolution:
    """Solve the saddle system to the relative tolerance tol from the packed
    start x0.  At constant eta and lam it is `_exact_solve` with exact, the
    (operator, K^-1) pair of their grid and nu that a `ProjectedStart`
    keeps, or a pair built for the call without it; otherwise MINRES with
    `_block_preconditioner` from x0 (zero when not given), which the call
    builds and lets go."""
    if problem.constant is not None:
        if exact is None:
            exact = brinkman_operator(problem), _saddle_inverse(problem.grid, *problem.constant,
                                                                problem.nu)
        return _exact_solve(problem, tol, x0, exact)
    x, report = solve_minres(brinkman_operator(problem), problem.rhs, tol, x0,
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

_COLLAPSE = 1e-10   # relative singular value below which a window direction is dropped


class ProjectedStart:
    """Start for a sequence of Brinkman solves (Fischer, CMAME 163, 1998).

    Holds up to `size` solved pairs (x_i, b_i), x_i the packed flow and b_i
    its `BrinkmanProblem.rhs`, oldest first, as rows of two (size, n) arrays
    made at the first pair; a full window drops its oldest pair first, and a
    b equal to one it holds is not stored again.  The start for a new rhs b
    is X c, with c minimising ||b - B c||_2 by one `np.linalg.lstsq` that
    counts singular values below _COLLAPSE of the largest as zero.  It reads
    only the stored b_i, so it costs no operator apply and stays defined
    when the operator changes between solves.

    At constant viscosities a solve is `_exact_solve`, the exact inverse
    refined once, with no MINRES, and leaves the window alone; beside it
    the window keeps the one exact pair (operator, K^-1) that the solve
    reads, keyed by the bits of the grid, nu and the `constant` eta and lam
    and dropped before another is built, so a run builds it once.  A
    variable-viscosity solve keeps nothing it built.
    """

    def __init__(self, size: int) -> None:
        self._size = size
        self._x = self._b = None   # (size, n): the stored x_i and b_i, oldest first
        self._m = 0
        self._key = self._exact = None   # the exact pair (operator, K^-1) and its bits

    def __len__(self) -> int:
        return self._m

    def solve(self, problem: BrinkmanProblem, tol: float) -> BrinkmanSolution:
        """`solve_brinkman` to tol: at constant viscosities with the kept
        exact pair (rebuilt when the key changed) from K^-1 rhs;
        otherwise from the start for problem.rhs (zero while no pair is
        stored), and a converged solution joins the window."""
        if problem.constant is not None:
            key = bits(problem.grid, problem.nu, *problem.constant)
            if key != self._key:
                self._key = self._exact = None
                self._exact = (brinkman_operator(problem),
                               _saddle_inverse(problem.grid, *problem.constant, problem.nu))
                self._key = key
            return solve_brinkman(problem, tol, None, self._exact)
        sol = solve_brinkman(problem, tol, self.start(problem.rhs))
        if sol.report.converged:
            self.add(sol.x, problem.rhs)
        return sol

    def start(self, b: np.ndarray) -> np.ndarray | None:
        """X c for the stored pairs, or None while none is stored."""
        if not self._m:
            return None
        c = np.linalg.lstsq(self._b[:self._m].T, b, rcond=_COLLAPSE)[0]
        return c @ self._x[:self._m]

    def add(self, x: np.ndarray, b: np.ndarray) -> None:
        """Store a solved pair, the oldest one dropped first when full."""
        if self._x is None:
            self._x, self._b = np.empty((self._size, x.size)), np.empty((self._size, b.size))
        if self._m == self._size:
            self._m -= 1
            self._x[:-1], self._b[:-1] = self._x[1:], self._b[1:]
        if not any(np.array_equal(b, kept) for kept in self._b[:self._m]):
            self._x[self._m], self._b[self._m] = x, b
            self._m += 1


# ---------------------------------------------------------------------------
# Energy identity and capillary force
# ---------------------------------------------------------------------------

def energy_parts(problem: BrinkmanProblem, v: FaceField,
                 p: np.ndarray) -> dict[str, float]:
    """Quadratures of the flow energy identity:
    a(v,v) = 2 eta |Dv|^2 + lam (div v)^2 + nu |v|^2 integrated, the force
    work <f, v> and the pressure work <p, gamma_v>. For the discrete solution
    a(v,v) = force_work + pressure_work up to the solver residual.

    The strains are those of `strain_rates`; each quadrature is one vdot of
    (weight * difference) with the difference, the mesh factors applied to
    the sums (4 eta_nodes dxy^2 = eta_nodes (dudy + dwdx)^2)."""
    g = problem.grid
    vol, hx, hy = g.cell_area, g.hx, g.hy
    du = np.subtract(v.u[1:], v.u[:-1])           # hx dxx
    dw = np.subtract(v.w[:, 1:], v.w[:, :-1])     # hy dyy
    weighted = np.multiply(problem.eta, du)
    normal = float(np.vdot(weighted, du)) * (hy / hx)
    normal += float(np.vdot(np.multiply(problem.eta, dw, out=weighted), dw)) * (hx / hy)
    shear = np.subtract(v.u[1:-1, 1:], v.u[1:-1, :-1])
    shear /= hy
    dwdx = np.subtract(v.w[1:, 1:-1], v.w[:-1, 1:-1])
    dwdx /= hx
    shear += dwdx                                  # 2 dxy
    visc_shear = 2.0 * normal + float(np.vdot(problem.eta_nodes * shear, shear)) * vol
    du /= hx
    dw /= hy
    du += dw                                       # div v
    visc_bulk = float(np.vdot(np.multiply(problem.lam, du, out=weighted), du)) * vol
    vu_u, vw_w = problem.vu * v.u, problem.vw * v.w
    friction = problem.nu * (float(np.vdot(vu_u, v.u)) + float(np.vdot(vw_w, v.w)))
    force_work = float(np.vdot(vu_u, problem.force.u)) + float(np.vdot(vw_w, problem.force.w))
    pressure_work = float(np.vdot(p, problem.gamma_v)) * vol
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
    res, norm_b = float(np.linalg.norm(rhs - mat @ x)), float(np.linalg.norm(rhs))
    report = SolveReport(True, 0, res, res / norm_b if norm_b > 0.0 else 0.0)
    return _solution(problem, x, report)
