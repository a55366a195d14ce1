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
by construction and solved with preconditioned MINRES (nu > 0) and a
block-diagonal preconditioner whose iteration count does not grow with the
grid. Its velocity part is, at constant viscosities, the exact inverse of
the velocity block: a 2 x 2 solve per sine/cosine mode on the interior faces
and a capacitance solve on the wall faces. With variable viscosity it is
separate cosine-transform u and w blocks of a constant reference, rescaled
cell by cell by the Jacobi diagonals. Its Cahouet-Chabard pressure part is a
constant plus a sine-transform correction on the few lowest modes where the
friction term is not negligible (all of them when nu is large). A dense
loop-assembled oracle covers small grids.

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
from .core import FaceField, Grid, LastBuild, bits
from .elliptic import (
    SolveReport,
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


def _sine_basis(n: int) -> np.ndarray:
    """DST-I on the n + 1 nodes of an axis, in the frame of its n cell
    modes: q[i, k] = sqrt(2 / n) sin(pi k i / n).  The wall rows i = 0, n
    and the column k = 0 are zero, so q maps the n - 1 interior modes to
    node values that vanish on the walls; its columns k >= 1 are
    orthonormal."""
    q = math.sqrt(2.0 / n) * np.sin(np.pi * np.outer(np.arange(n + 1), np.arange(n)) / n)
    q[[0, n], :] = 0.0
    q[:, 0] = 0.0
    return q


def _velocity_block(grid: Grid, eta: float, lam: float, nu: float):
    """In-place apply (ru, rw, zu, zw) of the exact inverse of the velocity
    block A_vv at constant eta, lam and nu > 0.

    Interior faces (u for i = 1..nx-1, w for j = 1..ny-1): with the wall
    faces held at zero, A_vv is the free-slip operator, since the traction
    walls leave out the shear at the wall nodes.  In the orthonormal bases
    u: DST-I(x) x DCT-II(y) and w: DCT-II(x) x DST-I(y) it is one 2 x 2
    block per mode (k, l), M = vol ((nu + eta |s|^2) I + (eta + lam) s s^T)
    with s = (2 sin(pi k / 2 nx) / hx, 2 sin(pi l / 2 ny) / hy), inverted in
    closed form.  Both components share one nx by ny mode frame: the sine
    bases are padded with a zero mode (k = 0 for u, l = 0 for w), and the
    u modes with l = 0 and the w modes with k = 0 decouple because s has a
    zero entry there.

    Wall faces (u on the x-walls L and R, w on the y-walls B and T): they
    are eliminated by their capacitance matrix S = A_BB - A_BI A_II^-1 A_IB
    (Buzbee, Dorr, George & Golub, SINUM 8, 1971; Proskurowski & Widlund,
    Math. Comp. 30, 1976).  A wall face couples only to the face next to it
    (u at i = 1 or nx - 1, w at j = 1 or ny - 1), through lam to the faces
    of its wall cell (w at i = 0 or nx - 1, u at j = 0 or ny - 1), and to
    the wall face across a corner.  So A_IB maps the cosine mode l of L or R
    (Cy) to column l of the mode frame and the mode k of B or T (Cx) to row
    k, and S in those modes is built from elementwise products of the mode
    arrays, with no transform and no probing.  The wall modes are taken as
    (L + R, L - R) / sqrt(2) and (B + T, B - T) / sqrt(2): S commutes with
    the two mirror reflections, so in these modes it splits into four
    parity blocks of about (nx + ny) / 2 rows, each inverted once and kept.

    An apply: one forward transform pair, the 2 x 2 mix, the wall traces of
    the interior solve (products with two rows or columns), the solve with
    S, the spectral correction by A_IB of the wall values, the mix again and
    one inverse transform pair."""
    nx, ny = grid.shape
    hx, hy, vol = grid.hx, grid.hy, grid.cell_area
    ce, b = 2.0 * eta + lam, eta + lam
    cx, cy = laplacian_basis(nx, "cell")[0], laplacian_basis(ny, "cell")[0]
    sx_b, sy_b = _sine_basis(nx), _sine_basis(ny)
    sx = 2.0 * np.sin(0.5 * np.pi * np.arange(nx) / nx)[:, None] / hx
    sy = 2.0 * np.sin(0.5 * np.pi * np.arange(ny) / ny)[None, :] / hy

    # M^-1 per mode: [[a + b sy^2, -b sx sy], [-b sx sy, a + b sx^2]] / det,
    # its off-diagonal held twice so that a mix multiplies contiguous arrays
    a = nu + eta * (sx ** 2 + sy ** 2)
    det = vol * a * (a + b * (sx ** 2 + sy ** 2))
    m_diag = np.stack([(a + b * sy ** 2) / det, (a + b * sx ** 2) / det])
    m_off = np.stack(2 * [-b * sx * sy / det])

    def form(f: np.ndarray, g: np.ndarray) -> np.ndarray:
        """f^T M^-1 g per mode, f and g (u, w) pairs of mode arrays."""
        return f[0] * (m_diag[0] * g[0] + m_off[0] * g[1]) \
            + f[1] * (m_off[0] * g[0] + m_diag[1] * g[1])

    # A_IB in the mode frame, for the wall modes L + R, L - R (index l):
    # a_lr[c, wall, k] * lr_scale[c, l], and B + T, B - T (index k):
    # bt_scale[c, k] * b_bt[c, l, wall]; c = 0 for u, 1 for w
    h2 = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    c1, c2 = -ce * hy / hx, -ce * hx / hy
    a_lr = h2 @ np.stack([c1 * sx_b[[1, nx - 1]], lam * hy * np.stack([-cx[0], cx[nx - 1]])])
    lr_scale = np.stack([np.ones((1, ny)), sy])
    b_bt = np.stack([lam * hx * np.stack([-cy[0], cy[ny - 1]], axis=1),
                     c2 * sy_b[[1, ny - 1]].T]) @ h2
    bt_scale = np.stack([sx, np.ones((nx, 1))])
    lift_lr = [[a_lr[c, p][:, None] * lr_scale[c] for c in range(2)] for p in range(2)]
    lift_bt = [[bt_scale[c] * b_bt[c, :, r] for c in range(2)] for r in range(2)]

    # S in the wall modes, ordered as the apply holds them: L + R, L - R
    # (ny each), then B + T and B - T interleaved (an nx by 2 array).  A_BB
    # is diagonal but for the two wall faces at each corner, coupled by
    # +lam (L-B, R-T) or -lam (L-T, R-B): lam y_corner x_corner in the modes.
    # L + R and B + T are odd under x -> -x and y -> -y, L - R and B - T
    # even; the mode l of L, R has parity (-1)^l under y -> -y, the mode k
    # of B, T (-1)^k under x -> -x.  So L + R (L - R) meets only the odd
    # (even) k, and B + T (B - T) only the odd (even) l: S splits into the
    # four classes (L +- R, B +- T), whose inverses are kept as the blocks
    # of one (4, n_c, n_c) array, zero-padded to the largest class.
    n_lr, n_b = 2 * ny, 2 * ny + 2 * nx
    x_corner = h2 @ np.stack([cx[0], -cx[nx - 1]])
    y_corner = h2 @ np.stack([cy[0], -cy[ny - 1]])
    n_c = (ny + 1) // 2 + (nx + 1) // 2
    s_inv = np.zeros((4, n_c, n_c))
    classes = np.full((4, n_c), n_b)     # wall-mode index of each class row
    d_lr = [ce * hy / hx + 0.5 * nu * vol - form(f, f).sum(axis=0) for f in lift_lr]
    d_bt = [ce * hx / hy + 0.5 * nu * vol - form(f, f).sum(axis=1) for f in lift_bt]
    for p in range(2):
        for r in range(2):
            ls, ks = np.arange(1 - r, ny, 2), np.arange(1 - p, nx, 2)
            cross = lam * np.outer(y_corner[r], x_corner[p]) - form(lift_lr[p], lift_bt[r]).T
            block = np.diag(np.concatenate([d_lr[p][ls], d_bt[r][ks]]))
            block[:len(ls), len(ls):] = cross[np.ix_(ls, ks)]
            block[len(ls):, :len(ls)] = block[:len(ls), len(ls):].T
            inv, size = np.linalg.inv(block), len(block)
            s_inv[2 * p + r, :size, :size] = 0.5 * (inv + inv.T)
            classes[2 * p + r, :size] = np.concatenate([p * ny + ls, n_lr + 2 * ks + r])

    # A_IB of the wall values z: lift_cols[c] @ lift_rows[c] in the mode
    # frame, with z_lr * lr_scale in rows 0, 1 of lift_rows and z_bt *
    # bt_scale in columns 2, 3 of lift_cols, written by each apply
    lift_cols, lift_rows = np.empty((2, nx, 4)), np.empty((2, 4, ny))
    lift_cols[:, :, :2] = a_lr.transpose(0, 2, 1)
    lift_rows[:, 2:] = b_bt.transpose(0, 2, 1)

    sxt, cxt, cyt, syt = (np.ascontiguousarray(q.T) for q in (sx_b, cx, cy, sy_b))
    rh, yh, tmp = (np.empty((2, nx, ny)) for _ in range(3))
    # the transforms' intermediates share tmp, which the mixes use only
    # between the forward and the inverse pair
    t_u, t_w, s_u = tmp[0], tmp.reshape(-1)[:nx * (ny + 1)].reshape(nx, ny + 1), \
        tmp.reshape(-1)[:(nx + 1) * ny].reshape(nx + 1, ny)
    pt, qt = np.empty((2, 2, ny)), np.empty((2, nx, 2))
    # the wall vectors, with one more slot: zero in g, where the padding
    # rows of the classes read, and dead in zb, where they write
    trace, g, zb = np.empty(n_b), np.zeros(n_b + 1), np.empty(n_b + 1)
    g_c, z_c = np.empty((4, n_c, 1)), np.empty((4, n_c, 1))
    t_lr, t_bt = trace[:n_lr].reshape(2, ny), trace[n_lr:].reshape(nx, 2)
    g_lr, g_bt = g[:n_lr].reshape(2, ny), g[n_lr:n_b].reshape(nx, 2)
    z_lr, z_bt = zb[:n_lr].reshape(2, ny), zb[n_lr:n_b].reshape(nx, 2)
    w_lr, w_bt, v_lr, v_bt = np.empty((2, ny)), np.empty((nx, 2)), np.empty((2, ny)), \
        np.empty((nx, 2))

    def mix(src: np.ndarray, dst: np.ndarray) -> None:
        np.multiply(m_diag, src, out=dst)
        dst += np.multiply(m_off, src[::-1], out=tmp)

    def apply(ru, rw, zu, zw) -> None:
        np.dot(np.dot(sxt, ru, out=t_u), cy, out=rh[0])
        np.dot(np.dot(cxt, rw, out=t_w), sy_b, out=rh[1])
        mix(rh, yh)
        np.multiply(np.matmul(a_lr, yh, out=pt), lr_scale, out=pt)
        np.add(pt[0], pt[1], out=t_lr)
        np.multiply(np.matmul(yh, b_bt, out=qt), bt_scale, out=qt)
        np.add(qt[0], qt[1], out=t_bt)
        np.dot(h2, np.dot(ru[::nx], cy, out=v_lr), out=g_lr)
        np.dot(np.dot(cxt, rw[:, ::ny], out=v_bt), h2, out=g_bt)
        np.subtract(g[:n_b], trace, out=g[:n_b])
        zb[classes] = np.matmul(s_inv, np.take(g, classes[..., None], out=g_c), out=z_c)[..., 0]
        np.multiply(z_bt, bt_scale, out=lift_cols[:, :, 2:])
        np.multiply(z_lr, lr_scale, out=lift_rows[:, :2])
        np.subtract(rh, np.matmul(lift_cols, lift_rows, out=tmp), out=rh)
        mix(rh, yh)
        np.dot(np.dot(sx_b, yh[0], out=s_u), cyt, out=zu)
        np.dot(np.dot(cx, yh[1], out=t_u), syt, out=zw)
        zu[::nx] = np.dot(h2, np.dot(z_lr, cyt, out=v_lr), out=w_lr)
        zw[:, ::ny] = np.dot(np.dot(cx, z_bt, out=v_bt), h2, out=w_bt)
    return apply


def _scalar_velocity_blocks(grid: Grid, eta: float, lam: float, nu: float):
    """In-place apply (ru, rw, zu, zw) of separate u and w blocks: vu (nu +
    (2 eta + lam) Lx + eta Ly)^-1 for u, where Lx is the node Laplacian
    along x (DCT-I, half weight at the walls) and Ly the cell Laplacian
    along y (DCT-II), and its mirror image for w.  They drop the u-w
    coupling and treat the wall rows as interior ones; the rescaled block
    of variable viscosities uses them as its constant reference."""
    (qxn, lxn), (qxc, lxc) = (laplacian_basis(grid.nx, k) for k in ("node", "cell"))
    (qyn, lyn), (qyc, lyc) = (laplacian_basis(grid.ny, k) for k in ("node", "cell"))
    kx, ky = 1.0 / grid.hx ** 2, 1.0 / grid.hy ** 2
    vol, ce = grid.cell_area, 2.0 * eta + lam
    inv_u = separable_inverse(qxn, qyc, 1.0 / (vol * (
        nu + ce * kx * lxn[:, None] + eta * ky * lyc[None, :])))
    inv_w = separable_inverse(qxc, qyn, 1.0 / (vol * (
        nu + eta * kx * lxc[:, None] + ce * ky * lyn[None, :])))

    def apply(ru, rw, zu, zw) -> None:
        inv_u(ru, out=zu)
        inv_w(rw, out=zw)
    return apply


def _pressure_block(grid: Grid, eta: float, lam: float, nu: float):
    """In-place apply (rp, zp) of the Cahouet-Chabard pressure block: the
    inverse Schur surrogate (nu (-Lap_D)^-1 + 2 eta + lam) / vol. Lap_D is
    the cell Laplacian with zero wall values (DST-II on both axes): with
    traction walls the wall faces carry p itself, so G^T diag(vu, vw)^-1 G
    = -vol Lap_D exactly and the surrogate is exact in the friction limit.
    It is applied as ce / vol r, ce = 2 eta + lam, plus the DST-II
    correction nu / (kappa vol) on the smallest rectangle of modes (mx, my)
    that holds every mode with nu / kappa > _PRESSURE_EPS ce; nu / kappa
    falls along both axes, so the rectangle is the first mx by my modes.  A
    mode outside it gets ce / vol, within a factor [1 / (1 + _PRESSURE_EPS),
    1] of its surrogate value, so the block stays SPD; an empty rectangle
    leaves (ce / vol) I, and where nu is large the rectangle is the whole
    grid."""
    (qxd, lxd), (qyd, lyd) = (laplacian_basis(n, "dirichlet") for n in grid.shape)
    kx, ky = 1.0 / grid.hx ** 2, 1.0 / grid.hy ** 2
    ce = 2.0 * eta + lam
    low = nu / (kx * lxd[:, None] + ky * lyd[None, :])
    kept = low > _PRESSURE_EPS * ce
    mx, my = int(np.count_nonzero(kept[:, 0])), int(np.count_nonzero(kept[0, :]))
    inv_low = separable_inverse(qxd[:, :mx], qyd[:, :my],
                                low[:mx, :my] / grid.cell_area) if mx else None
    cp = ce / grid.cell_area
    corr = np.empty(grid.shape)

    def apply(rp, zp) -> None:
        np.multiply(rp, cp, out=zp)
        if inv_low is not None:
            zp += inv_low(rp, out=corr)
    return apply


def _compose(grid: Grid, velocity, pressure):
    """The block-diagonal apply x -> (velocity(ru, rw), pressure(rp)),
    packed into a new array."""
    def apply(x: np.ndarray) -> np.ndarray:
        out = np.empty(x.size)
        (ru, rw, rp), (zu, zw, zp) = _unpack(x, grid), _unpack(out, grid)
        velocity(ru, rw, zu, zw)
        pressure(rp, zp)
        return out
    return apply


def _block_preconditioner(problem: BrinkmanProblem):
    """Block-diagonal SPD preconditioner for nu > 0: a velocity part and the
    pressure part `_pressure_block`, composed by `_compose`.

    Constant eta and lam: the velocity part is `_velocity_block`, the exact
    inverse of the velocity block A_vv, u-w coupling and wall faces
    included.

    Variable eta or lam: the composition of `_scalar_velocity_blocks` and
    `_pressure_block` for the reference problem with constant eta, lam =
    their minima, rescaled as a -> s P(s a) with s = sqrt(d_ref / d) from
    the Jacobi diagonals (cell-wise viscosity weights, as in Grinevich &
    Olshanskii, SISC 31, 2009); SPD by construction. Its iteration counts
    stay flat with the grid for smooth viscosity profiles, not across a
    sharp jump.
    """
    g = problem.grid
    eta, lam, nu = float(np.min(problem.eta)), float(np.min(problem.lam)), problem.nu
    pressure = _pressure_block(g, eta, lam, nu)
    if float(np.max(problem.eta)) == eta and float(np.max(problem.lam)) == lam:
        return _compose(g, _velocity_block(g, eta, lam, nu), pressure)
    apply = _compose(g, _scalar_velocity_blocks(g, eta, lam, nu), pressure)
    s = np.sqrt(_jacobi_diagonal(problem, 2.0 * eta + lam, eta) / _jacobi_diagonal(problem))
    sa = np.empty(s.size)

    def rescaled(a: np.ndarray) -> np.ndarray:
        out = apply(np.multiply(s, a, out=sa))
        out *= s
        return out
    return rescaled


def solve_brinkman(problem: BrinkmanProblem, tol: float,
                   x0: np.ndarray | None = None,
                   built: LastBuild | None = None) -> BrinkmanSolution:
    """Solve the saddle system with MINRES and `_block_preconditioner` to the
    relative tolerance tol, from the packed start x0 (zero when not given).
    `built` holds the operator and preconditioner of an earlier solve: they
    are reused while the grid, nu and the bits of eta and lam are the ones
    they were built from, and rebuilt otherwise (always, without `built`).
    Requires nu > 0: without friction its velocity blocks are singular."""
    if not problem.nu > 0.0:
        raise ValueError(f"solve_brinkman needs friction nu > 0, got {problem.nu}")
    op, precond = (built or LastBuild()).get(
        bits(problem.grid, problem.nu, problem.eta, problem.lam),
        lambda: (brinkman_operator(problem), _block_preconditioner(problem)))
    x, report = solve_minres(op, problem.rhs, tol, x0, precond=precond)
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

    Beside the window it holds the operator and block preconditioner of its
    last solve (a `LastBuild`), which the next solve reuses while the grid,
    nu and the bits of eta and lam are unchanged: once per run at constant
    viscosities, once per solve where eta follows phi.  Both end with the
    window, that is with the run.
    """

    def __init__(self, size: int) -> None:
        self._r = np.zeros((size, size))
        self._qx: np.ndarray | None = None   # row i: column i of Q, then of X R^-1
        self._m = 0
        self._built = LastBuild()

    def __len__(self) -> int:
        return self._m

    def solve(self, problem: BrinkmanProblem, tol: float) -> BrinkmanSolution:
        """`solve_brinkman` to tol from the start for problem.rhs (zero while
        no pair is stored), with the operator and preconditioner this window
        last built; a converged solution joins the window."""
        sol = solve_brinkman(problem, tol, self.start(problem.rhs), self._built)
        if sol.report.converged:
            self.add(sol.x, problem.rhs)
        return sol

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
