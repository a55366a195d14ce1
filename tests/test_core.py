"""Grid construction, quadrature and trace helpers."""
import numpy as np
import pytest

from chbsim.core import (
    FaceField,
    State,
    extrapolate_to_walls,
    face_to_center,
    integrate_cell,
    make_grid,
)


def test_make_grid_spacings():
    g = make_grid(1.0, 1.0, 8, 8)
    assert g.hx == 0.125 and g.hy == 0.125
    g = make_grid(2.0, 1.0, 16, 8)
    assert g.hx == 0.125 and g.hy == 0.125
    assert g.area == 2.0 and g.perimeter == 6.0


def test_make_grid_rejects_tiny_resolution():
    with pytest.raises(ValueError):
        make_grid(1.0, 1.0, 3, 8)
    with pytest.raises(ValueError):
        make_grid(1.0, -1.0, 8, 8)


def test_integrate_cell_constants_and_linears():
    g = make_grid(1.0, 1.0, 8, 8)
    assert integrate_cell(np.ones(g.shape), g) == pytest.approx(1.0, abs=1e-15)
    x, _ = g.cell_centers()
    # midpoint rule is exact for linears
    assert integrate_cell(x, g) == pytest.approx(0.5, abs=1e-14)


def test_integrate_cell_cosine_refined_oracle():
    # int cos(pi x) over the unit square is 0; check the 64^2 quadrature
    # against an independently summed 1024^2 refinement
    g = make_grid(1.0, 1.0, 64, 64)
    x, _ = g.cell_centers()
    coarse = integrate_cell(np.cos(np.pi * x), g)
    xr = (np.arange(1024) + 0.5) / 1024.0
    refined = float(np.sum(np.cos(np.pi * xr))) * (1.0 / 1024.0)
    assert abs(coarse) <= 1e-3
    assert abs(coarse - refined) <= 1e-3


def test_extrapolated_traces_exact_for_linears():
    g = make_grid(1.0, 1.0, 8, 8)
    x, y = g.cell_centers()
    f = 2.0 * x - 3.0 * y + 1.0
    tr = extrapolate_to_walls(f, g)
    yc = (np.arange(g.ny) + 0.5) * g.hy
    xc = (np.arange(g.nx) + 0.5) * g.hx
    np.testing.assert_allclose(tr.left, -3.0 * yc + 1.0, atol=1e-13)
    np.testing.assert_allclose(tr.right, 2.0 - 3.0 * yc + 1.0, atol=1e-13)
    np.testing.assert_allclose(tr.bottom, 2.0 * xc + 1.0, atol=1e-13)
    np.testing.assert_allclose(tr.top, 2.0 * xc - 3.0 + 1.0, atol=1e-13)


def test_state_and_face_containers():
    g = make_grid(1.0, 2.0, 8, 4)
    st = State(0.0, *(np.zeros(g.shape) for _ in range(4)), FaceField.zeros(g))
    assert st.phi.shape == (8, 4) and st.v.u.shape == (9, 4) \
        and st.v.w.shape == (8, 5)
    twin = st.copy()
    twin.phi[0, 0] = twin.v.u[0, 0] = twin.v.w[0, 0] = 1.0
    assert st.phi[0, 0] == st.v.u[0, 0] == st.v.w[0, 0] == 0.0


def test_face_to_center_average_is_exact_for_linears():
    g = make_grid(1.0, 1.0, 8, 8)
    xu = np.repeat(np.arange(g.nx + 1)[:, None] * g.hx, g.ny, axis=1)  # x of u faces
    yw = np.repeat(np.arange(g.ny + 1)[None, :] * g.hy, g.nx, axis=0)  # y of w faces
    v = FaceField(3.0 * xu + 1.0, -2.0 * yw)
    vx, vy = face_to_center(v)
    x, y = g.cell_centers()
    np.testing.assert_allclose(vx, 3.0 * x + 1.0, atol=1e-13)
    np.testing.assert_allclose(vy, -2.0 * y, atol=1e-13)
