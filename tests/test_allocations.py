"""Allocation guard for the two hot kernels and the step's self-check.

The saddle apply runs once per MINRES iteration and a built diffusion
stencil once per BiCGStab half-step.  Both keep their scratch arrays from
call to call and work only on contiguous flat views, so a call allocates no
array of grid size.  A strided 2-D operand would bring back numpy's iterator
buffer (8192 elements, 64 KB per operand) on every call; this test fails
then.

The energy budget and the level record run once per step.  Their
quadratures are vdots over new arrays of the interior-face differences, so
their peak allocation per call is pinned at what that takes at 64^2; the
zero-walled face arrays and square temporaries they replaced took more.

The start of a variable-viscosity flow solve runs once per step.  It reads
the window's stored rows in place, so a call allocates the start itself and
no stack of the stored pairs.
"""
import tracemalloc

import numpy as np
import pytest

from chbsim import brinkman, verify
from chbsim.core import FaceField, State, make_grid
from chbsim.diagnostics import convection, energy_budget, old_level, time_level
from chbsim.elliptic import diffusion_stencil, harmonic_face_coefficients

GRID = make_grid(1.0, 1.0, 64, 64)
LIMIT = 4096   # bytes per call


def peak_bytes(call) -> int:
    """Peak traced allocation of one call, after a call that warms up."""
    call()
    tracemalloc.start()
    try:
        call()
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("variable", [False, True])
def test_saddle_apply_allocates_no_grid_array(variable):
    rng = np.random.default_rng(3)
    eta = rng.uniform(1.0, 100.0, GRID.shape) if variable else np.ones(GRID.shape)
    lam = rng.uniform(0.0, 1.0, GRID.shape) if variable else np.zeros(GRID.shape)
    prob = brinkman.BrinkmanProblem(GRID, eta, lam, 10.0, FaceField.zeros(GRID),
                                    np.zeros(GRID.shape))
    apply = brinkman._saddle_apply(prob)
    x = rng.standard_normal(prob.rhs.size)
    out = np.empty(prob.rhs.size)
    args = brinkman._unpack(x, GRID) + brinkman._unpack(out, GRID)
    assert peak_bytes(lambda: apply(*args)) < LIMIT


@pytest.mark.parametrize("b", [None, 1.5])
@pytest.mark.parametrize("faces", [False, True])
def test_stencil_apply_into_out_allocates_no_grid_array(b, faces):
    rng = np.random.default_rng(4)
    c = harmonic_face_coefficients(rng.uniform(0.5, 2.0, GRID.shape), GRID) if faces else 1.0
    stencil = diffusion_stencil(c, GRID, b)
    f, out = rng.standard_normal(GRID.shape), np.empty(GRID.shape)
    assert peak_bytes(lambda: stencil(f, out=out)) < LIMIT


def test_projected_start_stacks_no_stored_pairs():
    # at 64^2 the packed flow has n = 12,416 entries: the start is one such
    # vector, and a (4, n) stack of the stored b or x would add 388 KiB
    n = 2 * (GRID.nx + 1) * GRID.ny + GRID.nx * GRID.ny
    rng = np.random.default_rng(6)
    window = brinkman.ProjectedStart(4)
    for _ in range(4):
        window.add(rng.standard_normal(n), rng.standard_normal(n))
    b = rng.standard_normal(n)
    assert peak_bytes(lambda: window.start(b)) < 8 * n + LIMIT


# peak traced bytes per call at 64^2 with the flow on, rounded up to 8 KiB;
# the face-gradient forms took 517.6 KiB (budget) and 321.6 KiB (level)
BUDGET_PEAK = 336 * 1024
LEVEL_PEAK = 296 * 1024


def test_self_check_allocates_no_zero_walled_face_array():
    model = verify._disc_model()   # 64^2, constant coefficients
    g = model.grid
    rng = np.random.default_rng(5)

    def state(t):
        return State(t, rng.uniform(-1.0, 1.0, g.shape), rng.standard_normal(g.shape),
                     rng.uniform(0.0, 1.0, g.shape), rng.standard_normal(g.shape),
                     FaceField(rng.standard_normal((g.nx + 1, g.ny)),
                               rng.standard_normal((g.nx, g.ny + 1))))
    prev, new = state(0.0), state(1e-4)
    old = old_level(time_level(prev, model), model, True)
    level = time_level(new, model)
    n_faces = harmonic_face_coefficients(model.mobvis.n(new.phi), g)
    conv = convection(prev, new.v, g)
    assert g.shape == GRID.shape
    assert peak_bytes(lambda: energy_budget(old, level, n_faces, conv, 1e-4, model)) \
        <= BUDGET_PEAK
    assert peak_bytes(lambda: time_level(new, model)) <= LEVEL_PEAK
