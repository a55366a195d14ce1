"""Shared fixtures.

The criterion cache is session-scoped so the expensive simulation runs
(gradient-flow decay, the paired budget runs, the spectral sweep) are
computed once and shared between the acceptance tests and the unit tests
that probe the same trajectories.
"""
import numpy as np
import pytest

from chbsim import verify


@pytest.fixture(scope="session")
def crit_cache():
    return verify.Cache()


@pytest.fixture(scope="session")
def budget_runs(crit_cache):
    """((coarse, fine), model, (relax, settle)) from the disc/Lima pipeline."""
    return crit_cache.fetch("budget_runs", verify._budget_runs)


def _closure_arrays(fn):
    """The arrays a kernel keeps between calls: those its closure holds,
    directly, in tuples or through the closures of the functions it calls."""
    found, values = [], [cell.cell_contents for cell in fn.__closure__ or ()]
    while values:
        value = values.pop()
        if isinstance(value, np.ndarray):
            found.append(value)
        elif isinstance(value, tuple):
            values.extend(value)
        elif callable(value) and getattr(value, "__closure__", None):
            values.extend(cell.cell_contents for cell in value.__closure__)
    return found


@pytest.fixture(scope="session")
def kept_arrays():
    """fn -> the scratch and coefficient arrays a built kernel keeps."""
    return _closure_arrays
