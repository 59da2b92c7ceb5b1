import numpy as np
import pytest

from logchoquard import Grid, const_potential, make_kernel_table


@pytest.fixture(scope="session")
def grid32():
    return Grid(L=6.0, n=32)


@pytest.fixture(scope="session")
def table32(grid32):
    return make_kernel_table(grid32)


@pytest.fixture(scope="session")
def pot32(grid32):
    return const_potential(grid32)


@pytest.fixture(scope="session")
def grid64():
    return Grid(L=6.0, n=64)


@pytest.fixture(scope="session")
def table64(grid64):
    return make_kernel_table(grid64)


@pytest.fixture(scope="session")
def pot64(grid64):
    return const_potential(grid64)


def confined_field(grid, rng, nonneg=False, radius=0.45):
    """Random field damped to negligible size beyond radius * L."""
    vals = rng.standard_normal((grid.n, grid.n))
    if nonneg:
        vals = np.abs(vals)
    return vals * np.exp(-((grid.r / (radius * grid.L)) ** 4))
