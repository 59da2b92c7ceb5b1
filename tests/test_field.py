"""Grids, norms, translations and the binary field dump.

Oracles: closed-form Gaussian integrals (L2 mass A^2 pi w^2, Dirichlet
energy A^2 pi independent of width) and adaptive quadrature for the
log-weighted norm; exactness checks for summation by parts.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from logchoquard import (
    Field,
    FieldDataError,
    Grid,
    GridMismatchError,
    GridResolutionError,
    bump_field,
    gaussian_field,
    grad_norm_sq,
    load_field,
    lp_norm,
    norms,
    save_field,
    shift_cells,
    star_norm_sq,
)
from logchoquard.field import grad_inner, l2_inner, neg_laplacian, x_inner

from conftest import confined_field


# ---------------------------------------------------------------- grid basics


def test_grid_layout():
    g = Grid(L=6.0, n=32)
    assert g.h == pytest.approx(0.375)
    # cell centres x_i = -L + (i + 1/2) h, symmetric about the origin
    assert g.axis[0] == -6.0 + g.h / 2
    assert g.axis[-1] == pytest.approx(6.0 - g.h / 2)
    assert np.array_equal(g.axis[::-1], -g.axis)
    # the origin is the corner shared by cells n/2 - 1 and n/2
    assert g.axis[15] == -g.h / 2 and g.axis[16] == g.h / 2
    assert g.r[16, 16] == pytest.approx(g.h / np.sqrt(2))


def test_grid_validation():
    with pytest.raises(GridResolutionError):
        Grid(L=6.0, n=15)
    with pytest.raises(GridResolutionError):
        Grid(L=6.0, n=14)
    with pytest.raises(FieldDataError):
        Grid(L=0.0, n=32)
    with pytest.raises(FieldDataError):
        Grid(L=np.inf, n=32)


def test_field_validation(grid32):
    with pytest.raises(FieldDataError):
        Field(grid32, np.zeros((3, 3)))
    bad = np.zeros((32, 32))
    bad[0, 0] = np.nan
    with pytest.raises(FieldDataError):
        Field(grid32, bad)


def test_grid_mismatch_raises(grid32):
    other = Grid(L=6.0, n=64)
    with pytest.raises(GridMismatchError):
        l2_inner(Field(grid32, np.ones((32, 32))), Field(other, np.ones((64, 64))))


# ----------------------------------------------------------- norm quadrature


def test_gaussian_l2_mass_closed_form():
    # midpoint rule is spectrally exact for a well-contained Gaussian
    g = Grid(L=6.0, n=64)
    A, w = 1.3, 0.8
    u = gaussian_field(g, width=w, amplitude=A)
    assert lp_norm(u, 2) ** 2 == pytest.approx(A * A * np.pi * w * w, rel=1e-12)


def test_gaussian_dirichlet_energy_closed_form():
    # int |grad u|^2 = A^2 pi for every width; staggered differences are
    # second order: rel error 6.8e-3 at n=64 must drop 4x at n=128
    A, w = 1.3, 0.8
    exact = A * A * np.pi
    errs = []
    for n in (64, 128):
        u = gaussian_field(Grid(L=6.0, n=n), width=w, amplitude=A)
        errs.append(abs(grad_norm_sq(u) - exact) / exact)
    assert errs[0] < 0.01
    assert 3.5 < errs[0] / errs[1] < 4.5


def test_log_weight_norm_quadrature():
    A, w = 1.3, 0.8
    exact = (
        2.0
        * np.pi
        * A
        * A
        * quad(lambda r: np.log1p(r) * np.exp(-r * r / (w * w)) * r, 0.0, 6.0, epsabs=1e-14)[0]
    )
    errs = []
    for n in (64, 128):
        u = gaussian_field(Grid(L=6.0, n=n), width=w, amplitude=A)
        errs.append(abs(star_norm_sq(u) - exact) / exact)
    assert errs[0] < 2e-3
    assert errs[0] / errs[1] > 6.0  # better than second order (origin cusp only)


def test_norm_report_composition(grid32):
    rng = np.random.default_rng(0)
    u = Field(grid32, confined_field(grid32, rng))
    rep = norms(u)
    assert rep.h1_sq == pytest.approx(rep.l2_sq + rep.grad_sq, rel=1e-15)
    assert rep.x_sq == pytest.approx(rep.h1_sq + rep.star_sq, rel=1e-15)
    assert rep.x_sq == pytest.approx(x_inner(u, u), rel=1e-13)
    assert rep.l2_sq == pytest.approx(lp_norm(u, 2) ** 2, rel=1e-13)


def test_lp_norm_validation(grid32):
    u = gaussian_field(grid32)
    with pytest.raises(ValueError):
        lp_norm(u, 0.5)
    with pytest.raises(ValueError):
        lp_norm(u, np.inf)


@settings(max_examples=25, deadline=None)
@given(c=st.floats(-30, 30), p=st.sampled_from([1.0, 2.0, 3.0, 4.0]))
def test_lp_norm_homogeneity(c, p):
    # |c u|_p = |c| |u|_p; keep |c|^p clear of the subnormal range, where
    # the summed powers themselves underflow and homogeneity cannot hold
    if c != 0.0 and abs(c) < 1e-3:
        c = np.sign(c) * 1e-3
    g = Grid(L=4.0, n=16)
    u = gaussian_field(g, width=1.0)
    lhs = lp_norm(Field(g, c * u.values), p)
    assert lhs == pytest.approx(abs(c) * lp_norm(u, p), rel=1e-12, abs=0.0)


# --------------------------------------------------- summation by parts


def test_summation_by_parts_exact(grid32):
    # h^2 sum (-Delta u) v == grad_inner(u, v) to rounding, for rough fields
    rng = np.random.default_rng(1)
    for trial in range(5):
        u = rng.standard_normal((32, 32))
        v = rng.standard_normal((32, 32))
        lap = neg_laplacian(u, grid32.h)
        lhs = grid32.h ** 2 * np.sum(lap * v)
        rhs = grad_inner(Field(grid32, u), Field(grid32, v))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_neg_laplacian_interior_stencil(grid32):
    rng = np.random.default_rng(2)
    u = rng.standard_normal((32, 32))
    lap = neg_laplacian(u, grid32.h)
    i, j = 10, 20
    expect = (4 * u[i, j] - u[i - 1, j] - u[i + 1, j] - u[i, j - 1] - u[i, j + 1]) / grid32.h ** 2
    assert lap[i, j] == pytest.approx(expect, rel=1e-14)


# ------------------------------------------------------------- translations


def test_shift_cells_exact_and_composes(grid32):
    rng = np.random.default_rng(3)
    u = Field(grid32, rng.standard_normal((32, 32)))
    v = shift_cells(u, 3, -2)
    assert v.values[10, 10] == u.values[7, 12]
    assert np.all(v.values[:3, :] == 0.0)
    assert np.all(v.values[:, -2:] == 0.0)
    # composition without clipping
    w = shift_cells(shift_cells(u, 2, 1), -2, -1)
    assert np.array_equal(w.values[2:-2, 1:-1], u.values[2:-2, 1:-1])


def test_shift_cells_preserves_interior_mass(grid32):
    u = bump_field(grid32, center=(0.0, 0.0), radius=1.0)
    v = shift_cells(u, 4, 4)
    assert lp_norm(v, 2) == pytest.approx(lp_norm(u, 2), rel=1e-14)


def test_shift_cells_whole_box_clears(grid32):
    u = gaussian_field(grid32)
    v = shift_cells(u, 32, 0)
    assert np.all(v.values == 0.0)


# ------------------------------------------------------------- factories


def test_bump_field_compact_support(grid32):
    ic, jc = 20, 13
    center = (grid32.axis[ic], grid32.axis[jc])
    u = bump_field(grid32, center=center, radius=0.8, amplitude=2.0)
    d = np.hypot(grid32.x1 - center[0], grid32.x2 - center[1])
    assert np.all(u.values[d >= 0.8] == 0.0)
    assert np.max(u.values) <= 2.0
    assert np.max(u.values) > 1.0
    # the center is a cell centre: the value there is exactly amp * e^0 = amp
    assert u.values[ic, jc] == pytest.approx(2.0)


def test_gaussian_field_center_amplitude(grid32):
    ic, jc = 18, 12
    u = gaussian_field(grid32, width=0.9, center=(grid32.axis[ic], grid32.axis[jc]), amplitude=0.7)
    assert u.values[ic, jc] == pytest.approx(0.7, rel=1e-14)


# ------------------------------------------------------------- binary dump


def test_save_load_roundtrip(tmp_path, grid32):
    rng = np.random.default_rng(4)
    u = Field(grid32, rng.standard_normal((32, 32)))
    path = tmp_path / "u.chq"
    save_field(path, u)
    v = load_field(path)
    assert v.grid == grid32
    assert np.array_equal(v.values, u.values)  # bitwise


def test_dump_header_layout(tmp_path, grid32):
    u = gaussian_field(grid32)
    path = tmp_path / "u.chq"
    save_field(path, u)
    raw = path.read_bytes()
    assert raw[:4] == b"CHQ2"
    assert int.from_bytes(raw[4:8], "little") == 32
    assert np.frombuffer(raw[8:16], dtype="<f8")[0] == 6.0
    assert len(raw) == 16 + 8 * 32 * 32


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.chq"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(FieldDataError, match="magic"):
        load_field(path)


def test_load_rejects_truncation(tmp_path, grid32):
    u = gaussian_field(grid32)
    path = tmp_path / "u.chq"
    save_field(path, u)
    raw = path.read_bytes()
    short = tmp_path / "short.chq"
    short.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(FieldDataError, match="truncated"):
        load_field(short)
    header_only = tmp_path / "hdr.chq"
    header_only.write_bytes(raw[:9])
    with pytest.raises(FieldDataError, match="truncated"):
        load_field(header_only)
