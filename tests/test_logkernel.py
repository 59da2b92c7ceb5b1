"""Log-kernel tables, FFT convolution, and the B1 - B2 = B0 splitting.

Oracles: polar quadrature of the singular origin cell (whose closed form
log h - log(2)/2 + pi/4 - 3/2 the kernel uses), an O(n^4) direct double
sum, and the continuum log-energy of a Gaussian computed by nested polar
quadrature.
"""

import sys
import threading
import tracemalloc

import numpy as np
import pytest
from scipy import fft as sp_fft
from scipy.integrate import quad

from logchoquard import (
    Field,
    FieldDataError,
    Grid,
    GridMismatchError,
    GridResolutionError,
    b_form,
    direct_oracle,
    gaussian_field,
    log_potential,
    lp_norm,
    make_kernel_table,
    origin_cell_log_mean,
    padded_convolve,
)
from logchoquard.field import shift_cells
from logchoquard.logkernel import kernel_fft, offset_lattice

from conftest import confined_field


# ------------------------------------------------------------- origin cell


def test_origin_cell_closed_form():
    # the closed form log h - log(2)/2 + pi/4 - 3/2 against adaptive
    # quadrature of the polar form over the eight congruent triangles of
    # the cell: (8/h^2) int_0^{pi/4} R^2/2 (log R - 1/2) dtheta, R = (h/2)/cos
    for h in (1.0, 0.375, 0.1875, 0.09375):

        def integrand(theta):
            R = (0.5 * h) / np.cos(theta)
            return 0.5 * R * R * (np.log(R) - 0.5)

        polar = 8.0 * quad(integrand, 0.0, 0.25 * np.pi, epsabs=1e-13, epsrel=1e-12)[0] / (h * h)
        assert abs(origin_cell_log_mean(h) - polar) <= 1e-13


def test_origin_cell_scaling_law():
    # c0(s h) - c0(h) = log s: the cell mean scales like the kernel itself
    base = origin_cell_log_mean(0.25)
    assert origin_cell_log_mean(0.5) - base == pytest.approx(np.log(2.0), abs=1e-13)


# ------------------------------------------------------------ kernel tables


def test_offset_lattice_wrapping(grid32):
    ro = offset_lattice(grid32)
    h, n = grid32.h, grid32.n
    assert ro.shape == (2 * n, 2 * n)
    assert ro[0, 0] == 0.0
    assert ro[1, 0] == pytest.approx(h)
    assert ro[2 * n - 1, 0] == pytest.approx(h)  # wrapped offset -1
    assert ro[n, n] == pytest.approx(np.hypot(n * h, n * h))


def test_kernel_table_values(grid32):
    t = make_kernel_table(grid32, tau=0.7)
    ro = offset_lattice(grid32)
    off = ro[3, 5]
    assert t.k0[3, 5] == pytest.approx(np.log(off), rel=1e-15)
    assert t.k1[3, 5] == pytest.approx(np.log(np.exp(0.7) + off), rel=1e-15)
    assert t.k0[0, 0] == pytest.approx(origin_cell_log_mean(grid32.h), abs=1e-13)
    assert t.k1[0, 0] == pytest.approx(0.7)  # log(e^tau + 0)
    assert t.tau == 0.7


def test_kernel_table_builds_k0_samples_on_first_read(grid32, pot32):
    # a descent reads k0_hat alone; the samples k0_hat was transformed from
    # are built when the checks first read them
    from logchoquard import SolveConfig, multistart_search, trivial_action

    t = make_kernel_table(grid32)
    multistart_search(0, trivial_action(), pot32, t, SolveConfig(max_iters=5))
    assert "k0" not in vars(t)
    assert np.array_equal(kernel_fft(t.k0), t.k0_hat)
    assert vars(t)["k0"] is t.k0


def test_kernel_pointwise_splitting(grid32):
    # k1 - k2 = k0 at every offset, including the corrected origin cell
    for tau in (0.0, 0.7, 2.0):
        t = make_kernel_table(grid32, tau=tau)
        assert np.max(np.abs(t.k1 - t.k2 - t.k0)) <= 1e-13


def test_kernel_table_rejects_negative_tau(grid32):
    with pytest.raises(ValueError):
        make_kernel_table(grid32, tau=-0.1)


# ------------------------------------------------------- convolution oracle


def test_b_form_matches_direct_sum():
    # FFT linear convolution == explicit O(n^4) double sum
    for n in (16, 24):
        g = Grid(L=4.0, n=n)
        t = make_kernel_table(g, tau=0.5)
        rng = np.random.default_rng(n)
        f = Field(g, confined_field(g, rng))
        w = Field(g, confined_field(g, rng))
        for which in ("B0", "B1", "B2"):
            fast = b_form(f, w, which, t)
            slow = direct_oracle(f, w, which, t)
            assert fast == pytest.approx(slow, rel=1e-10, abs=1e-12)


def test_point_mass_potential(grid32, table32):
    # convolving a single cell reads the kernel table back, scaled by h^2
    vals = np.zeros((32, 32))
    i0, j0 = 20, 9
    vals[i0, j0] = 1.0
    w = padded_convolve(grid32, vals, table32.k0_hat)
    h = grid32.h
    for i, j in ((5, 5), (20, 9), (31, 0)):
        off = np.hypot((i - i0) * h, (j - j0) * h)
        expect = origin_cell_log_mean(h) if off == 0 else np.log(off)
        assert w[i, j] == pytest.approx(h * h * expect, rel=1e-11, abs=1e-12)


def test_convolution_translation_equivariance(grid32, table32):
    u = gaussian_field(grid32, width=0.6, center=(-1.5, 0.75)).values ** 2
    w = padded_convolve(grid32, u, table32.k0_hat)
    ws = padded_convolve(grid32, shift_cells(Field(grid32, u), 4, -3).values, table32.k0_hat)
    scale = np.max(np.abs(w))
    assert np.max(np.abs(ws[8:-8, 8:-8] - shift_cells(Field(grid32, w), 4, -3).values[8:-8, 8:-8])) <= 1e-12 * scale


@pytest.mark.parametrize("n", [64, 128])
def test_padded_convolve_matches_the_scipy_pruned_pair(n):
    # numpy.fft and scipy.fft share the pocketfft kernels, so the same
    # pruned transform sequence must give the same bits through either
    g = Grid(L=6.0, n=n)
    khat = make_kernel_table(g).k0_hat
    vals = np.random.default_rng(n).standard_normal((n, n))
    spec = sp_fft.fft(sp_fft.rfft(vals, n=2 * n, axis=-1), n=2 * n, axis=-2)
    spec *= khat
    rows = sp_fft.ifft(spec, axis=-2)[:n]
    want = g.h * g.h * sp_fft.irfft(rows, n=2 * n, axis=-1)[:, :n]
    assert np.array_equal(padded_convolve(g, vals, khat), want)


@pytest.mark.parametrize("n", [16, 32, 128])
def test_pruned_convolve_is_bit_identical_to_full_padding(n):
    # the pruned transform skips only rows that are known zeros or
    # discarded, so it must reproduce the full 2n x 2n transform pair exactly
    g = Grid(L=6.0, n=n)
    t = make_kernel_table(g, tau=0.7)
    rng = np.random.default_rng(n)
    for khat in (t.k0_hat, t.k1_hat, t.k2_hat):
        vals = rng.standard_normal((n, n))
        padded = np.zeros((2 * n, 2 * n))
        padded[:n, :n] = vals
        full = np.fft.irfft2(np.fft.rfft2(padded) * khat, s=(2 * n, 2 * n))
        assert np.array_equal(padded_convolve(g, vals, khat), g.h * g.h * full[:n, :n])


def test_padded_convolve_allocates_only_its_result():
    # the transforms run in this thread's workspace, so a warm call
    # allocates its n x n result and little else (the spectra of a freshly
    # allocated transform pair take about 966 KB at n=128)
    n = 128
    g = Grid(L=12.0, n=n)
    khat = make_kernel_table(g).k0_hat
    vals = np.random.default_rng(n).standard_normal((n, n))
    padded_convolve(g, vals, khat)  # builds the workspace
    tracemalloc.start()
    try:
        padded_convolve(g, vals, khat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 8 * n * n


def test_padded_convolve_is_thread_safe():
    # the descents of a multistart convolve side by side, so each thread
    # needs its own workspace; thread 0 also switches n, which rebuilds its
    # workspace while the others keep theirs
    grids = {n: Grid(L=6.0, n=n) for n in (32, 64)}
    khats = {n: make_kernel_table(g).k0_hat for n, g in grids.items()}
    rng = np.random.default_rng(11)
    inputs = {n: [rng.standard_normal((n, n)) for _ in range(4)] for n in grids}
    want = {n: [padded_convolve(grids[n], v, khats[n]) for v in inputs[n]] for n in grids}
    sizes = [[(32, 64, 32)[call % 3] if i == 0 else 32 for call in range(50)] for i in range(4)]
    barrier = threading.Barrier(4)
    matched = [0] * 4

    def calls(i):
        barrier.wait(timeout=60)
        for n in sizes[i]:
            got = padded_convolve(grids[n], inputs[n][i], khats[n])
            matched[i] += np.array_equal(got, want[n][i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=calls, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert matched == [50] * 4


def test_b_form_symmetry_and_bilinearity(grid32, table32):
    rng = np.random.default_rng(7)
    f = Field(grid32, confined_field(grid32, rng))
    g = Field(grid32, confined_field(grid32, rng))
    w = Field(grid32, confined_field(grid32, rng))
    s = b_form(f, g, "B0", table32)
    assert s == pytest.approx(b_form(g, f, "B0", table32), rel=1e-12)
    lin = b_form(Field(grid32, 2.0 * f.values - 3.0 * w.values), g, "B0", table32)
    assert lin == pytest.approx(2.0 * s - 3.0 * b_form(w, g, "B0", table32), rel=1e-11)


def test_gaussian_log_energy_continuum():
    # nested polar quadrature for V0 of a width-0.8 Gaussian density;
    # the lattice sum converges at second order to it
    w = 0.8
    rho = lambda s: np.exp(-s * s / (w * w))

    def phi_at(r):
        inner = quad(lambda s: rho(s) * s, 0.0, r, epsabs=1e-14)[0]
        outer = quad(lambda s: np.log(s) * rho(s) * s, r, 12.0, epsabs=1e-14)[0]
        return 2.0 * np.pi * ((np.log(r) * inner if r > 0 else 0.0) + outer)

    exact = 2.0 * np.pi * quad(lambda r: phi_at(r) * rho(r) * r, 0.0, 8.0, epsabs=1e-13, limit=200)[0]
    assert exact == pytest.approx(-0.6677460900011262, abs=1e-10)  # frozen

    errs = []
    for n in (64, 128):
        g = Grid(L=6.0, n=n)
        u = gaussian_field(g, width=w)
        usq = Field(g, u.values ** 2)
        errs.append(abs(b_form(usq, usq, "B0", make_kernel_table(g)) - exact) / abs(exact))
    assert errs[1] <= 0.005
    assert 3.5 < errs[0] / errs[1] < 4.5


# ----------------------------------------------------- splitting of forms


def test_b_form_splitting(grid32):
    # B1 - B2 = B0 transfers from kernels to forms at every tau
    rng = np.random.default_rng(9)
    f = Field(grid32, confined_field(grid32, rng, nonneg=True))
    g = Field(grid32, confined_field(grid32, rng, nonneg=True))
    for tau in (0.0, 0.5, 1.0, 2.0):
        t = make_kernel_table(grid32, tau=tau)
        b0 = b_form(f, g, "B0", t)
        b1 = b_form(f, g, "B1", t)
        b2 = b_form(f, g, "B2", t)
        assert abs(b1 - b2 - b0) <= 1e-12 * (1.0 + abs(b0))


def test_v1_lower_bound(grid32):
    # log(e^tau + r) >= tau pointwise, hence B1(u^2, u^2) >= tau |u|_2^4
    rng = np.random.default_rng(11)
    for tau in (0.5, 1.0, 2.0):
        t = make_kernel_table(grid32, tau=tau)
        for trial in range(4):
            u = Field(grid32, confined_field(grid32, rng))
            usq = Field(grid32, u.values ** 2)
            v1 = b_form(usq, usq, "B1", t)
            assert v1 >= tau * lp_norm(u, 2) ** 4 * (1.0 - 1e-12)


# ------------------------------------------------------------- guard rails


def test_log_potential_rejects_negative_density(grid32, table32):
    vals = np.zeros((32, 32))
    vals[4, 4] = -1.0
    with pytest.raises(FieldDataError, match="squared"):
        log_potential(Field(grid32, vals), table32)


def test_log_potential_tolerates_rounding_negatives(grid32, table32):
    vals = np.full((32, 32), 1e-16)
    vals[0, 0] = -5e-15  # below magnitude threshold
    out = log_potential(Field(grid32, vals), table32)
    assert np.all(np.isfinite(out.values))


def test_grid_mismatch_between_field_and_table(grid32):
    other = make_kernel_table(Grid(L=6.0, n=64))
    with pytest.raises(GridMismatchError):
        log_potential(gaussian_field(grid32), other)


@pytest.mark.parametrize("shape", [(16, 16), (32, 33)], ids=["half", "extra-column"])
def test_padded_convolve_rejects_wrong_shape(grid32, table32, shape):
    # the transform lengths would silently pad or truncate a wrong-size array
    with pytest.raises(GridMismatchError):
        padded_convolve(grid32, np.ones(shape), table32.k0_hat)


def test_direct_oracle_refuses_large_grids():
    g = Grid(L=6.0, n=128)
    t = make_kernel_table(g)
    u = gaussian_field(g)
    with pytest.raises(GridResolutionError):
        direct_oracle(u, u, "B0", t)


def test_bad_form_name(grid32, table32):
    u = gaussian_field(grid32)
    with pytest.raises(ValueError):
        b_form(u, u, "B7", table32)
