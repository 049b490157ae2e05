import dataclasses

import numpy as np
import pytest

from compint import modes
from compint.modes import (
    BasisKind,
    ComplexModalField,
    GridResolutionWarning,
    ModeBasis,
    SampledGrid,
    default_grid,
    delay_kernel,
    field_interferogram,
    generalized_delay,
    mode_function,
    mode_table,
    synthesize,
)
from compint.sensing import ModalSpectrum, analytic_interferogram

from oracles import hermite_gauss, laguerre_gauss_radial, synthesize_reference


def trapezoid_grid(lo, hi, points):
    x = np.linspace(lo, hi, points)
    w = np.full(points, x[1] - x[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    return SampledGrid(x, w)


# ---------------------------------------------------------------- mode values


def test_ground_mode_peak_value():
    # psi_1(0) = pi^{-1/4} for unit waist; an odd point count puts a node at 0
    basis = ModeBasis(BasisKind.HERMITE_GAUSS_1D, 1)
    grid = default_grid(basis, points=1025)
    idx = int(np.argmin(np.abs(grid.points)))
    assert grid.points[idx] == 0.0
    psi = mode_function(basis, 1, grid)
    assert abs(psi[idx] - np.pi ** -0.25) < 1e-14


@pytest.mark.parametrize("waist", [1.0, 2.0])
def test_hermite_gauss_matches_reference(waist):
    basis = ModeBasis(BasisKind.HERMITE_GAUSS_1D, 21, waist=waist)
    x = np.linspace(-5.0 * waist, 5.0 * waist, 41)
    w = np.full(41, x[1] - x[0])
    table = mode_table(basis, SampledGrid(x, w))
    for n in range(1, 22):
        ref = hermite_gauss(x, n - 1, waist=waist)
        assert np.max(np.abs(table[:, n - 1] - ref)) < 1e-12


@pytest.mark.parametrize("waist", [1.0, 1.5])
def test_laguerre_gauss_matches_reference(waist):
    basis = ModeBasis(BasisKind.LAGUERRE_GAUSS_RADIAL, 21, waist=waist)
    r = np.linspace(0.0, 4.0 * waist, 33)
    w = np.full(33, 1.0)
    table = mode_table(basis, SampledGrid(r, w))
    for n in range(1, 22):
        ref = laguerre_gauss_radial(r, n - 1, waist=waist)
        assert np.max(np.abs(table[:, n - 1] - ref)) < 1e-12


@pytest.mark.parametrize("kind", list(BasisKind))
def test_default_grid_orthonormality_to_order_64(kind):
    basis = ModeBasis(kind, 64)
    grid = default_grid(basis)
    table = mode_table(basis, grid)
    gram = table.T @ (grid.weights[:, None] * table)
    assert np.max(np.abs(gram - np.eye(64))) < 1e-10


@pytest.mark.parametrize("kind", list(BasisKind))
def test_default_grid_is_shared_and_read_only(kind):
    basis = ModeBasis(kind, 8, waist=1.5)
    grid = default_grid(basis)
    again = default_grid(ModeBasis(kind, 8, waist=1.5))
    np.testing.assert_array_equal(again.points, grid.points)
    np.testing.assert_array_equal(again.weights, grid.weights)
    with pytest.raises(ValueError):
        grid.points[0] = 0.0
    with pytest.raises(ValueError):
        grid.weights[0] = 1.0
    assert again is grid   # memoised by (kind, waist, points)


# ------------------------------------------------------- Gauss-Legendre rule


_GL_SIZES = [2, 3, 4, 5, 64, 255, 256, 1024, 1025]


@pytest.mark.parametrize("n", _GL_SIZES)
def test_gauss_legendre_integrates_degree_2n_minus_1(n):
    # int_{-1}^{1} P_j = 2 for j = 0 and 0 otherwise, exactly for j <= 2n - 1
    x, w = modes._gauss_legendre(n)
    moments = w @ np.polynomial.legendre.legvander(x, 2 * n - 1)
    expected = np.zeros(2 * n)
    expected[0] = 2.0
    assert np.max(np.abs(moments - expected)) < 1e-13


@pytest.mark.parametrize("n", _GL_SIZES)
def test_gauss_legendre_is_ascending_and_exactly_symmetric(n):
    x, w = modes._gauss_legendre(n)
    assert x.shape == w.shape == (n,)
    assert (np.diff(x) > 0).all()
    assert (x == -x[::-1]).all()
    assert (w == w[::-1]).all()
    assert (w > 0).all()


@pytest.mark.parametrize("n", _GL_SIZES)
def test_gauss_legendre_matches_numpy_leggauss(n):
    x, w = modes._gauss_legendre(n)
    ref_x, ref_w = np.polynomial.legendre.leggauss(n)
    # ulps of each node; at odd n both rules put the middle node at 0 exactly
    assert (np.abs(x - ref_x) <= 4 * np.spacing(np.abs(ref_x))).all()
    # leggauss's own weights are ~1e-8 off near +-1 at n = 1025
    assert np.max(np.abs(w - ref_w) / ref_w) < 1e-7


def test_gauss_legendre_memory_is_linear():
    import tracemalloc

    tracemalloc.start()
    try:
        modes._gauss_legendre(1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000   # leggauss(1024) peaks near 9 MB


def test_gauss_legendre_refuses_unconverged_nodes(monkeypatch):
    monkeypatch.setattr(modes, "_NEWTON_STEPS", 1)
    with pytest.raises(RuntimeError, match="did not converge"):
        modes._gauss_legendre(64)


def test_laguerre_gauss_default_grid_orthonormality_is_near_rounding():
    basis = ModeBasis(BasisKind.LAGUERRE_GAUSS_RADIAL, 64)
    grid = default_grid(basis)
    table = mode_table(basis, grid)
    gram = table.T @ (grid.weights[:, None] * table)
    assert np.max(np.abs(gram - np.eye(64))) < 1e-14


@pytest.mark.parametrize("kind", list(BasisKind))
def test_default_grid_is_shared_across_orders(kind):
    small, large = ModeBasis(kind, 8), ModeBasis(kind, 64)
    grid = default_grid(small)
    assert default_grid(large) is grid
    assert default_grid(large, points=512) is not grid
    assert default_grid(ModeBasis(kind, 64, waist=2.0)) is not grid
    # each basis keeps its own table on the shared grid
    assert mode_table(small, grid).shape == (1024, 8)
    np.testing.assert_array_equal(mode_table(large, grid, 8), mode_table(small, grid))


def test_modest_order_orthonormality_on_coarser_span():
    # a narrower hand-built trapezoid grid still resolves low orders
    grid = trapezoid_grid(-10.0, 10.0, 1024)
    basis = ModeBasis(BasisKind.HERMITE_GAUSS_1D, 8)
    table = mode_table(basis, grid)
    gram = table.T @ (grid.weights[:, None] * table)
    assert np.max(np.abs(gram - np.eye(8))) < 1e-6


def test_mode_index_bounds():
    basis = ModeBasis(BasisKind.HERMITE_GAUSS_1D, 4)
    grid = default_grid(basis, points=64)
    with pytest.raises(IndexError):
        mode_function(basis, 0, grid)
    with pytest.raises(IndexError):
        mode_function(basis, 5, grid)
    with pytest.raises(IndexError):
        mode_table(basis, grid, n_max=0)
    with pytest.raises(IndexError):
        mode_table(basis, grid, n_max=5)


def test_inadequate_grid_warns():
    basis = ModeBasis(BasisKind.HERMITE_GAUSS_1D, 20)
    narrow = trapezoid_grid(-3.0, 3.0, 64)
    with pytest.warns(GridResolutionWarning):
        mode_function(basis, 20, narrow)


def test_adequate_grid_does_not_warn():
    basis = ModeBasis(BasisKind.HERMITE_GAUSS_1D, 20)
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mode_function(basis, 20, default_grid(basis))


# ------------------------------------------------------------ mode table memo


_BUILDERS = {BasisKind.HERMITE_GAUSS_1D: "_hg_table",
             BasisKind.LAGUERRE_GAUSS_RADIAL: "_lg_radial_table"}


def fresh_grid(basis):
    # the default grid's nodes in a new SampledGrid, which holds no tables yet
    grid = default_grid(basis)
    return SampledGrid(grid.points, grid.weights)


def count_builds(monkeypatch):
    builds = []
    for name in _BUILDERS.values():
        def counted(points, n_max, waist, _build=getattr(modes, name)):
            builds.append(n_max)
            return _build(points, n_max, waist)
        monkeypatch.setattr(modes, name, counted)
    return builds


@pytest.mark.parametrize("kind", list(BasisKind))
def test_mode_table_built_once_per_grid_and_basis(kind, monkeypatch):
    basis = ModeBasis(kind, 16)
    builds = count_builds(monkeypatch)
    field = ComplexModalField(basis, np.linspace(1.0, 2.0, 16) + 0.5j)
    grid = fresh_grid(basis)
    for alpha in np.linspace(0.0, 6.0, 10):
        field_interferogram(field, float(alpha), grid)
    assert builds == [16]
    builds.clear()
    grid = fresh_grid(basis)
    for n in range(1, 17):
        mode_function(basis, n, grid)
    assert builds == [16]   # one full table, not 16 of growing width


@pytest.mark.parametrize("kind", list(BasisKind))
def test_mode_table_is_read_only(kind):
    basis = ModeBasis(kind, 8)
    grid = fresh_grid(basis)
    for table in (mode_table(basis, grid), mode_table(basis, grid, 3)):
        with pytest.raises(ValueError):
            table[0, 0] = 1.0


@pytest.mark.parametrize("kind", list(BasisKind))
def test_mode_table_starts_on_a_64_byte_boundary(kind):
    # products with the table are slower when numpy's 16-byte alignment
    # leaves its start off a 32-byte boundary
    for n in (8, 64):
        basis = ModeBasis(kind, n)
        assert mode_table(basis, fresh_grid(basis)).ctypes.data % 64 == 0


@pytest.mark.parametrize("kind", list(BasisKind))
def test_mode_table_columns_match_a_direct_build(kind):
    basis = ModeBasis(kind, 64)
    grid = fresh_grid(basis)
    build = getattr(modes, _BUILDERS[kind])
    for k in (1, 5, 64):
        assert np.array_equal(mode_table(basis, grid, k),
                              build(grid.points, k, basis.waist))


@pytest.mark.parametrize("kind", list(BasisKind))
def test_mode_tables_are_kept_per_grid_and_per_basis(kind):
    basis = ModeBasis(kind, 8)
    grid, twin = fresh_grid(basis), fresh_grid(basis)
    table = mode_table(basis, grid)
    assert not np.shares_memory(table, mode_table(basis, twin))
    wider = mode_table(ModeBasis(kind, 8, waist=2.0), grid)
    assert not np.shares_memory(table, wider)
    assert not np.array_equal(table, wider)
    longer = mode_table(ModeBasis(kind, 12), grid)
    assert longer.shape == (len(grid), 12)
    assert not np.shares_memory(table, longer)
    assert np.array_equal(longer[:, :8], table)
    # the memo is no dataclass field: repr omits it and a replaced grid
    # starts with none of the original's tables
    assert repr(grid).startswith("SampledGrid(points=array(")
    assert "_tables" not in repr(grid)
    copy = dataclasses.replace(grid)
    np.testing.assert_array_equal(copy.points, grid.points)
    assert not np.shares_memory(mode_table(basis, copy), table)


# ------------------------------------------------------------------ dataclasses


def test_grid_validation():
    with pytest.raises(ValueError):
        SampledGrid(np.array([0.0, 0.0, 1.0]), np.ones(3))
    with pytest.raises(ValueError):
        SampledGrid(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        default_grid(ModeBasis(BasisKind.HERMITE_GAUSS_1D, 2), points=1)


def test_field_validation():
    basis = ModeBasis(BasisKind.HERMITE_GAUSS_1D, 3)
    with pytest.raises(ValueError):
        ComplexModalField(basis, np.zeros(2, complex))
    with pytest.raises(ValueError):
        ComplexModalField(basis, np.array([1.0, np.nan, 0.0]))
    with pytest.raises(ValueError):
        ComplexModalField(basis, np.array([1.0, 1.0, 0.0]), normalized=True)
    field = ComplexModalField(basis, np.array([0.0, 1.0, 0.0]), normalized=True)
    np.testing.assert_allclose(field.mode_weights(), [0.0, 1.0, 0.0])
    with pytest.raises(ValueError):
        field.coeffs[0] = 1.0


def test_basis_validation():
    with pytest.raises(ValueError):
        ModeBasis(BasisKind.HERMITE_GAUSS_1D, 0)
    with pytest.raises(ValueError):
        ModeBasis(BasisKind.HERMITE_GAUSS_1D, 4, waist=-1.0)


# ------------------------------------------------------------------ delays


def test_delay_zero_and_full_turn_are_identity():
    basis = ModeBasis(BasisKind.HERMITE_GAUSS_1D, 6)
    rng = np.random.default_rng(5)
    c = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    field = ComplexModalField(basis, c)
    np.testing.assert_array_equal(generalized_delay(field, 0.0).coeffs, c)
    np.testing.assert_array_equal(generalized_delay(field, 2.0 * np.pi).coeffs, c)
    # a tiny negative delay reduces to 0, not to the float just below 2 pi
    np.testing.assert_array_equal(generalized_delay(field, -1e-20).coeffs, c)
    # the kernel and the field-level interferogram follow the same rule
    grid = default_grid(basis, points=96)
    identity = delay_kernel(basis, 0.0, grid)
    for alpha in (2.0 * np.pi, -1e-20):
        np.testing.assert_array_equal(delay_kernel(basis, alpha, grid), identity)
        assert field_interferogram(field, alpha) == 2.0


def test_delay_single_mode_phase():
    basis = ModeBasis(BasisKind.HERMITE_GAUSS_1D, 2)
    field = ComplexModalField(basis, np.array([0.0, 1.0]), normalized=True)
    out = generalized_delay(field, np.pi / 2.0)
    assert abs(out.coeffs[1] - (-1.0)) < 1e-12


def test_delay_preserves_weights_and_composes():
    basis = ModeBasis(BasisKind.HERMITE_GAUSS_1D, 8)
    rng = np.random.default_rng(0)
    c = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    c /= np.sqrt(np.sum(np.abs(c) ** 2))
    field = ComplexModalField(basis, c, normalized=True)
    for a, b in [(0.3, 1.1), (2.0, 5.9), (np.pi, np.pi)]:
        once = generalized_delay(field, a + b)
        twice = generalized_delay(generalized_delay(field, a), b)
        np.testing.assert_allclose(twice.coeffs, once.coeffs, atol=1e-12)
        np.testing.assert_allclose(once.mode_weights(), field.mode_weights(),
                                   atol=1e-12)
    with pytest.raises(ValueError):
        generalized_delay(field, np.inf)


def test_delay_kernel_identity_and_eigenphases():
    basis = ModeBasis(BasisKind.HERMITE_GAUSS_1D, 8)
    grid = default_grid(basis, points=256)
    table = mode_table(basis, grid)

    kernel = delay_kernel(basis, 0.0, grid)
    psi3 = table[:, 2]
    assert np.max(np.abs(kernel @ (grid.weights * psi3) - psi3)) < 1e-8

    rng = np.random.default_rng(1)
    for alpha in rng.uniform(0.0, 2.0 * np.pi, 16):
        kernel = delay_kernel(basis, float(alpha), grid)
        for n in range(1, 9):
            psi = table[:, n - 1]
            out = kernel @ (grid.weights * psi)
            expect = np.exp(1j * n * alpha) * psi
            assert np.max(np.abs(out - expect)) < 1e-8


def test_delay_kernel_half_turn_flips_odd_harmonics():
    basis = ModeBasis(BasisKind.HERMITE_GAUSS_1D, 8)
    grid = default_grid(basis, points=256)
    table = mode_table(basis, grid)
    kernel = delay_kernel(basis, np.pi, grid)
    out = kernel @ (grid.weights * (table[:, 0] + table[:, 1]))
    expect = -table[:, 0] + table[:, 1]
    assert np.max(np.abs(out - expect)) < 1e-8


def test_kernel_matches_coefficient_delay():
    basis = ModeBasis(BasisKind.LAGUERRE_GAUSS_RADIAL, 6)
    grid = default_grid(basis, points=256)
    rng = np.random.default_rng(9)
    c = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    field = ComplexModalField(basis, c)
    alpha = 1.7
    via_coeffs = synthesize(generalized_delay(field, alpha), grid)
    via_kernel = delay_kernel(basis, alpha, grid) @ (
        grid.weights * synthesize(field, grid))
    assert np.max(np.abs(via_coeffs - via_kernel)) < 1e-8


# ------------------------------------------------------------ interferograms


@pytest.mark.parametrize("kind", list(BasisKind))
def test_single_mode_interferogram(kind):
    basis = ModeBasis(kind, 8)
    c = np.zeros(8, complex)
    c[2] = 1.0
    field = ComplexModalField(basis, c, normalized=True)
    for alpha in np.linspace(0.0, 2.0 * np.pi, 9):
        expect = 1.0 + np.cos(3.0 * alpha)
        assert abs(field_interferogram(field, float(alpha)) - expect) < 1e-6


def test_interferogram_pinned_at_zero_delay():
    basis = ModeBasis(BasisKind.HERMITE_GAUSS_1D, 4)
    rng = np.random.default_rng(3)
    c = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    field = ComplexModalField(basis, c)
    assert field_interferogram(field, 0.0) == 2.0


def test_two_mode_destructive_point():
    # equal weight on harmonics 1 and 3 cancels the bias at alpha = pi
    basis = ModeBasis(BasisKind.HERMITE_GAUSS_1D, 4)
    c = np.zeros(4, complex)
    c[0] = np.sqrt(0.5)
    c[2] = np.sqrt(0.5)
    field = ComplexModalField(basis, c, normalized=True)
    assert abs(field_interferogram(field, np.pi)) < 1e-10


@pytest.mark.parametrize("kind", list(BasisKind))
@pytest.mark.parametrize("n", [1, 8, 64])
def test_synthesize_matches_complex_product(kind, n):
    basis = ModeBasis(kind, n)
    grid = default_grid(basis)
    rng = np.random.default_rng(29 + n)
    for _ in range(5):
        field = ComplexModalField(
            basis, rng.standard_normal(n) + 1j * rng.standard_normal(n))
        got = synthesize(field, grid)
        ref = synthesize_reference(mode_table(basis, grid), field.coeffs)
        assert got.dtype == complex
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_delay_phases_are_shared_and_read_only():
    harmonics = modes._harmonics(6)
    assert modes._harmonics(6) is harmonics
    with pytest.raises(ValueError):
        harmonics[0] = 0.0
    for alpha in (0.3, 4.0, -2.5, 7.0):
        # the expression generalized_delay and delay_kernel evaluated inline
        expect = np.exp(1j * np.arange(1, 7) * (float(alpha) % (2.0 * np.pi)))
        np.testing.assert_array_equal(modes._delay_phases(6, alpha), expect)
    with pytest.raises(ValueError, match="alpha must be finite"):
        modes._delay_phases(6, np.nan)
    with pytest.raises(ValueError, match="alpha must be finite"):
        delay_kernel(ModeBasis(BasisKind.HERMITE_GAUSS_1D, 2), np.inf,
                     default_grid(ModeBasis(BasisKind.HERMITE_GAUSS_1D, 2), 16))


@pytest.mark.parametrize("normalized", [False, True])
def test_interferogram_synthesizes_the_generalized_delay(normalized, monkeypatch):
    basis = ModeBasis(BasisKind.LAGUERRE_GAUSS_RADIAL, 8)
    c = np.linspace(1.0, 2.0, 8) - 0.5j
    field = ComplexModalField(basis, c / np.linalg.norm(c), normalized=normalized)
    seen = []

    def recorded(f, grid, _synthesize=modes.synthesize):
        seen.append(f)
        return _synthesize(f, grid)
    monkeypatch.setattr(modes, "synthesize", recorded)
    for alpha in (0.0, 1.3, -4.0, 2.0 * np.pi):
        seen.clear()
        field_interferogram(field, alpha)
        delayed = seen[-1]
        assert delayed == generalized_delay(field, alpha)
        assert delayed.normalized == normalized
        assert delayed._reference is None
        assert not delayed.coeffs.flags.writeable
        assert not np.shares_memory(delayed.coeffs, field.coeffs)


def test_zero_field_rejected():
    basis = ModeBasis(BasisKind.HERMITE_GAUSS_1D, 4)
    field = ComplexModalField(basis, np.zeros(4, complex))
    for _ in range(2):   # also once the zero reference is stored
        with pytest.raises(ValueError, match="zero norm"):
            field_interferogram(field, 1.0)


@pytest.mark.parametrize("scale", [1e-170, 1e-200])
def test_underflowing_norm_rejected(scale):
    # a nonzero field whose norm underflows to 0 cannot be normalized
    basis = ModeBasis(BasisKind.HERMITE_GAUSS_1D, 8)
    field = ComplexModalField(basis, np.full(8, scale, complex))
    for alpha in (0.0, 1.0):
        with pytest.raises(ValueError, match="underflows"):
            field_interferogram(field, alpha)


@pytest.mark.parametrize("scale", [1e160, 1e200])
def test_overflowing_norm_rejected(scale):
    # such a field used to give nan at every alpha, P(0) included; at
    # alpha = pi one mode nearly cancels its reference, so P could be finite
    for n in (8, 1):
        basis = ModeBasis(BasisKind.HERMITE_GAUSS_1D, n)
        field = ComplexModalField(basis, np.full(n, scale, complex))
        for alpha in (0.0, 1.0, np.pi):
            with (np.errstate(over="ignore"),
                  pytest.raises(ValueError, match="field norm overflows")):
                field_interferogram(field, alpha)


def test_overflowing_interferogram_rejected():
    # the norm is finite, but |E + ref|^2 = 4 |E|^2 at alpha = 0 is not
    basis = ModeBasis(BasisKind.HERMITE_GAUSS_1D, 1)
    grid = SampledGrid(np.array([0.0]), np.array([1.0]))
    psi = mode_table(basis, grid)[0, 0]
    field = ComplexModalField(basis, np.array([1e154 / psi]))
    with (np.errstate(over="ignore"),
          pytest.raises(ValueError, match="interferogram overflows")):
        field_interferogram(field, 0.0, grid)
    _, _, base = field._reference
    assert np.isfinite(base)


@pytest.mark.parametrize("scale", [1e-150, 1e150])
def test_large_and_small_norms_still_evaluate(scale):
    basis = ModeBasis(BasisKind.HERMITE_GAUSS_1D, 8)
    c = np.linspace(1.0, 2.0, 8) + 0.25j
    field = ComplexModalField(basis, scale * c)
    unit = ComplexModalField(basis, c)
    assert field_interferogram(field, 0.0) == 2.0
    assert abs(field_interferogram(field, 1.0) - field_interferogram(unit, 1.0)) < 1e-12


@pytest.mark.parametrize("kind", list(BasisKind))
def test_field_interferogram_matches_weight_formula(kind):
    # P(alpha) - 1 from field-level quadrature equals the cosine series in
    # the modal weights, for random normalized fields
    basis = ModeBasis(kind, 8)
    grid = default_grid(basis)
    rng = np.random.default_rng(17)
    for _ in range(20):
        c = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        c /= np.sqrt(np.sum(np.abs(c) ** 2))
        field = ComplexModalField(basis, c, normalized=True)
        x = ModalSpectrum(field.mode_weights(), normalized=True)
        for alpha in rng.uniform(0.0, 2.0 * np.pi, 8):
            got = field_interferogram(field, float(alpha), grid)
            expect = analytic_interferogram(x, float(alpha))
            assert abs(got - expect) < 1e-9


# ------------------------------------------------------ memoised reference


def unmemoised_interferogram(field, alpha, grid):
    # field_interferogram's formula with the reference built on every call
    ref = synthesize(field, grid)
    base = float(grid.weights @ (ref.real ** 2 + ref.imag ** 2))
    both = synthesize(generalized_delay(field, alpha), grid) + ref
    return float(grid.weights @ (both.real ** 2 + both.imag ** 2)) / (2.0 * base)


@pytest.mark.parametrize("kind", list(BasisKind))
@pytest.mark.parametrize("support", [3, 64])
def test_memoised_interferogram_is_bit_identical(kind, support):
    basis = ModeBasis(kind, 64)
    grid = default_grid(basis)
    rng = np.random.default_rng(2900 + support)
    for _ in range(3):
        c = np.zeros(64, complex)
        idx = rng.choice(64, size=support, replace=False)
        c[idx] = rng.standard_normal(support) + 1j * rng.standard_normal(support)
        field = ComplexModalField(basis, c)
        spread = rng.uniform(0.0, 2.0 * np.pi, 10)
        alphas = [0.0, np.pi, *spread, *(2.0 * np.pi - spread)]
        for _ in range(2):
            for alpha in alphas:
                got = field_interferogram(field, float(alpha), grid)
                assert got == unmemoised_interferogram(field, float(alpha), grid)
        assert field_interferogram(field, 0.0, grid) == 2.0


def count_synthesize(monkeypatch):
    calls = []

    def counted(field, grid, _synthesize=modes.synthesize):
        calls.append(grid)
        return _synthesize(field, grid)
    monkeypatch.setattr(modes, "synthesize", counted)
    return calls


@pytest.mark.parametrize("kind", list(BasisKind))
def test_reference_synthesized_once_per_field_and_grid(kind, monkeypatch):
    basis = ModeBasis(kind, 16)
    calls = count_synthesize(monkeypatch)
    field = ComplexModalField(basis, np.linspace(1.0, 2.0, 16) + 0.5j)
    field_interferogram(field, 0.3)
    assert len(calls) == 2        # the reference, then the delayed field
    for grid in (None, default_grid(basis), None):
        calls.clear()
        field_interferogram(field, 1.1, grid)
        assert len(calls) == 1    # the shared default grid hits the entry
    # alternating between twin grids replaces the entry on every call
    twins = fresh_grid(basis), fresh_grid(basis)
    for k, alpha in enumerate(np.linspace(0.0, 6.0, 6)):
        grid = twins[k % 2]
        calls.clear()
        got = field_interferogram(field, float(alpha), grid)
        assert calls == [grid, grid]
        assert got == field_interferogram(
            ComplexModalField(basis, field.coeffs), float(alpha), grid)
    calls.clear()
    field_interferogram(field, 2.0, twins[1])
    assert len(calls) == 1


@pytest.mark.parametrize("kind", list(BasisKind))
def test_reference_is_read_only_and_no_dataclass_field(kind):
    basis = ModeBasis(kind, 1)
    field = ComplexModalField(basis, [0.6 + 0.8j])
    assert field._reference is None
    field_interferogram(field, 1.0)
    grid, ref, base = field._reference
    assert grid is default_grid(basis)
    with pytest.raises(ValueError):
        ref[0] = 0.0
    assert np.array_equal(ref, synthesize(field, grid))
    assert "_reference" not in repr(field)
    assert field == ComplexModalField(basis, [0.6 + 0.8j])
    assert dataclasses.replace(field)._reference is None
