"""Optical modal bases and the generalized delay.

Fields are expanded in an orthonormal modal family psi_n (1D Hermite-Gauss on
the line, or radial Laguerre-Gauss on the half line with measure r dr).  The
generalized delay of parameter alpha multiplies the n-th modal coefficient by
exp(i*n*alpha), n = 1..N; it is the coefficient-space form of the kernel
Lambda(x, x'; alpha) = sum_n exp(i*n*alpha) psi_n(x) psi_n(x'), which has the
basis functions as eigenstates.  Harmonic index n runs from 1, so the physical
mode labels HG_k / LG_p map to n = k + 1 / p + 1.

Interference of a delayed field with its alpha = 0 reference gives the
interferogram P(alpha) = 1 + sum_n |c_n|^2 cos(n*alpha) after normalizing the
baseline P(0) to 2; `field_interferogram` computes it from sampled fields and
serves as the quadrature-level oracle for the analytic formula.
"""
from __future__ import annotations

import enum
import functools
import math
import warnings
from dataclasses import dataclass, fields

import numpy as np

# Grid extent in waist units.  The highest mode (N = 64) oscillates out to its
# classical turning point sqrt(2N - 1) ~ 11.3 waists; 14 leaves the Gaussian
# tail below 1e-12 so discrete orthonormality holds to ~1e-14.
_EXTENT_WAISTS = 14.0
_DEFAULT_POINTS = 1024

# Newton steps allowed per Gauss-Legendre rule, and the largest last step
# (4 ulp of 1) that counts as converged: Newton's error after a step s is
# about s^2 x / (1 - x^2) <= s^2 n^2, far below an ulp.  From Tricomi's
# guesses 3 or 4 steps sufficed for every n in 2..1099 and at n = 2048,
# 4096 and 8192.
_NEWTON_STEPS = 8
_NEWTON_TOL = 4 * np.finfo(float).eps

# Discrete mode norms further than this from 1 indicate an inadequate grid.
_NORM_WARN_TOL = 1e-3

# Memoised mode tables start on this byte boundary.  numpy aligns arrays to 16
# bytes only, and `synthesize`'s (1024 x 64) @ (64 x 2) product took 12 us
# from a 64-byte boundary against 14-16 us from 8-, 16-, 32- and 48-byte
# offsets (OpenBLAS 0.3.31, one thread, 2-CPU x86-64 VM), which made its speed
# depend on what the heap held before.
_TABLE_ALIGN = 64

_TWO_PI = 2.0 * np.pi


class GridResolutionWarning(UserWarning):
    """Grid too coarse or too narrow for the requested mode order."""


class BasisKind(enum.Enum):
    HERMITE_GAUSS_1D = "hg"
    LAGUERRE_GAUSS_RADIAL = "lg"


@dataclass(frozen=True)
class ModeBasis:
    """Modal family, truncation order N, and transverse scale."""

    kind: BasisKind
    max_order: int
    waist: float = 1.0

    def __post_init__(self):
        if not isinstance(self.kind, BasisKind):
            raise ValueError(f"kind must be a BasisKind, got {self.kind!r}")
        if self.max_order < 1:
            raise ValueError(f"max_order must be >= 1, got {self.max_order}")
        if not (np.isfinite(self.waist) and self.waist > 0):
            raise ValueError(f"waist must be positive, got {self.waist}")


def _own(obj, name: str, dtype=float) -> np.ndarray:
    """Store on frozen `obj` a read-only copy of its field `name`; return it."""
    arr = np.array(getattr(obj, name), dtype=dtype)
    arr.flags.writeable = False
    object.__setattr__(obj, name, arr)
    return arr


def _own_vector(obj, name: str, dtype=float) -> np.ndarray:
    """`_own`, for a field that must be a non-empty, finite 1-D array."""
    arr = _own(obj, name, dtype)
    if arr.ndim != 1 or len(arr) == 0:
        raise ValueError(f"{name} must be a non-empty 1-D sequence")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    return arr


def _value_eq(self, other):
    """`==` by value: same type and equal dataclass fields, arrays by np.array_equal."""
    if other.__class__ is not self.__class__:
        return NotImplemented
    for f in fields(self):
        a, b = getattr(self, f.name), getattr(other, f.name)
        if not (np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b):
            return False
    return True


def _frozen_value(cls):
    """`dataclass(frozen=True)` for a type with ndarray fields, compared by value.

    The generated `==` would compare the arrays elementwise and raise on
    their truth value; `_value_eq` takes its place.  Slots that are not
    dataclass fields (`_tables`, `_reference`) take no part.  Such a type
    stays unhashable, as its arrays are.
    """
    cls.__eq__ = _value_eq
    cls.__hash__ = None
    return dataclass(frozen=True, eq=False)(cls)


@_frozen_value
class SampledGrid:
    """Quadrature nodes and weights discretizing the transverse integral.

    Each grid also keeps the mode tables built on it (see `mode_table`), in a
    dict that is not a dataclass field, so `repr`, `==` and
    `dataclasses.replace` ignore it and a replaced grid starts empty.
    """

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "_tables", {})
        pts = _own_vector(self, "points")
        wts = _own_vector(self, "weights")
        if len(pts) != len(wts):
            raise ValueError("points and weights must have equal length")
        if (np.diff(pts) <= 0).any():
            raise ValueError("grid points must be strictly increasing")
        if (wts <= 0).any():
            raise ValueError("quadrature weights must be positive")

    def __len__(self) -> int:
        return len(self.points)


@_frozen_value
class ComplexModalField:
    """Complex modal coefficients c_n, n = 1..N, in a given basis.

    Each field also keeps its alpha = 0 reference and that reference's norm
    for the last grid it was evaluated on (see `field_interferogram`), in a
    `_reference` slot that is not a dataclass field, so `repr`, `==` and
    `dataclasses.replace` ignore it and a replaced field starts empty.
    `field_interferogram` evaluates each delay through `_delayed`, a field
    derived from its parent without `__post_init__`'s copy and checks.
    """

    basis: ModeBasis
    coeffs: np.ndarray
    normalized: bool = False

    def __post_init__(self):
        object.__setattr__(self, "_reference", None)
        c = _own_vector(self, "coeffs", complex)
        if len(c) != self.basis.max_order:
            raise ValueError(
                f"expected {self.basis.max_order} coefficients, got {len(c)}")
        if self.normalized:
            total = float(np.vdot(c, c).real)
            if abs(total - 1.0) > 1e-9:
                raise ValueError(
                    f"normalized field must have unit power, got {total}")

    @classmethod
    def _delayed(cls, field: ComplexModalField,
                 coeffs: np.ndarray) -> ComplexModalField:
        """`field` delayed, from `coeffs`, a new array of field.coeffs times phases.

        Skips the copy and the checks of `__post_init__`: coeffs is new, 1-D
        and of length N, and its entries are unit-modulus multiples of
        entries that passed those checks, so it is finite wherever the
        parent's norm is, and keeps the parent's power.
        """
        coeffs.flags.writeable = False
        out = object.__new__(cls)
        object.__setattr__(out, "basis", field.basis)
        object.__setattr__(out, "coeffs", coeffs)
        object.__setattr__(out, "normalized", field.normalized)
        object.__setattr__(out, "_reference", None)
        return out

    def mode_weights(self) -> np.ndarray:
        """Modal weights |c_n|^2."""
        return np.abs(self.coeffs) ** 2


def _legendre(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_n'(x), by the three-term recurrence on all of x at once.

    P_{k+1} = x P_k + k/(k+1) (x P_k - P_{k-1}) runs in place on three
    buffers, so the cost is O(n len(x)) time and O(len(x)) memory; then
    P_n' = n (P_{n-1} - x P_n) / (1 - x^2), for |x| < 1.
    """
    prev, cur, xp = np.ones_like(x), x.copy(), np.empty_like(x)
    for k in range(1, n):
        np.multiply(x, cur, out=xp)
        np.subtract(xp, prev, out=prev)
        prev *= k / (k + 1.0)
        prev += xp
        prev, cur = cur, prev
    return cur, n * (prev - x * cur) / ((1.0 - x) * (1.0 + x))


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (ascending) and weights of the n-point Gauss-Legendre rule on [-1, 1].

    Newton's method on P_n from Tricomi's guesses
    x_k = cos(pi (4k - 1) / (4n + 2)) (1 - (n - 1) / (8 n^3)) for the
    nonnegative half (Hale & Townsend 2013), then w = 2 / ((1 - x^2) P_n'^2)
    at the converged nodes; both halves are mirrored, so the rule is exactly
    symmetric, with x = 0 exactly at odd n.  Time is O(n^2) and memory O(n),
    against the dense n x n eigenproblem of the Golub-Welsch route, and the
    weights are more accurate near +-1.  Raises RuntimeError rather than
    return nodes whose last Newton step still exceeded _NEWTON_TOL after
    _NEWTON_STEPS steps.
    """
    half = (n + 1) // 2
    k = np.arange(1, half + 1)
    x = np.cos(np.pi * (4 * k - 1) / (4 * n + 2)) * (1.0 - (n - 1) / (8.0 * n ** 3))
    if n % 2:
        x[-1] = 0.0   # P_n is odd, and its recurrence keeps 0 a root exactly
    for _ in range(_NEWTON_STEPS):
        p, dp = _legendre(n, x)
        step = p / dp
        x -= step
        if np.max(np.abs(step)) <= _NEWTON_TOL:
            break
    else:
        raise RuntimeError(f"Gauss-Legendre nodes for n={n} did not converge "
                           f"in {_NEWTON_STEPS} Newton steps")
    _, dp = _legendre(n, x)
    w = 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)
    nodes, weights = np.empty(n), np.empty(n)
    # At odd n the halves share the middle entry; the second write sets +0.0.
    nodes[:half], nodes[n - half:] = -x, x[::-1]
    weights[:half], weights[n - half:] = w, w[::-1]
    return nodes, weights


def default_grid(basis: ModeBasis, points: int = _DEFAULT_POINTS) -> SampledGrid:
    """Grid adequate for orthonormality to ~1e-14 up to basis.max_order <= 64.

    Hermite-Gauss: uniform trapezoid rule on [-14 w, 14 w] (the integrand
    decays like a Gaussian at both ends, so the trapezoid rule is spectrally
    accurate).  Radial Laguerre-Gauss: the `points`-point Gauss-Legendre rule
    (`_gauss_legendre`) mapped to [0, 14 w], with the radial measure folded
    into the weights (w_i * r_i); a uniform rule is not used because its
    O(h^2) boundary error at r = 0 caps the attainable orthonormality near
    1e-5.

    A grid depends only on (basis.kind, basis.waist, points) and is memoised
    by that key, so bases that differ only in max_order share one grid.  A
    SampledGrid is immutable, so callers can share one; the mode tables built
    on it are memoised per basis (see `mode_table`).
    """
    if points < 2:
        raise ValueError(f"points must be >= 2, got {points}")
    return _default_grid(basis.kind, basis.waist, points)


@functools.lru_cache(maxsize=32)
def _default_grid(kind: BasisKind, waist: float, points: int) -> SampledGrid:
    extent = _EXTENT_WAISTS * waist
    if kind is BasisKind.HERMITE_GAUSS_1D:
        x = np.linspace(-extent, extent, points)
        w = np.full(points, x[1] - x[0])
        w[0] *= 0.5
        w[-1] *= 0.5
        return SampledGrid(x, w)
    nodes, gl_w = _gauss_legendre(points)
    r = (nodes + 1.0) * (extent / 2.0)
    return SampledGrid(r, gl_w * (extent / 2.0) * r)


def _hg_table(x: np.ndarray, n_max: int, waist: float) -> np.ndarray:
    """Columns psi_1..psi_n_max of the Hermite-Gauss family at points x.

    psi_n(x) = (2^k k! sqrt(pi))^{-1/2} H_k(x/w) e^{-x^2/2w^2} / sqrt(w) with
    k = n - 1, evaluated by the stable normalized three-term recurrence.
    """
    t = x / waist
    out = np.empty((len(x), n_max))
    out[:, 0] = np.pi ** -0.25 * np.exp(-t * t / 2.0) / np.sqrt(waist)
    if n_max > 1:
        out[:, 1] = np.sqrt(2.0) * t * out[:, 0]
    for k in range(1, n_max - 1):
        out[:, k + 1] = (np.sqrt(2.0 / (k + 1)) * t * out[:, k]
                         - np.sqrt(k / (k + 1.0)) * out[:, k - 1])
    return out


def _lg_radial_table(r: np.ndarray, n_max: int, waist: float) -> np.ndarray:
    """Columns R_1..R_n_max of the radial Laguerre-Gauss family at radii r.

    R_n(r) = (2/w) L_p(2r^2/w^2) e^{-r^2/w^2} with p = n - 1, orthonormal
    with respect to the measure r dr; Laguerre three-term recurrence.
    """
    if r[0] < 0:
        raise ValueError("radial grid points must be >= 0")
    u = 2.0 * (r / waist) ** 2
    env = (2.0 / waist) * np.exp(-((r / waist) ** 2))
    out = np.empty((len(r), n_max))
    out[:, 0] = env
    if n_max > 1:
        out[:, 1] = (1.0 - u) * env
    for p in range(1, n_max - 1):
        out[:, p + 1] = ((2 * p + 1 - u) * out[:, p] - p * out[:, p - 1]) / (p + 1.0)
    return out


def _aligned(a: np.ndarray) -> np.ndarray:
    """A copy of `a` whose data start on a _TABLE_ALIGN-byte boundary."""
    buf = np.empty(a.size + _TABLE_ALIGN // a.itemsize, dtype=a.dtype)
    start = (-buf.ctypes.data % _TABLE_ALIGN) // a.itemsize
    out = buf[start:start + a.size].reshape(a.shape)
    out[...] = a
    return out


def mode_table(basis: ModeBasis, grid: SampledGrid, n_max: int | None = None) -> np.ndarray:
    """len(grid) x n_max matrix whose column n-1 is psi_n sampled on grid.

    The full basis.max_order table is built once per basis and memoised on
    the grid, read-only and starting on a _TABLE_ALIGN-byte boundary; the
    first n_max columns are returned as a view of it.  Each column of the
    recurrence depends only on the two before it, so the view equals an
    n_max-column build bit for bit.
    """
    if n_max is None:
        n_max = basis.max_order
    if not 1 <= n_max <= basis.max_order:
        raise IndexError(f"mode count {n_max} outside 1..{basis.max_order}")
    table = grid._tables.get(basis)
    if table is None:
        build = _hg_table if basis.kind is BasisKind.HERMITE_GAUSS_1D else _lg_radial_table
        table = _aligned(build(grid.points, basis.max_order, basis.waist))
        table.flags.writeable = False
        grid._tables[basis] = table
    return table[:, :n_max]


def mode_function(basis: ModeBasis, n: int, grid: SampledGrid) -> np.ndarray:
    """Samples of psi_n on the grid (harmonic index n = 1..max_order).

    Warns (GridResolutionWarning) if the discrete norm strays more than 1e-3
    from 1, which signals a grid too coarse or too narrow for this order.
    """
    if not 1 <= n <= basis.max_order:
        raise IndexError(f"mode index {n} outside 1..{basis.max_order}")
    psi = mode_table(basis, grid, n)[:, n - 1]
    norm = float(grid.weights @ (psi * psi))
    if abs(norm - 1.0) > _NORM_WARN_TOL:
        warnings.warn(
            f"discrete norm of mode n={n} is {norm:.6g}; grid is inadequate "
            f"for this order", GridResolutionWarning, stacklevel=2)
    return psi


@functools.lru_cache(maxsize=None)
def _harmonics(n_modes: int) -> np.ndarray:
    """1j * n for n = 1..n_modes, read-only: the exponent of the delay per alpha."""
    h = 1j * np.arange(1, n_modes + 1)
    h.flags.writeable = False
    return h


def _delay_phases(n_modes: int, alpha: float) -> np.ndarray:
    """exp(i*n*alpha), n = 1..n_modes: the one phase rule of every delay.

    alpha must be finite and is reduced mod 2*pi first.  Python's float %
    takes the divisor's sign, but rounds a tiny negative alpha up to 2*pi,
    which is the same delay as 0, so 2*pi maps to 0.
    """
    alpha = float(alpha)
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    alpha %= _TWO_PI
    if alpha == _TWO_PI:
        alpha = 0.0
    return np.exp(_harmonics(n_modes) * alpha)


def generalized_delay(field: ComplexModalField, alpha: float) -> ComplexModalField:
    """Apply the delay: c_n -> c_n * exp(i*n*alpha).  Preserves |c_n|.

    The phases follow `_delay_phases`, the rule `delay_kernel` and
    `field_interferogram` share: alpha must be finite and is taken mod 2*pi,
    with a tiny negative alpha giving exactly 0.  The result is a new field,
    validated as any field is.
    """
    return ComplexModalField(
        basis=field.basis,
        coeffs=field.coeffs * _delay_phases(field.basis.max_order, alpha),
        normalized=field.normalized,
    )


def delay_kernel(basis: ModeBasis, alpha: float, grid: SampledGrid) -> np.ndarray:
    """Kernel matrix Lambda[i, j] = sum_n exp(i*n*alpha) psi_n(x_i) psi_n(x_j).

    Truncated at basis.max_order; exists for verification (applying the delay
    through the kernel is O(G^2) versus O(N*G) in coefficient space).  Apply
    to sampled fields as kernel @ (grid.weights * samples).  The phases are
    `generalized_delay`'s, so a tiny negative alpha gives the identity's.
    """
    phases = _delay_phases(basis.max_order, alpha)
    psi = mode_table(basis, grid)
    return (psi * phases) @ psi.T


def synthesize(field: ComplexModalField, grid: SampledGrid) -> np.ndarray:
    """Sampled field E(x) = sum_n c_n psi_n(x) on the grid."""
    table, c = mode_table(field.basis, grid), field.coeffs
    # One real (G x N) @ (N x 2) product with the rows [Re c_n, Im c_n], a
    # view of the coefficients, reads the table once (`table @ c` would cast
    # it to complex first); its rows [Re E, Im E] are viewed as complex.
    return (table @ c.view(float).reshape(-1, 2)).view(complex)[:, 0]


def field_interferogram(field: ComplexModalField, alpha: float,
                        grid: SampledGrid | None = None) -> float:
    """Two-path interferogram P(alpha) computed at field level.

    Superposes the delayed field with its alpha = 0 reference and integrates
    the intensity re^2 + im^2 over the grid, scaled so that P(0) = 2 exactly.
    For a normalized field this equals 1 + sum_n |c_n|^2 cos(n*alpha) up to
    quadrature error.  The reference and its norm are computed once per field
    and grid and kept on the field, read-only, until it is evaluated on
    another grid.  Each call then synthesizes only the delayed field, whose
    coefficients follow `generalized_delay`'s phase rule but which is derived
    from the field without its copy and checks, and squares the superposed
    samples in that synthesis's own buffer.  Raises ValueError if the
    reference's norm is zero or underflows, or if it or P overflows.
    """
    if grid is None:
        grid = default_grid(field.basis)
    memo = field._reference
    if memo is None or memo[0] is not grid:
        ref = synthesize(field, grid)
        ref.flags.writeable = False
        memo = (grid, ref, float(grid.weights @ (ref.real ** 2 + ref.imag ** 2)))
        object.__setattr__(field, "_reference", memo)
    _, ref, base = memo
    if base == 0.0:
        raise ValueError("field has zero norm on this grid, or its norm underflows")
    if not base < math.inf:
        raise ValueError("field norm overflows on this grid")
    delayed = ComplexModalField._delayed(
        field, field.coeffs * _delay_phases(field.basis.max_order, alpha))
    # The delayed synthesis's [Re E, Im E] rows, summed with the reference's
    # and squared in place: the operations of (E + ref).real ** 2 + .imag ** 2.
    both = synthesize(delayed, grid).view(float).reshape(-1, 2)
    both += ref.view(float).reshape(-1, 2)
    both *= both
    raw = float(grid.weights @ (both[:, 0] + both[:, 1]))
    if not math.isfinite(raw):
        raise ValueError("field interferogram overflows on this grid")
    # P(0) integrates |2 E|^2 = 4 * base; dividing by 2 * base pins P(0) = 2.
    return raw / (2.0 * base)
