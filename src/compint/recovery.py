"""Modal spectrum recovery: harmonic inversion and Basis Pursuit.

Two routes back from measurements y_j = P(alpha_j) - 1 to the weight vector x:
`ft_recover` projects Nyquist-rate evenly sampled data onto the cosine
harmonics (exact for noiseless M >= 2N), and `basis_pursuit` solves the l1
program for random sub-Nyquist schedules.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .modes import _frozen_value, _own
from .sensing import (DelaySchedule, MeasurementVector, ModalSpectrum,
                      SensingMatrix, _as_vector, even_alphas, sensing_matrix)

# A schedule counts as evenly spaced if each alpha_j is within this of 2*pi*j/M
# (EVEN_GRID ones exactly; the slack covers files printed with >= 15 digits).
_EVEN_GRID_TOL = 1e-9

# Relative tolerance of the Basis Pursuit walk: the residual gate and the
# duality gaps, the rate floor of the ratio test, and the floor of lam,
# relative to lam's start.
TOL = 1e-8


class InsufficientSamplingError(ValueError):
    """Even-grid sampling is below the Nyquist rate for the requested N."""


@dataclass(frozen=True)
class BPOptions:
    """Basis Pursuit solver configuration: the two settings that define the
    program.

    residual_epsilon is the data-fidelity radius ||Phi x - y||_2 <= eps.
    Up to abs_tol, the feasibility tolerance of every solve, the program is
    the equality-constrained one, a linear program; the default 1e-9
    selects it.  Noisy data need a radius matched to the noise.  Both are
    solved by one walk along the l1 path (`_walk`).  Set nonnegative to
    restrict the search to x >= 0.

    A step is one pass of that walk on its active set S: one linear solve
    with the Gram matrix of S and three right-hand sides, one that refines
    the least-squares fit, and one ratio test.  A step whose fit matches
    the data (epsilon <= abs_tol) adds up to four: the refit's two (four if
    the refit must keep entries below 1e-9 of the largest), the
    certificate's one and, if the solve goes on, one for the pivot's
    direction.  A step whose fit is within a larger epsilon adds one that
    refines d = G^-1 s, and the step that reaches epsilon adds the
    certificate's one as well.

    Three class constants belong to the solver, not to the program, and no
    result depends on changing them, so they are not options: abs_tol;
    max_iters, a cap on the walk's steps far above the few hundred that the
    hardest tested solves take; and zero_threshold, below which an entry of
    the solution is snapped to 0 in the reported spectrum (the raw solution
    is kept alongside).
    """

    residual_epsilon: float = 1e-9
    nonnegative: bool = False
    abs_tol: ClassVar[float] = 1e-8
    max_iters: ClassVar[int] = 50000
    zero_threshold: ClassVar[float] = 1e-6

    def __post_init__(self):
        if not self.residual_epsilon >= 0:
            raise ValueError("residual_epsilon must be >= 0")


@_frozen_value
class RecoveryResult:
    """Recovered spectrum plus solver metadata.

    `spectrum` is the reporting view: zero-snapped at BPOptions.zero_threshold
    and clipped at 0 (weights are physically nonnegative).  `raw` is the
    untouched solver output, which failed or noisy recoveries may leave signed;
    error metrics should use it.  `iterations` is 0 for harmonic inversion
    and counts the steps of Basis Pursuit, as `BPOptions` defines them.
    """

    spectrum: ModalSpectrum
    iterations: int
    final_residual: float
    converged: bool
    raw: np.ndarray

    def __post_init__(self):
        if self.final_residual < 0:
            raise ValueError("final_residual must be >= 0")
        _own(self, "raw")


def _scaled(v: np.ndarray):
    """(v / 2^k, k) for the least k with max |v| < 2^k (k = 0 for v = 0).

    np.ldexp divides without forming 2^k, which overflows at k = 1024, and
    exactly unless the quotient is subnormal; its norms neither overflow
    nor underflow.
    """
    k = math.frexp(float(np.abs(v).max(initial=0.0)))[1]
    return np.ldexp(v, -k), k


def _ldexp(x: float, k: int) -> float:
    """math.ldexp(x, k), but +-inf where x 2^k is past the float range."""
    try:
        return math.ldexp(x, k)
    except OverflowError:
        return math.copysign(math.inf, x)


def _norm(v: np.ndarray) -> float:
    """||v||_2, inf only where it is past the float range.

    v is scaled by `_scaled` before squaring, so wherever np.linalg.norm(v)
    neither overflows nor underflows the two agree to the last bit.
    """
    v, k = _scaled(v)
    return _ldexp(_length(v), k)


def _length(v: np.ndarray) -> float:
    """np.linalg.norm(v) for a real 1-D v, to the bit, without its overhead.

    Like np.linalg.norm it takes the dot product of a contiguous copy: a
    strided dot product may sum in another order.
    """
    v = v.ravel(order="K")
    return math.sqrt(v.dot(v))


def _is_even_grid(schedule: DelaySchedule) -> bool:
    ref = even_alphas(schedule.m)
    return bool(np.max(np.abs(schedule.alphas - ref)) <= _EVEN_GRID_TOL)


def ft_recover(y: MeasurementVector, schedule: DelaySchedule, n_modes: int) -> RecoveryResult:
    """Harmonic inversion of evenly sampled data: x_n = w_n sum_j y_j cos(n a_j).

    w_n = 2/M except at the edge harmonic n = M/2 (reached only when M = 2N
    exactly), where sum_j cos^2(n a_j) = M instead of M/2 and w_n = 1/M.
    Exact on noiseless even-grid data with M >= 2N.  Raises ValueError
    where a coefficient lies past the float range.
    """
    return _ft_invert(y, sensing_matrix(schedule, n_modes))


def _ft_invert(y: MeasurementVector, phi: SensingMatrix) -> RecoveryResult:
    """ft_recover(y, phi.schedule, phi.n_modes), for a caller that has
    already built phi."""
    if not _is_even_grid(phi.schedule):
        raise ValueError("ft_recover requires an evenly spaced schedule")
    m, n_modes = phi.shape
    if m < 2 * n_modes:
        raise InsufficientSamplingError(
            f"M={m} below Nyquist rate 2N={2 * n_modes} for N={n_modes}")
    # The sums run on y / 2^power, which cannot overflow, as in basis_pursuit.
    yv, power = _scaled(y.values)
    coeffs = (2.0 / m) * (phi.entries.T @ yv)
    if m == 2 * n_modes:
        coeffs[-1] *= 0.5
    residual = _ldexp(_norm(phi.entries @ coeffs - yv), power)
    with np.errstate(over="ignore"):
        coeffs = np.ldexp(coeffs, power)
    if not np.isfinite(coeffs).all():
        raise ValueError("harmonic inversion overflows the float range")
    return RecoveryResult(
        spectrum=ModalSpectrum(np.maximum(coeffs, 0.0)),
        iterations=0,
        final_residual=residual,
        converged=True,
        raw=coeffs,
    )


def basis_pursuit(phi: SensingMatrix, y: MeasurementVector,
                  opts: BPOptions = BPOptions()) -> RecoveryResult:
    """Solve min ||x||_1 subject to ||Phi x - y||_2 <= residual_epsilon.

    With residual_epsilon <= abs_tol the epsilon-ball is smaller than the
    solver's own feasibility tolerance, so the program is the equality
    constrained one, a linear program.  Every radius is solved by `_walk`,
    whose steps `iterations` counts (`BPOptions` says what a step is).

    A converged result always satisfies ||Phi z - y||_2 <= epsilon + abs_tol.
    Non-convergence (infeasible data, a singular system, or the step cap)
    is reported through converged=False, never raised; `raw` is finite
    either way, and nonnegative when opts.nonnegative is set.  Raises
    ValueError where the solution lies past the float range.
    """
    a = phi.entries
    m = a.shape[0]
    if len(y) != m:
        raise ValueError(f"measurement length {len(y)} != matrix rows {m}")
    eps = opts.residual_epsilon
    z, power, iterations, converged = _walk(a, y.values, opts)
    # z and its residual are those of y / 2^power until scaled back.
    residual = _ldexp(_norm(a @ z - np.ldexp(y.values, -power)), power)
    with np.errstate(over="ignore"):
        z = np.ldexp(z, power)
    if not np.isfinite(z).all():
        raise ValueError("Basis Pursuit solution overflows the float range")
    return RecoveryResult(
        spectrum=ModalSpectrum(np.maximum(
            np.where(np.abs(z) < opts.zero_threshold, 0.0, z), 0.0)),
        iterations=iterations,
        final_residual=residual,
        converged=converged and residual <= eps + opts.abs_tol,
        raw=z,
    )


def _walk(a: np.ndarray, yv: np.ndarray, opts: BPOptions):
    """Basis Pursuit along the l1 path: (z / 2^power, power, steps, converged).

    The Lasso path x(lam) = argmin ||Phi x - y||^2 / 2 + lam ||x||_1 (the
    positive Lasso with `nonnegative`) runs from lam = max |Phi^T y| down to
    the exact program at lam -> 0+ (Osborne, Presnell & Turlach 2000; Pang,
    Liu, Vanderbei & Zhao 2017).  The walk follows its dual point
    nu = (y - Phi x) / lam in tau = 1 / lam, keeping nu feasible,
    |Phi^T nu| <= 1 (Phi^T nu <= 1 with `nonnegative`), and a set S of
    columns tight at it with signs s.  A step solves with G = Phi_S^T Phi_S
    for the fit of y on S (refined once, as in `_refit`), the shift that
    puts nu back on Phi_S^T nu = s, and d = G^-1 s; on S the path is
    x(tau) = fit - d / tau.  nu then moves along the fit's residual r_S
    until a free column reaches its bound and joins S with the sign of that
    side: one ratio test over both sides of every bound (`_join_ratios`).
    On incoherent data this reaches an s-sparse solution in about s steps
    (Donoho & Tsaig 2008).

    - epsilon > abs_tol.  An entry whose fit has the wrong sign leaves where
      x(tau) reaches 0.  The walk stops on the segment where ||r|| reaches
      epsilon, lam^2 ||Phi_S d||^2 = epsilon^2 - ||r_S||^2 with d refined
      once, and is converged where nu = r / lam certifies x there
      (`_certified` with epsilon).  Short of epsilon it ends
      unconverged where lam falls below TOL times its start, or where
      rounding has put an entry's 0 more than TOL tau behind the walk, which
      has then lost the path.
    - epsilon <= abs_tol.  S only grows, as nu's ascent needs, until r_S is
      within min(epsilon + abs_tol, TOL max |y|), a bound relative to the
      data.  There the entries of S that keep their sign are refit
      (`_refit`), leaving out those below 1e-9 of the largest unless the
      refit then misses y, and the refit is returned once nu certifies it
      (`_certified`).
      Otherwise the entry of largest sign violation leaves, nu moves along
      -s_i Phi_S G^-1 e_i, and the ratio test picks the column that joins:
      a dual simplex pivot, in which the column that left may come back
      with its sign flipped.

    Data inside the epsilon-ball around 0 give z = 0 at step 1.  The walk
    ends unconverged where the data are infeasible (y is not fit on a basis
    of min(M, N) columns, or no column can join or leave), where a fit that
    keeps every sign is not certified, or at the step cap
    (`BPOptions.max_iters`), with z the last fit on S (clipped at 0 under
    `nonnegative`); and where G is singular, with z = 0.
    """
    m, n = a.shape
    eps, nonnegative = opts.residual_epsilon, opts.nonnegative
    # The walk runs on y / 2^power from `_scaled`, and so does every radius.
    ymax = float(np.abs(yv).max())
    yv, power = _scaled(yv)
    if _length(yv) <= _ldexp(eps, -power):
        return np.zeros(n), power, 1, True
    exact = eps <= opts.abs_tol
    goal = _ldexp(min(eps + opts.abs_tol, TOL * ymax) if exact else eps, -power)
    pivot_tol = TOL * np.linalg.norm(a, axis=0)
    c = a.T @ yv
    j = int(np.argmax(c if nonnegative else np.abs(c)))
    top = c[j] if nonnegative else abs(c[j])
    if not top > 0:
        return np.zeros(n), power, 1, False
    signs = np.zeros(n)
    signs[j] = np.copysign(1.0, c[j])
    nu, tau = yv / top, 1.0 / top
    for step in range(1, opts.max_iters + 1):
        on = signs != 0
        cols, s = a[:, on], signs[on]
        gram = cols.T @ cols
        try:
            fit, shift, d = np.linalg.solve(
                gram, np.array((cols.T @ yv, s - cols.T @ nu, s)).T).T
            fit += np.linalg.solve(gram, cols.T @ (yv - cols @ fit))
        except np.linalg.LinAlgError:
            return np.zeros(n), power, step, False
        if not np.isfinite(fit).all():
            return np.zeros(n), power, step, False
        nu += cols @ shift
        r = yv - cols @ fit
        length = _length(r)
        fits = length <= goal
        if fits and exact:
            keep, right = on.copy(), fit * s > 0
            for kept in (np.abs(fit) >= 1e-9 * np.abs(fit).max(), True):
                keep[on] = kept & right
                z = _refit(a, yv, keep)
                fitted = z is not None and _length(a @ z - yv) <= goal
                if fitted or np.array_equal(keep[on], right):
                    break
            if fitted and _certified(a, yv, z, nu, nonnegative):
                return z, power, step, True
            if not (kept & (fit * s < 0)).any():
                break
            i = int(np.argmin(fit * s))
            e = np.zeros(len(s))
            e[i] = -s[i]
            delta = cols @ np.linalg.solve(gram, e)
            length = _length(delta)
            signs[np.flatnonzero(on)[i]] = 0.0
        elif not fits and len(s) == min(m, n):
            break
        else:
            delta = r
        c, v = np.array((nu, delta)) @ a
        join = _join_ratios(c, v, pivot_tol * length, nonnegative)
        join[signs != 0] = np.inf
        j = int(join.argmin())
        t, k = join[j], None
        if not exact:
            if tau * top * TOL >= 1.0:
                break
            leave = np.full(len(s), np.inf)
            wrong = fit * s < 0
            leave[wrong] = d[wrong] / fit[wrong] - tau
            if leave.min() < -TOL * tau:
                break
            if leave.min() <= t:
                k = int(leave.argmin())
                t = max(leave[k], 0.0)
            if fits:
                d += np.linalg.solve(gram, s - cols.T @ (cols @ d))
                u = cols @ d
                lam = math.sqrt((goal * goal - length * length) / (u @ u))
                # lam is 0 where goal^2 underflows; 0 * (tau + inf) is nan
                if lam > 0 and lam * (tau + t) >= 1.0:
                    x = np.zeros(n)
                    x[on] = fit - lam * d
                    nu = (yv - a @ x) / lam
                    return x, power, step, _certified(a, yv, x, nu, nonnegative, goal)
        if t == np.inf:
            break
        nu += t * delta
        tau += t
        if k is None:
            signs[j] = 1.0 if v[j] > 0 else -1.0
        else:
            signs[np.flatnonzero(on)[k]] = 0.0
    z = np.zeros(n)
    z[on] = np.maximum(fit, 0.0) if nonnegative else fit
    return z, power, step, False


def _join_ratios(c: np.ndarray, v: np.ndarray, floor: np.ndarray,
                 nonnegative: bool) -> np.ndarray:
    """How far the dual point nu moves along delta, for c = Phi^T nu and
    v = Phi^T delta, before each column reaches its bound: one ratio test
    over both sides of |phi_j^T nu| <= 1 (phi_j^T nu <= 1 with `nonnegative`).

    Column j moves towards the side sign(v_j) at rate |v_j| (v_j with
    `nonnegative`), and its gap there is 1 - sign(v_j) c_j.  The ratio is
    gap / rate where the rate is above `floor` and inf elsewhere, with a gap
    that rounding left below 0 read as 0; the column that joins takes the
    sign sign(v_j) of the side it reaches.  For finite c this is, to the
    bit, the smaller of the two one-sided ratios (1 - c_j) / v_j and
    (1 + c_j) / -v_j once the entries of v with |v| <= floor are set to 0
    (a ratio whose rate is not above 0 is inf): the two sides are
    finite on the disjoint sets v > 0 and v < 0, and 1 - (-1) c is 1 + c
    exactly.  Rates at or below TOL ||phi_j|| ||delta|| are rounding: a
    column that has just left S has a rate that points away from its old
    bound, so it cannot rejoin at once with its old sign.
    """
    if nonnegative:
        gap, rate = 1.0 - c, v
    else:
        gap, rate = 1.0 - np.sign(v) * c, np.abs(v)
    join = np.full(len(v), np.inf)
    return np.divide(np.maximum(gap, 0.0, out=gap), rate, out=join, where=rate > floor)


def _certified(a: np.ndarray, yv: np.ndarray, z: np.ndarray, nu: np.ndarray,
               nonnegative: bool, eps: float = 0.0) -> bool:
    """Whether the dual point nu, projected onto Phi_S^T nu = sign(z_S) on the
    support S of z, proves z optimal within the radius eps: whether
    ||z||_1 is within TOL (max |y| + ||z||_1) of the dual bound.

    By weak duality (y^T nu - eps ||nu||) / max(1, ||Phi^T nu||_inf) (with
    `nonnegative`, max(1, max Phi^T nu)) bounds the l1 norm of every x with
    ||Phi x - y|| <= eps from below, for any nu; eps = 0 is the equality
    constrained program.  The projection makes the dual point exact where
    z is nonzero, so the gap closes once nu is near the optimal dual; it
    fails where the Gram matrix of S is singular.
    """
    support = z != 0
    cols = a[:, support]
    try:
        nu = nu + cols @ np.linalg.solve(cols.T @ cols,
                                         np.sign(z[support]) - cols.T @ nu)
    except np.linalg.LinAlgError:
        return False
    l1 = float(np.abs(z).sum())
    dual = a.T @ nu
    top = dual.max() if nonnegative else np.abs(dual).max()
    bound = (float(yv @ nu) - eps * _length(nu)) / max(1.0, float(top))
    return l1 - bound <= TOL * (float(np.abs(yv).max()) + l1)


def _refit(a: np.ndarray, yv: np.ndarray, support: np.ndarray):
    """The least-squares fit of y on `support`'s columns, zero elsewhere, or
    None where it is singular or not finite.

    It solves the normal equations of the columns and refines the solution
    once against the residual, which recovers the accuracy that squaring
    their condition number loses.
    """
    cols = a[:, support]
    gram = cols.T @ cols
    try:
        fit = np.linalg.solve(gram, cols.T @ yv)
        fit += np.linalg.solve(gram, cols.T @ (yv - cols @ fit))
    except np.linalg.LinAlgError:
        return None
    if not np.isfinite(fit).all():
        return None
    z = np.zeros(a.shape[1])
    z[support] = fit
    return z


def reconstruction_error(reference, estimate) -> float:
    """Scaled error ||ref - est||^2 / ||ref||^2, inf past the float range.

    Accepts ModalSpectrum objects or plain vectors (so raw solver outputs can
    be scored directly).  Both are divided by the 2^k by which `_scaled`
    divides ref before squaring: exactly, and so that ||ref||^2 is finite.
    """
    ref = _as_vector(reference)
    est = _as_vector(estimate)
    if ref.shape != est.shape:
        raise ValueError(f"length mismatch: {ref.shape} vs {est.shape}")
    ref, k = _scaled(ref)
    denom = float(ref @ ref)
    if denom == 0.0:
        raise ValueError("reference spectrum must be nonzero")
    with np.errstate(over="ignore"):
        diff = ref - np.ldexp(est, -k)
        return float(diff @ diff) / denom
