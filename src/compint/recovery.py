"""Modal spectrum recovery: harmonic inversion and Basis Pursuit.

Two routes back from measurements y_j = P(alpha_j) - 1 to the weight vector x:
`ft_recover` projects Nyquist-rate evenly sampled data onto the cosine
harmonics (exact for noiseless M >= 2N), and `basis_pursuit` solves the l1
program for random sub-Nyquist schedules.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _lp
from .modes import _own
from .sensing import (DelaySchedule, MeasurementVector, ModalSpectrum,
                      SensingMatrix, _as_vector, even_alphas, sensing_matrix)

# A schedule counts as evenly spaced if each alpha_j is within this of 2*pi*j/M
# (EVEN_GRID ones exactly; the slack covers files printed with >= 15 digits).
_EVEN_GRID_TOL = 1e-9

class InsufficientSamplingError(ValueError):
    """Even-grid sampling is below the Nyquist rate for the requested N."""


class Method(enum.Enum):
    FT = "ft"
    BP = "bp"


@dataclass(frozen=True)
class BPOptions:
    """Basis Pursuit solver configuration.

    residual_epsilon is the data-fidelity radius ||Phi x - y||_2 <= eps.
    Up to abs_tol, the feasibility tolerance of every solve, the program is
    the equality-constrained one, a linear program; the default 1e-9 selects
    it.  Such a solve first follows the l1 path and returns the first refit
    that a duality certificate proves optimal; where the path cannot certify
    one, an interior-point method solves the linear program.  Noisy data
    need a radius matched to the noise, which the l1 homotopy solves
    exactly.  max_iters caps the path steps, and separately the
    interior-point steps of the fallback; most solves stop well before it.
    Set nonnegative to restrict the search to x >= 0.  Entries of the
    solution smaller in magnitude than zero_threshold are snapped to 0 in the
    reported spectrum (the raw solution is kept alongside).
    """

    residual_epsilon: float = 1e-9
    abs_tol: float = 1e-8
    max_iters: int = 50000
    nonnegative: bool = False
    zero_threshold: float = 1e-6

    def __post_init__(self):
        if self.residual_epsilon < 0:
            raise ValueError("residual_epsilon must be >= 0")
        if self.abs_tol <= 0:
            raise ValueError("abs_tol must be > 0")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.zero_threshold < 0:
            raise ValueError("zero_threshold must be >= 0")


@dataclass(frozen=True)
class RecoveryResult:
    """Recovered spectrum plus solver metadata.

    `spectrum` is the reporting view: zero-snapped at the configured threshold
    and clipped at 0 (weights are physically nonnegative).  `raw` is the
    untouched solver output, which failed or noisy recoveries may leave signed;
    error metrics should use it.  `iterations` is 0 for harmonic inversion.
    For Basis Pursuit it counts the l1 path steps (one linear solve each)
    plus, where the interior-point fallback ran, its steps up to the one
    whose refit was certified; at epsilon > abs_tol, the homotopy path steps.
    """

    spectrum: ModalSpectrum
    iterations: int
    final_residual: float
    converged: bool
    method: Method
    raw: np.ndarray

    def __post_init__(self):
        if self.final_residual < 0:
            raise ValueError("final_residual must be >= 0")
        _own(self, "raw")


def _norm(v: np.ndarray) -> float:
    """||v||_2, finite for any finite v.

    v is divided by a power of two near max |v| before squaring.  That
    division is exact, so wherever np.linalg.norm(v) neither overflows nor
    underflows the two agree to the last bit.
    """
    unit = math.ldexp(1.0, math.frexp(float(np.max(np.abs(v))))[1])
    return unit * float(np.linalg.norm(v / unit))


def _reported_spectrum(raw: np.ndarray, zero_threshold: float) -> ModalSpectrum:
    snapped = np.where(np.abs(raw) < zero_threshold, 0.0, raw)
    return ModalSpectrum(np.maximum(snapped, 0.0))


def _is_even_grid(schedule: DelaySchedule) -> bool:
    ref = even_alphas(schedule.m)
    return bool(np.max(np.abs(schedule.alphas - ref)) <= _EVEN_GRID_TOL)


def ft_recover(y: MeasurementVector, schedule: DelaySchedule, n_modes: int) -> RecoveryResult:
    """Harmonic inversion of evenly sampled data: x_n = w_n sum_j y_j cos(n a_j).

    w_n = 2/M except at the edge harmonic n = M/2 (reached only when M = 2N
    exactly), where sum_j cos^2(n a_j) = M instead of M/2 and w_n = 1/M.
    Exact on noiseless even-grid data with M >= 2N.
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
    coeffs = (2.0 / m) * (phi.entries.T @ y.values)
    if m == 2 * n_modes:
        coeffs[-1] *= 0.5
    residual = _norm(phi.entries @ coeffs - y.values)
    return RecoveryResult(
        spectrum=ModalSpectrum(np.maximum(coeffs, 0.0)),
        iterations=0,
        final_residual=residual,
        converged=True,
        method=Method.FT,
        raw=coeffs,
    )


def basis_pursuit(phi: SensingMatrix, y: MeasurementVector,
                  opts: BPOptions = BPOptions()) -> RecoveryResult:
    """Solve min ||x||_1 subject to ||Phi x - y||_2 <= residual_epsilon.

    With residual_epsilon <= abs_tol the epsilon-ball is smaller than the
    solver's own feasibility tolerance, so the program is the equality
    constrained one, a linear program solved exactly by `_exact_bp`: the l1
    path certifies the solution first, and an interior-point method is the
    fallback where it cannot.  Larger radii are solved by the l1 homotopy
    (`_homotopy`).  `iterations` counts the path steps plus any
    interior-point steps, or the homotopy path steps; max_iters caps the
    path and the interior-point method each.

    A converged result always satisfies ||Phi z - y||_2 <= epsilon + abs_tol.
    Non-convergence (infeasible data, a stall, or the iteration cap) is
    reported through converged=False, never raised; `raw` is finite either
    way, and nonnegative when opts.nonnegative is set.
    """
    a = phi.entries
    m = a.shape[0]
    if len(y) != m:
        raise ValueError(f"measurement length {len(y)} != matrix rows {m}")
    yv = y.values
    eps = opts.residual_epsilon
    solve = _exact_bp if eps <= opts.abs_tol else _homotopy
    z, iterations, converged = solve(a, yv, opts)
    residual = _norm(a @ z - yv)
    return RecoveryResult(
        spectrum=_reported_spectrum(z, opts.zero_threshold),
        iterations=iterations,
        final_residual=residual,
        converged=converged and residual <= eps + opts.abs_tol,
        method=Method.BP,
        raw=z,
    )


def _exact_bp(a: np.ndarray, yv: np.ndarray, opts: BPOptions):
    """Noiseless Basis Pursuit, certified on the l1 path or as a linear program:
    (z, steps, optimal).

    The program is min ||z||_1 s.t. Phi z = y (with `nonnegative`, z >= 0
    too).  Data inside the epsilon-ball around 0 give z = 0 at step 1.  The
    l1 path (`_path_bp`) is tried first, and the linear program is the
    fallback where the path cannot certify a solution: min 1^T (p + q) s.t.
    Phi (p - q) = y, p, q >= 0, with z = p - q (Chen, Donoho & Saunders
    1998), or min 1^T x s.t. Phi x = y, x >= 0, by `_lp.solve` with its own
    cap of max_iters steps.  Every row of Phi is kept, dependent ones too
    (M > N, repeated or mirrored delays): each interior-point step solves
    with Phi diag(p/s_p + q/s_q) Phi^T + delta I, which stays nonsingular.
    From the first step on, each new support guess with at most M entries is
    refit (`_polish`) and, if the refit fits y to within epsilon + abs_tol,
    tested with the dual iterate (`_certified`; finite termination, Ye 1992);
    the solve ends at the first step whose refit passes.  A solve never
    certified this way runs to the interior-point method's own stopping rule,
    and its last iterate is refit and tested with the unprojected dual
    iterate.  Infeasible data give z = 0 with optimal=False.  `steps` counts
    the path steps plus the interior-point steps taken before the certified
    one.
    """
    m, n = a.shape
    if _norm(yv) <= opts.residual_epsilon:
        return np.zeros(n), 1, True
    z, path_steps = _path_bp(a, yv, opts)
    if z is not None:
        return z, path_steps, True

    lp_a = a if opts.nonnegative else np.hstack((a, -a))
    # The program is solved for data scaled to max |y| = 1, where the solver's
    # relative tolerances and its start at x = 1 fit every data scale alike.
    scale = np.max(np.abs(yv))
    tried = certified = None

    def support_of(x, s):
        # An entry is on the support where its primal value exceeds its dual slack.
        on = x > s
        return on if opts.nonnegative else on[:n] | on[n:]

    def weights(x):
        x = scale * x
        return x if opts.nonnegative else x[:n] - x[n:]

    def finished(x, s, lam):
        nonlocal tried, certified
        support = support_of(x, s)
        if not 0 < np.count_nonzero(support) <= m or np.array_equal(support, tried):
            return False
        tried = support
        z = _polish(a, yv, weights(x), support)
        if (z is None or _norm(a @ z - yv) > opts.residual_epsilon + opts.abs_tol
                or not _certified(a, yv, z, lam, opts.nonnegative)):
            return False
        certified = z
        return True

    x, s, lam, steps = _lp.solve(lp_a, yv / scale, opts.max_iters, finished)
    steps += path_steps
    if certified is not None:
        return certified, steps, True
    if x is None:
        return np.zeros(n), steps, False
    z = weights(x)
    polished = _polish(a, yv, z, support_of(x, s))
    z = z if polished is None else polished
    return z, steps, _gap_closed(a, yv, z, lam, opts.nonnegative)


def _path_bp(a: np.ndarray, yv: np.ndarray, opts: BPOptions):
    """Noiseless Basis Pursuit certified on the Lasso path: (z or None, steps).

    Follows `_lasso_path` from lam = max |Phi^T y|; on incoherent data an
    s-sparse solution is reached in about s steps (Donoho & Tsaig 2008).  At
    each breakpoint whose least-squares fit on the active set S fits y to
    within min(epsilon + abs_tol, _lp.TOL max |y|), a bound relative to the
    data so that it means the same at every scale, the entries of S that keep
    their path sign are refit (`_refit`; entries below 1e-9 of the largest
    are dropped), and the refit is returned if the dual point r / lam, for
    r = y - Phi x on the path, certifies it (`_certified`).  z is None where
    the path gives up: when S holds more than min(M, N) / 2 entries, beyond
    the sparse solutions whose paths are short; when the walk ends (lam at
    its floor, a singular Gram matrix, or max_iters steps); or at once where
    M > N and the least-squares fit on every column does not fit y, so that
    no z does.  `steps` counts the path's segments.
    """
    m, n = a.shape
    gate = min(opts.residual_epsilon + opts.abs_tol, _lp.TOL * np.max(np.abs(yv)))
    if m > n:
        fit = _refit(a, yv, np.ones(n, dtype=bool))
        if fit is not None and _norm(a @ fit - yv) > gate:
            return None, 0
    steps = 0
    for seg in _lasso_path(a, yv, opts.nonnegative, opts.max_iters):
        steps += 1
        on, fit = seg.on, seg.fit
        if 2 * np.count_nonzero(on) > min(m, n):
            break
        if _norm(yv - a[:, on] @ fit) > gate:
            continue
        keep = on.copy()
        keep[on] = (np.sign(fit) == seg.signs[on]) & (np.abs(fit) >= 1e-9 * np.abs(fit).max())
        z = _refit(a, yv, keep)
        if (z is not None and _norm(a @ z - yv) <= gate
                and _certified(a, yv, z, seg.r / seg.lam, opts.nonnegative)):
            return z, steps
    return None, steps


def _certified(a: np.ndarray, yv: np.ndarray, z: np.ndarray, lam: np.ndarray,
               nonnegative: bool) -> bool:
    """Whether the dual point lam, projected onto Phi_S^T lam = sign(z_S) on
    the support S of z, proves z optimal (`_gap_closed`).

    The projection makes the dual point exact where z is nonzero, so the gap
    closes once lam is near the optimal dual; it fails where the Gram matrix
    of S is singular.
    """
    support = z != 0
    cols = a[:, support]
    try:
        lam = lam + cols @ np.linalg.solve(cols.T @ cols,
                                           np.sign(z[support]) - cols.T @ lam)
    except np.linalg.LinAlgError:
        return False
    return _gap_closed(a, yv, z, lam, nonnegative)


def _gap_closed(a: np.ndarray, yv: np.ndarray, z: np.ndarray, lam: np.ndarray,
                nonnegative: bool) -> bool:
    """Whether ||z||_1 is within _lp.TOL (max |y| + ||z||_1) of the dual bound.

    By weak duality y^T lam / max(1, ||Phi^T lam||_inf) (with `nonnegative`,
    max(1, max Phi^T lam)) bounds the l1 norm of every solution of Phi x = y
    from below, for any lam.
    """
    l1 = float(np.abs(z).sum())
    dual = a.T @ lam
    top = dual.max() if nonnegative else np.abs(dual).max()
    bound = float(yv @ lam) / max(1.0, float(top))
    return l1 - bound <= _lp.TOL * (float(np.max(np.abs(yv))) + l1)


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
    if not np.all(np.isfinite(fit)):
        return None
    z = np.zeros(a.shape[1])
    z[support] = fit
    return z


def _polish(a: np.ndarray, yv: np.ndarray, z: np.ndarray, support: np.ndarray):
    """z refit on `support` (`_refit`), or None where that fails.

    Entries off the support become exact zeros and the residual falls to
    round-off.  It fails where the refit does, or flips a sign of z, fits y
    worse or raises ||z||_1 by more than _lp.TOL.
    """
    polished = _refit(a, yv, support)
    if polished is None:
        return None
    fit = polished[support]
    l1 = np.sum(np.abs(z))
    if (np.array_equal(np.sign(fit), np.sign(z[support]))
            and _norm(a @ polished - yv) <= _norm(a @ z - yv)
            and np.sum(np.abs(fit)) <= l1 + _lp.TOL * (1.0 + l1)):
        return polished
    return None


class _Segment(NamedTuple):
    """One linear segment of the Lasso path, at its top (see `_lasso_path`)."""

    on: np.ndarray      # the active set S
    signs: np.ndarray   # the path signs s, 0 off S (the walk's own array)
    x: np.ndarray       # x(lam) (the walk's own array, updated as it goes on)
    lam: float
    d: np.ndarray       # G^-1 s on S, for the Gram matrix G = Phi_S^T Phi_S
    fit: np.ndarray     # G^-1 Phi_S^T y, the least-squares fit of y on S
    r: np.ndarray       # y - Phi x
    u: np.ndarray       # Phi_S d
    q: float            # s^T d
    t: float            # the fall in lam to the segment's end


def _lasso_path(a: np.ndarray, yv: np.ndarray, nonnegative: bool, max_steps: int):
    """The Lasso path x(lam) = argmin ||Phi x - y||^2 / 2 + lam ||x||_1, one
    `_Segment` at a time (the positive Lasso with `nonnegative`; Osborne,
    Presnell & Turlach 2000; Efron et al. 2004, section 3.4).

    Starts at lam = max |Phi^T y|.  On a segment x = fit - lam d on S, and it
    ends where an entry joins or leaves S, or lam reaches 0; one
    np.linalg.solve gives both d and the fit.  An entry that has just left S
    may not rejoin with its old sign: rounding allows it at once.  The walk
    ends after max_steps segments, where G is singular, or where lam falls
    below _lp.TOL times its start: there rounding in Phi^T r is no longer
    small beside lam.  A consumer that stops within a segment updates the
    segment's x itself.
    """
    n = a.shape[1]
    x, signs = np.zeros(n), np.zeros(n)
    c = aty = a.T @ yv
    j = int(np.argmax(c if nonnegative else np.abs(c)))
    lam = float(c[j] if nonnegative else abs(c[j]))
    signs[j] = np.copysign(1.0, c[j])
    floor, left = _lp.TOL * lam, None
    for _ in range(max_steps):
        if not lam > floor:
            return
        on = signs != 0
        cols = a[:, on]
        try:
            d, fit = np.linalg.solve(cols.T @ cols, np.array((signs[on], aty[on])).T).T
        except np.linalg.LinAlgError:
            return
        q = signs[on] @ d
        if not 0 < q < np.inf:  # s^T G^-1 s > 0 unless G is singular
            return
        r, u = yv - cols @ x[on], cols @ d
        c, v = a.T @ r, a.T @ u
        # The falls in lam at which an entry off S joins it with sign +1 (up)
        # or -1 (down), or one on S reaches 0.
        with np.errstate(divide="ignore", invalid="ignore"):
            up, down = _positive((lam - c) / (1.0 - v)), _positive((lam + c) / (1.0 + v))
            leave = np.full(n, np.inf)
            leave[on] = _positive(-x[on] / d)
        if left is not None:
            (up if left[1] > 0 else down)[left[0]] = np.inf
        join = up if nonnegative else np.minimum(up, down)
        join[on] = np.inf
        j, k = int(np.argmin(join)), int(np.argmin(leave))
        t = min(join[j], leave[k], lam)
        yield _Segment(on, signs, x, lam, d, fit, r, u, q, t)
        x[on] += t * d
        lam -= t
        left = None
        if t == leave[k]:
            x[k], left, signs[k] = 0.0, (k, signs[k]), 0.0
        elif t == join[j]:
            signs[j] = np.copysign(1.0, c[j] - t * v[j])


def _homotopy(a: np.ndarray, yv: np.ndarray, opts: BPOptions):
    """Basis Pursuit for epsilon > abs_tol by the l1 homotopy: (z, steps, converged).

    Follows the Lasso path (`_lasso_path`) as lam falls from max |Phi^T y| to
    where ||Phi x - y|| = epsilon and x solves the program; if the walk ends
    first, the program counts as infeasible.  `converged` is the KKT
    certificate, for r = y - Phi x: |Phi^T r| <= lam (1 + _lp.TOL),
    |Phi^T r - lam sign(x)| <= lam _lp.TOL on the support of x, and
    | ||r|| - epsilon | <= abs_tol.
    """
    n, eps = a.shape[1], opts.residual_epsilon
    x = np.zeros(n)
    if _norm(yv) <= eps:
        return x, 0, True
    steps, lam, reached = 0, 0.0, False
    for seg in _lasso_path(a, yv, opts.nonnegative, opts.max_iters):
        steps += 1
        x = seg.x
        # ||r||^2 falls by (lam^2 - (lam - t)^2) q over a fall of t.
        rest = seg.lam * seg.lam - max(seg.r @ seg.r - eps * eps, 0.0) / seg.q
        t = seg.lam - math.sqrt(rest) if rest >= 0 else np.inf
        if t <= seg.t:
            rt = seg.r - t * seg.u
            if rt @ seg.u > 0:  # Newton: rest loses digits where ||r|| >> eps
                t = min(seg.t, t + (rt @ rt - eps * eps) / (2 * rt @ seg.u))
            x[seg.on] += t * seg.d
            lam, reached = seg.lam - t, True
            break
    r = yv - a @ x
    c, on = a.T @ r, x != 0
    top = c.max() if opts.nonnegative else np.abs(c).max()
    return x, steps, bool(reached and abs(_norm(r) - eps) <= opts.abs_tol
                          and top <= lam * (1.0 + _lp.TOL)
                          and np.all(np.abs(c[on] - lam * np.sign(x[on])) <= lam * _lp.TOL))


def _positive(t: np.ndarray) -> np.ndarray:
    """t with each entry that is not > 0 (NaN too) replaced by inf."""
    return np.where(t > 0, t, np.inf)


def reconstruction_error(reference, estimate) -> float:
    """Scaled error ||ref - est||^2 / ||ref||^2.

    Accepts ModalSpectrum objects or plain vectors (so raw solver outputs can
    be scored directly).
    """
    ref = _as_vector(reference)
    est = _as_vector(estimate)
    if ref.shape != est.shape:
        raise ValueError(f"length mismatch: {ref.shape} vs {est.shape}")
    denom = float(ref @ ref)
    if denom == 0.0:
        raise ValueError("reference spectrum must be nonzero")
    diff = ref - est
    return float(diff @ diff) / denom
