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
    the equality-constrained one, a linear program solved by an interior-point
    method; the default 1e-9 selects it.  Noisy data need a radius matched to
    the noise, which the l1 homotopy solves exactly.  max_iters caps
    interior-point steps or homotopy path steps; an interior-point solve often
    stops well before it, at its first step whose refit on the support found
    is certified optimal.  Set nonnegative to restrict the
    search to x >= 0.  Entries of the solution smaller in magnitude than
    zero_threshold are snapped to 0 in the reported spectrum (the raw
    solution is kept alongside).
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
    error metrics should use it.  `iterations` is 0 for harmonic inversion; for
    Basis Pursuit it counts the interior-point steps taken up to the step
    whose refit was certified, or the homotopy path steps (epsilon > abs_tol).
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
    if not _is_even_grid(schedule):
        raise ValueError("ft_recover requires an evenly spaced schedule")
    m = schedule.m
    if m < 2 * n_modes:
        raise InsufficientSamplingError(
            f"M={m} below Nyquist rate 2N={2 * n_modes} for N={n_modes}")
    phi = sensing_matrix(schedule, n_modes)
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
    constrained one, a linear program solved exactly by `_exact_bp`, which
    stops at the first interior-point step whose refit on the support found
    is certified optimal.  Larger radii are solved by the l1 homotopy
    (`_homotopy`).  `iterations` counts interior-point steps up to that
    point, or homotopy path steps, up to max_iters.

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
    """Noiseless Basis Pursuit as a linear program: (z, steps, optimal).

    min 1^T (p + q) s.t. Phi (p - q) = y, p, q >= 0, with z = p - q (Chen,
    Donoho & Saunders 1998); with `nonnegative`, min 1^T x s.t. Phi x = y,
    x >= 0.  Every row of Phi is kept, dependent ones too (M > N, repeated or
    mirrored delays): each interior-point step solves with
    Phi diag(p/s_p + q/s_q) Phi^T + delta I, which stays nonsingular.  Data
    inside the epsilon-ball around 0 give z = 0 at step 1, and infeasible data
    z = 0 with optimal=False.

    An iterate is refit by least squares on its support (`_polish`), and
    `optimal` is a certificate: by weak duality a dual point scaled into the
    dual feasible set bounds the optimum from below, and ||z||_1 must be
    within _lp.TOL of that bound.  From the first step on, each new support
    guess with at most M entries is refit and, if the refit fits y, tested
    with the dual iterate projected onto Phi_S^T lam = sign(z_S) (finite
    termination, Ye 1992); the solve ends at the first step whose refit
    passes, and `steps` counts the steps before it.  A solve never certified
    this way runs to the interior-point method's own stopping rule, and its
    last iterate is refit and tested with the dual iterate itself.
    """
    n = a.shape[1]
    if _norm(yv) <= opts.residual_epsilon:
        return np.zeros(n), 1, True
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

    def optimal(z, lam):
        # In the units of the scaled program, where max |y| = 1.
        l1 = float(np.abs(z).sum())
        bound = float(yv @ lam) / max(1.0, float((lp_a.T @ lam).max()))
        return l1 - bound <= _lp.TOL * (scale + l1)

    def finished(x, s, lam):
        nonlocal tried, certified
        support = support_of(x, s)
        if not 0 < np.count_nonzero(support) <= len(yv) or np.array_equal(support, tried):
            return False
        tried = support
        z = _polish(a, yv, weights(x), support)
        if z is None or _norm(a @ z - yv) > opts.residual_epsilon + opts.abs_tol:
            return False
        # The dual iterate projected onto Phi_S^T lam = sign(z_S).
        cols = a[:, support]
        try:
            lam = lam + cols @ np.linalg.solve(cols.T @ cols,
                                               np.sign(z[support]) - cols.T @ lam)
        except np.linalg.LinAlgError:
            return False
        if not optimal(z, lam):
            return False
        certified = z
        return True

    x, s, lam, steps = _lp.solve(lp_a, yv / scale, opts.max_iters, finished)
    if certified is not None:
        return certified, steps, True
    if x is None:
        return np.zeros(n), steps, False
    z = weights(x)
    polished = _polish(a, yv, z, support_of(x, s))
    z = z if polished is None else polished
    return z, steps, optimal(z, lam)


def _polish(a: np.ndarray, yv: np.ndarray, z: np.ndarray, support: np.ndarray):
    """z refit by least squares on `support`, or None where that fails.

    Entries off the support become exact zeros and the residual falls to
    round-off.  The fit solves the normal equations of the support's columns
    and refines the solution once against the residual, which recovers the
    accuracy that squaring their condition number loses.  It fails where the
    equations are singular, or the fit flips a sign of z, fits y worse or
    raises ||z||_1 by more than _lp.TOL.
    """
    cols = a[:, support]
    gram = cols.T @ cols
    try:
        fit = np.linalg.solve(gram, cols.T @ yv)
        fit += np.linalg.solve(gram, cols.T @ (yv - cols @ fit))
    except np.linalg.LinAlgError:
        return None
    polished = np.zeros_like(z)
    polished[support] = fit
    l1 = np.sum(np.abs(z))
    if (np.all(np.isfinite(fit)) and np.array_equal(np.sign(fit), np.sign(z[support]))
            and _norm(a @ polished - yv) <= _norm(a @ z - yv)
            and np.sum(np.abs(fit)) <= l1 + _lp.TOL * (1.0 + l1)):
        return polished
    return None


def _homotopy(a: np.ndarray, yv: np.ndarray, opts: BPOptions):
    """Basis Pursuit for epsilon > abs_tol by the l1 homotopy: (z, steps, converged).

    Follows the Lasso path x(lam) = argmin ||Phi x - y||^2 / 2 + lam ||x||_1
    (the positive one with `nonnegative`; Osborne, Presnell & Turlach 2000;
    Efron et al. 2004, section 3.4), one linear segment per step, as lam falls
    from max |Phi^T y| to where ||Phi x - y|| = epsilon and x solves the
    program.  Below _lp.TOL times its start, rounding in Phi^T r is no longer
    small beside lam, and the program counts as infeasible.  `converged`
    is the KKT certificate, for r = y - Phi x: |Phi^T r| <= lam (1 + _lp.TOL),
    |Phi^T r - lam sign(x)| <= lam _lp.TOL on the support of x, and
    | ||r|| - epsilon | <= abs_tol.
    """
    n, eps = a.shape[1], opts.residual_epsilon
    x, signs = np.zeros(n), np.zeros(n)
    if _norm(yv) <= eps:
        return x, 0, True
    c = a.T @ yv
    j = int(np.argmax(c if opts.nonnegative else np.abs(c)))
    lam = float(c[j] if opts.nonnegative else abs(c[j]))
    signs[j] = np.copysign(1.0, c[j])
    floor, left, steps, reached = _lp.TOL * lam, None, 0, False
    with np.errstate(divide="ignore", invalid="ignore"):
        while lam > floor and steps < opts.max_iters:
            steps += 1
            on = signs != 0
            cols = a[:, on]
            try:
                d = np.linalg.solve(cols.T @ cols, signs[on])
            except np.linalg.LinAlgError:
                break
            q = signs[on] @ d
            if not 0 < q < np.inf:  # s^T G^-1 s > 0 unless the Gram G is singular
                break
            r, u = yv - cols @ x[on], cols @ d
            c, v = a.T @ r, a.T @ u
            # The falls in lam at which an entry off the support S joins it with
            # sign +1 (up) or -1 (down), or one on S reaches 0.  An entry that has
            # just left S may not rejoin with its old sign: rounding allows it at once.
            up, down = _positive((lam - c) / (1.0 - v)), _positive((lam + c) / (1.0 + v))
            if left is not None:
                (up if left[1] > 0 else down)[left[0]] = np.inf
            join = up if opts.nonnegative else np.minimum(up, down)
            join[on] = np.inf
            leave = np.full(n, np.inf)
            leave[on] = _positive(-x[on] / d)
            # ||r||^2 falls by (lam^2 - (lam - t)^2) q over a fall of t.
            rest = lam * lam - max(r @ r - eps * eps, 0.0) / q
            t_eps = lam - math.sqrt(rest) if rest >= 0 else np.inf
            j, k = int(np.argmin(join)), int(np.argmin(leave))
            t = min(join[j], leave[k], t_eps, lam)
            reached, left, rt = t == t_eps, None, r - t * u
            if reached and rt @ u > 0:  # Newton: rest loses digits where ||r|| >> eps
                t = min(join[j], leave[k], lam, t + (rt @ rt - eps * eps) / (2 * rt @ u))
            x[on] += t * d
            lam -= t
            if reached:
                break
            if t == leave[k]:
                x[k], left, signs[k] = 0.0, (k, signs[k]), 0.0
            elif t == join[j]:
                signs[j] = np.copysign(1.0, c[j] - t * v[j])
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
