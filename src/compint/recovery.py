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

from .modes import _frozen_value, _own
from .sensing import (DelaySchedule, MeasurementVector, ModalSpectrum,
                      SensingMatrix, _as_vector, even_alphas, sensing_matrix)

# A schedule counts as evenly spaced if each alpha_j is within this of 2*pi*j/M
# (EVEN_GRID ones exactly; the slack covers files printed with >= 15 digits).
_EVEN_GRID_TOL = 1e-9

# Relative tolerance of the Basis Pursuit solvers: the residual gate and the
# duality gap of exact solves, their pivot tolerance, and the KKT test of the
# homotopy and the floor of its lam, relative to lam's start.
TOL = 1e-8


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
    it.  Such a solve climbs the dual of the linear program along the l1
    path and, once its active set is a basis, pivots as the dual simplex
    method does; it returns the first refit that a duality certificate
    proves optimal.  Noisy data need a radius matched to the noise, which
    the l1 homotopy solves exactly.  max_iters caps the steps of either
    solver; most solves stop well before it.  A homotopy step is one linear
    solve.  An exact step is two, a two-right-hand-side solve and its
    refinement; one whose fit matches the data adds up to four: the refit's
    two, the certificate's one and, if the solve goes on, one for the next
    direction.
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


@_frozen_value
class RecoveryResult:
    """Recovered spectrum plus solver metadata.

    `spectrum` is the reporting view: zero-snapped at the configured threshold
    and clipped at 0 (weights are physically nonnegative).  `raw` is the
    untouched solver output, which failed or noisy recoveries may leave signed;
    error metrics should use it.  `iterations` is 0 for harmonic inversion.
    For Basis Pursuit it counts the solver's steps: those of the exact
    solver up to the one whose refit was certified, or at epsilon > abs_tol
    the homotopy path steps.  `BPOptions` says how many linear solves a step
    makes.
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
    unit = math.ldexp(1.0, math.frexp(float(np.abs(v).max()))[1])
    return unit * _length(v / unit)


def _length(v: np.ndarray) -> float:
    """np.linalg.norm(v) for a real 1-D v, to the bit, without its overhead.

    Like np.linalg.norm it takes the dot product of a contiguous copy: a
    strided dot product may sum in another order.
    """
    v = v.ravel(order="K")
    return math.sqrt(v.dot(v))


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
    constrained one, a linear program solved exactly by `_exact_bp`, an
    ascent along the l1 path with a dual simplex end game.  Larger radii are
    solved by the l1 homotopy (`_homotopy`).  `iterations` counts either
    solver's steps, and max_iters caps them.

    A converged result always satisfies ||Phi z - y||_2 <= epsilon + abs_tol.
    Non-convergence (infeasible data, a singular system, or the iteration
    cap) is reported through converged=False, never raised; `raw` is finite
    either way, and nonnegative when opts.nonnegative is set.
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

    The program is min ||z||_1 s.t. Phi z = y (z >= 0 too with
    `nonnegative`).  One loop solves its dual, max y^T nu s.t.
    ||Phi^T nu||_inf <= 1 (Phi^T nu <= 1), the parametric-simplex view of the
    Lasso path (Osborne, Presnell & Turlach 2000; Pang, Liu, Vanderbei & Zhao
    2017).  It keeps a dual-feasible nu and a set S of columns tight at it,
    with signs s and Phi_S^T nu = s.  Each step solves with G = Phi_S^T Phi_S
    for the least-squares fit of y on S (refined once, as in `_refit`) and
    for the shift that puts nu back on Phi_S^T nu = s (one solve with two
    right-hand sides), then moves nu along a direction delta until a free
    column reaches its bound and joins S.  That ratio test makes one pass
    over both sides of every bound (`_join_ratios`); in it, rates below
    TOL ||phi_j|| ||delta|| count as 0, and gaps that rounding left below 0
    as 0.

    - Ascent.  S starts as the column of largest |Phi^T y| (Phi^T y with
      `nonnegative`), and nu as y over that correlation.  While y is not fit
      on S, delta is the fit's residual: the dual ray of the Lasso path,
      which reaches an s-sparse solution in about s steps on incoherent data
      (Donoho & Tsaig 2008).  Once y is fit but a sign disagrees, delta is
      the part off span(Phi_S) of the free column nearest its bound.
    - Dual simplex.  S is a basis once it holds min(M, N) columns, or no free
      column has a part off span(Phi_S) above TOL times its norm.  Then the
      entry of largest sign violation leaves, delta = -s_i Phi_S G^-1 e_i,
      and the column that the ratio test picks enters; in the signed program
      that may be the leaving column with its sign flipped.

    Where the fit's residual is within min(epsilon + abs_tol, TOL max |y|),
    a bound relative to the data so that it means the same at every scale,
    the entries of S that keep their sign (and are not below 1e-9 of the
    largest) are refit (`_refit`), and the refit is returned once nu
    certifies it (`_certified`).  Both take the step's columns and Gram
    matrix, which they use where their support is S and build afresh
    elsewhere.  The refit still makes its own solves rather than reuse the
    step's fit, so that it equals `_refit` on that support from any other
    caller.  Data inside the epsilon-ball around 0 give
    z = 0 at step 1.  The solve ends unconverged where the data are
    infeasible (y is not fit on a basis, or no column can join while it is
    not fit), where a basis keeps every sign but its refit is not
    certified, or after max_iters steps, with z the last fit on S (clipped
    at 0 under `nonnegative`); and where G is singular, with z = 0.
    """
    m, n = a.shape
    # The loop runs on y divided by a power of two near max |y|, which is
    # exact: its norms then neither overflow nor underflow.  So max |y| is
    # ymax / unit after it, and ||y|| is unit ||y / unit||, as `_norm` has it.
    ymax = float(np.abs(yv).max())
    unit = math.ldexp(1.0, math.frexp(ymax)[1])
    yv = yv / unit
    if unit * _length(yv) <= opts.residual_epsilon:
        return np.zeros(n), 1, True
    gate = min((opts.residual_epsilon + opts.abs_tol) / unit, TOL * (ymax / unit))
    nonnegative = opts.nonnegative
    pivot_tol = TOL * np.linalg.norm(a, axis=0)
    c = a.T @ yv
    j = int(np.argmax(c if nonnegative else np.abs(c)))
    top = c[j] if nonnegative else abs(c[j])
    if not top > 0:
        return np.zeros(n), 1, False
    signs = np.zeros(n)
    signs[j] = np.copysign(1.0, c[j])
    nu = yv / top
    for step in range(1, opts.max_iters + 1):
        on = signs != 0
        cols, s = a[:, on], signs[on]
        gram = cols.T @ cols
        try:
            fit, shift = np.linalg.solve(gram, np.array((cols.T @ yv, s - cols.T @ nu)).T).T
            fit += np.linalg.solve(gram, cols.T @ (yv - cols @ fit))
        except np.linalg.LinAlgError:
            return np.zeros(n), step, False
        if not np.isfinite(fit).all():
            return np.zeros(n), step, False
        nu += cols @ shift
        r = yv - cols @ fit
        length = _length(r)
        exact = length <= gate
        if exact:
            big = np.abs(fit) >= 1e-9 * np.abs(fit).max()
            keep = on.copy()
            keep[on] = big & (fit * s > 0)
            active = (on, cols, gram)
            z = _refit(a, yv, keep, active)
            if (z is not None and _length(a @ z - yv) <= gate
                    and _certified(a, yv, z, nu, nonnegative, active)):
                return z * unit, step, True
        c = a.T @ nu
        basis = len(s) == min(m, n)
        if exact and not basis:
            off = a - cols @ np.linalg.solve(gram, cols.T @ a)
            room = ~on & (np.linalg.norm(off, axis=0) > pivot_tol)
            basis = not room.any()
        if not exact:
            if basis:
                break
            delta = r
        elif not basis:
            j = int(np.argmax(np.where(room, c if nonnegative else np.abs(c), -np.inf)))
            delta = off[:, j] if nonnegative else np.copysign(1.0, c[j]) * off[:, j]
        elif (big & (fit * s < 0)).any():
            k = int(np.argmin(fit * s))
            e = np.zeros(len(s))
            e[k] = -s[k]
            delta = cols @ np.linalg.solve(gram, e)
            signs[np.flatnonzero(on)[k]] = 0.0
        else:
            break
        if delta is not r:  # r's length is known
            length = _length(delta)
        v = a.T @ delta
        join = _join_ratios(c, v, pivot_tol * length, nonnegative)
        join[signs != 0] = np.inf
        j = int(join.argmin())
        t = join[j]
        if t == np.inf:
            break
        nu += t * delta
        signs[j] = 1.0 if v[j] > 0 else -1.0
    z = np.zeros(n)
    z[on] = unit * (np.maximum(fit, 0.0) if nonnegative else fit)
    return z, step, False


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
    bit, the minimum of `_ratios(1 - c, v)` and `_ratios(1 + c, -v)` once
    the entries of v with |v| <= floor are set to 0: the two sides are
    finite on the disjoint sets v > 0 and v < 0, and 1 - (-1) c is 1 + c
    exactly.
    """
    if nonnegative:
        gap, rate = 1.0 - c, v
    else:
        gap, rate = 1.0 - np.sign(v) * c, np.abs(v)
    join = np.full(len(v), np.inf)
    return np.divide(np.maximum(gap, 0.0, out=gap), rate, out=join, where=rate > floor)


def _columns(a: np.ndarray, support: np.ndarray, active):
    """Phi_S and its Gram matrix Phi_S^T Phi_S for the columns S of the mask
    `support`.  `active`, None or a step's (mask, columns, Gram matrix),
    supplies them where its mask equals `support`; they are built otherwise.
    """
    if active is not None and (active[0] == support).all():
        return active[1], active[2]
    cols = a[:, support]
    return cols, cols.T @ cols


def _certified(a: np.ndarray, yv: np.ndarray, z: np.ndarray, nu: np.ndarray,
               nonnegative: bool, active=None) -> bool:
    """Whether the dual point nu, projected onto Phi_S^T nu = sign(z_S) on the
    support S of z, proves z optimal: whether ||z||_1 is within
    TOL (max |y| + ||z||_1) of the dual bound.

    By weak duality y^T nu / max(1, ||Phi^T nu||_inf) (with `nonnegative`,
    max(1, max Phi^T nu)) bounds the l1 norm of every solution of Phi x = y
    from below, for any nu.  The projection makes the dual point exact where
    z is nonzero, so the gap closes once nu is near the optimal dual; it
    fails where the Gram matrix of S is singular.  A step of `_exact_bp`
    passes its (active set, columns, Gram matrix) as `active`, which is
    used where S is that active set (`_columns`).
    """
    support = z != 0
    cols, gram = _columns(a, support, active)
    try:
        nu = nu + cols @ np.linalg.solve(gram, np.sign(z[support]) - cols.T @ nu)
    except np.linalg.LinAlgError:
        return False
    l1 = float(np.abs(z).sum())
    dual = a.T @ nu
    top = dual.max() if nonnegative else np.abs(dual).max()
    bound = float(yv @ nu) / max(1.0, float(top))
    return l1 - bound <= TOL * (float(np.abs(yv).max()) + l1)


def _refit(a: np.ndarray, yv: np.ndarray, support: np.ndarray, active=None):
    """The least-squares fit of y on `support`'s columns, zero elsewhere, or
    None where it is singular or not finite.

    It solves the normal equations of the columns and refines the solution
    once against the residual, which recovers the accuracy that squaring
    their condition number loses.  A step of `_exact_bp` passes its (active
    set, columns, Gram matrix) as `active`, which is used where `support` is
    that active set (`_columns`).
    """
    cols, gram = _columns(a, support, active)
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


def _homotopy(a: np.ndarray, yv: np.ndarray, opts: BPOptions):
    """Basis Pursuit for epsilon > abs_tol by the l1 homotopy: (z, steps, converged).

    Walks the Lasso path x(lam) = argmin ||Phi x - y||^2 / 2 + lam ||x||_1
    (the positive Lasso with `nonnegative`; Osborne, Presnell & Turlach
    2000; Efron et al. 2004, section 3.4) down from lam = max |Phi^T y|.  On
    a segment x = G^-1 Phi_S^T y - lam d on the active set S, for the path
    signs s, G = Phi_S^T Phi_S and d = G^-1 s.  A step solves for d and
    finds where the segment ends (an entry joins or leaves S, or lam reaches
    0) and where ||y - Phi x|| reaches epsilon, refined by one Newton step;
    it stops at the latter if that comes first, else it steps to the end
    and updates S and s.  Entries that tie join one segment apart, the
    second after a fall of 0: a join whose gap rounding left below 0 counts
    as one at 0.  An entry that has just left S may not rejoin with its old
    sign at once, which rounding would allow.  Short of epsilon the walk
    ends, unconverged, after max_iters steps, where G is singular, or where
    lam falls below TOL times its start: there rounding in Phi^T r is no
    longer small beside lam, and the program counts as infeasible.  Data
    inside the epsilon-ball around 0 give z = 0 in 0 steps.  `converged` is
    the KKT certificate, for r = y - Phi x: |Phi^T r| <= lam (1 + TOL),
    |Phi^T r - lam sign(x)| <= lam TOL on the support of x, and
    | ||r|| - epsilon | <= abs_tol.
    """
    n, eps, nonnegative = a.shape[1], opts.residual_epsilon, opts.nonnegative
    x = np.zeros(n)
    if _norm(yv) <= eps:
        return x, 0, True
    signs = np.zeros(n)
    c = a.T @ yv
    j = int(np.argmax(c if nonnegative else np.abs(c)))
    lam = float(c[j] if nonnegative else abs(c[j]))
    signs[j] = np.copysign(1.0, c[j])
    floor, left, steps, reached = TOL * lam, None, 0, False
    while steps < opts.max_iters and lam > floor:
        on = signs != 0
        cols = a[:, on]
        try:
            d = np.linalg.solve(cols.T @ cols, signs[on])
        except np.linalg.LinAlgError:
            break
        q = signs[on] @ d
        if not 0 < q < np.inf:  # s^T G^-1 s > 0 unless G is singular
            break
        r, u = yv - cols @ x[on], cols @ d
        c, v = a.T @ r, a.T @ u
        # The falls in lam at which an entry off S joins it with sign +1 (up)
        # or -1 (down), or one on S reaches 0.
        up, down = _ratios(lam - c, 1.0 - v), _ratios(lam + c, 1.0 + v)
        with np.errstate(divide="ignore", invalid="ignore"):
            leave = np.full(n, np.inf)
            fall = -x[on] / d
            leave[on] = np.where(fall > 0, fall, np.inf)
        if left is not None:
            (up if left[1] > 0 else down)[left[0]] = np.inf
        join = up if nonnegative else np.minimum(up, down)
        join[on] = np.inf
        j, k = int(np.argmin(join)), int(np.argmin(leave))
        t = min(join[j], leave[k], lam)
        steps += 1
        # ||r||^2 falls by (lam^2 - (lam - t)^2) q over a fall of t.
        rest = lam * lam - max(r @ r - eps * eps, 0.0) / q
        stop = lam - math.sqrt(rest) if rest >= 0 else np.inf
        if stop <= t:
            rt = r - stop * u
            if rt @ u > 0:  # Newton: rest loses digits where ||r|| >> eps
                stop = min(t, stop + (rt @ rt - eps * eps) / (2 * rt @ u))
            x[on] += stop * d
            lam, reached = lam - stop, True
            break
        x[on] += t * d
        lam -= t
        left = None
        if t == leave[k]:
            x[k], left, signs[k] = 0.0, (k, signs[k]), 0.0
        elif t == join[j]:
            signs[j] = np.copysign(1.0, c[j] - t * v[j])
    r = yv - a @ x
    c, on = a.T @ r, x != 0
    top = c.max() if nonnegative else np.abs(c).max()
    return x, steps, bool(reached and abs(_norm(r) - eps) <= opts.abs_tol
                          and top <= lam * (1.0 + TOL)
                          and np.all(np.abs(c[on] - lam * np.sign(x[on])) <= lam * TOL))


def _ratios(gap: np.ndarray, rate: np.ndarray) -> np.ndarray:
    """gap / rate where rate > 0 and inf elsewhere, with each gap that rounding
    left below 0 read as 0: how far each entry moves before it reaches its
    bound."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(rate > 0, np.maximum(gap, 0.0) / rate, np.inf)


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
