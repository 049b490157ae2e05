"""Linear programs min 1^T x s.t. A x = b, x >= 0, by an interior-point method.

Mehrotra's (1992) predictor-corrector method on the homogeneous self-dual
embedding, which also detects infeasibility (Xu, Hung & Ye 1996; Andersen &
Andersen 2000, whose stopping rules of section 4.5 are used).  NumPy only:
each step solves the normal equations A diag(x/s) A^T + delta I with
np.linalg.solve, once for the predictor and once for the corrector; delta I
keeps them nonsingular when rows of A are dependent (Saunders & Tomlin 1996;
Altman & Gondzio 1999; Friedlander & Orban 2012).
"""
from __future__ import annotations

import math

import numpy as np

# Tolerance on the relative residuals and duality gap, the fraction of the
# way to the boundary that each step goes, and the step length below which a
# solve has stalled.
TOL = 1e-8
_STEP_FRACTION = 0.99995
_MIN_STEP = 1e-12

# delta as a fraction of the largest diagonal entry of A diag(x/s) A^T: above
# its rounding error, and below the 1/cond(A)^2 of noisy exact fits at M near
# N, whose steps 1e-12 already perturbs enough to lose converged solves.
_REGULARISATION = 1e-14

# A solve has also stalled when mu, the mean complementarity, has not fallen
# by _STALL_FACTOR over the last _STALL_STEPS steps.  Each step lowers mu in
# exact arithmetic; on ill-conditioned programs rounding leaves it wandering
# over orders of magnitude for hundreds of steps instead.
_STALL_STEPS = 20
_STALL_FACTOR = 0.1


def solve(a: np.ndarray, b: np.ndarray, max_steps: int, finished=None):
    """min 1^T x s.t. a x = b, x >= 0, for any `a`, with dependent rows too.

    Starts from x = s = 1, lam = 0, tau = kappa = 1, where s are the dual
    slacks 1 - a^T lam and tau, kappa the embedding's scalars.  Returns
    (x, s, lam, steps), the last iterate divided by tau; x is None when the
    program is infeasible or the iterate is not finite.  The solve stops when
    the relative residuals and gap fall below TOL, and also on a singular or
    non-finite step, a step shorter than _MIN_STEP, a stall of mu (checked
    every _STALL_STEPS steps), or max_steps steps.  When given,
    finished(x, s, lam) is called with the iterate divided by tau at the top
    of each step, before any stopping test, and a true value ends the solve
    there; `steps` then counts the steps taken before that call.
    """
    m, n = a.shape
    x, s, lam = np.ones(n), np.ones(n), np.zeros(m)
    tau = kappa = 1.0
    rp_scale = max(1.0, float(np.linalg.norm(b - a.sum(axis=1))))
    # The right-hand sides of the first solve of each step: rows (1, rd + s)
    # and (b, rp), for the direction (p, q) of dtau and the predictor.
    r1 = np.ones((2, n))
    r2 = np.empty((2, m))
    r2[0] = b
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for steps in range(max_steps + 1):
            if finished is not None and finished(x / tau, s / tau, lam / tau):
                break
            rp = b * tau - a @ x
            rd = tau - a.T @ lam - s
            primal, dual = x.sum(), b @ lam
            rg = kappa + primal - dual
            xs = x * s
            mu = (xs.sum() + tau * kappa) / (n + 1)
            if ((math.sqrt(rp @ rp) <= TOL * rp_scale and math.sqrt(rd @ rd) <= TOL
                 and abs(primal - dual) <= TOL * (tau + abs(dual)))
                    or steps == max_steps):
                break
            if tau <= TOL * min(1.0, kappa) and mu <= TOL:
                return None, None, None, steps
            if steps % _STALL_STEPS == 0:
                if steps and mu > _STALL_FACTOR * mu_mark:
                    break
                mu_mark = mu
            d = x / s
            ad = a * d
            k = ad @ a.T
            k.flat[::m + 1] += _REGULARISATION * k.diagonal().max()
            # The direction is affine in dtau: (dx, dlam) = (u, v) + dtau (p, q),
            # where (p, q) solves the Newton system for (1, b) and (u, v) for
            # the residuals.  Predictor and (p, q) share one solve.
            np.add(rd, s, out=r1[1])
            r2[1] = rp
            try:
                (p, u), (q, v) = _newton(a, d, ad, k, r1, r2)
            except np.linalg.LinAlgError:
                break
            denominator = b @ q - p.sum() + kappa / tau
            # Predictor: the affine-scaling step, for residuals rxs = -x s and
            # rtk = -tau kappa.
            dtau = (rg - kappa + u.sum() - b @ v) / denominator
            dx = u + p * dtau
            ds = (-xs - s * dx) / x
            dkappa = (-tau * kappa - kappa * dtau) / tau
            alpha = _step_length(x, s, tau, kappa, dx, ds, dtau, dkappa)
            mu_affine = ((x + alpha * dx) @ (s + alpha * ds)
                         + (tau + alpha * dtau) * (kappa + alpha * dkappa)) / (n + 1)
            gamma = (mu_affine / mu) ** 3
            eta = 1.0 - gamma
            rxs = gamma * mu - xs - dx * ds
            rtk = gamma * mu - tau * kappa - dtau * dkappa
            try:
                u, v = _newton(a, d, ad, k, eta * rd - rxs / x, eta * rp)
            except np.linalg.LinAlgError:
                break
            # Corrector, for residuals eta (rp, rd, rg) and (rxs, rtk).
            dtau = (eta * rg + rtk / tau + u.sum() - b @ v) / denominator
            dx = u + p * dtau
            dlam = v + q * dtau
            ds = (rxs - s * dx) / x
            dkappa = (rtk - kappa * dtau) / tau
            if not (np.isfinite(np.concatenate((dx, dlam, ds))).all()
                    and math.isfinite(dtau) and math.isfinite(dkappa)):
                break
            alpha = _STEP_FRACTION * _step_length(x, s, tau, kappa, dx, ds, dtau, dkappa)
            if alpha < _MIN_STEP:
                break
            x = x + alpha * dx
            s = s + alpha * ds
            lam = lam + alpha * dlam
            tau += alpha * dtau
            kappa += alpha * dkappa
        x, s, lam = x / tau, s / tau, lam / tau
    if not np.isfinite(np.concatenate((x, s, lam))).all():
        return None, None, None, steps
    return x, s, lam, steps


def _newton(a, d, ad, k, r1, r2):
    """u, v with -u / d + a^T v = r1 and a u = r2, for each row of r1 and r2.

    Solves the normal equations k v = r2 + a (d r1), given ad = a diag(d) and
    k = a diag(d) a^T + delta I, which is nonsingular also where rows of a are
    dependent or, near the optimum, fewer than M entries of x stay large.  r1
    and r2 are single vectors or stacks of rows.
    """
    v = np.linalg.solve(k, (r2 + r1 @ ad.T).T).T
    return d * (v @ a - r1), v


def _step_length(x, s, tau, kappa, dx, ds, dtau, dkappa) -> float:
    """Longest alpha <= 1 that keeps x, s, tau and kappa nonnegative."""
    shrink = -min(np.concatenate((dx / x, ds / s)).min(), dtau / tau, dkappa / kappa)
    return 1.0 if shrink <= 1.0 else 1.0 / shrink
