"""Independent reference implementations used to pin expected test values.

These deliberately avoid the package's own code paths: brute-force support
enumeration for l1 minimization, direct summation for harmonic projection,
closed-form mode functions via scipy.special, the HiGHS linear-programming
solver for noiseless Basis Pursuit, and an explicit cosine table for the
isotropy estimate.
"""
import itertools
import math

import numpy as np
from scipy.optimize import linprog
from scipy.special import eval_hermite, eval_laguerre


def l1_oracle(entries, y, feas_tol=1e-9):
    """Global minimizer of ||x||_1 subject to Phi x = y, by enumeration.

    Every extreme point of the feasible set is supported on linearly
    independent columns, so scanning all full-rank supports up to size
    min(M, N) and least-squares-fitting each one finds the global optimum.
    Returns (solution, is_unique); uniqueness means every support achieving
    the optimal l1 value (within 1e-9) yields the same vector.
    """
    m, n = entries.shape
    candidates = []
    for size in range(1, min(m, n) + 1):
        for support in itertools.combinations(range(n), size):
            cols = entries[:, support]
            if np.linalg.matrix_rank(cols, tol=1e-10) < size:
                continue
            sol, *_ = np.linalg.lstsq(cols, y, rcond=None)
            if np.linalg.norm(cols @ sol - y) > feas_tol:
                continue
            x = np.zeros(n)
            x[list(support)] = sol
            candidates.append(x)
    if not candidates:
        raise AssertionError("no feasible support found")
    l1s = np.array([np.abs(x).sum() for x in candidates])
    best = l1s.min()
    winners = [x for x, v in zip(candidates, l1s) if v <= best + 1e-9]
    unique = []
    for x in winners:
        if not any(np.max(np.abs(x - u)) < 1e-8 for u in unique):
            unique.append(x)
    return unique[0], len(unique) == 1


def highs_bp(entries, y, nonnegative=False):
    """Noiseless Basis Pursuit as a linear program, solved by HiGHS.

    min 1^T (p + q) s.t. Phi (p - q) = y, p, q >= 0, or with `nonnegative`
    min 1^T x s.t. Phi x = y, x >= 0.  Returns (x, result): x = p - q (or x),
    None unless HiGHS reports an optimum, and scipy's linprog result, whose
    status is 2 where the program is infeasible.
    """
    n = entries.shape[1]
    lp_a = entries if nonnegative else np.hstack((entries, -entries))
    ref = linprog(np.ones(lp_a.shape[1]), A_eq=lp_a, b_eq=y, bounds=(0, None),
                  method="highs")
    if ref.status != 0:
        return None, ref
    return (ref.x if nonnegative else ref.x[:n] - ref.x[n:]), ref


def harmonic_projection(y, alphas, n_modes):
    """Direct-summation cosine projection with even-grid weights.

    x_n = w_n sum_j y_j cos(n alpha_j), w_n = 2/M except 1/M at n = M/2.
    Written as explicit loops so it shares no code with the package.
    """
    m = len(alphas)
    out = np.zeros(n_modes)
    for n in range(1, n_modes + 1):
        total = 0.0
        for j in range(m):
            total += y[j] * math.cos(n * alphas[j])
        weight = 1.0 / m if 2 * n == m else 2.0 / m
        out[n - 1] = weight * total
    return out


def hermite_gauss(x, k, waist=1.0):
    """Orthonormal 1D Hermite-Gauss function of order k via scipy."""
    u = np.asarray(x, dtype=float) / waist
    norm = 1.0 / math.sqrt(waist * (2.0 ** k) * math.factorial(k) * math.sqrt(math.pi))
    return norm * eval_hermite(k, u) * np.exp(-0.5 * u ** 2)


def laguerre_gauss_radial(r, p, waist=1.0):
    """Radial Laguerre-Gauss profile orthonormal under the r dr measure."""
    u = 2.0 * np.asarray(r, dtype=float) ** 2 / waist ** 2
    return (2.0 / waist) * eval_laguerre(p, u) * np.exp(-0.5 * u)


def isotropy_reference(alphas, n_modes):
    """Mean of phi^T phi over cosine rows, from the rows themselves.

    Builds the rows cos(n a), n = 1..N, in blocks of 65 536, accumulates
    rows^T rows and symmetrizes the sum, since a blocked matmul need not
    return a bitwise-symmetric product.
    """
    chunk = 1 << 16
    alphas = np.asarray(alphas, dtype=float)
    harmonics = np.arange(1, n_modes + 1)
    total = np.zeros((n_modes, n_modes))
    for start in range(0, len(alphas), chunk):
        rows = np.cos(np.outer(alphas[start:start + chunk], harmonics))
        total += rows.T @ rows
    total = 0.5 * (total + total.T)
    return total / len(alphas)


def synthesize_reference(table, coeffs):
    """Sampled field table @ c with the real mode table cast to complex."""
    return np.asarray(table, dtype=complex) @ np.asarray(coeffs, dtype=complex)
