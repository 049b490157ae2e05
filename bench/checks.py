"""Output checks for the benchmark workloads.

Each check takes plain numbers, arrays or bytes and returns a list of failure
messages (empty when the output is correct).  The expected values are
computed here from the inputs and from properties of the methods, never read
from the program's own output or from stored numbers.
"""
from __future__ import annotations

import math

import numpy as np

SQRT2_MINUS_1 = math.sqrt(2.0) - 1.0

FIELD_TOL = 1e-6            # field-level vs analytic interferogram
FT_TOL = 1e-10              # harmonic inversion of noiseless Nyquist data
BP_TOL = 1e-3               # noiseless BP at M = 30
ETA_MEAN_TOL = 0.02
ISOTROPY_TOL = 0.01
INCOHERENCE_TOL = 1e-12
# ADMM stops at a tolerance, so a converged z may exceed the l1 optimum
# (and hence the truth's l1 norm) by a little.
L1_TOL = 1e-6
# Errors below this are round-off; the monotonicity check ignores rises
# smaller than it.
SWEEP_FLOOR = 1e-6
# Noise-matched BP error bound constant: ||x_hat - x||_2 <= C eps / sqrt(M/2).
NOISY_C = 10.0


def _fail(cond, message, out):
    if not cond:
        out.append(message)


def analytic_power(coeffs, alpha):
    """1 + sum_n |c_n|^2 cos(n alpha), summed here."""
    weights = np.abs(np.asarray(coeffs)) ** 2
    harmonics = np.arange(1, len(weights) + 1)
    return 1.0 + float(np.sum(weights * np.cos(harmonics * alpha)))


def field_values(coeffs, alphas, values):
    """Field-level interferogram values against the analytic sum."""
    out = []
    for alpha, value in zip(alphas, values):
        expected = analytic_power(coeffs, alpha)
        if not abs(value - expected) <= FIELD_TOL:
            out.append(f"field P({alpha:.6f}) = {value!r}, analytic {expected!r}")
            break
    return out


def scaled_error(reference, estimate):
    ref = np.asarray(reference, dtype=float)
    diff = ref - np.asarray(estimate, dtype=float)
    return float(diff @ diff) / float(ref @ ref)


def scenario(name, truth, ft_raw, bp_raw, bp_converged, reported):
    """One noiseless run_scenario result; `reported` holds its three errors."""
    out = []
    ft_truth = scaled_error(truth, ft_raw)
    bp_vs_ft = scaled_error(ft_raw, bp_raw)
    _fail(ft_truth <= FT_TOL, f"{name}: ft_truth_error {ft_truth:.3g} > {FT_TOL}", out)
    _fail(bp_vs_ft <= BP_TOL, f"{name}: bp_vs_ft_error {bp_vs_ft:.3g} > {BP_TOL}", out)
    _fail(bool(bp_converged), f"{name}: BP did not converge", out)
    for key, mine in (("ft_truth_error", ft_truth), ("bp_vs_ft_error", bp_vs_ft),
                      ("bp_truth_error", scaled_error(truth, bp_raw))):
        _fail(abs(reported[key] - mine) <= 1e-12 + 1e-9 * mine,
              f"{name}: reported {key} {reported[key]!r} != {mine!r}", out)
    return out


def bp_solution(phi, y, z, eps, abs_tol, truth_l1=None):
    """A converged BP solve is feasible and no longer in l1 than the truth."""
    out = []
    residual = float(np.linalg.norm(np.asarray(phi) @ np.asarray(z) - np.asarray(y)))
    _fail(residual <= eps + abs_tol,
          f"converged BP residual {residual:.3g} > eps + abs_tol {eps + abs_tol:.3g}", out)
    if truth_l1 is not None:
        l1 = float(np.sum(np.abs(z)))
        _fail(l1 <= truth_l1 + L1_TOL,
              f"converged BP ||z||_1 {l1!r} > truth {truth_l1!r} + {L1_TOL}", out)
    return out


def sweep_round(m_values, mean, std, m_star, threshold, expected_m, runs, reported_runs):
    """Shape and internal consistency of one error_vs_m_sweep result."""
    out = []
    _fail(list(m_values) == list(expected_m), f"sweep M grid {list(m_values)}", out)
    _fail(reported_runs == runs, f"sweep runs_per_point {reported_runs} != {runs}", out)
    _fail(len(mean) == len(std) == len(expected_m), "sweep array lengths", out)
    _fail(bool(np.all(np.asarray(mean) >= 0) and np.all(np.asarray(std) >= 0)),
          "negative sweep statistics", out)
    passing = [m for m, e in zip(m_values, mean) if e < threshold]
    mine = min(passing) if passing else None
    _fail(m_star == mine, f"sweep m_star {m_star} != first M below threshold {mine}", out)
    return out


def sweep_shape(m_values, mean, std, runs, threshold):
    """Error-versus-M shape of one sweep.

    Mean error at the smallest M above 0.1, the first M below `threshold` in
    [15, 30], and no rise with M larger than 2 standard errors of the
    difference.
    """
    out = []
    mean = np.asarray(mean, dtype=float)
    se = np.asarray(std, dtype=float) / math.sqrt(runs)
    m_values = list(m_values)
    _fail(mean[0] > 0.1, f"mean error at M={m_values[0]} is {mean[0]:.4f}, not > 0.1", out)
    passing = [m for m, e in zip(m_values, mean) if e < threshold]
    m_star = min(passing) if passing else None
    _fail(m_star is not None and 15 <= m_star <= 30, f"m_star {m_star} not in [15, 30]", out)
    for j in range(len(mean) - 1):
        slack = 2.0 * math.sqrt(se[j] ** 2 + se[j + 1] ** 2) + SWEEP_FLOOR
        _fail(mean[j + 1] <= mean[j] + slack,
              f"mean error rises from M={m_values[j]} ({mean[j]:.4g}) to "
              f"M={m_values[j + 1]} ({mean[j + 1]:.4g}) by more than 2 SE", out)
    return out


def eta_expected(phi):
    """Mean of eta over s-sparse Gaussian vectors for this fixed Phi.

    E[||Phi_S v||^2 / ||v||^2] = mean column norm^2 (the support is uniform
    and the values are exchangeable), so E[eta] = (2/M) mean_n ||phi_n||^2 - 1.
    """
    phi = np.asarray(phi, dtype=float)
    return (2.0 / phi.shape[0]) * float(np.mean(np.sum(phi * phi, axis=0))) - 1.0


def eta_report(phi, mean_eta, max_abs_eta, counts, samples, bin_edges):
    """One eta_ensemble report; its mean is checked per round by eta_mean_offset."""
    out = []
    _fail(max_abs_eta >= abs(mean_eta), "max |eta| below |mean eta|", out)
    _fail(max_abs_eta > SQRT2_MINUS_1, f"max |eta| {max_abs_eta:.4f} <= sqrt(2) - 1", out)
    _fail(int(np.sum(counts)) == samples,
          f"eta histogram holds {int(np.sum(counts))} of {samples} samples", out)
    _fail(np.array_equal(np.asarray(bin_edges), np.linspace(-1.0, 1.0, len(counts) + 1)),
          "eta histogram edges are not uniform on [-1, 1]", out)
    return out


def eta_mean_offset(offsets):
    """Mean over a round's calls of (mean eta - E[eta | Phi]) within ETA_MEAN_TOL."""
    offset = float(np.mean(offsets))
    if abs(offset) <= ETA_MEAN_TOL:
        return []
    return [f"mean eta differs from E[eta | Phi] by {offset:.5f} on average, "
            f"more than {ETA_MEAN_TOL}"]


def isotropy_report(estimate, max_offdiag_abs, max_diag_dev):
    out = []
    est = np.asarray(estimate, dtype=float)
    diag = float(np.max(np.abs(np.diag(est) - 0.5)))
    off = float(np.max(np.abs(est - np.diag(np.diag(est)))))
    _fail(diag <= ISOTROPY_TOL, f"isotropy diagonal deviation {diag:.5f} > {ISOTROPY_TOL}", out)
    _fail(off <= ISOTROPY_TOL, f"isotropy off-diagonal {off:.5f} > {ISOTROPY_TOL}", out)
    _fail(abs(max_diag_dev - diag) <= 1e-12 and abs(max_offdiag_abs - off) <= 1e-12,
          "isotropy report disagrees with its own estimate", out)
    return out


def incoherence_value(alphas, n_modes, value):
    """incoherence(Phi) is max_{j,n} cos^2(n alpha_j), computed here."""
    harmonics = np.arange(1, n_modes + 1)
    expected = float(np.max(np.cos(np.outer(np.asarray(alphas), harmonics)) ** 2))
    if abs(value - expected) <= INCOHERENCE_TOL:
        return []
    return [f"incoherence {value!r} != max cos^2 {expected!r}"]


def recovered_weights(weights, truth, tol, label):
    w = np.asarray(weights, dtype=float)
    t = np.asarray(truth, dtype=float)
    if w.shape != t.shape:
        return [f"{label}: {w.shape[0]} weights, expected {t.shape[0]}"]
    dev = float(np.max(np.abs(w - t)))
    return [] if dev <= tol else [f"{label}: max |w - truth| {dev:.3g} > {tol}"]


def interferogram_csv(text, truth):
    """simulate's CSV: an alpha,power table with power = 1 + sum x_n cos(n alpha)."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines or lines[0] != "alpha,power":
        return ["simulate CSV lacks the alpha,power header"]
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    t = np.asarray(truth, dtype=float)
    expected = 1.0 + np.cos(np.outer(rows[:, 0], np.arange(1, len(t) + 1))) @ t
    dev = float(np.max(np.abs(rows[:, 1] - expected)))
    return [] if dev <= 1e-12 else [f"simulate powers off by {dev:.3g}"]


def identical(first: bytes, second: bytes, label):
    return [] if first == second else [f"{label}: rerun output differs"]


def noisy_bound(sigma, m, truth):
    """Pass bound on bp_truth_error for a noise-matched BP solve.

    eps = sigma sqrt(M + 2 sqrt(2M)) covers the noise norm with high
    probability; Phi / sqrt(M/2) is near-isometric on sparse vectors, so a
    stable solve has ||x_hat - x||_2 <= C eps / sqrt(M/2).  Squared and scaled
    by ||x||^2 this bounds the reported error.
    """
    eps = sigma * math.sqrt(m + 2.0 * math.sqrt(2.0 * m))
    t = np.asarray(truth, dtype=float)
    return (NOISY_C * eps / math.sqrt(m / 2.0)) ** 2 / float(t @ t)
