import warnings

import numpy as np
import pytest
from scipy.optimize import linprog, nnls

from compint import recovery
from compint.recovery import (
    BPOptions,
    InsufficientSamplingError,
    Method,
    basis_pursuit,
    ft_recover,
    reconstruction_error,
)
from compint.sensing import (
    DelaySchedule,
    MeasurementVector,
    ModalSpectrum,
    ScheduleKind,
    even_alphas,
    nyquist_schedule,
    random_schedule,
    sample_interferogram,
    sensing_matrix,
)

from oracles import admm_reference, harmonic_projection, l1_oracle


# -------------------------------------------------------------- harmonic route


def test_ft_exact_at_critical_rate():
    # N = 2, M = 4 puts harmonic 2 at the edge where the projection weight
    # halves; y = cos(2a) on the even grid is [1, -1, 1, -1]
    sched = nyquist_schedule(4)
    y = MeasurementVector(np.array([1.0, -1.0, 1.0, -1.0]))
    res = ft_recover(y, sched, 2)
    np.testing.assert_allclose(res.raw, [0.0, 1.0], atol=1e-14)
    assert res.converged
    assert res.method is Method.FT
    assert res.iterations == 0
    assert res.final_residual < 1e-12


def test_ft_round_trip_above_critical_rate():
    rng = np.random.default_rng(77)
    x = ModalSpectrum(rng.uniform(0.0, 1.0, 64))
    sched = nyquist_schedule(140)
    y = sample_interferogram(x, sched)
    res = ft_recover(y, sched, 64)
    assert np.max(np.abs(res.raw - x.weights)) < 1e-12


def test_ft_matches_plain_projection_oracle():
    rng = np.random.default_rng(21)
    for m, n in [(16, 8), (20, 8), (12, 5)]:
        x = ModalSpectrum(rng.uniform(0.0, 1.0, n))
        sched = nyquist_schedule(m)
        y = sample_interferogram(x, sched)
        res = ft_recover(y, sched, n)
        ref = harmonic_projection(y.values, sched.alphas, n)
        np.testing.assert_allclose(res.raw, ref, atol=1e-13)
        np.testing.assert_allclose(res.raw, x.weights, atol=1e-12)


def test_ft_keeps_signed_raw_but_clips_spectrum():
    sched = nyquist_schedule(8)
    y = MeasurementVector(-np.cos(sched.alphas))
    res = ft_recover(y, sched, 2)
    np.testing.assert_allclose(res.raw, [-1.0, 0.0], atol=1e-14)
    assert np.all(res.spectrum.weights >= 0.0)
    assert res.spectrum.weights[0] == 0.0


def test_ft_requires_even_schedule_and_nyquist_rate():
    uneven = random_schedule(16, seed=0)
    y = MeasurementVector(np.zeros(16))
    with pytest.raises(ValueError):
        ft_recover(y, uneven, 4)

    sched = nyquist_schedule(6)
    with pytest.raises(InsufficientSamplingError):
        ft_recover(MeasurementVector(np.zeros(6)), sched, 4)
    assert issubclass(InsufficientSamplingError, ValueError)

    with pytest.raises(ValueError):
        ft_recover(MeasurementVector(np.zeros(6)), sched, 0)


def test_ft_accepts_externally_tagged_even_grid():
    # schedules read back from files carry the external tag but identical values
    sched = DelaySchedule(even_alphas(8), ScheduleKind.EXTERNAL)
    x = ModalSpectrum.from_entries(4, {2: 1.0}, normalized=True)
    y = sample_interferogram(x, sched)
    res = ft_recover(y, sched, 4)
    np.testing.assert_allclose(res.raw, x.weights, atol=1e-12)


# ----------------------------------------------------------------- l1 route


def test_bp_recovers_sparse_spike_below_nyquist():
    truth = ModalSpectrum.from_entries(8, {5: 1.0}, normalized=True)
    sched = random_schedule(4, seed=1)
    phi = sensing_matrix(sched, 8)
    y = sample_interferogram(truth, sched)
    res = basis_pursuit(phi, y)
    assert res.converged
    assert res.method is Method.BP
    assert reconstruction_error(truth, res.raw) < 1e-10

    sol, unique = l1_oracle(phi.entries, y.values)
    assert unique
    assert int(np.argmax(np.abs(sol))) == 4
    assert abs(np.abs(res.raw).sum() - np.abs(sol).sum()) < 1e-6


def test_bp_zero_measurements():
    phi = sensing_matrix(random_schedule(8, seed=10), 2)
    res = basis_pursuit(phi, MeasurementVector(np.zeros(8)))
    assert res.converged
    np.testing.assert_array_equal(res.raw, np.zeros(2))
    assert res.iterations == 1


def test_bp_matches_exhaustive_l1_oracle():
    worst = 0.0
    for i in range(10):
        rng = np.random.default_rng(100 + i)
        n = int(rng.integers(4, 9))
        s = int(rng.integers(1, 3))
        m = int(rng.integers(max(3, 2 * s), n + 1))
        support = rng.choice(n, s, replace=False)
        x = np.zeros(n)
        x[support] = rng.uniform(0.3, 1.0, s)
        phi = sensing_matrix(random_schedule(m, seed=1000 + i), n)
        y = MeasurementVector(phi.entries @ x)
        res = basis_pursuit(phi, y)
        assert res.converged
        sol, _ = l1_oracle(phi.entries, y.values)
        worst = max(worst, abs(np.abs(res.raw).sum() - np.abs(sol).sum()))
    assert worst < 1e-6


def _noisy_problems():
    """60 seeded problems, all with epsilon > abs_tol: N in {8, 16, 64}, M in
    3..min(2N, 60), sigma in {0, 0.01}, signed and nonnegative programs,
    epsilon = 0.05 or, at sigma = 0.01, sigma sqrt(M + 2 sqrt(2M)), and an
    oracle penalty rho of 1 or 2."""
    for i in range(60):
        rng = np.random.default_rng(900 + i)
        n = (8, 16, 64)[i % 3]
        m = int(rng.integers(3, min(2 * n, 60) + 1))
        sigma = (0.0, 0.01)[(i // 3) % 2]
        eps = sigma * np.sqrt(m + 2 * np.sqrt(2 * m)) if sigma and i % 4 < 2 else 0.05
        opts = BPOptions(max_iters=2000, residual_epsilon=eps,
                         nonnegative=bool((i // 6) % 2))
        x = np.zeros(n)
        s = int(rng.integers(1, 5))
        x[rng.choice(n, s, replace=False)] = rng.dirichlet(np.ones(s))
        sched = random_schedule(m, seed=2000 + i)
        y = sample_interferogram(ModalSpectrum(x), sched, sigma, seed=i)
        yield sensing_matrix(sched, n), y, opts, (1.0, 2.0)[(i // 12) % 2]


def test_bp_matches_reference_admm_loop():
    # Wherever the ADMM oracle converges, the homotopy converges too, to the
    # same l1 optimum: ADMM stops at a relative tolerance of 1e-6.
    agreed = 0
    for phi, y, opts, rho in _noisy_problems():
        z, _, ok = admm_reference(phi.entries, y.values, opts, rho)
        if not ok:
            continue
        res = basis_pursuit(phi, y, opts)
        assert res.converged
        assert res.final_residual <= opts.residual_epsilon + opts.abs_tol
        l1 = np.abs(z).sum()
        assert abs(np.abs(res.raw).sum() - l1) <= 1e-6 * l1
        agreed += 1
    # the oracle converges on 21 of the 60 within its 2000 iterations
    assert agreed >= 15


def test_homotopy_entry_that_left_does_not_rejoin_at_once():
    # At M = 3 an entry leaves the support at step 3.  Were it allowed back
    # with its old sign, rounding would let it rejoin after a fall of 9e-16 in
    # lam, and the path would end, unconverged, on a support with twice the
    # l1.
    rng = np.random.default_rng(11059)
    n = 64
    m = int(rng.integers(3, 61))
    s = int(rng.integers(1, 5))
    x = np.zeros(n)
    x[rng.choice(64, s, replace=False)] = rng.dirichlet(np.ones(s))
    sched = random_schedule(m, seed=11066)
    y = sample_interferogram(ModalSpectrum(x), sched, 0.1, seed=59)
    eps = 0.1 * np.sqrt(m + 2 * np.sqrt(2 * m))
    assert m == 3 and abs(eps - 0.28105) < 1e-5
    res = basis_pursuit(sensing_matrix(sched, n), y, BPOptions(residual_epsilon=eps))
    assert res.converged
    assert abs(np.abs(res.raw).sum() - 0.789790) <= 1e-6
    assert res.iterations < 20


def test_homotopy_entry_that_left_may_rejoin_with_the_other_sign():
    # N = 16, M = 18: at step 34 entry 10 leaves the support, and on the next
    # step it rejoins with the opposite sign.  Barring it from rejoining at
    # all ends the path at lam = 0, unconverged.
    truth = np.zeros(16)
    truth[[2, 3, 5, 11]] = [0.064, 0.004, 0.642, 0.29]
    sched = random_schedule(18, seed=20028)
    phi = sensing_matrix(sched, 16)
    y = sample_interferogram(ModalSpectrum(truth), sched, 0.08, seed=28)
    eps = 0.05
    res = basis_pursuit(phi, y, BPOptions(residual_epsilon=eps))
    assert res.converged and res.iterations < 50
    # weak duality: r / ||Phi^T r||_inf is dual feasible, and its objective
    # bounds the l1 optimum from below
    r = y.values - phi.entries @ res.raw
    v = r / np.abs(phi.entries.T @ r).max()
    l1 = np.abs(res.raw).sum()
    assert l1 - (y.values @ v - eps * np.linalg.norm(v)) <= 1e-8 * l1


def test_homotopy_nonnegative_infeasible():
    # sign-flipped noisy data lie farther than epsilon from every Phi x with
    # x >= 0: the path runs lam down to 0 and reports the program infeasible
    truth = ModalSpectrum.from_entries(8, {2: 0.6, 7: 0.4}, normalized=True)
    sched = random_schedule(12, seed=10)
    phi = sensing_matrix(sched, 8)
    y = -sample_interferogram(truth, sched, 0.01, seed=3).values
    assert nnls(phi.entries, y)[1] > 0.05
    res = basis_pursuit(phi, MeasurementVector(y),
                        BPOptions(residual_epsilon=0.05, nonnegative=True))
    assert not res.converged
    assert res.final_residual > 0.05
    assert np.all(np.isfinite(res.raw)) and np.all(res.raw >= 0.0)


def _lp_problems():
    """100 seeded problems for the exact solver: N in {8, 16, 64}, M in 3..60
    (some M > N), signed and nonnegative programs, sigma in {0, 0.01}, and
    1..4 nonzeros of either sign, so that many nonnegative and noisy M > N
    programs are infeasible."""
    for i in range(100):
        rng = np.random.default_rng(5000 + i)
        n = (8, 16, 64)[i % 3]
        m = int(rng.integers(3, 61))
        nonnegative = bool((i // 3) % 2)
        sigma = (0.0, 0.01)[(i // 6) % 2]
        s = int(rng.integers(1, 5))
        x = np.zeros(n)
        x[rng.choice(n, s, replace=False)] = (rng.uniform(0.1, 1.0, s)
                                              * rng.choice([-1.0, 1.0], s))
        phi = sensing_matrix(random_schedule(m, seed=5000 + i), n)
        y = MeasurementVector(phi.entries @ x + sigma * rng.standard_normal(m))
        yield phi, y, nonnegative, sigma


def test_bp_matches_highs_linear_program():
    # HiGHS solves the same LP.  The l1 optimum moves with y by at most the
    # dual norm times the change, so the two values may also differ by the
    # dual norm times the residuals that each solver allows.
    converged = infeasible = 0
    for phi, y, nonnegative, sigma in _lp_problems():
        a = phi.entries
        lp_a = a if nonnegative else np.hstack((a, -a))
        ref = linprog(np.ones(lp_a.shape[1]), A_eq=lp_a, b_eq=y.values,
                      bounds=(0, None), method="highs")
        assert ref.status in (0, 2)
        opts = BPOptions(nonnegative=nonnegative)
        res = basis_pursuit(phi, y, opts)
        assert np.all(np.isfinite(res.raw))
        assert not nonnegative or np.all(res.raw >= 0.0)
        if ref.status == 2:
            assert not res.converged
            infeasible += 1
        elif res.converged:
            allowed = opts.residual_epsilon + opts.abs_tol
            assert res.final_residual <= allowed
            slack = ((allowed + np.linalg.norm(lp_a @ ref.x - y.values))
                     * np.linalg.norm(ref.eqlin.marginals))
            assert abs(np.abs(res.raw).sum() - ref.fun) <= 1e-8 + slack
            converged += 1
        else:
            # sparse noiseless data and the signed program always converge
            assert nonnegative or sigma > 0
    assert converged > 0 and infeasible > 0


def test_exact_bp_keeps_nearly_dependent_rows():
    # sigma_min(Phi) is 1.5e-6 here, and noisy data have an exact fit with
    # l1 in the thousands.  A solve that drops the row nearly dependent on the
    # others stops with residuals of 0.002-0.04, a false "unconverged" on all
    # six data sets.  With every row kept, seeds 0, 2 and 4 converge to the
    # HiGHS optimum.  Seeds 1, 3 and 5 still stop unconverged: the
    # interior-point method meets its own tolerance, and the refit on the
    # support, which is the HiGHS optimum, raises l1 by more than _polish
    # allows.
    sched = random_schedule(15, seed=91564)
    phi = sensing_matrix(sched, 16)
    truth = np.zeros(16)
    truth[[1, 5]] = [0.6, 0.4]
    a = phi.entries
    lp_a = np.hstack((a, -a))
    opts = BPOptions()
    allowed = opts.residual_epsilon + opts.abs_tol
    for k in range(6):
        y = sample_interferogram(ModalSpectrum(truth), sched, 0.01, seed=k)
        ref = linprog(np.ones(32), A_eq=lp_a, b_eq=y.values, bounds=(0, None),
                      method="highs")
        res = basis_pursuit(phi, y, opts)
        assert res.converged or k % 2
        if res.converged:
            assert res.final_residual <= allowed
            slack = ((allowed + np.linalg.norm(lp_a @ ref.x - y.values))
                     * np.linalg.norm(ref.eqlin.marginals))
            assert abs(np.abs(res.raw).sum() - ref.fun) <= 1e-8 + slack


def test_exact_bp_support_is_exact():
    # the refit on the support leaves exact zeros elsewhere and a residual
    # far below epsilon + abs_tol
    for i in range(20):
        rng = np.random.default_rng(700 + i)
        s = int(rng.integers(1, 5))
        x = np.zeros(64)
        x[rng.choice(64, s, replace=False)] = rng.dirichlet(np.ones(s))
        phi = sensing_matrix(random_schedule(30, seed=800 + i), 64)
        res = basis_pursuit(phi, MeasurementVector(phi.entries @ x))
        assert res.converged
        np.testing.assert_array_equal(res.raw != 0.0, x != 0.0)
        assert res.final_residual <= 1e-12


def test_exact_bp_more_delays_than_modes():
    # Phi Phi^T is singular when M > N: noiseless data are still solved
    # exactly, and noisy data cannot be fit at epsilon <= abs_tol
    truth = np.array([0.0, 0.6, 0.0, 0.4, 0.0])
    for sched in (random_schedule(12, seed=4), nyquist_schedule(16)):
        phi = sensing_matrix(sched, 5)
        res = basis_pursuit(phi, MeasurementVector(phi.entries @ truth))
        assert res.converged
        np.testing.assert_allclose(res.raw, truth, rtol=0.0, atol=1e-12)
        noisy = sample_interferogram(ModalSpectrum(truth), sched, 0.01, seed=5)
        res = basis_pursuit(phi, noisy)
        assert not res.converged
        assert np.all(np.isfinite(res.raw))


def test_exact_bp_repeated_and_mirrored_delays():
    # a repeated delay and a delay mirrored about pi give dependent rows
    alphas = random_schedule(10, seed=6).alphas
    alphas = np.concatenate((alphas, [alphas[0], 2.0 * np.pi - alphas[1]]))
    phi = sensing_matrix(DelaySchedule(alphas, ScheduleKind.EXTERNAL), 16)
    truth = np.zeros(16)
    truth[[2, 9]] = [0.7, 0.3]
    y = phi.entries @ truth
    res = basis_pursuit(phi, MeasurementVector(y))
    assert res.converged
    np.testing.assert_allclose(res.raw, truth, rtol=0.0, atol=1e-12)
    y[-1] += 0.01
    res = basis_pursuit(phi, MeasurementVector(y))
    assert not res.converged
    assert np.all(np.isfinite(res.raw))


def test_exact_bp_singular_normal_equations():
    # With two delays 3e-5 apart, a diag(d) a^T of the last steps can be
    # singular in floating point; the delta I on the normal equations keeps
    # each step solvable (test_lp_survives_singular_normal_matrix).
    truth = np.zeros(8)
    truth[[2, 3, 7]] = [-0.45, -0.96, 0.14]
    for seed in (1, 26):
        alphas = random_schedule(8, seed=seed).alphas.copy()
        alphas[1] = alphas[0] + 3e-5
        phi = sensing_matrix(DelaySchedule(alphas, ScheduleKind.EXTERNAL), 8)
        res = basis_pursuit(phi, MeasurementVector(phi.entries @ truth))
        assert res.converged
        np.testing.assert_allclose(res.raw, truth, rtol=0.0, atol=1e-12)


def test_lp_survives_singular_normal_matrix():
    # a has independent rows, but a diag(d) a^T rounds to a singular matrix
    # at d = 1; the normal equations carry delta I, so the solve raises
    # nothing and returns finite iterates.
    a = np.array([[1.0, 1.0, 0.0], [1.0, 1.0 + 2.0 ** -30, 0.0]])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(a @ a.T, np.ones(2))
    b = a @ [1.0, 1.0, 0.0]
    x, s, lam, steps = recovery._lp.solve(a, b, 100)
    assert x is not None and 0 < steps <= 100
    assert np.all(np.isfinite(np.concatenate((x, s, lam))))
    assert np.linalg.norm(a @ x - b) <= 1e-8 * np.linalg.norm(b)


def test_exact_bp_detects_infeasible_nonnegative_data():
    # the row of delay 0 is all ones, so x >= 0 cannot fit y_0 < 0
    alphas = np.concatenate(([0.0], random_schedule(7, seed=8).alphas))
    phi = sensing_matrix(DelaySchedule(alphas, ScheduleKind.EXTERNAL), 16)
    y = np.ones(8)
    y[0] = -1.0
    opts = BPOptions(nonnegative=True)
    res = basis_pursuit(phi, MeasurementVector(y), opts)
    assert not res.converged
    assert res.iterations < 50
    assert np.all(np.isfinite(res.raw)) and np.all(res.raw >= 0.0)


def test_exact_bp_stops_when_mu_stalls():
    # noisy data fitted exactly with M close to N: rounding leaves mu
    # wandering between about 1e-19 and 1e-12, and without the stall test the
    # solve ran 1299 steps to an l1 norm of 3.1e7
    n = 64
    rng = np.random.default_rng(7104)
    m = int(rng.integers(48, 65))
    s = int(rng.integers(1, 5))
    truth = np.zeros(n)
    truth[rng.choice(n, s, replace=False)] = rng.uniform(0.1, 1.0, s)
    phi = sensing_matrix(random_schedule(m, seed=7104), n)
    y = phi.entries @ truth + 0.01 * rng.standard_normal(m)
    res = basis_pursuit(phi, MeasurementVector(y))
    assert m == 52
    assert res.iterations <= 100
    assert not res.converged
    assert np.all(np.isfinite(res.raw))


def test_exact_bp_is_scale_free():
    # the data are scaled to max |y| = 1 before the solve, so the solution
    # scales with y; the absolute residual test fails only where round-off
    # alone exceeds abs_tol
    phi = sensing_matrix(random_schedule(10, seed=3), 16)
    truth = np.zeros(16)
    truth[[5, 12]] = [0.7, -0.2]
    for c, converged in ((1e-8, True), (1e6, True), (1e150, False)):
        res = basis_pursuit(phi, MeasurementVector(c * (phi.entries @ truth)))
        assert res.converged == converged
        np.testing.assert_allclose(res.raw / c, truth, rtol=0.0, atol=1e-12)


def test_bp_final_residual_finite_for_huge_data():
    # ||Phi z - y||^2 overflows past about 1e154; the residual norm must not
    phi = sensing_matrix(random_schedule(10, seed=3), 16)
    truth = np.zeros(16)
    truth[[5, 12]] = [0.7, -0.2]
    y = MeasurementVector(1e300 * (phi.entries @ truth))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = basis_pursuit(phi, y)
    assert np.isfinite(res.final_residual)
    assert res.final_residual <= 1e-12 * 1e300
    np.testing.assert_allclose(res.raw / 1e300, truth, rtol=0.0, atol=1e-12)


def _lp_only(patch):
    """Send every exact solve to the interior-point LP: the l1 path yields no
    segment, so `_exact_bp` falls back at once."""
    patch.setattr(recovery, "_lasso_path", lambda *args: iter(()))


def test_exact_bp_converged_needs_optimality(monkeypatch):
    # On the LP route, a refit that fits y is reported converged only once
    # the dual bound proves it optimal.  The path is turned off, and the
    # solver is replaced by one that hands the certification hook two
    # iterates: the first guesses ten wrong columns, whose refit fits y
    # exactly (ten equations, ten unknowns) with a larger l1 norm than the
    # one-sparse truth; the second guesses the truth's support.  Only the
    # second may be certified, at any data scale: at 1e-12 a certificate with
    # an absolute tolerance of 1e-8 would pass both.  epsilon = 0 keeps such
    # data outside the epsilon-ball around 0.
    phi = sensing_matrix(random_schedule(10, seed=3), 16)
    a = phi.entries
    opts = BPOptions(residual_epsilon=0.0)
    one = np.zeros(16)
    one[5] = 0.7
    wrong = np.zeros(16, dtype=bool)
    wrong[6:] = True
    for c in (1.0, 1e-12):
        truth = c * one
        y = a @ truth
        refit = np.zeros(16)
        refit[wrong] = np.linalg.solve(a[:, wrong], y)
        assert np.linalg.norm(a @ refit - y) <= 1e-12 * c
        assert np.abs(refit).sum() > 1.5 * np.abs(truth).sum()

        def iterate(z):
            # An iterate of the scaled signed program, 0.1% past the refit z,
            # so that refitting lowers its residual; it guesses the support
            # z != 0.
            z = 1.001 * z / np.max(np.abs(y))
            x = np.concatenate((np.maximum(z, 0.0), np.maximum(-z, 0.0)))
            return x, np.where(x > 0.0, 0.5 * x, 1.0)

        verdicts = []

        def solve(lp_a, b, max_steps, finished=None):
            lam = np.zeros(len(b))
            for z in (refit, truth):
                x, s = iterate(z)
                verdicts.append(finished(x, s, lam))
            return x, s, lam, 2

        with monkeypatch.context() as patch:
            _lp_only(patch)
            patch.setattr(recovery._lp, "solve", solve)
            res = basis_pursuit(phi, MeasurementVector(y), opts)
        assert verdicts == [False, True]
        assert res.converged and res.iterations == 2
        np.testing.assert_allclose(res.raw, truth, rtol=0.0, atol=1e-12 * c)
    # The real LP certifies the truth's refit at step 1, and so does the
    # path, so a cap of two steps changes nothing on either route.
    y = MeasurementVector(a @ one)
    for lp_only in (True, False):
        with monkeypatch.context() as patch:
            if lp_only:
                _lp_only(patch)
            capped = basis_pursuit(phi, y, BPOptions(max_iters=2))
            full = basis_pursuit(phi, y)
        assert capped.converged and full.converged
        assert capped.iterations == full.iterations == 1
        np.testing.assert_array_equal(capped.raw, full.raw)


def _mixed_problems(count=300):
    """N in {8, 16, 64}, M in 2..2N, a quarter with a repeated and a quarter
    with a mirrored delay, a fifth nonnegative, a third noisy (sigma = 0.01),
    and 1..4 nonzeros, signed unless nonnegative."""
    for i in range(count):
        rng = np.random.default_rng(6000 + i)
        n = (8, 16, 64)[i % 3]
        m = int(rng.integers(2, 2 * n + 1))
        alphas = random_schedule(m, seed=6000 + i).alphas.copy()
        if i % 4 == 1:
            alphas[-1] = alphas[0]
        elif i % 4 == 2:
            alphas[-1] = 2.0 * np.pi - alphas[0]
        phi = sensing_matrix(DelaySchedule(alphas, ScheduleKind.EXTERNAL), n)
        nonnegative = i % 5 == 0
        s = int(rng.integers(1, 5))
        x = np.zeros(n)
        x[rng.choice(n, s, replace=False)] = rng.uniform(0.1, 1.0, s) * (
            1.0 if nonnegative else rng.choice([-1.0, 1.0], s))
        sigma = 0.01 if i % 3 == 1 else 0.0
        y = MeasurementVector(phi.entries @ x + sigma * rng.standard_normal(m))
        yield phi, y, BPOptions(nonnegative=nonnegative)


def test_exact_bp_early_stop_matches_full_solve(monkeypatch):
    # Ending a solve at its first certified refit gives the refit of the
    # solve run to the solver's tolerance, and the same verdict.
    problems = list(_mixed_problems())
    early = [basis_pursuit(phi, y, opts) for phi, y, opts in problems]
    # The reference solves ignore the hook and run to the solver's own
    # stopping rule.
    solve = recovery._lp.solve
    monkeypatch.setattr(recovery._lp, "solve",
                        lambda a, b, max_steps, finished=None: solve(a, b, max_steps))
    converged = 0
    for (phi, y, opts), res in zip(problems, early):
        ref = basis_pursuit(phi, y, opts)
        assert res.converged == ref.converged
        assert res.iterations <= ref.iterations
        if res.converged:
            converged += 1
            assert res.final_residual <= opts.residual_epsilon + opts.abs_tol
            gap = np.abs(res.raw - ref.raw).sum()
            assert gap <= 1e-12 * np.abs(ref.raw).sum()
    assert 0 < converged < len(problems)


def test_path_route_matches_lp_route(monkeypatch):
    # The l1 path certifies most exact solves; each one it certifies has the
    # verdict of the LP alone and its raw within 1e-12 relative l1, and the
    # ones it cannot certify fall back to the LP.  The problems include
    # nonnegative ones and repeated or mirrored delays.
    problems = list(_mixed_problems())
    default = [basis_pursuit(phi, y, opts) for phi, y, opts in problems]
    on_path = [recovery._path_bp(phi.entries, y.values, opts)[0] is not None
               for phi, y, opts in problems]
    _lp_only(monkeypatch)
    converged = 0
    for (phi, y, opts), res in zip(problems, default):
        ref = basis_pursuit(phi, y, opts)
        assert res.converged == ref.converged
        if res.converged:
            converged += 1
            gap = np.abs(res.raw - ref.raw).sum()
            assert gap <= 1e-12 * np.abs(ref.raw).sum()
    assert 0 < sum(on_path) < converged
    # Problems 1, 5, 9, ... have a repeated delay, 2, 6, 10, ... a mirrored
    # one, and every fifth is nonnegative.
    assert any(on_path[1::4]) and any(on_path[2::4]) and any(on_path[::5])


def test_path_falls_back_where_it_cannot_certify():
    # At M = 5 the l1 solution of three-sparse data has five entries, more
    # than the path keeps (min(M, N) / 2): the path gives up after three
    # steps, and the LP solves the program.
    rng = np.random.default_rng(1)
    x = np.zeros(64)
    x[rng.choice(64, 3, replace=False)] = rng.uniform(0.1, 1.0, 3)
    phi = sensing_matrix(random_schedule(5, seed=1), 64)
    y = MeasurementVector(phi.entries @ x)
    z, steps = recovery._path_bp(phi.entries, y.values, BPOptions())
    assert z is None and steps == 3
    res = basis_pursuit(phi, y)
    assert res.converged and res.iterations > steps
    assert np.count_nonzero(res.raw) == 5
    assert res.final_residual <= 1e-12
    # With more delays than modes, noisy data lie outside the range of Phi:
    # the least-squares fit on every column shows it, and the path is not
    # walked at all.
    truth = ModalSpectrum(np.array([0.0, 0.6, 0.0, 0.4, 0.0]))
    sched = random_schedule(12, seed=4)
    phi = sensing_matrix(sched, 5)
    noisy = sample_interferogram(truth, sched, 0.01, seed=5)
    z, steps = recovery._path_bp(phi.entries, noisy.values, BPOptions())
    assert z is None and steps == 0
    assert not basis_pursuit(phi, noisy).converged


def test_path_certifies_only_with_the_dual_bound(monkeypatch):
    # An exact fit on the path's active set is returned only once the dual
    # bound proves it optimal.  A walk is faked that reaches the support of
    # five-sparse data whose l1 optimum has ten entries and a smaller norm:
    # the refit fits y exactly and keeps every sign, but the dual point
    # Phi_S G^-1 s that such a path would give is infeasible, and its bound
    # rejects the refit.  The LP then finds the optimum.
    rng = np.random.default_rng(1)
    x = np.zeros(16)
    x[rng.choice(16, 5, replace=False)] = (rng.uniform(0.5, 1.0, 5)
                                          * rng.choice([-1.0, 1.0], 5))
    phi = sensing_matrix(random_schedule(10, seed=1), 16)
    a = phi.entries
    y = a @ x
    on = x != 0
    cols = a[:, on]
    dual = cols @ np.linalg.solve(cols.T @ cols, np.sign(x[on]))
    assert np.abs(a.T @ dual).max() > 1.0
    segment = recovery._Segment(on, np.sign(x), None, 1.0, None, x[on], dual,
                                None, None, None)
    monkeypatch.setattr(recovery, "_lasso_path", lambda *args: iter([segment]))
    z, steps = recovery._path_bp(a, y, BPOptions())
    assert z is None and steps == 1
    res = basis_pursuit(phi, MeasurementVector(y))
    assert res.converged and res.iterations > 1
    assert np.abs(res.raw).sum() < np.abs(x).sum() - 0.5


def test_path_residual_gate_is_relative(monkeypatch):
    # The path certifies a refit only where the least-squares fit on its
    # active set leaves a residual below _lp.TOL max |y| too, not only below
    # epsilon + abs_tol.  The first path step of these two-sparse data fits
    # one column; at scale 1e-8 its residual is below abs_tol, and an
    # absolute gate alone would certify that wrong support.  At every scale
    # the path certifies the truth's support instead, and returns the truth
    # wherever the LP alone does.
    phi = sensing_matrix(random_schedule(10, seed=3), 16)
    a = phi.entries
    truth = np.zeros(16)
    truth[[5, 12]] = [0.7, -0.2]
    opts = BPOptions(residual_epsilon=0.0)
    for c in (1e-12, 1e-8, 1.0, 1e6):
        y = c * (a @ truth)
        column = np.argmax(np.abs(a.T @ y))
        one = a[:, column] * (a[:, column] @ y) / (a[:, column] @ a[:, column])
        if c == 1e-8:
            assert np.linalg.norm(y - one) <= opts.abs_tol
        z, _ = recovery._path_bp(a, y, opts)
        assert z is not None and np.array_equal(z != 0, truth != 0)
        res = basis_pursuit(phi, MeasurementVector(y), opts)
        with monkeypatch.context() as patch:
            _lp_only(patch)
            ref = basis_pursuit(phi, MeasurementVector(y), opts)
        assert res.converged == ref.converged
        if np.allclose(ref.raw / c, truth, rtol=0.0, atol=1e-12):
            np.testing.assert_allclose(res.raw / c, truth, rtol=0.0, atol=1e-12)


def test_bp_converged_implies_feasible():
    for i in range(20):
        rng = np.random.default_rng(300 + i)
        n = int(rng.integers(3, 10))
        m = int(rng.integers(2, n + 3))
        phi = sensing_matrix(random_schedule(m, seed=400 + i), n)
        y = MeasurementVector(rng.uniform(-1.0, 1.0, m))
        opts = BPOptions(residual_epsilon=0.05, max_iters=5000)
        res = basis_pursuit(phi, y, opts)
        if res.converged:
            assert res.final_residual <= opts.residual_epsilon + opts.abs_tol
        assert np.linalg.norm(phi.entries @ res.raw - y.values) == pytest.approx(
            res.final_residual)


def test_bp_scale_equivariance():
    x = np.zeros(6)
    x[[1, 4]] = [0.7, 0.4]
    phi = sensing_matrix(random_schedule(12, seed=9), 6)
    y = MeasurementVector(phi.entries @ x)
    base = basis_pursuit(phi, y)
    assert base.converged
    for c in (0.5, 2.0):
        scaled = basis_pursuit(phi, MeasurementVector(c * y.values),
                               BPOptions(residual_epsilon=1e-9 * c))
        assert scaled.converged
        assert np.max(np.abs(scaled.raw - c * base.raw)) < 1e-6


def test_bp_nonnegative_constraint():
    x = np.array([1.0, 0.3])
    phi = sensing_matrix(random_schedule(8, seed=10), 2)
    res = basis_pursuit(phi, MeasurementVector(-(phi.entries @ x)),
                        BPOptions(nonnegative=True, max_iters=2000))
    # sign-flipped data cannot be fit by nonnegative weights at tiny epsilon,
    # but the iterate must respect the constraint throughout
    assert np.all(res.raw >= 0.0)
    assert not res.converged


def test_bp_report_snaps_small_entries():
    x = np.array([1.0, 0.3])
    phi = sensing_matrix(random_schedule(8, seed=10), 2)
    y = MeasurementVector(phi.entries @ x)
    res = basis_pursuit(phi, y, BPOptions(zero_threshold=0.5))
    assert abs(res.raw[1] - 0.3) < 1e-6
    assert res.spectrum.weights[1] == 0.0
    assert abs(res.spectrum.weights[0] - 1.0) < 1e-6


def test_bp_noise_requires_matching_epsilon():
    truth = ModalSpectrum.from_entries(8, {3: 1.0}, normalized=True)
    sched = nyquist_schedule(128)
    phi = sensing_matrix(sched, 8)
    sigma = 0.05
    y = sample_interferogram(truth, sched, noise_sigma=sigma, seed=6)

    tight = basis_pursuit(phi, y, BPOptions(max_iters=3000))
    assert not tight.converged

    eps = 1.2 * sigma * np.sqrt(128)
    loose = basis_pursuit(phi, y, BPOptions(residual_epsilon=eps))
    assert loose.converged
    assert loose.final_residual <= eps + 1e-8
    assert reconstruction_error(truth, loose.raw) < 0.05


def test_bp_deterministic():
    phi = sensing_matrix(random_schedule(6, seed=2), 8)
    truth = ModalSpectrum.from_entries(8, {2: 0.6, 7: 0.4}, normalized=True)
    y = sample_interferogram(truth, phi.schedule)
    a = basis_pursuit(phi, y)
    b = basis_pursuit(phi, y)
    np.testing.assert_array_equal(a.raw, b.raw)
    assert a.iterations == b.iterations
    assert a.final_residual == b.final_residual


def test_bp_shape_mismatch():
    phi = sensing_matrix(random_schedule(6, seed=2), 4)
    with pytest.raises(ValueError):
        basis_pursuit(phi, MeasurementVector(np.zeros(5)))


def test_bp_options_validation():
    with pytest.raises(ValueError):
        BPOptions(residual_epsilon=-1.0)
    with pytest.raises(ValueError):
        BPOptions(abs_tol=0.0)
    with pytest.raises(ValueError):
        BPOptions(max_iters=0)
    with pytest.raises(ValueError):
        BPOptions(zero_threshold=-0.5)


def test_result_raw_is_readonly():
    phi = sensing_matrix(random_schedule(8, seed=10), 2)
    res = basis_pursuit(phi, MeasurementVector(np.zeros(8)))
    with pytest.raises(ValueError):
        res.raw[0] = 1.0


# ---------------------------------------------------------------- error metric


def test_reconstruction_error_values():
    assert reconstruction_error([1.0, 0.0], [1.0, 0.0]) == 0.0
    assert reconstruction_error([1.0, 0.0], [0.0, 0.0]) == 1.0
    assert reconstruction_error([1.0, 0.0], [-1.0, 0.0]) == 4.0
    ref = ModalSpectrum(np.array([1.0, 0.0]))
    assert reconstruction_error(ref, [0.5, 0.0]) == 0.25
    with pytest.raises(ValueError):
        reconstruction_error([0.0, 0.0], [1.0, 0.0])
    with pytest.raises(ValueError):
        reconstruction_error([1.0], [1.0, 0.0])
