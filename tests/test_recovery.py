import dataclasses
import warnings

import numpy as np
import pytest
from scipy.optimize import linprog, nnls

from compint import recovery
from compint.experiments import scenario_by_name
from compint.recovery import (
    BPOptions,
    InsufficientSamplingError,
    basis_pursuit,
    ft_recover,
    reconstruction_error,
)
from compint.sensing import (
    DelaySchedule,
    MeasurementVector,
    ModalSpectrum,
    even_alphas,
    nyquist_schedule,
    random_schedule,
    sample_interferogram,
    sensing_matrix,
)

from oracles import harmonic_projection, highs_bp, l1_oracle


# -------------------------------------------------------------- harmonic route


def test_ft_exact_at_critical_rate():
    # N = 2, M = 4 puts harmonic 2 at the edge where the projection weight
    # halves; y = cos(2a) on the even grid is [1, -1, 1, -1]
    sched = nyquist_schedule(4)
    y = MeasurementVector(np.array([1.0, -1.0, 1.0, -1.0]))
    res = ft_recover(y, sched, 2)
    np.testing.assert_allclose(res.raw, [0.0, 1.0], atol=1e-14)
    assert res.converged
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


def test_ft_sums_data_near_the_float_limit():
    # the sums run on y / 2^k: data near 1.7e308 give finite coefficients
    # without an overflow warning, and a coefficient past the float range
    # is refused, as basis_pursuit refuses such a solution
    sched = nyquist_schedule(8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = ft_recover(MeasurementVector(np.full(8, 1.5e308)), sched, 4)
        assert np.all(np.abs(res.raw) <= 1e293)
        with pytest.raises(ValueError, match="overflows the float range"):
            ft_recover(MeasurementVector(1.7e308 * np.sign(np.cos(sched.alphas))),
                       sched, 4)


def test_ft_accepts_externally_tagged_even_grid():
    # a schedule read back from a file is its delays alone; ft reads the
    # even grid from the values
    sched = DelaySchedule(even_alphas(8))
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


def test_bp_data_inside_the_epsilon_ball():
    # Nonzero data within epsilon of 0 give z = 0 at step 1; data just
    # outside the ball are solved.  Both are far smaller than 1, so the
    # solver's scaling of y by a power of two near max |y| is not the
    # identity there.
    phi = sensing_matrix(random_schedule(8, seed=10), 4)
    y = phi.entries @ np.array([0.0, 0.7, 0.0, 0.3])
    y /= np.linalg.norm(y)
    inside = basis_pursuit(phi, MeasurementVector(0.5e-9 * y))
    assert inside.converged and inside.iterations == 1
    np.testing.assert_array_equal(inside.raw, np.zeros(4))
    outside = basis_pursuit(phi, MeasurementVector(2e-9 * y))
    assert outside.converged and np.count_nonzero(outside.raw) == 2


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
    3..min(2N, 60), sigma in {0, 0.01}, signed and nonnegative programs, and
    epsilon = 0.05 or, at sigma = 0.01, sigma sqrt(M + 2 sqrt(2M))."""
    for i in range(60):
        rng = np.random.default_rng(900 + i)
        n = (8, 16, 64)[i % 3]
        m = int(rng.integers(3, min(2 * n, 60) + 1))
        sigma = (0.0, 0.01)[(i // 3) % 2]
        eps = sigma * np.sqrt(m + 2 * np.sqrt(2 * m)) if sigma and i % 4 < 2 else 0.05
        opts = BPOptions(residual_epsilon=eps, nonnegative=bool((i // 6) % 2))
        x = np.zeros(n)
        s = int(rng.integers(1, 5))
        x[rng.choice(n, s, replace=False)] = rng.dirichlet(np.ones(s))
        sched = random_schedule(m, seed=2000 + i)
        y = sample_interferogram(ModalSpectrum(x), sched, sigma, seed=i)
        yield sensing_matrix(sched, n), y, opts


def _nearest(a, y, nonnegative):
    """min ||Phi x - y||_2 over every x (every x >= 0 under `nonnegative`)."""
    if nonnegative:
        return nnls(a, y)[1]
    return np.linalg.norm(a @ np.linalg.lstsq(a, y, rcond=None)[0] - y)


def test_homotopy_entry_that_left_does_not_rejoin_at_once():
    # At M = 3 entry 21 leaves the support at step 3, and the walk has to go
    # on past that leave: it reaches the eps-ball in 5 steps, converged, at
    # l1 0.789790.  No rule bars the entry that left: its rate in the ratio
    # test points away from its old bound, and entry 51 joins next.
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


def test_noisy_bp_is_optimal_by_weak_duality():
    # For any nu with ||Phi^T nu||_inf <= 1 (Phi^T nu <= 1 under
    # `nonnegative`), y^T nu - epsilon ||nu|| bounds the l1 norm of every x
    # with ||Phi x - y|| <= epsilon from below, and nu = r / ||Phi^T r||_inf,
    # for the residual r of the returned z, is such a point whatever solver
    # made z.  Every converged solve closes that gap to 1e-8 relative, and
    # every unconverged one is infeasible: no x (no x >= 0 under
    # `nonnegative`) comes within epsilon of y.
    converged = 0
    for phi, y, opts in _noisy_problems():
        a, yv, eps = phi.entries, y.values, opts.residual_epsilon
        res = basis_pursuit(phi, y, opts)
        if not res.converged:
            assert _nearest(a, yv, opts.nonnegative) > eps
            continue
        converged += 1
        assert res.final_residual <= eps + opts.abs_tol
        assert not opts.nonnegative or np.all(res.raw >= 0.0)
        r = yv - a @ res.raw
        c = a.T @ r
        nu = r / (c.max() if opts.nonnegative else np.abs(c).max())
        l1 = np.abs(res.raw).sum()
        assert l1 - (yv @ nu - eps * np.linalg.norm(nu)) <= 1e-8 * l1
    assert converged == 58


def test_tied_entries_join_one_step_apart():
    # On the even grid the columns are orthogonal, so equal weights give
    # equal correlations, and the second of two tied entries joins after a
    # fall of 0 in lam, or a step of 0 in nu.  Rounding can leave its gap
    # just below 0; a walk that skipped such a join stopped after one step,
    # unconverged with one mode: here with a residual of 4.0, and on the
    # exact route at M = 8, 10, 13, 14, 18, 19, 21 and 23.
    sched = nyquist_schedule(128)
    y = sample_interferogram(scenario_by_name("hg0+hg1").spectrum, sched)
    res = basis_pursuit(sensing_matrix(sched, 64), y, BPOptions(residual_epsilon=0.05))
    assert res.converged and res.iterations == 2
    assert np.flatnonzero(res.raw).tolist() == [0, 1]
    for m in range(8, 25):
        phi = sensing_matrix(nyquist_schedule(m), 4)
        res = basis_pursuit(phi, MeasurementVector(phi.entries @ [1.0, 1.0, 0.0, 0.0]))
        assert res.converged and res.iterations == 2


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


def _clustered_noisy_problem(i):
    """Seeded noisy problem i, often ill-conditioned: N in {4, 8, 16, 64}, M in
    2..60, for even i the first max(2, M // 2) delays within 1e-9..1e-3 of
    the first, 1..4 nonzeros (Dirichlet weights where 3 divides i, signed
    otherwise), data scaled by 1e-6..1e6, sigma in {0.001, 0.01, 0.1, 0.5}
    and epsilon 0.3, 1 or sqrt(M + 2 sqrt(2M)) times the noise level, so
    that many programs are infeasible; nonnegative where i % 4 >= 2."""
    rng = np.random.default_rng(70000 + i)
    n = int(rng.choice([4, 8, 16, 64]))
    m = int(rng.integers(2, 61))
    alphas = rng.uniform(0.0, 2.0 * np.pi, m)
    if i % 2 == 0:
        k = max(2, m // 2)
        alphas[:k] = np.clip(alphas[0] + 10.0 ** rng.uniform(-9, -3, k),
                             0.0, 2.0 * np.pi)
    phi = sensing_matrix(DelaySchedule(alphas), n)
    s = int(rng.integers(1, 5))
    x = np.zeros(n)
    x[rng.choice(n, s, replace=False)] = (rng.uniform(-1.0, 1.0, s) if i % 3
                                          else rng.dirichlet(np.ones(s)))
    scale = 10.0 ** rng.uniform(-6, 6)
    sigma = rng.choice([0.001, 0.01, 0.1, 0.5])
    y = scale * (phi.entries @ x + sigma * rng.standard_normal(m))
    eps = scale * sigma * rng.choice([0.3, 1.0, np.sqrt(m + 2 * np.sqrt(2 * m))])
    opts = BPOptions(residual_epsilon=float(eps), nonnegative=i % 4 >= 2)
    return phi, MeasurementVector(y), opts


@pytest.mark.parametrize("i, steps", [(22, 57), (100, 119)])
def test_walk_ends_where_lam_reaches_its_floor(i, steps):
    # Infeasible noisy data: the nearest fit misses y by 3.5 and 11.7
    # epsilon.  The walk ends, unconverged, once lam falls below TOL times
    # its start; without that exit it runs on to 68 and 223 steps.
    phi, y, opts = _clustered_noisy_problem(i)
    assert _nearest(phi.entries, y.values, opts.nonnegative) > 3 * opts.residual_epsilon
    res = basis_pursuit(phi, y, opts)
    assert not res.converged and res.iterations == steps
    assert np.isfinite(res.raw).all()
    assert not opts.nonnegative or (res.raw >= 0.0).all()


def test_walk_ends_where_it_falls_behind_the_path():
    # Infeasible noisy data (the nearest fit misses y by 4.7 epsilon) on
    # delays of which half lie within 1e-3 of one another: at step 153
    # rounding puts an entry's 0 more than TOL tau behind the walk, which
    # then ends unconverged.  Without that exit it runs on to step 275.
    phi, y, opts = _clustered_noisy_problem(32)
    assert _nearest(phi.entries, y.values, opts.nonnegative) > 4 * opts.residual_epsilon
    res = basis_pursuit(phi, y, opts)
    assert not res.converged and res.iterations == 153
    assert np.isfinite(res.raw).all()


def test_walk_survives_a_singular_gram_matrix():
    # Infeasible nonnegative data (NNLS misses y by 6.9 epsilon) on three of
    # six delays within 1e-3 of one another.  Whether the Gram matrix of
    # the active set is singular to the last bit depends on the BLAS
    # kernel: on some, `np.linalg.solve` raises at step 5, and the walk then
    # ends unconverged with z = 0; on others it ends a step later.  Either
    # way the solve must report itself unconverged and return a finite,
    # nonnegative raw instead of raising.
    phi, y, opts = _clustered_noisy_problem(14026)
    assert _nearest(phi.entries, y.values, True) > 6 * opts.residual_epsilon
    res = basis_pursuit(phi, y, opts)
    assert not res.converged and res.iterations <= 6
    assert np.isfinite(res.raw).all() and (res.raw >= 0.0).all()


def test_walk_ends_on_a_non_finite_fit(monkeypatch):
    # A Gram solve that LAPACK does not flag as singular may still return
    # non-finite values; the walk then ends unconverged with z = 0.
    phi = sensing_matrix(random_schedule(8, seed=10), 4)
    y = MeasurementVector(phi.entries @ np.array([0.0, 1.0, 0.0, 0.5]))
    monkeypatch.setattr(np.linalg, "solve",
                        lambda gram, b: np.full(np.shape(b), np.nan))
    res = basis_pursuit(phi, y)
    assert not res.converged and res.iterations == 1
    assert np.isfinite(res.raw).all() and not res.raw.any()


@pytest.mark.parametrize("i", [89, 374])
def test_noisy_verdict_uses_the_projected_dual_point(i):
    # Ill-conditioned noisy data, signed (89: M = N = 8) and nonnegative
    # (374: M = 5, N = 8), whose solve reaches the epsilon-ball at an
    # optimum.  The crude dual point r / ||Phi^T r||_inf of its residual
    # leaves a weak-duality gap above 1e-8 of ||z||_1 (1.7e-8 and 1.7e-4),
    # so a verdict taken from it called both unconverged.  The
    # same point moved by the least-norm change that makes it exact on the
    # support, Phi_S^T nu = sign(z_S), and scaled back to feasibility closes
    # the gap, so z is optimal, and the solve says so.
    phi, y, opts = _clustered_noisy_problem(i)
    a, yv, eps = phi.entries, y.values, opts.residual_epsilon
    res = basis_pursuit(phi, y, opts)
    assert res.converged and res.final_residual <= eps + opts.abs_tol
    z = res.raw
    l1 = np.abs(z).sum()
    r = yv - a @ z
    c = a.T @ r
    crude = r / (c.max() if opts.nonnegative else np.abs(c).max())
    assert l1 - (yv @ crude - eps * np.linalg.norm(crude)) > 1e-8 * l1
    on = z != 0
    cols = a[:, on]
    nu = crude + np.linalg.lstsq(cols.T, np.sign(z[on]) - cols.T @ crude,
                                 rcond=None)[0]
    c = a.T @ nu
    nu /= max(1.0, c.max() if opts.nonnegative else np.abs(c).max())
    assert l1 - (yv @ nu - eps * np.linalg.norm(nu)) <= 1e-8 * l1


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
    # six data sets.  Every one of them converges to the HiGHS optimum.
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
        assert res.converged
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
    # exactly, and noisy data cannot be fit at epsilon <= abs_tol.  The
    # solve says so once every column is in the active set, within
    # min(M, N) + 1 steps.
    truth = np.array([0.0, 0.6, 0.0, 0.4, 0.0])
    for sched in (random_schedule(12, seed=4), nyquist_schedule(16)):
        phi = sensing_matrix(sched, 5)
        res = basis_pursuit(phi, MeasurementVector(phi.entries @ truth))
        assert res.converged
        np.testing.assert_allclose(res.raw, truth, rtol=0.0, atol=1e-12)
        noisy = sample_interferogram(ModalSpectrum(truth), sched, 0.01, seed=5)
        res = basis_pursuit(phi, noisy)
        assert not res.converged
        assert res.iterations <= 5 + 1
        assert np.all(np.isfinite(res.raw))


def test_exact_bp_repeated_and_mirrored_delays():
    # A repeated delay and a delay mirrored about pi give dependent rows.
    # Noisy data then lie off the range of Phi, and the solve says so once
    # its active set spans that range: within rank(Phi) + 1 = 11 steps, not
    # after forcing in columns that lie in the range already.
    alphas = random_schedule(10, seed=6).alphas
    alphas = np.concatenate((alphas, [alphas[0], 2.0 * np.pi - alphas[1]]))
    phi = sensing_matrix(DelaySchedule(alphas), 16)
    truth = np.zeros(16)
    truth[[2, 9]] = [0.7, 0.3]
    y = phi.entries @ truth
    res = basis_pursuit(phi, MeasurementVector(y))
    assert res.converged
    np.testing.assert_allclose(res.raw, truth, rtol=0.0, atol=1e-12)
    y[-1] += 0.01
    res = basis_pursuit(phi, MeasurementVector(y))
    assert not res.converged
    assert res.iterations <= np.linalg.matrix_rank(phi.entries) + 1
    assert np.all(np.isfinite(res.raw))


def test_exact_bp_singular_normal_equations():
    # Two delays 3e-5 apart make Phi Phi^T singular in floating point; the
    # solver never forms it, and finds the three-sparse truth exactly.
    truth = np.zeros(8)
    truth[[2, 3, 7]] = [-0.45, -0.96, 0.14]
    for seed in (1, 26):
        alphas = random_schedule(8, seed=seed).alphas.copy()
        alphas[1] = alphas[0] + 3e-5
        phi = sensing_matrix(DelaySchedule(alphas), 8)
        res = basis_pursuit(phi, MeasurementVector(phi.entries @ truth))
        assert res.converged
        np.testing.assert_allclose(res.raw, truth, rtol=0.0, atol=1e-12)


def test_exact_bp_detects_infeasible_nonnegative_data():
    # the row of delay 0 is all ones, so x >= 0 cannot fit y_0 < 0
    alphas = np.concatenate(([0.0], random_schedule(7, seed=8).alphas))
    phi = sensing_matrix(DelaySchedule(alphas), 16)
    y = np.ones(8)
    y[0] = -1.0
    opts = BPOptions(nonnegative=True)
    res = basis_pursuit(phi, MeasurementVector(y), opts)
    assert not res.converged
    assert res.iterations < 50
    assert np.all(np.isfinite(res.raw)) and np.all(res.raw >= 0.0)


def test_exact_bp_stops_where_no_column_can_join():
    # Noisy data fitted exactly with M = 52 close to N, where sigma_min(Phi)
    # is 1.8e-9, below the pivot tolerance TOL: the exact fit has an l1 norm
    # of 3e7.  After 51 steps the fit's residual lies along that direction,
    # no column can join, and the solve ends unconverged.
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


def test_exact_bp_keeps_small_entries_that_fit_the_data():
    # Data at scale 1e6 with noise of 1e-4: the exact fit's noise entries
    # are below 1e-9 of its largest entry, and a refit without them misses y
    # by about 1e-4, far above epsilon + abs_tol.  The refit keeps them, and
    # each solve converges to the l1 of the optimum that HiGHS finds.
    phi = sensing_matrix(random_schedule(10, seed=3), 16)
    a = phi.entries
    for seed in range(5):
        rng = np.random.default_rng(seed)
        x = np.zeros(16)
        x[rng.choice(16, 2, replace=False)] = rng.uniform(0.1, 1.0, 2)
        y = 1e6 * (a @ x) + 1e-4 * rng.standard_normal(10)
        ref, _ = highs_bp(a, y)
        res = basis_pursuit(phi, MeasurementVector(y))
        assert ref is not None and res.converged
        assert abs(np.abs(res.raw).sum() - np.abs(ref).sum()) <= 2e-9 * np.abs(ref).sum()


def test_exact_bp_is_scale_free():
    # the data are divided by a power of two near max |y| before the solve,
    # so the solution scales with y; the absolute residual test fails only
    # where round-off alone exceeds abs_tol
    phi = sensing_matrix(random_schedule(10, seed=3), 16)
    truth = np.zeros(16)
    truth[[5, 12]] = [0.7, -0.2]
    for c, converged in ((1e-8, True), (1e6, True), (1e150, False)):
        res = basis_pursuit(phi, MeasurementVector(c * (phi.entries @ truth)))
        assert res.converged == converged
        np.testing.assert_allclose(res.raw / c, truth, rtol=0.0, atol=1e-12)


def test_noisy_bp_with_an_underflowing_radius_warns_nothing():
    # y near 1.7e308 with epsilon = 1: on y / 2^1024 the radius squared
    # underflows, so the epsilon stop's lam is 0, which must not meet an
    # infinite step as 0 * inf (numpy's "invalid value" warning)
    phi = sensing_matrix(DelaySchedule(np.array([0.0, 3.0])), 64)
    y = MeasurementVector(np.array([1.7e308, -1.7e308]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = basis_pursuit(phi, y, BPOptions(residual_epsilon=1.0))
    assert np.isfinite(res.raw).all() and res.final_residual <= 1.0


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


def _highs_refit(a, y, nonnegative):
    """The HiGHS optimum refit on its own support by `recovery._refit`
    (entries below 1e-9 of its largest are off the support), or None where
    HiGHS finds no optimum."""
    x, _ = highs_bp(a, y, nonnegative)
    if x is None:
        return None
    return recovery._refit(a, y, np.abs(x) > 1e-9 * np.abs(x).max())


def test_exact_bp_converged_needs_optimality(monkeypatch):
    # A refit that fits y is reported converged only once the dual bound
    # proves it optimal.  Two vectors fit y exactly: a refit on ten wrong
    # columns (ten equations, ten unknowns), with a larger l1 norm than the
    # one-sparse truth, and the truth itself.  The dual point 0, projected
    # onto each one's support, certifies only the truth, at any data scale:
    # at 1e-12 a certificate with an absolute tolerance of 1e-8 would pass
    # both.  epsilon = 0 keeps such data outside the epsilon-ball around 0.
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
        verdicts = [recovery._certified(a, y, z, np.zeros(10), False)
                    for z in (refit, truth)]
        assert verdicts == [False, True]
        res = basis_pursuit(phi, MeasurementVector(y), opts)
        assert res.converged and res.iterations == 1
        np.testing.assert_allclose(res.raw, truth, rtol=0.0, atol=1e-12 * c)
    # The solve certifies the truth's refit at step 1, so a cap of two steps
    # changes nothing; where no certificate passes, no solve converges.
    y = MeasurementVector(a @ one)
    full = basis_pursuit(phi, y)
    monkeypatch.setattr(BPOptions, "max_iters", 2)
    capped = basis_pursuit(phi, y)
    assert capped.converged and full.converged
    assert capped.iterations == full.iterations == 1
    np.testing.assert_array_equal(capped.raw, full.raw)
    monkeypatch.setattr(recovery, "_certified", lambda *args: False)
    assert not basis_pursuit(phi, y).converged


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
        phi = sensing_matrix(DelaySchedule(alphas), n)
        nonnegative = i % 5 == 0
        s = int(rng.integers(1, 5))
        x = np.zeros(n)
        x[rng.choice(n, s, replace=False)] = rng.uniform(0.1, 1.0, s) * (
            1.0 if nonnegative else rng.choice([-1.0, 1.0], s))
        sigma = 0.01 if i % 3 == 1 else 0.0
        y = MeasurementVector(phi.entries @ x + sigma * rng.standard_normal(m))
        yield phi, y, BPOptions(nonnegative=nonnegative)


def test_exact_bp_early_stop_matches_full_solve():
    # Ending a solve at its first certified refit gives the optimum that
    # HiGHS reaches by running to its own tolerance, refit on its support,
    # and the verdict that HiGHS gives: converged exactly where it finds an
    # optimum.  Noisy data (problems 1, 4, 7, ...) on dependent rows (M > N,
    # or a repeated or mirrored delay) that end unconverged say so within
    # min(M, N) + 1 steps.
    problems = list(_mixed_problems())
    converged = 0
    for i, (phi, y, opts) in enumerate(problems):
        res = basis_pursuit(phi, y, opts)
        ref = _highs_refit(phi.entries, y.values, opts.nonnegative)
        assert res.converged == (ref is not None)
        m, n = phi.shape
        if res.converged:
            converged += 1
            assert res.final_residual <= opts.residual_epsilon + opts.abs_tol
            gap = np.abs(res.raw - ref).sum()
            assert gap <= 1e-12 * np.abs(ref).sum()
        elif i % 3 == 1 and (m > n or i % 4 in (1, 2)):
            assert res.iterations <= min(m, n) + 1
    assert 0 < converged < len(problems)


def test_path_route_matches_highs():
    # The ascent, on the dual ray of the l1 path, certifies most exact
    # solves with one step per entry of their support, before any dual
    # simplex pivot.  Each of those has the raw of HiGHS, the linear
    # program's solver, within 1e-12 relative l1.  The problems include
    # nonnegative ones and repeated or mirrored delays.
    problems = list(_mixed_problems())
    results = [basis_pursuit(phi, y, opts) for phi, y, opts in problems]
    on_path = [res.converged and res.iterations == np.count_nonzero(res.raw)
               for res in results]
    for (phi, y, opts), res, path in zip(problems, results, on_path):
        if path:
            ref = _highs_refit(phi.entries, y.values, opts.nonnegative)
            gap = np.abs(res.raw - ref).sum()
            assert gap <= 1e-12 * np.abs(ref).sum()
    assert 0 < sum(on_path) < sum(res.converged for res in results)
    assert 2 * sum(on_path) > sum(res.converged for res in results)
    # Problems 1, 5, 9, ... have a repeated delay, 2, 6, 10, ... a mirrored
    # one, and every fifth is nonnegative.
    assert any(on_path[1::4]) and any(on_path[2::4]) and any(on_path[::5])


def test_path_falls_back_where_it_cannot_certify():
    # At M = 5 the l1 solution of three-sparse data has five entries: the
    # ascent reaches a basis of five columns without a certified refit, and
    # dual simplex pivots reach the optimum, HiGHS's.
    rng = np.random.default_rng(1)
    x = np.zeros(64)
    x[rng.choice(64, 3, replace=False)] = rng.uniform(0.1, 1.0, 3)
    phi = sensing_matrix(random_schedule(5, seed=1), 64)
    y = MeasurementVector(phi.entries @ x)
    res = basis_pursuit(phi, y)
    assert res.converged and res.iterations > 5
    assert np.count_nonzero(res.raw) == 5
    assert res.final_residual <= 1e-12
    ref = _highs_refit(phi.entries, y.values, False)
    assert np.abs(res.raw - ref).sum() <= 1e-12 * np.abs(ref).sum()
    # With more delays than modes, noisy data lie outside the range of Phi:
    # the fit on all five columns shows it, and the solve ends there.
    truth = ModalSpectrum(np.array([0.0, 0.6, 0.0, 0.4, 0.0]))
    sched = random_schedule(12, seed=4)
    phi = sensing_matrix(sched, 5)
    noisy = sample_interferogram(truth, sched, 0.01, seed=5)
    res = basis_pursuit(phi, noisy)
    assert not res.converged and res.iterations == 5


def test_path_certifies_only_with_the_dual_bound():
    # An exact fit on an active set is returned only once the dual bound
    # proves it optimal.  Five-sparse data whose l1 optimum has ten entries
    # and a smaller norm: the truth fits y exactly and keeps every sign, but
    # the dual point Phi_S G^-1 s on its support S is infeasible, and its
    # bound rejects the truth.  The solve finds the optimum instead.
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
    assert not recovery._certified(a, y, x, dual, False)
    res = basis_pursuit(phi, MeasurementVector(y))
    assert res.converged and res.iterations > 1
    assert np.abs(res.raw).sum() < np.abs(x).sum() - 0.5


def test_path_residual_gate_is_relative():
    # A refit is certified only where the least-squares fit on the active
    # set leaves a residual below TOL max |y| too, not only below epsilon +
    # abs_tol.  The first step of these two-sparse data fits one column; at
    # scale 1e-8 its residual is below abs_tol, and an absolute gate alone
    # would certify that wrong support.  At every scale the solve returns the
    # truth's support instead, and the truth wherever HiGHS does.
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
        res = basis_pursuit(phi, MeasurementVector(y), opts)
        assert res.converged and np.array_equal(res.raw != 0, truth != 0)
        ref, _ = highs_bp(a, y)
        if ref is not None and np.allclose(ref / c, truth, rtol=0.0, atol=1e-12):
            np.testing.assert_allclose(res.raw / c, truth, rtol=0.0, atol=1e-12)


def test_exact_bp_solve_budget(monkeypatch):
    # A well-conditioned s-sparse solve certified at step s makes at most
    # 2s + 3 linear solves: two per step, two for the refit and one for the
    # certificate.
    solve = np.linalg.solve
    calls = []

    def counting(*args):
        calls.append(None)
        return solve(*args)

    monkeypatch.setattr(np.linalg, "solve", counting)
    phi = sensing_matrix(random_schedule(30, seed=1), 64)
    for s in (1, 2, 3, 4):
        truth = np.zeros(64)
        truth[np.arange(s) * 15 + 3] = np.linspace(1.0, 0.4, s)
        calls.clear()
        res = basis_pursuit(phi, MeasurementVector(phi.entries @ truth))
        assert res.converged and res.iterations == s
        assert len(calls) <= 2 * s + 3


def test_bp_converged_implies_feasible():
    for i in range(20):
        rng = np.random.default_rng(300 + i)
        n = int(rng.integers(3, 10))
        m = int(rng.integers(2, n + 3))
        phi = sensing_matrix(random_schedule(m, seed=400 + i), n)
        y = MeasurementVector(rng.uniform(-1.0, 1.0, m))
        opts = BPOptions(residual_epsilon=0.05)
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
                        BPOptions(nonnegative=True))
    # sign-flipped data cannot be fit by nonnegative weights at tiny epsilon,
    # but the iterate must respect the constraint throughout
    assert np.all(res.raw >= 0.0)
    assert not res.converged


def test_bp_at_the_float_limit():
    # y and epsilon scaled by 2^1023 give the solution for y scaled by
    # 2^1023, bit for bit: the walk runs on y / 2^k either way.
    phi = sensing_matrix(random_schedule(20, seed=9), 64)
    x = np.zeros(64)
    x[[2, 9, 30]] = [0.7, 0.5, 0.3]
    y = phi.entries @ x
    assert 1.0 <= np.abs(y).max() < 2.0
    base = basis_pursuit(phi, MeasurementVector(y), BPOptions(residual_epsilon=0.05))
    big = basis_pursuit(phi, MeasurementVector(np.ldexp(y, 1023)),
                        BPOptions(residual_epsilon=np.ldexp(0.05, 1023)))
    np.testing.assert_array_equal(big.raw, np.ldexp(base.raw, 1023))
    assert (big.iterations, big.converged) == (base.iterations, True)
    # and data at the foot of the range lie inside the default epsilon-ball
    tiny = basis_pursuit(phi, MeasurementVector(np.ldexp(y, -1074)))
    assert tiny.converged and not tiny.raw.any()
    assert recovery._norm(np.array([1.7e308])) == 1.7e308
    assert recovery._norm(np.array([1.7e308, 1.7e308])) == np.inf
    # a solution past the float range is refused, not returned as inf
    near = DelaySchedule(np.array([0.1, 0.2, 0.3, 0.4]))
    with pytest.raises(ValueError, match="overflows the float range"):
        basis_pursuit(sensing_matrix(near, 4),
                      MeasurementVector(np.array([1.7e308, 0.0, 0.0, 0.0])))


def test_bp_report_snaps_small_entries():
    x = np.array([1.0, 3e-7])
    phi = sensing_matrix(random_schedule(8, seed=10), 2)
    y = MeasurementVector(phi.entries @ x)
    res = basis_pursuit(phi, y)
    assert abs(res.raw[1] - 3e-7) < 1e-12
    assert res.spectrum.weights[1] == 0.0
    assert abs(res.spectrum.weights[0] - 1.0) < 1e-12


def test_bp_noise_requires_matching_epsilon():
    truth = ModalSpectrum.from_entries(8, {3: 1.0}, normalized=True)
    sched = nyquist_schedule(128)
    phi = sensing_matrix(sched, 8)
    sigma = 0.05
    y = sample_interferogram(truth, sched, noise_sigma=sigma, seed=6)

    tight = basis_pursuit(phi, y)
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
    # the two settings that define the program are the only options; the
    # feasibility tolerance, step cap and report threshold are constants
    fields = {f.name for f in dataclasses.fields(BPOptions)}
    assert fields == {"residual_epsilon", "nonnegative"}
    assert (BPOptions.abs_tol, BPOptions.max_iters,
            BPOptions.zero_threshold) == (1e-8, 50000, 1e-6)


def test_bp_options_rejects_nan_epsilon():
    with pytest.raises(ValueError, match="residual_epsilon must be >= 0"):
        BPOptions(residual_epsilon=np.nan)


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
    # ||ref||^2 of 1e320 and 1e-340 is past the float range both ways; an
    # error ratio of 1e400 is past it too
    assert reconstruction_error([1e160], [2e160]) == 1.0
    assert reconstruction_error([1e-170], [2e-170]) == 1.0
    assert reconstruction_error([1.0, 0.0], [1.0, 1e200]) == np.inf
