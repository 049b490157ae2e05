"""Invariants of the sensing model, the field-level interferogram, the eta
kernel and the config parser over many inputs.

Hypothesis draws the inputs.  It is derandomized and keeps no example
database, so every run checks the same cases.
"""
import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import nnls

from compint.cli import _GLOBALS, _SCHEMAS, ConfigError, parse_config
from compint.diagnostics import _eta_block, eta
from compint.modes import (BasisKind, ComplexModalField, ModeBasis,
                           default_grid, field_interferogram, mode_table,
                           synthesize)
from compint.recovery import BPOptions, _join_ratios, basis_pursuit, ft_recover
from compint.sensing import (DelaySchedule, MeasurementVector, ModalSpectrum,
                             ScheduleKind, analytic_interferogram,
                             nyquist_schedule, random_schedule,
                             sample_interferogram, sensing_matrix)

from oracles import synthesize_reference

_PROPERTY = settings(derandomize=True, database=None, deadline=None,
                     max_examples=30)

# A solve that does not converge stops here, after about 60 ms at N = 64.
_CAP = 2000

_MAX_COUNT = int(np.iinfo(np.intp).max)


def _rel_diff(value, reference):
    return np.linalg.norm(value - reference) / np.linalg.norm(reference)


def _weights(draw, n, max_support):
    """A length-n x >= 0 with 1..max_support entries in [0.05, 1]."""
    support = draw(st.lists(st.integers(0, n - 1), min_size=1,
                            max_size=max_support, unique=True))
    x = np.zeros(n)
    x[support] = draw(st.lists(st.floats(0.05, 1.0), min_size=len(support),
                               max_size=len(support)))
    return x


@st.composite
def _sparse_problems(draw):
    """(Phi, x): N <= 64 modes, M <= 50 random delays, at most 4 nonzeros."""
    n = draw(st.integers(4, 64))
    schedule = random_schedule(draw(st.integers(3, 50)),
                               draw(st.integers(0, 2 ** 32 - 1)))
    return sensing_matrix(schedule, n), _weights(draw, n, 4)


@st.composite
def _nyquist_problems(draw):
    """(schedule, x): an even grid of M >= 2N delays, N <= 32, any x >= 0."""
    n = draw(st.integers(1, 32))
    schedule = nyquist_schedule(draw(st.integers(2 * n, 2 * n + 16)))
    return schedule, _weights(draw, n, n)


@_PROPERTY
@given(_sparse_problems(), st.floats(0.01, 100.0))
def test_bp_scale_equivariance(problem, c):
    # x solves the program for (y, eps) exactly when c x solves it for
    # (c y, c eps); the stopping rule is not scaled, hence the tolerance
    phi, x = problem
    y = phi.entries @ x
    eps = BPOptions().residual_epsilon
    base = basis_pursuit(phi, MeasurementVector(y), BPOptions(max_iters=_CAP))
    scaled = basis_pursuit(phi, MeasurementVector(c * y),
                           BPOptions(residual_epsilon=c * eps, max_iters=_CAP))
    if base.converged and scaled.converged:
        assert _rel_diff(scaled.raw, c * base.raw) <= 1e-5


@_PROPERTY
@given(_sparse_problems(), st.data(), st.sampled_from([1e-9, 0.05]))
def test_bp_row_permutation_invariance(problem, data, eps):
    # both routes: the exact solver at 1e-9 and the homotopy at 0.05
    phi, x = problem
    perm = np.array(data.draw(st.permutations(range(phi.shape[0]))))
    y = phi.entries @ x
    shuffled = DelaySchedule(phi.schedule.alphas[perm], ScheduleKind.EXTERNAL)
    opts = BPOptions(residual_epsilon=eps, max_iters=_CAP)
    res = basis_pursuit(phi, MeasurementVector(y), opts)
    res_shuffled = basis_pursuit(sensing_matrix(shuffled, len(x)),
                                 MeasurementVector(y[perm]), opts)
    assert res_shuffled.converged == res.converged
    if res.raw.any():
        assert _rel_diff(res_shuffled.raw, res.raw) <= 1e-9
    else:  # data within epsilon of 0
        assert not res_shuffled.raw.any()


@_PROPERTY
@given(_sparse_problems(), st.data(), st.booleans())
def test_bp_dependent_row_invariance(problem, data, mirrored):
    # a repeated delay, or one mirrored to 2 pi - alpha, adds a copy of a row
    # of Phi and of its datum, which leaves the program as it was
    phi, x = problem
    alphas = phi.schedule.alphas
    alpha = alphas[data.draw(st.integers(0, len(alphas) - 1))]
    extra = 2.0 * np.pi - alpha if mirrored else alpha
    doubled = sensing_matrix(
        DelaySchedule(np.append(alphas, extra), ScheduleKind.EXTERNAL), len(x))
    opts = BPOptions(max_iters=_CAP)
    res = basis_pursuit(phi, MeasurementVector(phi.entries @ x), opts)
    res_doubled = basis_pursuit(doubled, MeasurementVector(doubled.entries @ x),
                                opts)
    assert res_doubled.converged == res.converged
    l1 = np.abs(res.raw).sum()
    assert abs(np.abs(res_doubled.raw).sum() - l1) <= 1e-8 * l1


@_PROPERTY
@given(_sparse_problems(), st.sampled_from([0.0, 0.01]),
       st.sampled_from([1e-9, 0.05]), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
def test_converged_bp_is_feasible(problem, sigma, eps, nonnegative, seed):
    phi, x = problem
    y = sample_interferogram(ModalSpectrum(x), phi.schedule, sigma, seed)
    opts = BPOptions(residual_epsilon=eps, nonnegative=nonnegative,
                     max_iters=_CAP)
    res = basis_pursuit(phi, y, opts)
    if res.converged:
        assert np.linalg.norm(phi.entries @ res.raw - y.values) <= eps + opts.abs_tol


@_PROPERTY
@given(_sparse_problems(), st.sampled_from([0.003, 0.01, 0.03]), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
def test_homotopy_is_optimal_by_weak_duality(problem, sigma, nonnegative, seed):
    # At a noise-matched epsilon, nu = r / ||Phi^T r||_inf (r / max Phi^T r
    # under `nonnegative`) is dual feasible for the residual r of the
    # returned z, and y^T nu - epsilon ||nu|| bounds the l1 norm of every x
    # with ||Phi x - y|| <= epsilon from below.  A converged solve closes
    # that gap to 1e-8 relative; z = 0 is optimal where ||y|| <= epsilon.
    # An unconverged one is infeasible: no x (x >= 0 under `nonnegative`)
    # comes within epsilon of y.
    phi, x = problem
    a, m = phi.entries, phi.shape[0]
    eps = sigma * np.sqrt(m + 2 * np.sqrt(2 * m))
    y = sample_interferogram(ModalSpectrum(x), phi.schedule, sigma, seed).values
    res = basis_pursuit(phi, MeasurementVector(y),
                        BPOptions(residual_epsilon=eps, nonnegative=nonnegative,
                                  max_iters=_CAP))
    if not res.converged:
        if nonnegative:
            nearest = nnls(a, y)[1]
        else:
            nearest = np.linalg.norm(a @ np.linalg.lstsq(a, y, rcond=None)[0] - y)
        assert nearest > eps
        return
    assert not nonnegative or np.all(res.raw >= 0.0)
    l1 = np.abs(res.raw).sum()
    if l1 == 0.0:
        assert np.linalg.norm(y) <= eps
        return
    r = y - a @ res.raw
    c = a.T @ r
    nu = r / (c.max() if nonnegative else np.abs(c).max())
    assert l1 - (y @ nu - eps * np.linalg.norm(nu)) <= 1e-8 * l1


@_PROPERTY
@given(_sparse_problems(), st.sampled_from([0.0, 0.01]), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
def test_exact_bp_raw_is_finite(problem, sigma, nonnegative, seed):
    # noisy data are often infeasible at the default epsilon; the solver
    # must still return a finite raw, nonnegative under `nonnegative`
    phi, x = problem
    y = sample_interferogram(ModalSpectrum(x), phi.schedule, sigma, seed)
    res = basis_pursuit(phi, y, BPOptions(nonnegative=nonnegative))
    assert np.all(np.isfinite(res.raw))
    assert not nonnegative or np.all(res.raw >= 0.0)


# Values that stress the ratio test: bounds at and one ulp either side of
# +-1, whose gaps rounding leaves at or below 0, signed zeros, and rates at
# and near a floor of 1e-3.
_ONE_UP, _ONE_DOWN = np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0)
_BOUNDS = [1.0, -1.0, _ONE_UP, -_ONE_UP, _ONE_DOWN, -_ONE_DOWN, 0.0, -0.0, 0.5]
_RATES = [0.0, -0.0, 1e-3, -1e-3, np.nextafter(1e-3, 1.0), -np.nextafter(1e-3, 1.0),
          0.25, -0.25, 1.0, -1.0]


@st.composite
def _ratio_tests(draw):
    """(c, v, floor, nonnegative) for `_join_ratios`, drawn from small pools
    so that equal ratios recur."""
    n = draw(st.integers(1, 24))
    finite = st.builds(np.copysign, st.floats(1e-6, 3.0), st.sampled_from([1.0, -1.0]))
    c_pool = draw(st.lists(st.one_of(st.sampled_from(_BOUNDS), finite),
                           min_size=1, max_size=6))
    v_pool = draw(st.lists(st.one_of(st.sampled_from(_RATES), finite),
                           min_size=1, max_size=6))
    c = np.array(draw(st.lists(st.sampled_from(c_pool), min_size=n, max_size=n)))
    v = np.array(draw(st.lists(st.sampled_from(v_pool), min_size=n, max_size=n)))
    floor = np.array(draw(st.lists(st.sampled_from([0.0, 1e-3]),
                                   min_size=n, max_size=n)))
    return c, v, floor, draw(st.booleans())


def _one_sided(gap, rate):
    """gap / rate, a gap below 0 read as 0, where rate > 0; inf elsewhere."""
    return max(gap, 0.0) / rate if rate > 0 else np.inf


@settings(_PROPERTY, max_examples=300)
@given(_ratio_tests())
def test_join_ratios_match_two_sided_ratio_test(problem):
    # The one-pass ratio test equals, to the bit, the smaller of the two
    # one-sided ones, taken entry by entry after rates at or below the floor
    # are set to 0; the entering column is the same, ties included; and
    # sign(v_j) is the side whose ratio it is.
    c, v, floor, nonnegative = problem
    clipped = [0.0 if abs(rate) <= bound else rate for rate, bound in zip(v, floor)]
    up = np.array([_one_sided(1.0 - cj, vj) for cj, vj in zip(c, clipped)])
    down = np.array([_one_sided(1.0 + cj, -vj) for cj, vj in zip(c, clipped)])
    expected = up if nonnegative else np.minimum(up, down)
    join = _join_ratios(c, v.copy(), floor, nonnegative)
    assert join.tobytes() == expected.tobytes()
    assert np.argmin(join) == np.argmin(expected)
    finite = expected < np.inf
    np.testing.assert_array_equal((v > 0)[finite], (expected == up)[finite])


@_PROPERTY
@given(_nyquist_problems())
def test_ft_equals_bp_on_nyquist_data(problem):
    # with M >= 2N even delays Phi has full column rank, so x is the only
    # feasible point of the noiseless program
    schedule, x = problem
    phi = sensing_matrix(schedule, len(x))
    y = MeasurementVector(phi.entries @ x)
    ft = ft_recover(y, schedule, len(x))
    bp = basis_pursuit(phi, y)
    assert bp.converged
    assert _rel_diff(bp.raw, ft.raw) <= 1e-6


@st.composite
def _fields(draw, normalized=False):
    """A field of N <= 16 modes in either basis, with complex, purely real
    or purely imaginary coefficients of power at least 1e-6."""
    n = draw(st.integers(1, 16))
    basis = ModeBasis(draw(st.sampled_from(list(BasisKind))), n)
    parts = st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)
    shape = draw(st.sampled_from(["complex", "real", "imaginary"]))
    c = np.zeros(n, complex)
    if shape != "imaginary":
        c.real = draw(parts)
    if shape != "real":
        c.imag = draw(parts)
    power = np.vdot(c, c).real
    assume(power >= 1e-6)
    if normalized:
        c /= np.sqrt(power)
    return ComplexModalField(basis, c, normalized=normalized)


_ALPHAS = st.floats(0.0, 2.0 * np.pi)


@_PROPERTY
@given(_fields())
def test_field_interferogram_is_two_at_zero_delay(field):
    assert field_interferogram(field, 0.0) == 2.0


@_PROPERTY
@given(_fields(), _ALPHAS)
def test_field_interferogram_mirror_and_period(field, alpha):
    # P depends on alpha only through cos(n alpha)
    p = field_interferogram(field, alpha)
    assert abs(field_interferogram(field, 2.0 * np.pi - alpha) - p) <= 1e-12
    assert abs(field_interferogram(field, alpha + 2.0 * np.pi) - p) <= 1e-12


@_PROPERTY
@given(_fields(normalized=True), _ALPHAS)
def test_field_interferogram_matches_analytic(field, alpha):
    x = ModalSpectrum(field.mode_weights())
    assert abs(field_interferogram(field, alpha)
               - analytic_interferogram(x, alpha)) <= 1e-9


@_PROPERTY
@given(_fields())
def test_synthesize_matches_complex_product(field):
    grid = default_grid(field.basis)
    got = synthesize(field, grid)
    ref = synthesize_reference(mode_table(field.basis, grid), field.coeffs)
    assert got.dtype == complex
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@st.composite
def _eta_rows(draw):
    """(Phi, supports, values): N <= 16 modes and M <= 20 delays, drawn from
    a pool so that some repeat, with 1..8 rows of s distinct indices and
    values of magnitude 0.1..10 and either sign.  M < s or a repeated delay
    leaves Phi rank-deficient."""
    n = draw(st.integers(1, 16))
    s = draw(st.integers(1, n))
    pool = draw(st.lists(_ALPHAS, min_size=1, max_size=20))
    alphas = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=20))
    phi = sensing_matrix(DelaySchedule(np.array(alphas), ScheduleKind.EXTERNAL), n)
    rows = draw(st.integers(1, 8))
    supports = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=s,
                                      max_size=s, unique=True),
                             min_size=rows, max_size=rows))
    values = draw(st.lists(st.floats(0.1, 10.0) | st.floats(-10.0, -0.1),
                           min_size=rows * s, max_size=rows * s))
    return phi, np.array(supports), np.reshape(values, (rows, s))


def _block_etas(phi, supports, values):
    """_eta_block as _eta_blocks calls it with the shared matrix."""
    gram = phi.entries.T @ phi.entries
    return _eta_block(gram, supports, values, 2.0 / phi.shape[0])


@_PROPERTY
@given(_eta_rows())
def test_eta_block_matches_eta(problem):
    phi, supports, values = problem
    got = _block_etas(phi, supports, values)
    for row, support, v in zip(got, supports, values):
        x = np.zeros(phi.shape[1])
        x[support] = v
        want = eta(phi, x)
        assert abs(row - want) <= 1e-12 * (1.0 + abs(want))


@_PROPERTY
@given(_eta_rows(), st.data())
def test_eta_block_support_order_invariance(problem, data):
    phi, supports, values = problem
    order = data.draw(st.permutations(range(supports.shape[1])))
    got = _block_etas(phi, supports, values)
    permuted = _block_etas(phi, supports[:, order], values[:, order])
    assert np.max(np.abs(permuted - got)) <= 1e-13


@_PROPERTY
@given(_eta_rows(), st.integers(-20, 20))
def test_eta_block_power_of_two_scale_invariance(problem, k):
    # every product and sum scales by an exact power of two
    phi, supports, values = problem
    got = _block_etas(phi, supports, values)
    scaled = _block_etas(phi, supports, values * 2.0 ** k)
    np.testing.assert_array_equal(scaled, got)


# Integers are drawn small, anywhere in np.intp's range, or past it.  Parsing
# allocates nothing sized by a count, and sweep's m_min..m_max range is bounded
# before it is expanded, so mid-sized counts must parse or be rejected quickly.
_INTEGERS = (st.integers(-1000, 1000) | st.integers(-_MAX_COUNT - 1, _MAX_COUNT)
             | st.integers(min_value=_MAX_COUNT + 1)
             | st.integers(max_value=-_MAX_COUNT - 2))
_SCALARS = (st.none() | st.booleans() | _INTEGERS | st.floats()
            | st.text(max_size=8)
            | st.from_regex(r"[0-9=,.e-]{1,12}", fullmatch=True))
# Scalars on their own as well, since st.recursive mostly draws containers.
_JSON = _SCALARS | st.recursive(
    _SCALARS,
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=4), children,
                                        max_size=4)),
    max_leaves=6)


@st.composite
def _configs(draw):
    """(command, {key: value}): one key of the command, any JSON value."""
    command = draw(st.sampled_from(sorted(_SCHEMAS)))
    key = draw(st.sampled_from(sorted({**_SCHEMAS[command], **_GLOBALS})))
    return command, {key: draw(_JSON)}


def _integers_in(value):
    if isinstance(value, dict):
        value = [*value, *value.values()]
    if isinstance(value, list):
        return [i for item in value for i in _integers_in(item)]
    if isinstance(value, int) and not isinstance(value, bool):
        return [value]
    return []


@settings(_PROPERTY, max_examples=200)
@given(_configs())
def test_parse_config_accepts_or_raises_config_error(config):
    command, overrides = config
    try:
        cfg = parse_config(command, overrides=overrides)
    except ConfigError:
        return
    assert all(abs(i) <= _MAX_COUNT for i in _integers_in(cfg.params))
