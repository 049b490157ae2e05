"""Empirical certification of the interferometric sensing ensemble.

Probes the properties that make random sub-Nyquist cosine sampling usable for
sparse recovery: the per-vector isometry defect eta(x), its distribution over
an ensemble of sparse vectors, the incoherence bound max |entry|^2 <= 1, and
the row second-moment matrix E[phi^T phi] = 0.5 I.  The restricted isometry
constant delta_s is the largest |eta| over all s-sparse vectors, so an
ensemble's max |eta| is only a lower bound on it, and a loose one: at M = 30,
N = 64, s = 4 and seed 3, 10^5 samples give max |eta| = 1.0785, while the
extreme eigenvalues of (2/M) Phi_S^T Phi_S over the same supports give
delta_4 >= 1.296.
"""
from __future__ import annotations

import math

import numpy as np

from ._rng import derive_seed, stream
from .modes import _TWO_PI, _frozen_value, _own
from .sensing import (SensingMatrix, _as_vector, _random_delays, random_schedule,
                      sensing_matrix)

# Fixed histogram layout: 101 uniform bins spanning [-1, 1].
_HIST_BINS = 101
_HIST_EDGES = np.linspace(-1.0, 1.0, _HIST_BINS + 1)

# Samples whose draws eta_ensemble makes and whose eta it computes at once.
# Part of the keying: block b draws all its rows from (seed, "eta-block", b),
# so changing it changes every sampled vector.
_ETA_BLOCK = 4096

# Rows whose harmonic powers isotropy_from_rows forms at once: at N = 64 a
# block's powers take about 0.75 MB, so they stay in cache for its product.
_ISOTROPY_BLOCK = 2048


@_frozen_value
class EtaEnsembleReport:
    """Histogram and summary statistics of eta over an s-sparse ensemble.

    Values outside [-1, 1] are clamped into the end bins and additionally
    counted in clamped_low / clamped_high.
    """

    bin_edges: np.ndarray
    counts: np.ndarray
    max_abs_eta: float
    mean_eta: float
    sample_count: int
    s: int
    m: int
    n_modes: int
    clamped_low: int
    clamped_high: int

    def __post_init__(self):
        edges = _own(self, "bin_edges")
        counts = _own(self, "counts", np.int64)
        if len(edges) != len(counts) + 1:
            raise ValueError("bin_edges must be one longer than counts")
        if int(counts.sum()) != self.sample_count:
            raise ValueError("histogram counts must sum to sample_count")
        if self.max_abs_eta < abs(self.mean_eta):
            raise ValueError("max_abs_eta cannot be below |mean_eta|")


@_frozen_value
class IsotropyReport:
    """Monte-Carlo estimate of the row second-moment matrix E[phi^T phi]."""

    estimate: np.ndarray
    max_offdiag_abs: float
    max_diag_dev: float
    rows_sampled: int

    def __post_init__(self):
        est = _own(self, "estimate")
        if est.ndim != 2 or est.shape[0] != est.shape[1]:
            raise ValueError("estimate must be a square matrix")
        if np.max(np.abs(est - est.T)) > 1e-12:
            raise ValueError("estimate must be symmetric (mean of phi^T phi)")


def eta(phi: SensingMatrix, x) -> float:
    """Isometry defect eta(x) = (2/M) ||Phi x||^2 / ||x||^2 - 1.

    x may be a ModalSpectrum or any (possibly signed) vector of length N.
    """
    v = _as_vector(x)
    norm2 = float(v @ v)
    if norm2 == 0.0:
        raise ValueError("eta is undefined for the zero vector")
    pv = phi.entries @ v
    return (2.0 / phi.shape[0]) * float(pv @ pv) / norm2 - 1.0


def _eta_block(gram: np.ndarray, supports: np.ndarray, values: np.ndarray,
               scale: float) -> np.ndarray:
    """eta of each row's vector, from the Gram matrix G = Phi^T Phi.

    G is symmetric, so ||Phi_S v||^2 = sum_a v_a^2 G[S_a, S_a]
    + 2 sum_{a<b} v_a v_b G[S_a, S_b] reads only the upper triangle of the
    support's block: s (s + 1) / 2 gathers of one entry per row, each a
    one-dimensional take from G's flat buffer at S_a N + S_b.  Gathering
    the whole rows x s block G[S_a, S] for each a instead reads every
    off-diagonal entry twice, through numpy's slower two-index fancy
    indexing: about 370 us per 4096 x 4 block against 160 us here (one
    x86 core).
    """
    n_modes = gram.shape[1]
    flat = gram.ravel()
    power = np.zeros(len(values))
    for a in range(supports.shape[1]):
        row = supports[:, a] * n_modes
        half = 0.5 * values[:, a] * flat.take(row + supports[:, a])
        for b in range(a + 1, supports.shape[1]):
            half += values[:, b] * flat.take(row + supports[:, b])
        power += values[:, a] * half
    return 2.0 * scale * power / np.einsum("ij,ij->i", values, values) - 1.0


def _floyd_supports(rng: np.random.Generator, n_modes: int, s: int,
                    rows: int) -> np.ndarray:
    """`rows` uniform size-s subsets of 0..N-1 by Floyd's algorithm (Bentley
    & Floyd 1987), run on all rows at once.

    Column a is drawn for j = N - s + a: t uniform on 0..j, or j itself where
    the row already holds t.
    """
    supports = np.empty((s, rows), dtype=np.intp)
    for a, j in enumerate(range(n_modes - s, n_modes)):
        t = rng.integers(0, j + 1, size=rows)
        taken = (supports[:a] == t).any(axis=0)
        supports[a] = np.where(taken, j, t)
    return supports.T


def _eta_redrawn(m: int, seed: int, start: int, supports: np.ndarray,
                 values: np.ndarray, scale: float) -> np.ndarray:
    """eta of each row's vector under its own matrix.

    Row k is sample start + k, whose schedule is random_schedule(m,
    derive_seed(seed, "eta-phi", start + k)); only its s support columns
    cos((S_a + 1) alpha) are formed, bit-identical to sensing_matrix's.
    """
    alphas = np.empty((len(values), m))
    for k in range(len(values)):
        alphas[k] = _random_delays(m, derive_seed(seed, "eta-phi", start + k))
    pv = np.zeros_like(alphas)
    for a in range(supports.shape[1]):
        pv += np.cos(alphas * (supports[:, a, None] + 1)) * values[:, a, None]
    return (scale * np.einsum("ij,ij->i", pv, pv)
            / np.einsum("ij,ij->i", values, values) - 1.0)


def _eta_blocks(m: int, n_modes: int, s: int, samples: int, seed: int,
                redraw_phi: bool):
    """Yield (supports, values, etas) of samples 0..samples-1, in order, in
    blocks of at most _ETA_BLOCK rows.

    Block b holds samples b * _ETA_BLOCK onward.  It draws all _ETA_BLOCK
    rows from the stream (seed, "eta-block", b), however many are used: the
    supports column by column (`_floyd_supports`), then the values as one
    _ETA_BLOCK x s array.  So sample i is a pure function of (seed, i), and
    a shorter run is a prefix of a longer one.  With the shared matrix the
    block's eta values come from `_eta_block`, else from `_eta_redrawn`.
    """
    scale = 2.0 / m
    if not redraw_phi:
        schedule = random_schedule(m, derive_seed(seed, "eta-phi"))
        entries = sensing_matrix(schedule, n_modes).entries
        gram = entries.T @ entries
    for block, start in enumerate(range(0, samples, _ETA_BLOCK)):
        count = min(_ETA_BLOCK, samples - start)
        rng = stream(seed, "eta-block", block)
        supports = _floyd_supports(rng, n_modes, s, _ETA_BLOCK)[:count]
        values = rng.standard_normal((_ETA_BLOCK, s))[:count]
        if redraw_phi:
            etas = _eta_redrawn(m, seed, start, supports, values, scale)
        else:
            etas = _eta_block(gram, supports, values, scale)
        yield supports, values, etas


def _eta_counts(etas: np.ndarray) -> np.ndarray:
    """Counts of etas, clamped into [-1, 1], in the bins of _HIST_EDGES.

    Given the bin count and range, np.histogram builds these same edges and
    checks each computed bin index against them, without sorting the values
    as it does for an edge array.
    """
    counts, _ = np.histogram(np.clip(etas, -1.0, 1.0), bins=_HIST_BINS,
                             range=(-1.0, 1.0))
    return counts


def eta_ensemble(m: int, n_modes: int, s: int, samples: int, seed: int,
                 redraw_phi: bool = False) -> EtaEnsembleReport:
    """Distribution of eta over `samples` random s-sparse signed vectors.

    Supports are uniform over size-s subsets of 1..N and the nonzero values
    standard Gaussian (eta is scale invariant, so the value distribution is
    immaterial).  One sensing matrix drawn from (seed, "eta-phi") is shared by
    all samples -- a typical realization -- unless redraw_phi, in which case
    sample i gets its own schedule from (seed, "eta-phi", i).  Samples are
    drawn a block at a time (`_eta_blocks`), each block from its own stream,
    so sample i is a pure function of (seed, i) and memory beyond the eta
    values does not grow with `samples`.
    """
    if not 1 <= s <= n_modes:
        raise ValueError(f"sparsity {s} outside 1..{n_modes}")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")

    etas = np.empty(samples)
    done = 0
    for *_, block in _eta_blocks(m, n_modes, s, samples, seed, redraw_phi):
        etas[done:done + len(block)] = block
        done += len(block)
    return EtaEnsembleReport(
        bin_edges=_HIST_EDGES,
        counts=_eta_counts(etas),
        max_abs_eta=float(np.max(np.abs(etas))),
        mean_eta=float(np.mean(etas)),
        sample_count=samples,
        s=s,
        m=m,
        n_modes=n_modes,
        clamped_low=int(np.count_nonzero(etas < -1.0)),
        clamped_high=int(np.count_nonzero(etas > 1.0)),
    )


def incoherence(phi: SensingMatrix) -> float:
    """Largest squared entry of Phi; at most 1 for cosine rows."""
    return float(np.max(phi.entries ** 2))


def _isotropy_from_blocks(blocks, n_modes: int, rows: int) -> np.ndarray:
    """isotropy_from_rows over `rows` delays that arrive in blocks.

    Each harmonic is split as h = B q + r with B = isqrt(2N) + 1, so
    e^{iha} = e^{iBqa} e^{ira} for r < B and q <= 2N / B.  Per block the B
    low and Q high powers are running products, B + Q complex multiplies per
    row, and their products summed over rows are one Q x B matrix product
    whose entry (q, r) is harmonic B q + r.  Only its real part is needed:
    the real product of the conjugated high powers and the low ones, each
    viewed as interleaved (re, im) pairs, which sums cos(Bqa) cos(ra) -
    sin(Bqa) sin(ra) over the rows.  The powers go into one buffer that every
    block reuses: allocated per block, their 0.75 MB could be handed back to
    the kernel at each free and faulted in again, about 3700 page faults and
    a third of the time of 10^5 rows.
    """
    top = 2 * n_modes
    low_count = math.isqrt(top) + 1
    high_count = top // low_count + 1
    sums = np.zeros((high_count, low_count))
    powers = np.empty((low_count + high_count, _ISOTROPY_BLOCK), dtype=complex)
    for block in blocks:
        step = np.exp(1j * block)
        low = _powers(step, powers[:low_count, :len(block)])
        high = _powers(np.conj(low[-1] * step), powers[low_count:, :len(block)])
        sums += high.view(float) @ low.view(float).T
    means = sums.ravel()[:top + 1] / rows
    j = np.arange(1, n_modes + 1)[:, None]
    return 0.5 * (means[np.abs(j - j.T)] + means[j + j.T])


def _powers(step: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill the rows of out with step**0, step**1, ..., by running products."""
    out[0] = 1.0
    for k in range(1, len(out)):
        np.multiply(out[k - 1], step, out=out[k])
    return out


def isotropy_from_rows(alphas: np.ndarray, n_modes: int) -> np.ndarray:
    """Average of phi^T phi over the rows phi = (cos a, cos 2a, ..., cos Na).

    cos(ja) cos(ka) = [cos((j-k)a) + cos((j+k)a)] / 2, so entry (j, k) is
    (c[|j-k|] + c[j+k]) / 2 in the harmonic means c[h] = mean cos(ha),
    h = 0..2N, and the result is symmetric by construction.  The sums behind
    c are taken over blocks of _ISOTROPY_BLOCK rows, with about 2 sqrt(2N)
    complex multiplies per row and one small matrix product per block, made
    while the block's powers are still in cache (`_isotropy_from_blocks`).
    """
    alphas = np.asarray(alphas, dtype=float)
    blocks = (alphas[start:start + _ISOTROPY_BLOCK]
              for start in range(0, len(alphas), _ISOTROPY_BLOCK))
    return _isotropy_from_blocks(blocks, n_modes, len(alphas))


def isotropy_estimate(n_modes: int, rows: int, seed: int) -> IsotropyReport:
    """Monte-Carlo check of E[phi^T phi] = 0.5 I over i.i.d. uniform delays.

    The delays come from the stream (seed, "isotropy-rows"), drawn and used
    _ISOTROPY_BLOCK at a time, so memory does not grow with `rows`; the
    values are those of one draw of all `rows`.
    """
    if rows < 1:
        raise ValueError(f"rows must be >= 1, got {rows}")
    if n_modes < 1:
        raise ValueError(f"n_modes must be >= 1, got {n_modes}")
    rng = stream(seed, "isotropy-rows")
    blocks = (rng.uniform(0.0, _TWO_PI, min(_ISOTROPY_BLOCK, rows - start))
              for start in range(0, rows, _ISOTROPY_BLOCK))
    estimate = _isotropy_from_blocks(blocks, n_modes, rows)
    off = estimate - np.diag(np.diag(estimate))
    return IsotropyReport(
        estimate=estimate,
        max_offdiag_abs=float(np.max(np.abs(off))),
        max_diag_dev=float(np.max(np.abs(np.diag(estimate) - 0.5))),
        rows_sampled=rows,
    )
