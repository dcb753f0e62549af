"""Power-series kernels and the closed-form squared MMD against the uniform disk.

The kernels handled here have the form kappa(x, y) = sum_k a_k <x, y>^k with
nonnegative coefficients a_k.  For such kernels the squared maximum mean
discrepancy between a discrete sample and the uniform distribution on the
unit d-dimensional disk has a closed form: a Gram term plus a series whose
disk-side integrals reduce to the coefficients

    beta(d, k) = Gamma(d/2 + 1) * Gamma(k + 1/2) / (sqrt(pi) * Gamma(k + d/2 + 1))

and the radial moments E||X||^(2k) = d / (d + 2k) of the uniform disk.

At d = 1 the Gram term of a large sample is summed from power sums instead:
sum_ij kappa(x_i x_j) = sum_k a_k (sum_i x_i^k)^2, a sum of nonnegative
terms that costs O(nT) instead of O(n^2) (the Maclaurin view of
dot-product kernels; Kar & Karnick, AISTATS 2012).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gammaln

from .geometry import CACHE_BYTES

GEOMETRIC = "geometric"
EXP_DOT = "expdot"

# Points feeding the MMD must sit inside the unit disk; this slack absorbs
# rescaling round-off, and a point within it is moved onto the boundary.
NORM_TOLERANCE = 1e-6

# Squared-MMD values are mathematically nonnegative; float cancellation this
# far below zero is tolerated and clamped, anything worse is a genuine bug.
NEGATIVE_CLAMP = -1e-12

# The closed-form Gram is summed over its upper block-triangle, in row blocks
# of _GRAM_ROWS rows (all n rows when n is smaller, and fewer when one block
# of one sample would exceed CACHE_BYTES, from n > 4096), each against the
# columns from its first row on, in stacks of as many samples as keep a block
# within CACHE_BYTES.  So a block stays in cache, and the diagonal blocks
# compute only about 16 n entries below the diagonal.  The power sums run
# over blocks of about CACHE_BYTES too.
_GRAM_ROWS = 32

# A d = 1 sample takes the power-sum Gram once n >= _POWER_SUM_RATIO * T for a
# series of T terms: below that the T passes over the sample cost more than
# the n^2 closed-form entries.
_POWER_SUM_RATIO = 4


@dataclass(frozen=True)
class PowerSeriesKernel:
    """Kernel kappa(x, y) = sum_k a_k <x, y>^k with nonnegative coefficients.

    kind "geometric": a_k = param^k, closed form 1 / (1 - param * t); needs
    0 < param < 1 so the series converges on [-1, 1].
    kind "expdot": a_k = param^k / k!, closed form exp(param * t); param > 0.

    ``order`` truncates the beta-series of the MMD formula at k = order
    (coefficient index 2 * order); the Gram term equals the closed form to
    float64 rounding whatever ``order`` is.
    """

    kind: str = GEOMETRIC
    param: float = 0.5
    order: int = 32

    def __post_init__(self) -> None:
        if self.kind not in (GEOMETRIC, EXP_DOT):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.kind == GEOMETRIC and not 0.0 < self.param < 1.0:
            raise ValueError("geometric kernel needs param in (0, 1)")
        if self.kind == EXP_DOT and self.param <= 0.0:
            raise ValueError("expdot kernel needs param > 0")
        if self.order < 0:
            raise ValueError("truncation order must be nonnegative")

    def fingerprint(self) -> tuple[str, float, int]:
        """Null-table key: kind, parameter rounded to 1e-6, and order."""
        return (self.kind, round(self.param, 6), self.order)

    def closed_form(self, t):
        """Evaluate kappa on inner products t (scalar or array) in [-1, 1]."""
        if self.kind == GEOMETRIC:
            return 1.0 / (1.0 - self.param * np.asarray(t, dtype=float))
        return np.exp(self.param * np.asarray(t, dtype=float))

    def coefficients(self, k) -> np.ndarray:
        """a_k at the nonnegative indices k (an integer or an integer array)."""
        k = np.asarray(k)
        if self.kind == GEOMETRIC:
            return self.param**k
        return np.exp(k * np.log(self.param) - gammaln(k + 1.0))


def beta_coeff(d: int, k):
    """beta(d, k) via log-Gamma for an integer or an integer array k; equals 1
    at k = 0 and 1/(d+2) at k = 1."""
    if d < 1:
        raise ValueError("d must be >= 1")
    ks = np.asarray(k)
    if np.any(ks < 0):
        raise ValueError("k must be >= 0")
    out = np.exp(
        gammaln(d / 2.0 + 1.0)
        + gammaln(ks + 0.5)
        - gammaln(ks + d / 2.0 + 1.0)
        - 0.5 * np.log(np.pi)
    )
    return float(out) if out.ndim == 0 else out


@lru_cache(maxsize=256)
def _disk_series(kernel: PowerSeriesKernel, d: int) -> tuple[np.ndarray, float]:
    """The disk series of the MMD formula for one (kernel, d): coefficients
    c_j = a_{2j} beta(d, j), j = 0..order, and the disk-side total
    sum_j c_j E||X||^(2j) with E||X||^(2j) = d / (d + 2j)."""
    ks = np.arange(kernel.order + 1)
    coeffs = kernel.coefficients(2 * ks) * beta_coeff(d, ks)
    coeffs.flags.writeable = False
    return coeffs, float(np.sum(coeffs * d / (d + 2.0 * ks)))


def series_tail_bound(kernel: PowerSeriesKernel, terms: int) -> float:
    """Upper bound on |sum_{k >= terms} a_k t^k| over t in [-1, 1]: what the
    kernel's power series drops when cut after its first ``terms`` terms."""
    if kernel.kind == GEOMETRIC:
        return kernel.param**terms / (1.0 - kernel.param)
    # a_(k+1) / a_k = param / (k + 1): a geometric bound once that is below 1.
    ratio = kernel.param / (terms + 1)
    if ratio >= 1.0:
        return math.inf
    return float(kernel.coefficients(terms)) / (1.0 - ratio)


@lru_cache(maxsize=256)
def series_terms(kernel: PowerSeriesKernel) -> int:
    """Fewest terms T of the kernel's power series whose dropped tail stays
    below eps/8 of the kernel's smallest value on [-1, 1], so that every
    entry of a power-sum Gram equals the closed form to rounding."""
    target = np.finfo(float).eps / 8.0 * float(kernel.closed_form(-1.0))
    if kernel.kind == GEOMETRIC:
        # param^T / (1 - param) <= target, solved for T: no loop up to T.
        param = kernel.param
        terms = max(0, math.ceil(math.log(target * (1.0 - param)) / math.log(param)))
    else:
        terms = math.floor(kernel.param)
    # Settle the rounding of the logarithms (and walk expdot up to T).
    while series_tail_bound(kernel, terms) > target:
        terms += 1
    while terms > 0 and series_tail_bound(kernel, terms - 1) <= target:
        terms -= 1
    return terms


@lru_cache(maxsize=256)
def _series_coefficients(kernel: PowerSeriesKernel) -> np.ndarray:
    """a_0 .. a_(T-1) for the T = ``series_terms`` terms of the power sums."""
    coeffs = kernel.coefficients(np.arange(series_terms(kernel)))
    coeffs.flags.writeable = False
    return coeffs


def _power_sum_gram(x: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """sum_ij kappa(x_i x_j) for each row of x (m, n), entries in [-1, 1], as
    sum_k a_k S_k^2 with the power sums S_k = sum_i x_i^k.

    Each row is summed on its own, so a row's value does not depend on m or
    on the blocks."""
    m, n = x.shape
    sums = np.empty((m, coeffs.size))
    per_block = max(1, CACHE_BYTES // (8 * n))
    for a in range(0, m, per_block):
        part = x[a : a + per_block]
        power = np.ones_like(part)
        sums[a : a + per_block, 0] = power.sum(axis=1)
        for k in range(1, coeffs.size):
            power *= part
            sums[a : a + per_block, k] = power.sum(axis=1)
    sums *= sums
    sums *= coeffs
    return sums.sum(axis=1)


def _compensated_sum(parts: list[np.ndarray]) -> np.ndarray:
    """Elementwise sum of the arrays, with the rounding error of each
    addition kept by Knuth's TwoSum and added back at the end, so the sum is
    as if rounded about once: on null-table samples the closed-form Gram
    comes within 1 ulp of the correctly rounded sum, against up to 4 ulp for
    plain additions of its row blocks."""
    total, carry = parts[0], 0.0
    for part in parts[1:]:
        new = total + part
        back = new - total
        carry = carry + ((total - (new - back)) + (part - back))
        total = new
    return total + carry


def _closed_form_gram(stack: np.ndarray, kernel: PowerSeriesKernel) -> np.ndarray:
    """sum_ij kappa(<x_i, x_j>) for each sample of the stack, from the closed
    form of the entries on and above the diagonal.

    Row block [r, r + b) meets columns [r, n) only.  Its b x b diagonal block
    is symmetric and counts once; every entry right of it counts twice, for
    itself and its mirror image below the diagonal.  Every sample is summed
    on its own, in the same blocks whatever the stack, so its value does not
    depend on the stack around it."""
    m, n, d = stack.shape
    rows = max(1, min(n, _GRAM_ROWS, CACHE_BYTES // (8 * n)))
    per_block = max(1, CACHE_BYTES // (8 * rows * n))
    # The closed form is 1 / (1 + scale * t) or exp(scale * t).  The points
    # lie in the closed unit disk, so t <= 1 up to rounding, below the pole
    # of 1 / (1 - param * t) at t = 1 / param > 1.
    scale = -kernel.param if kernel.kind == GEOMETRIC else kernel.param
    gram = np.empty(m)
    for a in range(0, m, per_block):
        part = stack[a : a + per_block]
        # This loop dominates the cost of scoring and of a d >= 2 null
        # build.  A right operand with unit-stride rows keeps the stacked
        # matmul on BLAS (a transposed view runs several times slower), and
        # carrying the scale saves a pass over every block.
        right = part.transpose(0, 2, 1).copy()
        right *= scale
        totals = []
        for r in range(0, n, rows):
            left = part[:, r : r + rows]
            # For d = 1 the broadcast product is the Gram without a K = 1 matmul.
            block = left * right[:, :, r:] if d == 1 else left @ right[:, :, r:]
            if kernel.kind == GEOMETRIC:
                block += 1.0
                np.reciprocal(block, out=block)
            else:
                np.exp(block, out=block)
            b = left.shape[1]
            total = block.sum(axis=(1, 2))
            if b < n - r:  # entries right of the diagonal block count twice
                total *= 2.0
                total -= block[:, :, :b].sum(axis=(1, 2))
            totals.append(total)
        gram[a : a + per_block] = _compensated_sum(totals)
    return gram


def mmd_sq_stack(stack: np.ndarray, kernel: PowerSeriesKernel) -> np.ndarray:
    """Squared MMD of each (n, d) sample of an (m, n, d) stack against the
    uniform d-disk: ``mmd_sq_vs_uniform_disk`` of every sample at once.  A
    sample's value does not depend on the other samples of the stack.

    The Gram term equals the closed form to float64 rounding.  At d = 1 with
    n >= 4T (T = ``series_terms(kernel)``, 25 for expdot(2), 57 for
    geometric(0.5)) it is summed from T power sums of each sample, at cost
    O(nT); otherwise from the closed form of the entries on and above the
    diagonal, in cache-sized row blocks (about n^2 / 2 + 16 n entries), at
    cost O(n^2 d).
    The disk series is a polynomial in each squared norm, evaluated by
    Horner's rule.  A point outside the disk by at most NORM_TOLERANCE is
    scored as its projection onto the boundary.
    """
    m, n, d = stack.shape
    sq_norms = np.einsum("mij,mij->mi", stack, stack)
    peak = sq_norms.max()
    if peak > (1.0 + NORM_TOLERANCE) ** 2:
        raise ValueError("points not rescaled to the unit disk")
    # A point outside the disk by at most the tolerance is moved onto its
    # boundary once, so that both Gram paths and the disk series score the
    # same sample.  At d = 1 this gives x = +-1 exactly (sqrt(x * x) = |x|
    # in binary floating point), so |x_i x_j| <= 1 and the power sums' tail
    # bound holds.
    if peak > 1.0:
        stack = stack / np.sqrt(np.maximum(sq_norms, 1.0))[:, :, None]
        sq_norms = np.minimum(sq_norms, 1.0)

    if d == 1 and n >= _POWER_SUM_RATIO * series_terms(kernel):
        gram = _power_sum_gram(stack[:, :, 0], _series_coefficients(kernel))
    else:
        gram = _closed_form_gram(stack, kernel)

    coeffs, disk_total = _disk_series(kernel, d)
    poly = np.full_like(sq_norms, coeffs[-1])
    for c in coeffs[-2::-1]:
        poly *= sq_norms
        poly += c
    gram /= n * n
    value = gram + (disk_total - 2.0 * poly.mean(axis=1))
    worst = value.min()
    if worst < NEGATIVE_CLAMP:
        raise RuntimeError(
            f"squared MMD evaluated to {worst}, below the negativity tolerance"
        )
    return np.maximum(value, 0.0)


def mmd_sq_vs_uniform_disk(points, kernel: PowerSeriesKernel) -> float:
    """Squared MMD between the empirical measure of ``points`` and the uniform
    distribution on the unit d-disk, d = number of columns.

    The Gram term equals the closed form of the kernel to float64 rounding;
    the disk series is truncated at ``kernel.order``.  Cost
    O(n^2 d + n * order), or O(n * (T + order)) for a large one-dimensional
    sample (see ``mmd_sq_stack``).
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError("points must be a 2-D array (n, d)")
    n, d = pts.shape
    if n == 0:
        raise ValueError("empty sample")
    if d == 0:
        raise ValueError("points must have at least one coordinate")
    return float(mmd_sq_stack(pts[None], kernel)[0])


def expected_mmd_sq(kernel: PowerSeriesKernel, d: int, n: int) -> float:
    """Expected squared MMD of an n-sample drawn from the uniform d-disk.

    Equals (E kappa(X, X) - E kappa(X, Y)) / n with both expectations over the
    uniform disk, evaluated by the same truncated series as the MMD formula.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    _, e_cross = _disk_series(kernel, d)
    k_all = np.arange(2 * kernel.order + 1)
    e_self = float(np.sum(kernel.coefficients(k_all) * d / (d + 2.0 * k_all)))
    return (e_self - e_cross) / n
