"""Power-series kernels and the closed-form squared MMD against the uniform disk.

The kernels handled here have the form kappa(x, y) = sum_k a_k <x, y>^k with
nonnegative coefficients a_k.  For such kernels the squared maximum mean
discrepancy between a discrete sample and the uniform distribution on the
unit d-dimensional disk has a closed form: a Gram term plus a series whose
disk-side integrals reduce to the coefficients

    beta(d, k) = Gamma(d/2 + 1) * Gamma(k + 1/2) / (sqrt(pi) * Gamma(k + d/2 + 1))

and the radial moments E||X||^(2k) = d / (d + 2k) of the uniform disk.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gammaln

from .geometry import BLOCK_BYTES

GEOMETRIC = "geometric"
EXP_DOT = "expdot"

# Points feeding the MMD must sit inside the unit disk; this slack absorbs
# rescaling round-off.
NORM_TOLERANCE = 1e-6

# Squared-MMD values are mathematically nonnegative; float cancellation this
# far below zero is tolerated and clamped, anything worse is a genuine bug.
NEGATIVE_CLAMP = -1e-12
_NO_CLAMP_SQ_NORM = 1.0 - 1e-9

# Gram blocks hold at most about BLOCK_BYTES, and at most _SAMPLES_PER_BLOCK
# small samples at once (a few small Grams stay in cache); one large sample
# is cut into row blocks of at most _GRAM_CHUNK rows.
_SAMPLES_PER_BLOCK = 8
_GRAM_CHUNK = 512


@dataclass(frozen=True)
class PowerSeriesKernel:
    """Kernel kappa(x, y) = sum_k a_k <x, y>^k with nonnegative coefficients.

    kind "geometric": a_k = param^k, closed form 1 / (1 - param * t); needs
    0 < param < 1 so the series converges on [-1, 1].
    kind "expdot": a_k = param^k / k!, closed form exp(param * t); param > 0.

    ``order`` truncates the beta-series of the MMD formula at k = order
    (coefficient index 2 * order); the Gram term always uses the exact
    closed form.
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

    def fingerprint(self) -> tuple[str, float]:
        """Cache key: kind plus parameter rounded to 1e-6."""
        return (self.kind, round(self.param, 6))

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


def mmd_sq_stack(stack: np.ndarray, kernel: PowerSeriesKernel, weights=None) -> np.ndarray:
    """Squared MMD of each (n, d) sample of an (m, n, d) stack against the
    uniform d-disk: ``mmd_sq_vs_uniform_disk`` of every sample at once;
    ``weights`` (length n, shared by the stack) weight the points.

    The Gram term is summed over blocks of at most about BLOCK_BYTES: a few
    whole samples at a time when n is small, row blocks of one sample when it
    is large.  The disk series is a polynomial in each squared norm,
    evaluated by Horner's rule.
    """
    m, n, d = stack.shape
    sq_norms = np.einsum("mij,mij->mi", stack, stack)
    if np.any(sq_norms > (1.0 + NORM_TOLERANCE) ** 2):
        raise ValueError("points not rescaled to the unit disk")

    # With every squared norm at most _NO_CLAMP_SQ_NORM no inner product can
    # round out of [-1, 1], and the clamp would change nothing.
    needs_clamp = sq_norms.max() > _NO_CLAMP_SQ_NORM
    gram_bytes = 8 * n * n
    per_block = max(1, min(_SAMPLES_PER_BLOCK, BLOCK_BYTES // gram_bytes))
    rows = n if gram_bytes <= BLOCK_BYTES else min(_GRAM_CHUNK, max(1, BLOCK_BYTES // (8 * n)))
    # The closed form is 1 / (1 + scale * t) or exp(scale * t).
    scale = -kernel.param if kernel.kind == GEOMETRIC else kernel.param
    gram = np.zeros(m)
    for a in range(0, m, per_block):
        part = stack[a : a + per_block]
        # This loop dominates the cost of scoring and of a null build.  A
        # contiguous right operand keeps the stacked matmul on BLAS (a
        # transposed view runs several times slower); without the clamp it
        # also carries the scale, which saves a pass over every block.
        right = part.transpose(0, 2, 1).copy()
        if not needs_clamp:
            right *= scale
        for r in range(0, n, rows):
            left = part[:, r : r + rows]
            # For d = 1 the broadcast product is the Gram without a K = 1 matmul.
            block = left * right if d == 1 else left @ right
            if needs_clamp:
                np.clip(block, -1.0, 1.0, out=block)
                block *= scale
            if kernel.kind == GEOMETRIC:
                block += 1.0
                np.reciprocal(block, out=block)
            else:
                np.exp(block, out=block)
            if weights is None:
                gram[a : a + per_block] += block.sum(axis=(1, 2))
            else:
                gram[a : a + per_block] += (block @ weights) @ weights[r : r + rows]

    coeffs, disk_total = _disk_series(kernel, d)
    poly = np.full_like(sq_norms, coeffs[-1])
    for c in coeffs[-2::-1]:
        poly *= sq_norms
        poly += c
    if weights is None:
        gram /= n * n
        sample = poly.mean(axis=1)
    else:
        total = weights.sum()
        gram /= total * total
        sample = (poly @ weights) / total

    value = gram + (disk_total - 2.0 * sample)
    worst = value.min()
    if worst < NEGATIVE_CLAMP:
        raise RuntimeError(
            f"squared MMD evaluated to {worst}, below the negativity tolerance"
        )
    return np.maximum(value, 0.0)


def mmd_sq_vs_uniform_disk(points, kernel: PowerSeriesKernel, weights=None) -> float:
    """Squared MMD between the empirical measure of ``points`` and the uniform
    distribution on the unit d-disk, d = number of columns.

    With ``weights`` the empirical measure puts mass proportional to
    ``weights[i]`` on ``points[i]``; integer weights give the same value as
    repeating each point that many times.  Gram term uses the exact closed
    form of the kernel; the disk series is truncated at ``kernel.order``.
    Cost O(n^2 d + n * order).
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError("points must be a 2-D array (n, d)")
    n, d = pts.shape
    if n == 0:
        raise ValueError("empty sample")
    if d == 0:
        raise ValueError("points must have at least one coordinate")
    if weights is not None:
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (n,):
            raise ValueError("weights must have one entry per point")
        if not np.all(np.isfinite(weights)) or np.any(weights < 0) or weights.sum() <= 0:
            raise ValueError("weights must be finite, nonnegative and not all zero")
    return float(mmd_sq_stack(pts[None], kernel, weights)[0])


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
