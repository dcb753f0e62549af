"""Synthetic stratified-space generators with exact distance-to-singularity.

Each generator samples its strata uniformly (area-weighted across components)
and reports, per point, the exact ambient distance from the noiseless sample
position to the singular locus of the shape (+inf for manifolds).  Additive
uniform coordinate noise is applied after the distances are computed, so the
recorded distances always refer to the clean geometry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_NOISE = 0.01


@dataclass(frozen=True)
class ShapeSpec:
    """Which shape to sample, how many points, noise amplitude, and seed.

    ``dim`` is the intrinsic dimension, 2 when None; a shape whose dimension
    is fixed (circle, two_circles, cone, pinch_torus) takes none."""

    shape: str
    n: int
    dim: int | None = None
    noise_amplitude: float = DEFAULT_NOISE
    seed: int = 0

    def __post_init__(self):
        if self.shape not in _SHAPES:
            raise ValueError(f"unknown shape {self.shape!r}")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.dim is not None and _SHAPES[self.shape][1] is not None:
            raise ValueError(f"{self.shape} has a fixed dimension and takes no dim")
        if self.dim is not None and self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.noise_amplitude < 0:
            raise ValueError("noise amplitude must be nonnegative")


@dataclass
class LabeledCloud:
    """Sampled coordinates plus the exact distance of each (noiseless) sample
    to the singular locus; +inf when the shape has none."""

    cloud: np.ndarray
    dist_to_singular: np.ndarray


def sample_uniform_ball(d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """n i.i.d. draws from the uniform distribution on the unit d-ball.

    Direction from normalized standard normals, radius U^(1/d): the (n, d)
    normals are drawn first, then the n uniforms.
    """
    if d < 1 or n < 1:
        raise ValueError("d and n must be >= 1")
    normals = rng.standard_normal((n, d))
    norms = np.linalg.norm(normals, axis=1)
    norms[norms == 0.0] = 1.0
    radii = rng.random(n) ** (1.0 / d)
    normals *= (radii / norms)[:, None]
    return normals


def _unit_sphere(d: int, n: int, rng) -> np.ndarray:
    """Uniform sample of the d-sphere in R^(d+1)."""
    g = rng.standard_normal((n, d + 1))
    norms = np.linalg.norm(g, axis=1)
    norms[norms == 0.0] = 1.0
    return g / norms[:, None]


def _gen_sphere(n: int, d: int, rng):
    pts = _unit_sphere(d, n, rng)
    return pts, np.full(n, np.inf)


def _two_spheres_dist(pts: np.ndarray) -> np.ndarray:
    # Intersection of unit spheres centered at 0 and e1: the (d-1)-sphere of
    # radius sqrt(3)/2 in the hyperplane x0 = 1/2.
    rest = np.linalg.norm(pts[:, 1:], axis=1)
    return np.sqrt((pts[:, 0] - 0.5) ** 2 + (rest - np.sqrt(3.0) / 2.0) ** 2)


def _gen_two_spheres(n: int, d: int, rng):
    which = rng.integers(0, 2, size=n)
    pts = _unit_sphere(d, n, rng)
    pts[:, 0] += which
    return pts, _two_spheres_dist(pts)


def _gen_solid_ball(n: int, d: int, rng):
    pts = sample_uniform_ball(d, n, rng)
    dist = np.abs(1.0 - np.linalg.norm(pts, axis=1))
    return pts, dist


def _gen_two_disks(n: int, d: int, rng):
    # Two 2d-disks in R^(3d): the first spans axes 0..2d-1, the second spans
    # axes d..3d-1, so they share the d axes in the middle.
    which = rng.integers(0, 2, size=n)
    u = sample_uniform_ball(2 * d, n, rng)
    pts = np.zeros((n, 3 * d))
    first = which == 0
    pts[first, : 2 * d] = u[first]
    pts[~first, d:] = u[~first]
    off_shared = np.where(first, np.linalg.norm(u[:, :d], axis=1),
                          np.linalg.norm(u[:, d:], axis=1))
    boundary = 1.0 - np.linalg.norm(u, axis=1)
    return pts, np.minimum(off_shared, boundary)


def _gen_cone(n: int, d: int, rng):
    # Double cone |z| = radius, truncated at |z| = 1; surface density in z is
    # proportional to |z|, hence |z| = sqrt(U).
    sign = 2 * rng.integers(0, 2, size=n) - 1
    h = np.sqrt(rng.random(n))
    theta = rng.uniform(0.0, 2.0 * np.pi, n)
    pts = np.column_stack((h * np.cos(theta), h * np.sin(theta), sign * h))
    return pts, np.linalg.norm(pts, axis=1)


_PINCH_MAJOR = 1.0
_PINCH_MINOR = 0.4


def _rejection_sample(n: int, propose, rng) -> np.ndarray:
    """The first n accepted of batches of max(2 * missing, 64) proposals:
    ``propose(m)`` draws m candidate points with their acceptance
    probabilities, then one uniform per candidate accepts it or not."""
    batches = []
    got = 0
    while got < n:
        m = max(2 * (n - got), 64)
        pts, accept = propose(m)
        keep = rng.random(m) < accept
        batches.append(pts[keep])
        got += int(keep.sum())
    return np.concatenate(batches)[:n]


def _gen_pinch_torus(n: int, d: int, rng):
    # Torus with tube radius a * sin(u/2), collapsing to the point (R, 0, 0)
    # at u = 0; rejection sampling against the exact area element.
    R, a = _PINCH_MAJOR, _PINCH_MINOR
    j_max = a * math.sqrt((R + a) ** 2 + (a / 2.0) ** 2)

    def propose(m):
        u = rng.uniform(0.0, 2.0 * np.pi, m)
        v = rng.uniform(0.0, 2.0 * np.pi, m)
        rho = a * np.sin(u / 2.0)
        drho = (a / 2.0) * np.cos(u / 2.0)
        ring = R + rho * np.cos(v)
        jac = rho * np.sqrt(ring**2 + drho**2)
        pts = np.column_stack((ring * np.cos(u), ring * np.sin(u), rho * np.sin(v)))
        return pts, jac / j_max

    pts = _rejection_sample(n, propose, rng)
    dist = np.linalg.norm(pts - np.array([R, 0.0, 0.0]), axis=1)
    return pts, dist


# Each shape's generator and its fixed intrinsic dimension, None where
# ShapeSpec.dim sets it.
_SHAPES = {
    "circle": (_gen_sphere, 1),
    "sphere": (_gen_sphere, None),
    "two_circles": (_gen_two_spheres, 1),
    "two_spheres": (_gen_two_spheres, None),
    "solid_ball": (_gen_solid_ball, None),
    "two_disks": (_gen_two_disks, None),
    "cone": (_gen_cone, 2),
    "pinch_torus": (_gen_pinch_torus, 2),
}


def generate(spec: ShapeSpec) -> LabeledCloud:
    """Sample the shape and compute exact distances to its singular locus."""
    rng = np.random.default_rng(spec.seed)
    gen, fixed_dim = _SHAPES[spec.shape]
    pts, dist = gen(spec.n, spec.dim or fixed_dim or 2, rng)
    if spec.noise_amplitude > 0:
        pts = pts + rng.uniform(
            -spec.noise_amplitude, spec.noise_amplitude, size=pts.shape
        )
    return LabeledCloud(pts, dist)


def ground_truth_labels(labeled: LabeledCloud, s: float) -> np.ndarray:
    """1 exactly for points within distance s of the singular locus."""
    if s <= 0:
        raise ValueError("s must be positive")
    return (labeled.dist_to_singular <= s).astype(int)


def scaled_experiment_params(
    d: int, r0: float, n0: int, alpha_growth: float
) -> tuple[float, int]:
    """Dimension-compensated radius r0^(1/d) and sample size round(n0 * alpha^d)."""
    if not 0.0 < r0 < 1.0:
        raise ValueError("r0 must be in (0, 1)")
    if n0 < 1 or alpha_growth <= 1.0:
        raise ValueError("need n0 >= 1 and alpha_growth > 1")
    return r0 ** (1.0 / d), int(round(n0 * alpha_growth**d))


# --- extra generators for the manifold-hypothesis benchmark ---------------


def _gen_ellipsoid(n: int, axes: np.ndarray, rng):
    # Area-uniform via rejection: mapping the unit sphere by diag(axes)
    # stretches area by a factor proportional to ||u / axes|| at u.
    w_max = float(np.max(1.0 / axes))

    def propose(m):
        u = _unit_sphere(axes.size - 1, m, rng)
        return u * axes, np.linalg.norm(u / axes, axis=1) / w_max

    return _rejection_sample(n, propose, rng), np.full(n, np.inf)


def _gen_torus(n: int, major: float, minor: float, rng):
    def propose(m):
        u = rng.uniform(0.0, 2.0 * np.pi, m)
        v = rng.uniform(0.0, 2.0 * np.pi, m)
        ring = major + minor * np.cos(v)
        pts = np.column_stack((ring * np.cos(u), ring * np.sin(u), minor * np.sin(v)))
        return pts, ring / (major + minor)

    return _rejection_sample(n, propose, rng), np.full(n, np.inf)


def _gen_sphere_product(n: int, r1: float, r2: float, rng):
    a = rng.uniform(0.0, 2.0 * np.pi, n)
    b = rng.uniform(0.0, 2.0 * np.pi, n)
    pts = np.column_stack(
        (r1 * np.cos(a), r1 * np.sin(a), r2 * np.cos(b), r2 * np.sin(b))
    )
    return pts, np.full(n, np.inf)


_CUBE_EDGES = [
    (i, j, si, sj)
    for i in range(3)
    for j in range(i + 1, 3)
    for si in (-0.5, 0.5)
    for sj in (-0.5, 0.5)
]


def _cube_edge_dist(pts: np.ndarray) -> np.ndarray:
    best = np.full(pts.shape[0], np.inf)
    for i, j, si, sj in _CUBE_EDGES:
        k = 3 - i - j
        along = np.clip(pts[:, k], -0.5, 0.5)
        d = np.sqrt(
            (pts[:, i] - si) ** 2 + (pts[:, j] - sj) ** 2 + (pts[:, k] - along) ** 2
        )
        best = np.minimum(best, d)
    return best


def _gen_hollow_cube(n: int, rng):
    # Unit cube surface; the 12 edges form the singular locus.
    face = rng.integers(0, 6, size=n)
    uv = rng.uniform(-0.5, 0.5, size=(n, 2))
    pts = np.empty((n, 3))
    for f in range(6):
        rows = face == f
        axis = f // 2
        others = [a for a in range(3) if a != axis]
        pts[rows, axis] = 0.5 if f % 2 == 0 else -0.5
        pts[rows, others[0]] = uv[rows, 0]
        pts[rows, others[1]] = uv[rows, 1]
    return pts, _cube_edge_dist(pts)


def _gen_three_disks(n: int, rng):
    # Three unit 2-disks on the coordinate planes of R^3; they intersect
    # pairwise along the axis segments.
    spans = ((0, 1), (1, 2), (0, 2))
    which = rng.integers(0, 3, size=n)
    u = sample_uniform_ball(2, n, rng)
    pts = np.zeros((n, 3))
    for s, (a, b) in enumerate(spans):
        rows = which == s
        pts[rows, a] = u[rows, 0]
        pts[rows, b] = u[rows, 1]
    dist = np.minimum(
        np.minimum(np.abs(u[:, 0]), np.abs(u[:, 1])),
        1.0 - np.linalg.norm(u, axis=1),
    )
    return pts, dist


def mh_benchmark(
    sample_size: int,
    seed: int = 0,
    instances_per_shape: int = 3,
) -> list[tuple[LabeledCloud, bool]]:
    """Paired benchmark families for manifold-hypothesis testing, each cloud
    with uniform noise of amplitude DEFAULT_NOISE per coordinate.

    Manifolds: spheres, ellipsoids, a product of circles, tori.  Stratified
    spaces: unions of two spheres, cones, hollow cubes, unions of three disks.
    Returns (cloud, is_manifold) pairs; manifold clouds carry +inf distances.
    """
    if sample_size < 100:
        raise ValueError("sample_size must be >= 100")
    rng = np.random.default_rng(seed)
    out: list[tuple[LabeledCloud, bool]] = []

    def finish(pts, dist, flag):
        pts = pts + rng.uniform(-DEFAULT_NOISE, DEFAULT_NOISE, size=pts.shape)
        out.append((LabeledCloud(pts, dist), flag))

    for _ in range(instances_per_shape):
        d = int(rng.integers(1, 3))
        finish(*_gen_sphere(sample_size, d, rng), True)
        axes = rng.uniform(0.6, 1.4, size=3)
        finish(*_gen_ellipsoid(sample_size, axes, rng), True)
        finish(*_gen_sphere_product(sample_size, 1.0, rng.uniform(0.4, 0.8), rng), True)
        finish(*_gen_torus(sample_size, 1.0, rng.uniform(0.25, 0.45), rng), True)

        d = int(rng.integers(1, 3))
        finish(*_gen_two_spheres(sample_size, d, rng), False)
        finish(*_gen_cone(sample_size, 2, rng), False)
        finish(*_gen_hollow_cube(sample_size, rng), False)
        finish(*_gen_three_disks(sample_size, rng), False)
    return out
