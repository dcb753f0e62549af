import hashlib

import numpy as np
import pytest

from singscan import (
    LabeledCloud,
    ShapeSpec,
    generate,
    ground_truth_labels,
    mh_benchmark,
    scaled_experiment_params,
)
from singscan.synth import (
    _PINCH_MAJOR,
    _PINCH_MINOR,
    _cube_edge_dist,
    _gen_hollow_cube,
    _gen_three_disks,
)


def _noiseless(shape, n, dim=None, seed=0):
    given = {} if dim is None else {"dim": dim}
    return generate(ShapeSpec(shape, n, noise_amplitude=0.0, seed=seed, **given))


def test_circle_and_sphere_on_their_strata():
    circ = _noiseless("circle", 500)
    assert np.linalg.norm(circ.cloud, axis=1) == pytest.approx(np.ones(500), abs=1e-9)
    assert np.all(np.isinf(circ.dist_to_singular))
    sph = _noiseless("sphere", 500, dim=3)
    assert sph.cloud.shape == (500, 4)
    assert np.linalg.norm(sph.cloud, axis=1) == pytest.approx(np.ones(500), abs=1e-9)


def test_two_spheres_structure():
    lab = _noiseless("two_spheres", 2000, dim=2)
    pts = lab.cloud
    r0 = np.linalg.norm(pts, axis=1)
    r1 = np.linalg.norm(pts - np.array([1.0, 0, 0]), axis=1)
    on_some = np.minimum(np.abs(r0 - 1.0), np.abs(r1 - 1.0))
    assert on_some == pytest.approx(np.zeros(2000), abs=1e-9)
    # a point on the intersection ring is at distance zero
    ring_point = np.array([[0.5, np.sqrt(3.0) / 2.0, 0.0]])
    from singscan.synth import _two_spheres_dist

    assert _two_spheres_dist(ring_point)[0] == pytest.approx(0.0, abs=1e-12)


def test_solid_ball_distance_is_boundary_gap():
    lab = _noiseless("solid_ball", 3000, dim=2)
    norms = np.linalg.norm(lab.cloud, axis=1)
    assert np.all(norms <= 1.0 + 1e-12)
    assert lab.dist_to_singular == pytest.approx(1.0 - norms, abs=1e-12)
    point = LabeledCloud(np.array([[0.4, 0.0]]), np.array([0.6]))
    assert ground_truth_labels(point, 0.6)[0] == 1
    assert ground_truth_labels(point, 0.59)[0] == 0


def test_two_disks_span_axes():
    lab = _noiseless("two_disks", 2000, dim=1)
    pts = lab.cloud
    assert pts.shape == (2000, 3)
    on_first = np.abs(pts[:, 2]) < 1e-12
    on_second = np.abs(pts[:, 0]) < 1e-12
    assert np.all(on_first | on_second)
    assert 0.3 < on_first.mean() < 0.7
    norms = np.linalg.norm(pts, axis=1)
    assert np.all(norms <= 1.0 + 1e-12)


def test_cone_surface_equation():
    lab = _noiseless("cone", 1000)
    pts = lab.cloud
    rad = np.linalg.norm(pts[:, :2], axis=1)
    assert rad == pytest.approx(np.abs(pts[:, 2]), abs=1e-9)
    assert lab.dist_to_singular == pytest.approx(np.linalg.norm(pts, axis=1), abs=1e-12)


def test_pinch_torus_surface_equation():
    lab = _noiseless("pinch_torus", 1000)
    pts = lab.cloud
    u = np.arctan2(pts[:, 1], pts[:, 0])
    rho = _PINCH_MINOR * np.abs(np.sin(u / 2.0))
    ring = np.linalg.norm(pts[:, :2], axis=1)
    lhs = (ring - _PINCH_MAJOR) ** 2 + pts[:, 2] ** 2
    assert lhs == pytest.approx(rho**2, abs=1e-9)
    pinch = np.array([_PINCH_MAJOR, 0.0, 0.0])
    assert lab.dist_to_singular == pytest.approx(
        np.linalg.norm(pts - pinch, axis=1), abs=1e-12
    )


def test_ground_truth_labels_rules():
    lab = LabeledCloud(np.zeros((3, 2)), np.array([0.5, np.inf, 0.2]))
    assert list(ground_truth_labels(lab, 0.5)) == [1, 0, 1]
    assert list(ground_truth_labels(lab, 0.1)) == [0, 0, 0]
    grown = ground_truth_labels(lab, 1.0)
    assert np.all(grown >= ground_truth_labels(lab, 0.5))
    with pytest.raises(ValueError):
        ground_truth_labels(lab, 0.0)


def test_component_weights_are_binomial():
    lab = _noiseless("two_circles", 4000, seed=3)
    first = np.linalg.norm(lab.cloud, axis=1) < np.linalg.norm(
        lab.cloud - np.array([1.0, 0.0]), axis=1
    )
    # equal-area components: 4 sigma binomial window around 1/2
    assert abs(first.mean() - 0.5) < 4.0 * 0.5 / np.sqrt(4000)


def test_noise_is_bounded_and_post_hoc():
    clean = _noiseless("two_spheres", 500, dim=2, seed=9)
    noisy = generate(ShapeSpec("two_spheres", 500, dim=2, noise_amplitude=0.05, seed=9))
    assert np.all(np.abs(noisy.cloud - clean.cloud) <= 0.05 + 1e-12)
    assert noisy.dist_to_singular == pytest.approx(clean.dist_to_singular)


def test_determinism():
    a = generate(ShapeSpec("pinch_torus", 300, seed=4))
    b = generate(ShapeSpec("pinch_torus", 300, seed=4))
    assert np.array_equal(a.cloud, b.cloud)
    assert np.array_equal(a.dist_to_singular, b.dist_to_singular)


def test_scaled_experiment_params():
    assert scaled_experiment_params(1, 0.02, 15000, 1.5) == (0.02, 22500)
    r, n = scaled_experiment_params(2, 0.04, 100, 2.0)
    assert r == pytest.approx(0.2)
    assert n == 400
    radii = [scaled_experiment_params(d, 0.05, 10, 1.5)[0] for d in (1, 2, 3, 4)]
    assert all(a < b for a, b in zip(radii, radii[1:]))
    with pytest.raises(ValueError):
        scaled_experiment_params(1, 1.5, 100, 1.5)


def _mesh_distance(points, mesh):
    out = np.empty(len(points))
    for i, p in enumerate(points):
        out[i] = np.linalg.norm(mesh - p, axis=1).min()
    return out


def test_two_spheres_distance_against_mesh():
    for d in (1, 2):
        lab = _noiseless("two_spheres", 300, dim=d, seed=d)
        # singular locus: (d-1)-sphere of radius sqrt(3)/2 in the plane x0 = 1/2
        rng = np.random.default_rng(0)
        if d == 1:
            mesh = np.array([[0.5, np.sqrt(3) / 2], [0.5, -np.sqrt(3) / 2]])
        else:
            angles = np.linspace(0, 2 * np.pi, 200_000, endpoint=False)
            mesh = np.column_stack(
                [
                    np.full_like(angles, 0.5),
                    np.sqrt(3) / 2 * np.cos(angles),
                    np.sqrt(3) / 2 * np.sin(angles),
                ]
            )
        got = _mesh_distance(lab.cloud, mesh)
        assert np.all(lab.dist_to_singular <= got + 1e-9)
        assert np.max(got - lab.dist_to_singular) < 1e-6


def test_solid_ball_distance_against_mesh():
    lab = _noiseless("solid_ball", 300, dim=3, seed=1)
    rng = np.random.default_rng(1)
    g = rng.standard_normal((300_000, 3))
    mesh = g / np.linalg.norm(g, axis=1)[:, None]
    got = _mesh_distance(lab.cloud, mesh)
    assert np.all(lab.dist_to_singular <= got + 1e-9)
    assert np.max(got - lab.dist_to_singular) < 2e-3  # random mesh resolution


def test_two_disks_distance_against_mesh():
    lab = _noiseless("two_disks", 200, dim=1, seed=2)
    ts = np.linspace(-1, 1, 60_000)
    shared = np.column_stack([np.zeros_like(ts), ts, np.zeros_like(ts)])
    angles = np.linspace(0, 2 * np.pi, 60_000, endpoint=False)
    circ1 = np.column_stack([np.cos(angles), np.sin(angles), np.zeros_like(angles)])
    circ2 = np.column_stack([np.zeros_like(angles), np.sin(angles), np.cos(angles)])
    mesh = np.vstack([shared, circ1, circ2])
    got = _mesh_distance(lab.cloud, mesh)
    assert np.all(lab.dist_to_singular <= got + 1e-9)
    assert np.max(got - lab.dist_to_singular) < 1e-6


def test_point_locus_distances_are_exact():
    two_circ = _noiseless("two_circles", 300, seed=5)
    crossings = np.array([[0.5, np.sqrt(3) / 2], [0.5, -np.sqrt(3) / 2]])
    got = _mesh_distance(two_circ.cloud, crossings)
    assert two_circ.dist_to_singular == pytest.approx(got, abs=1e-12)

    cone = _noiseless("cone", 300, seed=6)
    assert cone.dist_to_singular == pytest.approx(
        np.linalg.norm(cone.cloud, axis=1), abs=1e-12
    )


def test_hollow_cube_edge_distance_against_segments():
    rng = np.random.default_rng(7)
    pts, dist = _gen_hollow_cube(200, rng)
    ts = np.linspace(-0.5, 0.5, 20_000)
    segments = []
    for i, j, si, sj in [(0, 1, a, b) for a in (-0.5, 0.5) for b in (-0.5, 0.5)]:
        seg = np.zeros((len(ts), 3))
        seg[:, 0] = si
        seg[:, 1] = sj
        seg[:, 2] = ts
        segments.append(seg)
        seg2 = np.zeros((len(ts), 3))
        seg2[:, 0] = si
        seg2[:, 2] = sj
        seg2[:, 1] = ts
        segments.append(seg2)
        seg3 = np.zeros((len(ts), 3))
        seg3[:, 1] = si
        seg3[:, 2] = sj
        seg3[:, 0] = ts
        segments.append(seg3)
    mesh = np.vstack(segments)
    got = _mesh_distance(pts, mesh)
    assert np.all(dist <= got + 1e-9)
    assert np.max(got - dist) < 1e-6


def test_three_disks_distance_against_mesh():
    rng = np.random.default_rng(8)
    pts, dist = _gen_three_disks(200, rng)
    ts = np.linspace(-1, 1, 50_000)
    zeros = np.zeros_like(ts)
    axes = [
        np.column_stack([ts, zeros, zeros]),
        np.column_stack([zeros, ts, zeros]),
        np.column_stack([zeros, zeros, ts]),
    ]
    angles = np.linspace(0, 2 * np.pi, 50_000, endpoint=False)
    c, s = np.cos(angles), np.sin(angles)
    zs = np.zeros_like(angles)
    rings = [
        np.column_stack([c, s, zs]),
        np.column_stack([zs, c, s]),
        np.column_stack([c, zs, s]),
    ]
    mesh = np.vstack(axes + rings)
    got = _mesh_distance(pts, mesh)
    assert np.all(dist <= got + 1e-9)
    assert np.max(got - dist) < 1e-6


def test_mh_benchmark_families():
    rows = mh_benchmark(2000, seed=0, instances_per_shape=2)
    manifolds = [lab for lab, flag in rows if flag]
    stratified = [lab for lab, flag in rows if not flag]
    assert len(manifolds) == 8 and len(stratified) == 8
    for lab in manifolds:
        assert np.all(np.isinf(lab.dist_to_singular))
    for lab in stratified:
        assert lab.dist_to_singular.min() <= 0.05
    again = mh_benchmark(2000, seed=0, instances_per_shape=2)
    for (a, fa), (b, fb) in zip(rows, again):
        assert fa == fb
        assert np.array_equal(a.cloud, b.cloud)


def test_mh_benchmark_validates_size():
    with pytest.raises(ValueError):
        mh_benchmark(50)


def test_shape_spec_validation():
    with pytest.raises(ValueError):
        ShapeSpec("klein_bottle", 100)
    with pytest.raises(ValueError):
        ShapeSpec("circle", 0)
    with pytest.raises(ValueError):
        ShapeSpec("circle", 10, noise_amplitude=-0.1)
    with pytest.raises(ValueError):
        ShapeSpec("sphere", 10, dim=0)


@pytest.mark.parametrize("shape", ["circle", "two_circles", "cone", "pinch_torus"])
@pytest.mark.parametrize("dim", [1, 2, 5])
def test_fixed_dimension_shape_refuses_a_dim(shape, dim):
    with pytest.raises(ValueError, match=shape):
        ShapeSpec(shape, 10, dim=dim)


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# sha256 of cloud then distances for ShapeSpec(shape, 500, dim=dim,
# noise_amplitude=0.01, seed=3), dim left out where None: every cloud stays
# byte for byte as drawn.  circle is sphere and two_circles is two_spheres
# at dim 1, draw for draw.
_SHAPE_DIGESTS = {
    ("circle", None): "eaaacb4e116b079d8a1ef77bfa7f0c9d19899b271c196d814357b696fd3c84ee",
    ("sphere", None): "5bc64c4c30dfa4dbe4cfa55fde7885cc8c2af248da24aacd1d6611ed992422fa",
    ("two_circles", None): "9476f588499969c17398186a1e103b92982cf844b9a855794325076ca3572847",
    ("two_spheres", None): "bc8053e677fca29eb74c39e95392dcaa23be3489086cd12840e5ae1878cbf6df",
    ("solid_ball", None): "504d1112e89b9613a7ab7accd8ff86ad717804eeb1b76975087a13e519a9ebdd",
    ("two_disks", None): "d8f83c6865021504914cb00f50f4c4bbcd7c3a8841767c2372fea182c32bf8cf",
    ("cone", None): "ab81a7b82c011aaad08ffeb3a2a95c819517399d38025f3684b3d5a70a3ee66f",
    ("pinch_torus", None): "c6656fbb1a1ce467abf18239e6ebbd93da3c94cc6cd7761ff1398b9c4febbc7e",
    ("sphere", 1): "eaaacb4e116b079d8a1ef77bfa7f0c9d19899b271c196d814357b696fd3c84ee",
    ("sphere", 3): "573fbe820dfd40b1da4cacf0e6d7dcca8989ec9a0ff51f2e863c9305aba4a9bc",
    ("two_spheres", 1): "9476f588499969c17398186a1e103b92982cf844b9a855794325076ca3572847",
    ("two_spheres", 3): "a68ef36a2e9846d2535b5d0503144e90df9f23c69a8caae5cef28b29d7d975fc",
    ("solid_ball", 1): "c8bc08f3421391bcdd6c89c3807a457076a66b499a742e7aab6c1003020ad9ec",
    ("solid_ball", 3): "f906458249c2d8fd7406404a01ba475c888b878dbb4e8ccce22007a2876cafb0",
    ("two_disks", 1): "fc2f727cf36fbf48da631708d0d0921714f29f4a168808d4fc678bf0f5f49120",
    ("two_disks", 3): "fb0b3aee18ab861f3b25d8de232def1bad0122368944c2f393b34c6256c544bb",
}


@pytest.mark.parametrize("shape, dim", sorted(_SHAPE_DIGESTS, key=str), ids=str)
def test_shapes_draw_as_before(shape, dim):
    given = {} if dim is None else {"dim": dim}
    lab = generate(ShapeSpec(shape, 500, noise_amplitude=0.01, seed=3, **given))
    assert _digest(lab.cloud, lab.dist_to_singular) == _SHAPE_DIGESTS[shape, dim]


def test_mh_benchmark_draws_as_before():
    # Pins the ellipsoid and torus rejection samplers among the rest: each
    # cloud, its distances and its flag.
    rows = mh_benchmark(200, seed=0, instances_per_shape=1)
    arrays = [a for lab, flag in rows for a in (lab.cloud, lab.dist_to_singular, np.array([flag]))]
    assert _digest(*arrays) == "417d2bc730721772337ab8a42f60985c49fe42ffd3dc45faf96ebdae987495f1"
