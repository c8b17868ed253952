"""Reference-element basis functions, affine maps, and quadrature rules."""

import numpy as np
import pytest

from oracles import REFERENCE_NODES, AffineMap, eval_physical, eval_reference, monomial_integral_triangle
from cvstokes.basis import QuadratureRule, barycentric, segment_rule, triangle_rule


def _interior_points(n, seed=0, margin=0.02):
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < n:
        x, y = rng.uniform(margin, 1.0 - margin, size=2)
        if x + y < 1.0 - margin:
            pts.append((x, y))
    return np.array(pts)


def test_nodal_property():
    ev = eval_reference(REFERENCE_NODES)
    assert np.allclose(ev.values, np.eye(4), atol=1e-14)


def test_values_at_quarter_point():
    # At (1/4, 1/4): lambda = (1/2, 1/4, 1/4), bubble = 27/64 * 2 = 27/32,
    # and the vertex-1 function is 1/4 - (1/3) * 27/32.
    ev = eval_reference(np.array([[0.25, 0.25]]))
    assert ev.values[0, 3] == pytest.approx(0.84375, abs=1e-15)
    assert ev.values[0, 1] == pytest.approx(0.25 - 0.84375 / 3.0, abs=1e-15)
    assert ev.values[0, 1] == pytest.approx(-0.03125, abs=1e-15)
    assert ev.values[0, 0] == pytest.approx(0.5 - 0.84375 / 3.0, abs=1e-15)


def test_bubble_peak_at_centroid():
    ev = eval_reference(np.array([[1.0 / 3.0, 1.0 / 3.0]]))
    assert ev.values[0, 3] == pytest.approx(1.0, abs=1e-14)
    assert np.allclose(ev.gradients[0, 3], 0.0, atol=1e-13)
    # Vertex functions all equal 1/3 - 1/3 = 0 at the centroid.
    assert np.allclose(ev.values[0, :3], 0.0, atol=1e-14)


def test_partition_of_unity_and_gradient_sum():
    pts = _interior_points(100, seed=3)
    ev = eval_reference(pts)
    assert np.allclose(ev.values.sum(axis=1), 1.0, atol=1e-14)
    assert np.allclose(ev.gradients.sum(axis=1), 0.0, atol=1e-13)


def test_bubble_vanishes_on_edges():
    t = np.linspace(0.0, 1.0, 50)
    edges = [
        np.stack((t, np.zeros_like(t)), axis=1),
        np.stack((np.zeros_like(t), t), axis=1),
        np.stack((t, 1.0 - t), axis=1),
    ]
    for pts in edges:
        ev = eval_reference(pts)
        assert np.all(np.abs(ev.values[:, 3]) <= 1e-15)


def test_linear_reproduction():
    # Nodal interpolation of a linear field with the modified vertex
    # functions plus the bubble reproduces the field exactly.
    pts = _interior_points(60, seed=5)
    ev = eval_reference(pts)

    def lin(p):
        return 2.0 - 3.0 * p[..., 0] + 0.5 * p[..., 1]

    nodal = lin(REFERENCE_NODES)
    assert np.allclose(ev.values @ nodal, lin(pts), atol=1e-13)
    grad = ev.gradients.transpose(0, 2, 1) @ nodal
    assert np.allclose(grad, np.array([-3.0, 0.5]), atol=1e-12)


def test_eval_reference_rejects_outside_points():
    with pytest.raises(ValueError):
        eval_reference(np.array([[1.2, 0.3]]))
    with pytest.raises(ValueError):
        eval_reference(np.array([[-0.1, 0.3]]))


def test_barycentric():
    lam = barycentric(np.array([[0.25, 0.25], [0.0, 0.0]]))
    assert np.allclose(lam[0], [0.5, 0.25, 0.25], atol=1e-15)
    assert np.allclose(lam[1], [1.0, 0.0, 0.0], atol=1e-15)


def test_affine_map_roundtrip():
    coords = np.array([[0.3, -0.2], [1.7, 0.4], [0.6, 2.1]])
    amap = AffineMap.from_triangle(coords)
    ref = _interior_points(30, seed=11)
    phys = amap.to_physical(ref)
    back = amap.to_reference(phys)
    assert np.allclose(back, ref, atol=1e-13)
    assert np.allclose(amap.jacobian @ amap.inverse, np.eye(2), atol=1e-14)
    assert np.allclose(amap.inverse_transpose, amap.inverse.T, atol=1e-15)
    e1 = coords[1] - coords[0]
    e2 = coords[2] - coords[0]
    assert amap.det == pytest.approx(e1[0] * e2[1] - e1[1] * e2[0], rel=1e-14)


def test_affine_map_rejects_clockwise_triangle():
    coords = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        AffineMap.from_triangle(coords)


def test_eval_physical_gradients_match_finite_differences():
    coords = np.array([[0.1, 0.0], [1.3, 0.2], [0.4, 1.1]])
    amap = AffineMap.from_triangle(coords)
    pts = amap.to_physical(_interior_points(20, seed=7, margin=0.1))
    ev = eval_physical(coords, pts)
    h = 1e-6
    for a, e in ((0, np.array([h, 0.0])), (1, np.array([0.0, h]))):
        plus = eval_physical(coords, pts + e, tol=1e-3)
        minus = eval_physical(coords, pts - e, tol=1e-3)
        fd = (plus.values - minus.values) / (2.0 * h)
        scale = np.maximum(np.abs(ev.gradients[:, :, a]), 1.0)
        assert np.max(np.abs(fd - ev.gradients[:, :, a]) / scale) < 1e-6


def test_triangle_rule_monomial_exactness():
    for degree in range(1, 9):
        rule = triangle_rule(degree)
        assert rule.exact_degree >= degree
        for a in range(degree + 1):
            for b in range(degree + 1 - a):
                num = np.sum(rule.weights * rule.points[:, 0] ** a * rule.points[:, 1] ** b)
                exact = monomial_integral_triangle(a, b)
                assert num == pytest.approx(exact, rel=1e-13, abs=1e-16), (degree, a, b)


def test_monomial_integral_values():
    # int x^a y^b over the reference triangle = a! b! / (a + b + 2)!
    assert monomial_integral_triangle(0, 0) == pytest.approx(0.5, abs=1e-16)
    assert monomial_integral_triangle(1, 0) == pytest.approx(1.0 / 6.0, rel=1e-15)
    assert monomial_integral_triangle(1, 1) == pytest.approx(1.0 / 24.0, rel=1e-15)
    assert monomial_integral_triangle(2, 3) == pytest.approx(
        2.0 * 6.0 / 5040.0, rel=1e-15
    )


def test_triangle_rule_degree_one_is_centroid():
    rule = triangle_rule(1)
    assert rule.points.shape == (1, 2)
    assert np.allclose(rule.points[0], [1.0 / 3.0, 1.0 / 3.0], atol=1e-15)
    assert rule.weights[0] == pytest.approx(0.5, abs=1e-15)


def test_triangle_rule_weights_positive():
    for degree in range(1, 9):
        rule = triangle_rule(degree)
        assert np.all(rule.weights > 0.0)
        assert np.sum(rule.weights) == pytest.approx(0.5, rel=1e-14)


def test_bubble_integral():
    # int 27 l1 l2 l3 = 27 * (1!1!1!/5!) * 2 * (1/2) ... = 27/120 * ... = 9/40
    rule = triangle_rule(3)
    ev = eval_reference(rule.points)
    val = np.sum(rule.weights * ev.values[:, 3])
    assert val == pytest.approx(0.225, rel=1e-14)
    # Modified vertex functions then integrate to 1/6 - (1/3)(9/40).
    vert = np.sum(rule.weights * ev.values[:, 0])
    assert vert == pytest.approx(1.0 / 6.0 - 0.075, rel=1e-13)


def test_triangle_rule_unsupported_degree():
    with pytest.raises(ValueError):
        triangle_rule(0)
    with pytest.raises(ValueError):
        triangle_rule(9)


def test_segment_rule():
    rule = segment_rule(3)
    assert rule.points.shape == (2,)
    assert np.sum(rule.weights) == pytest.approx(1.0, rel=1e-15)
    for degree in range(1, 6):
        r = segment_rule(degree)
        for a in range(degree + 1):
            num = np.sum(r.weights * r.points ** a)
            assert num == pytest.approx(1.0 / (a + 1), rel=1e-14), (degree, a)
    assert np.sum(rule.weights * rule.points ** 3) == pytest.approx(0.25, rel=1e-14)


def test_segment_rule_unsupported_degree():
    with pytest.raises(ValueError):
        segment_rule(0)
    with pytest.raises(ValueError):
        segment_rule(6)


def test_quadrature_rule_is_frozen():
    rule = triangle_rule(2)
    assert isinstance(rule, QuadratureRule)
    with pytest.raises(Exception):
        rule.exact_degree = 5
