import numpy as np
import pytest
from oracle_helpers import combinatorial_projection, random_polytope

from dcprox.polyhedron import (
    InfeasiblePolyhedronError,
    PolyhedralSet,
    PolyhedronProjector,
    ProjectionError,
)


def test_validation():
    proj = PolyhedronProjector(PolyhedralSet(3, lo=np.zeros(3), hi=np.ones(3)))
    assert np.array_equal(proj.project([0.5, 2.0, -1.0]), [0.5, 1.0, 0.0])


def test_residual():
    set_ = PolyhedralSet(2, E=np.array([[1.0, 1.0]]), e=np.array([1.0]),
                         lo=np.zeros(2), hi=np.ones(2))
    assert set_.residual(np.array([0.5, 0.5])) < 1e-15
    # the box violation of 1 at both coordinates outweighs the equality's 0
    assert set_.residual(np.array([2.0, -1.0])) == 1.0
    # a NaN coordinate gave 0.0 and passed every feasibility test
    assert np.isnan(set_.residual(np.array([np.nan, 0.5])))
    # inf at a finite bound is an infinite violation; at an unbounded side
    # inf - inf is NaN
    with np.errstate(invalid="ignore"):
        assert set_.residual(np.array([np.inf, 0.0])) == np.inf
        assert np.isnan(PolyhedralSet(1).residual(np.array([-np.inf])))


def test_projection_of_nan_fails_its_certificate():
    set_ = PolyhedralSet(3, lo=-np.ones(3), hi=np.ones(3))
    with pytest.raises(ProjectionError, match="residual nan exceeds") as err:
        PolyhedronProjector(set_).project(np.full(3, np.nan))
    assert np.isnan(err.value.residual)


def test_feasible_point_reports_a_capped_projection_as_infeasible(monkeypatch):
    # the origin misses the box [1, 2]^2, so the active-set method needs a
    # step, and a cap of zero steps stops it at the origin
    proj = PolyhedronProjector(PolyhedralSet(2, lo=np.ones(2), hi=2 * np.ones(2)))
    capped = proj._active_set
    monkeypatch.setattr(proj, "_active_set",
                        lambda w_reduced, max_steps: capped(w_reduced, 0))
    with pytest.raises(InfeasiblePolyhedronError,
                       match=r"possibly infeasible polyhedron \(best residual "
                             r"1.000e\+00\)") as err:
        proj.feasible_point()
    assert err.value.residual == 1.0
    assert isinstance(err.value.__cause__, ProjectionError)


def test_interior_point_is_fixed():
    set_ = PolyhedralSet(3, lo=-np.ones(3), hi=np.ones(3))
    w = np.array([0.2, -0.3, 0.9])
    assert np.allclose(PolyhedronProjector(set_).project(w), w)


def test_box_projection_is_clip():
    set_ = PolyhedralSet(3, lo=-np.ones(3), hi=np.ones(3))
    w = np.array([5.0, -2.0, 0.1])
    assert np.allclose(PolyhedronProjector(set_).project(w), [1.0, -1.0, 0.1],
                       atol=1e-10)


def test_affine_projection_exact():
    # Projection onto {x : sum x = 1} has closed form.
    set_ = PolyhedralSet(4, E=np.ones((1, 4)), e=np.array([1.0]))
    w = np.array([1.0, 2.0, 3.0, 4.0])
    want = w - (w.sum() - 1.0) / 4.0
    assert np.allclose(PolyhedronProjector(set_).project(w), want, atol=1e-12)


def test_projection_with_equalities_certifies():
    rng = np.random.default_rng(2)
    E = rng.standard_normal((3, 7))
    e = rng.standard_normal(3) * 0.1
    set_ = PolyhedralSet(7, E=E, e=e, lo=-np.ones(7), hi=np.ones(7))
    x = PolyhedronProjector(set_).project(rng.standard_normal(7))
    assert set_.residual(x) <= 1e-8


def test_inconsistent_equalities_raise():
    E = np.array([[1.0, 0.0], [1.0, 0.0]])
    e = np.array([0.0, 1.0])
    with pytest.raises(InfeasiblePolyhedronError):
        PolyhedronProjector(PolyhedralSet(2, E=E, e=e))


def test_empty_inequality_system_raises():
    # x1 >= 2 (via -x1 <= -2) conflicts with the box x1 <= 1.
    set_ = PolyhedralSet(2, G=np.array([[-1.0, 0.0]]), g=np.array([-2.0]),
                         lo=-np.ones(2), hi=np.ones(2))
    with pytest.raises((ProjectionError, InfeasiblePolyhedronError)):
        PolyhedronProjector(set_).feasible_point()


def test_feasible_point_satisfies_constraints():
    rng = np.random.default_rng(3)
    for _ in range(5):
        set_ = random_polytope(rng)
        x = PolyhedronProjector(set_, tol=1e-9).feasible_point()
        assert set_.residual(x) <= 1e-8


def fixed_coordinate_set(rng, d, values):
    """x_i = values[i] for the first k coordinates, a box on all, halfspaces.

    The equalities mix the fixed coordinates, so on their null space the
    boxes of those coordinates (and the general row on x_0 alone) vanish
    only to rounding: the structure of the fixed flows of the OPF model.
    """
    k = len(values)
    M = rng.standard_normal((k, k))
    E = M @ np.eye(d)[:k]
    G = np.vstack([rng.standard_normal(d), np.eye(d)[0]])
    g = np.array([rng.uniform(0.2, 1.0) + G[0, :k] @ values, values[0] + 0.5])
    return PolyhedralSet(d, E=E, e=M @ values, G=G, g=g,
                         lo=-np.ones(d), hi=np.ones(d))


def test_equality_fixed_boxes_match_oracle():
    rng = np.random.default_rng(4)
    for trial in range(30):
        d = int(rng.integers(3, 8))
        k = int(rng.integers(1, d - 1))
        # Every other set fixes coordinates at a bound of their box.
        values = (rng.choice([-1.0, 0.0, 1.0], k) if trial % 2
                  else rng.uniform(-0.9, 0.9, k))
        set_ = fixed_coordinate_set(rng, d, values)
        proj = PolyhedronProjector(set_, tol=1e-9)
        # The same set on the free coordinates, without equalities.
        free = PolyhedralSet(d - k, G=set_.G[:1, k:],
                             g=set_.g[:1] - set_.G[0, :k] @ values,
                             lo=set_.lo[k:], hi=set_.hi[k:])
        w = rng.standard_normal(d) * 3.0
        got = proj.project(w)
        want = combinatorial_projection(free, w[k:])
        assert want is not None
        assert set_.residual(got) <= proj.tol
        assert np.linalg.norm(got[k:] - want) <= 1e-6


def test_box_excluding_fixed_value_raises():
    rng = np.random.default_rng(5)
    # The equalities force x_0 = 2, outside its box [-1, 1].
    set_ = fixed_coordinate_set(rng, 4, np.array([2.0, 0.0]))
    with pytest.raises(InfeasiblePolyhedronError):
        PolyhedronProjector(set_).project(np.zeros(4))


def test_max_iter_cap_reports_last_point(monkeypatch):
    set_ = PolyhedralSet(3, lo=-np.ones(3), hi=np.ones(3))
    proj = PolyhedronProjector(set_, tol=1e-9)
    w = np.array([5.0, -4.0, 3.0])  # three active bounds: three steps
    y, status = proj._active_set(proj._Z.T @ (w - proj._x_p), 2)
    assert status == "max_iter"
    capped = proj._active_set
    monkeypatch.setattr(proj, "_active_set",
                        lambda w_reduced, max_steps: capped(w_reduced, 2))
    with pytest.raises(ProjectionError) as err:
        proj.project(w)
    assert np.array_equal(err.value.best_x, proj._x_p + proj._Z @ y)
    assert err.value.residual == set_.residual(err.value.best_x) > proj.tol
    monkeypatch.undo()
    assert np.allclose(proj.project(w), [1.0, -1.0, 1.0], atol=1e-12)


def test_shared_projector_keeps_no_state():
    rng = np.random.default_rng(6)
    set_ = random_polytope(rng)
    shared = PolyhedronProjector(set_, tol=1e-9)
    points = rng.standard_normal((6, set_.dim)) * 3.0
    for w in list(points) + list(points[::-1]):
        fresh = PolyhedronProjector(set_, tol=1e-9).project(w)
        assert np.array_equal(shared.project(w), fresh)

