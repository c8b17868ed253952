"""Manufactured solutions, error norms, convergence driver, conservation."""

import weakref
from dataclasses import replace

import numpy as np
import pytest

from conftest import random_distorted_mesh, write_msh22
from oracles import pieces
from cvstokes import schemes, verification
from cvstokes.cli_io import write_vtu
from cvstokes.geometry import REFERENCE_FACES, build
from cvstokes.mesh import BCKind, distort, generate_structured
from cvstokes.schemes import ConfigurationError, assemble, split_solution
from cvstokes.solver import direct_solve
from cvstokes.verification import (
    CASES,
    MIXED_BC_LAYOUT,
    ConvergenceReport,
    LevelResult,
    bercovier_engelman_case,
    conservation_audit,
    donea_huerta_case,
    error_norms,
    product_case,
    region_mass_balance,
    run_convergence,
    shear_flow_case,
)


def _interior_grid(n=7, margin=0.15):
    t = np.linspace(margin, 1.0 - margin, n)
    xx, yy = np.meshgrid(t, t)
    return np.column_stack((xx.ravel(), yy.ravel()))


def _fd_gradient(f, pts, h=1e-6):
    """Central finite-difference gradient of a vector field, (n, k, 2)."""
    out = []
    for a in range(2):
        e = np.zeros(2)
        e[a] = h
        out.append((np.asarray(f(pts + e)) - np.asarray(f(pts - e))) / (2.0 * h))
    return np.stack(out, axis=-1)


def _fd_laplacian(f, pts, h=1e-3):
    """Fourth-order finite-difference Laplacian of a vector field."""
    coeff = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / (12.0 * h * h)
    off = np.array([-2.0, -1.0, 0.0, 1.0, 2.0]) * h
    total = 0.0
    for a in range(2):
        e = np.zeros(2)
        e[a] = 1.0
        for c, d in zip(coeff, off):
            total = total + c * np.asarray(f(pts + d * e))
    return total


def _check_momentum_consistency(case, tol=1e-5):
    pts = _interior_grid()
    lap = _fd_laplacian(case.velocity, pts)
    gp = _fd_gradient(lambda q: case.pressure(q)[:, None], pts)[:, 0, :]
    residual = -case.viscosity * lap + gp - case.body_force(pts)
    assert np.max(np.abs(residual)) < tol


def _check_divergence_free(case, tol=1e-12):
    pts = _interior_grid(9, margin=0.05)
    grad = case.velocity_gradient(pts)
    div = grad[:, 0, 0] + grad[:, 1, 1]
    assert np.max(np.abs(div)) < tol


def _check_gradient(case, tol=1e-6):
    pts = _interior_grid()
    fd = _fd_gradient(case.velocity, pts)
    exact = case.velocity_gradient(pts)
    assert np.max(np.abs(fd - exact)) < tol


def test_donea_huerta_values():
    case = donea_huerta_case()
    pts = np.array([[0.25, 0.25], [0.0, 0.0], [0.5, 0.5]])
    v, p, grad = case.velocity(pts), case.pressure(pts), case.velocity_gradient(pts)
    assert v[0, 0] == pytest.approx(0.006591796875, rel=1e-12)
    assert v[0, 1] == pytest.approx(-0.006591796875, rel=1e-12)
    assert np.allclose(v[1], 0.0, atol=1e-15)
    assert np.allclose(v[2], 0.0, atol=1e-15)  # stagnation point at the center
    assert p[2] == pytest.approx(0.25, rel=1e-14)
    assert grad.shape == (3, 2, 2)


def test_donea_huerta_vanishes_on_boundary():
    t = np.linspace(0.0, 1.0, 21)
    for pts in (
        np.column_stack((t, np.zeros_like(t))),
        np.column_stack((t, np.ones_like(t))),
        np.column_stack((np.zeros_like(t), t)),
        np.column_stack((np.ones_like(t), t)),
    ):
        assert np.max(np.abs(donea_huerta_case().velocity(pts))) < 1e-15


def test_donea_huerta_consistency():
    case = donea_huerta_case()
    _check_gradient(case)
    _check_divergence_free(case)
    _check_momentum_consistency(case)


def test_donea_huerta_viscosity_enters_force():
    case2 = donea_huerta_case(viscosity=3.5)
    assert case2.viscosity == 3.5
    _check_momentum_consistency(case2, tol=5e-5)


def test_bercovier_engelman_values():
    case = bercovier_engelman_case()
    pts = np.array([[0.5, 0.25], [0.0, 0.0]])
    v, p = case.velocity(pts), case.pressure(pts)
    assert v[0, 0] == pytest.approx(-1.5, rel=1e-13)
    assert p[1] == pytest.approx(0.25, rel=1e-14)
    assert np.allclose(v[1], 0.0, atol=1e-15)


def test_bercovier_engelman_consistency():
    case = bercovier_engelman_case()
    _check_gradient(case)
    _check_divergence_free(case)
    _check_momentum_consistency(case, tol=5e-5)
    # Velocity vanishes on the whole boundary.
    t = np.linspace(0.0, 1.0, 17)
    for pts in (
        np.column_stack((t, np.zeros_like(t))),
        np.column_stack((np.ones_like(t), t)),
    ):
        assert np.max(np.abs(case.velocity(pts))) < 1e-12


def _expanded_donea_huerta(x, y, mu):
    """Donea-Huerta fields written out with powers, as an independent oracle."""
    h = x**2 * (1 - x) ** 2, y**2 * (1 - y) ** 2
    h1 = 2 * x - 6 * x**2 + 4 * x**3, 2 * y - 6 * y**2 + 4 * y**3
    h2 = 2 - 12 * x + 12 * x**2, 2 - 12 * y + 12 * y**2
    h3 = -12 + 24 * x, -12 + 24 * y
    v = np.stack((h[0] * h1[1], -h[1] * h1[0]), axis=-1)
    p = x * (1 - x)
    f = np.stack(
        (
            -mu * (h2[0] * h1[1] + h[0] * h3[1]) + 1 - 2 * x,
            mu * (h[1] * h3[0] + h2[1] * h1[0]),
        ),
        axis=-1,
    )
    grad = np.array([[h1[0] * h1[1], h[0] * h2[1]], [-h[1] * h2[0], -h1[1] * h1[0]]])
    return v, p, f, np.moveaxis(grad, (0, 1), (-2, -1))


def _expanded_bercovier_engelman(x, y):
    a = x**2 * (x - 1) ** 2, y**2 * (y - 1) ** 2
    b = x * (x - 1) * (2 * x - 1), y * (y - 1) * (2 * y - 1)
    b1 = 6 * x**2 - 6 * x + 1, 6 * y**2 - 6 * y + 1
    g_xy = 256 * (a[0] * (12 * y - 6) + b[1] * (12 * x**2 - 12 * x + 2))
    g_yx = 256 * (a[1] * (12 * x - 6) + b[0] * (12 * y**2 - 12 * y + 2))
    v = np.stack((-256 * a[0] * b[1], 256 * a[1] * b[0]), axis=-1)
    p = (x - 0.5) * (y - 0.5)
    f = np.stack((g_xy + y - 0.5, -g_yx + x - 0.5), axis=-1)
    grad = np.array([[-512 * b[0] * b[1], -256 * a[0] * b1[1]], [256 * a[1] * b1[0], 512 * b[1] * b[0]]])
    return v, p, f, np.moveaxis(grad, (0, 1), (-2, -1))


@pytest.mark.parametrize(
    "case, oracle",
    [
        (donea_huerta_case(2.5), lambda x, y: _expanded_donea_huerta(x, y, 2.5)),
        (bercovier_engelman_case(), _expanded_bercovier_engelman),
    ],
    ids=["donea-huerta", "bercovier-engelman"],
)
def test_case_fields_match_expanded_closed_forms(case, oracle):
    # Each field function evaluates only its own field and agrees with the
    # expanded closed form.
    pts = np.random.default_rng(17).uniform(-0.2, 1.2, size=(6, 5, 2))
    per_field = (
        case.velocity(pts), case.pressure(pts), case.body_force(pts), case.velocity_gradient(pts)
    )
    for got, want in zip(per_field, oracle(pts[..., 0], pts[..., 1])):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_product_case_derives_gradient_and_body_force():
    # Factors no shipped case uses, with expanded (not Horner) polynomials and
    # a constant third derivative that is neither 0 nor 1.
    cubic = (lambda u: u**3 - u, lambda u: 3 * u**2 - 1, lambda u: 6 * u, 6.0)
    quartic = (
        lambda u: u**2 * (1 - u) ** 2,
        lambda u: 2 * u - 6 * u**2 + 4 * u**3,
        lambda u: 2 - 12 * u + 12 * u**2,
        lambda u: -12 + 24 * u,
    )
    square = (lambda u: u**2, lambda u: 2 * u)
    affine = (lambda u: u + 1, 1.0)
    case = product_case("product", 1.7, 3.0, cubic, quartic, square, affine)
    assert case.viscosity == 1.7
    _check_gradient(case)
    _check_divergence_free(case)
    _check_momentum_consistency(case)
    x, y = 0.3, 0.6
    assert case.velocity(np.array([[x, y]]))[0] == pytest.approx(
        [3.0 * (x**3 - x) * quartic[1](y), -3.0 * (3 * x**2 - 1) * quartic[0](y)], rel=1e-13
    )
    assert case.pressure(np.array([[x, y]]))[0] == pytest.approx(x**2 * (y + 1), rel=1e-14)


def test_shear_case_consistency():
    case = shear_flow_case(viscosity=2.0)
    _check_gradient(case)
    _check_divergence_free(case)
    pts = _interior_grid(4)
    assert np.max(np.abs(case.body_force(pts))) == 0.0
    assert np.max(np.abs(case.pressure(pts))) == 0.0


def test_traction_formula():
    case = donea_huerta_case(viscosity=1.4)
    rng = np.random.default_rng(4)
    pts = rng.uniform(0.1, 0.9, size=(10, 2))
    normals = rng.standard_normal((10, 2))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    got = case.traction(pts, normals)
    grad = case.velocity_gradient(pts)
    p = case.pressure(pts)
    for i in range(10):
        stress = case.viscosity * (grad[i] + grad[i].T) - p[i] * np.eye(2)
        assert np.allclose(got[i], -stress @ normals[i], atol=1e-13)


def test_case_registry():
    assert set(CASES) == {"donea-huerta", "bercovier-engelman"}
    case = CASES["donea-huerta"]()
    assert case.bc_layout == MIXED_BC_LAYOUT
    assert case.bc_layout["left"] is BCKind.DIRICHLET
    assert case.bc_layout["top"] is BCKind.NEUMANN


def test_error_norms_of_interpolated_linear_solution():
    case = shear_flow_case()
    mesh = case.apply_bc(random_distorted_mesh(23, n=4))
    disc = build(mesh, "overlapping")
    vel = np.zeros((disc.n_velocity_locations, 2))
    vel[: mesh.n_vertices] = case.velocity(mesh.vertices)
    vel[mesh.n_vertices :] = case.velocity(disc.elements.coords.mean(axis=1))
    x = np.concatenate((vel.ravel(), case.pressure(mesh.vertices)))
    norms = error_norms(disc, x, case)
    assert norms.l2_velocity < 1e-14
    assert norms.h1_velocity < 1e-13
    assert norms.l2_pressure < 1e-14


def test_error_norms_of_zero_solution():
    # With the zero vector the norms equal the norms of the exact fields;
    # the pressure of the quartic-vortex case has a closed form.
    case = donea_huerta_case()
    mesh = case.apply_bc(generate_structured(10, 10))
    disc = build(mesh, "fem")
    norms = error_norms(disc, np.zeros(disc.n_dofs), case)
    assert norms.l2_pressure == pytest.approx(np.sqrt(1.0 / 30.0), rel=1e-10)
    assert norms.l2_velocity == pytest.approx(np.sqrt(2.0 / 33075.0), rel=1e-6)
    assert norms.h1_velocity > norms.l2_velocity


def test_error_norms_evaluate_each_case_field_once():
    case = donea_huerta_case()
    calls = {}

    def counted(name):
        field = getattr(case, name)

        def wrapper(pts):
            calls[name] = calls.get(name, 0) + 1
            return field(pts)

        return wrapper

    names = ("velocity", "velocity_gradient", "pressure")
    counting = replace(case, **{name: counted(name) for name in names})
    disc = build(case.apply_bc(random_distorted_mesh(5, n=4)), "hybrid")
    x = np.random.default_rng(2).standard_normal(disc.n_dofs)
    assert error_norms(disc, x, counting) == error_norms(disc, x, case)
    assert calls == {name: 1 for name in names}


def test_window_rate_and_rates():
    levels = [
        LevelResult(k, 0, 0, 0.1 / 2**k, 0.05 / 2**k, (0.1 / 2**k) ** 1,
                    (0.05 / 2**k) ** 2, (0.05 / 2**k) ** 1, 10, True)
        for k in range(5)
    ]
    report = ConvergenceReport("synthetic", "fem", levels)
    assert report.window_rate("l2_velocity") == pytest.approx(2.0, rel=1e-12)
    assert report.window_rate("h1_velocity") == pytest.approx(1.0, rel=1e-12)
    assert report.window_rate("l2_pressure") == pytest.approx(1.0, rel=1e-12)
    rates = report.rates()
    assert np.isnan(rates["l2_velocity"][0])
    assert np.allclose(rates["l2_velocity"][1:], 2.0, rtol=1e-12)
    assert np.array_equal(report.iteration_counts(), np.full(5, 10))
    with pytest.raises(ValueError):
        ConvergenceReport("synthetic", "fem", levels[:2]).window_rate("l2_velocity")
    for count in (0, 1):
        with pytest.raises(ValueError, match="at least two levels"):
            report.window_rate("l2_velocity", count=count)


def test_window_rate_nan_at_roundoff():
    levels = [
        LevelResult(k, 0, 0, 0.1 / 2**k, 0.05 / 2**k, 1e-15, 1e-15, 1e-15, 5, True)
        for k in range(3)
    ]
    report = ConvergenceReport("synthetic", "fem", levels)
    assert np.isnan(report.window_rate("l2_velocity"))


def test_run_convergence_shear_is_exact():
    report = run_convergence(
        shear_flow_case(), "non-overlapping", n_levels=2, base=3, distortion=0.2, seed=3
    )
    assert len(report.levels) == 2
    for lv in report.levels:
        assert lv.converged
        # The Krylov solve stops at a 1e10 residual reduction from a random
        # start, which leaves errors far below discretization level but
        # above round-off; the direct path reaches machine precision.
        assert lv.l2_velocity < 1e-8
        assert lv.h1_velocity < 1e-8
        assert lv.l2_pressure < 1e-8
    direct = run_convergence(
        shear_flow_case(), "non-overlapping", n_levels=2, base=3, distortion=0.2,
        seed=3, use_direct=True,
    )
    for lv in direct.levels:
        assert lv.l2_velocity < 1e-13
        assert lv.h1_velocity < 1e-12
        assert lv.l2_pressure < 1e-13
    # At round-off level the rate is reported as NaN, not as a number.
    assert np.isnan(direct.window_rate("l2_velocity", count=2))


def test_run_convergence_donea_huerta_quick():
    report = run_convergence(
        donea_huerta_case(), "fem", n_levels=2, base=4, distortion=0.15, seed=5
    )
    lv0, lv1 = report.levels
    assert lv0.n_vertices == 25
    assert lv1.n_vertices == 81
    assert lv0.h_p == pytest.approx(1.0 / 5.0, rel=1e-12)
    assert lv1.h_p == pytest.approx(1.0 / 9.0, rel=1e-12)
    assert lv1.l2_velocity < lv0.l2_velocity / 2.5
    assert lv0.iterations > 0 and lv1.iterations > 0
    assert report.case == "donea-huerta"


def test_run_convergence_direct_path():
    it = run_convergence(
        donea_huerta_case(), "hybrid", n_levels=1, base=5, distortion=0.1, seed=6,
        use_direct=True,
    )
    assert it.levels[0].iterations == 0
    assert it.levels[0].converged
    km = run_convergence(
        donea_huerta_case(), "hybrid", n_levels=1, base=5, distortion=0.1, seed=6,
    )
    assert it.levels[0].l2_velocity == pytest.approx(km.levels[0].l2_velocity, rel=1e-6)


def test_run_convergence_on_level_callback():
    seen = []

    def cb(k, disc, x):
        seen.append((k, disc.n_dofs, x.shape[0]))

    run_convergence(
        shear_flow_case(), "fem", n_levels=2, base=3, distortion=0.0, seed=1, on_level=cb
    )
    assert [s[0] for s in seen] == [0, 1]
    assert all(n == m for _, n, m in seen)


def test_run_convergence_mesh_files(tmp_path):
    paths = []
    for i, n in enumerate((4, 8)):
        mesh = distort(generate_structured(n, n), 0.15, seed=40 + i)
        p = tmp_path / f"level{i}.msh"
        write_msh22(p, mesh)
        paths.append(str(p))
    report = run_convergence(donea_huerta_case(), "overlapping", mesh_files=paths)
    assert len(report.levels) == 2
    assert report.levels[0].n_vertices == 25
    assert report.levels[1].n_vertices == 81
    assert report.levels[1].h_p < report.levels[0].h_p
    assert report.levels[1].l2_velocity < report.levels[0].l2_velocity


def test_run_convergence_rejects_a_negative_seed():
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got -3"):
        run_convergence(donea_huerta_case(), "overlapping", n_levels=1, seed=-3)


@pytest.mark.parametrize("distortion", [0.5, 0.7, -0.1, float("inf"), float("nan")])
def test_run_convergence_rejects_distortion_outside_its_range(distortion):
    # 0.7 used to reach `distort`, whose message named neither the flag nor the value.
    with pytest.raises(ValueError) as info:
        run_convergence(donea_huerta_case(), "overlapping", n_levels=1, distortion=distortion)
    assert str(info.value) == f"distortion must lie in [0, 0.5), got {distortion}"


def test_run_convergence_rejects_no_levels():
    with pytest.raises(ValueError, match="at least one level"):
        run_convergence(donea_huerta_case(), "overlapping", mesh_files=[])
    with pytest.raises(ValueError, match="at least one level"):
        run_convergence(donea_huerta_case(), "overlapping", n_levels=0)


def _solved(scheme, case_factory=donea_huerta_case, n=8, seed=31):
    case = case_factory()
    mesh = case.apply_bc(distort(generate_structured(n, n), 0.2, seed=seed))
    disc = build(mesh, scheme)
    problem = case.problem()
    x = direct_solve(assemble(disc, problem))
    return disc, x, problem


@pytest.mark.parametrize("scheme", ["overlapping", "hybrid", "non-overlapping", "fem"])
def test_mass_conservation_all_schemes(scheme):
    disc, x, problem = _solved(scheme)
    audit = conservation_audit(disc, x, problem)
    assert audit.max_mass_flux > 1e-5
    assert np.max(np.abs(audit.mass_residuals)) <= 1e-12 * audit.max_mass_flux


@pytest.mark.parametrize("scheme", ["overlapping", "non-overlapping"])
def test_momentum_conservation(scheme):
    disc, x, problem = _solved(scheme)
    audit = conservation_audit(disc, x, problem)
    assert audit.momentum_interior.sum() > 0
    assert audit.momentum_audited.sum() >= audit.momentum_interior.sum()
    res = np.linalg.norm(audit.momentum_residuals, axis=1)
    assert np.max(res[audit.momentum_interior]) <= 1e-12 * audit.max_momentum_flux
    assert np.max(res[audit.momentum_audited]) <= 1e-11 * audit.max_momentum_flux


def test_hybrid_momentum_audit_skips_bubbles():
    disc, x, problem = _solved("hybrid")
    audit = conservation_audit(disc, x, problem)
    nv = disc.mesh.n_vertices
    assert audit.momentum_audited.shape[0] == nv
    res = np.linalg.norm(audit.momentum_residuals, axis=1)
    assert np.max(res[audit.momentum_interior]) <= 1e-12 * audit.max_momentum_flux


@pytest.mark.parametrize("scheme", ["overlapping", "hybrid", "non-overlapping", "fem"])
def test_absent_mass_source_equals_zero_source(scheme):
    case = donea_huerta_case()
    mesh = case.apply_bc(distort(generate_structured(8, 8), 0.2, seed=32))
    disc = build(mesh, scheme)
    absent = case.problem()
    assert absent.mass_source is None
    zero = replace(absent, mass_source=lambda p: np.zeros(np.asarray(p).shape[:-1]))
    systems = [assemble(disc, problem) for problem in (absent, zero)]
    for name in "ABC":
        M0, M1 = (getattr(s, name) for s in systems)
        for attr in ("data", "indices", "indptr"):
            assert getattr(M0, attr).tobytes() == getattr(M1, attr).tobytes()
    assert systems[0].rhs().tobytes() == systems[1].rhs().tobytes()
    x = direct_solve(systems[0])
    audits = [conservation_audit(disc, x, problem) for problem in (absent, zero)]
    assert audits[0].mass_residuals.tobytes() == audits[1].mass_residuals.tobytes()
    assert audits[0].momentum_residuals.tobytes() == audits[1].momentum_residuals.tobytes()
    boxes = np.arange(0, disc.n_pressure_dofs, 3)
    balances = [region_mass_balance(disc, x, problem, boxes) for problem in (absent, zero)]
    assert np.float64(balances[0]).tobytes() == np.float64(balances[1]).tobytes()


@pytest.mark.parametrize("scheme", ["overlapping", "hybrid", "non-overlapping", "fem"])
def test_audit_is_the_flux_row_residual(scheme):
    # The audit contracts the coefficients that assembly puts in the flux
    # rows and integrates the sources by the same rule, so at any vector it
    # reads the residual of those rows: the mass rows everywhere, the
    # momentum rows where they are flux balances.  The sources are no
    # polynomials, which no degree-6 rule integrates exactly.
    case = donea_huerta_case()
    mesh = case.apply_bc(distort(generate_structured(8, 8), 0.2, seed=34))
    disc = build(mesh, scheme)
    problem = replace(case.problem(),
                      body_force=lambda p: np.stack((np.sin(9.0 * p[..., 0]), np.exp(3.0 * p[..., 1])), axis=-1),
                      mass_source=lambda p: np.sin(9.0 * p[..., 0]) * np.cos(7.0 * p[..., 1]))
    system = assemble(disc, problem)
    x = np.random.default_rng(8).standard_normal(disc.n_dofs)
    audit = conservation_audit(disc, x, problem)
    residual = system.residual(x)
    n_u = system.n_velocity
    assert audit.max_mass_flux > 0.0
    assert np.max(np.abs(audit.mass_residuals + residual[n_u:])) <= 1e-12 * audit.max_mass_flux
    rows = audit.momentum_audited
    assert rows.any() == (scheme != "fem")
    momentum = residual[: 2 * rows.size].reshape(-1, 2)[rows]
    assert np.max(np.abs(audit.momentum_residuals[rows] + momentum), initial=0.0) <= 1e-12 * audit.max_momentum_flux


@pytest.mark.parametrize("shape", [(), (2,)], ids=["scalar", "vector"])
def test_audit_scatter_matches_add_at(shape):
    # The audit sums its fluxes by np.bincount; np.add.at is the reference,
    # equal up to the order of summation.  No ids leave the balances alone.
    rng = np.random.default_rng(11)
    ids = rng.integers(0, 7, size=(40, 3))
    values = rng.standard_normal(ids.shape + shape)
    got = rng.standard_normal((7,) + shape)
    want = got.copy()
    np.add.at(want, ids, values)
    verification._add_at(got, ids, values)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)
    verification._add_at(got, ids[:0], values[:0])
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)


def test_region_mass_balance_unions():
    disc, x, problem = _solved("overlapping", n=10, seed=33)
    audit = conservation_audit(disc, x, problem)
    scale = audit.max_mass_flux
    rng = np.random.default_rng(7)
    n_p = disc.n_pressure_dofs
    for size in (1, 5, 40, n_p):
        ids = rng.choice(n_p, size=size, replace=False)
        assert abs(region_mass_balance(disc, x, problem, ids)) <= 1e-12 * scale * max(1, size) ** 0.5


@pytest.mark.parametrize("scheme", ["overlapping", "hybrid", "non-overlapping", "fem"])
def test_region_balance_is_the_sum_of_its_box_residuals(scheme):
    # Interior faces cancel at any vector, not only at a solution.
    case = donea_huerta_case()
    disc = build(case.apply_bc(distort(generate_structured(10, 10), 0.2, seed=36)), scheme)
    problem = case.problem()
    rng = np.random.default_rng(9)
    x = rng.standard_normal(disc.n_dofs)
    audit = conservation_audit(disc, x, problem)
    n_p = disc.n_pressure_dofs
    for size in (1, 5, 40, n_p):
        ids = rng.choice(n_p, size=size, replace=False)
        got = region_mass_balance(disc, x, problem, ids)
        assert abs(got - audit.mass_residuals[ids].sum()) <= 1e-12 * audit.max_mass_flux * size ** 0.5


@pytest.mark.parametrize("scheme", ["overlapping", "hybrid", "non-overlapping", "fem"])
def test_audit_contracts_whole_slots(scheme, monkeypatch):
    # One mapping call per face row over all elements (and one for the
    # boundary segments), however large the mesh: a momentum row maps its
    # momentum and its pressure tensor, a box row its volume tensor.  The
    # momentum metric is built once per audit, for all face rows.
    calls = {"_map_vectors": 0, "_map_momentum": 0, "_momentum_metric": 0}
    for name in calls:
        def counting(*args, _name=name, _original=getattr(schemes, name)):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(schemes, name, counting)
    case = donea_huerta_case()
    spec = build(generate_structured(1, 1), scheme).scheme.spec
    rows = len(REFERENCE_FACES[spec.velocity_cvs]) if spec.flux_momentum else 0
    for n in (4, 16):
        disc = build(case.apply_bc(generate_structured(n, n)), scheme)
        x = np.random.default_rng(n).standard_normal(disc.n_dofs)
        calls.update(dict.fromkeys(calls, 0))
        conservation_audit(disc, x, case.problem())
        assert calls == {"_map_vectors": 3 + 1 + rows, "_map_momentum": rows, "_momentum_metric": min(rows, 1)}, n


@pytest.mark.parametrize("viscosity", [np.nan, 0.0, -1.0, "1"])
@pytest.mark.parametrize("scheme", ["overlapping", "fem"])
def test_audit_rejects_a_viscosity_that_assembly_rejects(scheme, viscosity):
    # fem audits no momentum, so only an up-front check sees its viscosity.
    case = donea_huerta_case()
    disc = build(case.apply_bc(generate_structured(4, 4)), scheme)
    with pytest.raises(ConfigurationError, match="viscosity must be finite and positive"):
        conservation_audit(disc, np.zeros(disc.n_dofs), replace(case.problem(), viscosity=viscosity))


def test_region_balance_of_two_boxes_telescopes():
    disc, x, problem = _solved("overlapping")
    # An adjacent pair: the balance of the union equals the sum of the two
    # box balances because the shared-face fluxes cancel exactly.
    faces = pieces(disc.pressure, "face")
    i = int(faces.inside[0])
    j = int(faces.outside[0])
    union = region_mass_balance(disc, x, problem, [i, j])
    single = region_mass_balance(disc, x, problem, [i]) + region_mass_balance(
        disc, x, problem, [j]
    )
    assert union == pytest.approx(single, abs=1e-13 * max(1.0, conservation_audit(disc, x, problem).max_mass_flux))


def test_region_mass_balance_rejects_ids_outside_the_boxes():
    # Negative ids must not wrap around to the last boxes.
    disc, x, problem = _solved("overlapping", n=4)
    n_p = disc.n_pressure_dofs
    for ids in ([-1], [0, -3], [n_p], [2, n_p + 5]):
        with pytest.raises(ValueError):
            region_mass_balance(disc, x, problem, ids)
    region_mass_balance(disc, x, problem, [0, n_p - 1])
    # Non-integer ids must not be cast: 1.5 would audit box 1, and a
    # boolean mask boxes 0 and 1.
    mask = np.zeros(n_p, dtype=bool)
    mask[[0, 1]] = True
    for ids in ([1.5], mask, np.array([0.0, 1.0])):
        with pytest.raises(ValueError, match="integers"):
            region_mass_balance(disc, x, problem, ids)
    assert region_mass_balance(disc, x, problem, np.array([0, 1], dtype=np.uint8)) == region_mass_balance(
        disc, x, problem, [0, 1]
    )


def test_momentum_audited_mask_per_scheme():
    # Flux balances are audited on every velocity control volume that is
    # not a Dirichlet row; fem has no flux balances, so nothing is audited.
    for scheme in ("overlapping", "non-overlapping", "hybrid", "fem"):
        disc, x, problem = _solved(scheme, n=4)
        audit = conservation_audit(disc, x, problem)
        mesh = disc.mesh
        n_cv = mesh.n_vertices + (mesh.n_elements if scheme.endswith("overlapping") else 0)
        assert audit.momentum_audited.shape == (n_cv,)
        want = np.full(n_cv, scheme != "fem")
        want[mesh.dirichlet_vertices()] = False
        assert np.array_equal(audit.momentum_audited, want), scheme
        assert not np.any(audit.momentum_interior & ~audit.momentum_audited)
        if scheme == "fem":
            assert not np.any(audit.momentum_residuals)
            assert audit.max_momentum_flux == 0.0


@pytest.mark.parametrize("use_direct", [False, True], ids=["gmres", "direct"])
def test_run_convergence_frees_each_level_before_the_next(use_direct, monkeypatch):
    # Each level's system (with its elimination and preconditioner) is gone
    # before the next level is assembled, so levels do not stack up in memory.
    alive, systems = [], []

    def tracking(disc, problem):
        alive.append([ref() is not None for ref in systems])
        system = assemble(disc, problem)
        systems.append(weakref.ref(system))
        return system

    monkeypatch.setattr(verification, "assemble", tracking)
    run_convergence(donea_huerta_case(), "overlapping", n_levels=3, base=3, use_direct=use_direct)
    assert alive == [[], [False], [False, False]]


@pytest.mark.parametrize("offset", [-3, -5, 2])
@pytest.mark.parametrize("call", ["conservation_audit", "error_norms", "region_mass_balance", "write_vtu"])
def test_solution_of_the_wrong_length_is_rejected(call, offset, tmp_path):
    case = donea_huerta_case()
    problem = case.problem()
    disc = build(case.apply_bc(generate_structured(4, 4)), "overlapping")
    x = np.zeros(disc.n_dofs + offset)
    path = tmp_path / "solution.vtu"
    calls = {
        "conservation_audit": lambda: conservation_audit(disc, x, problem),
        "error_norms": lambda: error_norms(disc, x, case),
        "region_mass_balance": lambda: region_mass_balance(disc, x, problem, [0, 1, 2]),
        "write_vtu": lambda: write_vtu(disc, x, str(path)),
    }
    with pytest.raises(ValueError, match=rf"\({x.size},\).* {disc.n_dofs} unknowns"):
        calls[call]()
    assert not path.exists()
