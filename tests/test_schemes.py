"""Flux evaluation and saddle-point assembly for the four schemes."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from conftest import random_distorted_mesh, single_triangle_mesh
from cvstokes import schemes
from cvstokes.basis import barycentric, eval_physical, eval_reference, segment_rule, triangle_rule
from cvstokes.geometry import build, build_overlapping
from cvstokes.mesh import BCKind, distort, generate_structured
from cvstokes.schemes import (
    SOURCE_QUAD_DEGREE,
    ConfigurationError,
    StokesProblem,
    _galerkin_momentum,
    assemble,
    basis_at,
    face_fluxes,
    split_solution,
)
from cvstokes.verification import donea_huerta_case, shear_flow_case

SCHEMES = ("overlapping", "non-overlapping", "hybrid", "fem")

MIXED = {"right": BCKind.NEUMANN, "top": BCKind.NEUMANN}


def interpolate(disc, field):
    """Nodal interpolation: vertex values plus centroid values for bubbles."""
    vel = np.zeros((disc.n_velocity_locations, 2))
    vel[: disc.mesh.n_vertices] = field(disc.mesh.vertices)
    vel[disc.mesh.n_vertices :] = field(disc.elements.centroids)
    return vel


def test_basis_at_matches_eval_physical():
    mesh = random_distorted_mesh(2, n=3)
    el = disc_el = None
    disc = build(mesh, "fem")
    el = disc.elements
    e = 4
    coords = el.coords[e]
    pts = coords.mean(axis=0) + 0.1 * (coords[:2] - coords.mean(axis=0))
    vals, grads, hats = basis_at(el, np.full(2, e), pts)
    ref = eval_physical(coords, pts)
    assert np.allclose(vals, ref.values, atol=1e-13)
    assert np.allclose(grads, ref.gradients, atol=1e-11)
    assert np.allclose(hats.sum(axis=1), 1.0, atol=1e-14)


def test_split_solution():
    disc = build(generate_structured(2, 2), "fem")
    x = np.arange(disc.n_dofs, dtype=float)
    vel, pres = split_solution(disc, x)
    assert vel.shape == (disc.n_velocity_locations, 2)
    assert pres.shape == (disc.n_pressure_dofs,)
    assert vel[3, 1] == 7.0
    assert pres[0] == 2 * disc.n_velocity_locations


def test_momentum_flux_uniaxial_strain():
    mesh = random_distorted_mesh(5, n=3)
    disc = build(mesh, "overlapping")
    mu = 0.7
    vel = interpolate(disc, lambda p: np.stack((p[..., 0], np.zeros(p.shape[:-1])), axis=-1))
    pres = np.zeros(disc.n_pressure_dofs)
    vset = disc.velocity
    _, got = face_fluxes(disc, vset, mu, vel, pres)
    n = vset.face_normal
    want = -2.0 * mu * vset.face_length[:, None] * np.column_stack((n[:, 0], np.zeros(vset.n_faces)))
    assert np.allclose(got, want, atol=1e-13)


def test_momentum_flux_shear():
    mesh = random_distorted_mesh(6, n=3)
    disc = build(mesh, "non-overlapping")
    mu = 1.3
    vel = interpolate(disc, lambda p: np.stack((p[..., 1], np.zeros(p.shape[:-1])), axis=-1))
    pres = np.zeros(disc.n_pressure_dofs)
    vset = disc.velocity
    _, got = face_fluxes(disc, vset, mu, vel, pres)
    want = -mu * vset.face_length[:, None] * vset.face_normal[:, ::-1]
    assert np.allclose(got, want, atol=1e-13)


def test_momentum_flux_linear_pressure():
    mesh = random_distorted_mesh(7, n=3)
    disc = build(mesh, "overlapping")
    vel = np.zeros((disc.n_velocity_locations, 2))
    pres = 2.0 * mesh.vertices[:, 0] - mesh.vertices[:, 1]
    vset = disc.velocity
    _, got = face_fluxes(disc, vset, 1.0, vel, pres)
    mid = 0.5 * (vset.face_a + vset.face_b)
    want = ((2.0 * mid[:, 0] - mid[:, 1]) * vset.face_length)[:, None] * vset.face_normal
    assert np.allclose(got, want, atol=1e-13)


def test_mass_flux_linear_field():
    mesh = random_distorted_mesh(8, n=3)
    disc = build(mesh, "overlapping")
    vel = interpolate(disc, lambda p: np.stack((p[..., 0], 3.0 * np.ones(p.shape[:-1])), axis=-1))
    vset = disc.velocity
    got, _ = face_fluxes(disc, vset, 1.0, vel, np.zeros(disc.n_pressure_dofs))
    mid = 0.5 * (vset.face_a + vset.face_b)
    n = vset.face_normal
    want = vset.face_length * (mid[:, 0] * n[:, 0] + 3.0 * n[:, 1])
    assert np.allclose(got, want, rtol=0.0, atol=1e-13)


def test_mass_flux_bubble_mode_dense_oracle():
    # On the one-element reference mesh the bubble is 27 x y (1 - x - y);
    # its mass and momentum fluxes through the medial faces have closed
    # dense-quadrature values.  With v = (phi, 0) and zero pressure the
    # momentum flux density is -mu (2 phi_x n_x + phi_y n_y, phi_y n_x).
    mesh = single_triangle_mesh()
    disc = build(mesh, "overlapping")
    mu = 0.9
    vel = np.zeros((disc.n_velocity_locations, 2))
    vel[3] = (1.0, 0.0)  # bubble coefficient, x component
    vset = disc.velocity
    massf, momf = face_fluxes(disc, vset, mu, vel, np.zeros(disc.n_pressure_dofs))
    t, w = np.polynomial.legendre.leggauss(24)
    t = 0.5 * (t + 1.0)
    w = 0.5 * w
    bubble_faces = np.flatnonzero(vset.face_inside == 3)
    assert bubble_faces.size == 3
    for i in range(vset.n_faces):
        a, b = vset.face_a[i], vset.face_b[i]
        n, length = vset.face_normal[i], vset.face_length[i]
        pts = a[None, :] + t[:, None] * (b - a)[None, :]
        x, y = pts[:, 0], pts[:, 1]
        phi = 27.0 * x * y * (1.0 - x - y)
        phi_x = 27.0 * y * (1.0 - 2.0 * x - y)
        phi_y = 27.0 * x * (1.0 - x - 2.0 * y)
        want_mass = length * np.sum(w * phi) * n[0]
        want_mom = -mu * length * np.array(
            [np.sum(w * (2.0 * phi_x * n[0] + phi_y * n[1])), np.sum(w * phi_y) * n[0]]
        )
        assert massf[i] == pytest.approx(want_mass, abs=1e-14)
        assert np.allclose(momf[i], want_mom, rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_interpolated_shear_has_zero_residual(scheme):
    case = shear_flow_case(viscosity=2.0)
    mesh = case.apply_bc(random_distorted_mesh(11, n=4))
    disc = build(mesh, scheme)
    system = assemble(disc, case.problem())
    x = np.concatenate(
        (interpolate(disc, case.velocity).ravel(), case.pressure(mesh.vertices))
    )
    res = system.residual(x)
    assert np.max(np.abs(res)) < 1e-12


def test_flux_rows_balance_constant_source():
    # With a constant body force and mass source, every flux-balance row
    # evaluated at arbitrary coefficients must equal the recomputed net
    # face flux minus source * volume.
    mesh = random_distorted_mesh(13, n=4).with_bc(MIXED)
    disc = build(mesh, "overlapping")
    c = np.array([0.4, -1.1])
    g = 0.8
    problem = StokesProblem(
        viscosity=1.7,
        body_force=lambda p: np.broadcast_to(c, np.asarray(p).shape).copy(),
        mass_source=lambda p: np.full(np.asarray(p).shape[:-1], g),
    )
    system = assemble(disc, problem)
    rng = np.random.default_rng(2)
    x = rng.standard_normal(disc.n_dofs)
    vel, pres = split_solution(disc, x)

    vset = disc.velocity
    massf, momf = face_fluxes(disc, vset, problem.viscosity, vel, pres)
    vols = vset.cv_volumes()
    net = np.zeros((vset.n_cvs, 2))
    np.add.at(net, vset.face_inside, momf)
    sel = vset.face_outside >= 0
    np.subtract.at(net, vset.face_outside[sel], momf[sel])

    res_u = system.A @ x[: system.n_velocity] + system.B @ pres - system.rhs_momentum
    has_seg = np.zeros(vset.n_cvs, dtype=bool)
    has_seg[vset.seg_cv] = True
    dirichlet = np.zeros(vset.n_cvs, dtype=bool)
    dirichlet[mesh.dirichlet_vertices()] = True
    for i in np.flatnonzero(~has_seg & ~dirichlet):
        want = net[i] - c * vols[i]
        assert np.allclose(res_u[2 * i : 2 * i + 2], want, atol=1e-11)

    pset = disc.pressure
    massp, _ = face_fluxes(disc, pset, problem.viscosity, vel, pres)
    netp = np.zeros(pset.n_cvs)
    np.add.at(netp, pset.face_inside, massp)
    np.subtract.at(netp, pset.face_outside, massp)
    res_p = system.C @ x[: system.n_velocity] - system.rhs_mass
    pvols = pset.cv_volumes()
    has_seg_p = np.zeros(pset.n_cvs, dtype=bool)
    has_seg_p[pset.seg_cv] = True
    for j in np.flatnonzero(~has_seg_p):
        assert res_p[j] == pytest.approx(netp[j] - g * pvols[j], abs=1e-11)


def test_mass_rows_telescope_to_boundary_flux():
    mesh = random_distorted_mesh(14, n=5).with_bc(MIXED)
    disc = build(mesh, "hybrid")
    system = assemble(disc, StokesProblem(viscosity=1.0))
    rng = np.random.default_rng(3)
    u = rng.standard_normal(2 * disc.n_velocity_locations)
    vel = u.reshape(-1, 2)

    total = float(np.sum(system.C @ u))
    pset = disc.pressure
    t, w = np.polynomial.legendre.leggauss(6)
    t = 0.5 * (t + 1.0)
    w = 0.5 * w
    boundary = 0.0
    for i in range(pset.n_segments):
        a, b, e = pset.seg_a[i], pset.seg_b[i], pset.seg_element[i]
        pts = a[None, :] + t[:, None] * (b - a)[None, :]
        vals, _, _ = basis_at(disc.elements, np.full(t.size, e), pts)
        vh = vals @ vel[disc.element_velocity_dofs()[e]]
        boundary += pset.seg_length[i] * np.sum(w * (vh @ pset.seg_normal[i]))
    assert total == pytest.approx(boundary, abs=1e-11)


def test_hybrid_bubble_rows_match_fem():
    mesh = random_distorted_mesh(15, n=4).with_bc(MIXED)
    case_problem = StokesProblem(
        viscosity=0.6,
        body_force=lambda p: np.stack(
            (np.sin(p[..., 0]), np.cos(p[..., 1])), axis=-1
        ),
    )
    hybrid = assemble(build(mesh, "hybrid"), case_problem)
    fem = assemble(build(mesh, "fem"), case_problem)
    nv = mesh.n_vertices
    rows = np.arange(2 * nv, 2 * (nv + mesh.n_elements))
    dA = (hybrid.A[rows] - fem.A[rows]).toarray()
    dB = (hybrid.B[rows] - fem.B[rows]).toarray()
    assert np.max(np.abs(dA)) < 1e-14
    assert np.max(np.abs(dB)) < 1e-14
    assert np.allclose(hybrid.rhs_momentum[rows], fem.rhs_momentum[rows], atol=1e-14)


def _galerkin_oracle(disc, mu, tests):
    """Galerkin element matrices contracted at every quadrature point."""
    el = disc.elements
    rule = triangle_rule(SOURCE_QUAD_DEGREE)
    ev = eval_reference(rule.points)
    lam = barycentric(rule.points)
    G = np.einsum("qbi,eia->eqba", ev.gradients, el.inv_jacobians)
    wdet = rule.weights[None, :] * (2.0 * el.areas)[:, None]
    Gt = G[:, :, list(tests), :]
    dot = np.einsum("eq,eqbi,eqti->etb", wdet, G, Gt)
    term2 = np.einsum("eq,eqba,eqtk->etabk", wdet, G, Gt)
    Apair = mu * (dot[:, :, None, :, None] * np.eye(2)[None, None, :, None, :] + term2)
    Bpair = -np.einsum("eq,qj,eqta->etaj", wdet, lam, Gt)
    return Apair, Bpair


@pytest.mark.parametrize("tests", [(3,), (0, 1, 2, 3)], ids=["bubble", "all"])
def test_galerkin_reference_tensors_match_quadrature_oracle(tests):
    mesh = distort(generate_structured(6, 5), 0.2, seed=12).with_bc(MIXED)
    disc = build(mesh, "fem")
    mu = 1.7
    outA, outB = ([], [], []), ([], [], [])
    problem = StokesProblem(viscosity=mu)
    _galerkin_momentum(disc, problem, tests, outA, outB, np.zeros((disc.n_velocity_locations, 2)))
    Apair, Bpair = _galerkin_oracle(disc, mu, tests)
    # One entry per (element, test, component, trial, component), in that order.
    for got, want in ((outA[2][0], Apair), (outB[2][0], Bpair)):
        assert got.shape == (want.size,)
        assert np.max(np.abs(got - want.ravel())) <= 1e-13 * np.max(np.abs(want))


def _flux_momentum_entries_oracle(disc, cvset, mu, outA, outB):
    """Momentum flux-balance entries contracted at every face quadrature point."""
    e = cvset.face_element
    dofcols = disc.element_velocity_dofs()[e]
    _, grads, hats = basis_at(disc.elements, e[:, None], cvset.face_qpoints)
    n = cvset.face_normal
    w = cvset.face_qweights
    gn = np.einsum("fqba,fa->fqb", grads, n)
    term1 = np.einsum("fq,fqb->fb", w, gn)
    term2 = np.einsum("fq,fqba,fk->fbak", w, grads, n)
    Apair = -mu * (term1[:, :, None, None] * np.eye(2)[None, None] + term2)
    Bpair = np.einsum("fq,fqj,fa->fja", w, hats, n)
    tris = disc.mesh.triangles[e]
    out = cvset.face_outside >= 0
    for sel, row_cv, sign in ((slice(None), cvset.face_inside, 1.0), (out, cvset.face_outside[out], -1.0)):
        rows = (2 * row_cv)[:, None, None] + np.arange(2)
        cols = (2 * dofcols[sel])[:, :, None] + np.arange(2)
        schemes._append(outA, rows[..., None], cols[:, :, None], sign * Apair[sel])
        schemes._append(outB, rows, tris[sel][:, :, None], sign * Bpair[sel])


def _mass_entries_oracle(disc, cvset, outC):
    """Mass flux-balance entries contracted at every face and segment quadrature point."""
    eldofs = disc.element_velocity_dofs()
    pieces = [
        (cvset.face_element, cvset.face_qpoints, cvset.face_qweights, cvset.face_normal, cvset.face_inside, 1.0)
    ]
    out = cvset.face_outside >= 0
    pieces.append(
        (cvset.face_element[out], cvset.face_qpoints[out], cvset.face_qweights[out],
         cvset.face_normal[out], cvset.face_outside[out], -1.0)
    )
    pieces.append((cvset.seg_element, cvset.seg_qpoints, cvset.seg_qweights, cvset.seg_normal, cvset.seg_cv, 1.0))
    for e, qpoints, w, n, row_cv, sign in pieces:
        vals, _, _ = basis_at(disc.elements, e[:, None], qpoints)
        pair = np.einsum("fq,fqb,fk->fbk", w, vals, n)
        cols = (2 * eldofs[e])[:, :, None] + np.arange(2)[None, None, :]
        schemes._append(outC, row_cv[:, None, None], cols, sign * pair)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_flux_entries_match_quadrature_point_oracle(scheme, monkeypatch):
    # The reference-piece averages agree with mapping every face quadrature
    # point back to its element, up to the rounding of that mapping.
    mesh = distort(generate_structured(20, 20), 0.2, seed=19).with_bc(MIXED)
    disc = build(mesh, scheme)
    problem = StokesProblem(viscosity=1.7)
    got = assemble(disc, problem)
    monkeypatch.setattr(schemes, "_flux_momentum_entries", _flux_momentum_entries_oracle)
    monkeypatch.setattr(schemes, "_mass_entries", _mass_entries_oracle)
    want = assemble(disc, problem)
    for name in "ABC":
        G, W = getattr(got, name), getattr(want, name)
        assert abs(G - W).max() <= 1e-13 * abs(W).max(), name


@pytest.mark.parametrize("pinned", [False, True], ids=["mixed", "pinned"])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_assembled_blocks_store_no_zeros(scheme, pinned):
    mesh = distort(generate_structured(12, 12), 0.2, seed=20)   # all Dirichlet
    if not pinned:
        mesh = mesh.with_bc(MIXED)
    problem = StokesProblem(viscosity=1.0)
    system = assemble(build(mesh, scheme), problem, pin_pressure=0 if pinned else None)
    for name in "ABC":
        M = getattr(system, name)
        assert np.count_nonzero(M.data) == M.nnz, name


def _neumann_galerkin_rhs_oracle(disc, problem, rhs_u):
    """Traction tested with the vertex hat traces, integrated over whole facets."""
    mesh = disc.mesh
    neu = np.array([k is BCKind.NEUMANN for k in mesh.facet_kinds()])
    facets = mesh.boundary_facets[neu]
    va = mesh.vertices[facets[:, 0]]
    vb = mesh.vertices[facets[:, 1]]
    d = vb - va
    length = np.linalg.norm(d, axis=1)
    normal = np.stack((d[:, 1], -d[:, 0]), axis=-1) / length[:, None]
    rule = segment_rule(schemes.NEUMANN_QUAD_DEGREE)
    pts = va[:, None, :] + rule.points[None, :, None] * d[:, None, :]
    w = rule.weights[None, :] * length[:, None]
    nn = np.broadcast_to(normal[:, None, :], pts.shape)
    tn = np.asarray(problem.neumann(pts.reshape(-1, 2), nn.reshape(-1, 2)), dtype=float)
    tn = tn.reshape(pts.shape)
    contrib_a = np.einsum("sq,q,sqk->sk", w, 1.0 - rule.points, tn)
    contrib_b = np.einsum("sq,q,sqk->sk", w, rule.points, tn)
    for verts, contrib in ((facets[:, 0], contrib_a), (facets[:, 1], contrib_b)):
        np.add.at(rhs_u, 2 * verts, -contrib[:, 0])
        np.add.at(rhs_u, 2 * verts + 1, -contrib[:, 1])


def test_fem_traction_load_matches_whole_facet_oracle():
    # Half-segment hat integrals against the whole-facet rule: both are
    # exact to quadrature error for the smooth Donea-Huerta traction.
    case = donea_huerta_case()
    mesh = case.apply_bc(distort(generate_structured(20, 20), 0.2, seed=23))
    disc = build(mesh, "fem")
    problem = case.problem()
    got = assemble(disc, problem).rhs_momentum
    bare = assemble(disc, dataclasses.replace(problem, neumann=schemes._zero_traction))
    want = bare.rhs_momentum.copy()
    _neumann_galerkin_rhs_oracle(disc, problem, want)
    want[bare.dirichlet_dofs] = bare.rhs_momentum[bare.dirichlet_dofs]
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_fem_traction_load_is_exact_for_linear_traction():
    # For a traction linear along a facet of length L from v to w, the
    # hat of v takes L (2 t_v + t_w) / 6.
    mesh = distort(generate_structured(8, 8), 0.2, seed=24).with_bc(MIXED)

    def traction(p, n):
        x, y = p[..., 0], p[..., 1]
        return np.stack((1.0 + 2.0 * x - y + 0.5 * n[..., 0], -0.5 + x + 3.0 * y), axis=-1)

    system = assemble(build(mesh, "fem"), StokesProblem(viscosity=1.0, neumann=traction))
    want = np.zeros((mesh.n_vertices + mesh.n_elements, 2))
    for a, b in mesh.boundary_facets[mesh.facet_kinds() == BCKind.NEUMANN]:
        d = mesh.vertices[b] - mesh.vertices[a]
        length = np.linalg.norm(d)
        n = np.array([d[1], -d[0]]) / length
        ta, tb = traction(mesh.vertices[a], n), traction(mesh.vertices[b], n)
        want[a] -= length * (2.0 * ta + tb) / 6.0
        want[b] -= length * (2.0 * tb + ta) / 6.0
    want[mesh.dirichlet_vertices()] = 0.0      # rows of the zero Dirichlet data
    assert np.max(np.abs(system.rhs_momentum - want.ravel())) <= 1e-14


def test_traction_hat_integrals_split_plain_integrals():
    case = donea_huerta_case()
    mesh = case.apply_bc(distort(generate_structured(10, 10), 0.2, seed=25))
    disc = build(mesh, "overlapping")
    plain, hats = schemes.segment_tractions(disc, case.problem())
    scale = np.max(np.abs(plain))
    assert scale > 0.0
    assert np.max(np.abs(hats.sum(axis=1) - plain)) <= 1e-14 * scale
    # The element vertex off the segment's edge has a zero hat there.
    edge = (disc.pressure.seg_slot - 6) // 2
    off = hats[np.arange(edge.size), (edge + 2) % 3]
    assert np.max(np.abs(off)) <= 1e-15 * scale


@pytest.mark.parametrize("viscosity", [0.0, np.nan, np.inf, -1.0])
def test_assemble_rejects_viscosity_not_finite_and_positive(viscosity):
    mesh = generate_structured(3, 3).with_bc(MIXED)
    with pytest.raises(ConfigurationError, match="viscosity"):
        assemble(build(mesh, "fem"), StokesProblem(viscosity=viscosity))


def test_fem_velocity_block_spd_on_free_dofs():
    mesh = generate_structured(3, 3).with_bc(MIXED)
    disc = build(mesh, "fem")
    system = assemble(disc, StokesProblem(viscosity=1.0))
    free = np.setdiff1d(np.arange(system.n_velocity), system.dirichlet_dofs)
    Af = system.A.toarray()[np.ix_(free, free)]
    assert np.max(np.abs(Af - Af.T)) < 1e-13
    assert np.min(np.linalg.eigvalsh(0.5 * (Af + Af.T))) > 0.0


def test_bubble_pressure_rows_annihilate_constants():
    # A Galerkin bubble momentum row integrates p div(phi_E e_a); for
    # constant pressure this vanishes because the bubble has zero trace.
    mesh = random_distorted_mesh(16, n=3).with_bc(MIXED)
    for scheme in ("hybrid", "fem"):
        system = assemble(build(mesh, scheme), StokesProblem(viscosity=1.0))
        nv = mesh.n_vertices
        rows = system.B[2 * nv : 2 * (nv + mesh.n_elements)]
        sums = np.asarray(rows.sum(axis=1)).ravel()
        assert np.max(np.abs(sums)) < 1e-14


def test_dirichlet_rows_are_identity():
    case = shear_flow_case()
    mesh = case.apply_bc(random_distorted_mesh(17, n=3))
    disc = build(mesh, "overlapping")
    system = assemble(disc, case.problem())
    A = system.A.tocsr()
    for d in system.dirichlet_dofs:
        row = A[d]
        assert row.nnz == 1
        assert row[0, d] == 1.0
        assert system.B[d].nnz == 0
    dverts = mesh.dirichlet_vertices()
    want = case.velocity(mesh.vertices[dverts]).ravel()
    got = np.stack(
        (system.rhs_momentum[2 * dverts], system.rhs_momentum[2 * dverts + 1]), axis=1
    ).ravel()
    assert np.allclose(got, want, atol=1e-15)


def test_all_dirichlet_needs_pressure_pin():
    mesh = random_distorted_mesh(18, n=3)  # default markers are all Dirichlet
    disc = build(mesh, "overlapping")
    problem = StokesProblem(viscosity=1.0, dirichlet=lambda p: np.zeros_like(p))
    with pytest.raises(ConfigurationError):
        assemble(disc, problem)
    system = assemble(disc, problem, pin_pressure=0)
    x = spla.spsolve(system.matrix().tocsc(), system.rhs())
    assert np.isfinite(x).all()
    _, pres = split_solution(disc, x)
    assert abs(pres[0]) < 1e-12
    assert system.C[0].nnz == 0
    row = system.matrix()[system.n_velocity]
    assert row.nnz == 1
    assert row[0, system.n_velocity] == 1.0
    with pytest.raises(ConfigurationError):
        assemble(disc, problem, pin_pressure=disc.n_pressure_dofs + 3)


def test_system_shapes_and_matrix_cache():
    mesh = generate_structured(2, 2).with_bc(MIXED)
    disc = build(mesh, "non-overlapping")
    system = assemble(disc, StokesProblem(viscosity=1.0))
    J = system.matrix()
    assert J.shape == (disc.n_dofs, disc.n_dofs)
    assert system.matrix() is J
    assert system.n_velocity == 2 * disc.n_velocity_locations
    assert system.n_pressure == disc.n_pressure_dofs
    assert system.rhs().shape == (disc.n_dofs,)
