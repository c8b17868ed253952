"""Flux evaluation and saddle-point assembly for the four schemes."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from conftest import random_distorted_mesh, single_triangle_mesh
from oracles import (
    FAN_RULES,
    basis_at,
    closure_system,
    coo_blocks,
    cv_integrals,
    eval_physical,
    face_fluxes,
    galerkin_blocks,
    monomial_integral_triangle,
    package_blocks,
    piece_fluxes,
    pieces,
    quadrature_blocks,
    sub_volumes,
    two_pass_rhs_momentum,
)
from cvstokes import geometry, schemes
from cvstokes.basis import barycentric, segment_rule, triangle_rule
from cvstokes.geometry import REFERENCE_FACES, SEGMENT_OWNERS, SchemeKind, build
from cvstokes.mesh import BCKind, distort, generate_structured, validate
from cvstokes.schemes import (
    SOURCE_QUAD_DEGREE,
    ConfigurationError,
    StokesProblem,
    assemble,
    split_solution,
)
from cvstokes.solver import assemble_pressure_mass
from cvstokes.verification import conservation_audit, donea_huerta_case, error_norms, shear_flow_case

SCHEMES = ("overlapping", "non-overlapping", "hybrid", "fem")

MIXED = {"right": BCKind.NEUMANN, "top": BCKind.NEUMANN}


def interpolate(disc, field):
    """Nodal interpolation: vertex values plus centroid values for bubbles."""
    vel = np.zeros((disc.n_velocity_locations, 2))
    vel[: disc.mesh.n_vertices] = field(disc.mesh.vertices)
    vel[disc.mesh.n_vertices :] = field(disc.elements.coords.mean(axis=1))
    return vel


def kernel_fluxes(disc, cvset, kind, viscosity, velocity, pressure):
    """Mass (P,) and momentum (P, 2) fluxes through the faces ("face") or
    boundary segments ("seg") of a CV set: each slot's reference tensors
    mapped by its pieces' elements and contracted with the solution, the
    kernel that the assembly and the audit share."""
    piece = pieces(cvset, kind)
    el = disc.elements
    mass, momentum = np.empty(piece.slot.size), np.empty((piece.slot.size, 2))
    for slot in np.unique(piece.slot):
        at = piece.slot == slot
        e = piece.element[at]
        u, p = velocity[disc.element_velocity_dofs()[e]], pressure[disc.mesh.triangles[e]]
        mass[at] = np.einsum("pbk,pbk->p", schemes._map_vectors(el, schemes._SLOT_VOLUME[slot], e), u)
        a = schemes._map_momentum(schemes._momentum_metric(el, viscosity, e), schemes._SLOT_MOMENTUM[[slot]])[0]
        b = schemes._map_vectors(el, schemes._SLOT_PRESSURE[slot], e)
        momentum[at] = np.einsum("pbak,pbk->pa", a, u) + np.einsum("pja,pj->pa", b, p)
    return mass, momentum


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
    _, got = kernel_fluxes(disc, vset, "face", mu, vel, pres)
    faces = pieces(vset, "face")
    n = faces.normal
    want = -2.0 * mu * faces.length[:, None] * np.column_stack((n[:, 0], np.zeros(vset.n_faces)))
    assert np.allclose(got, want, atol=1e-13)


def test_momentum_flux_shear():
    mesh = random_distorted_mesh(6, n=3)
    disc = build(mesh, "non-overlapping")
    mu = 1.3
    vel = interpolate(disc, lambda p: np.stack((p[..., 1], np.zeros(p.shape[:-1])), axis=-1))
    pres = np.zeros(disc.n_pressure_dofs)
    vset = disc.velocity
    _, got = kernel_fluxes(disc, vset, "face", mu, vel, pres)
    faces = pieces(vset, "face")
    want = -mu * faces.length[:, None] * faces.normal[:, ::-1]
    assert np.allclose(got, want, atol=1e-13)


def test_momentum_flux_linear_pressure():
    mesh = random_distorted_mesh(7, n=3)
    disc = build(mesh, "overlapping")
    vel = np.zeros((disc.n_velocity_locations, 2))
    pres = 2.0 * mesh.vertices[:, 0] - mesh.vertices[:, 1]
    vset = disc.velocity
    _, got = kernel_fluxes(disc, vset, "face", 1.0, vel, pres)
    faces = pieces(vset, "face")
    mid = 0.5 * (faces.a + faces.b)
    want = ((2.0 * mid[:, 0] - mid[:, 1]) * faces.length)[:, None] * faces.normal
    assert np.allclose(got, want, atol=1e-13)


def test_mass_flux_linear_field():
    mesh = random_distorted_mesh(8, n=3)
    disc = build(mesh, "overlapping")
    vel = interpolate(disc, lambda p: np.stack((p[..., 0], 3.0 * np.ones(p.shape[:-1])), axis=-1))
    vset = disc.velocity
    got, _ = kernel_fluxes(disc, vset, "face", 1.0, vel, np.zeros(disc.n_pressure_dofs))
    faces = pieces(vset, "face")
    mid = 0.5 * (faces.a + faces.b)
    n = faces.normal
    want = faces.length * (mid[:, 0] * n[:, 0] + 3.0 * n[:, 1])
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
    massf, momf = kernel_fluxes(disc, vset, "face", mu, vel, np.zeros(disc.n_pressure_dofs))
    t, w = np.polynomial.legendre.leggauss(24)
    t = 0.5 * (t + 1.0)
    w = 0.5 * w
    faces = pieces(vset, "face")
    assert np.sum(faces.inside == 3) == 3
    for i in range(vset.n_faces):
        a, b = faces.a[i], faces.b[i]
        n, length = faces.normal[i], faces.length[i]
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


@pytest.mark.parametrize("scheme", ["fem", "non-overlapping", "overlapping"],
                         ids=["boxes", "non-overlapping", "overlapping"])
def test_face_and_segment_fluxes_match_pointwise_oracle(scheme):
    # The reference-piece coefficients contracted with a solution give the
    # fluxes of v_h and (-2 mu D(v_h) + p_h I) evaluated at the Gauss points
    # of every face and boundary segment, up to the rounding of the mapping.
    mesh = distort(generate_structured(20, 20), 0.2, seed=29)
    disc = build(mesh, scheme)
    rng = np.random.default_rng(6)
    vel = rng.standard_normal((disc.n_velocity_locations, 2))
    pres = rng.standard_normal(disc.n_pressure_dofs)
    for kind in ("face", "seg"):
        got = kernel_fluxes(disc, disc.velocity, kind, 1.3, vel, pres)
        want = piece_fluxes(disc, pieces(disc.velocity, kind), 1.3, vel, pres)
        for g, w in zip(got, want):
            assert g.shape == w.shape
            assert np.max(np.abs(g - w)) <= 1e-13 * np.max(np.abs(w)), kind


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
    faces = pieces(vset, "face")
    vols = vset.cv_volumes()
    net = np.zeros((vset.n_cvs, 2))
    np.add.at(net, faces.inside, momf)
    sel = faces.outside >= 0
    np.subtract.at(net, faces.outside[sel], momf[sel])

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
    pfaces = pieces(pset, "face")
    netp = np.zeros(pset.n_cvs)
    np.add.at(netp, pfaces.inside, massp)
    np.subtract.at(netp, pfaces.outside, massp)
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
    segs = pieces(pset, "seg")
    for i in range(pset.n_segments):
        a, b, e = segs.a[i], segs.b[i], pset.seg_element[i]
        pts = a[None, :] + t[:, None] * (b - a)[None, :]
        vals, _, _ = basis_at(disc.elements, np.full(t.size, e), pts)
        vh = vals @ vel[disc.element_velocity_dofs()[e]]
        boundary += segs.length[i] * np.sum(w * (vh @ segs.normal[i]))
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


@pytest.mark.parametrize("scheme", ["hybrid", "fem"], ids=["bubble", "all"])
def test_galerkin_reference_tensors_match_quadrature_oracle(scheme):
    mesh = distort(generate_structured(6, 5), 0.2, seed=12).with_bc(MIXED)
    disc = build(mesh, scheme)
    mu = 1.7
    tests = list(disc.scheme.spec.galerkin_tests)
    K, L = schemes._SCHEME_TENSORS[disc.scheme]
    A = schemes._map_momentum(schemes._momentum_metric(disc.elements, mu), K[tests])
    B = schemes._map_vectors(disc.elements, L[tests][:, None])
    # The blocks are laid out [test, element, trial, comp, ...].
    for got, want in zip((A, B), galerkin_blocks(disc, mu, tests)):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("scheme", SCHEMES)
def test_flux_entries_match_quadrature_point_oracle(scheme):
    # The scheme's reference tensors mapped by each element agree with the
    # basis contracted at every quadrature point of the elements, faces and
    # segments, up to the rounding of that mapping.
    mesh = distort(generate_structured(20, 20), 0.2, seed=19).with_bc(MIXED)
    disc = build(mesh, scheme)
    problem = StokesProblem(viscosity=1.7)
    got = assemble(disc, problem)
    for name, W in zip("ABC", coo_blocks(disc, quadrature_blocks(disc, problem.viscosity))):
        G = getattr(got, name)
        assert abs(G - W).max() <= 1e-13 * abs(W).max(), name


def _flux_rows(spec):
    """The momentum rows of a scheme that are flux balances."""
    return [t for t in range(4) if t not in spec.galerkin_tests]


def _owner_sum_defect(family, tensor, rows):
    """How far the flux rows of a family's owner tensor are from their sum,
    relative to its largest entry: every face enters one owner and leaves
    another, so the rows sum to nothing where the volumes tile the domain
    and to the medial (bubble) row where the medial triangles overlap the
    boxes and their faces leave no owner."""
    total = tensor[rows].sum(axis=0) - (tensor[3] if family == "overlapping" else 0.0)
    return np.max(np.abs(total)) / np.max(np.abs(tensor))


@pytest.mark.parametrize("scheme", SCHEMES)
def test_reference_tensors_keep_their_invariants(scheme):
    kind = SchemeKind.parse(scheme)
    K, L = schemes._SCHEME_TENSORS[kind]
    # A constant velocity has no momentum flux and no Galerkin residual: the
    # trial functions sum to one, so every row sums to zero over its trials,
    # and so does every mapped element block.
    assert np.max(np.abs(K.sum(axis=1))) <= 1e-15 * np.max(np.abs(K))
    A = schemes._map_momentum(schemes._momentum_metric(build(random_distorted_mesh(27, n=3), scheme).elements, 0.8), K)
    assert np.max(np.abs(A.sum(axis=2))) <= 1e-14 * np.max(np.abs(A))
    rows = _flux_rows(kind.spec)
    for tensor in (K, L) if rows else ():
        assert _owner_sum_defect(kind.spec.velocity_cvs, tensor, rows) <= 1e-15
    assert _owner_sum_defect("boxes", schemes._BOX_VOLUME, [0, 1, 2]) <= 1e-15


@pytest.mark.parametrize("scheme", ["overlapping", "non-overlapping", "hybrid"])
def test_tensor_invariants_see_a_flipped_face_row(scheme):
    # The same check fails once the first face row of the family enters its
    # outside owner with the wrong sign.
    kind = SchemeKind.parse(scheme)
    family = kind.spec.velocity_cvs
    slot, _, outside = REFERENCE_FACES[family][0]
    tensors = zip(schemes._SCHEME_TENSORS[kind], (schemes._SLOT_MOMENTUM, schemes._SLOT_PRESSURE))
    for tensor, per_slot in tensors:
        flipped = tensor.copy()
        flipped[outside] += 2.0 * per_slot[slot]
        assert _owner_sum_defect(family, flipped, _flux_rows(kind.spec)) > 0.1
    flipped = schemes._BOX_VOLUME.copy()
    slot, _, outside = REFERENCE_FACES["boxes"][0]
    flipped[outside] += 2.0 * schemes._SLOT_VOLUME[slot]
    assert _owner_sum_defect("boxes", flipped, [0, 1, 2]) > 0.1


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


def _renumbered(mesh, seed):
    """The same mesh with its vertices in a random order and each triangle's
    vertices rotated by a random shift, as a mesh file may list them."""
    rng = np.random.default_rng(seed)
    new = rng.permutation(mesh.n_vertices)                      # old id -> new id
    vertices = np.empty_like(mesh.vertices)
    vertices[new] = mesh.vertices
    shift = rng.integers(3, size=mesh.n_elements)[:, None]
    triangles = new[np.take_along_axis(mesh.triangles, (np.arange(3) + shift) % 3, axis=1)]
    return dataclasses.replace(mesh, vertices=vertices, triangles=triangles, boundary_facets=new[mesh.boundary_facets])


@pytest.mark.parametrize("pinned", [False, True], ids=["mixed", "pinned"])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_closure_pattern_csr_equals_the_coo_conversion(scheme, pinned):
    # Every block entry lands in its pattern slot: the CSR blocks equal one
    # COO conversion of the same element blocks with explicit ids, also when
    # the vertices are numbered at random and listed from any corner.
    mesh = _renumbered(distort(generate_structured(20, 20), 0.2, seed=21), seed=21)   # all Dirichlet
    validate(mesh)
    if not pinned:
        mesh = mesh.with_bc(MIXED)
    disc = build(mesh, scheme)
    problem = donea_huerta_case(viscosity=0.7).problem()
    pin = 5 if pinned else None
    got = assemble(disc, problem, pin_pressure=pin)
    for name, want in zip("ABC", coo_blocks(disc, package_blocks(disc, problem.viscosity), pin)):
        G = getattr(got, name)
        assert G.shape == want.shape, name
        assert abs(G - want).max() <= 1e-15 * abs(want).max(), name


@pytest.mark.parametrize("pinned", [False, True], ids=["mixed", "pinned"])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_stored_parts_equal_the_closure_oracle(scheme, pinned):
    # J_c, the bubble inverses and the blocks formed on request keep every
    # bit of the closure-pattern CSR builder's; the residual and |J| |x|,
    # summed part by part, agree with its full matrix to a few ulps of
    # their largest entry.
    mesh = _renumbered(distort(generate_structured(12, 12), 0.2, seed=24), seed=24)   # all Dirichlet
    if not pinned:
        mesh = mesh.with_bc(MIXED)
    disc = build(mesh, scheme)
    problem = donea_huerta_case(viscosity=0.7).problem()
    pin = 5 if pinned else None
    system = assemble(disc, problem, pin_pressure=pin)
    A, B, C, D, J_c, inverses = closure_system(disc, problem, pin)
    got = (system.condensation.matrix, system.A, system.B, system.C, system.D)
    for name, G, W in zip(("J_c", "A", "B", "C", "D"), got, (J_c, A, B, C, D)):
        assert G.format == W.format and G.shape == W.shape, name
        for array in ("indices", "indptr"):
            assert np.array_equal(getattr(G, array), getattr(W, array)), (name, array)
        assert np.array_equal(G.data.view(np.uint64), W.data.view(np.uint64)), name
    assert np.array_equal(system.condensation.inverses.view(np.uint64), inverses.view(np.uint64))
    J = sp.bmat([[A, B], [C, D]], format="csr")
    x = np.random.default_rng(24).standard_normal(system.n_dofs)
    scale = abs(J) @ np.abs(x)
    ulps = 4 * np.finfo(float).eps * np.max(scale)
    assert np.max(np.abs(system.residual(x) - (system.rhs() - J @ x))) <= ulps
    assert np.max(np.abs(system.condensation.product(np.abs(x), absolute=True) - scale)) <= ulps


@pytest.mark.parametrize("pinned", [False, True], ids=["mixed", "pinned"])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_assembled_blocks_are_canonical_csr_with_int32_indices(scheme, pinned):
    mesh = _renumbered(distort(generate_structured(9, 7), 0.2, seed=22), seed=22)
    if not pinned:
        mesh = mesh.with_bc(MIXED)
    disc = build(mesh, scheme)
    system = assemble(disc, donea_huerta_case().problem(), pin_pressure=3 if pinned else None)
    blocks = {name: getattr(system, name) for name in "ABCD"}
    blocks["pressure mass"] = assemble_pressure_mass(disc, 1.0)
    for name, M in blocks.items():
        assert M.format == "csr", name
        assert M.indices.dtype == np.int32 and M.indptr.dtype == np.int32, name
        # A matrix made afresh from the arrays checks them, not a cached flag.
        assert sp.csr_matrix((M.data, M.indices, M.indptr), shape=M.shape).has_canonical_format, name


@pytest.mark.parametrize("scheme", SCHEMES)
def test_assembly_peak_memory_is_bounded_by_its_blocks(scheme):
    # The system keeps its four parts and J_c, no CSR A, B or C: per vertex
    # pair J_c's data and indices and J_kk's data on them (184 bytes with
    # the vertex pattern's column), per element its 36 bubble numbers, their
    # shared indices and indptr, J_bb and its inverses, the pattern's slots
    # and the bubbles' load (484 bytes), per vertex the index pointers, the
    # load and the Dirichlet dofs (68 bytes).  Element blocks are summed on
    # the vertex pattern and dropped once used, so assemble peaks at 1.34
    # times what it keeps here (1.38 MB) and 1.27 times at 128^2; on the
    # closure pattern, with CSR A, B and C, it kept 1.55 MB and peaked at
    # 1.77 times that.
    case = donea_huerta_case()
    disc = build(case.apply_bc(distort(generate_structured(24, 24), 0.2, seed=26)), scheme)
    problem = case.problem()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        system = assemble(disc, problem)
        kept, peak = (value - base for value in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    mesh = disc.mesh
    pairs = schemes._vertex_closure(mesh).cols.size
    assert kept <= 184 * pairs + 484 * mesh.n_elements + 68 * mesh.n_vertices + 16384, kept
    assert peak <= 1.5 * kept, (peak, kept)
    # What the parts are, and that no CSR A, B or C is among them, is
    # test_solver's test_system_keeps_only_the_condensed_system_and_bubble_inverses.
    held = list(vars(system).values()) + list(vars(system.condensation).values())
    assert not any(sp.issparse(value) and value.shape[0] == system.n_velocity for value in held)


def test_volume_kernels_keep_their_working_set():
    # Volume integrals take blocks of a fixed number of quadrature points,
    # and the error integrand squares its errors in place.  On this 16^2
    # mesh (512 elements) one error_norms call (25 points) peaked at
    # 1.25 MB and hybrid's assemble (a 44-point load) at 1.16 MB; with
    # 512-element blocks for every rule and fresh error arrays they took
    # 2.44 and 1.31 MB.
    case = donea_huerta_case()
    disc = build(case.apply_bc(distort(generate_structured(16, 16), 0.2, seed=27)), "hybrid")
    problem = case.problem()
    x = np.random.default_rng(27).standard_normal(disc.n_dofs)
    for name, bound, call in (("error_norms", 1.5e6, lambda: error_norms(disc, x, case)),
                              ("assemble", 1.25e6, lambda: assemble(disc, problem))):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            call()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= bound, (name, peak)


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
    # Flux rows test the traction with the indicator of the segment's vertex
    # end, Galerkin rows with the three vertex hats, which sum to one.
    case = donea_huerta_case()
    mesh = case.apply_bc(distort(generate_structured(10, 10), 0.2, seed=25))
    disc = build(mesh, "overlapping")
    plain = schemes.segment_tractions(disc, case.problem())
    hats = schemes.segment_tractions(build(mesh, "fem"), case.problem())
    scale = np.max(np.abs(plain))
    assert scale > 0.0
    assert np.max(np.abs(hats.sum(axis=1) - plain.sum(axis=1))) <= 1e-14 * scale
    rows = np.arange(disc.pressure.n_segments)
    elsewhere = np.ones(plain.shape[:2], dtype=bool)
    elsewhere[rows, SEGMENT_OWNERS[disc.pressure.seg_slot]] = False
    assert not np.any(plain[elsewhere])
    # The element vertex off the segment's edge has a zero hat there.
    edge = (disc.pressure.seg_slot - 6) // 2
    off = hats[rows, (edge + 2) % 3]
    assert np.max(np.abs(off)) <= 1e-15 * scale


def _both_rules(disc, cvset, problem, source):
    """The source integrals of the package, by its 28-point rule, and of the
    fan rule it is derived from, by name."""
    return {"compressed": schemes._integrate_over_cvs(disc, cvset, problem, source),
            "fan": cv_integrals(disc, cvset, problem, source, FAN_RULES)}


@pytest.mark.parametrize("family", ["boxes", "non-overlapping", "overlapping"])
def test_control_volume_sources_follow_the_owner_map(family):
    # Sub-volume row r of an element belongs to its local owner r: the
    # element-major scatter through the owner table gives the same bits as
    # one sub-volume at a time through the derived sub-volume ids.
    mesh = random_distorted_mesh(12, n=6)
    scheme = {"boxes": "fem"}.get(family, family)
    disc = build(mesh, scheme)
    cvset = disc.velocity
    problem = dataclasses.replace(donea_huerta_case().problem(),
                                  mass_source=lambda p: np.sin(3.0 * p[..., 0]) * np.cos(2.0 * p[..., 1]))
    for source in ("body_force", "mass_source"):
        got = schemes._integrate_over_cvs(disc, cvset, problem, source)
        assert np.array_equal(got, cv_integrals(disc, cvset, problem, source, schemes._SOURCE_RULES)), source


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


@pytest.mark.parametrize("pin", [1.5, np.float64(2.0), "2", True])
def test_pin_pressure_must_be_an_integer(pin):
    disc = build(generate_structured(2, 2), "fem")
    problem = StokesProblem(viscosity=1.0, dirichlet=lambda p: np.zeros_like(p))
    with pytest.raises(ConfigurationError, match="pin_pressure must be an integer"):
        assemble(disc, problem, pin_pressure=pin)


def test_pin_pressure_accepts_numpy_integer():
    disc = build(generate_structured(2, 2), "fem")
    problem = StokesProblem(viscosity=1.0, dirichlet=lambda p: np.zeros_like(p))
    system = assemble(disc, problem, pin_pressure=np.int64(2))
    D = system.D.tocoo()
    assert (D.row.tolist(), D.col.tolist(), D.data.tolist()) == ([2], [2], [1.0])
    assert system.C[2].nnz == 0


def test_system_shapes_and_matrix_cache():
    mesh = generate_structured(2, 2).with_bc(MIXED)
    disc = build(mesh, "non-overlapping")
    system = assemble(disc, StokesProblem(viscosity=1.0))
    J = system.matrix()
    assert J.shape == (disc.n_dofs, disc.n_dofs)
    assert system.n_velocity == 2 * disc.n_velocity_locations
    assert system.n_pressure == disc.n_pressure_dofs
    assert system.rhs().shape == (disc.n_dofs,)


FAMILY_SETS = {
    "boxes": lambda mesh: build(mesh, "fem").pressure,
    "non-overlapping": lambda mesh: build(mesh, "non-overlapping").velocity,
    "overlapping": lambda mesh: build(mesh, "overlapping").velocity,
}


def _fan_triangle_integrals(cvset, func):
    """Integral over each control volume by the degree-6 rule on physical fan triangles."""
    scvs = sub_volumes(cvset)
    polys, cv = scvs.polygon, scvs.cv
    quad = scvs.nverts == 4
    tris = np.concatenate((polys[:, :3], polys[quad][:, [0, 2, 3]]))
    owners = np.concatenate((cv, cv[quad]))
    rule = triangle_rule(SOURCE_QUAD_DEGREE)
    p0, d1, d2 = tris[:, 0], tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0]
    det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    pts = p0[:, None] + rule.points[None, :, :1] * d1[:, None] + rule.points[None, :, 1:] * d2[:, None]
    vals = func(pts.reshape(-1, 2)).reshape(pts.shape[:2] + (-1,))
    out = np.zeros((cvset.n_cvs, vals.shape[-1]))
    np.add.at(out, owners, np.einsum("tq,tqk->tk", rule.weights * det[:, None], vals))
    return out


@pytest.mark.parametrize("family", sorted(FAMILY_SETS))
def test_cv_integrals_match_fan_triangle_oracle(family):
    mesh = random_distorted_mesh(21, n=6)
    cvset = FAMILY_SETS[family](mesh)
    problem = donea_huerta_case().problem()
    want = _fan_triangle_integrals(cvset, problem.body_force)
    for rule, got in _both_rules(build(mesh, "fem"), cvset, problem, "body_force").items():
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), rule


def test_source_rule_points_lie_in_the_reference_triangle():
    # Every family shares one set of 28 points, picked from the fan points.
    points = [points for points, _ in schemes._SOURCE_RULES.values()]
    assert all(p is points[0] for p in points)
    x, y = points[0].T
    assert points[0].shape == (28, 2)
    assert np.all(x > 0.0) and np.all(y > 0.0) and np.all(x + y < 1.0)
    assert len(np.unique(points[0], axis=0)) == 28
    fan = np.concatenate([p for p, _ in FAN_RULES.values()])
    assert all(np.any(np.all(fan == p, axis=1)) for p in points[0])


def _monomials(points):
    """x^a y^b, a + b <= 6, at points (n, 2): (n, 28)."""
    a, b = np.array([(a, b) for a in range(7) for b in range(7 - a)]).T
    return points[:, :1] ** a * points[:, 1:] ** b


@pytest.mark.parametrize("family", sorted(FAMILY_SETS))
def test_source_rule_reproduces_the_fan_moments(family):
    # Each sub-volume row of the 28-point rule integrates every polynomial of
    # degree <= 6 as its fan rule does.
    points, weights = schemes._SOURCE_RULES[family]
    fan_points, fan_weights = FAN_RULES[family]
    assert weights.shape == (fan_weights.shape[0], 28)
    want = fan_weights @ _monomials(fan_points)
    assert np.max(np.abs(weights @ _monomials(points) - want)) <= 1e-14 * np.max(np.abs(want))


# The vertex hats lambda_i and the bubble phi_b = 27 x y (1 - x - y) as
# {(a, b): c} of c x^a y^b; the basis is lambda_i - phi_b / 3, then phi_b.
BUBBLE = {(1, 1): 27.0, (2, 1): -27.0, (1, 2): -27.0}
HATS = ({(0, 0): 1.0, (1, 0): -1.0, (0, 1): -1.0}, {(1, 0): 1.0}, {(0, 1): 1.0})
BASIS = [{k: hat.get(k, 0.0) - BUBBLE.get(k, 0.0) / 3.0 for k in hat.keys() | BUBBLE.keys()} for hat in HATS] + [BUBBLE]


def _moment_defect(points, weights, polynomial, degree):
    """How far a rule's integrals of `polynomial` times each monomial of total
    degree <= `degree` are from their exact values, relative to the largest."""
    ab = [(a, b) for a in range(degree + 1) for b in range(degree + 1 - a)]
    want = np.array([sum(c * monomial_integral_triangle(a + p, b + q) for (p, q), c in polynomial.items())
                     for a, b in ab])
    got = np.array([weights @ (points[:, 0] ** a * points[:, 1] ** b) for a, b in ab])
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@pytest.mark.parametrize("scheme", SCHEMES)
def test_load_rule_rows_hold_the_tests_of_their_rows(scheme):
    # One body-force row per local test.  A flux row integrates every
    # polynomial of degree <= 6 over its sub-volume as the fan rule does.  A
    # Galerkin row is its test times the degree-6 rule: exact for the cubic
    # basis times degree 3, and a hat (vertex row plus a third of the bubble
    # row) times degree 5.
    kind = SchemeKind.parse(scheme)
    spec = kind.spec
    points, weights, tractions = schemes._SCHEME_LOADS[kind]
    assert weights.shape == (4, len(points))
    fan_points, fan_weights = FAN_RULES[spec.velocity_cvs]
    for t in range(4):
        if t in spec.galerkin_tests:
            assert _moment_defect(points, weights[t], BASIS[t], 3) <= 1e-14, t
            if t < 3:
                assert _moment_defect(points, weights[t] + weights[3] / 3.0, HATS[t], 5) <= 1e-14, t
        else:
            want = fan_weights[t] @ _monomials(fan_points)
            assert np.max(np.abs(weights[t] @ _monomials(points) - want)) <= 1e-14 * np.max(np.abs(want)), t
    # The traction on a boundary slot is tested with the vertex hats in a
    # Galerkin vertex row and with the indicator of the slot's vertex end in
    # a flux row.
    hats = barycentric(schemes._piece_points(schemes.NEUMANN_QUAD_DEGREE))
    indicators = np.broadcast_to(SEGMENT_OWNERS[:, None, None] == np.arange(3), hats.shape)
    for t in range(3):
        assert np.array_equal(tractions[..., t], (hats if t in spec.galerkin_tests else indicators)[..., t]), t


@pytest.mark.parametrize("scheme", SCHEMES)
def test_assemble_integrates_the_body_force_in_one_pass(scheme, monkeypatch):
    # Without a mass source, one volume integral per assembly: every row's
    # body force, flux and Galerkin rows alike, on the scheme's load rule,
    # whose points are the 28 of the source rule, the 16 of the element rule,
    # or both side by side.
    calls = []

    def counting(*args, _original=schemes._integrate_elements):
        calls.append(args[1].shape[0])
        return _original(*args)

    monkeypatch.setattr(schemes, "_integrate_elements", counting)
    case = donea_huerta_case()
    assemble(build(case.apply_bc(distort(generate_structured(6, 6), 0.2, seed=29)), scheme), case.problem())
    assert calls == [{"hybrid": 44, "fem": 16}.get(scheme, 28)]


@pytest.mark.parametrize("pinned", [False, True], ids=["mixed", "pinned"])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_one_pass_load_matches_the_two_pass_oracle(scheme, pinned):
    # The load rule moves no row off its rule: against the body force
    # integrated once per kind of row, fem's right-hand side keeps its bits
    # and the others move by rounding, for a force no rule integrates exactly.
    mesh = distort(generate_structured(20, 20), 0.2, seed=30)     # all Dirichlet
    if not pinned:
        mesh = mesh.with_bc(MIXED)
    problem = dataclasses.replace(donea_huerta_case().problem(),
                                  body_force=lambda p: np.stack((np.sin(9.0 * p[..., 0]), np.exp(3.0 * p[..., 1])), axis=-1))
    disc = build(mesh, scheme)
    got = assemble(disc, problem, pin_pressure=0 if pinned else None).rhs_momentum
    want = two_pass_rhs_momentum(disc, problem)
    if scheme == "fem":
        assert np.array_equal(got, want)
    else:
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


# (coefficient, a, b) of c x^a y^b: a polynomial of total degree 6.
SEXTIC = ((1.0, 0, 0), (-2.0, 1, 0), (0.5, 0, 1), (3.0, 2, 3), (-1.5, 6, 0), (2.0, 0, 6), (4.0, 3, 3), (-3.0, 1, 5))


def _sextic(points):
    x, y = points[..., 0], points[..., 1]
    return sum(c * x**a * y**b for c, a, b in SEXTIC)


def _green_integrals(cvset):
    """Exact integral of `_sextic` over each control volume, as the boundary
    integral of x^(a+1) y^b / (a+1) dy along the sub-volume polygons."""
    t, w = np.polynomial.legendre.leggauss(4)   # exact for the degree-7 edge integrands
    t, w = 0.5 * (t + 1.0), 0.5 * w
    scvs = sub_volumes(cvset)
    start = scvs.polygon
    end = np.roll(start, -1, axis=1)            # padded vertices give zero-length edges
    pts = start[..., None, :] + t[:, None] * (end - start)[..., None, :]
    x, y = pts[..., 0], pts[..., 1]
    dy = (end - start)[..., 1]
    total = sum(c / (a + 1) * np.sum(w * x ** (a + 1) * y**b, axis=-1) * dy for c, a, b in SEXTIC)
    out = np.zeros(cvset.n_cvs)
    np.add.at(out, scvs.cv, total.sum(axis=1))
    return out


@pytest.mark.parametrize("family", sorted(FAMILY_SETS))
def test_cv_integrals_are_exact_for_degree_six(family):
    mesh = random_distorted_mesh(22, n=5)
    cvset = FAMILY_SETS[family](mesh)
    problem = StokesProblem(viscosity=1.0, mass_source=_sextic)
    want = _green_integrals(cvset)
    for rule, got in _both_rules(build(mesh, "fem"), cvset, problem, "mass_source").items():
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), rule


@pytest.mark.parametrize("scheme", ["overlapping", "non-overlapping"])
def test_audit_source_integrals_match_the_fan_triangle_oracle(scheme):
    # At a zero solution on an all-Dirichlet mesh the audit's residuals are
    # minus its source integrals, exact like the fan triangles' to degree 6.
    mesh = random_distorted_mesh(26, n=4)
    disc = build(mesh, scheme)
    problem = StokesProblem(viscosity=1.0, body_force=lambda p: np.stack((_sextic(p), _sextic(p[..., ::-1])), axis=-1),
                            mass_source=_sextic)
    audit = conservation_audit(disc, np.zeros(disc.n_dofs), problem)
    for got, cvset, func in ((audit.mass_residuals, disc.pressure, problem.mass_source),
                             (audit.momentum_residuals, disc.velocity, problem.body_force)):
        want = -_fan_triangle_integrals(cvset, func).reshape(got.shape)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_block_edges_do_not_change_volume_and_face_kernels(monkeypatch):
    case = donea_huerta_case()
    mesh = case.apply_bc(random_distorted_mesh(23, n=5))
    # A budget of 400 points takes 3 to 16 elements per block of the error
    # rule (25 points), the source rule (28) and the fan rules (64, 96, 112),
    # and leaves each of them a remainder.
    budget = 400
    assert all(mesh.n_elements % (budget // nq) for nq in (25, 28, 64, 96, 112))
    discs = {name: build(mesh, name) for name in ("overlapping", "non-overlapping")}
    x = np.random.default_rng(4).standard_normal(discs["overlapping"].n_dofs)

    def kernels():
        out = []
        for disc in discs.values():
            vel, pres = split_solution(disc, x)
            for cvset in (disc.pressure, disc.velocity):
                out.extend(_both_rules(disc, cvset, case.problem(), "body_force").values())
                for kind in ("face", "seg"):
                    out.extend(kernel_fluxes(disc, cvset, kind, 1.3, vel, pres))
            out.append(np.array(dataclasses.astuple(error_norms(disc, x, case))))
        return out

    monkeypatch.setattr(schemes, "_BLOCK_POINTS", 112 * mesh.n_elements)   # one block of every kind
    single = kernels()
    monkeypatch.setattr(schemes, "_BLOCK_POINTS", budget)
    for got, want in zip(kernels(), single):   # BLAS may round a narrower product differently
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15 * np.max(np.abs(want)))


@pytest.mark.parametrize("field", ["body_force", "mass_source"])
def test_wrong_shape_of_a_source_names_the_field(field):
    mesh = random_distorted_mesh(24, n=3).with_bc(MIXED)
    flat = {"body_force": lambda p: np.zeros(len(p)), "mass_source": lambda p: np.zeros((len(p), 2))}
    problem = StokesProblem(viscosity=1.0, **{field: flat[field]})
    for scheme in SCHEMES:
        with pytest.raises(ConfigurationError, match=field):
            assemble(build(mesh, scheme), problem)


@pytest.mark.parametrize("shape", [(1,), (1, 1), (2,)], ids=["n", "n-1", "flat-2n"])
@pytest.mark.parametrize("field", ["dirichlet", "neumann"])
def test_wrong_shape_of_boundary_data_names_the_field(field, shape):
    mesh = random_distorted_mesh(24, n=3).with_bc(MIXED)

    def values(points, *normals):
        return np.zeros((shape[0] * len(points),) + shape[1:])

    problem = StokesProblem(viscosity=1.0, **{field: values})
    for scheme in SCHEMES:
        with pytest.raises(ConfigurationError, match=field):
            assemble(build(mesh, scheme), problem)


@pytest.mark.parametrize("field", ["velocity", "velocity_gradient", "pressure"])
def test_wrong_shape_of_a_case_field_names_it(field):
    case = donea_huerta_case()
    broken = dataclasses.replace(case, **{field: lambda p: np.zeros((len(p), 3))})
    disc = build(case.apply_bc(random_distorted_mesh(25, n=3)), "hybrid")
    with pytest.raises(ConfigurationError, match=field):
        error_norms(disc, np.zeros(disc.n_dofs), broken)


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("field", ["body_force", "mass_source", "dirichlet", "neumann"])
def test_non_finite_field_values_are_rejected(field, value):
    # Unchecked, one NaN load entry makes the direct solve return NaNs
    # without an error and GMRES fail inside scipy.
    case = donea_huerta_case()
    mesh = case.apply_bc(generate_structured(4, 4))
    problem = case.problem()
    clean = getattr(problem, field) or (lambda points: np.zeros(len(points)))

    def poisoned(points, *normals):
        values = np.array(clean(points, *normals), dtype=float)
        values[len(values) // 2] = value
        return values

    for scheme in SCHEMES:
        with pytest.raises(ConfigurationError, match=f"{field} is not finite at 1 of"):
            assemble(build(mesh, scheme), dataclasses.replace(problem, **{field: poisoned}))


@pytest.mark.parametrize("scheme", SCHEMES)
def test_bincount_scatters_match_add_at_bitwise(scheme):
    # The load, traction, control-volume source and volume scatters sum by
    # np.bincount in the order np.add.at adds, so their bits do not move.
    mesh = distort(generate_structured(12, 12), 0.2, seed=32).with_bc(MIXED)
    problem = dataclasses.replace(donea_huerta_case().problem(),
                                  body_force=lambda p: np.stack((np.sin(9.0 * p[..., 0]), np.exp(3.0 * p[..., 1])), axis=-1),
                                  mass_source=lambda p: np.cos(5.0 * p[..., 0]) * p[..., 1])
    disc = build(mesh, scheme)
    points, weights, _ = schemes._SCHEME_LOADS[disc.scheme]
    force = schemes._integrate_elements(disc.elements, points, weights, lambda sl, x: problem.body_force(x), (2,))
    load = np.zeros((disc.n_velocity_locations, 2))
    np.add.at(load, disc.element_velocity_dofs().T, force)
    np.subtract.at(load, mesh.triangles[disc.pressure.seg_element], schemes.segment_tractions(disc, problem))
    dverts = mesh.dirichlet_vertices()
    load[dverts] = problem.dirichlet(mesh.vertices[dverts])
    assert np.array_equal(assemble(disc, problem).rhs_momentum, load.ravel())
    for cvset in (disc.pressure, disc.velocity):
        for source, shape in (("body_force", (2,)), ("mass_source", ())):
            rule_points, rule_weights = schemes._SOURCE_RULES[cvset.family]
            local = schemes._integrate_elements(disc.elements, rule_points, rule_weights,
                                                lambda sl, x, f=getattr(problem, source): f(x), shape)
            want = np.zeros((cvset.n_cvs,) + shape)
            np.add.at(want, cvset.owners[:, : local.shape[0]], np.swapaxes(local, 0, 1))
            assert np.array_equal(schemes._integrate_over_cvs(disc, cvset, problem, source), want)
        areas = geometry._CELL_AREAS[cvset.family]
        want = np.zeros(cvset.n_cvs)
        np.add.at(want, cvset.owners[:, : areas.size], (2.0 * disc.elements.areas)[:, None] * areas)
        assert np.array_equal(cvset.cv_volumes(), want)
