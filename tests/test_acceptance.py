"""End-to-end acceptance checks, one test per numbered criterion.

Criteria 1-3 share one set of convergence studies: both manufactured
cases, all four schemes, five levels of randomly distorted meshes
(10x10 to 160x160 cells).  Conservation criteria solve once with the
refined direct solver and re-derive every balance from the solution
vector.  Criterion 6 rebuilds matrix rows from scratch by walking
control-volume boundaries with an independent basis evaluation.
Criterion 10 is informative: it solves a hydrostatic case (u = 0, f = grad p)
and prints how far each control-volume scheme's velocity is from fem's.
"""

import time

import numpy as np
import pytest

from conftest import random_distorted_mesh
from oracles import basis_at, eval_physical, eval_reference
from test_geometry import FAMILY_SCHEMES, _closure_defects, family_set
from cvstokes.geometry import build
from cvstokes.mesh import distort, generate_structured
from cvstokes.schemes import assemble, split_solution
from cvstokes.solver import direct_solve
from cvstokes.verification import (
    MIXED_BC_LAYOUT,
    bercovier_engelman_case,
    conservation_audit,
    donea_huerta_case,
    error_norms,
    product_case,
    region_mass_balance,
    run_convergence,
    shear_flow_case,
)

SCHEMES = ("overlapping", "hybrid", "non-overlapping", "fem")
CASE_FACTORIES = {
    "donea-huerta": donea_huerta_case,
    "bercovier-engelman": bercovier_engelman_case,
}
N_LEVELS = 5
DISTORTION = 0.2
SEED = 7

# Reference error magnitudes for the same two benchmarks on the same
# randomly distorted mesh family (5 levels, h_p from 9.1e-2 to 6.2e-3),
# used by the informative magnitude comparison of criterion 9.  Each list
# runs coarse to fine: (L2 pressure, L2 velocity, H1 velocity).
REFERENCE_ERRORS = {
    ("donea-huerta", "overlapping"): (
        [7.75e-3, 3.10e-3, 1.40e-3, 6.32e-4, 2.99e-4],
        [6.54e-4, 1.89e-4, 5.05e-5, 1.27e-5, 3.21e-6],
        [1.55e-2, 7.96e-3, 4.01e-3, 2.01e-3, 1.01e-3],
    ),
    ("donea-huerta", "hybrid"): (
        [9.17e-3, 3.67e-3, 1.70e-3, 7.58e-4, 3.56e-4],
        [6.74e-4, 1.94e-4, 5.18e-5, 1.30e-5, 3.29e-6],
        [1.56e-2, 8.01e-3, 4.03e-3, 2.02e-3, 1.01e-3],
    ),
    ("donea-huerta", "non-overlapping"): (
        [7.42e-3, 3.07e-3, 1.40e-3, 6.33e-4, 3.00e-4],
        [6.92e-4, 2.00e-4, 5.27e-5, 1.33e-5, 3.36e-6],
        [1.55e-2, 7.97e-3, 4.01e-3, 2.01e-3, 1.01e-3],
    ),
    ("donea-huerta", "fem"): (
        [1.21e-2, 5.03e-3, 2.49e-3, 1.10e-3, 5.12e-4],
        [1.02e-3, 2.79e-4, 7.12e-5, 1.78e-5, 4.44e-6],
        [1.63e-2, 8.19e-3, 4.09e-3, 2.04e-3, 1.02e-3],
    ),
    ("bercovier-engelman", "overlapping"): (
        [9.89e-1, 3.94e-1, 1.79e-1, 8.08e-2, 3.83e-2],
        [6.62e-2, 1.97e-2, 5.15e-3, 1.30e-3, 3.27e-4],
        [1.98e0, 1.02e0, 5.13e-1, 2.57e-1, 1.29e-1],
    ),
    ("bercovier-engelman", "hybrid"): (
        [1.18e0, 4.67e-1, 2.17e-1, 9.70e-2, 4.55e-2],
        [7.05e-2, 2.08e-2, 5.39e-3, 1.35e-3, 3.40e-4],
        [1.99e0, 1.02e0, 5.16e-1, 2.59e-1, 1.29e-1],
    ),
    ("bercovier-engelman", "non-overlapping"): (
        [9.47e-1, 3.91e-1, 1.79e-1, 8.09e-2, 3.84e-2],
        [8.23e-2, 2.40e-2, 6.20e-3, 1.56e-3, 3.93e-4],
        [1.98e0, 1.02e0, 5.13e-1, 2.57e-1, 1.29e-1],
    ),
    ("bercovier-engelman", "fem"): (
        [1.55e0, 6.43e-1, 3.18e-1, 1.41e-1, 6.55e-2],
        [1.31e-1, 3.57e-2, 9.11e-3, 2.28e-3, 5.69e-4],
        [2.09e0, 1.05e0, 5.23e-1, 2.61e-1, 1.30e-1],
    ),
}


@pytest.fixture(scope="module")
def studies():
    out = {"elapsed": {}}
    for case_name, factory in CASE_FACTORIES.items():
        t0 = time.perf_counter()
        for scheme in SCHEMES:
            out[(case_name, scheme)] = run_convergence(
                factory(),
                scheme,
                n_levels=N_LEVELS,
                base=10,
                distortion=DISTORTION,
                seed=SEED,
            )
        out["elapsed"][case_name] = time.perf_counter() - t0
    return out


def _rate_summary(studies, case_name):
    rows = {}
    for scheme in SCHEMES:
        rep = studies[(case_name, scheme)]
        rows[scheme] = (
            rep.window_rate("l2_velocity"),
            rep.window_rate("h1_velocity"),
            rep.window_rate("l2_pressure"),
        )
    return rows


def _check_rate_windows(rows):
    ok = True
    for l2v, h1, l2p in rows.values():
        ok &= 1.85 <= l2v <= 2.15
        ok &= 0.95 <= h1 <= 1.05
        ok &= l2p >= 0.95
    return ok


def test_criterion_1_convergence_rates_donea_huerta(studies, criterion):
    rows = _rate_summary(studies, "donea-huerta")
    elapsed = studies["elapsed"]["donea-huerta"]
    l2v = [r[0] for r in rows.values()]
    h1 = [r[1] for r in rows.values()]
    l2p = [r[2] for r in rows.values()]
    ok = _check_rate_windows(rows) and elapsed < 300.0
    criterion(
        1,
        ok,
        f"donea-huerta rates over last 3 levels: L2v {min(l2v):.2f}-{max(l2v):.2f}, "
        f"H1 {min(h1):.2f}-{max(h1):.2f}, L2p {min(l2p):.2f}-{max(l2p):.2f}, "
        f"{elapsed:.0f}s for 4 schemes",
    )
    for scheme, (rl2v, rh1, rl2p) in rows.items():
        assert 1.85 <= rl2v <= 2.15, (scheme, rl2v)
        assert 0.95 <= rh1 <= 1.05, (scheme, rh1)
        assert rl2p >= 0.95, (scheme, rl2p)
    assert elapsed < 300.0
    for scheme in SCHEMES:
        assert all(lv.converged for lv in studies[("donea-huerta", scheme)].levels)


def test_criterion_2_convergence_rates_bercovier_engelman(studies, criterion):
    rows = _rate_summary(studies, "bercovier-engelman")
    l2v = [r[0] for r in rows.values()]
    h1 = [r[1] for r in rows.values()]
    l2p = [r[2] for r in rows.values()]
    ok = _check_rate_windows(rows)
    criterion(
        2,
        ok,
        f"bercovier-engelman rates: L2v {min(l2v):.2f}-{max(l2v):.2f}, "
        f"H1 {min(h1):.2f}-{max(h1):.2f}, L2p {min(l2p):.2f}-{max(l2p):.2f}",
    )
    for scheme, (rl2v, rh1, rl2p) in rows.items():
        assert 1.85 <= rl2v <= 2.15, (scheme, rl2v)
        assert 0.95 <= rh1 <= 1.05, (scheme, rh1)
        assert rl2p >= 0.95, (scheme, rl2p)


def test_criterion_3_bounded_iterations(studies, criterion):
    worst_spread = -1
    worst_count = -1
    ok = True
    for case_name in CASE_FACTORIES:
        for scheme in SCHEMES:
            counts = studies[(case_name, scheme)].iteration_counts()[1:]
            spread = int(counts.max() - counts.min())
            worst_spread = max(worst_spread, spread)
            worst_count = max(worst_count, int(counts.max()))
            ok &= spread <= 5 and counts.max() <= 45
    criterion(
        3,
        ok,
        f"iteration counts on levels 2-5: max spread {worst_spread} (<= 5), "
        f"max count {worst_count} (<= 45)",
    )
    for case_name in CASE_FACTORIES:
        for scheme in SCHEMES:
            counts = studies[(case_name, scheme)].iteration_counts()[1:]
            assert counts.max() - counts.min() <= 5, (case_name, scheme, counts)
            assert counts.max() <= 45, (case_name, scheme, counts)


def _conservation_setup(case_factory, scheme, seed):
    case = case_factory()
    mesh = case.apply_bc(distort(generate_structured(20, 20), DISTORTION, seed=seed))
    disc = build(mesh, scheme)
    problem = case.problem()
    x = direct_solve(assemble(disc, problem))
    return disc, x, problem


def test_criterion_4_local_mass_conservation(criterion):
    worst = 0.0
    for case_factory, scheme in (
        (donea_huerta_case, "overlapping"),
        (bercovier_engelman_case, "hybrid"),
    ):
        disc, x, problem = _conservation_setup(case_factory, scheme, seed=101)
        audit = conservation_audit(disc, x, problem)
        tol = 1e-12 * audit.max_mass_flux
        rel = np.max(np.abs(audit.mass_residuals)) / audit.max_mass_flux
        worst = max(worst, rel)
        assert np.max(np.abs(audit.mass_residuals)) <= tol

        # Arbitrary unions of boxes balance to the same tolerance.
        rng = np.random.default_rng(5)
        n_p = disc.n_pressure_dofs
        for size in (1, 2, 7, 50, 200, n_p):
            ids = rng.choice(n_p, size=size, replace=False)
            r = abs(region_mass_balance(disc, x, problem, ids))
            worst = max(worst, r / audit.max_mass_flux)
            assert r <= tol, (scheme, size, r)
    criterion(
        4,
        True,
        f"pressure-box and union balances <= {worst:.1e} x max face flux "
        "(bound 1e-12), overlapping and hybrid",
    )


def test_criterion_5_local_momentum_conservation(criterion):
    worst = 0.0
    for scheme in ("overlapping", "non-overlapping"):
        disc, x, problem = _conservation_setup(donea_huerta_case, scheme, seed=102)
        audit = conservation_audit(disc, x, problem)
        res = np.linalg.norm(audit.momentum_residuals, axis=1)
        interior = audit.momentum_interior
        assert interior.sum() > 300
        rel = np.max(res[interior]) / audit.max_momentum_flux
        worst = max(worst, rel)
        assert np.max(res[interior]) <= 1e-12 * audit.max_momentum_flux, scheme
    criterion(
        5,
        True,
        f"interior velocity-volume momentum residuals <= {worst:.1e} x max "
        "face force (bound 1e-12)",
    )


def _independent_basis(coords):
    """Basis evaluation rebuilt from barycentric coordinates.

    Gradients come from complex-step differentiation, so this shares no
    code path with the production evaluation.
    """
    M = np.vstack((np.ones(3), coords.T)).astype(complex)

    def values(p):
        lam = np.linalg.solve(M, np.array([1.0, p[0], p[1]], dtype=complex))
        bubble = 27.0 * lam[0] * lam[1] * lam[2]
        return np.concatenate((lam - bubble / 3.0, [bubble])), lam

    def at(p):
        p = np.asarray(p, dtype=complex)
        vals, lam = values(p)
        h = 1e-30
        gx, _ = values(p + np.array([1j * h, 0.0]))
        gy, _ = values(p + np.array([0.0, 1j * h]))
        grads = np.stack((gx.imag / h, gy.imag / h), axis=1)
        return vals.real, grads, lam.real

    return at


def _row_walk(pieces, mu, basis_fns, tri_dofs, n_u, n_p):
    """Integrate matrix-row entries over a list of oriented boundary pieces.

    Each piece is (element, a, b, sign); the A and B rows come out in the
    global layout (2 entries per velocity location, one per vertex).
    """
    t, w = np.polynomial.legendre.leggauss(24)
    t = 0.5 * (t + 1.0)
    w = 0.5 * w
    rowA = np.zeros((2, 2 * n_u))
    rowB = np.zeros((2, n_p))
    rowC = np.zeros(2 * n_u)
    for e, a, b, sign in pieces:
        d = b - a
        length = np.hypot(*d)
        normal = sign * np.array([d[1], -d[0]]) / length
        at = basis_fns[e]
        dofs = tri_dofs[e]
        for tq, wq in zip(t, w):
            p = a + tq * d
            vals, grads, lam = at(p)
            wl = wq * length
            for loc, dof in enumerate(dofs):
                gn = grads[loc] @ normal
                for k in range(2):
                    for comp in range(2):
                        entry = -mu * ((k == comp) * gn + grads[loc, k] * normal[comp])
                        rowA[k, 2 * dof + comp] += wl * entry
                    rowC[2 * dof + k] += wl * vals[loc] * normal[k]
            for j in range(3):
                for k in range(2):
                    rowB[k, tri_dofs[e][j]] += wl * lam[j] * normal[k]
    return rowA, rowB, rowC


def test_criterion_6_flux_rows_match_independent_walk(criterion):
    # Two-element unit square, mixed boundary conditions, one free vertex.
    mesh = generate_structured(1, 1).with_bc(MIXED_BC_LAYOUT)
    disc = build(mesh, "overlapping")
    mu = 0.7
    case = donea_huerta_case(viscosity=mu)
    system = assemble(disc, case.problem())
    T = mesh.triangles
    nv = mesh.n_vertices
    n_u = disc.n_velocity_locations
    basis_fns = [_independent_basis(disc.elements.coords[e]) for e in range(2)]
    tri_dofs = disc.element_velocity_dofs()

    X = disc.elements.coords
    Mids = 0.5 * (X + np.roll(X, -1, axis=1))
    C = disc.elements.coords.mean(axis=1)

    free_vertex = 3
    assert free_vertex not in mesh.dirichlet_vertices()

    # Momentum row of the free vertex: walk its box boundary.  In each
    # incident element the box is bounded by the two midpoint-to-centroid
    # chords; the chord starting at the previous edge's midpoint is
    # traversed against its construction direction.
    pieces = []
    for e in range(2):
        k = int(np.flatnonzero(T[e] == free_vertex)[0])
        pieces.append((e, Mids[e, k], C[e], +1.0))
        pieces.append((e, Mids[e, (k + 2) % 3], C[e], -1.0))
    rowA, rowB, _ = _row_walk(pieces, mu, basis_fns, tri_dofs, n_u, nv)

    diffs = []
    A = system.A.toarray()
    B = system.B.toarray()
    Cm = system.C.toarray()
    for k in range(2):
        r = 2 * free_vertex + k
        diffs.append(np.max(np.abs(A[r] - rowA[k])))
        diffs.append(np.max(np.abs(B[r] - rowB[k])))

    # Momentum rows of both bubbles: walk the medial triangles.
    for e in range(2):
        pieces = [(e, Mids[e, k], Mids[e, (k + 1) % 3], +1.0) for k in range(3)]
        rowA, rowB, _ = _row_walk(pieces, mu, basis_fns, tri_dofs, n_u, nv)
        for k in range(2):
            r = 2 * (nv + e) + k
            diffs.append(np.max(np.abs(A[r] - rowA[k])))
            diffs.append(np.max(np.abs(B[r] - rowB[k])))

    # Mass row of the free vertex: box boundary plus the two boundary
    # half-facets meeting at that corner.
    pieces = []
    for e in range(2):
        k = int(np.flatnonzero(T[e] == free_vertex)[0])
        pieces.append((e, Mids[e, k], C[e], +1.0))
        pieces.append((e, Mids[e, (k + 2) % 3], C[e], -1.0))
    for f, (a, b) in enumerate(mesh.boundary_facets):
        if free_vertex not in (a, b):
            continue
        va, vb = mesh.vertices[a], mesh.vertices[b]
        mid = 0.5 * (va + vb)
        e = 0 if free_vertex in T[0] and a in T[0] and b in T[0] else 1
        if a == free_vertex:
            pieces.append((e, va, mid, +1.0))
        else:
            pieces.append((e, mid, vb, +1.0))
    _, _, rowC = _row_walk(pieces, mu, basis_fns, tri_dofs, n_u, nv)
    diffs.append(np.max(np.abs(Cm[free_vertex] - rowC)))

    worst = max(diffs)
    criterion(
        6,
        worst <= 1e-12,
        f"assembled rows vs independent boundary-walk integration: "
        f"max entry difference {worst:.1e} (bound 1e-12)",
    )
    assert worst <= 1e-12


def test_criterion_7_patch_test(criterion):
    case = shear_flow_case(viscosity=1.0)
    mesh = case.apply_bc(distort(generate_structured(8, 8), DISTORTION, seed=33))
    worst = 0.0
    for scheme in SCHEMES:
        disc = build(mesh, scheme)
        x = direct_solve(assemble(disc, case.problem()))
        norms = error_norms(disc, x, case)
        worst = max(worst, norms.l2_velocity, norms.h1_velocity, norms.l2_pressure)
        assert norms.l2_velocity <= 1e-10, scheme
        assert norms.h1_velocity <= 1e-10, scheme
        assert norms.l2_pressure <= 1e-10, scheme
    criterion(
        7,
        True,
        f"linear shear reproduced by all schemes, worst error norm {worst:.1e} "
        "(bound 1e-10)",
    )


def test_criterion_8_property_suites(criterion):
    n_meshes = 20
    for seed in range(n_meshes):
        mesh = random_distorted_mesh(seed, n=5, fraction=0.25)
        disc = build(mesh, "overlapping")
        el = disc.elements
        rng = np.random.default_rng(1000 + seed)

        # Partition of unity at random interior points of random elements.
        elements = rng.integers(0, mesh.n_elements, size=30)
        lam = rng.dirichlet((1.0, 1.0, 1.0), size=30)
        pts = np.einsum("ni,nia->na", lam, el.coords[elements])
        vals, grads, _ = basis_at(el, elements, pts)
        assert np.max(np.abs(vals.sum(axis=1) - 1.0)) <= 1e-14
        assert np.max(np.abs(grads.sum(axis=1))) <= 1e-11

        # The bubble vanishes on the reference edges (one barycentric
        # coordinate exactly zero).
        t = rng.uniform(0.0, 1.0, size=50)
        zero = np.zeros_like(t)
        for edge in (
            np.column_stack((t, zero)),
            np.column_stack((zero, t)),
            np.column_stack((t, 1.0 - t)),
        ):
            assert np.max(np.abs(eval_reference(edge).values[:, 3])) <= 1e-15

        # Gradients agree with central finite differences.
        e = int(rng.integers(0, mesh.n_elements))
        coords = el.coords[e]
        probe = coords.mean(axis=0)[None, :]
        ev = eval_physical(coords, probe)
        h = 1e-6
        for a in range(2):
            step = np.zeros(2)
            step[a] = h
            fd = (
                eval_physical(coords, probe + step, tol=1e-2).values
                - eval_physical(coords, probe - step, tol=1e-2).values
            ) / (2.0 * h)
            scale = np.maximum(np.abs(ev.gradients[:, :, a]), 1.0)
            assert np.max(np.abs(fd - ev.gradients[:, :, a]) / scale) <= 1e-6

        # Control volumes close and the partition tiles the domain.
        for family in FAMILY_SCHEMES:
            vset = family_set(mesh, family)
            net, scale = _closure_defects(vset)
            assert np.all(
                np.linalg.norm(net, axis=1) <= 1e-13 * np.maximum(scale, 1e-30)
            )
            vols = vset.cv_volumes()
            assert np.sum(vols[vset.partition]) == pytest.approx(1.0, rel=1e-12)
    criterion(
        8,
        True,
        f"basis and geometry property suites hold on {n_meshes} random "
        "distorted meshes",
    )


def test_criterion_9_error_magnitudes_informative(studies, criterion):
    worst = 0.0
    worst_at = None
    for (case_name, scheme), (ref_p, ref_v, ref_h1) in REFERENCE_ERRORS.items():
        rep = studies[(case_name, scheme)]
        mine = (
            [lv.l2_pressure for lv in rep.levels],
            [lv.l2_velocity for lv in rep.levels],
            [lv.h1_velocity for lv in rep.levels],
        )
        for norm_name, ours, ref in zip(("L2p", "L2v", "H1v"), mine, (ref_p, ref_v, ref_h1)):
            for k, (a, b) in enumerate(zip(ours, ref)):
                ratio = max(a / b, b / a)
                if ratio > worst:
                    worst = ratio
                    worst_at = (case_name, scheme, norm_name, k)
    within = worst <= 3.0
    criterion(
        9,
        None,
        f"informative: error magnitudes vs reference values at matching h, "
        f"worst ratio {worst:.2f} at {worst_at} (factor-3 agreement: {within})",
    )
    assert np.isfinite(worst)


def _velocity_norms_times_viscosity(mesh, scheme, viscosities, P, R):
    """mu ||u_h||_L2 of direct solves of the case u = 0, p = P(x) R(y), so f = grad p."""
    zero = (0.0, 0.0, 0.0, 0.0)
    out = []
    for mu in viscosities:
        case = product_case("hydrostatic", mu, 0.0, zero, zero, P, R)
        disc = build(case.apply_bc(mesh), scheme)
        x = direct_solve(assemble(disc, case.problem()))
        out.append(mu * error_norms(disc, x, case).l2_velocity)
    return np.array(out)


def test_criterion_10_pressure_robustness_informative(criterion):
    # A gradient load is balanced by the discrete pressure only up to the
    # scheme's consistency error, and the velocity it leaves scales as 1/mu.
    cubic = (lambda u: u**3, lambda u: 3.0 * u * u)
    square = (lambda u: u * u, lambda u: 2.0 * u)
    linear = (lambda u: u - 0.3, 1.0)
    ratios = []
    for n in (10, 20):
        mesh = distort(generate_structured(n, n), DISTORTION, seed=31)
        scaled = {}
        for scheme in SCHEMES:
            norms = _velocity_norms_times_viscosity(mesh, scheme, (1.0, 1e-3, 1e-6), cubic, square)
            assert np.ptp(norms) <= 1e-10 * norms.max(), (n, scheme, norms)
            scaled[scheme] = norms[0]
            # Every scheme balances a linear pressure exactly.
            assert _velocity_norms_times_viscosity(mesh, scheme, (1e-6,), linear, (1.0, 0.0))[0] <= 1e-14
        ratios.append(" / ".join(f"{scaled[s] / scaled['fem']:.1f}" for s in SCHEMES[:3]))
    criterion(
        10,
        None,
        "informative: hydrostatic p = x^3 y^2, mu ||u_h||_L2 independent of mu; ratio to fem "
        f"({' / '.join(SCHEMES[:3])}) {ratios[0]} at 10^2, {ratios[1]} at 20^2",
    )
