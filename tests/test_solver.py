"""Pressure-mass Schur surrogate, preconditioner, GMRes, direct solve."""

import dataclasses
import gc
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import cvstokes.schemes as schemes
import cvstokes.solver as solver
from conftest import random_distorted_mesh, single_triangle_mesh, write_msh22
from oracles import closure, closure_csr
from cvstokes.geometry import build
from cvstokes.mesh import BCKind, distort, generate_structured, read_msh
from cvstokes.schemes import ConfigurationError, SaddleSystem, StokesProblem, assemble
from cvstokes.solver import (
    BlockPreconditioner,
    BubbleStructureError,
    DirectSolveError,
    GMRESBreakdownError,
    assemble_pressure_mass,
    direct_solve,
    gmres_solve,
    random_initial_guess,
)
from cvstokes.verification import conservation_audit, donea_huerta_case

MIXED = {"right": BCKind.NEUMANN, "top": BCKind.NEUMANN}
SCHEMES = ("overlapping", "non-overlapping", "hybrid", "fem")


def _stub_system(J, b):
    """Saddle system whose velocity block A is the matrix J, with empty
    pressure blocks B, C and D and no bubbles to eliminate."""
    A = sp.csr_matrix(np.asarray(J, dtype=float))
    n = A.shape[0]
    return SaddleSystem.from_blocks(
        A, sp.csr_matrix((n, 0)), sp.csr_matrix((0, n)), sp.csr_matrix((0, 0)),
        rhs_momentum=np.asarray(b, dtype=float), rhs_mass=np.zeros(0), dirichlet_dofs=np.empty(0, dtype=np.int64),
    )


class _StubPreconditioner:
    def __init__(self, J):
        self._inv = np.linalg.inv(np.asarray(J, dtype=float))

    def apply(self, r):
        return self._inv @ r


def _small_system(scheme="overlapping", n=6, seed=21):
    case = donea_huerta_case()
    mesh = case.apply_bc(random_distorted_mesh(seed, n=n))
    disc = build(mesh, scheme)
    system = assemble(disc, case.problem())
    return disc, system


def _pinned_system(scheme, n=5, seed=22):
    """All-Dirichlet mesh (the default markers) with pressure 0 pinned."""
    case = donea_huerta_case()
    disc = build(random_distorted_mesh(seed, n=n), scheme)
    return disc, assemble(disc, case.problem(), pin_pressure=0)


def _dh_system(scheme, n, viscosity=1.0, seed=31):
    """Donea-Huerta on a 20 % distorted n x n mesh with the mixed boundary."""
    case = donea_huerta_case(viscosity)
    disc = build(case.apply_bc(distort(generate_structured(n, n), 0.2, seed=seed)), scheme)
    return disc, assemble(disc, case.problem())


def _capture_factors(monkeypatch):
    """List that collects every factor made through `solver.splu`."""
    factors = []
    splu = solver.splu

    def capture(*args, **kwargs):
        factors.append(splu(*args, **kwargs))
        return factors[-1]

    monkeypatch.setattr(solver, "splu", capture)
    return factors


def _condense_full_matrix(M, bubbles):
    """Oracle: the condensed operator M_kk - M_kb M_bb^{-1} M_bk, split from
    the full matrix M by fancy indexing, as the solver once did."""
    M = sp.csr_matrix(M)
    lo, hi = bubbles.start, bubbles.stop
    keep = np.r_[0:lo, hi : M.shape[0]]
    rows_k, rows_b = M[keep], M[lo:hi]
    M_bb = rows_b[:, lo:hi]
    a, d, b, c = M_bb.diagonal()[0::2], M_bb.diagonal()[1::2], M_bb.diagonal(1)[0::2], M_bb.diagonal(-1)[0::2]
    inv = np.stack((d, -b, -c, a), axis=-1) / (a * d - b * c)[:, None]
    cols = (np.arange(0, hi - lo, 2)[:, None] + np.array([0, 1, 0, 1])).ravel()
    M_bb_inv = sp.csr_matrix((inv.ravel(), cols, np.arange(0, 2 * (hi - lo) + 1, 2)), shape=M_bb.shape)
    return (rows_k[:, keep] - rows_k[:, lo:hi] @ (M_bb_inv @ rows_b[:, keep])).tocsc()


def _condensed_blocks(system):
    """A_c, C_c and D_c of the condensed saddle system, built independently
    of the solver's cache; D_c leaves out the pressure block D."""
    J_c = _condense_full_matrix(system.matrix(), system.bubble_dofs)
    n_u = system.n_velocity - len(system.bubble_dofs)
    D_c = J_c[n_u:, n_u:] - system.D
    return J_c[:n_u, :n_u], J_c[n_u:, :n_u].tocsr(), D_c.tocsr()


class _DefaultLUPreconditioner:
    """The block preconditioner of the condensed system, factored by scipy's
    default ordering with partial pivoting."""

    def __init__(self, system, schur_approx):
        A_c, self.C, D_c = _condensed_blocks(system)
        self.lu_A = spla.splu(A_c.tocsc())
        self.lu_S = spla.splu(sp.csc_matrix(schur_approx - D_c))
        self.n_velocity = A_c.shape[0]

    def apply(self, r):
        z_u = self.lu_A.solve(r[: self.n_velocity])
        z_p = self.lu_S.solve(r[self.n_velocity :] - self.C @ z_u)
        return np.concatenate((z_u, z_p))


def test_pressure_mass_reference_triangle():
    disc = build(single_triangle_mesh(), "fem")
    M = assemble_pressure_mass(disc, viscosity=0.5).toarray()
    want = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 24.0
    assert np.allclose(M, want, atol=1e-15)


@pytest.mark.parametrize("viscosity", [0.0, -1.0, np.nan, np.inf, "1"])
def test_bad_viscosity_is_rejected_by_assembly_and_pressure_mass(viscosity):
    # Unchecked, 0 gives infinite entries and -1 a negative "mass" matrix;
    # a string is not cast.
    case = donea_huerta_case()
    disc = build(case.apply_bc(random_distorted_mesh(20, n=3)), "overlapping")
    problem = dataclasses.replace(case.problem(), viscosity=viscosity)
    for call in (lambda: assemble_pressure_mass(disc, viscosity), lambda: assemble(disc, problem)):
        with pytest.raises(ConfigurationError, match="viscosity must be finite and positive"):
            call()


def test_pressure_mass_scaling_and_spd():
    disc = build(random_distorted_mesh(20, n=4), "overlapping")
    M1 = assemble_pressure_mass(disc, viscosity=1.0)
    M2 = assemble_pressure_mass(disc, viscosity=2.0)
    assert np.allclose(M2.toarray(), 0.5 * M1.toarray(), atol=1e-15)
    # Entries of the unscaled mass matrix sum to the mesh area.
    assert M1.sum() == pytest.approx(0.5 * 1.0, rel=1e-12)
    dense = M1.toarray()
    assert np.allclose(dense, dense.T, atol=1e-15)
    assert np.min(np.linalg.eigvalsh(dense)) > 0.0


def test_random_initial_guess():
    disc, _ = _small_system(n=4)
    x1 = random_initial_guess(disc, seed=5)
    x2 = random_initial_guess(disc, seed=5)
    x3 = random_initial_guess(disc, seed=6)
    assert np.array_equal(x1, x2)
    assert not np.array_equal(x1, x3)
    assert x1.shape == (disc.n_dofs,)
    assert np.max(np.abs(x1)) <= 1.0
    dverts = disc.mesh.dirichlet_vertices()
    assert np.all(x1[2 * dverts] == 0.0)
    assert np.all(x1[2 * dverts + 1] == 0.0)
    # Other entries are generically nonzero.
    assert np.count_nonzero(x1) > disc.n_dofs - 2 * dverts.size - 2


def test_block_preconditioner_identities():
    # The mixed boundary, then all-Dirichlet with pressure 0 pinned, whose
    # identity D_c leaves out.
    for disc, system in (_small_system(n=5), _pinned_system("overlapping")):
        M = assemble_pressure_mass(disc, viscosity=1.0)
        precond = BlockPreconditioner.build(system, M)
        A_c, C_c, D_c = _condensed_blocks(system)
        n_u = A_c.shape[0]
        assert n_u == 2 * disc.mesh.n_vertices
        rng = np.random.default_rng(0)
        r = rng.standard_normal(n_u + system.n_pressure)
        z = precond.apply(r)
        r_u, r_p = r[:n_u], r[n_u:]
        z_u, z_p = z[:n_u], z[n_u:]
        assert np.allclose(A_c @ z_u, r_u, atol=1e-10)
        assert np.allclose((M - D_c) @ z_p, r_p - C_c @ z_u, atol=1e-10)
        # apply() is linear
        z2 = precond.apply(2.0 * r)
        assert np.allclose(z2, 2.0 * z, atol=1e-10)


def test_one_bubble_elimination_per_system(monkeypatch):
    # assemble condenses the bubbles once; the solvers share that
    # condensation and never condense again.
    condensations = []
    condense = schemes._condense

    def counting(*args):
        condensations.append(args[0])
        return condense(*args)

    monkeypatch.setattr(schemes, "_condense", counting)
    disc, system = _small_system(n=5)
    precond = BlockPreconditioner.build(system, assemble_pressure_mass(disc, 1.0))
    gmres_solve(system, precond)
    direct_solve(system)
    assert len(condensations) == 1
    # A system with a new right-hand side shares the condensation; A, B, C
    # and D are formed from it on request, so no system carries blocks that
    # its condensation was not made from.
    same = dataclasses.replace(system, rhs_momentum=2.0 * system.rhs_momentum)
    assert same.condensation is system.condensation
    x = direct_solve(same)
    assert np.linalg.norm(same.residual(x)) <= 1e-12 * np.linalg.norm(same.rhs())
    for name in "ABCD":
        with pytest.raises(TypeError):
            dataclasses.replace(system, **{name: getattr(system, name)})
    assert len(condensations) == 1


def test_vertex_pattern_is_built_once_per_mesh(monkeypatch):
    # assemble and assemble_pressure_mass sum on the same vertex pattern,
    # built at the first call for a mesh and kept while the mesh lives.
    builds = []
    build_pattern = schemes._build_vertex_closure
    monkeypatch.setattr(schemes, "_build_vertex_closure", lambda mesh: builds.append(mesh) or build_pattern(mesh))
    disc, system = _small_system(n=5)
    for _ in range(2):
        assemble(disc, donea_huerta_case().problem())
        assemble_pressure_mass(disc, 1.0)
    assert builds == [disc.mesh]
    disc, system = _small_system(n=5)
    assert len(builds) == 2 and builds[1] is disc.mesh


@pytest.mark.parametrize("method", ["direct", "gmres"])
def test_a_solved_system_is_freed_by_reference_counting(method):
    # No solver keeps a view that points back at its system, so a system
    # and its condensation die with their last reference, without the
    # cycle collector, and a second large problem does not solve while the
    # first one's arrays still live.
    disc, system = _small_system(n=5)
    gc.disable()
    try:
        if method == "direct":
            direct_solve(system)
        else:
            assert gmres_solve(system, BlockPreconditioner.build(system, assemble_pressure_mass(disc, 1.0))).converged
        refs = [weakref.ref(system), weakref.ref(system.condensation)]
        del system
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


def test_gmres_identity_system():
    b = np.array([3.0, -1.0, 2.0, 0.5])
    report = gmres_solve(_stub_system(np.eye(4), b))
    assert report.converged
    assert report.iterations == 1
    assert np.allclose(report.solution, b, atol=1e-14)


def test_gmres_zero_residual_short_circuits():
    rng = np.random.default_rng(1)
    J = rng.standard_normal((5, 5)) + 5.0 * np.eye(5)
    report = gmres_solve(_stub_system(J, np.zeros(5)))
    assert report.converged
    assert report.iterations == 0
    assert np.allclose(report.solution, 0.0, atol=1e-15)
    # Starting from the exact solution still converges to it.
    x = rng.standard_normal(5)
    report = gmres_solve(_stub_system(J, J @ x), x0=x)
    assert report.converged
    assert np.allclose(report.solution, x, atol=1e-12)


def test_gmres_exact_preconditioner_converges_immediately():
    rng = np.random.default_rng(2)
    J = rng.standard_normal((8, 8)) + 8.0 * np.eye(8)
    b = rng.standard_normal(8)
    system = _stub_system(J, b)
    report = gmres_solve(system, preconditioner=_StubPreconditioner(J))
    assert report.converged
    assert report.iterations <= 2
    assert np.allclose(J @ report.solution, b, atol=1e-9)


def test_gmres_dense_comparison():
    rng = np.random.default_rng(3)
    J = rng.standard_normal((30, 30)) + 10.0 * np.eye(30)
    b = rng.standard_normal(30)
    report = gmres_solve(_stub_system(J, b), reduction=1e12, max_iterations=60)
    assert report.converged
    want = np.linalg.solve(J, b)
    assert np.allclose(report.solution, want, atol=1e-9)


def test_gmres_residual_history_monotone():
    disc, system = _small_system(n=6)
    S = assemble_pressure_mass(disc, viscosity=1.0)
    precond = BlockPreconditioner.build(system, S)
    x0 = random_initial_guess(disc, seed=2)
    report = gmres_solve(system, precond, x0, reduction=1e10)
    assert report.converged
    h = report.residual_history
    assert h.shape[0] == report.iterations + 1
    assert np.all(h[1:] <= h[:-1] * (1.0 + 1e-12))
    assert report.relative_residual <= 1e-10
    # The true residual dropped along with the preconditioned one.
    res = system.residual(report.solution)
    assert np.linalg.norm(res) <= 1e-6 * np.linalg.norm(system.residual(x0))


def test_gmres_respects_iteration_cap():
    disc, system = _small_system(n=6)
    S = assemble_pressure_mass(disc, viscosity=1.0)
    precond = BlockPreconditioner.build(system, S)
    report = gmres_solve(system, precond, reduction=1e16, max_iterations=3)
    assert not report.converged
    assert report.iterations == 3


@pytest.mark.parametrize("max_iterations", [0, -1])
def test_gmres_rejects_iteration_cap_below_one(max_iterations):
    with pytest.raises(ValueError, match="max_iterations"):
        gmres_solve(_stub_system(np.eye(3), np.ones(3)), max_iterations=max_iterations)


@pytest.mark.parametrize("reduction", [0.0, 0.5, 1.0, -1e10, np.inf, np.nan])
def test_gmres_rejects_reduction_not_above_one(reduction):
    # 0 used to divide by zero, and 0.5 reported convergence after one
    # step whose residual had grown to 0.8 of the start.
    with pytest.raises(ValueError, match="reduction"):
        gmres_solve(_stub_system(np.eye(3), np.ones(3)), reduction=reduction)


@pytest.mark.parametrize("shape", [(2,), (4,), (3, 1)])
def test_gmres_rejects_start_vector_of_wrong_shape(shape):
    with pytest.raises(ValueError, match=r"x0 has shape .* 3 unknowns"):
        gmres_solve(_stub_system(np.eye(3), np.ones(3)), x0=np.zeros(shape))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_gmres_rejects_non_finite_start_vector(bad, monkeypatch):
    # Unchecked, a nan ran all 500 iterations before solve_triangular failed.
    system = _stub_system(np.eye(3), np.ones(3))
    applications = []
    monkeypatch.setattr(_StubPreconditioner, "apply", lambda self, r: applications.append(r) or r)
    with pytest.raises(ValueError, match="x0 has 1 entries that are nan or inf"):
        gmres_solve(system, _StubPreconditioner(np.eye(3)), x0=np.array([0.0, bad, 1.0]))
    assert not applications


def test_gmres_solution_solves_saddle_system():
    disc, system = _small_system(n=8)
    S = assemble_pressure_mass(disc, viscosity=1.0)
    precond = BlockPreconditioner.build(system, S)
    x0 = random_initial_guess(disc, seed=17)
    report = gmres_solve(system, precond, x0)
    want = spla.spsolve(system.matrix().tocsc(), system.rhs())
    scale = np.max(np.abs(want))
    assert np.max(np.abs(report.solution - want)) <= 1e-7 * scale


def test_direct_solve_matches_spsolve():
    for scheme in SCHEMES:
        for make in (_small_system, _pinned_system):
            _, system = make(scheme, n=5)
            x = direct_solve(system)
            want = spla.spsolve(system.matrix().tocsc(), system.rhs())
            assert np.allclose(x, want, atol=1e-9 * max(1.0, np.max(np.abs(want)))), scheme


def test_direct_solve_refinement_tightens_residual():
    _, system = _small_system(n=10)
    b = system.rhs()
    scale = np.linalg.norm(b)
    refined = system.residual(direct_solve(system))
    assert np.linalg.norm(refined) <= 1e-13 * scale


@pytest.mark.parametrize("pinned", [False, True], ids=["mixed", "pinned"])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_bubble_block_is_per_element_2x2(scheme, pinned):
    disc, system = (_pinned_system if pinned else _small_system)(scheme)
    b = system.bubble_dofs
    assert len(b) == 2 * disc.mesh.n_elements
    assert b.stop == system.n_velocity
    A_bb = system.A.tocsr()[b.start : b.stop, b.start : b.stop].tocoo()
    off = A_bb.row // 2 != A_bb.col // 2
    assert not np.any(A_bb.data[off])
    blocks = A_bb.toarray().reshape(len(b) // 2, 2, len(b) // 2, 2)
    blocks = blocks[np.arange(len(b) // 2), :, np.arange(len(b) // 2), :]
    dets = np.linalg.det(blocks)
    scale = np.abs(blocks).max(axis=(1, 2))
    assert np.all(np.abs(dets) > 1e-8 * scale**2)
    # The condensation keeps exactly these blocks and their inverses, and
    # solves with the full system.
    condensation = system.condensation
    assert np.array_equal(condensation.bb, blocks)
    inverses = condensation.inverses
    assert inverses.shape == (len(b) // 2, 2, 2)
    assert np.allclose(inverses @ blocks, np.eye(2), atol=1e-12)
    assert condensation.matrix.shape == (system.n_dofs - len(b),) * 2
    rhs = np.random.default_rng(4).standard_normal(system.n_dofs)
    y = condensation.solve(spla.splu(condensation.matrix).solve, rhs)
    assert np.allclose(system.matrix() @ y, rhs, atol=1e-10 * np.max(np.abs(rhs)))


def test_bubble_elimination_rejects_bad_blocks(monkeypatch):
    # assemble inverts each element's 2x2 bubble block as it condenses, and
    # a singular one raises there, naming the first.  Zero metrics for
    # elements 3 and 7 zero all their momentum entries.
    disc, _ = _small_system(n=4)
    metric = schemes._momentum_metric

    def degenerate(*args, **kwargs):
        out = metric(*args, **kwargs)
        out[[7, 3]] = 0.0
        return out

    monkeypatch.setattr(schemes, "_momentum_metric", degenerate)
    with pytest.raises(BubbleStructureError, match="2 singular 2x2 bubble blocks, first at element 3"):
        assemble(disc, donea_huerta_case().problem())
    assert issubclass(BubbleStructureError, ValueError)
    assert BubbleStructureError is schemes.BubbleStructureError


def test_direct_solve_without_bubbles():
    rng = np.random.default_rng(8)
    A = sp.csr_matrix(rng.standard_normal((4, 4)) + 4.0 * np.eye(4))
    B = sp.csr_matrix(rng.standard_normal((4, 2)))
    system = SaddleSystem.from_blocks(
        A=A,
        B=B,
        C=sp.csr_matrix(B.T),
        D=sp.csr_matrix((2, 2)),
        rhs_momentum=rng.standard_normal(4),
        rhs_mass=rng.standard_normal(2),
        dirichlet_dofs=np.empty(0, dtype=np.int64),
    )
    want = np.linalg.solve(system.matrix().toarray(), system.rhs())
    assert np.allclose(direct_solve(system), want, atol=1e-12)


def test_both_solvers_take_a_general_pressure_block():
    # No bubbles and a dense, non-identity D: each solver and the residual
    # see the system as [[A, B], [C, D]].
    rng = np.random.default_rng(9)
    A = sp.csr_matrix(rng.standard_normal((5, 5)) + 5.0 * np.eye(5))
    system = SaddleSystem.from_blocks(
        A=A,
        B=sp.csr_matrix(rng.standard_normal((5, 3))),
        C=sp.csr_matrix(rng.standard_normal((3, 5))),
        D=sp.csr_matrix(rng.standard_normal((3, 3)) - 3.0 * np.eye(3)),
        rhs_momentum=rng.standard_normal(5),
        rhs_mass=rng.standard_normal(3),
        dirichlet_dofs=np.empty(0, dtype=np.int64),
    )
    J = system.matrix().toarray()
    assert np.array_equal(J[5:, 5:], system.D.toarray())
    want = np.linalg.solve(J, system.rhs())
    assert np.allclose(direct_solve(system), want, rtol=0, atol=1e-12 * np.max(np.abs(want)))
    report = gmres_solve(system, _StubPreconditioner(J))
    assert report.converged
    assert np.allclose(report.solution, want, rtol=0, atol=1e-12 * np.max(np.abs(want)))
    x = rng.standard_normal(8)
    full = system.rhs() - J @ x
    assert np.allclose(system.residual(x), full, rtol=0, atol=1e-14 * np.max(np.abs(full)))


@pytest.mark.parametrize("scheme", SCHEMES)
def test_condensed_preconditioner_keeps_iteration_counts(scheme):
    # The reference factors the same condensed blocks with scipy's default
    # ordering and partial pivoting, and runs the same condensed iteration.
    # At mu = 1e4 the two residual histories part by up to 1.3e-6 relative;
    # elsewhere they agree to 6e-13.
    # The counts are also viscosity-robust: at most 45 (criterion 3's bound)
    # and within 5 of each other across the three viscosities.
    counts = []
    for viscosity in (1e-4, 1.0, 1e4):
        disc, system = _dh_system(scheme, 20, viscosity)
        S = assemble_pressure_mass(disc, viscosity)
        x0 = random_initial_guess(disc, seed=9)
        ordered = gmres_solve(system, BlockPreconditioner.build(system, S), x0)
        default = gmres_solve(system, _DefaultLUPreconditioner(system, S), x0)
        assert ordered.converged and default.converged
        assert ordered.iterations == default.iterations, viscosity
        rtol = 1e-6 if viscosity <= 1.0 else 1e-4
        assert np.allclose(ordered.residual_history, default.residual_history, rtol=rtol)
        counts.append(ordered.iterations)
    assert max(counts) <= 45 and max(counts) - min(counts) <= 5, counts


@pytest.mark.parametrize("scheme", SCHEMES)
def test_pinned_gmres_counts_are_bounded(scheme):
    # All-Dirichlet boundary with pressure 0 pinned, mu = 1, 10x10 to 40x40.
    counts = []
    for n in (10, 20, 40):
        case = donea_huerta_case()
        disc = build(distort(generate_structured(n, n), 0.2, seed=31), scheme)
        system = assemble(disc, case.problem(), pin_pressure=0)
        precond = BlockPreconditioner.build(system, assemble_pressure_mass(disc, 1.0))
        report = gmres_solve(system, precond, random_initial_guess(disc, seed=9))
        assert report.converged
        counts.append(report.iterations)
    assert max(counts) <= 45 and max(counts) - min(counts) <= 5, counts


@pytest.mark.parametrize("scheme", SCHEMES)
def test_gmres_recovers_bubbles_to_round_off(scheme):
    # The bubbles are recovered from the full system's bubble rows, so those
    # rows of the full residual hold to round-off whatever the Krylov
    # tolerance left in the kept rows.
    disc, system = _dh_system(scheme, 10)
    precond = BlockPreconditioner.build(system, assemble_pressure_mass(disc, 1.0))
    report = gmres_solve(system, precond, random_initial_guess(disc, seed=9))
    residual = system.residual(report.solution)[system.bubble_dofs.start : system.bubble_dofs.stop]
    assert np.max(np.abs(residual)) <= 1e-13 * np.linalg.norm(system.rhs())


def test_gmres_memory_follows_iterations_taken():
    # The workspace once had max_iterations columns: 10**6 asked for 7.3 TiB.
    report = gmres_solve(_stub_system(np.eye(3), np.ones(3)), max_iterations=10**6)
    assert report.converged and report.iterations == 1
    disc, system = _dh_system("overlapping", 10)
    precond = BlockPreconditioner.build(system, assemble_pressure_mass(disc, 1.0))
    x0 = random_initial_guess(disc, seed=9)
    tracemalloc.start()
    try:
        report = gmres_solve(system, precond, x0, max_iterations=10**5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.converged
    kept = system.n_dofs - len(system.bubble_dofs)
    assert peak <= 4 * (report.iterations + 1) * kept * 8, (peak, report.iterations)


@pytest.mark.parametrize("viscosity", [1e-4, 1.0, 1e4])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_every_factor_pivots_on_the_diagonal(scheme, viscosity, monkeypatch):
    # A zero pivot threshold keeps every pivot on the diagonal chosen by the
    # minimum-degree ordering, even where the condensed pressure diagonal is
    # as small as h^2 / mu.
    disc, system = _dh_system(scheme, 20, viscosity)
    factors = _capture_factors(monkeypatch)
    direct_solve(system)
    precond = BlockPreconditioner.build(system, assemble_pressure_mass(disc, viscosity))
    # One single-precision direct factor, no double-precision fallback, and
    # the preconditioner's two factors in double.
    assert len(factors) == 3
    assert factors[1] is precond.lu_A and factors[2] is precond.lu_S
    assert [lu.L.dtype for lu in factors] == [np.float32, np.float64, np.float64]
    for lu in factors:
        assert np.array_equal(lu.perm_r, lu.perm_c)


@pytest.mark.parametrize("scheme", ["overlapping", "fem"])
def test_direct_solve_refines_a_single_precision_factor(scheme, monkeypatch):
    # The first solve, two contracting steps and the step that detects
    # stagnation: four residuals of the full system, and no fallback.
    _, system = _dh_system(scheme, 40)
    factors = _capture_factors(monkeypatch)
    residuals = []
    residual = SaddleSystem.residual

    def counting(self, x):
        residuals.append(x)
        return residual(self, x)

    monkeypatch.setattr(SaddleSystem, "residual", counting)
    x = direct_solve(system)
    assert [lu.L.dtype for lu in factors] == [np.float32]
    assert len(residuals) <= 4
    assert np.linalg.norm(residual(system, x)) <= 1e-13 * np.linalg.norm(system.rhs())


@pytest.mark.parametrize("scheme", SCHEMES)
def test_direct_solve_falls_back_to_double_when_the_cast_overflows(scheme, monkeypatch):
    # At mu = 1e40 the viscous entries overflow float32; the double factor
    # solves the system to the bound of the refinement test above, and no
    # overflow warning escapes.
    _, system = _dh_system(scheme, 8, viscosity=1e40)
    factors = _capture_factors(monkeypatch)
    x = direct_solve(system)
    assert [lu.L.dtype for lu in factors] == [np.float64]
    assert np.linalg.norm(system.residual(x)) <= 1e-13 * np.linalg.norm(system.rhs())


def _spd_with_condition(n, condition, seed):
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    return (q * np.logspace(0.0, -np.log10(condition), n)) @ q.T


@pytest.mark.parametrize(
    "J, single_factors",
    [
        # The first row underflows to zero in float32: SuperLU finds the
        # single-precision factor exactly singular.
        ([[2e-50, 1e-50, 0.0], [1e-50, 2.0, 1.0], [0.0, 1.0, 2.0]], 0),
        # Condition 1e9: float32 refinement does not contract.
        (_spd_with_condition(8, 1e9, seed=12), 1),
    ],
    ids=["singular-in-float32", "ill-conditioned"],
)
def test_direct_solve_falls_back_to_double_without_bubbles(J, single_factors, monkeypatch):
    J = np.asarray(J)
    b = np.random.default_rng(13).standard_normal(J.shape[0])
    factors = _capture_factors(monkeypatch)
    x = direct_solve(_stub_system(J, b))
    assert [lu.L.dtype for lu in factors] == [np.float32] * single_factors + [np.float64]
    want = np.linalg.solve(J, b)
    assert np.allclose(x, want, rtol=0, atol=1e-5 * np.max(np.abs(want)))


def test_direct_solve_raises_when_double_precision_misses_the_backward_error_test():
    # Diagonal pivots of 1e-25 against off-diagonal entries of order 1: the
    # factor's growth leaves refinement stuck at a backward error of about
    # 1e-7, where the unchecked solve returned a relative error of 1e-4.
    rng = np.random.default_rng(1)
    M = rng.standard_normal((3, 3))
    system = SaddleSystem.from_blocks(
        A=sp.csr_matrix(1e-25 * np.eye(3)),
        B=sp.csr_matrix(M),
        C=sp.csr_matrix(M.T),
        D=sp.csr_matrix(1e-25 * np.eye(3)),
        rhs_momentum=rng.standard_normal(3),
        rhs_mass=rng.standard_normal(3),
        dirichlet_dofs=np.empty(0, dtype=np.int64),
    )
    with pytest.raises(DirectSolveError, match=r"backward error \S+ > "):
        direct_solve(system)
    assert issubclass(DirectSolveError, ArithmeticError)


@pytest.mark.parametrize("scheme", ["overlapping", "fem"])
def test_direct_factor_fill_below_default_ordering(scheme, monkeypatch):
    # About 0.6 at 40x40 and 0.42 at 128x128; scipy's default (COLAMD
    # column ordering, partial pivoting) gives 1.
    _, system = _dh_system(scheme, 40)
    factors = _capture_factors(monkeypatch)
    direct_solve(system)
    default = spla.splu(_condense_full_matrix(system.matrix(), system.bubble_dofs))
    assert factors[0].nnz <= 0.75 * default.nnz


def _assert_balanced(disc, problem, system):
    """Direct solve, then the 1e-12 box-mass and interior-momentum audit."""
    x = direct_solve(system)
    assert np.linalg.norm(system.residual(x)) <= 1e-12 * np.linalg.norm(system.rhs())
    audit = conservation_audit(disc, x, problem)
    assert np.max(np.abs(audit.mass_residuals)) <= 1e-12 * audit.max_mass_flux
    momentum = np.linalg.norm(audit.momentum_residuals[audit.momentum_interior], axis=1)
    assert (momentum.size > 0) == disc.scheme.spec.flux_momentum
    assert np.max(momentum, initial=0.0) <= 1e-12 * audit.max_momentum_flux


# mu = 1 on the mixed boundary keeps the bare scheme id it had before the
# viscosity and boundary were parametrized.
_BALANCE_CASES = [
    pytest.param(
        scheme, mu, pinned,
        id=scheme if (mu, pinned) == (1.0, False)
        else f"{scheme}-mu{mu:g}-{'pinned' if pinned else 'mixed'}",
    )
    for scheme in SCHEMES
    for mu in (1e-4, 1.0, 1e4)
    for pinned in (False, True)
]


@pytest.mark.parametrize("scheme, viscosity, pinned", _BALANCE_CASES)
def test_direct_solve_box_balances_all_schemes(scheme, viscosity, pinned):
    # At 40x40 an unrefined solve misses the bound (about 2e-12), so this
    # also pins the refinement step with the full-system residual.  The
    # diagonal pivots meet the bound at mu = 1e-4 and 1e4 too; the pinned
    # case keeps the default all-Dirichlet markers and fixes pressure 0.
    case = donea_huerta_case(viscosity)
    mesh = distort(generate_structured(40, 40), 0.2, seed=101)
    disc = build(mesh if pinned else case.apply_bc(mesh), scheme)
    problem = case.problem()
    _assert_balanced(disc, problem, assemble(disc, problem, pin_pressure=0 if pinned else None))


@pytest.mark.parametrize("viscosity", [1e-4, 1e4])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_direct_solve_balances_on_distorted_msh_file(scheme, viscosity, tmp_path):
    # A user mesh through read_msh, distorted by 38 % of the shortest edge
    # (40 % degenerates triangles at this size): the smallest triangle has
    # about 1 % of the largest one's area.
    path = tmp_path / "distorted.msh"
    write_msh22(path, distort(generate_structured(24, 24), 0.38, seed=4))
    case = donea_huerta_case(viscosity)
    disc = build(case.apply_bc(read_msh(str(path))), scheme)
    problem = case.problem()
    _assert_balanced(disc, problem, assemble(disc, problem))


def test_gmres_breakdown_raises():
    system = _stub_system([[0.0, 1.0], [0.0, 0.0]], [1.0, 0.0])
    with pytest.raises(GMRESBreakdownError):
        gmres_solve(system)


@pytest.mark.parametrize("pinned", [False, True], ids=["mixed", "pinned"])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_no_solver_forms_the_full_matrix(scheme, pinned, monkeypatch):
    disc, system = (_pinned_system if pinned else _small_system)(scheme)

    def refuse(*args):
        raise AssertionError("the full saddle matrix or one of its blocks was formed")

    monkeypatch.setattr(SaddleSystem, "matrix", refuse)
    monkeypatch.setattr(schemes, "_full_matrix", refuse)       # A, B, C and D
    precond = BlockPreconditioner.build(system, assemble_pressure_mass(disc, 1.0))
    assert gmres_solve(system, precond).converged
    x = direct_solve(system)
    assert np.linalg.norm(system.residual(x)) <= 1e-12 * np.linalg.norm(system.rhs())


@pytest.mark.parametrize("pinned", [False, True], ids=["mixed", "pinned"])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_condensed_system_from_blocks_equals_full_matrix_oracle(scheme, pinned):
    # J_c condensed element by element on the vertex pattern holds every
    # entry of the condensation of the full matrix, split by fancy indexing,
    # to a few ulps of its largest entry; the entries it stores beyond the
    # oracle's (exact cancellations and Dirichlet rows) are round-off.
    disc, system = _pinned_system(scheme, n=20) if pinned else _dh_system(scheme, 20)
    want = _condense_full_matrix(system.matrix(), system.bubble_dofs)
    got = system.condensation.matrix
    assert got.format == "csc" and got.has_canonical_format
    assert got.shape == want.shape
    G, W = got.toarray(), want.toarray()
    assert np.max(np.abs(G - W)) <= 4 * np.finfo(float).eps * np.max(np.abs(W))
    stored = np.zeros(G.shape, dtype=bool)
    stored[got.tocoo().coords] = True
    assert stored[W != 0].all()
    # The residual summed by blocks agrees with the full matrix to round-off.
    x = np.random.default_rng(5).standard_normal(system.n_dofs)
    full = system.rhs() - system.matrix() @ x
    assert np.max(np.abs(system.residual(x) - full)) <= 1e-13 * np.max(np.abs(full))


def test_array_holding_results_compare_and_hash_by_identity():
    # Field-wise == would ask an array for one truth value.
    disc, system = _small_system(scheme="fem", n=3)
    problem = donea_huerta_case().problem()
    x = direct_solve(system)
    M = assemble_pressure_mass(disc, 1.0)
    pairs = [
        (system, assemble(disc, problem)),
        (system.condensation, assemble(disc, problem).condensation),
        (BlockPreconditioner.build(system, M), BlockPreconditioner.build(system, M)),
        (gmres_solve(system), gmres_solve(system)),
        (conservation_audit(disc, x, problem), conservation_audit(disc, x, problem)),
    ]
    for first, second in pairs:
        assert first == first and first != second
        assert len({first, second, first}) == 2



def test_condensed_pattern_and_direct_fill_depend_on_the_mesh_alone(monkeypatch):
    # J_c stores nine entries per vertex pair of the mesh, cancelled ones and
    # Dirichlet rows too, so its nnz and the minimum-degree fill of its
    # float32 factor are the same for every scheme, boundary and viscosity.
    mesh = distort(generate_structured(20, 20), 0.2, seed=33)
    pairs = schemes._vertex_closure(mesh).cols.size
    factors = _capture_factors(monkeypatch)
    nnz, fills = set(), set()
    for scheme in SCHEMES:
        for pinned in (False, True):
            for viscosity in (1.0, 1e-4):
                case = donea_huerta_case(viscosity)
                disc = build(mesh if pinned else case.apply_bc(mesh), scheme)
                system = assemble(disc, case.problem(), pin_pressure=0 if pinned else None)
                del factors[:]
                direct_solve(system)
                nnz.add(system.condensation.matrix.nnz)
                fills.add(factors[0].nnz)
    assert nnz == {9 * pairs}
    assert len(fills) == 1


@pytest.mark.parametrize("scheme", ["overlapping", "fem"])
def test_system_keeps_only_the_condensed_system_and_bubble_inverses(scheme):
    # The system is its condensation: J_c, J_kk on J_c's own indices, J_kb
    # and J_bk on one shared index array of nine kept unknowns per element,
    # and 32 bytes each of J_bb and its inverses per element.  It keeps no
    # CSR A, B or C; those are formed afresh on request and not kept.  Their
    # bytes per vertex pair and element are bounded in test_schemes'
    # test_assembly_peak_memory_is_bounded_by_its_blocks.
    disc, system = _dh_system(scheme, 24)
    ne = disc.mesh.n_elements
    c = system.condensation
    assert c.inverses.shape == c.bb.shape == (ne, 2, 2)
    assert c.inverses.nbytes == c.bb.nbytes == 32 * ne
    n_k, n_b = c.matrix.shape[0], len(system.bubble_dofs)
    assert [M.shape for M in (c.matrix, c.kk, c.kb, c.bk)] == [(n_k, n_k), (n_k, n_k), (n_k, n_b), (n_b, n_k)]
    assert np.shares_memory(c.kk.indices, c.matrix.indices) and np.shares_memory(c.kk.indptr, c.matrix.indptr)
    assert np.shares_memory(c.kb.indices, c.bk.indices) and c.kb.nnz == c.bk.nnz == 9 * n_b
    held = list(vars(system).values()) + list(vars(c).values())
    assert not any(sp.issparse(value) and value.shape[0] == system.n_velocity for value in held)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        blocks = (system.A, system.B, system.C)
        made = tracemalloc.get_traced_memory()[0] - base
        del blocks
        kept = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    # numpy's small-block caches keep a few KB, whatever the mesh size.
    assert made > 0 and kept <= 16384, (made, kept)
    assert system.A is not system.A


def test_pressure_mass_sums_on_the_vertex_pattern_as_the_closure_builder_does():
    # Filled by np.bincount on the vertex pattern, in the closure builder's
    # slot order, M_p keeps the bits of the CSR builder of A, B and C.
    disc = build(random_distorted_mesh(34, n=9), "overlapping")
    mesh = disc.mesh
    blocks = solver._REFERENCE_MASS[:, None, :, None, None] * (disc.elements.areas / 0.7)[:, None, None, None]
    pattern = closure(mesh, schemes._vertex_closure(mesh))
    want, _ = closure_csr(pattern, blocks, (mesh.n_vertices, mesh.n_vertices), np.arange(0))
    got = assemble_pressure_mass(disc, 0.7)
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
