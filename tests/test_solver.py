"""Pressure-mass Schur surrogate, preconditioner, GMRes, direct solve."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import cvstokes.solver as solver
from conftest import random_distorted_mesh, single_triangle_mesh, write_msh22
from cvstokes.geometry import build
from cvstokes.mesh import BCKind, distort, generate_structured, read_msh
from cvstokes.schemes import SaddleSystem, StokesProblem, assemble
from cvstokes.solver import (
    BlockPreconditioner,
    BubbleElimination,
    BubbleStructureError,
    GMRESBreakdownError,
    assemble_pressure_mass,
    direct_solve,
    gmres_solve,
    random_initial_guess,
)
from cvstokes.verification import conservation_audit, donea_huerta_case

MIXED = {"right": BCKind.NEUMANN, "top": BCKind.NEUMANN}
SCHEMES = ("overlapping", "non-overlapping", "hybrid", "fem")


class _StubSystem:
    """Minimal stand-in exposing matrix() and rhs() for the Krylov solver."""

    def __init__(self, J, b):
        self._J = sp.csr_matrix(np.asarray(J, dtype=float))
        self._b = np.asarray(b, dtype=float)

    def matrix(self):
        return self._J

    def rhs(self):
        return self._b


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


class _FullLUPreconditioner:
    """The block preconditioner with the velocity block factored whole."""

    def __init__(self, system, schur_approx):
        self.lu_A = spla.splu(system.A.tocsc())
        self.lu_S = spla.splu(sp.csc_matrix(schur_approx))
        self.C = system.C
        self.n_velocity = system.n_velocity

    def apply(self, r):
        z_u = self.lu_A.solve(r[: self.n_velocity])
        z_p = self.lu_S.solve(r[self.n_velocity :] - self.C @ z_u)
        return np.concatenate((z_u, z_p))


def test_pressure_mass_reference_triangle():
    disc = build(single_triangle_mesh(), "fem")
    M = assemble_pressure_mass(disc, viscosity=0.5).toarray()
    want = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 24.0
    assert np.allclose(M, want, atol=1e-15)


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
    disc, system = _small_system(n=5)
    S = assemble_pressure_mass(disc, viscosity=1.0)
    precond = BlockPreconditioner.build(system, S)
    rng = np.random.default_rng(0)
    r = rng.standard_normal(system.n_dofs)
    z = precond.apply(r)
    r_u = r[: system.n_velocity]
    r_p = r[system.n_velocity :]
    z_u = z[: system.n_velocity]
    z_p = z[system.n_velocity :]
    assert np.allclose(system.A @ z_u, r_u, atol=1e-10)
    assert np.allclose(S @ z_p, r_p - system.C @ z_u, atol=1e-10)
    # apply() is linear
    z2 = precond.apply(2.0 * r)
    assert np.allclose(z2, 2.0 * z, atol=1e-10)


def test_gmres_identity_system():
    b = np.array([3.0, -1.0, 2.0, 0.5])
    report = gmres_solve(_StubSystem(np.eye(4), b))
    assert report.converged
    assert report.iterations == 1
    assert np.allclose(report.solution, b, atol=1e-14)


def test_gmres_zero_residual_short_circuits():
    rng = np.random.default_rng(1)
    J = rng.standard_normal((5, 5)) + 5.0 * np.eye(5)
    report = gmres_solve(_StubSystem(J, np.zeros(5)))
    assert report.converged
    assert report.iterations == 0
    assert np.allclose(report.solution, 0.0, atol=1e-15)
    # Starting from the exact solution still converges to it.
    x = rng.standard_normal(5)
    report = gmres_solve(_StubSystem(J, J @ x), x0=x)
    assert report.converged
    assert np.allclose(report.solution, x, atol=1e-12)


def test_gmres_exact_preconditioner_converges_immediately():
    rng = np.random.default_rng(2)
    J = rng.standard_normal((8, 8)) + 8.0 * np.eye(8)
    b = rng.standard_normal(8)
    system = _StubSystem(J, b)
    report = gmres_solve(system, preconditioner=_StubPreconditioner(J))
    assert report.converged
    assert report.iterations <= 2
    assert np.allclose(J @ report.solution, b, atol=1e-9)


def test_gmres_dense_comparison():
    rng = np.random.default_rng(3)
    J = rng.standard_normal((30, 30)) + 10.0 * np.eye(30)
    b = rng.standard_normal(30)
    report = gmres_solve(_StubSystem(J, b), reduction=1e12, max_iterations=60)
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
        gmres_solve(_StubSystem(np.eye(3), np.ones(3)), max_iterations=max_iterations)


@pytest.mark.parametrize("reduction", [0.0, 0.5, 1.0, -1e10, np.inf, np.nan])
def test_gmres_rejects_reduction_not_above_one(reduction):
    # 0 used to divide by zero, and 0.5 reported convergence after one
    # step whose residual had grown to 0.8 of the start.
    with pytest.raises(ValueError, match="reduction"):
        gmres_solve(_StubSystem(np.eye(3), np.ones(3)), reduction=reduction)


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
    # The elimination accepts the block and solves with A exactly.
    elim = BubbleElimination.build(system.A, b)
    assert elim.condensed.shape == (system.n_velocity - len(b),) * 2
    rhs = np.random.default_rng(4).standard_normal(system.n_velocity)
    y = elim.solve(spla.splu(elim.condensed).solve, rhs)
    assert np.allclose(system.A @ y, rhs, atol=1e-10)


def test_bubble_elimination_rejects_bad_blocks():
    disc, system = _small_system(n=4)
    lo = system.bubble_dofs.start
    A = system.A.tolil()
    A[lo, lo + 2] = 1e-3                 # couple the bubbles of elements 0 and 1
    coupled = dataclasses.replace(system, A=A.tocsr(), _matrix=None)
    with pytest.raises(BubbleStructureError, match="outside"):
        direct_solve(coupled)
    with pytest.raises(BubbleStructureError, match="outside"):
        BlockPreconditioner.build(coupled, assemble_pressure_mass(disc, 1.0))

    A = system.A.tolil()
    A[lo + 1, lo] = A[lo, lo]            # second row of the first block = first row
    A[lo + 1, lo + 1] = A[lo, lo + 1]
    singular = dataclasses.replace(system, A=A.tocsr(), _matrix=None)
    with pytest.raises(BubbleStructureError, match="singular"):
        direct_solve(singular)
    assert issubclass(BubbleStructureError, ValueError)


def test_direct_solve_without_bubbles():
    rng = np.random.default_rng(8)
    A = sp.csr_matrix(rng.standard_normal((4, 4)) + 4.0 * np.eye(4))
    B = sp.csr_matrix(rng.standard_normal((4, 2)))
    system = SaddleSystem(
        A=A,
        B=B,
        C=sp.csr_matrix(B.T),
        rhs_momentum=rng.standard_normal(4),
        rhs_mass=rng.standard_normal(2),
        dirichlet_dofs=np.empty(0, dtype=np.int64),
    )
    want = np.linalg.solve(system.matrix().toarray(), system.rhs())
    assert np.allclose(direct_solve(system), want, atol=1e-12)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_condensed_preconditioner_keeps_iteration_counts(scheme):
    # The reference factors the whole velocity block with scipy's default
    # ordering and partial pivoting.  At mu = 1e4 the two residual histories
    # part by up to 1.1e-5 relative, with the default ordering on both
    # sides as with the minimum-degree one; elsewhere they agree to 4e-11.
    # The counts are also viscosity-robust: at most 45 (criterion 3's bound)
    # and within 5 of each other across the three viscosities.
    counts = []
    for viscosity in (1e-4, 1.0, 1e4):
        disc, system = _dh_system(scheme, 20, viscosity)
        S = assemble_pressure_mass(disc, viscosity)
        x0 = random_initial_guess(disc, seed=9)
        condensed = gmres_solve(system, BlockPreconditioner.build(system, S), x0)
        full = gmres_solve(system, _FullLUPreconditioner(system, S), x0)
        assert condensed.converged and full.converged
        assert condensed.iterations == full.iterations, viscosity
        rtol = 1e-6 if viscosity <= 1.0 else 1e-4
        assert np.allclose(condensed.residual_history, full.residual_history, rtol=rtol)
        counts.append(condensed.iterations)
    assert max(counts) <= 45 and max(counts) - min(counts) <= 5, counts


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
    assert len(factors) == 3
    assert factors[1] is precond.lu_A and factors[2] is precond.lu_S
    for lu in factors:
        assert np.array_equal(lu.perm_r, lu.perm_c)


@pytest.mark.parametrize("scheme", ["overlapping", "fem"])
def test_direct_factor_fill_below_default_ordering(scheme, monkeypatch):
    # About 0.6 at 40x40 and 0.42 at 128x128; scipy's default (COLAMD
    # column ordering, partial pivoting) gives 1.
    _, system = _dh_system(scheme, 40)
    factors = _capture_factors(monkeypatch)
    direct_solve(system)
    default = spla.splu(BubbleElimination.build(system.matrix(), system.bubble_dofs).condensed)
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
    system = _StubSystem([[0.0, 1.0], [0.0, 0.0]], [1.0, 0.0])
    with pytest.raises(GMRESBreakdownError):
        gmres_solve(system)
