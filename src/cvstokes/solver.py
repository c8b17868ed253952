"""Preconditioned iterative and direct solution of the saddle-point systems.

Both solvers work on the saddle system with its bubble unknowns eliminated
(Arnold, Brezzi & Fortin 1984).  Every bubble row touches only its own
element, so the bubble-bubble block of the system matrix J is block
diagonal with one 2x2 block per element.  Ordering J as kept (k) and
bubble (b) unknowns,

    [[J_kk, J_kb], [J_bk, J_bb]],

the bubbles drop out through the condensed system
J_c = J_kk - J_kb J_bb^{-1} J_bk, whose solve is followed by the local
recovery y_b = J_bb^{-1} (r_b - J_bk y_k).  The kept unknowns are the
vertex velocities and the pressures, three per vertex instead of two per
vertex and element plus one per vertex.  `assemble` condenses element by
element: each element's 9x9 vertex block loses kb bb^{-1} bk, its 2x2
bubble block bb against its bubble rows and columns, and J_c is written
straight into CSC on the mesh's vertex pattern, nine entries per vertex
pair, zeros kept, so its pattern and its factor's fill depend on the mesh
alone.  The system is stored as these parts and nothing else
(`SaddleSystem.condensation`): J_kk on J_c's indices, J_kb and J_bk on one
shared array of each element's nine kept unknowns, the (ne, 2, 2) blocks
of J_bb and their inverses, and J_c.  The solvers condense right-hand
sides, recover bubbles, evaluate the full residual and scale its backward
error |J| |x| by products with these parts; J itself and its blocks A, B
and C are never formed.

The saddle system is [[A, B], [C, D]], where D is the pressure-pressure
block: the identity entry of a pinned pressure, or empty.  The condensed
system is J_c = [[A_c, B_c], [C_c, D + D_c]], where A_c is the velocity
block with its bubbles eliminated and D_c = -C_b A_bb^{-1} B_b the
pressure coupling the elimination leaves behind.  The Krylov solver is a
non-restarted left-preconditioned GMRes on J_c that terminates when the
Euclidean norm of the preconditioned residual has dropped by a given
factor relative to its initial value; the bubbles are then recovered
once, element by element, so the bubble rows of the full system hold to
round-off.  The preconditioner is block triangular (Elman, Silvester &
Wathen): an exact solve with A_c, and a Schur-complement surrogate
S = M_p / (2 mu) - D_c built from the pressure mass matrix M_p.  Applied
to a residual (r_u, r_p) it returns

    z_u = A_c^{-1} r_u
    z_p = S^{-1} (r_p - C_c z_u).

The direct solver factors a single-precision copy of J_c, which holds
about half the memory of a double-precision factor, and refines the
solution in double (mixed-precision iterative refinement; Buttari et al.,
ACM TOMS 34(4), 2008; LAPACK DSGESV).  Each refinement step evaluates the
residual of the full, uncondensed system part by part, so the flux
balances of the recovered solution hold to the round-off of that
evaluation; a row-wise backward-error test accepts the result or sends the
solve to a double-precision factor.  The preconditioner's factors stay in
double.

Every sparse factorization (the condensed saddle system, its velocity
block A_c and the Schur surrogate S) is a SuperLU factor with a
minimum-degree ordering of M + M^T and diagonal pivots.  The operators are
structurally near-symmetric; for the condensed saddle system this ordering
leaves about 0.6 (40x40 mesh) to 0.42 (128x128) of the fill of scipy's
default column ordering with partial pivoting.  The pivot threshold is
zero, so a row pivot is taken only where a diagonal entry is exactly zero.
A positive threshold swaps rows away from the condensed pressure
diagonal, which is about h^2 / mu.  On a 64x64 mesh at mu = 1e4,
thresholds 1e-6 and 1e-3 raise the fill from 1.8 M to 72-74 M and the
factor time from 0.14 s to 60 s (2 cores); at mu = 1, threshold 1e-3
gives back the fill of the default ordering.
Without a threshold, accuracy rests on the diagonal pivots staying away
from zero relative to their columns; the direct solve's backward-error
test, which raises DirectSolveError when even the double-precision
factor misses it, and the tests' residual and conservation audits (up to
mu = 1e4, and on a strongly distorted mesh read from an MSH file) check
that this holds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg import solve_triangular
from scipy.sparse.linalg import splu

from .basis import barycentric, triangle_rule
from .geometry import GridDiscretization
# `assemble` raises BubbleStructureError; it stays importable from here.
from .schemes import BubbleStructureError, SaddleSystem, _checked_viscosity, _vertex_closure  # noqa: F401

MASS_QUAD_DEGREE = 2
# The hats' products integrated over the reference triangle by the degree-2 rule.
_MASS_RULE = triangle_rule(MASS_QUAD_DEGREE)
_MASS_HATS = barycentric(_MASS_RULE.points)                  # (nq, 3)
_REFERENCE_MASS = np.einsum("q,qi,qj->ij", _MASS_RULE.weights, _MASS_HATS, _MASS_HATS)


def assemble_pressure_mass(disc: GridDiscretization, viscosity: float) -> sp.csr_matrix:
    """Vertex-pressure mass matrix scaled by 1 / (2 mu).

    Uses a degree-2 volume rule, which integrates the products of hat
    functions exactly.  The element blocks are summed on the mesh's vertex
    pattern, the pattern of J_c's pressure block, in slot order; the
    pattern is built once per mesh, and `assemble` sums on it too.
    Raises ConfigurationError unless the viscosity is finite and positive.
    """
    viscosity = _checked_viscosity(viscosity)
    blocks = _REFERENCE_MASS[:, None, :] * (disc.elements.areas / viscosity)[:, None]
    vertices = _vertex_closure(disc.mesh)
    data = np.bincount(vertices.slots.ravel(), blocks.ravel(), minlength=vertices.cols.size)
    n_p = disc.n_pressure_dofs
    return sp.csr_matrix((data, vertices.cols.copy(), vertices.indptr.astype(np.int32)), shape=(n_p, n_p))


def random_initial_guess(disc: GridDiscretization, seed: int) -> np.ndarray:
    """Uniform [-1, 1] start vector, zeroed on Dirichlet velocity dofs."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=disc.n_dofs)
    dverts = disc.mesh.dirichlet_vertices()
    x[2 * dverts] = 0.0
    x[2 * dverts + 1] = 0.0
    return x


def _factor(M: sp.csc_matrix):
    """SuperLU factor with a minimum-degree ordering of M + M^T and diagonal pivots.

    `splu` is looked up at call time, so a caller may rebind `solver.splu`
    to observe every factor.
    """
    return splu(
        M, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, options=dict(SymmetricMode=True)
    )


class GMRESBreakdownError(ArithmeticError):
    """The Krylov space became invariant while the Hessenberg matrix is singular."""


class DirectSolveError(ArithmeticError):
    """The direct solve's double-precision result misses its backward-error test."""


@dataclass(eq=False)
class BlockPreconditioner:
    """Block-triangular preconditioner of the condensed saddle system.

    `lu_A` factors the condensed velocity block A_c and `lu_S` the
    Schur-complement surrogate M_p / (2 mu) - D_c; `C` is the condensed
    mass block C_c and `n_velocity` the number of kept velocity unknowns.
    """

    lu_A: object
    lu_S: object
    C: sp.csc_matrix
    n_velocity: int

    @classmethod
    def build(cls, system: SaddleSystem, schur_approx: sp.spmatrix) -> "BlockPreconditioner":
        """`schur_approx` is the pressure mass matrix scaled by 1 / (2 mu)."""
        condensation = system.condensation
        J_c, n_u = condensation.matrix, condensation.bubble_dofs.start
        D_c = J_c[n_u:, n_u:] - condensation.kk[n_u:, n_u:]     # J_kk's pressure block is D
        A_c = J_c[:n_u, :n_u]
        A_c.eliminate_zeros()           # cancelled entries and Dirichlet rows' zeros on the vertex pattern
        lu_A = _factor(A_c)
        lu_S = _factor(sp.csc_matrix(schur_approx) - D_c)
        return cls(lu_A=lu_A, lu_S=lu_S, C=J_c[n_u:, :n_u], n_velocity=n_u)

    def apply(self, r: np.ndarray) -> np.ndarray:
        r_u = r[: self.n_velocity]
        r_p = r[self.n_velocity :]
        z_u = self.lu_A.solve(r_u)
        z_p = self.lu_S.solve(r_p - self.C @ z_u)
        return np.concatenate((z_u, z_p))


@dataclass(eq=False)
class SolveReport:
    """Outcome of a linear solve."""

    solution: np.ndarray
    iterations: int
    relative_residual: float
    converged: bool
    residual_history: np.ndarray = field(repr=False, default=None)


# Krylov basis vectors allocated at a time.
_CHUNK = 32


def gmres_solve(
    system: SaddleSystem,
    preconditioner: BlockPreconditioner | None = None,
    x0: np.ndarray | None = None,
    reduction: float = 1e10,
    max_iterations: int = 500,
) -> SolveReport:
    """Non-restarted left-preconditioned GMRes on the condensed saddle system.

    Iterates on the kept unknowns of `system.condensation`, from the
    kept entries of `x0` (zero if omitted), and returns the full solution
    with the bubbles recovered element by element.  Stops once the
    preconditioned residual norm has been reduced by `reduction` relative
    to its value at the start.  The residual norm comes for free from the
    Givens recurrence, so each iteration costs one operator and one
    preconditioner application.  The basis is orthogonalized by classical
    Gram-Schmidt with one re-orthogonalization and grows `_CHUNK` vectors
    at a time, so memory follows the iterations taken.  Raises ValueError
    unless `max_iterations` >= 1, `reduction` is a finite number above 1
    and `x0` is finite with one entry per unknown.
    """
    if max_iterations < 1:
        raise ValueError(f"max_iterations must be at least 1, got {max_iterations}")
    if not (np.isfinite(reduction) and reduction > 1.0):
        raise ValueError(f"reduction must be a finite number above 1, got {reduction}")
    b = system.rhs()
    n = b.shape[0]
    x0 = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float)
    if x0.shape != (n,):
        raise ValueError(f"x0 has shape {x0.shape}, but the system has {n} unknowns")
    if not np.all(np.isfinite(x0)):
        raise ValueError(f"x0 has {np.count_nonzero(~np.isfinite(x0))} entries that are nan or inf")
    bubbles = system.condensation
    J = bubbles.matrix
    x0 = bubbles.split(x0)[0]

    def precondition(r):
        return preconditioner.apply(r) if preconditioner is not None else r

    z0 = precondition(bubbles.condense(b) - J @ x0)
    beta = float(np.linalg.norm(z0))
    if beta == 0.0:
        return SolveReport(bubbles.recover(b, x0), 0, 0.0, True, np.zeros(1))

    target = beta / reduction
    Q = np.empty((min(max_iterations, _CHUNK) + 1, x0.size))
    Q[0] = z0 / beta
    R = []                  # rotated Hessenberg columns
    cs, sn, g = [], [], [beta]
    history = [beta]

    m = 0
    converged = False
    for j in range(max_iterations):
        V = Q[: j + 1]
        w = precondition(J @ Q[j])
        h = V @ w
        w -= h @ V
        d = V @ w
        w -= d @ V
        h += d
        h_next = float(np.linalg.norm(w))

        # Apply accumulated rotations, then the new one.
        for i in range(j):
            h[i], h[i + 1] = cs[i] * h[i] + sn[i] * h[i + 1], -sn[i] * h[i] + cs[i] * h[i + 1]
        denom = np.hypot(h[j], h_next)
        if denom == 0.0:
            raise GMRESBreakdownError(
                f"GMRes breakdown at iteration {j + 1}: the Krylov space is "
                "invariant but the operator is singular on it"
            )
        cs.append(h[j] / denom)
        sn.append(h_next / denom)
        h[j] = denom
        R.append(h)
        g.append(-sn[j] * g[j])
        g[j] = cs[j] * g[j]

        m = j + 1
        history.append(abs(g[m]))
        if history[-1] <= target or h_next == 0.0:
            # A vanishing h_next means the Krylov space became invariant,
            # which drives the recurrence residual to zero as well.
            converged = True
            break
        if m == Q.shape[0]:
            Q = np.concatenate((Q, np.empty((min(_CHUNK, max_iterations + 1 - m), Q.shape[1]))))
        Q[m] = w / h_next

    H = np.zeros((m, m))
    for j, h in enumerate(R):
        H[: j + 1, j] = h
    y = solve_triangular(H, np.asarray(g[:m]), lower=False)
    x = bubbles.recover(b, x0 + y @ Q[:m])
    rel = history[-1] / beta
    return SolveReport(x, m, float(rel), converged, np.asarray(history))


# Refinement steps at most per factor.
_MAX_REFINEMENTS = 10


def direct_solve(system: SaddleSystem) -> np.ndarray:
    """Sparse LU solve of the saddle-point system with its bubbles eliminated.

    The condensed system is factored in single precision and the solution
    refined in double against the residual of the full system (Buttari et
    al. 2008; LAPACK DSGESV).  The result is accepted when its row-wise
    backward error max_i |r_i| / (|J| |x| + |b|)_i is at most sqrt(n) eps,
    which also bounds DSGESV's normwise test; every row's balance then holds
    to the round-off of the residual evaluation, which matters when flux
    balances of the solution are inspected directly.  Otherwise, or if the
    single-precision copy overflows or its factor is exactly singular, the
    condensed system is factored in double and refined the same way.
    Raises DirectSolveError if even that result misses the test.
    """
    J_c = system.condensation.matrix
    b = system.rhs()
    tol = np.sqrt(b.size) * np.finfo(np.float64).eps
    solve = _single_precision_solver(J_c)
    if solve is not None:
        x, r = _refine(system, b, solve)
        del solve                   # frees the factor before the fallback
        if _backward_error(system, x, r) <= tol:
            return x
    x, r = _refine(system, b, _factor(J_c).solve)
    error = _backward_error(system, x, r)
    if not error <= tol:
        raise DirectSolveError(
            f"direct solve missed the backward-error test with a double-precision "
            f"factor: backward error {error:.3g} > {tol:.3g}"
        )
    return x


def _single_precision_solver(J_c: sp.csc_matrix):
    """Solver of J_c y = r through a float32 factor of J_c, or None if the
    cast overflows or SuperLU finds the factor exactly singular.

    r is scaled by its largest entry before the cast, so its magnitude
    stays inside the single-precision range.
    """
    with np.errstate(over="ignore"):
        data = J_c.data.astype(np.float32)
    if not np.all(np.isfinite(data)):
        return None
    try:
        lu = _factor(sp.csc_matrix((data, J_c.indices, J_c.indptr), shape=J_c.shape))
    except RuntimeError:
        return None

    def solve(r):
        scale = np.max(np.abs(r), initial=0.0)
        if scale == 0.0:
            return np.zeros_like(r)
        return lu.solve((r / scale).astype(np.float32)).astype(np.float64) * scale

    return solve


def _refine(system: SaddleSystem, b: np.ndarray, solve):
    """(x, b - J x): the solution through `solve` of the condensed system,
    refined against the full residual until it is zero, a step no longer
    halves its 2-norm (keeping the better iterate) or `_MAX_REFINEMENTS`
    steps were taken."""
    bubbles = system.condensation
    with np.errstate(over="ignore", invalid="ignore"):
        x = bubbles.solve(solve, b)
        r = system.residual(x)
        norm = np.linalg.norm(r)
        for _ in range(_MAX_REFINEMENTS):
            if norm == 0.0:
                break
            x_new = x + bubbles.solve(solve, r)
            r_new = system.residual(x_new)
            norm_new = np.linalg.norm(r_new)
            halved = norm_new <= 0.5 * norm
            if norm_new < norm:
                x, r, norm = x_new, r_new, norm_new
            if not halved:
                break
    return x, r


def _backward_error(system: SaddleSystem, x: np.ndarray, r: np.ndarray) -> float:
    """Row-wise backward error max_i |r_i| / (|J| |x| + |b|)_i of x, where
    r = b - J x; a row with r_i = 0 counts 0, and a non-finite x gives nan."""
    scale = np.abs(system.rhs()) + system.condensation.product(np.abs(x), absolute=True)
    r = np.abs(r)
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.max(np.where(r == 0.0, 0.0, r / scale), initial=0.0))
