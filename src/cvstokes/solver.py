"""Preconditioned iterative and direct solution of the saddle-point systems.

Both solvers first eliminate the bubble unknowns of the MINI velocity
(Arnold, Brezzi & Fortin 1984).  Every bubble row touches only its own
element, so the bubble-bubble block of any operator built from A is
block diagonal with one 2x2 block per element.  Ordering an operator M as
kept (k) and bubble (b) unknowns,

    [[M_kk, M_kb], [M_bk, M_bb]],

the bubbles drop out through the condensed operator
M_kk - M_kb M_bb^{-1} M_bk, whose solve is followed by the local recovery
y_b = M_bb^{-1} (r_b - M_bk y_k).  This is an exact solve of M, so only
the size of the sparse factorizations changes.

The preconditioner is block triangular: exact application of the inverse
of the velocity block A, and the inverse of a Schur-complement surrogate
for the pressure block, here the pressure mass matrix scaled by
1 / (2 mu).  Applied to a residual (r_u, r_p) it returns

    z_u = A^{-1} r_u
    z_p = S^{-1} (r_p - C z_u)

with A^{-1} applied through the condensed vertex block and S^{-1} by a
sparse LU factorization.  The Krylov solver is a non-restarted
left-preconditioned GMRes that terminates when the Euclidean norm of the
preconditioned residual has dropped by a given factor relative to its
initial value.

The direct solver factors the condensed saddle-point system, whose size
is three unknowns per vertex instead of two per vertex and element plus
one per vertex.  Its iterative refinement evaluates the residual with the
full, uncondensed system, so the flux balances of the recovered solution
hold to the round-off of that evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg import solve_triangular
from scipy.sparse.linalg import splu

from .basis import barycentric, triangle_rule
from .geometry import GridDiscretization
from .schemes import SaddleSystem

MASS_QUAD_DEGREE = 2


def assemble_pressure_mass(disc: GridDiscretization, viscosity: float) -> sp.csr_matrix:
    """Vertex-pressure mass matrix scaled by 1 / (2 mu).

    Uses a degree-2 volume rule, which integrates the products of hat
    functions exactly.
    """
    rule = triangle_rule(MASS_QUAD_DEGREE)
    lam = barycentric(rule.points)              # (nq, 3)
    ref_block = np.einsum("q,qi,qj->ij", rule.weights, lam, lam)
    areas = disc.elements.areas
    blocks = (2.0 * areas)[:, None, None] * ref_block[None] / (2.0 * viscosity)
    tri = disc.mesh.triangles
    rows = np.repeat(tri, 3, axis=1).ravel()
    cols = np.tile(tri, (1, 3)).ravel()
    n_p = disc.n_pressure_dofs
    return sp.coo_matrix((blocks.ravel(), (rows, cols)), shape=(n_p, n_p)).tocsr()


def random_initial_guess(disc: GridDiscretization, seed: int) -> np.ndarray:
    """Uniform [-1, 1] start vector, zeroed on Dirichlet velocity dofs."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=disc.n_dofs)
    dverts = disc.mesh.dirichlet_vertices()
    x[2 * dverts] = 0.0
    x[2 * dverts + 1] = 0.0
    return x


class BubbleStructureError(ValueError):
    """The bubble-bubble block is not made of invertible per-element 2x2 blocks."""


class GMRESBreakdownError(ArithmeticError):
    """The Krylov space became invariant while the Hessenberg matrix is singular."""


@dataclass
class BubbleElimination:
    """Local elimination of the bubble unknowns from a square operator M.

    `bubbles` is the contiguous range of bubble unknowns, two per element
    (x and y); all other unknowns are kept.  `condensed` is the Schur
    complement M_kk - M_kb M_bb^{-1} M_bk on the kept unknowns.
    """

    bubbles: range
    condensed: sp.csc_matrix
    M_kb: sp.csr_matrix
    M_bk: sp.csr_matrix
    M_bb_inv: sp.csr_matrix

    @classmethod
    def build(cls, M: sp.spmatrix, bubbles: range) -> "BubbleElimination":
        M = sp.csr_matrix(M)
        lo, hi = bubbles.start, bubbles.stop
        keep = np.r_[0:lo, hi : M.shape[0]]
        rows_k, rows_b = M[keep], M[lo:hi]
        M_bb_inv = _invert_bubble_blocks(rows_b[:, lo:hi])
        M_kb, M_bk = rows_k[:, lo:hi], rows_b[:, keep]
        condensed = rows_k[:, keep] - M_kb @ (M_bb_inv @ M_bk)
        return cls(bubbles, condensed.tocsc(), M_kb, M_bk, M_bb_inv)

    def solve(self, solve_condensed, r: np.ndarray) -> np.ndarray:
        """Solve M y = r, given a solver of the condensed operator."""
        lo, hi = self.bubbles.start, self.bubbles.stop
        r_b = r[lo:hi]
        r_k = np.concatenate((r[:lo], r[hi:]))
        y_k = solve_condensed(r_k - self.M_kb @ (self.M_bb_inv @ r_b))
        y_b = self.M_bb_inv @ (r_b - self.M_bk @ y_k)
        return np.concatenate((y_k[:lo], y_b, y_k[lo:]))


def _invert_bubble_blocks(M_bb: sp.csr_matrix) -> sp.csr_matrix:
    """Inverse of a block-diagonal matrix of 2x2 blocks, as a sparse matrix.

    Raises BubbleStructureError if a nonzero entry couples two different
    blocks or if a block is numerically singular.
    """
    n = M_bb.shape[0]
    if n % 2:
        raise BubbleStructureError(f"odd number of bubble unknowns ({n})")
    M_bb.sum_duplicates()
    diag = M_bb.diagonal()
    a, d = diag[0::2], diag[1::2]
    b, c = M_bb.diagonal(1)[0::2], M_bb.diagonal(-1)[0::2]
    outside = np.count_nonzero(M_bb.data) - sum(np.count_nonzero(v) for v in (diag, b, c))
    if outside:
        raise BubbleStructureError(
            f"bubble block has {outside} nonzero entries outside its per-element 2x2 blocks"
        )
    det = a * d - b * c
    scale = np.max(np.abs((a, b, c, d)), axis=0, initial=0.0)
    singular = ~(np.abs(det) > np.finfo(float).eps * scale**2)
    if np.any(singular):
        raise BubbleStructureError(
            f"{int(singular.sum())} singular 2x2 bubble blocks, "
            f"first at element {int(np.flatnonzero(singular)[0])}"
        )
    inv = np.stack((d, -b, -c, a), axis=-1) / det[:, None]
    cols = (np.arange(0, n, 2)[:, None] + np.array([0, 1, 0, 1])).ravel()
    return sp.csr_matrix((inv.ravel(), cols, np.arange(0, 2 * n + 1, 2)), shape=(n, n))


@dataclass
class BlockPreconditioner:
    """Block-triangular preconditioner with exact sub-solves.

    `lu_A` factors the velocity block with its bubbles eliminated;
    `bubbles` turns that factor into an exact solve with A.
    """

    lu_A: object
    lu_S: object
    C: sp.csr_matrix
    n_velocity: int
    bubbles: BubbleElimination

    @classmethod
    def build(cls, system: SaddleSystem, schur_approx: sp.spmatrix) -> "BlockPreconditioner":
        bubbles = BubbleElimination.build(system.A, system.bubble_dofs)
        lu_A = splu(bubbles.condensed)
        lu_S = splu(sp.csc_matrix(schur_approx))
        return cls(lu_A=lu_A, lu_S=lu_S, C=system.C, n_velocity=system.n_velocity, bubbles=bubbles)

    def apply(self, r: np.ndarray) -> np.ndarray:
        r_u = r[: self.n_velocity]
        r_p = r[self.n_velocity :]
        z_u = self.bubbles.solve(self.lu_A.solve, r_u)
        z_p = self.lu_S.solve(r_p - self.C @ z_u)
        return np.concatenate((z_u, z_p))


@dataclass
class SolveReport:
    """Outcome of a linear solve."""

    solution: np.ndarray
    iterations: int
    relative_residual: float
    converged: bool
    residual_history: np.ndarray = field(repr=False, default=None)


def gmres_solve(
    system: SaddleSystem,
    preconditioner: BlockPreconditioner | None = None,
    x0: np.ndarray | None = None,
    reduction: float = 1e10,
    max_iterations: int = 500,
) -> SolveReport:
    """Non-restarted left-preconditioned GMRes.

    Stops once the preconditioned residual norm has been reduced by
    `reduction` relative to its value at `x0` (zero if omitted).  The
    residual norm comes for free from the Givens recurrence, so each
    iteration costs one operator and one preconditioner application.
    Raises ValueError unless `max_iterations` >= 1 and `reduction` is a
    finite number above 1.
    """
    if max_iterations < 1:
        raise ValueError(f"max_iterations must be at least 1, got {max_iterations}")
    if not (np.isfinite(reduction) and reduction > 1.0):
        raise ValueError(f"reduction must be a finite number above 1, got {reduction}")
    J = system.matrix()
    b = system.rhs()
    n = b.shape[0]
    x0 = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float)

    def precondition(r):
        return preconditioner.apply(r) if preconditioner is not None else r

    r0 = b - J @ x0
    z0 = precondition(r0)
    beta = float(np.linalg.norm(z0))
    if beta == 0.0:
        return SolveReport(x0.copy(), 0, 0.0, True, np.zeros(1))

    target = beta / reduction
    V = [z0 / beta]
    H = np.zeros((max_iterations + 1, max_iterations))
    cs = np.zeros(max_iterations)
    sn = np.zeros(max_iterations)
    g = np.zeros(max_iterations + 1)
    g[0] = beta
    history = [beta]

    m = 0
    converged = False
    for j in range(max_iterations):
        w = precondition(J @ V[j])
        for i in range(j + 1):
            H[i, j] = V[i] @ w
            w -= H[i, j] * V[i]
        h_next = float(np.linalg.norm(w))
        H[j + 1, j] = h_next

        # Apply accumulated rotations, then the new one.
        for i in range(j):
            hi, hj = H[i, j], H[i + 1, j]
            H[i, j] = cs[i] * hi + sn[i] * hj
            H[i + 1, j] = -sn[i] * hi + cs[i] * hj
        denom = np.hypot(H[j, j], H[j + 1, j])
        if denom == 0.0:
            raise GMRESBreakdownError(
                f"GMRes breakdown at iteration {j + 1}: the Krylov space is "
                "invariant but the operator is singular on it"
            )
        cs[j] = H[j, j] / denom
        sn[j] = H[j + 1, j] / denom
        H[j, j] = denom
        H[j + 1, j] = 0.0
        g[j + 1] = -sn[j] * g[j]
        g[j] = cs[j] * g[j]

        m = j + 1
        history.append(abs(g[j + 1]))
        if history[-1] <= target or h_next == 0.0:
            # A vanishing h_next means the Krylov space became invariant,
            # which drives the recurrence residual to zero as well.
            converged = True
            break
        V.append(w / h_next)

    y = solve_triangular(H[:m, :m], g[:m], lower=False)
    x = x0 + np.column_stack(V[:m]) @ y
    rel = history[-1] / beta
    return SolveReport(x, m, float(rel), converged, np.asarray(history))


def direct_solve(system: SaddleSystem) -> np.ndarray:
    """Sparse LU solve of the saddle-point system with its bubbles eliminated.

    One step of iterative refinement, with the residual of the full
    system, pushes the per-row backward error to the round-off of the
    residual evaluation itself, which matters when flux balances of the
    solution are inspected directly.
    """
    J = system.matrix()
    b = system.rhs()
    bubbles = BubbleElimination.build(J, system.bubble_dofs)
    lu = splu(bubbles.condensed)
    x = bubbles.solve(lu.solve, b)
    return x + bubbles.solve(lu.solve, b - J @ x)
