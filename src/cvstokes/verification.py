"""Manufactured solutions, error norms, convergence studies, audits.

Every manufactured case is a stream-function product: `product_case`
takes the 1D factors X, Y of the stream function s X(x) Y(y) (with their
first three derivatives) and P, R of the pressure P(x) R(y) (with their
first derivatives), and derives the velocity, its gradient and the body
force -mu lap v + grad p once for all cases, so adding a case is one call.
Both benchmark cases live on the unit square with Dirichlet data on the
left and lower sides and traction (Neumann) data on the right and upper
sides, so neither the velocity nor the pressure space needs pinning.
Velocity errors are reported in the L2 norm and the full H1 norm (L2 part
plus gradient seminorm); pressure errors in the L2 norm.  Convergence
rates between consecutive levels use the characteristic lengths h_v and
h_p of the respective unknown.

The conservation audit recomputes every control-volume flux from a given
solution vector and sums the balances; for a converged solve the box and
volume residuals sit at the accumulated round-off of the flux sums, far
below any discretization scale, and unions of boxes telescope to the same
level because shared faces cancel exactly.  Error norms integrate with
assembly's block kernel and the degree-8 element rule.  The audit walks
the face rows of `geometry.REFERENCE_FACES` slot by slot, maps each row's
own reference tensors with the two functions that map the schemes' tensors
into assembly's blocks, and contracts them with the solution, so each of
its balances is minus the residual of the flux row solved, up to rounding.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .basis import _eval_unchecked, barycentric, triangle_rule
from .geometry import REFERENCE_FACES, GridDiscretization, SchemeKind, build
from .mesh import (
    BCKind,
    DistortionError,
    Mesh,
    distort,
    generate_structured,
    read_msh,
    stats,
)
from .schemes import (
    StokesProblem,
    _checked_viscosity,
    _evaluate,
    _integrate_elements,
    _integrate_over_cvs,
    _mass_flux_slots,
    _momentum_flux_slots,
    assemble,
    segment_tractions,
    split_solution,
)
from .solver import (
    BlockPreconditioner,
    assemble_pressure_mass,
    direct_solve,
    gmres_solve,
    random_initial_guess,
)

log = logging.getLogger(__name__)

RATE_ERROR_FLOOR = 1e-13
ERROR_QUAD_DEGREE = 8
# The error rule, with the basis and the hats at its points.
_ERROR_RULE = triangle_rule(ERROR_QUAD_DEGREE)
_ERROR_BASIS = _eval_unchecked(_ERROR_RULE.points)
_ERROR_HATS = barycentric(_ERROR_RULE.points)

MIXED_BC_LAYOUT = {
    "left": BCKind.DIRICHLET,
    "bottom": BCKind.DIRICHLET,
    "right": BCKind.NEUMANN,
    "top": BCKind.NEUMANN,
}


@dataclass(frozen=True)
class ManufacturedCase:
    """Closed-form Stokes solution with matching sources and boundary data."""

    name: str
    viscosity: float
    velocity: callable            # (n, 2) -> (n, 2)
    velocity_gradient: callable   # (n, 2) -> (n, 2, 2), entry [k, a] = dv_k/dx_a
    pressure: callable            # (n, 2) -> (n,)
    body_force: callable          # (n, 2) -> (n, 2)
    bc_layout: dict

    def traction(self, points: np.ndarray, normals: np.ndarray) -> np.ndarray:
        """Boundary traction -(2 mu D(v) - p I) n of the exact solution."""
        grad = self.velocity_gradient(points)
        sym = 0.5 * (grad + np.swapaxes(grad, -1, -2))
        stress = 2.0 * self.viscosity * sym
        p = self.pressure(points)
        stress[..., 0, 0] -= p
        stress[..., 1, 1] -= p
        return -np.einsum("...ka,...a->...k", stress, normals)

    def problem(self) -> StokesProblem:
        return StokesProblem(
            viscosity=self.viscosity,
            body_force=self.body_force,
            dirichlet=self.velocity,
            neumann=self.traction,
        )

    def apply_bc(self, mesh: Mesh) -> Mesh:
        return mesh.with_bc(self.bc_layout)


# q(u) = u^2 (1 - u)^2 and its first three derivatives, in Horner form.
_QUARTIC = (
    lambda u: u * u * (1.0 + u * (-2.0 + u)),
    lambda u: u * (2.0 + u * (-6.0 + 4.0 * u)),
    lambda u: 2.0 + u * (-12.0 + 12.0 * u),
    lambda u: -12.0 + 24.0 * u,
)


def _term(coeff, f, g, x, y):
    """coeff f(x) g(y), where each factor is a function of one coordinate or a constant.

    None (zero) when the constants multiply to 0, and then nothing is
    evaluated; a constant 1 is not multiplied, and constants alone fill the
    shape of x.
    """
    for h in (f, g):
        if not callable(h):
            coeff = coeff * h
    if coeff == 0:
        return None
    values = [h(u) for h, u in ((f, x), (g, y)) if callable(h)]
    if not values:
        return np.full(x.shape, float(coeff))
    out = values[0] if coeff == 1 else coeff * values[0]
    return out * values[1] if len(values) == 2 else out


def _sum(coeff, a, b):
    """coeff (a + b), where None is zero and a coeff of 1 is not multiplied."""
    total = b if a is None else a if b is None else a + b
    return None if total is None or coeff == 0 else total if coeff == 1 else coeff * total


def _field(components, shape=()):
    """A field on points (..., 2) from its components as functions of x and y (None is zero)."""
    def evaluate(points):
        pts = np.asarray(points, dtype=float)
        x = pts[..., 0]
        parts = [np.zeros(x.shape) if c is None else c for c in components(x, pts[..., 1])]
        return np.stack(parts, axis=-1).reshape(x.shape + shape) if shape else parts[0]
    return evaluate


def product_case(name, viscosity, scale, X, Y, P, R) -> ManufacturedCase:
    """Case with stream function scale X(x) Y(y) and pressure P(x) R(y).

    X and Y list a factor and its first three derivatives, P and R a factor
    and its first derivative; each entry is a function of one coordinate
    array or a constant.  The velocity v = scale (X Y', -X' Y) is divergence
    free, and the body force -mu lap v + grad p is derived here once:
    f = (P'R - mu scale (X''Y' + X Y'''), P R' + mu scale (X'''Y + X'Y'')).
    """
    mu_scale = viscosity * scale

    def velocity(x, y):
        return _term(scale, X[0], Y[1], x, y), _term(-scale, X[1], Y[0], x, y)

    def velocity_gradient(x, y):
        g00 = _term(scale, X[1], Y[1], x, y)
        g10 = _term(-scale, X[2], Y[0], x, y)
        return g00, _term(scale, X[0], Y[2], x, y), g10, None if g00 is None else -g00

    def pressure(x, y):
        return (_term(1.0, P[0], R[0], x, y),)

    def body_force(x, y):
        viscous0 = _sum(-mu_scale, _term(1.0, X[2], Y[1], x, y), _term(1.0, X[0], Y[3], x, y))
        viscous1 = _sum(mu_scale, _term(1.0, X[3], Y[0], x, y), _term(1.0, X[1], Y[2], x, y))
        return (_sum(1.0, _term(1.0, P[1], R[0], x, y), viscous0),
                _sum(1.0, _term(1.0, P[0], R[1], x, y), viscous1))

    return ManufacturedCase(
        name, viscosity, _field(velocity, (2,)), _field(velocity_gradient, (2, 2)),
        _field(pressure), _field(body_force, (2,)), dict(MIXED_BC_LAYOUT),
    )


def donea_huerta_case(viscosity: float = 1.0) -> ManufacturedCase:
    """Quartic vortex benchmark: stream function q(x) q(y), pressure x (1 - x)."""
    pressure = (lambda u: u * (1.0 - u), lambda u: 1.0 - 2.0 * u)
    return product_case("donea-huerta", viscosity, 1.0, _QUARTIC, _QUARTIC, pressure, (1.0, 0.0))


def bercovier_engelman_case() -> ManufacturedCase:
    """Quartic cavity benchmark, unit viscosity: v = 256 (-q(x) b(y), q(y) b(x)), b = q'/2.

    That is the stream function -128 q(x) q(y); the pressure is (x - 1/2) (y - 1/2).
    """
    half = (lambda u: u - 0.5, 1.0)
    return product_case("bercovier-engelman", 1.0, -128.0, _QUARTIC, _QUARTIC, half, half)


def shear_flow_case(viscosity: float = 1.0) -> ManufacturedCase:
    """Linear shear v = (y, 0), stream function y^2 / 2, zero pressure; in every scheme's space."""
    half_square = (lambda u: 0.5 * u * u, lambda u: u, 1.0, 0.0)
    one = (1.0, 0.0, 0.0, 0.0)
    return product_case("shear-flow", viscosity, 1.0, one, half_square, (0.0, 0.0), (1.0, 0.0))


CASES = {
    "donea-huerta": donea_huerta_case,
    "bercovier-engelman": bercovier_engelman_case,
}


@dataclass(frozen=True)
class ErrorNorms:
    l2_pressure: float
    l2_velocity: float
    h1_velocity: float


def error_norms(disc: GridDiscretization, solution: np.ndarray, case: ManufacturedCase) -> ErrorNorms:
    """L2 pressure, L2 velocity, and full H1 velocity errors (degree-8 rule)."""
    el = disc.elements
    vel, pres = split_solution(disc, solution)
    coeff = vel[disc.element_velocity_dofs()]                        # (ne, 4, 2)

    def squared_errors(sl, x):
        c = coeff[sl]
        # grad v_h = sum over (b, i) of grads[q, (b, i)] c[e, b, k] inv[e, i, a], as [q, e, k, a]
        M = c[:, :, None, :, None] * el.inv_jacobians[sl, None, :, None, :]
        vh = (_ERROR_BASIS.values @ c.swapaxes(0, 1).reshape(4, -1)).reshape(x.shape)
        gh = (_ERROR_BASIS.gradients.reshape(-1, 8) @ M.transpose(1, 2, 0, 3, 4).reshape(8, -1)).reshape(x.shape + (2,))
        ph = _ERROR_HATS @ pres[disc.mesh.triangles[sl]].T
        ve = _evaluate(case.velocity, "velocity", x, (2,))
        ge = _evaluate(case.velocity_gradient, "velocity_gradient", x, (2, 2))
        pe = _evaluate(case.pressure, "pressure", x, ())
        return np.stack((np.sum((vh - ve) ** 2, axis=-1), np.sum((gh - ge) ** 2, axis=(-2, -1)), (ph - pe) ** 2), axis=-1)

    l2v2, semi2, l2p2 = _integrate_elements(el, _ERROR_RULE.points, _ERROR_RULE.weights[None], squared_errors, (3,))[0].sum(axis=0)
    return ErrorNorms(np.sqrt(l2p2), np.sqrt(l2v2), np.sqrt(l2v2 + semi2))


@dataclass(frozen=True)
class LevelResult:
    level: int
    n_vertices: int
    n_elements: int
    h_p: float
    h_v: float
    l2_pressure: float
    l2_velocity: float
    h1_velocity: float
    iterations: int
    converged: bool


def _slope(errors, lengths) -> float:
    """Log-log slope of the errors from the first level to the last; NaN, as
    undefined, when an error is below RATE_ERROR_FLOOR or the two end
    lengths are equal."""
    if min(errors) < RATE_ERROR_FLOOR or lengths[0] == lengths[-1]:
        return float("nan")
    return float(np.log(errors[0] / errors[-1]) / np.log(lengths[0] / lengths[-1]))


@dataclass
class ConvergenceReport:
    case: str
    scheme: SchemeKind
    levels: list

    def _series(self, key: str):
        """Errors `key` per level and the matching lengths: h_p for the pressure, h_v for the velocity."""
        errors = [getattr(lv, key) for lv in self.levels]
        lengths = [lv.h_p if key == "l2_pressure" else lv.h_v for lv in self.levels]
        return errors, lengths

    def rates(self) -> dict:
        """Per-level rates against the previous level; the first entry is NaN, as is
        every rate `_slope` leaves undefined."""
        out = {}
        for key in ("l2_pressure", "l2_velocity", "h1_velocity"):
            errors, lengths = self._series(key)
            out[key] = np.array([np.nan] + [_slope(errors[k - 1 : k + 1], lengths[k - 1 : k + 1])
                                            for k in range(1, len(errors))])
        return out

    def window_rate(self, key: str, count: int = 3) -> float:
        """Aggregate log-log slope over the last `count` levels, at least two."""
        if count < 2:
            raise ValueError(f"a rate needs at least two levels, got count={count}")
        if len(self.levels) < count:
            raise ValueError("not enough levels")
        errors, lengths = self._series(key)
        return _slope(errors[-count:], lengths[-count:])

    def iteration_counts(self) -> np.ndarray:
        return np.array([lv.iterations for lv in self.levels])


def _level_mesh(case, level, base, distortion, seed, mesh_files):
    if mesh_files is not None:
        m = read_msh(mesh_files[level])
    else:
        n = base * 2 ** level
        m = generate_structured(n, n)
        if distortion > 0.0:
            for attempt in range(6):
                try:
                    m = distort(m, distortion, seed + level + 1000 * attempt)
                    break
                except DistortionError:
                    if attempt == 5:
                        raise
    return case.apply_bc(m)


def run_convergence(
    case: ManufacturedCase,
    scheme,
    n_levels: int = 5,
    base: int = 10,
    distortion: float = 0.2,
    seed: int = 7,
    mesh_files=None,
    use_direct: bool = False,
    on_level=None,
) -> ConvergenceReport:
    """Refinement study: solve the case on each level, report errors and rates.

    Levels are structured meshes with base*2^k cells per side, randomly
    distorted with the given fraction in [0, 0.5) (deterministic per seed), or the
    user-supplied MSH files.  Each level starts the preconditioned GMRes
    from a seeded random vector; `use_direct` switches to the sparse direct
    solver (iterations reported as 0).
    """
    scheme = SchemeKind.parse(scheme)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    if not 0.0 <= distortion < 0.5:
        raise ValueError(f"distortion must lie in [0, 0.5), got {distortion}")
    if mesh_files is not None:
        n_levels = len(mesh_files)
    if n_levels < 1:
        raise ValueError(f"a convergence study needs at least one level, got {n_levels}")
    problem = case.problem()
    levels = []
    for k in range(n_levels):
        mesh = _level_mesh(case, k, base, distortion, seed, mesh_files)
        levels.append(_solve_level(case, problem, scheme, k, mesh, seed, use_direct, on_level))
    return ConvergenceReport(case.name, scheme, levels)


def _solve_level(case, problem, scheme, k, m, seed, use_direct, on_level) -> LevelResult:
    """One level of `run_convergence`; its discretization, system and
    preconditioner are freed when it returns, before the next level is built."""
    disc = build(m, scheme)
    system = assemble(disc, problem)
    if use_direct:
        x = direct_solve(system)
        iterations, converged = 0, True
    else:
        schur = assemble_pressure_mass(disc, problem.viscosity)
        precond = BlockPreconditioner.build(system, schur)
        x0 = random_initial_guess(disc, seed + 901 + k)
        report = gmres_solve(system, precond, x0)
        x, iterations, converged = report.solution, report.iterations, report.converged
    norms = error_norms(disc, x, case)
    st = stats(m)
    log.info(
        "case=%s scheme=%s level=%d h_p=%.3e it=%d L2v=%.3e",
        case.name, scheme.value, k, st.h_p, iterations, norms.l2_velocity,
    )
    if on_level is not None:
        on_level(k, disc, x)
    return LevelResult(
        level=k,
        n_vertices=st.n_vertices,
        n_elements=st.n_elements,
        h_p=st.h_p,
        h_v=st.h_v,
        l2_pressure=norms.l2_pressure,
        l2_velocity=norms.l2_velocity,
        h1_velocity=norms.h1_velocity,
        iterations=iterations,
        converged=converged,
    )


@dataclass(eq=False)
class ConservationAudit:
    """Recomputed flux balances of a solution.

    `mass_residuals[i]` is the net volume flux out of pressure box i minus
    its source integral; `momentum_residuals[i]` the net momentum flux out
    of velocity control volume i (traction data included on Neumann
    pieces) minus its body-force integral.  `momentum_audited` marks rows
    assembled as flux balances (Dirichlet rows and, for Galerkin bubble
    rows, the bubbles are excluded); `momentum_interior` additionally
    drops volumes touching the domain boundary.  The max flux magnitudes
    give the natural scale for judging the residuals.
    """

    mass_residuals: np.ndarray
    max_mass_flux: float
    momentum_residuals: np.ndarray
    momentum_audited: np.ndarray
    momentum_interior: np.ndarray
    max_momentum_flux: float


def _scatter_faces(out, cvset, fluxes):
    """Add each face row's fluxes (ne, ...) to its inside owner's balance and
    subtract them from its outside owner's; the owner "none", id -1 in
    `owners`, receives nothing."""
    for (_, inside, outside), flux in zip(REFERENCE_FACES[cvset.family], fluxes):
        np.add.at(out, cvset.owners[:, inside], flux)
        ids = cvset.owners[:, outside]
        owned = ids >= 0
        np.subtract.at(out, ids[owned], flux[owned])


def conservation_audit(disc: GridDiscretization, solution: np.ndarray, problem: StokesProblem) -> ConservationAudit:
    """Recompute all control-volume balances from the solution vector."""
    vel, pres = split_solution(disc, solution)
    mu = _checked_viscosity(problem.viscosity)

    # Mass balances over the pressure boxes (identical for every scheme).
    pset = disc.pressure
    massf, segf = _mass_flux_slots(disc, vel)
    res_m = np.zeros(pset.n_cvs)
    _scatter_faces(res_m, pset, massf)
    np.add.at(res_m, pset.seg_cv, segf)
    res_m -= _integrate_over_cvs(disc, pset, problem, "mass_source")
    max_mass = float(max(np.abs(massf).max(initial=0.0), np.abs(segf).max(initial=0.0)))

    # Momentum balances over the velocity control volumes that carry them.
    vset = disc.velocity
    flux_momentum = disc.scheme.spec.flux_momentum
    res_u = np.zeros((vset.n_cvs, 2))
    audited = np.full(vset.n_cvs, flux_momentum)
    max_mom = 0.0
    if flux_momentum:
        momf = _momentum_flux_slots(disc, mu, vel, pres)
        _scatter_faces(res_u, vset, momf)
        np.add.at(res_u, disc.mesh.triangles[vset.seg_element], segment_tractions(disc, problem))
        res_u -= _integrate_over_cvs(disc, vset, problem, "body_force")
        audited[disc.mesh.dirichlet_vertices()] = False
        max_mom = float(np.abs(momf).max(initial=0.0))

    interior = audited.copy()
    interior[np.unique(vset.seg_cv)] = False
    return ConservationAudit(
        mass_residuals=res_m,
        max_mass_flux=max_mass,
        momentum_residuals=res_u,
        momentum_audited=audited,
        momentum_interior=interior,
        max_momentum_flux=max_mom,
    )


def region_mass_balance(disc: GridDiscretization, solution: np.ndarray, problem: StokesProblem, box_ids) -> float:
    """Net volume flux out of a union of pressure boxes minus its source.

    Computed from the union boundary only: faces interior to the region do
    not enter, demonstrating that box balances telescope exactly.
    """
    vel, _ = split_solution(disc, solution)
    pset = disc.pressure
    ids = np.asarray(box_ids)
    if ids.size and ids.dtype.kind not in "iu":
        raise ValueError(f"box ids must be integers, not {ids.dtype}")
    ids = ids.astype(np.int64)
    if np.any((ids < 0) | (ids >= pset.n_cvs)):
        raise ValueError(f"box ids must lie in [0, {pset.n_cvs})")
    sel = np.zeros(pset.n_cvs, dtype=bool)
    sel[ids] = True

    massf, segf = _mass_flux_slots(disc, vel)
    balance = float(np.sum(segf[sel[pset.seg_cv]]))
    for (_, inside, outside), flux in zip(REFERENCE_FACES[pset.family], massf):
        fin, fout = sel[pset.owners[:, inside]], sel[pset.owners[:, outside]]
        balance += float(np.sum(flux[fin & ~fout]) - np.sum(flux[fout & ~fin]))
    return balance - float(np.sum(_integrate_over_cvs(disc, pset, problem, "mass_source")[sel]))
