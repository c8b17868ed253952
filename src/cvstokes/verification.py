"""Manufactured solutions, error norms, convergence studies, audits.

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
level because shared faces cancel exactly.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import partial

import numpy as np

from .basis import _eval_unchecked, barycentric, triangle_rule
from .geometry import GridDiscretization, SchemeKind, build
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
    _faces,
    _integrate_over_cvs,
    _mass_fluxes,
    _mass_source_integrals,
    _momentum_fluxes,
    _segments,
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

ERROR_QUAD_DEGREE = 8
RATE_ERROR_FLOOR = 1e-13

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


def _fields(case: ManufacturedCase, points: np.ndarray):
    """Velocity, pressure, body force and velocity gradient of a case at points."""
    return (
        case.velocity(points),
        case.pressure(points),
        case.body_force(points),
        case.velocity_gradient(points),
    )


def _xy(points):
    pts = np.asarray(points, dtype=float)
    return pts[..., 0], pts[..., 1]


def _pair(first, second):
    return np.stack((first, second), axis=-1)


def _gradient(g00, g01, g10, g11):
    grad = np.empty(np.shape(g00) + (2, 2))
    grad[..., 0, 0] = g00
    grad[..., 0, 1] = g01
    grad[..., 1, 0] = g10
    grad[..., 1, 1] = g11
    return grad


def _quartic(u):
    """u^2 (1 - u)^2 in Horner form."""
    return u * u * (1.0 + u * (-2.0 + u))


# Donea-Huerta: v = (h(x) h'(y), -h(y) h'(x)) with h = _quartic, p = x (1 - x).
# Each field evaluates only the factors it needs.

def _dh_h1(u):
    return u * (2.0 + u * (-6.0 + 4.0 * u))


def _dh_h2(u):
    return 2.0 + u * (-12.0 + 12.0 * u)


def _dh_h3(u):
    return -12.0 + 24.0 * u


def _dh_velocity(points):
    x, y = _xy(points)
    return _pair(_quartic(x) * _dh_h1(y), -_quartic(y) * _dh_h1(x))


def _dh_pressure(points):
    x, _ = _xy(points)
    return x * (1.0 - x)


def _dh_gradient(points):
    x, y = _xy(points)
    h1x = _dh_h1(x)
    h1y = _dh_h1(y)
    return _gradient(h1x * h1y, _quartic(x) * _dh_h2(y), -_quartic(y) * _dh_h2(x), -h1y * h1x)


def _dh_body_force(points, viscosity):
    x, y = _xy(points)
    return _pair(
        -viscosity * (_dh_h2(x) * _dh_h1(y) + _quartic(x) * _dh_h3(y)) + (1.0 - 2.0 * x),
        viscosity * (_quartic(y) * _dh_h3(x) + _dh_h2(y) * _dh_h1(x)),
    )


def donea_huerta_case(viscosity: float = 1.0) -> ManufacturedCase:
    """Quartic vortex benchmark on the unit square."""
    return ManufacturedCase(
        name="donea-huerta",
        viscosity=viscosity,
        velocity=_dh_velocity,
        velocity_gradient=_dh_gradient,
        pressure=_dh_pressure,
        body_force=partial(_dh_body_force, viscosity=viscosity),
        bc_layout=dict(MIXED_BC_LAYOUT),
    )


def donea_huerta(points: np.ndarray, viscosity: float = 1.0):
    """Quartic vortex benchmark: velocity, pressure, body force, gradient."""
    return _fields(donea_huerta_case(viscosity), points)


# Bercovier-Engelman: v = 256 (-a(x) b(y), a(y) b(x)) with a = _quartic and
# b = a' / 2, p = (x - 1/2) (y - 1/2), unit viscosity.

def _be_b(u):
    return u * (1.0 + u * (-3.0 + 2.0 * u))


def _be_b1(u):
    return 1.0 + u * (-6.0 + 6.0 * u)


def _be_g(s, t):
    return 256.0 * (_quartic(s) * (12.0 * t - 6.0) + _be_b(t) * (2.0 + s * (-12.0 + 12.0 * s)))


def _be_velocity(points):
    x, y = _xy(points)
    return _pair(-256.0 * _quartic(x) * _be_b(y), 256.0 * _quartic(y) * _be_b(x))


def _be_pressure(points):
    x, y = _xy(points)
    return (x - 0.5) * (y - 0.5)


def _be_gradient(points):
    x, y = _xy(points)
    bx = _be_b(x)
    by = _be_b(y)
    return _gradient(                                  # a'(u) = 2 b(u)
        -512.0 * bx * by,
        -256.0 * _quartic(x) * _be_b1(y),
        256.0 * _quartic(y) * _be_b1(x),
        512.0 * by * bx,
    )


def _be_body_force(points):
    x, y = _xy(points)
    return _pair(_be_g(x, y) + (y - 0.5), -_be_g(y, x) + (x - 0.5))


def bercovier_engelman_case() -> ManufacturedCase:
    """Quartic cavity benchmark with bilinear pressure, unit viscosity."""
    return ManufacturedCase(
        name="bercovier-engelman",
        viscosity=1.0,
        velocity=_be_velocity,
        velocity_gradient=_be_gradient,
        pressure=_be_pressure,
        body_force=_be_body_force,
        bc_layout=dict(MIXED_BC_LAYOUT),
    )


def bercovier_engelman(points: np.ndarray):
    """Quartic cavity benchmark: velocity, pressure, body force, gradient."""
    return _fields(bercovier_engelman_case(), points)


def shear_flow_case(viscosity: float = 1.0) -> ManufacturedCase:
    """Linear shear v = (y, 0) with zero pressure; lies in every scheme's space."""
    def velocity(pts):
        pts = np.asarray(pts, dtype=float)
        out = np.zeros_like(pts)
        out[..., 0] = pts[..., 1]
        return out

    def gradient(pts):
        pts = np.asarray(pts, dtype=float)
        grad = np.zeros(pts.shape[:-1] + (2, 2))
        grad[..., 0, 1] = 1.0
        return grad

    def pressure(pts):
        return np.zeros(np.asarray(pts).shape[:-1])

    def force(pts):
        return np.zeros_like(np.asarray(pts, dtype=float))

    return ManufacturedCase(
        name="shear-flow",
        viscosity=viscosity,
        velocity=velocity,
        velocity_gradient=gradient,
        pressure=pressure,
        body_force=force,
        bc_layout=dict(MIXED_BC_LAYOUT),
    )


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
    rule = triangle_rule(ERROR_QUAD_DEGREE)
    ev = _eval_unchecked(rule.points)
    lam = barycentric(rule.points)
    el = disc.elements
    wdet = rule.weights[None, :] * (2.0 * el.areas)[:, None]
    pts = el.coords[:, :1] + rule.points @ np.swapaxes(el.jacobians, 1, 2)   # (ne, nq, 2)
    flat = pts.reshape(-1, 2)

    vel, pres = split_solution(disc, solution)
    coeff = vel[disc.element_velocity_dofs()]                    # (ne, 4, 2)
    vh = ev.values @ coeff                                       # (ne, nq, 2)
    # reference gradient [e, q, k, i] first, then the inverse Jacobian
    gh = (np.swapaxes(coeff, 1, 2)[:, None] @ ev.gradients) @ el.inv_jacobians[:, None]
    ph = pres[disc.mesh.triangles] @ lam.T                        # (ne, nq)

    ve = np.asarray(case.velocity(flat)).reshape(vh.shape)
    ge = np.asarray(case.velocity_gradient(flat)).reshape(gh.shape)
    pe = np.asarray(case.pressure(flat)).reshape(ph.shape)

    l2v2 = float(np.sum(wdet * np.sum((vh - ve) ** 2, axis=-1)))
    semi2 = float(np.sum(wdet * np.sum((gh - ge) ** 2, axis=(-2, -1))))
    l2p2 = float(np.sum(wdet * (ph - pe) ** 2))
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


@dataclass
class ConvergenceReport:
    case: str
    scheme: SchemeKind
    levels: list

    def _rate(self, errors, lengths):
        rates = np.full(len(errors), np.nan)
        for k in range(1, len(errors)):
            if errors[k - 1] < RATE_ERROR_FLOOR or errors[k] < RATE_ERROR_FLOOR:
                continue
            rates[k] = np.log(errors[k - 1] / errors[k]) / np.log(lengths[k - 1] / lengths[k])
        return rates

    def rates(self) -> dict:
        """Per-level rates (first entry NaN, NaN where errors hit round-off)."""
        h_p = np.array([lv.h_p for lv in self.levels])
        h_v = np.array([lv.h_v for lv in self.levels])
        return {
            "l2_pressure": self._rate(np.array([lv.l2_pressure for lv in self.levels]), h_p),
            "l2_velocity": self._rate(np.array([lv.l2_velocity for lv in self.levels]), h_v),
            "h1_velocity": self._rate(np.array([lv.h1_velocity for lv in self.levels]), h_v),
        }

    def window_rate(self, key: str, count: int = 3) -> float:
        """Aggregate log-log slope over the last `count` levels."""
        if len(self.levels) < count:
            raise ValueError("not enough levels")
        sel = self.levels[-count:]
        errors = [getattr(lv, key) for lv in sel]
        lengths = [lv.h_p if key == "l2_pressure" else lv.h_v for lv in sel]
        if min(errors) < RATE_ERROR_FLOOR:
            return float("nan")
        return float(np.log(errors[0] / errors[-1]) / np.log(lengths[0] / lengths[-1]))

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
    reduction: float = 1e10,
    max_iterations: int = 500,
    use_direct: bool = False,
    on_level=None,
) -> ConvergenceReport:
    """Refinement study: solve the case on each level, report errors and rates.

    Levels are structured meshes with base*2^k cells per side, randomly
    distorted with the given fraction (deterministic per seed), or the
    user-supplied MSH files.  Each level starts the preconditioned GMRes
    from a seeded random vector; `use_direct` switches to the sparse direct
    solver (iterations reported as 0).
    """
    scheme = SchemeKind.parse(scheme)
    if mesh_files is not None:
        n_levels = len(mesh_files)
    if n_levels < 1:
        raise ValueError(f"a convergence study needs at least one level, got {n_levels}")
    problem = case.problem()
    levels = []
    for k in range(n_levels):
        m = _level_mesh(case, k, base, distortion, seed, mesh_files)
        disc = build(m, scheme)
        system = assemble(disc, problem)
        if use_direct:
            x = direct_solve(system)
            iterations, converged = 0, True
        else:
            schur = assemble_pressure_mass(disc, problem.viscosity)
            precond = BlockPreconditioner.build(system, schur)
            x0 = random_initial_guess(disc, seed + 901 + k)
            report = gmres_solve(
                system, precond, x0, reduction=reduction, max_iterations=max_iterations
            )
            x, iterations, converged = report.solution, report.iterations, report.converged
        norms = error_norms(disc, x, case)
        st = stats(m)
        levels.append(
            LevelResult(
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
        )
        log.info(
            "case=%s scheme=%s level=%d h_p=%.3e it=%d L2v=%.3e",
            case.name, scheme.value, k, st.h_p, iterations, norms.l2_velocity,
        )
        if on_level is not None:
            on_level(k, disc, x)
    return ConvergenceReport(case.name, scheme, levels)


@dataclass
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


def conservation_audit(disc: GridDiscretization, solution: np.ndarray, problem: StokesProblem) -> ConservationAudit:
    """Recompute all control-volume balances from the solution vector."""
    vel, pres = split_solution(disc, solution)
    mu = problem.viscosity

    # Mass balances over the pressure boxes (identical for every scheme).
    pset = disc.pressure
    massf = _mass_fluxes(disc, _faces(pset), vel)
    segf = _mass_fluxes(disc, _segments(pset), vel)
    res_m = np.zeros(pset.n_cvs)
    np.add.at(res_m, pset.face_inside, massf)
    np.add.at(res_m, pset.face_outside, -massf)
    np.add.at(res_m, pset.seg_cv, segf)
    res_m -= _mass_source_integrals(pset, problem)
    max_mass = float(max(np.abs(massf).max(initial=0.0), np.abs(segf).max(initial=0.0)))

    # Momentum balances over the velocity control volumes that carry them.
    vset = disc.velocity
    flux_momentum = disc.scheme.spec.flux_momentum
    res_u = np.zeros((vset.n_cvs, 2))
    audited = np.full(vset.n_cvs, flux_momentum)
    max_mom = 0.0
    if flux_momentum:
        momf = _momentum_fluxes(disc, _faces(vset), mu, vel, pres)
        np.add.at(res_u, vset.face_inside, momf)
        has_out = vset.face_outside >= 0
        np.add.at(res_u, vset.face_outside[has_out], -momf[has_out])
        np.add.at(res_u, vset.seg_cv, segment_tractions(disc, problem)[0])
        res_u -= _integrate_over_cvs(vset, problem.body_force)
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
    vel, pres = split_solution(disc, solution)
    pset = disc.pressure
    ids = np.asarray(box_ids)
    if ids.size and ids.dtype.kind not in "iu":
        raise ValueError(f"box ids must be integers, not {ids.dtype}")
    ids = ids.astype(np.int64)
    if np.any((ids < 0) | (ids >= pset.n_cvs)):
        raise ValueError(f"box ids must lie in [0, {pset.n_cvs})")
    sel = np.zeros(pset.n_cvs, dtype=bool)
    sel[ids] = True

    massf = _mass_fluxes(disc, _faces(pset), vel)
    fin = sel[pset.face_inside]
    fout = sel[pset.face_outside]
    balance = float(np.sum(massf[fin & ~fout]) - np.sum(massf[fout & ~fin]))
    segf = _mass_fluxes(disc, _segments(pset), vel)
    balance += float(np.sum(segf[sel[pset.seg_cv]]))
    balance -= float(np.sum(_mass_source_integrals(pset, problem)[sel]))
    return balance
