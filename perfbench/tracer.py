"""In-memory spans around the calls into each cvstokes layer.

The tracer wraps the public entry points of the pipeline stages and
rebinds every reference to them in the loaded ``cvstokes`` modules, so
calls made inside the library (``run_convergence`` calling ``assemble``,
``gmres_solve`` calling ``SaddleSystem.matrix``) are seen as well as the
benchmark's own calls.  Nothing under ``src/`` is changed; ``uninstall``
puts the original objects back.

A span is ``[name, start, end, parent, problem]``: ``parent`` is the index
of the enclosing span (-1 for none) and ``problem`` the id the workload
runner set when the call began.  Each span also keeps the interval its
wrapper occupied (``cover``), so that a parent's self time excludes the
tracer's own bookkeeping, which is summed as ``overhead``.

Measurements that cost real work (the true residual and the box mass
defect of GMRES solutions, output file sizes) are deferred and run by
``flush`` between problems, outside every span, on the first pass only.
"""

from __future__ import annotations

import os
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

# (module, attribute, span name); a dotted attribute is a method of a class.
TARGETS = (
    ("mesh", "generate_structured", "mesh.generate_structured"),
    ("mesh", "distort", "mesh.distort"),
    ("mesh", "read_msh", "mesh.read_msh"),
    ("geometry", "build", "geometry.build"),
    ("schemes", "assemble", "schemes.assemble"),
    ("schemes", "SaddleSystem.matrix", "schemes.SaddleSystem.matrix"),
    ("solver", "assemble_pressure_mass", "solver.assemble_pressure_mass"),
    ("solver", "BlockPreconditioner.build", "solver.BlockPreconditioner.build"),
    ("solver", "gmres_solve", "solver.gmres_solve"),
    ("solver", "direct_solve", "solver.direct_solve"),
    ("verification", "run_convergence", "verification.run_convergence"),
    ("verification", "error_norms", "verification.error_norms"),
    ("verification", "conservation_audit", "verification.conservation_audit"),
    ("verification", "region_mass_balance", "verification.region_mass_balance"),
    ("cli_io", "run", "cli_io.run"),
    ("cli_io", "write_vtu", "cli_io.write_vtu"),
    ("cli_io", "write_convergence_csv", "cli_io.write_convergence_csv"),
)

# Per-layer time metric -> spans whose self time it sums.
TIME_METRICS = {
    "mesh.generate_s": ("mesh.generate_structured",),
    "mesh.distort_s": ("mesh.distort",),
    "mesh.read_msh_s": ("mesh.read_msh",),
    "geometry.build_s": ("geometry.build",),
    "schemes.assemble_s": ("schemes.assemble",),
    "schemes.matrix_s": ("schemes.SaddleSystem.matrix",),
    "solver.precond_build_s": ("solver.assemble_pressure_mass", "solver.BlockPreconditioner.build"),
    "solver.gmres_s": ("solver.gmres_solve",),
    "solver.direct_s": ("solver.direct_solve",),
    "verification.error_norms_s": ("verification.error_norms",),
    "verification.audit_s": ("verification.conservation_audit",),
    "verification.region_balance_s": ("verification.region_mass_balance",),
    "cli_io.write_vtu_s": ("cli_io.write_vtu",),
    "cli_io.write_csv_s": ("cli_io.write_convergence_csv",),
}

# Counts that must repeat exactly for a given seed.
EXACT_COUNTS = (
    "mesh.triangles",
    "mesh.distort_retries",
    "geometry.faces",
    "geometry.segments",
    "schemes.dofs",
    "schemes.nnz",
    "solver.precond_lu_fill",
    "solver.gmres_iterations",
    "solver.direct_lu_fill",
    "cli_io.bytes_written",
)

# Measured values reported as the worst case over a pass, never gated.
WORST_VALUES = (
    "solver.gmres_true_residual",
    "verification.gmres_mass_defect",
    "verification.direct_mass_defect",
)

PER_LAYER = tuple(TIME_METRICS) + EXACT_COUNTS + WORST_VALUES + (
    "solver.gmres_s_per_iter",
    "trace.overhead_s",
)


def lu_fill(lu) -> int:
    """Entries SuperLU stores for both factors.

    ``lu.nnz`` is a field SuperLU filled in while factorizing, so reading
    it costs nothing; ``lu.L.nnz + lu.U.nnz`` would copy both factors.
    """
    return int(lu.nnz)


def mass_defect(audit) -> float:
    """Worst pressure-box mass residual relative to the largest face flux."""
    return float(np.max(np.abs(audit.mass_residuals)) / audit.max_mass_flux)


class Tracer:
    """Records spans and counts while installed; see the module docstring."""

    def __init__(self):
        self.spans = []
        self.covers = []
        self.overhead = 0.0
        self.problem = -1
        self.counts = defaultdict(int)
        self.worst = defaultdict(float)
        self.defer = True
        self._stack = []
        self._pending = []
        self._systems = {}
        self._restore = []
        self._audit = None

    # -- installation -------------------------------------------------
    def install(self):
        import cvstokes
        from cvstokes import solver

        self._audit = cvstokes.verification.conservation_audit
        modules = [m for n, m in sys.modules.items() if n == "cvstokes" or n.startswith("cvstokes.")]
        for modname, attr, span in TARGETS:
            module = getattr(cvstokes, modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(span, raw.__func__))
                else:
                    wrapped = self._wrap(span, raw)
                self._restore.append((cls, meth, raw))
                setattr(cls, meth, wrapped)
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(span, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._restore.append((m, key, value))
                        setattr(m, key, wrapper)
        # direct_solve keeps its factor to itself; read the fill as it is made.
        splu = solver.splu

        def capture_splu(*args, **kwargs):
            lu = splu(*args, **kwargs)
            if self._stack and self.spans[self._stack[-1]][0] == "solver.direct_solve":
                self._add("solver.direct_lu_fill", lu_fill(lu))
            return lu

        self._restore.append((solver, "splu", splu))
        solver.splu = capture_splu
        return self

    def uninstall(self):
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- spans ----------------------------------------------------------
    def _wrap(self, name, fn):
        after = getattr(self, "_after_" + name.replace(".", "_"), None)
        tracer = self

        def wrapper(*args, **kwargs):
            t_in = perf_counter()
            idx = len(tracer.spans)
            span = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1, tracer.problem]
            tracer.spans.append(span)
            tracer._stack.append(idx)
            result = error = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = perf_counter()
                tracer._stack.pop()
                span[1], span[2] = start, end
                if after is not None:
                    after(args, kwargs, result, error)
                t_out = perf_counter()
                tracer.covers.append((idx, t_in, t_out))
                tracer.overhead += (start - t_in) + (t_out - end)

        return wrapper

    def _add(self, key, value):
        self.counts[key] += value

    def _worst(self, key, value):
        self.worst[key] = max(self.worst[key], float(value))

    def flush(self):
        """Run the deferred measurements; call between problems."""
        pending, self._pending = self._pending, []
        for job in pending:
            job()
        self._systems.clear()

    # -- count hooks (cheap reads only; costly work is deferred) -------------
    def _after_mesh_generate_structured(self, args, kwargs, mesh, error):
        if mesh is not None:
            self._add("mesh.triangles", mesh.n_elements)

    _after_mesh_read_msh = _after_mesh_generate_structured

    def _after_mesh_distort(self, args, kwargs, mesh, error):
        from cvstokes.mesh import DistortionError

        if isinstance(error, DistortionError):
            self._add("mesh.distort_retries", 1)

    def _after_geometry_build(self, args, kwargs, disc, error):
        if disc is not None:
            self._add("geometry.faces", disc.pressure.n_faces + disc.velocity.n_faces)
            self._add("geometry.segments", disc.pressure.n_segments + disc.velocity.n_segments)

    def _after_schemes_assemble(self, args, kwargs, system, error):
        if system is None:
            return
        self._add("schemes.dofs", system.n_dofs)
        self._add("schemes.nnz", system.A.nnz + system.B.nnz + system.C.nnz)
        if self.defer:
            disc = args[0] if args else kwargs["disc"]
            problem = args[1] if len(args) > 1 else kwargs["problem"]
            self._systems[id(system)] = (system, disc, problem)

    def _after_solver_BlockPreconditioner_build(self, args, kwargs, precond, error):
        if precond is not None:
            self._add("solver.precond_lu_fill", lu_fill(precond.lu_A) + lu_fill(precond.lu_S))

    def _after_solver_gmres_solve(self, args, kwargs, report, error):
        if report is None:
            return
        self._add("solver.gmres_iterations", report.iterations)
        system = args[0] if args else kwargs["system"]
        entry = self._systems.get(id(system))
        if self.defer and entry is not None:
            self._pending.append(lambda: self._gmres_quality(entry, report.solution))

    def _gmres_quality(self, entry, x):
        system, disc, problem = entry
        b = system.rhs()
        self._worst("solver.gmres_true_residual",
                    np.linalg.norm(system.residual(x)) / np.linalg.norm(b))
        audit = self._audit(disc, x, problem)
        self._worst("verification.gmres_mass_defect", mass_defect(audit))

    def _after_verification_conservation_audit(self, args, kwargs, audit, error):
        if audit is not None and self.defer:
            self._pending.append(lambda: self._worst(
                "verification.direct_mass_defect", mass_defect(audit)))

    def _count_bytes(self, path, error):
        if error is None and self.defer:
            self._pending.append(lambda: self._add("cli_io.bytes_written", os.path.getsize(path)))

    def _after_cli_io_write_vtu(self, args, kwargs, result, error):
        self._count_bytes(args[2] if len(args) > 2 else kwargs["path"], error)

    def _after_cli_io_write_convergence_csv(self, args, kwargs, result, error):
        self._count_bytes(args[1] if len(args) > 1 else kwargs["path"], error)


def self_times(spans, covers):
    """Self time per span: its duration minus the wrapper intervals of its children."""
    out = [s[2] - s[1] for s in spans]
    for idx, t_in, t_out in covers:
        parent = spans[idx][3]
        if parent >= 0:
            out[parent] -= t_out - t_in
    return out
