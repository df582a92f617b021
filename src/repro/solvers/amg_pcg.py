"""AMG-PCG: the PowerRush linear solver.

"The solver utilizes aggregation-based AMG with the K-cycle as an implicit
preconditioner for the Conjugate Gradient method" (Section III-B).  Because
the K-cycle preconditioner varies between applications, the outer loop is
*flexible* CG (Polak-Ribiere beta), matching Notay's AGMG construction.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.obs import counter_add, span
from repro.obs.registry import AMG_SETUP, PCG, PCG_ITERATIONS
from repro.solvers.amg import AMGHierarchy, AMGOptions
from repro.solvers.base import SolveResult, SolverOptions, check_system
from repro.solvers.cache import global_setup_cache
from repro.solvers.cg import _pcg
from repro.solvers.cycles import CycleOptions, CyclePreconditioner
from repro.solvers.guard import IterationGuard


class AMGPCGSolver:
    """Flexible CG preconditioned by an aggregation-AMG K-cycle.

    Setup reuse happens at two layers: a same-object fast path for
    repeated solves with the *same array object* (the Fig. 7 iteration
    sweep), and the process-wide :mod:`repro.solvers.cache` fingerprint
    cache for repeated solves of *equal* matrices across solver instances
    (curriculum epochs, the batch engine).
    Either way the hierarchy object is shared, so iterate streams stay
    bitwise identical to an uncached run.

    The fast path holds a strong reference to the cached matrix and
    compares by identity (``is``), never by raw ``id()``: a bare ``id``
    comparison is unsound because CPython reuses addresses once an object
    is garbage collected, which would silently hand a *different* matrix
    the previous matrix's preconditioner.
    """

    def __init__(
        self,
        options: SolverOptions | None = None,
        amg_options: AMGOptions | None = None,
        cycle_options: CycleOptions | None = None,
    ) -> None:
        self.options = options or SolverOptions()
        self.amg_options = amg_options or AMGOptions()
        self.cycle_options = cycle_options or CycleOptions()
        #: Strong reference to the matrix the cached preconditioner was
        #: built for.  Keeping the object alive is what makes the
        #: identity fast path sound: a live object's address cannot be
        #: reused by a newly allocated matrix.
        self._cached_matrix: sp.spmatrix | None = None
        self._cached_preconditioner: CyclePreconditioner | None = None
        self._last_setup_seconds: float = 0.0
        self._last_setup_was_hit = False

    @property
    def hierarchy(self) -> AMGHierarchy | None:
        """The most recently built hierarchy (``None`` before first solve)."""
        if self._cached_preconditioner is None:
            return None
        return self._cached_preconditioner.hierarchy

    @property
    def last_setup_was_cache_hit(self) -> bool:
        """Whether the most recent :meth:`setup` reused a cached hierarchy."""
        return self._last_setup_was_hit

    def setup(
        self, matrix: sp.spmatrix, fingerprint: str | None = None
    ) -> CyclePreconditioner:
        """Run (or reuse) the AMG setup stage for *matrix*.

        *fingerprint* is the matrix's setup-cache key when the caller
        already holds it (see :meth:`AMGSetupCache.get_or_build`).

        ``SolveResult.setup_seconds`` accounting contract: only the cost
        of *this* call is recorded.  A same-object reuse costs (and
        therefore reports) zero; a fingerprint-cache hit reports just
        the hash-and-lookup time (the lookup alone when *fingerprint* is
        given), never the original build cost.
        """
        if (
            self._cached_matrix is matrix
            and self._cached_preconditioner is not None
        ):
            self._last_setup_seconds = 0.0
            self._last_setup_was_hit = True
            return self._cached_preconditioner
        with span(AMG_SETUP) as setup_span:
            hierarchy, hit = global_setup_cache().get_or_build(
                matrix, self.amg_options, setup_span=setup_span,
                fingerprint=fingerprint,
            )
            setup_span.attrs["cache_hit"] = hit
            if not hit:
                setup_span.attrs.update(
                    levels=hierarchy.num_levels,
                    coarsest=hierarchy.levels[-1].size,
                    operator_complexity=hierarchy.operator_complexity(),
                )
            # In the span: a hierarchy's first preconditioner builds its smoothers.
            preconditioner = CyclePreconditioner(hierarchy, self.cycle_options)
        self._last_setup_seconds = setup_span.duration
        self._last_setup_was_hit = hit
        self._cached_preconditioner = preconditioner
        self._cached_matrix = matrix
        return self._cached_preconditioner

    def solve(
        self,
        matrix: sp.spmatrix,
        rhs: np.ndarray,
        x0: np.ndarray | None = None,
        guard: IterationGuard | None = None,
        fingerprint: str | None = None,
    ) -> SolveResult:
        csr = check_system(matrix, rhs)
        preconditioner = self.setup(matrix, fingerprint)
        with span(PCG, solver="amg_pcg"):
            result = _pcg(
                csr,
                rhs,
                x0,
                preconditioner=preconditioner.apply,
                options=self.options,
                flexible=True,
                guard=guard,
            )
        counter_add(PCG_ITERATIONS, result.iterations)
        result.setup_seconds += self._last_setup_seconds
        return result
