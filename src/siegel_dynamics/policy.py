"""Global numeric policy: every validity / comparison tolerance in one record."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class NumericPolicy:
    """Tolerances used across the package (all in double precision)."""

    validity_tol: float = 1e-12      # point/automorphism validity checks
    boundary_tol: float = 1e-12      # "is on the boundary" checks
    orbit_tol: float = 1e-10         # backward-orbit exactness f(Z_{k+1}) = Z_k
    # report-only: no code reads these three, but every canonical report
    # prints the policy, so they stay until a change may alter report bytes
    solver_tol: float = 1e-11
    solver_max_iter: int = 100
    fd_step: float = 1e-6

    def as_dict(self) -> dict:
        return dict(vars(self))  # every field is a number: no deep copy needed


DEFAULT_POLICY = NumericPolicy()
