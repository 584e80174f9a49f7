"""Numerical health guard: NaN/Inf and norm-drift detection per batch.

Unitary circuits over normalized inputs must keep every output column at
norm 1; drift beyond tolerance (or any non-finite amplitude) signals a
numerical fault — an undetected bit-flip, a broken kernel, accumulated
round-off.  The guard runs on every completed output batch and applies one
of four policies, in the spirit of "as accurate as needed, as efficient as
possible" (Hillmich et al.):

* ``off``         — no checks;
* ``warn``        — record the event and ``warnings.warn`` (default);
* ``renormalize`` — divide drifting columns back to unit norm (non-finite
  values cannot be repaired and escalate to a warning);
* ``fail``        — raise :class:`~repro.errors.NumericalError`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from ..errors import NumericalError, SimulationError
from .events import get_resilience_log

HEALTH_MODES = ("off", "warn", "renormalize", "fail")


@dataclass(frozen=True)
class HealthPolicy:
    """What to check and what to do when a check trips."""

    mode: str = "warn"
    norm_tol: float = 1e-6

    def __post_init__(self) -> None:
        if self.mode not in HEALTH_MODES:
            raise SimulationError(
                f"unknown health mode {self.mode!r}; expected one of {HEALTH_MODES}"
            )

    def for_fidelity(self, achieved: float) -> "HealthPolicy":
        """This policy for a run whose plan achieved fidelity ``achieved``.

        A fidelity-budgeted plan prunes branches, so its outputs may drift
        from unit norm by up to ``1 - achieved``; that drift is licensed,
        not a fault.  The norm tolerance widens to
        ``max(norm_tol, 1 - achieved)``; an exact plan (1.0) keeps it.
        The non-finite check and the mode are unchanged.
        """
        tol = max(self.norm_tol, 1.0 - achieved)
        return self if tol == self.norm_tol else replace(self, norm_tol=tol)

    @classmethod
    def coerce(cls, value: "HealthPolicy | str | None") -> "HealthPolicy":
        """Accept a policy, a mode string, or ``None`` (= ``off``)."""
        if value is None:
            return cls(mode="off")
        if isinstance(value, str):
            return cls(mode=value)
        return value


def check_state_block(
    states: np.ndarray, policy: HealthPolicy | None, label: str = ""
) -> np.ndarray:
    """Health-check one ``(2^n, batch)`` output block.

    Returns the (possibly renormalized) block; raises
    :class:`~repro.errors.NumericalError` under the ``fail`` policy.
    """
    if policy is None or policy.mode == "off":
        return states
    log = get_resilience_log()
    if not np.all(np.isfinite(states)):
        log.record("health_nonfinite", site="health", label=label)
        message = f"non-finite amplitudes in {label or 'output block'}"
        if policy.mode == "fail":
            raise NumericalError(message)
        warnings.warn(message, RuntimeWarning, stacklevel=2)
        return states
    norms = np.linalg.norm(states, axis=0)
    drift = float(np.max(np.abs(norms - 1.0))) if norms.size else 0.0
    if drift <= policy.norm_tol:
        return states
    log.record("health_drift", site="health", label=label, drift=drift)
    message = (
        f"norm drift {drift:.3e} in {label or 'output block'} exceeds "
        f"tolerance {policy.norm_tol:.1e}"
    )
    if policy.mode == "fail":
        raise NumericalError(message)
    if policy.mode == "renormalize":
        safe = np.where(norms > 0.0, norms, 1.0)
        log.record("renormalize", site="health", label=label, drift=drift)
        return states / safe
    warnings.warn(message, RuntimeWarning, stacklevel=2)
    return states
