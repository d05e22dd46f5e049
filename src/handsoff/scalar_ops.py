"""Pointwise maps of the sparse-control optimality conditions, used by the solver.

All functions are pure and stateless.  They accept floats or numpy arrays and
broadcast elementwise; scalar input gives scalar output.  The maps:

* ``dead_zone``   -- ternary hard threshold, the shape of a sparsity-optimal control law
  (the solver's L1 control law).
* ``shrink``      -- soft threshold (L1 proximal map on the line).
* ``sat``         -- unit saturation, clamp to [-1, 1].
* ``sat_shrink``  -- saturated soft threshold; minimizes ``lam*|u| + r*u**2/2 + a*u``
  over ``|u| <= 1`` after the change of sign ``a = -r*v`` (the solver's L1/L2
  control law is ``sat(shrink(c, w1) / w2)``, built from the two maps).
* ``prox_box_l1_quad`` -- proximal map of ``lam*|u| + r*u**2/2`` restricted to
  ``[-1, 1]``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ProxParams",
    "dead_zone",
    "shrink",
    "sat",
    "sat_shrink",
    "prox_box_l1_quad",
]


@dataclass(frozen=True)
class ProxParams:
    """Weights of the scalar objective ``lam*|u| + (r/2)*u**2 + (rho/2)*(u - a)**2``.

    ``lam`` and ``r`` are the L1 and quadratic penalty weights, ``rho`` the
    proximal penalty.  ``lam >= 0``, ``r >= 0``, ``rho > 0``.
    """

    lam: float
    r: float
    rho: float

    def __post_init__(self) -> None:
        if not self.lam >= 0.0:
            raise ValueError(f"lam must be nonnegative, got {self.lam}")
        if not self.r >= 0.0:
            raise ValueError(f"r must be nonnegative, got {self.r}")
        if not self.rho > 0.0:
            raise ValueError(f"rho must be positive, got {self.rho}")


def _match_input(out: np.ndarray, *inputs) -> np.ndarray | float:
    # scalar in -> scalar out, array in -> array out
    if any(np.ndim(v) for v in inputs):
        return out
    return float(out)


def dead_zone(w, lam):
    """Ternary selector: -1 for ``w < -lam``, 0 for ``|w| < lam``, +1 for ``w > lam``.

    The boundary ``|w| == lam`` maps to 0; where the underlying optimality
    condition is set-valued the sparse (zero) element is returned.  ``lam``
    may be an array of per-sample thresholds broadcasting against ``w``.
    """
    if not np.all(np.asarray(lam) > 0.0):
        raise ValueError(f"lam must be positive, got {lam}")
    w = np.asarray(w, dtype=float)
    out = np.where(w > lam, 1.0, 0.0) - np.where(w < -lam, 1.0, 0.0)
    return _match_input(out, w)


def shrink(v, kappa):
    """Soft threshold: move ``v`` toward zero by ``kappa``, clipping at zero.

    ``shrink(v, kappa) = sign(v) * max(|v| - kappa, 0)``.
    """
    if np.any(np.asarray(kappa) < 0.0):
        raise ValueError("kappa must be nonnegative")
    v = np.asarray(v, dtype=float)
    out = np.sign(v) * np.maximum(np.abs(v) - kappa, 0.0)
    return _match_input(out, v)


def sat(v):
    """Unit saturation: clamp ``v`` to the interval [-1, 1]."""
    v = np.asarray(v, dtype=float)
    out = np.clip(v, -1.0, 1.0)
    return _match_input(out, v)


def sat_shrink(v, lam, r):
    """Saturated soft threshold ``sat(shrink(v, lam / r))``.

    Up to the sign change ``a = -r*v`` this is the minimizer of
    ``lam*|u| + (r/2)*u**2 + a*u`` over ``|u| <= 1``.  As ``r -> 0`` it
    approaches ``dead_zone(r*v, lam)`` pointwise away from the thresholds, and
    as ``lam -> 0`` it approaches ``sat(v)``.
    """
    if not lam > 0.0:
        raise ValueError(f"lam must be positive, got {lam}")
    if not r > 0.0:
        raise ValueError(f"r must be positive, got {r}")
    return sat(shrink(v, lam / r))


def prox_box_l1_quad(a, params: ProxParams):
    """Minimizer of ``lam*|u| + (r/2)*u**2 + (rho/2)*(u - a)**2`` over ``u in [-1, 1]``.

    Closed form: ``sat(shrink(rho*a / (r + rho), lam / (r + rho)))``.  The map
    is odd and nonexpansive in ``a``.
    """
    denom = params.r + params.rho
    a = np.asarray(a, dtype=float)
    out = np.clip(
        np.sign(a) * np.maximum(np.abs(a) * (params.rho / denom) - params.lam / denom, 0.0),
        -1.0,
        1.0,
    )
    return _match_input(out, a)
