"""Pointwise maps of the sparse-control optimality conditions, used by the solver.

All functions are pure and stateless.  They accept floats or numpy arrays and
broadcast elementwise; scalar input gives scalar output.  The maps:

* ``dead_zone``   -- ternary hard threshold, the shape of a sparsity-optimal control law.
* ``shrink``      -- soft threshold (L1 proximal map on the line).
* ``sat``         -- unit saturation, clamp to [-1, 1].
* ``control_law`` -- minimizer of ``w1*|u| + (w2/2)*u**2 - c*u`` over ``|u| <= 1``:
  the saturated soft threshold ``sat(shrink(c, w1) / w2)`` where ``w2 > 0``
  and ``dead_zone(c, w1)`` where ``w2 = 0``.  Applied to the input-mapped
  costate it is the optimal L1/L2 and L1 control; with ``c = s*a`` and
  ``w2 = r + s`` it is the proximal map, penalty ``s``, of
  ``w1*|u| + (r/2)*u**2`` on ``[-1, 1]``.
* ``saturated_shrink`` -- the ``w2 > 0`` branch of ``control_law`` as one
  unchecked whole-array pass, for callers whose weights are positive by
  construction (the solver's Newton ascent).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "dead_zone",
    "shrink",
    "sat",
    "control_law",
    "saturated_shrink",
]


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


def saturated_shrink(c, w1, w2, out=None, scratch=None) -> np.ndarray:
    """``sat(shrink(c, w1) / w2)`` for ``w2 > 0``, bit for bit, without checks.

    Numerically ``sat((c - clip(c, -w1, w1)) / w2)``; computed as
    ``sign(c) * min(max(|c| - w1, 0) / w2, 1)``, with no masks or gathers,
    so that the dead zone keeps the signed zero ``sign(c) * 0`` of ``shrink``.
    ``w1 >= 0`` and ``w2 > 0`` are the caller's to ensure (``w2 = 0`` gives
    NaN where ``|c| <= w1``).  The weights broadcast against ``c``; the
    result is an array of ``c``'s shape, written into ``out`` when given,
    and ``sign(c)`` is written into ``scratch`` when given (neither may be
    ``c``, nor each other), so that a caller with both allocates nothing.
    """
    if out is None:
        out = np.empty(np.shape(c))
    u = np.abs(c, out=out)
    np.subtract(u, w1, out=u)
    np.maximum(u, 0.0, out=u)
    np.divide(u, w2, out=u)
    np.minimum(u, 1.0, out=u)
    u *= np.sign(c, out=scratch)
    return u


def control_law(c, w1, w2):
    """Minimizer of ``w1*|u| + (w2/2)*u**2 - c*u`` over ``|u| <= 1``, elementwise.

    ``sat(shrink(c, w1) / w2)`` where ``w2 > 0`` (``saturated_shrink``), and
    ``dead_zone(c, w1)`` where ``w2 = 0``, which is 0 on the threshold
    ``|c| = w1`` itself.  The weights broadcast against ``c`` and must be
    nonnegative; a sample with ``w2 = 0`` needs ``w1 > 0``.  As ``w2 -> 0``
    the saturated soft threshold approaches the dead-zone level away from
    the thresholds, and as ``w1 -> 0`` it approaches ``sat(c / w2)``.
    """
    c, w1, w2 = np.broadcast_arrays(
        np.asarray(c, dtype=float), np.asarray(w1, dtype=float), np.asarray(w2, dtype=float)
    )
    if np.any(w1 < 0.0) or np.any(w2 < 0.0):
        raise ValueError("weights w1 and w2 must be nonnegative")
    quad = w2 > 0.0
    u = np.empty(c.shape)
    u[quad] = saturated_shrink(c[quad], w1[quad], w2[quad])
    u[~quad] = dead_zone(c[~quad], w1[~quad])
    return _match_input(u, c)
