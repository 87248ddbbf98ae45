"""Alpha computation and front-to-back blending primitives (Equations 3, 4, 9).

These helpers are shared by both rasterisers.  They operate on flat arrays of
pixel offsets so the callers can blend arbitrary pixel sets: full 16x16 tiles
for the standard dataflow, 8x8 blocks for GCC's Alpha/Blending Units.
"""

from __future__ import annotations

import numpy as np

from repro.gaussians.covariance import mahalanobis_sq
from repro.render.common import ALPHA_MAX, ALPHA_MIN


def alpha_from_maha(
    maha: np.ndarray,
    opacity,
    alpha_min: float = ALPHA_MIN,
    alpha_max: float = ALPHA_MAX,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Alpha from precomputed Mahalanobis^2 values (Equation 9).

    ``opacity`` may be a scalar or an array broadcasting against ``maha``.
    This is the single definition of the clamp/threshold semantics shared by
    the reference loops and the vectorized kernels, so an engine and its
    reference cannot drift apart.  With ``out`` (an array of ``maha``'s shape and
    dtype, which ``opacity`` must broadcast into) the same operations run in
    place with no temporaries; the values are those of the allocating form
    (``x * True == x`` and ``x * False == 0`` exactly).
    """
    if out is None:
        alpha = np.minimum(opacity * np.exp(-0.5 * maha), alpha_max)
        return np.where(alpha < alpha_min, 0.0, alpha)
    np.multiply(maha, -0.5, out=out)
    np.exp(out, out=out)
    out *= opacity
    np.minimum(out, alpha_max, out=out)
    out *= out >= alpha_min
    return out


def compute_alpha(
    conic: np.ndarray,
    opacity: float,
    dx: np.ndarray,
    dy: np.ndarray,
    alpha_min: float = ALPHA_MIN,
    alpha_max: float = ALPHA_MAX,
) -> np.ndarray:
    """Per-pixel alpha of one Gaussian (Equation 9).

    Values below ``alpha_min`` are zeroed (they are excluded from blending,
    matching the reference rasteriser and the paper's 1/255 criterion);
    values above ``alpha_max`` are clamped.
    """
    return alpha_from_maha(
        mahalanobis_sq(conic, dx, dy), opacity, alpha_min=alpha_min, alpha_max=alpha_max
    )


def blend_pixels(
    color_accum: np.ndarray,
    transmittance: np.ndarray,
    alpha: np.ndarray,
    color: np.ndarray,
    transmittance_eps: float,
) -> int:
    """Blend one Gaussian's contribution into a set of pixels, in place.

    Parameters
    ----------
    color_accum:
        ``(P, 3)`` accumulated colour for the target pixels (modified).
    transmittance:
        ``(P,)`` accumulated transmittance for the target pixels (modified).
    alpha:
        ``(P,)`` this Gaussian's alpha at each pixel (zero where it does not
        contribute).
    color:
        ``(3,)`` the Gaussian's RGB colour.
    transmittance_eps:
        Early-termination threshold: pixels whose transmittance is already
        below this value are skipped.

    Returns
    -------
    The number of pixels that actually received a contribution.  The caller
    uses this both to mark the Gaussian as "rendered" and to count blending
    work for the hardware models.
    """
    active = (alpha > 0.0) & (transmittance > transmittance_eps)
    count = int(np.count_nonzero(active))
    if count == 0:
        return 0
    weight = transmittance[active] * alpha[active]
    color_accum[active] += weight[:, None] * color[None, :]
    transmittance[active] *= 1.0 - alpha[active]
    return count


def finalize_image(
    color_accum: np.ndarray,
    transmittance: np.ndarray,
    background: tuple[float, float, float],
) -> np.ndarray:
    """Composite the accumulated colour over the background colour.

    The background is cast to the accumulator dtype so the float32 engine
    mode stays in single precision end to end.
    """
    background_arr = np.asarray(background, dtype=color_accum.dtype)
    return color_accum + transmittance[..., None] * background_arr
