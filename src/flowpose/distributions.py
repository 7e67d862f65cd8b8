"""Base probability distributions on SO(3).

Measure convention: rotation log-densities are taken w.r.t. the normalized
Haar probability measure, so the uniform distribution has log-density 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ag
from .rotation import Rotation

__all__ = [
    "ProjectedIsoGaussian", "pig_logpdf_from_qdot",
    "igso3_logpdf", "uniform_sample", "uniform_quaternions",
]

# hemisphere surface area of S^3 is pi^2; uniform-on-SO(3) surface density
# is 1/pi^2, so multiplying a folded S^3 density by pi^2 yields the density
# w.r.t. normalized Haar.
_HAAR_SCALE = np.pi ** 2
_LOG_FLOOR = 1e-300


@dataclass(frozen=True)
class ProjectedIsoGaussian:
    """Radial projection of N(kappa * q_mode, I_4) onto the quaternion sphere."""

    mode: Rotation
    kappa: float

    def __post_init__(self):
        if not self.kappa > 0:
            raise ValueError("kappa must be positive")


def _unit_hemisphere(v):
    """The rows of v (n, 4) normalized in place and folded to w >= 0."""
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    flip = v[:, 0] < 0
    v[flip] = -v[flip]
    return v


def pig_sample_batch(d: ProjectedIsoGaussian, n: int, rng: np.random.Generator):
    """(n, 4) canonical quaternions drawn from d: each a normalized
    N(kappa * q_mode, I_4) draw, folded to w >= 0."""
    return _unit_hemisphere(rng.normal(size=(n, 4)) + d.kappa * d.mode.q)


def _projected_density_s3(t, kappa):
    """Density on S^3 (surface measure) of the projected 4D Gaussian, as a
    function of t = kappa * <u, mode>. Uses truncated-moment identities:
    integral_0^inf r^3 phi(r - t) dr = (t^3 + 3t) Phi(t) + (t^2 + 2) phi(t).
    """
    phi = ag.normal_pdf(t)
    Phi = ag.normal_cdf(t)
    t2 = t * t
    bracket = (t * t2 + 3.0 * t) * Phi + (t2 + 2.0) * phi
    scale = np.sqrt(2.0 * np.pi) / (2.0 * np.pi) ** 2
    return scale * ag.exp(0.5 * (t2 - kappa ** 2)) * bracket


def pig_logpdf_from_qdot(qdot, kappa):
    """Log-density (normalized Haar) from the quaternion dot with the mode.

    Works on plain arrays or autodiff nodes; folding over antipodes makes the
    result a genuine SO(3) density regardless of hemisphere.
    """
    t = kappa * qdot
    dens = _projected_density_s3(t, kappa) + _projected_density_s3(-t, kappa)
    dens = dens + _LOG_FLOOR
    return ag.log(_HAAR_SCALE * dens)


def pig_logpdf_batch(d: ProjectedIsoGaussian, quats) -> np.ndarray:
    quats = np.asarray(quats, dtype=np.float64)
    return pig_logpdf_from_qdot(quats @ d.mode.q, d.kappa)


def _igso3_terms(eps, tail=1e-12, lmax=2000):
    ls = np.arange(lmax + 1)
    w = (2 * ls + 1) * np.exp(-ls * (ls + 1) * eps)
    # |sin((l+1/2)x)/sin(x/2)| <= 2l+1, so (2l+1)*w bounds each term
    bound = (2 * ls + 1) * w
    keep = np.nonzero(bound >= tail)[0]
    top = int(keep[-1]) + 1 if keep.size else 1
    return ls[:top], w[:top]


def igso3_logpdf(theta: float, eps: float) -> float:
    """Heat-kernel (true isotropic Gaussian) log-density on SO(3), normalized
    Haar convention, by truncated character series over the rotation angle."""
    if not eps > 0:
        raise ValueError("eps must be positive")
    ls, w = _igso3_terms(eps)
    half = 0.5 * theta
    if abs(np.sin(half)) < 1e-8:
        # removable singularity: sin((l+1/2)t)/sin(t/2) -> 2l+1 as t -> 0
        dens = float(np.sum(w * (2 * ls + 1)))
    else:
        dens = float(np.sum(w * np.sin((ls + 0.5) * theta) / np.sin(half)))
    return float(np.log(max(dens, _LOG_FLOOR)))


def uniform_quaternions(n: int, rng: np.random.Generator) -> np.ndarray:
    """(n, 4) Haar-uniform canonical quaternions."""
    return _unit_hemisphere(rng.normal(size=(n, 4)))


def uniform_sample(rng: np.random.Generator) -> Rotation:
    return Rotation(rng.normal(size=4))
