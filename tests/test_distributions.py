"""Base densities on SO(3): normalization, sampling, known limits."""

import numpy as np
import pytest
from scipy import integrate

from flowpose import distributions as dist
from flowpose import training
from flowpose.rotation import Rotation, axis_angle_exp


def test_uniform_quaternions_on_hemisphere(rng):
    q = dist.uniform_quaternions(5000, rng)
    np.testing.assert_allclose(np.linalg.norm(q, axis=1), 1.0, atol=1e-12)
    assert (q[:, 0] >= 0).all()


def test_uniform_quaternions_isotropic(rng):
    # mean direction of the vector part should vanish
    q = dist.uniform_quaternions(40000, rng)
    assert np.abs(q[:, 1:].mean(axis=0)).max() < 0.02


def test_pig_sample_hemisphere_and_concentration(rng):
    mode = Rotation.identity()
    prev = None
    for kappa in (1.0, 2.0, 3.0):
        d = dist.ProjectedIsoGaussian(mode, kappa)
        s = dist.pig_sample_batch(d, 4000, rng)
        assert (s[:, 0] >= 0).all()
        mean_w = s[:, 0].mean()
        if prev is not None:
            assert mean_w > prev  # sharper kappa concentrates at the mode
        prev = mean_w


def test_pig_density_normalizes_mc(rng):
    for kappa in (1.0, 2.0):
        d = dist.ProjectedIsoGaussian(Rotation.identity(), kappa)
        q = dist.uniform_quaternions(200000, rng)
        z = np.exp(dist.pig_logpdf_batch(d, q)).mean()
        assert abs(z - 1.0) < 0.03


def test_pig_density_matches_quadrature():
    # mode at identity: density depends only on |<q, mode>|; integrate the
    # angle marginal of normalized Haar, (1-cos(angle))/pi, independently
    kappa = 2.0
    d = dist.ProjectedIsoGaussian(Rotation.identity(), kappa)

    def integrand(ang):
        r = axis_angle_exp([ang, 0.0, 0.0])
        return np.exp(dist.pig_logpdf_batch(d, r.q)) * (1 - np.cos(ang)) / np.pi

    z, err = integrate.quad(integrand, 0.0, np.pi, limit=200)
    assert abs(z - 1.0) < 1e-6


def test_pig_histogram_matches_density(rng):
    # KL between the sampled qdot=|<q,mode>| histogram and the density's
    # implied histogram; the folded Haar marginal of one quaternion
    # coordinate is (4/pi) sqrt(1-qdot^2) on [0,1]
    kappa = 2.0
    d = dist.ProjectedIsoGaussian(Rotation.identity(), kappa)
    s = dist.pig_sample_batch(d, 60000, rng)
    qdot = np.abs(s[:, 0])
    edges = np.linspace(0.0, 1.0, 41)
    hist, _ = np.histogram(qdot, bins=edges, density=False)
    p = hist / hist.sum()
    centers = 0.5 * (edges[:-1] + edges[1:])
    dens = np.exp(dist.pig_logpdf_from_qdot(centers, kappa))
    marg = dens * (4.0 / np.pi) * np.sqrt(1 - centers**2)
    q = marg / marg.sum()
    mask = p > 0
    kl = float(np.sum(p[mask] * np.log(p[mask] / q[mask])))
    assert kl < 0.05


def test_igso3_normalizes_by_quadrature():
    for eps in (0.1, 0.5, 1.0):
        def integrand(ang, eps=eps):
            return np.exp(dist.igso3_logpdf(ang, eps)) * (1 - np.cos(ang)) / np.pi

        z, _ = integrate.quad(integrand, 1e-9, np.pi, limit=300)
        assert abs(z - 1.0) < 0.01


def test_igso3_small_eps_concentrates():
    assert dist.igso3_logpdf(0.05, 0.05) > dist.igso3_logpdf(1.5, 0.05)


def test_diag_gaussian_matches_scipy(rng):
    # the shape head's training NLL is the exact diagonal-Gaussian density
    from scipy.stats import norm
    mu = rng.normal(size=4)
    sigma = rng.uniform(0.5, 2.0, size=4)
    x = rng.normal(size=4)
    expect = norm.logpdf(x, mu, sigma).sum()
    assert abs(float(training._gauss_nll(mu[None], np.log(sigma)[None], x[None])) + expect) < 1e-10
