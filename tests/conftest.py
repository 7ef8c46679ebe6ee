import numpy as np

from cocircular import TAU, AngleConfiguration, MassVector


def ordered_angles(rng, n, min_gap=0.05):
    """Random pinned configuration whose circular gaps all stay >= min_gap."""
    w = rng.dirichlet(np.ones(n))
    gaps = min_gap + (TAU - n * min_gap) * w
    cum = np.cumsum(gaps)
    return AngleConfiguration(np.append(cum[:-1], TAU))


def random_masses(rng, n, lo=0.5, hi=2.0):
    return MassVector(rng.uniform(lo, hi, n))


def certify_masses(family, n):
    """The mass families of the certify benchmark, heavy/light ratio 1e3."""
    if family == "uniform":
        return np.random.default_rng(n).uniform(0.5, 2.0, n)
    if family == "graded":
        return 1.0 + np.arange(n) / n
    m = np.ones(n)
    m[-1] = 1e3
    if family == "two-heavy":
        m[2] = 1e3
    return m
