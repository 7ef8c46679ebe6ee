import threading

import numpy as np

import cocircular.potential as potential
from cocircular import TAU, AngleConfiguration, MassVector


def ordered_angles(rng, n, min_gap=0.05):
    """Random pinned configuration whose circular gaps all stay >= min_gap."""
    if n * min_gap >= TAU:
        raise ValueError(f"{n} gaps of {min_gap} do not fit in 2*pi")
    w = rng.dirichlet(np.ones(n))
    gaps = min_gap + (TAU - n * min_gap) * w
    cum = np.cumsum(gaps)
    return AngleConfiguration(np.append(cum[:-1], TAU))


def random_masses(rng, n, lo=0.5, hi=2.0):
    return MassVector(rng.uniform(lo, hi, n))


def certify_masses(family, n, ratio=1e3):
    """The mass families of the certify benchmark, heavy/light ``ratio``."""
    if family == "uniform":
        return np.random.default_rng(n).uniform(0.5, 2.0, n)
    if family == "graded":
        return 1.0 + np.arange(n) / n
    m = np.ones(n)
    m[-1] = ratio
    if family == "two-heavy":
        m[2] = ratio
    return m


def dirty_matrix(n):
    """A stale mirror target: NaN off the diagonal and -0.0 on it."""
    full = np.full((n, n), np.nan)
    np.fill_diagonal(full, -0.0)
    return full


def on_fresh_thread(call, *args):
    """Run call(*args) on a new thread, so with a workspace built for it alone."""
    out = []

    def run():
        assert getattr(potential._local, "ws", None) is None
        out.append(call(*args))

    thread = threading.Thread(target=run)
    thread.start()
    thread.join(timeout=120)
    assert out, "the call on the fresh thread raised or did not finish"
    return out[0]
