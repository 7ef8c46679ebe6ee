import ctypes
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

import cocircular
import cocircular.potential as potential
import cocircular.scanner as scanner
from cocircular import TAU, AngleConfiguration, MassVector

# the directory that holds the package, and nothing else a run may import
SRC = os.path.dirname(os.path.dirname(cocircular.__file__))


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


def lapack_array(address, size):
    """The ``size`` doubles at a LAPACK argument's ``address``, as an array over that memory."""
    return np.ctypeslib.as_array((ctypes.c_double * size).from_address(address))


def run_python(*args, stdin=None, cwd=None):
    """``python -W error *args`` in a new interpreter whose path holds the
    package's source alone, on the text stdin: the CompletedProcess."""
    return subprocess.run([sys.executable, "-W", "error", *args], cwd=cwd, input=stdin,
                          env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True,
                          timeout=120)


def patch_callers(monkeypatch, owner, name, record):
    """Pass every call of the kernel ``owner.name`` through ``record`` first.

    Every package module that holds the kernel by name is patched, on
    every thread; the arguments pass through. Returns those modules.
    """
    kernel = getattr(owner, name)

    def recording(*args):
        record(*args)
        return kernel(*args)

    callers = [module for module_name, module in list(sys.modules.items())
               if module_name.split(".")[0] == "cocircular"
               and getattr(module, name, None) is kernel]
    for module in callers:
        monkeypatch.setattr(module, name, recording)
    return set(callers)


@pytest.fixture
def g_calls(monkeypatch):
    """The (alpha, sine table) of every call of the exact kernel ``scanner._g``."""
    calls = []
    patch_callers(monkeypatch, scanner, "_g", lambda n, table, alpha: calls.append((alpha, table)))
    return calls
