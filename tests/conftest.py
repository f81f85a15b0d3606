import functools
import signal
from collections import Counter

import numpy as np
import pytest

from beamspec import verify
from beamspec.grid import make_grid, sample
from beamspec.spectrum import eigen_pencil


@pytest.fixture(scope="session")
def spectra():
    """The battery's pencil windows at n = 2000, one decomposition per weight."""
    return verify.compute_spectra(2000)


@pytest.fixture(scope="session")
def grid800():
    return make_grid(800)


@pytest.fixture(scope="session")
def one800(grid800):
    return sample(lambda t: np.ones_like(t), grid800)


@pytest.fixture(scope="session")
def spectrum_one800(one800):
    return eigen_pencil(one800, 6, 0)


@pytest.fixture(scope="session")
def sin3pi800(grid800):
    return sample(lambda t: np.sin(3 * np.pi * t), grid800)


@pytest.fixture(scope="session")
def spectrum_sin3pi800(sin3pi800):
    return eigen_pencil(sin3pi800, 4, 4)


@pytest.fixture
def time_limit():
    """time_limit(seconds) fails the test once it has run that long in
    wall time, so a hang fails its own case instead of stalling the suite.
    The alarm interrupts Python code between bytecodes, not a call into C."""
    def expire(signum, frame):
        pytest.fail("the test ran past its time limit", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    yield lambda seconds: signal.setitimer(signal.ITIMER_REAL, seconds)
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, previous)


def counted(monkeypatch, owner, name, key=None):
    """Wrap owner.name through monkeypatch and return a Counter of its
    calls, keyed by key(*args, **kwargs) when a key is given and by None
    otherwise."""
    real, tally = getattr(owner, name), Counter()

    def wrapper(*args, **kwargs):
        tally[None if key is None else key(*args, **kwargs)] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return tally


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(owner, name, key=None): counted() for the test."""
    return functools.partial(counted, monkeypatch)
