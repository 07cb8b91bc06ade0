import os

# one BLAS thread: the suite's arrays are small, and under load a second
# thread makes the steps slower, not faster.  Set before numpy is imported
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np
import pytest

from chns.checks import rand_vector
from chns.grid import Grid
from chns.poisson import helmholtz_project


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def spy(monkeypatch, log, tag, name, *owners):
    """Rebind ``name`` on each owner to a wrapper that appends ``tag`` to
    ``log``, then calls the original.  A callable ``tag`` is applied to the
    call's arguments and its value is appended instead."""
    for owner in owners:
        def call(*args, _fn=getattr(owner, name), **kwargs):
            log.append(tag(*args, **kwargs) if callable(tag) else tag)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, call)


def solenoidal_vector(grid, rng):
    """``checks.rand_vector`` projected onto discretely divergence-free fields."""
    v, _ = helmholtz_project(rand_vector(grid, rng), 1e-12)
    return v


@pytest.fixture
def grid32():
    return Grid(2, 32)


@pytest.fixture
def grid16():
    return Grid(2, 16)
