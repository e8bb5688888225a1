"""Shared fixtures.

Operator assembly and eigendecomposition are the shared setup cost, so
operators are memoized for the whole session, keyed by geometry and order;
each carries its eigenbasis (`op.basis`, computed on first use), so the
basis is cached with the operator.  Grids are cheap and rebuilt per request
so tests can vary T and n_t freely without spoiling the cache.
"""

import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import fracwave as fw

settings.register_profile(
    "suite",
    max_examples=20,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def pytest_configure(config):
    # `python -m fracwave` subprocesses must import the package the suite
    # imports, also when it runs from the source tree without being installed
    src = str(Path(fw.__file__).resolve().parent.parent)
    paths = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    if src not in paths:
        os.environ["PYTHONPATH"] = os.pathsep.join([src, *paths])

_OPERATOR_CACHE: dict[tuple, fw.FracOperator] = {}


def case(n_int=24, s=0.7, n_t=96, T=1.0, m_collar=3):
    """(grid, op, op.basis) for a unit interval with collar windows at both
    ends; the operator is shared across all callers with the same
    (n_int, s, m_collar)."""
    grid = fw.build_grid(
        x_min=0.0,
        x_max=1.0,
        n_int=n_int,
        m_collar=m_collar,
        w1=tuple(range(m_collar)),
        w2=tuple(range(m_collar, 2 * m_collar)),
        T=T,
        n_t=n_t,
    )
    key = (n_int, s, m_collar)
    if key not in _OPERATOR_CACHE:
        _OPERATOR_CACHE[key] = fw.assemble_operator(grid, s)
    op = _OPERATOR_CACHE[key]
    return grid, op, op.basis


@pytest.fixture(scope="session")
def make_case():
    return case


@pytest.fixture
def rng():
    return np.random.default_rng(20260819)
