"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

from repro.circuit import Circuit, random_batch
from repro.circuit.generators import random_circuit
from repro.dd import DDManager

# Hypothesis profiles.  Tests that pin ``max_examples`` keep it; the oracle
# property tests (DD core against tests/dd_oracles.py, ELL assembler against
# tests/ell_oracles.py) leave it to the profile, so CI can run them longer
# with HYPOTHESIS_PROFILE=ci.
settings.register_profile("dev", max_examples=25, deadline=None)
settings.register_profile("ci", max_examples=250, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def mgr4():
    return DDManager(4)


@pytest.fixture
def small_circuit() -> Circuit:
    """A 4-qubit mixed circuit with 1q/2q/controlled/diagonal gates."""
    c = Circuit(4, name="small")
    c.h(0).cx(0, 1).rz(0.3, 2).cz(1, 3).ry(1.1, 3).rzz(0.7, 0, 2)
    c.add("t", 1).swap(1, 2).cp(0.4, 0, 3).x(2)
    return c


@pytest.fixture
def random_circuits():
    """A few random 4-qubit circuits for semantic checks."""
    return [random_circuit(4, 20, seed=s) for s in range(3)]


@pytest.fixture
def batch4():
    return random_batch(4, 6, rng=7)
