"""Shared fixtures and reference-model helpers for the test suite.

The suite's oracle is :class:`repro.verify.oracle.SequentialOracle` --
the same model the differential fuzzer replays against -- aliased here
as ``ReferenceMap`` for the property tests.

Seeds are centralized in the ``repro_test_seed`` fixture so the soak
test, the fuzz smoke test and any future randomized test derive from
one knob, overridable via the ``REPRO_TEST_SEED`` environment variable
(e.g. ``REPRO_TEST_SEED=7 pytest`` to probe a different universe).
"""

from __future__ import annotations

import os
import random
from typing import Tuple

import pytest
from hypothesis import settings

from repro import PIMMachine, PIMSkipList
from repro.sim.machine import ReferencePIMMachine
from repro.verify.oracle import SequentialOracle
from repro.workloads import build_items

#: The suite's ordered-map oracle (see module docstring).
ReferenceMap = SequentialOracle

#: The two sides of every engine parity check, under the labels the perf
#: baselines (and the parametrized test ids) already use: the per-task
#: reference oracle, and the engine.
ENGINES = {"object": ReferencePIMMachine, "columnar": PIMMachine}

#: The one Hypothesis profile of the property tests that tier-1 and CI
#: must run identically: the examples are the same on every run.
DETERMINISTIC = settings(max_examples=80, deadline=None, derandomize=True)

#: Default master seed; override with REPRO_TEST_SEED=<int>.
DEFAULT_TEST_SEED = 123


def master_seed() -> int:
    """The suite's master seed, from ``REPRO_TEST_SEED`` or the default."""
    return int(os.environ.get("REPRO_TEST_SEED", DEFAULT_TEST_SEED))


@pytest.fixture(scope="session")
def repro_test_seed() -> int:
    return master_seed()


@pytest.fixture
def machine8() -> PIMMachine:
    return PIMMachine(num_modules=8, seed=42)


@pytest.fixture
def machine4() -> PIMMachine:
    return PIMMachine(num_modules=4, seed=7)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(1234)


def make_skiplist(num_modules: int = 8, n: int = 200, seed: int = 42,
                  stride: int = 1000, trace: bool = False,
                  ) -> Tuple[PIMMachine, PIMSkipList, ReferenceMap]:
    """A built skip list + its oracle."""
    machine = PIMMachine(num_modules=num_modules, seed=seed,
                         trace_accesses=trace)
    sl = PIMSkipList(machine)
    items = build_items(n, stride=stride)
    sl.build(items)
    return machine, sl, ReferenceMap(items)


@pytest.fixture
def built8() -> Tuple[PIMMachine, PIMSkipList, ReferenceMap]:
    return make_skiplist(num_modules=8, n=200, seed=42)
