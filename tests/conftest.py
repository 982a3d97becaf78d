"""Shared fixtures: the paper's running example and common workloads."""

from __future__ import annotations

import faulthandler
import os
import sys

import pytest

from repro.core.similarity import SimilarityMatrix
from repro.workloads.library import SCHEMA_LIBRARY, school_example
from repro.workloads.noise import expand_schema

#: Seconds one test may run before every thread's stack is written to
#: stderr and the run exits: a hang (a fork deadlock, say) then fails
#: with stacks instead of wedging CI.  The slowest test takes ~40 s.
HANG_TIMEOUT_S = 600

_hang_stderr = -1


def pytest_configure(config):
    # Output capture is suspended while plugins configure, so this is a
    # duplicate of the terminal's stderr: stacks dumped during a
    # captured test still reach it.
    global _hang_stderr
    _hang_stderr = os.dup(sys.stderr.fileno())


def pytest_unconfigure(config):
    os.close(_hang_stderr)


@pytest.fixture(autouse=True)
def _dump_stacks_on_hang():
    faulthandler.dump_traceback_later(HANG_TIMEOUT_S, exit=True,
                                      file=_hang_stderr)
    yield
    faulthandler.cancel_dump_traceback_later()


@pytest.fixture(scope="session")
def school():
    """The Fig. 1 bundle (schemas + σ1 + σ2 + att)."""
    return school_example()


@pytest.fixture(scope="session")
def permissive_att():
    return SimilarityMatrix.permissive()


@pytest.fixture(scope="session")
def bib_expansion():
    """A small expanded target with ground-truth embedding."""
    return expand_schema(SCHEMA_LIBRARY["bib"](), seed=11)


@pytest.fixture(scope="session")
def orders_expansion():
    """A mid-size expansion exercising disjunctions and stars."""
    return expand_schema(SCHEMA_LIBRARY["orders"](), seed=23)
