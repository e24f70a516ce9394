"""Shared fixtures."""

import functools

import pytest


@pytest.fixture(scope="session")
def claim():
    """``claim(name)``: that claims-table entry's result, run once a session."""
    from repro.experiments.validate import CHECKS

    return functools.cache(lambda name: CHECKS[name]())
