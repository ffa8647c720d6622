"""Fixtures shared by the tests of build_dataset's two-process path."""

import os

import pytest


@pytest.fixture
def forks(monkeypatch):
    """A list that gets the calling pid of every os.fork call."""
    calls = []
    fork = os.fork

    def counted_fork():
        calls.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    return calls
