"""Shared fixtures: toy logs from the paper's worked examples."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.log import QueryLog
from repro.core.vocabulary import Vocabulary


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--all",
        action="store_true",
        default=False,
        help="run the slow-marked tests too (clears the `-m 'not slow'` "
        "default from pytest.ini)",
    )


def pytest_configure(config: pytest.Config) -> None:
    # Only override the ini default — an explicit -m on the command line
    # (e.g. `-m slow` to run *only* the slow tier) still wins.
    if config.getoption("--all") and config.option.markexpr == "not slow":
        config.option.markexpr = ""


@pytest.fixture()
def example2_log() -> QueryLog:
    """The four-query log of the paper's Example 2/3.

    Features (paper order): (1) <_id, SELECT>, (2) <_time, SELECT>,
    (3) <sms_type, SELECT>, (4) <status=?, WHERE>, (5) <sms_type=?, WHERE>,
    (6) <Messages, FROM>.  q1 = q3, so the log has 3 distinct rows.
    """
    vocab = Vocabulary(
        [
            ("_id", "SELECT"),
            ("_time", "SELECT"),
            ("sms_type", "SELECT"),
            ("status=?", "WHERE"),
            ("sms_type=?", "WHERE"),
            ("Messages", "FROM"),
        ]
    )
    matrix = np.array(
        [
            [1, 0, 0, 1, 0, 1],  # q1 (and q3)
            [0, 1, 0, 1, 1, 1],  # q2
            [0, 1, 1, 0, 1, 1],  # q4
        ],
        dtype=np.uint8,
    )
    counts = np.array([2, 1, 1])
    return QueryLog(vocab, matrix, counts)


@pytest.fixture()
def example4_log() -> QueryLog:
    """The three-query toy log of §5.1 (naive mixture example).

    Features: <id, SELECT>, <sms_type, SELECT>, <Messages, FROM>,
    <status = ?, WHERE>; queries (1,0,1,1), (1,0,1,0), (0,1,1,0).
    """
    vocab = Vocabulary(
        [
            ("id", "SELECT"),
            ("sms_type", "SELECT"),
            ("Messages", "FROM"),
            ("status = ?", "WHERE"),
        ]
    )
    matrix = np.array(
        [[1, 0, 1, 1], [1, 0, 1, 0], [0, 1, 1, 0]], dtype=np.uint8
    )
    return QueryLog(vocab, matrix, np.array([1, 1, 1]))


@pytest.fixture()
def random_log() -> QueryLog:
    """A medium random binary log for statistical tests."""
    rng = np.random.default_rng(7)
    n_features = 12
    matrix = (rng.random((60, n_features)) < 0.35).astype(np.uint8)
    # Deduplicate rows to satisfy the distinct-row invariant.
    unique, counts = np.unique(matrix, axis=0, return_counts=True)
    vocab = Vocabulary(range(n_features))
    return QueryLog(vocab, unique, counts * rng.integers(1, 5, size=len(unique)))


@pytest.fixture(scope="session")
def small_pocketdata_log():
    """Session-cached small PocketData-like encoded log."""
    from repro.workloads import generate_pocketdata

    return generate_pocketdata(total=20_000, n_distinct=200, seed=3).to_query_log()


@pytest.fixture(scope="session")
def small_bank_log():
    """Session-cached small bank-like encoded log."""
    from repro.workloads import generate_bank

    return generate_bank(total=20_000, n_templates=120, seed=3).to_query_log()


def _dense_point_probabilities(mixture, matrix) -> np.ndarray:
    """Eq. 1 over the whole vocabulary: the likelihood kernel's oracle.

    Every component multiplies all ``n`` terms of every row (left to
    right), and the weighted terms are summed in component order.
    """
    matrix = np.asarray(matrix)
    total = np.zeros(matrix.shape[0])
    for w, component in zip(mixture.weights, mixture.components):
        p = component.encoding.marginals
        total += w * np.prod(np.where(matrix > 0, p, 1 - p), axis=1)
    return total


@pytest.fixture(scope="session")
def dense_point_probabilities():
    """The dense eq. 1 oracle of ``PatternMixtureEncoding.point_probabilities``."""
    return _dense_point_probabilities


@pytest.fixture()
def pool_start_methods(monkeypatch):
    """Start method of every process pool the executor layer creates.

    Records ``mp_context``'s start method per pool, or ``None`` when the
    pool was left on the platform default.
    """
    from concurrent.futures import ProcessPoolExecutor

    from repro.core import executor

    methods: list = []

    class _RecordingPool(ProcessPoolExecutor):
        def __init__(self, *args, mp_context=None, **kwargs):
            methods.append(
                None if mp_context is None else mp_context.get_start_method()
            )
            super().__init__(*args, mp_context=mp_context, **kwargs)

    monkeypatch.setattr(executor, "ProcessPoolExecutor", _RecordingPool)
    return methods
