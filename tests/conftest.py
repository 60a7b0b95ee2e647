"""Shared fixtures.

The acceptance dataset (30k rows, seed 20) is generated once per
session and reused by every test that needs realistic windows; the
small dataset keeps model unit tests quick.
"""
import json
import os

import pytest

from trackcast import pool
from trackcast.ingest import SynthConfig, generate_synthetic, write_csv
from trackcast.preprocess import PreprocessConfig, run_preprocess

ACCEPT_SEED = 20
ACCEPT_ROWS = 30000
ACCEPT_WINDOW = 8
SWEEP_VARIANCE_THRESHOLD = 0.002  # sits between the calm bulk and burst tail of scaled window variances
FILTER_SEED = 11


@pytest.fixture(scope="session")
def session_blas_threads():
    """numpy's OpenBLAS thread-count getter and its value at session
    start, or None where no OpenBLAS symbol is found."""
    blas = pool._openblas_threads()
    return None if blas is None else (blas[0], blas[0]())


@pytest.fixture(autouse=True)
def blas_threads_restored(session_blas_threads):
    """Fail any test that leaves numpy's OpenBLAS on another thread
    count than at session start, as a parallel predict_batch that
    skipped its restore would."""
    yield
    if session_blas_threads is not None:
        get_threads, start = session_blas_threads
        assert get_threads() == start, "OpenBLAS thread count changed by this test"


@pytest.fixture
def forks(monkeypatch) -> list:
    """The pid of every child ``os.fork`` makes during the test, as the
    forking process records it: a child's own forks stay in its copy."""
    made, real = [], os.fork

    def fork():
        pid = real()
        if pid:
            made.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return made


@pytest.fixture(scope="session")
def acceptance_table():
    return generate_synthetic(SynthConfig(n_rows=ACCEPT_ROWS, seed=ACCEPT_SEED))


@pytest.fixture(scope="session")
def acceptance_split(acceptance_table):
    split, audit = run_preprocess(
        acceptance_table, PreprocessConfig(window_width=ACCEPT_WINDOW)
    )
    return split, audit


@pytest.fixture(scope="session")
def small_table():
    return generate_synthetic(
        SynthConfig(
            n_rows=3000,
            n_features=12,
            seed=7,
            constant_feature_count=2,
            irrelevant_feature_count=3,
        )
    )


@pytest.fixture(scope="session")
def small_split(small_table):
    split, _ = run_preprocess(small_table, PreprocessConfig(window_width=8))
    return split


@pytest.fixture(scope="session")
def acceptance_csv(acceptance_table, tmp_path_factory):
    path = tmp_path_factory.mktemp("accept") / "data.csv"
    write_csv(acceptance_table, path)
    return str(path)


@pytest.fixture(scope="session")
def cli_workspace(tmp_path_factory):
    """Small CSV + config for CLI tests that do real runs."""
    root = tmp_path_factory.mktemp("cli")
    table = generate_synthetic(
        SynthConfig(
            n_rows=2500,
            n_features=12,
            seed=7,
            constant_feature_count=2,
            irrelevant_feature_count=3,
        )
    )
    data_path = root / "data.csv"
    write_csv(table, data_path)
    cfg = {
        "preprocess": {"window_width": 8},
        "model": {"models": ["lr"], "hidden_size": 6, "kernel_width": 3},
        "train": {"max_epochs": 2, "batch_size": 64, "seed": 5},
    }
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    return {"root": str(root), "data": str(data_path), "config": str(cfg_path), "config_dict": cfg}


def write_config(directory, body) -> str:
    path = os.path.join(str(directory), "config.json")
    with open(path, "w") as fh:
        json.dump(body, fh)
    return path
