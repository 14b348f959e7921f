"""Shared fixtures: tiny trajectories, prepared graphs and small model configs."""

import ctypes
import glob
import os

import numpy as np
import pytest

from mgnt.data import GraphConfig, feature_dims, get_schema, prepare_trajectory
from mgnt.model import ModelConfig, init_params
from mgnt.oracle import OracleConfig, simulate_impact


def _openblas_core() -> str:
    """The kernel the OpenBLAS bundled with numpy picked at run time, or
    'unknown' when that library or its core-name symbol is not there."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*.so"))):
        try:
            get_name = ctypes.CDLL(path).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        get_name.restype = ctypes.c_char_p
        return get_name().decode()
    return "unknown"


def pytest_report_header(config):
    # the pinned digests hold one BLAS kernel's bits; a failure elsewhere names it
    return (f"numpy {np.__version__}, OPENBLAS_NUM_THREADS="
            f"{os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}, "
            f"OpenBLAS core {_openblas_core()}")


@pytest.fixture(scope="session")
def tiny_traj():
    return simulate_impact(OracleConfig(rows=3, cols=3, frames=6, substeps=10))


@pytest.fixture(scope="session")
def tiny_graph_cfg():
    return GraphConfig(n_frequencies=2)


@pytest.fixture(scope="session")
def tiny_prep(tiny_traj, tiny_graph_cfg):
    return prepare_trajectory(tiny_traj, get_schema("impact"), tiny_graph_cfg)


@pytest.fixture(scope="session")
def tiny_model_cfg(tiny_graph_cfg):
    dims = feature_dims(get_schema("impact"), tiny_graph_cfg)
    return ModelConfig(latent_dim=12, n_tokens=4, n_heads=2,
                       transformer_dims=(12, 8, 12), **dims)


@pytest.fixture()
def tiny_params(tiny_model_cfg):
    return init_params(tiny_model_cfg, seed=0)
