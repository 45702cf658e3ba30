import importlib.util
from pathlib import Path

import numpy as np
import pytest

from siegel_dynamics.geometry import BallPoint, CVector, SiegelPoint, sq_norm


def random_siegel(rng, dim=2, t_lo=-2, t_hi=2, w_scale=0.5):
    w = (rng.normal(size=dim - 1) + 1j * rng.normal(size=dim - 1)) * w_scale
    t = 10.0 ** rng.uniform(t_lo, t_hi)
    return SiegelPoint(t + sq_norm(w) + 1j * rng.normal(), tuple(w))


def random_ball(rng, dim=2, r_hi=0.999):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    v *= rng.uniform(0.0, r_hi) / np.linalg.norm(v)
    return BallPoint(CVector(tuple(v)))


def load_tool(name: str):
    """A script of tools/ as a module."""
    path = Path(__file__).resolve().parents[1] / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the mpmath references of the two metrics and the ball pair classes
accuracy_ledger = load_tool("accuracy_ledger")


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)
