import os
from pathlib import Path

import pytest

from asymcharge import AsymmetryField, DmcParams, NetworkInstance
from support import Node, instance_of

SRC = str(Path(__file__).resolve().parents[1] / "src")


def subprocess_env() -> dict[str, str]:
    """Environment for ``python -m asymcharge.cli`` children.

    pytest's ``pythonpath`` setting reaches only its own process, so the
    checkout's ``src`` goes first on the children's ``PYTHONPATH``.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def neutral_field(seed: int = 0) -> AsymmetryField:
    """A field with unit coefficients: distances and rates are euclidean."""
    return AsymmetryField(seed=seed, k_dis_range=(1.0, 1.0), k_egy_range=(1.0, 1.0))


def make_instance(node_specs, bs=(0.0, 0.0), dmc=None, asym=None) -> NetworkInstance:
    """Instance from (pos, e_b, e_d, e_c) tuples; defaults are table values."""
    nodes = tuple(
        Node(i, pos, e_b, e_d, e_c) for i, (pos, e_b, e_d, e_c) in enumerate(node_specs)
    )
    return instance_of(nodes, bs, dmc or DmcParams(), asym or neutral_field())


@pytest.fixture
def dmc() -> DmcParams:
    return DmcParams()


@pytest.fixture
def field() -> AsymmetryField:
    return neutral_field()
