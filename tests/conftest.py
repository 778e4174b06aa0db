"""Shared fixture trees used across the suite.

The same handful of instances recur: a split-Dirac pair whose adapted and
flat distances differ by an order of magnitude, a coin-flip tree whose
coordinates are independent signs, and a downward-drifted binomial walk
whose optimal stopping rule is to wait.
"""

import pytest
from hypothesis import settings

from awsens import ScenarioTree, gen_binomial, tree_from_nested

# The default profile's draws, with a reproduction blob printed for every
# falsifying example, so that a failure seen on CI (whose example database
# is thrown away) can be replayed with @reproduce_failure:
#   python -m pytest --hypothesis-profile=ci
settings.register_profile("ci", print_blob=True)


@pytest.fixture
def split_dirac_pair() -> tuple[ScenarioTree, ScenarioTree]:
    """P: X1 = 0, X2 = +-1 each 1/2.  Q: Y1 = +-0.1 each 1/2, Y2 = sign(Y1).

    Adapted distance^2 = 0.1^2 + 2 = 2.01 while the flat distance is 0.1:
    the filtration constraint forces the stage-2 split to be paid in full.
    """
    P = tree_from_nested(2, [(0.0, 1.0, [(1.0, 0.5), (-1.0, 0.5)])])
    Q = tree_from_nested(2, [(0.1, 0.5, [(1.0, 1.0)]), (-0.1, 0.5, [(-1.0, 1.0)])])
    return P, Q


@pytest.fixture
def iid_signs() -> ScenarioTree:
    """X1, X2 independent uniform signs (values +-1, not a cumulative walk)."""
    return tree_from_nested(
        2,
        [
            (1.0, 0.5, [(1.0, 0.5), (-1.0, 0.5)]),
            (-1.0, 0.5, [(1.0, 0.5), (-1.0, 0.5)]),
        ],
    )


@pytest.fixture
def drifted_binomial() -> ScenarioTree:
    """X1 = +-1, X2 = X1 - 0.1 +- 1: a supermartingale, so stopping waits."""
    return gen_binomial(T=2, start=0.1, up=1.0, down=-1.0, p_up=0.5, drift=-0.1)


@pytest.fixture
def martingale_binomial() -> ScenarioTree:
    """Symmetric walk from 0: stop and continuation values tie everywhere."""
    return gen_binomial(T=2, start=0.0, up=1.0, down=-1.0, p_up=0.5, drift=0.0)
