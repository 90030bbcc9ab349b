import numpy as np
import pytest

from meanking import bases, retrodiction


@pytest.fixture(scope="session")
def mub2():
    return bases.gen_mub(2)


@pytest.fixture(scope="session")
def mub3():
    return bases.gen_mub(3)


@pytest.fixture(scope="session")
def strategy_d2(mub2):
    return retrodiction.build_strategy(mub2)


@pytest.fixture(scope="session")
def strategy_d3(mub3):
    return retrodiction.build_strategy(mub3)


@pytest.fixture(scope="session")
def biased_copy():
    """Copy a basis set with basis b turned by an angle in its own plane: no longer unbiased."""

    def make(bs, angle, b=1):
        mats = [basis.vectors.copy() for basis in bs.bases]
        v0, v1 = mats[b][0].copy(), mats[b][1].copy()
        mats[b][0] = np.cos(angle) * v0 + np.sin(angle) * v1
        mats[b][1] = -np.sin(angle) * v0 + np.cos(angle) * v1
        return bases.BasisSet(bs.dim, tuple(bases.Basis(j, m) for j, m in enumerate(mats)))

    return make
