import dataclasses
import warnings
from pathlib import Path

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
def strategy_d5():
    return retrodiction.build_strategy(bases.gen_mub(5))


@pytest.fixture(scope="session")
def v1_files():
    """Strategy files in the v1 layout, as version 0.7.0's ``strategy build`` wrote them for
    ``gen_mub(d)``, d = 2 and 3."""
    return {d: Path(__file__).parent / "data" / f"strategy{d}_v1.json" for d in (2, 3)}


@pytest.fixture(scope="session")
def unit_strategy(mub2):
    """The four unit vectors of C^4, each in two rows of weight 1/2: complete and maximal,
    but every diagonal operator has them as eigenvectors (solution dimension 4)."""
    table = retrodiction.safe_vector_table(np.tile(np.eye(4, dtype=complex), (2, 1)), np.zeros(8))
    return retrodiction.Strategy(basis_set=mub2, table=table, weights=np.full(8, 0.5))


@pytest.fixture(scope="session")
def zero_weight_strategy(unit_strategy):
    """``unit_strategy`` with weights 1 on the first four rows and 0 on the last four:
    still complete, not maximal."""
    return dataclasses.replace(unit_strategy, weights=np.repeat([1.0, 0.0], 4))


@pytest.fixture()
def refused_quietly(capfd):
    """``check(make, match)``: ``make()`` raises a matching ValueError, warns and prints nothing.

    ``capfd`` sees what LAPACK writes to the process's own file descriptors.
    """

    def check(make, match):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=match):
                make()
        assert capfd.readouterr() == ("", "")

    return check


@pytest.fixture(scope="session")
def biased_copy():
    """Copy a basis set with basis b turned by an angle in its own plane: no longer unbiased."""

    def make(bs, angle, b=1):
        mats = bs.vectors.copy()
        v0, v1 = mats[b, 0].copy(), mats[b, 1].copy()
        mats[b, 0] = np.cos(angle) * v0 + np.sin(angle) * v1
        mats[b, 1] = -np.sin(angle) * v0 + np.cos(angle) * v1
        return bases.BasisSet(mats)

    return make
