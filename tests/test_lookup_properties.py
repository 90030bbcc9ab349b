"""Property tests of the sampler's inverse-CDF lookup.

``protocol._lookup`` searches its keys in sorted order and scatters the
hits back. It must give every key the bin that one unsorted
``np.searchsorted`` over the same fixed-point table gives, which is
``oracles.lookup``. The tables have zero-mass bins, leading and trailing
ones included, and rows whose cumulative sum falls short of the top, so
that the pinned last entry decides; the draws include 0, ``_RES - 1`` and
every cumulative boundary of the rows drawn.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from meanking import protocol as proto
from oracles import lookup

_SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def tables(draw):
    """``(dists, rows, draws)``: a table of 1-40 rows of widths 1-100 and the keys into it."""
    nrows, width = draw(st.integers(1, 40)), draw(st.integers(1, 100))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mass = rng.random((nrows, width))
    mass[rng.random((nrows, width)) < draw(st.sampled_from([0.0, 0.3, 0.8]))] = 0.0
    if width > 1:
        mass[:, 0] *= not draw(st.booleans())  # a leading empty bin
        mass[:, -1] *= not draw(st.booleans())  # a trailing one
    mass[mass.sum(axis=1) == 0, rng.integers(width)] = 1.0
    dists = mass / mass.sum(axis=1, keepdims=True)
    # a row summing a little under 1 ends below the top: the pinned last entry closes it
    dists *= np.where(rng.random((nrows, 1)) < 0.3, 1 - 1e-9, 1.0)

    count = draw(st.sampled_from([1, 2, proto.CHUNK - 1, proto.CHUNK, proto.CHUNK + 1,
                                  2 * proto.CHUNK + 7]))
    rows = rng.integers(nrows, size=count)
    local = proto._cdf(dists) - np.arange(nrows)[:, None] * proto._RES
    edges = np.stack([np.zeros_like(rows), np.full_like(rows, proto._RES - 1),
                      local[rows, rng.integers(width, size=count)],
                      local[rows, rng.integers(width, size=count)] - 1,
                      rng.integers(proto._RES, size=count)], axis=1)
    draws = np.clip(edges[np.arange(count), rng.integers(5, size=count)], 0, proto._RES - 1)
    return dists, rows, draws


@_SETTINGS
@given(example=tables())
def test_sorted_lookup_matches_unsorted_search(example):
    dists, rows, draws = example
    hits = proto._lookup(proto._cdf(dists), rows, draws)
    np.testing.assert_array_equal(hits, lookup(dists, rows, draws))
    assert hits.min() >= 0 and hits.max() < dists.shape[1]
