"""The two-way key distribution protocol, simulated round by round.

Each block runs n retrodiction instances: Bob measures a uniformly random
basis on his half of the pair, returns the eigenstate, Alice measures her
POVM and later, once Bob announces his bases, infers his outcomes from her
guessing functions. Agreement on randomly selected test positions is the
eavesdropping check; the remaining positions become the raw key.

One sampler serves both paths. It draws per unit: a block of n instances
under an attack, or a single instance on the honest path. Units are
grouped in chunks of ``CHUNK``, and chunk c draws from its own
counter-based Philox stream keyed by ``(seed, c)`` (Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC'11); test selection
draws from a stream under a key no chunk uses. A unit's draws therefore
depend only on the seed and its position, never on how many blocks run
after it. Outcomes are inverse-CDF draws in fixed-point cumulative tables,
by one of two routes over the same draws.

An honest run on a strategy given by its generators, with uniform weights
and a residual bound within ``qmath.RESIDUAL_TOL``, is drawn in closed
form. A safe vector satisfies <eta_x|phi_hat_b(i)> = delta(x(b), i), so
Bob's outcome i is uniform over d and Alice's result, given his (b, i), is
uniform over the d**(k-1) guessing functions with x(b) = i (Englert and
Aharonov, Phys. Lett. A 284, 1, 2001). Each is the bin of its draw in the
table of equal weights, found by arithmetic and at most one step of
correction against that table; x is the bin m with digit i put in at
position b. No walk, Born row or table of d**k safe vectors is built, so
an honest d=7 run works.

Every other run, attacked, on weights that are not uniform, on generators
not shown to be safe or on a table given by hand, walks the exact
analysis's one walk (:func:`~meanking.attack._walk`), asking it for the
branch stacks only: per walk chunk, Bob's outcomes from the outcome rows
of the chunk's basis blocks, then Alice's results from Born rows
(:func:`~meanking.attack._born_rows`, which reduces the branch stacks)
built only for the (block, outcome) pairs that were actually drawn.
Each lookup searches its keys in sorted order. Where both routes apply,
their tables are equal at d=2 and 3. At d=5, 1.4% of Alice's walked edges
sit one unit of 2**-40 off the uniform ones, so the routes differ only for
a draw equal to such an edge, about 4e-11 per draw. The streams are part
of the release: a config gives byte-identical transcripts within one
version of the package, not across versions.

A :class:`Transcript` is its config, k and one read-only int64 code per
instance, from which basis, outcomes, guessing function and i' = x(b)
follow by divmod. The transcript decodes its codes once: it finds the
distinct codes, each code's index among them and the fields of each
distinct code, and sifting, testing, agreement, the records and the
writer all gather through that table. The test positions are the config's
draw over the codes and the verdict is whether the codes agree at them, so
both are derived, never stored. :attr:`Transcript.records` derives the
older 1-based :class:`RoundRecord` list on demand.

Transcript files hold a JSON header line, then one 0-based JSON record per
instance. The header repeats the test positions and the verdict; the
loader refuses a header that differs from what the config and the records
give. When every field is one digit, as at d <= 10 and k <= 10, all record
lines have one width, and both directions move ``CHUNK`` lines at a time
as a (rows, width) byte array: the writer gathers rows of a table of the
distinct lines, and the loader checks the rows against the line template
and reads the fields from the digit columns. Any other body is read line
by line in text mode, each distinct line decoded once as JSON.
"""

from __future__ import annotations

import reprlib
from dataclasses import asdict, dataclass, fields
from functools import cached_property
from math import ceil

import numpy as np

from . import attack as attack_mod
from . import bases, qmath
from .retrodiction import Strategy
from .serialize import canonical_dumps, decode, exact_keys, integer, integers, reading

_DIGITS = "123456789ABCDEFG"
_DIGIT_BYTES = np.frombuffer(_DIGITS.encode("ascii"), dtype=np.uint8)  # key byte per digit
TRANSCRIPT_FORMAT = "meanking-transcript-v1"
CHUNK = 4096  # units per Philox stream
_CHUNK_KEY, _TEST_KEY = 0, 1  # spawn-key namespaces: sampling chunks, test selection
# Fixed-point resolution of one inverse-CDF draw. Integer row offsets are
# exact, so a draw never depends on which other rows the table holds.
_RES_BITS = 40
_RES = 1 << _RES_BITS
_LINE_REPR = reprlib.Repr()  # quotes a whole ordinary record line, and cuts a longer one
_LINE_REPR.maxstring = 120


class ProtocolError(bases.Refused):
    """A sampled distribution failed to normalize; the attack model is broken."""


@dataclass(frozen=True)
class ProtocolConfig:
    """A run's parameters, checked on construction, whether from a caller or a transcript file."""

    d: int
    n: int
    rounds: int
    test_fraction: float
    seed: int

    def __post_init__(self):
        for key, least in (("d", 2), ("n", 1), ("rounds", 1), ("seed", 0)):
            integer(getattr(self, key), f"config {key}", least)
        frac = self.test_fraction
        if type(frac) not in (int, float) or not 0 <= frac <= 1:
            raise ValueError(f"config test_fraction must be a number in [0, 1], not {frac!r}")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class RoundRecord:
    """One retrodiction instance, 1-based: basis b, outcomes i and i' = x(b).

    Made only by the derived view :attr:`Transcript.records`.
    """

    b: int
    i: int
    x: tuple
    i_prime: int


@dataclass(frozen=True, eq=False)
class Transcript:
    """A protocol run: its config, k and one int64 code per instance, ``(b*d + i)*d**k + x``.

    All labels are 0-based: b is Bob's basis, i his outcome and x the base-d
    index of Alice's guessing function over the k bases, first basis
    slowest, so i' = x(b) is digit b of x. :meth:`columns` decodes them.
    The fields cannot be reassigned and the codes are read-only: the sampler
    and the loader hand over arrays they froze, and any other array is
    copied once. The codes are decoded once, on first use, into the fields
    of the distinct codes and one int64 index per instance;
    :attr:`test_indices` and :attr:`accepted` are derived from them.
    """

    config: ProtocolConfig
    k: int
    codes: np.ndarray

    def __post_init__(self):
        codes = self.codes
        if codes.flags.writeable or not codes.flags.owndata:  # the caller can still write to it
            codes = np.array(codes, dtype=np.int64)
            codes.flags.writeable = False
            object.__setattr__(self, "codes", codes)

    @cached_property
    def _decoded(self):
        """``(inverse, fields)``: each code's index among the distinct codes, and their
        ``(b, i, x, i_prime)``; the one call of :func:`_fields`."""
        d, k = self.config.d, self.k
        distinct, inverse = _distinct(self.codes, k * d ** (k + 1))
        return inverse, _fields(distinct, d, k)

    @cached_property
    def _tested(self) -> np.ndarray:
        """Sorted test positions, ``ceil(test_fraction * len(codes))`` of them, from the seed."""
        cfg, total = self.config, len(self.codes)
        count = ceil(cfg.test_fraction * total)
        return np.sort(_stream(cfg.seed, _TEST_KEY).choice(total, size=count, replace=False))

    @cached_property
    def test_indices(self) -> tuple:
        """The 0-based test positions, increasing; drawn on first read, then cached."""
        return tuple(self._tested.tolist())

    @cached_property
    def accepted(self) -> bool:
        """True iff every test position has i = i'; found on first read, then cached."""
        inverse, (_, i, _, i_prime) = self._decoded
        return bool((i == i_prime)[inverse[self._tested]].all())

    def columns(self):
        """0-based ``(b, i, x, i_prime)`` arrays, one entry per instance."""
        inverse, fields = self._decoded
        return tuple(field[inverse] for field in fields)

    @property
    def records(self) -> tuple:
        """1-based :class:`RoundRecord` per instance, one per distinct code, built on each read."""
        inverse, fields = self._decoded
        rows = (_record_rows(fields, self.config.d, self.k) + 1).tolist()
        table = [RoundRecord(b=row[0], i=row[1], x=tuple(row[3:]), i_prime=row[2]) for row in rows]
        return tuple(map(table.__getitem__, inverse.tolist()))


@dataclass(frozen=True)
class KeyPair:
    alice_key: str
    bob_key: str


def _stream(seed: int, *key: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=key)
    return np.random.Generator(np.random.Philox(ss))


def _normalized(dist: np.ndarray, what) -> np.ndarray:
    """``dist`` clipped at 0 and scaled to sum 1 along its last axis, each row on its own.

    ``what`` names the distribution in the error, or is a function from the
    index of the first row that fails to its name.
    """
    total = dist.sum(axis=-1)  # a NaN anywhere fails the check below
    fine = (abs(total - 1.0) <= qmath.SUM_SLACK) & np.all(dist >= -qmath.NEGATIVITY_FLOOR, axis=-1)
    if not fine.all():
        row = int(np.argmin(fine))
        name = what if isinstance(what, str) else what(row)
        raise ProtocolError(f"{name} distribution sums to {np.ravel(total)[row]:.8f}")
    return np.clip(dist, 0.0, None) / total[..., None]


def _cdf(dists: np.ndarray) -> np.ndarray:
    """The fixed-point cumulative table of the rows of ``dists``, as :func:`_lookup` reads it.

    Row r spans (r*_RES, (r+1)*_RES] with its last entry pinned to the top,
    so no draw leaves its row, and an empty bin (equal neighbours) is never
    the first entry above a draw.
    """
    cum = np.rint(np.cumsum(dists, axis=1) * _RES).astype(np.int64)
    cum[:, -1] = _RES
    cum += np.arange(len(cum), dtype=np.int64)[:, None] * _RES
    return cum


def _lookup(table: np.ndarray, rows: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Inverse-CDF draw: the bin of row ``rows[j]`` of a :func:`_cdf` table hit by ``draws[j]``.

    Draws lie in [0, _RES). The keys ``rows*_RES + draws`` are searched in
    sorted order, where ``np.searchsorted`` starts each search at the
    previous hit, and the hits are scattered back, so every key lands in the
    bin an unsorted search gives. The sampler hands it a ``CHUNK`` of keys
    at a time.
    """
    keys = rows * _RES + draws
    order = np.argsort(keys)
    hits = np.empty_like(keys)
    hits[order] = np.searchsorted(table.ravel(), keys[order], side="right")
    return hits - rows * table.shape[1]


def _uniform_cdf(m: int) -> np.ndarray:
    """The one row of the :func:`_cdf` table of m equal weights."""
    return _cdf(np.full((1, m), 1.0 / m))[0]


def _uniform_bins(table: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """``np.searchsorted(table, draws, side="right")`` for a :func:`_uniform_cdf` row.

    Draw u in [0, _RES) lies in bin (u*m) >> _RES_BITS of m exactly equal
    bins. The table's entries miss those exact edges by less than a bin: its
    cumsum errs by at most about m * 2**-53 of _RES, a bin is _RES/m wide,
    and up to the budget's m = 2**24 the error stays 30 times under a bin.
    So one step either way against the table finds the bin. The product is
    taken unsigned, where it stays below 2**64 for every such m.
    """
    m = len(table)
    guess = (draws.view(np.uint64) * np.uint64(m) >> np.uint64(_RES_BITS)).view(np.int64)
    up = table[guess] <= draws
    down = (guess > 0) & (table[guess - 1] > draws)  # exclusive with up: the table increases
    return guess + up - down


def _span(d: int, k: int) -> int:
    """d**k, the range of x in a code; ``ValueError`` if codes would overflow int64."""
    if k * d ** (k + 1) > 1 << 63:  # the largest code is k*d**(k+1) - 1
        raise ValueError(f"instance codes of {k} bases in dimension {d} overflow 64 bits")
    return d**k


def _fields(codes: np.ndarray, d: int, k: int):
    """0-based ``(b, i, x, i_prime)`` of each code ``(b*d + i)*d**k + x``."""
    bi, x = np.divmod(codes, _span(d, k))
    b, i = np.divmod(bi, d)
    places = d ** np.arange(k - 1, -1, -1, dtype=np.int64)  # of x's digits, first basis slowest
    return b, i, x, x // places[b] % d


def _distinct(codes: np.ndarray, span: int):
    """``(distinct, inverse)``: the sorted distinct codes and each code's index among them.

    The codes lie in [0, span). When that range is no longer than the codes
    (k*d**(k+1) = 972 codes at d=3), a presence count finds them in one
    pass; otherwise, as at d=5 with 468 750, ``np.unique`` sorts the codes,
    since a count array would outgrow them.
    """
    if span > len(codes):
        return np.unique(codes, return_inverse=True)
    seen = np.bincount(codes) > 0
    return np.flatnonzero(seen), (np.cumsum(seen) - 1)[codes]


def _record_rows(fields, d: int, k: int) -> np.ndarray:
    """0-based rows ``(b, i, i_prime, x digits...)`` of decoded codes, in the file's key order."""
    b, i, x, i_prime = fields
    return np.column_stack([b, i, i_prime, bases.digits(x, d, k)])


def _units_in(bflat: np.ndarray, first: int, last: int, blocks: int):
    """Per ``CHUNK`` of units, those drawn in blocks first..last-1 of ``blocks``.

    Yields their positions, as a slice when the range holds every block, and
    their blocks less ``first``.
    """
    for start in range(0, len(bflat), CHUNK):
        b = bflat[start:start + CHUNK]
        if last - first == blocks:
            yield slice(start, start + len(b)), b
        else:
            at = np.flatnonzero((b >= first) & (b < last))
            yield at + start, b[at] - first


def _chunk_draws(seed: int, units: int, blocks: int):
    """Per ``CHUNK`` of units, from the chunk's stream: its first unit, then each unit's
    basis vector (a flat index below ``blocks``) and two fixed-point uniforms, one for
    Bob's outcomes and one for Alice's POVM result."""
    for chunk, start in enumerate(range(0, units, CHUNK)):
        rng = _stream(seed, _CHUNK_KEY, chunk)
        size = min(CHUNK, units - start)
        yield (start, *(rng.integers(high, size=size) for high in (blocks, _RES, _RES)))


def _honest_codes(seed: int, d: int, k: int, units: int) -> np.ndarray:
    """The codes of ``units`` honest instances on uniform weights, drawn in closed form.

    Bob's outcome i is the bin of his uniform in the table of d equal weights,
    and Alice's result the bin m of hers in the one shared table of d**(k-1)
    equal weights; x is m with digit i put in at position b, first basis
    slowest. A ``CHUNK`` of units is drawn and coded at a time; the codes are
    returned read-only.
    """
    span = _span(d, k)
    bob, alice = _uniform_cdf(d), _uniform_cdf(span // d)
    places = d ** np.arange(k - 1, -1, -1, dtype=np.int64)  # of x's digits, first basis slowest
    codes = np.empty(units, dtype=np.int64)
    for start, b, u_out, u_povm in _chunk_draws(seed, units, k):
        i = _uniform_bins(bob, u_out)
        high, low = np.divmod(_uniform_bins(alice, u_povm), places[b])
        codes[start:start + len(b)] = (b * d + i) * span + (high * d + i) * places[b] + low
    codes.flags.writeable = False
    return codes


def _sample(seed: int, strategy: Strategy, am, units: int) -> np.ndarray:
    """:class:`Transcript` codes (b*d + i)*d**k + x of ``units`` units of ``am.n`` instances.

    x is the drawn table row, which is the base-d value of its guessing function.
    The array is returned read-only, for :class:`Transcript` to take without a copy.

    ``am=None`` draws honest single instances in closed form
    (:func:`_honest_codes`), which holds for a strategy given by its
    generators with uniform weights. Otherwise, per unit, chunk streams give
    Bob's basis vector and two fixed-point uniforms, one for his outcomes and
    one for Alice's POVM result. Each chunk of :func:`~meanking.attack._walk`,
    which forms its branch stacks and no state of Eve's, then costs two
    inverse-CDF lookups: Bob's outcomes are drawn from its
    blocks' outcome rows, and Alice's results from the Born rows
    (:func:`~meanking.attack._born_rows`) of the (block, outcome) pairs
    drawn, which a presence count finds. Each lookup's table is built once
    and searched a ``CHUNK`` of units at a time, so no temporary outgrows a
    chunk. A walk chunk whose Born rows the budget checked for one block
    does not cover is taken in runs of blocks that it covers.
    """
    bs = strategy.basis_set
    if am is None:
        return _honest_codes(seed, bs.dim, bs.k, units)
    d, k, n = bs.dim, bs.k, am.n
    dd, nx, blocks = d**n, len(strategy.safe_vectors), k**n
    bflat, u_out, u_povm = (np.empty(units, dtype=np.int64) for _ in range(3))
    for start, *draws in _chunk_draws(seed, units, blocks):
        for col, draw in zip((bflat, u_out, u_povm), draws):
            col[start:start + len(draw)] = draw

    etas_conj = strategy.etas.conj()
    most = max(1, bases.MAX_ARRAY_ENTRIES // attack_mod._born_entries(am, k))  # blocks per run
    runs = ((chunk.bvecs[s:s + most], chunk.branches[s:s + most], chunk.probs[s:s + most])
            for chunk in attack_mod._walk(am, bs, stacks=True)
            for s in range(0, len(chunk.bvecs), most))
    iflat = np.empty_like(bflat)
    yflat = np.empty_like(bflat)
    last = 0
    for bvecs, branches, probs in runs:
        first, last = last, last + len(bvecs)
        bkeys = list(map(tuple, bvecs.tolist()))
        table = _cdf(_normalized(probs, lambda j: f"Bob outcomes (b={bkeys[j]})"))
        drawn = np.zeros(len(bkeys) * dd, dtype=np.int64)
        for at, rows in _units_in(bflat, first, last, blocks):
            iflat[at] = _lookup(table, rows, u_out[at])
            drawn += np.bincount(rows * dd + iflat[at], minlength=len(drawn))
        pairs = np.flatnonzero(drawn)
        if not pairs.size:
            continue

        def pair(j):
            block, ikey = divmod(int(pairs[j]), dd)
            return bkeys[block], tuple(bases.digits(ikey, d, n).tolist())

        prob = probs.ravel()[pairs]
        least = int(np.argmin(prob))  # raises if even the least likely pair is too rare
        attack_mod._conditionable(prob[least], *pair(least))
        born = attack_mod._born_rows(branches.reshape((-1,) + branches.shape[2:])[pairs],
                                     etas_conj, strategy.weights, n)
        table = _cdf(_normalized(born / prob[:, None],
                                 lambda j: "measurement (b={}, i={})".format(*pair(j))))
        rank = np.cumsum(drawn > 0) - 1  # a drawn pair's row of the table
        for at, rows in _units_in(bflat, first, last, blocks):
            yflat[at] = _lookup(table, rank[rows * dd + iflat[at]], u_povm[at])
    del u_out, u_povm  # not held while the codes are built

    codes = np.empty(units * n, dtype=np.int64)
    for s in range(n - 1, 0, -1):  # peel the fastest digit, the last slot, off each unit
        bflat, b = np.divmod(bflat, k)
        iflat, i = np.divmod(iflat, d)
        yflat, y = np.divmod(yflat, nx)
        codes[s::n] = (b * d + i) * nx + y
    codes[::n] = (bflat * d + iflat) * nx + yflat
    codes.flags.writeable = False
    return codes


def run_protocol(cfg: ProtocolConfig, strategy: Strategy, attack=None) -> Transcript:
    """Execute ``cfg.rounds`` blocks of n instances, with an optional attack.

    Bob's basis choices are uniform; his outcomes and Alice's measurement
    results follow the Born rule for the (possibly attacked) states. The
    result is deterministic given the config. Bob's bases reach Alice's
    records only through i' = x(b), evaluated after her outcomes are fixed.

    An honest run on a strategy given by its generators, with uniform
    weights and a residual bound (``Strategy.max_residual``) within
    ``qmath.RESIDUAL_TOL``, draws its units in closed form (``_sample`` with
    ``am=None``). Any other run walks the identity attack with n = 1, or the
    given attack: neither a table given by hand, as a v1 file gives it, nor
    a v2 file's generators over that bound are known to hold safe vectors.

    Raises :class:`OverBudget`, before any draw, when the run has more than
    ``bases.MAX_ARRAY_ENTRIES`` instances (the entries of its code array),
    or the sampler's tables could hold more than that many entries; only an
    attack, when it is built, is held to the block budget. The closed form
    holds one shared table of d**(k-1) entries and its code array. A walked
    run fills, for a basis block with all d**n outcomes drawn, Born rows of
    d**((1+k)n) * r * d_E amplitudes; it takes a walk chunk's blocks in runs
    whose Born rows stay within the budget, so the check also bounds its
    outcome and POVM tables. Past its draw, outcome and code arrays, every
    temporary of the walked route holds at most ``CHUNK`` units; the closed
    form keeps no draw array at all.
    """
    d, k = strategy.basis_set.dim, strategy.basis_set.k
    if cfg.d != d:
        raise ValueError(f"config dimension {cfg.d} vs strategy dimension {d}")
    if attack is None:
        units = cfg.rounds * cfg.n
        # the closed form holds only for safe vectors: generators whose residual bound is
        # within tolerance (a v2 file's generators are not checked on load), not a table by hand
        closed = (strategy.generators is not None and strategy.uniform_weight is not None
                  and strategy.max_residual <= qmath.RESIDUAL_TOL)
        am = None if closed else attack_mod.identity_attack(d, 1)
    elif attack.d != d or attack.n != cfg.n:
        raise ValueError("attack model does not match the protocol block shape")
    else:
        am, units = attack, cfg.rounds
    if cfg.rounds * cfg.n > bases.MAX_ARRAY_ENTRIES:
        raise bases.OverBudget(f"run too large: {cfg.rounds} rounds of {cfg.n} instances, "
                               f"budget {bases.MAX_ARRAY_ENTRIES} instances")
    entries = d ** (k - 1) if am is None else attack_mod._born_entries(am, k)
    if entries > bases.MAX_ARRAY_ENTRIES:
        held = ("the honest table holds {} entries" if am is None
                else "a basis block fills up to {} amplitudes").format(entries)
        raise bases.OverBudget(f"sampler too large: {held}, budget {bases.MAX_ARRAY_ENTRIES}")
    return Transcript(config=cfg, k=k, codes=_sample(cfg.seed, strategy, am, units))


def sift_and_test(transcript: Transcript):
    """Build the keys from the positions the transcript does not test.

    Returns ``(transcript.accepted, KeyPair)``; accepted iff every tested
    position has i = i'. The transcript is not changed. ``ValueError`` for d > 16.
    """
    if transcript.config.d > len(_DIGITS):
        raise ValueError(f"key digits are {_DIGITS}, too few for d={transcript.config.d}")
    inverse, (_, i, _, i_prime) = transcript._decoded
    kept = np.delete(inverse, transcript._tested)
    keys = KeyPair(alice_key=_DIGIT_BYTES[i_prime][kept].tobytes().decode("ascii"),
                   bob_key=_DIGIT_BYTES[i][kept].tobytes().decode("ascii"))
    return transcript.accepted, keys


def agreement_rate(transcript: Transcript) -> float:
    """Fraction of instances where Alice's inferred digit matches Bob's."""
    if not len(transcript.codes):
        return 1.0
    inverse, (_, i, _, i_prime) = transcript._decoded
    return int(np.count_nonzero((i == i_prime)[inverse])) / len(inverse)


def _record_format(k: int, slot: str) -> str:
    """A record line of k bases as ``canonical_dumps`` writes it, each integer as ``slot``."""
    return '{"b":%s,"i":%s,"i_prime":%s,"x":[%s]}\n' % (slot, slot, slot, ",".join([slot] * k))


def save_transcript(transcript: Transcript, path) -> None:
    """JSON-lines dump: a header line, then one 0-based record per instance.

    Each distinct code becomes one line. When every field is one digit (d <= 10
    and k <= 10), the lines are the one-digit template of :func:`_fixed_width_codes`
    plus the fields, and a ``CHUNK`` of instances is one gather of their rows;
    otherwise each line is formatted and a chunk's lines are joined.
    """
    d, k = transcript.config.d, transcript.k
    inverse, fields = transcript._decoded
    rows = _record_rows(fields, d, k)
    fixed = d <= 10 and k <= 10
    if fixed:
        template = np.frombuffer(_record_format(k, "0").encode("ascii"), dtype=np.uint8)
        line_matrix = np.tile(template, (len(rows), 1))
        line_matrix[:, template == ord("0")] += rows.astype(np.uint8)
    else:
        fmt = _record_format(k, "%d")
        lines = [(fmt % tuple(row)).encode("ascii") for row in rows.tolist()]
    header = canonical_dumps(
        {
            "format": TRANSCRIPT_FORMAT,
            "config": transcript.config.to_dict(),
            "test_indices": list(transcript.test_indices),
            "accepted": transcript.accepted,
        }
    )
    with open(path, "wb") as fh:
        fh.write(header.encode("utf-8") + b"\n")
        for start in range(0, len(inverse), CHUNK):
            chunk = inverse[start:start + CHUNK]
            if fixed:
                fh.write(np.take(line_matrix, chunk, axis=0))
            else:
                fh.write(b"".join(map(lines.__getitem__, chunk.tolist())))


def _parse_header(line: str):
    header = exact_keys(decode(line, "malformed transcript header"),
                        ["accepted", "config", "format", "test_indices"], "transcript header")
    fmt, raw = header["format"], header["config"]
    tests, accepted = header["test_indices"], header["accepted"]
    if fmt != TRANSCRIPT_FORMAT:
        raise ValueError(f"transcript format {reprlib.repr(fmt)}, expected {TRANSCRIPT_FORMAT!r}")
    exact_keys(raw, sorted(f.name for f in fields(ProtocolConfig)), "transcript config")
    if not isinstance(accepted, bool):
        raise ValueError(f"transcript accepted must be true or false, not {reprlib.repr(accepted)}")
    integers(tests, "test_indices")
    return ProtocolConfig(**raw), tuple(tests), accepted  # the config checks its own fields


def _parse_record(line: str, d: int) -> tuple:
    """One 0-based record line, checked on its own; returns ``(k, code)``."""
    where = f"record {_LINE_REPR.repr(line.strip())}"
    raw = exact_keys(decode(line, f"malformed transcript {where}"),
                     ["b", "i", "i_prime", "x"], where)
    b, i, i_prime = (integer(raw[key], f"{where}: {key}") for key in ("b", "i", "i_prime"))
    x = raw["x"]
    if not integers(x, f"{where}: x"):
        raise ValueError(f"{where}: x must be a nonempty list")
    if not (i < d and max(x) < d):
        raise ValueError(f"{where}: outcomes must lie in 0..{d - 1}")
    if not b < len(x):
        raise ValueError(f"{where}: basis must lie in 0..{len(x) - 1}")
    if i_prime != x[b]:
        raise ValueError(f"{where}: i_prime {i_prime} differs from x[b] = {x[b]}")
    _span(d, len(x))  # refuses an x too long for a 64-bit code
    code = b * d + i
    for v in x:
        code = code * d + v
    return len(x), code


def _fixed_width_codes(fh, d: int):
    """``(k, codes)`` of a body whose lines all fill the one-digit template, else None.

    k is read from the first line. The body is read ``CHUNK`` lines at a
    time as a (rows, width) byte array; per chunk, every non-digit byte must
    equal the template's and every digit byte must be a digit in its field's
    range, in one comparison, and i' = x(b) is checked on the digit columns,
    which are read by their byte index. None sends the whole body to the
    general route, which reports the first bad line.
    """
    first = fh.readline()
    k = first.count(b",") - 2
    if k < 1:
        return None
    template = np.frombuffer(_record_format(k, "0").encode("ascii"), dtype=np.uint8)
    width = len(template)
    if len(first) != width:
        return None
    b_at, i_at, i_prime_at, *x_at = np.flatnonzero(template == ord("0")).tolist()
    # offsets from the template allowed per byte: none outside the fields, else the field's range
    limit = np.ones(width, dtype=np.uint8)
    limit[[i_at, i_prime_at, *x_at]] = min(d, 10)
    limit[b_at] = min(k, 10)
    # a chunk's bytes are compared as one flat run, which is faster than broadcasting a line
    template, limit = (np.frombuffer(row.tobytes() * CHUNK, dtype=np.uint8)
                       for row in (template, limit))
    line_at = np.arange(0, CHUNK * width, width)
    x_at = np.array(x_at)
    codes = []
    block = first + fh.read((CHUNK - 1) * width)
    while block:
        if len(block) % width:
            return None
        offsets = np.frombuffer(block, dtype=np.uint8) - template[:len(block)]
        if not (offsets < limit[:len(block)]).all():
            return None
        lines = offsets.reshape(-1, width)
        b = lines[:, b_at]
        if not np.array_equal(lines[:, i_prime_at], offsets[line_at[:len(lines)] + x_at[b]]):
            return None
        _span(d, k)  # after the field checks, in the general route's order
        code = b.astype(np.int64) * d + lines[:, i_at]
        for at in x_at.tolist():
            code = code * d + lines[:, at]
        codes.append(code)
        block = fh.read(CHUNK * width)
    codes = np.concatenate(codes)
    codes.flags.writeable = False
    return k, codes


def _record_codes(lines: list, d: int):
    """``(k, codes)`` of distinct record lines, each parsed on its own; code -1 for a blank line."""
    parsed = [_parse_record(line, d) if line.strip() else (0, -1) for line in lines]
    ks = {k for k, code in parsed if code >= 0}
    if len(ks) > 1:
        raise ValueError("records disagree on the number of bases in x")
    return max(ks, default=0), np.array([code for _, code in parsed], dtype=np.int64)


def load_transcript(path) -> Transcript:
    """Read a transcript written by :func:`save_transcript`, checking it.

    Raises ``FormatError``, a ``ValueError``, on text that is not JSON lines,
    a foreign format, a config field of the wrong type or range, a record
    count other than rounds*n, a malformed or inconsistent record, or a header
    whose ``test_indices`` differ from the config's draw or whose ``accepted``
    differs from the tested records. Two routes read the body. The fixed-width
    route reads ``CHUNK`` lines at a time as byte rows when every line fills
    the one-digit record template (see :func:`_fixed_width_codes`); any other
    body goes to the general route, which reads text lines and decodes each
    distinct line once with :func:`_parse_record`.
    """
    with reading("transcript", path):
        fixed = None
        with open(path, "rb") as fh:
            head = fh.readline()
            if head.isascii() and b"\r" not in head:  # the same first line as in text mode
                cfg, tests, accepted = _parse_header(head.decode("ascii"))
                fixed = _fixed_width_codes(fh, cfg.d)
        if fixed is not None:
            k, codes = fixed
        else:
            with open(path, "r", encoding="utf-8") as fh:
                cfg, tests, accepted = _parse_header(fh.readline())
                slots: dict = {}  # distinct line -> its row in the code table
                order = np.fromiter((slots.setdefault(line, len(slots)) for line in fh),
                                    dtype=np.int64)
            k, table = _record_codes(list(slots), cfg.d)
            codes = table[order]
            codes = codes[codes >= 0]  # blank lines
            codes.flags.writeable = False
        total = cfg.rounds * cfg.n
        if len(codes) != total:
            raise ValueError(f"transcript has {len(codes)} records, expected rounds*n = {total}")
        transcript = Transcript(config=cfg, k=k, codes=codes)
        if tests != transcript.test_indices:
            raise ValueError("test_indices differ from the positions the config draws")
        if accepted != transcript.accepted:
            raise ValueError(f"accepted is {str(accepted).lower()}, but the tested records say "
                             f"{str(transcript.accepted).lower()}")
    return transcript
