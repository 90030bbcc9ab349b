"""The two-way key distribution protocol, simulated round by round.

Each block runs n retrodiction instances: Bob measures a uniformly random
basis on his half of the pair, returns the eigenstate, Alice measures her
POVM and later, once Bob announces his bases, infers his outcomes from her
guessing functions. Agreement on randomly selected test positions is the
eavesdropping check; the remaining positions become the raw key.

One vectorized sampler serves both paths. It draws per unit: a block of n
instances under an attack, or a single instance on the honest path, which
is the identity attack with n = 1. Units are grouped in chunks of
``CHUNK``, and chunk c draws from its own counter-based Philox stream keyed
by ``(seed, c)`` (Salmon et al., "Parallel random numbers: as easy as
1, 2, 3", SC'11); test selection draws from a stream under a key no chunk
uses. A unit's draws therefore depend only on the seed and its position,
never on how many blocks run after it. Outcomes come from inverse-CDF
lookup in fixed-point cumulative tables, filled per basis block from the
chunks of the exact analysis's walk (:func:`~meanking.attack._walk`) and
only for the basis and outcome vectors that were actually drawn. The
streams are part of the release: a config gives byte-identical transcripts
within one version of the package, not across versions.

A :class:`Transcript` is one int64 code per instance, from which basis,
outcomes, guessing function and i' = x(b) follow by divmod; sifting,
testing and agreement are masks over it. Transcript files hold one 0-based
JSON record per instance. :attr:`Transcript.records` derives the older
1-based :class:`RoundRecord` list on demand.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field, fields
from functools import reduce
from math import ceil

import numpy as np

from . import attack as attack_mod
from . import qmath
from .bases import OverBudget
from .retrodiction import Strategy, checked_block_dim
from .serialize import canonical_dumps

_DIGITS = "123456789ABCDEFG"
_DIGIT_BYTES = np.frombuffer(_DIGITS.encode("ascii"), dtype=np.uint8)  # key byte per digit
TRANSCRIPT_FORMAT = "meanking-transcript-v1"
CHUNK = 4096  # units per Philox stream
_CHUNK_KEY, _TEST_KEY = 0, 1  # spawn-key namespaces: sampling chunks, test selection
# Fixed-point resolution of one inverse-CDF draw. Integer row offsets are
# exact, so a draw never depends on which other rows the table holds.
_RES = 1 << 40
MAX_BORN_ENTRIES = 1 << 24  # _born_rows amplitudes per basis block, all d**n outcomes drawn


class ProtocolError(RuntimeError):
    """A sampled distribution failed to normalize; the attack model is broken."""


@dataclass(frozen=True)
class ProtocolConfig:
    d: int
    n: int
    rounds: int
    test_fraction: float
    seed: int

    def __post_init__(self):
        if self.rounds < 1:
            raise ValueError("need at least one block")
        if not 0.0 <= self.test_fraction <= 1.0:
            raise ValueError("test_fraction must lie in [0, 1]")

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "n": self.n,
            "rounds": self.rounds,
            "test_fraction": self.test_fraction,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class RoundRecord:
    """One retrodiction instance, 1-based: basis b, outcomes i and i' = x(b).

    Made only by the derived view :attr:`Transcript.records`.
    """

    b: int
    i: int
    x: tuple
    i_prime: int


@dataclass(eq=False)
class Transcript:
    """A protocol run: one int64 code per instance, ``(b*d + i)*d**k + x``.

    All labels are 0-based: b is Bob's basis, i his outcome and x the base-d
    index of Alice's guessing function over the k bases, first basis
    slowest, so i' = x(b) is digit b of x. :meth:`columns` decodes them.
    """

    config: ProtocolConfig
    k: int
    codes: np.ndarray
    test_indices: tuple = field(default_factory=tuple)
    accepted: bool = False

    def columns(self):
        """0-based ``(b, i, x, i_prime)`` arrays, one entry per instance."""
        return _fields(self.codes, self.config.d, self.k)

    @property
    def records(self) -> tuple:
        """1-based :class:`RoundRecord` per instance, one per distinct code, built on each read."""
        d, k = self.config.d, self.k
        distinct, inverse = np.unique(self.codes, return_inverse=True)
        rows = (_record_rows(distinct, d, k) + 1).tolist()
        table = [RoundRecord(b=row[0], i=row[1], x=tuple(row[3:]), i_prime=row[2]) for row in rows]
        return tuple(map(table.__getitem__, inverse.tolist()))


@dataclass(frozen=True)
class KeyPair:
    alice_key: str
    bob_key: str


def _stream(seed: int, *key: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=key)
    return np.random.Generator(np.random.Philox(ss))


def _normalized(dist: np.ndarray, what: str) -> np.ndarray:
    total = float(dist.sum())
    if not (abs(total - 1.0) <= 1e-6 and np.all(dist >= -1e-12)):  # refuses NaN too
        raise ProtocolError(f"{what} distribution sums to {total:.8f}")
    return np.clip(dist, 0.0, None) / total


def _lookup(dists: np.ndarray, rows: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Inverse-CDF draw: the bin of row ``rows[j]`` hit by ``draws[j]`` in [0, _RES).

    Row r of the flat cumulative table spans (r*_RES, (r+1)*_RES] with its
    last entry pinned to the top, so no draw leaves its row, and an empty
    bin (equal neighbours) is never the first entry above a draw.
    """
    cum = np.rint(np.cumsum(dists, axis=1) * _RES).astype(np.int64)
    cum[:, -1] = _RES
    cum += np.arange(len(cum), dtype=np.int64)[:, None] * _RES
    hits = np.searchsorted(cum.ravel(), rows * _RES + draws, side="right")
    return hits - rows * dists.shape[1]


def _born_rows(branches: np.ndarray, etas_conj: np.ndarray, weights, n: int) -> np.ndarray:
    """p(x_1)...p(x_n) sum_(l,e) |<eta_x1 x ... x eta_xn|w_l>|^2 per Kraus-branch stack.

    ``branches`` is (m, branch, A x B, E), outcomes of one basis block of
    :func:`~meanking.attack._walk`; rows list the guessing tuples in
    lexicographic order. Each slot's (A_s, B_s) pair is contracted with the
    conjugate safe vectors in turn, one (nx, d*d) product per slot, so no
    product vector is formed.
    """
    m, nb, _, de = branches.shape
    nx, pair = etas_conj.shape
    d = round(pair**0.5)
    slots = [ax for s in range(n) for ax in (2 + s, 2 + n + s)]
    amp = branches.reshape((m, nb) + (d,) * (2 * n) + (de,))
    amp = amp.transpose(slots + [0, 1, 2 + 2 * n])
    for _ in range(n):
        # the processed guess axis goes last, so slot 1's ends up slowest
        amp = (etas_conj @ amp.reshape(pair, -1)).T
    born = np.sum(np.abs(amp.reshape(m, nb * de, nx**n)) ** 2, axis=1)
    return born * reduce(qmath.kron, [weights] * n)


def _digits(flat: np.ndarray, base: int, n: int) -> np.ndarray:
    """Base-``base`` digits of each flat index, first slot slowest, as (len, n)."""
    return np.stack(np.unravel_index(flat, (base,) * n), axis=-1)


def _span(d: int, k: int) -> int:
    """d**k, the range of x in a code; ``ValueError`` if codes would overflow int64."""
    if k * d ** (k + 1) > 1 << 63:  # the largest code is k*d**(k+1) - 1
        raise ValueError(f"instance codes of {k} bases in dimension {d} overflow 64 bits")
    return d**k


def _fields(codes: np.ndarray, d: int, k: int):
    """0-based ``(b, i, x, i_prime)`` of each code ``(b*d + i)*d**k + x``."""
    bi, x = np.divmod(codes, _span(d, k))
    b, i = np.divmod(bi, d)
    return b, i, x, x // d ** (k - 1 - b) % d


def _record_rows(codes: np.ndarray, d: int, k: int) -> np.ndarray:
    """0-based rows ``(b, i, i_prime, x digits...)`` of each code, in the file's key order."""
    b, i, x, i_prime = _fields(codes, d, k)
    return np.column_stack([b, i, i_prime, _digits(x, d, k)])


def _sample(seed: int, strategy: Strategy, am, units: int) -> np.ndarray:
    """Instance codes (b*d + i)*nx + x for ``units`` units of ``am.n`` instances.

    Per unit, chunk streams give Bob's basis vector and two fixed-point
    uniforms, one for his outcomes and one for Alice's POVM result. The
    units of each basis block are then drawn together when the chunks of
    :func:`~meanking.attack._walk` reach it, with a Born row per distinct
    drawn outcome; blocks nobody drew are skipped.
    """
    bs = strategy.basis_set
    d, k, n = bs.dim, bs.k, am.n
    nx = len(strategy.safe_vectors)
    etas_conj = strategy.etas.conj()
    draws = []
    for chunk, start in enumerate(range(0, units, CHUNK)):
        rng = _stream(seed, _CHUNK_KEY, chunk)
        size = min(CHUNK, units - start)
        draws.append((rng.integers(k**n, size=size),
                      rng.integers(_RES, size=size),
                      rng.integers(_RES, size=size)))
    bflat, u_out, u_povm = (np.concatenate(col) for col in zip(*draws))

    iflat = np.empty_like(bflat)
    yflat = np.empty_like(bflat)
    blocks = ((tuple(bvec), *block) for bvecs, *chunk in attack_mod._walk(am, bs)
              for bvec, *block in zip(bvecs.tolist(), *chunk))
    for bkey, (bvec, branches, probs) in enumerate(blocks):
        sel = np.flatnonzero(bflat == bkey)
        if not sel.size:
            continue
        outcome = _normalized(probs, f"Bob outcomes (b={bvec})")
        iflat[sel] = _lookup(outcome[None], np.zeros_like(sel), u_out[sel])
        ikeys, irows = np.unique(iflat[sel], return_inverse=True)
        born = _born_rows(branches[ikeys], etas_conj, strategy.weights, n)
        povm = []
        for ikey, ivec, row in zip(ikeys, map(tuple, _digits(ikeys, d, n).tolist()), born):
            row = row / attack_mod._conditionable(probs[ikey], bvec, ivec)
            povm.append(_normalized(row, f"measurement (b={bvec}, i={ivec})"))
        yflat[sel] = _lookup(np.array(povm), irows, u_povm[sel])

    b = _digits(bflat, k, n).ravel()
    i = _digits(iflat, d, n).ravel()
    y = _digits(yflat, nx, n).ravel()
    return (b * d + i) * nx + y


def run_protocol(cfg: ProtocolConfig, strategy: Strategy, attack=None) -> Transcript:
    """Execute ``cfg.rounds`` blocks of n instances, with an optional attack.

    Bob's basis choices are uniform; his outcomes and Alice's measurement
    results follow the Born rule for the (possibly attacked) states. The
    result is deterministic given the config. Bob's bases reach Alice's
    records only through i' = x(b), evaluated after her outcomes are fixed.
    Raises :class:`OverBudget`, before any draw, when a block is over the
    block budget, attacked or not, or a basis block could fill more
    than ``MAX_BORN_ENTRIES`` amplitudes.
    """
    d = strategy.basis_set.dim
    if cfg.d != d:
        raise ValueError(f"config dimension {cfg.d} vs strategy dimension {d}")
    if attack is None:
        checked_block_dim(d, cfg.n)
        am, units = attack_mod.identity_attack(d, 1), cfg.rounds * cfg.n
    elif attack.d != d or attack.n != cfg.n:
        raise ValueError("attack model does not match the protocol block shape")
    else:
        am, units = attack, cfg.rounds
    entries = (d * len(strategy.safe_vectors))**am.n * len(am.kraus) * am.d_eve
    if entries > MAX_BORN_ENTRIES:
        raise OverBudget(f"sampler too large: a basis block fills up to {entries} amplitudes, "
                         f"budget {MAX_BORN_ENTRIES}")

    k, nx = strategy.basis_set.k, len(strategy.safe_vectors)
    span = _span(d, k)
    bi, y = np.divmod(_sample(cfg.seed, strategy, am, units), nx)
    x = np.ravel_multi_index(strategy.safe_vectors.x.T, (d,) * k)
    transcript = Transcript(config=cfg, k=k, codes=bi * span + x[y])
    transcript.accepted = _check_tests(transcript)
    return transcript


def _check_tests(transcript: Transcript) -> bool:
    """Draw the config's test positions into the transcript; True iff all have i = i'."""
    cfg, codes = transcript.config, transcript.codes
    count = ceil(cfg.test_fraction * len(codes))
    picked = np.sort(_stream(cfg.seed, _TEST_KEY).choice(len(codes), size=count, replace=False))
    transcript.test_indices = tuple(picked.tolist())
    _, i, _, i_prime = _fields(codes[picked], cfg.d, transcript.k)
    return bool(np.array_equal(i, i_prime))


def sift_and_test(transcript: Transcript):
    """Select test positions, check them, and build keys from the rest.

    Returns ``(accepted, KeyPair)``; accepted iff every tested position has
    i = i'. Selection depends only on the config, so the function is a pure
    recomputation and also fills in ``test_indices`` if still empty.
    """
    accepted = _check_tests(transcript)
    kept = np.delete(transcript.codes, transcript.test_indices)
    _, i, _, i_prime = _fields(kept, transcript.config.d, transcript.k)
    return accepted, KeyPair(alice_key=_DIGIT_BYTES[i_prime].tobytes().decode("ascii"),
                             bob_key=_DIGIT_BYTES[i].tobytes().decode("ascii"))


def agreement_rate(transcript: Transcript) -> float:
    """Fraction of instances where Alice's inferred digit matches Bob's."""
    if not len(transcript.codes):
        return 1.0
    _, i, _, i_prime = transcript.columns()
    return int(np.count_nonzero(i == i_prime)) / len(transcript.codes)


def _record_format(k: int, slot: str) -> str:
    """A record line of k bases as ``canonical_dumps`` writes it, each integer as ``slot``."""
    return '{"b":%s,"i":%s,"i_prime":%s,"x":[%s]}\n' % (slot, slot, slot, ",".join([slot] * k))


# a JSON integer below 10**18, so that np.fromstring, which saturates past
# int64, reads it exactly
_JSON_INT = "(?:0|[1-9][0-9]{0,17})"
_NOT_DIGITS = str.maketrans(dict.fromkeys(_record_format(1, ""), " "))  # a record line's non-digits


def save_transcript(transcript: Transcript, path) -> None:
    """JSON-lines dump: a header line, then one 0-based record per instance.

    Each distinct code is formatted once, and the lines are written
    ``CHUNK`` instances at a time.
    """
    d, k = transcript.config.d, transcript.k
    distinct, inverse = np.unique(transcript.codes, return_inverse=True)
    fmt = _record_format(k, "%d")
    lines = [fmt % tuple(row) for row in _record_rows(distinct, d, k).tolist()]
    header = canonical_dumps(
        {
            "format": TRANSCRIPT_FORMAT,
            "config": transcript.config.to_dict(),
            "test_indices": list(transcript.test_indices),
            "accepted": transcript.accepted,
        }
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header)
        fh.write("\n")
        for start in range(0, len(inverse), CHUNK):
            fh.write("".join(map(lines.__getitem__, inverse[start:start + CHUNK].tolist())))


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _parse_header(line: str):
    try:
        header = json.loads(line)
        fmt = header["format"]
        raw = header["config"]
        tests = header["test_indices"]
        accepted = header["accepted"]
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"malformed transcript header: {exc}") from exc
    if fmt != TRANSCRIPT_FORMAT:
        raise ValueError(f"transcript format {fmt!r}, expected {TRANSCRIPT_FORMAT!r}")
    keys = sorted(f.name for f in fields(ProtocolConfig))
    if not isinstance(raw, dict) or sorted(raw) != keys:
        raise ValueError(f"transcript config must have the keys {keys}")
    for key, least in (("d", 2), ("n", 1), ("rounds", 1), ("seed", 0)):
        if not _is_int(raw[key]) or raw[key] < least:
            raise ValueError(f"transcript config {key} must be an integer >= {least}, "
                             f"not {raw[key]!r}")
    if not isinstance(raw["test_fraction"], (int, float)) or isinstance(raw["test_fraction"], bool):
        raise ValueError(f"transcript config test_fraction must be a number, "
                         f"not {raw['test_fraction']!r}")
    if not isinstance(accepted, bool):
        raise ValueError(f"transcript accepted must be true or false, not {accepted!r}")
    if not isinstance(tests, list) or not all(_is_int(t) for t in tests):
        raise ValueError("test_indices must be a list of integers")
    return ProtocolConfig(**raw), tuple(tests), accepted


def _parse_record(line: str, d: int) -> tuple:
    """One 0-based record line, checked on its own; returns ``(k, code)``."""
    try:
        raw = json.loads(line)
        b, i, x, i_prime = raw["b"], raw["i"], raw["x"], raw["i_prime"]
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"malformed transcript record {line.strip()!r}") from exc
    # type() is int leaves out bool, which JSON gives for true and false
    if not (type(x) is list and x and {type(v) for v in (b, i, i_prime, *x)} == {int}):
        raise ValueError(f"record {line.strip()!r}: fields must be integers, x a nonempty list")
    if not (0 <= i < d and 0 <= min(x) and max(x) < d):
        raise ValueError(f"record {line.strip()!r}: outcomes must lie in 0..{d - 1}")
    if not 0 <= b < len(x):
        raise ValueError(f"record {line.strip()!r}: basis must lie in 0..{len(x) - 1}")
    if i_prime != x[b]:
        raise ValueError(f"record {line.strip()!r}: i_prime {i_prime} differs from x[b] = {x[b]}")
    _span(d, len(x))  # refuses an x too long for a 64-bit code
    code = b * d + i
    for v in x:
        code = code * d + v
    return len(x), code


def _canonical_codes(lines: list, d: int):
    """``(k, codes)`` of record lines exactly as :func:`save_transcript` writes them, else None.

    One regular-expression match checks the shape of every line, one parse
    reads all their integers, and the ranges and i' = x(b) are checked on
    the arrays. None means some line is not canonical or not valid; such
    files go through :func:`_parse_record` line by line.
    """
    k = lines[0].count(",") - 2 if lines else 0
    if k < 1:
        return None
    shape = re.escape(_record_format(k, "@")).replace("@", _JSON_INT)
    blob = "".join(lines)
    if not re.fullmatch(f"(?:{shape})*", blob):
        return None
    span = _span(d, k)
    ints = np.fromstring(blob.translate(_NOT_DIGITS), dtype=np.int64, sep=" ")
    cols = ints.reshape(len(lines), 3 + k).T
    b, i, i_prime, x = cols[0], cols[1], cols[2], cols[3:]
    if not ((b < k).all() and (i < d).all() and (x < d).all()):
        return None
    if not np.array_equal(i_prime, x[b, np.arange(len(b))]):
        return None
    return k, (b * d + i) * span + np.ravel_multi_index(x, (d,) * k)


def _record_codes(lines: list, d: int):
    """``(k, codes)`` of distinct record lines, code -1 for a blank line."""
    fast = _canonical_codes(lines, d)
    if fast is not None:
        return fast
    parsed = [_parse_record(line, d) if line.strip() else (0, -1) for line in lines]
    ks = {k for k, code in parsed if code >= 0}
    if len(ks) > 1:
        raise ValueError("records disagree on the number of bases in x")
    return max(ks, default=0), np.array([code for _, code in parsed], dtype=np.int64)


def load_transcript(path) -> Transcript:
    """Read a transcript written by :func:`save_transcript`, checking it.

    Raises ``ValueError`` on a foreign format, a config field of the wrong
    type or range, a record count other than rounds*n, a malformed or
    inconsistent record, or test indices that are not strictly increasing
    positions. Lines are streamed, and each distinct line is decoded once.
    """
    with open(path, "r", encoding="utf-8") as fh:
        cfg, tests, accepted = _parse_header(fh.readline())
        slots: dict = {}  # distinct line -> its row in the code table
        order = np.fromiter((slots.setdefault(line, len(slots)) for line in fh), dtype=np.int64)
    k, table = _record_codes(list(slots), cfg.d)
    codes = table[order]
    codes = codes[codes >= 0]  # blank lines
    total = cfg.rounds * cfg.n
    if len(codes) != total:
        raise ValueError(f"transcript has {len(codes)} records, expected rounds*n = {total}")
    if any(a >= b for a, b in zip(tests, tests[1:])):
        raise ValueError("test_indices must be strictly increasing")
    if tests and not 0 <= tests[0] <= tests[-1] < total:
        raise ValueError(f"test_indices must lie in 0..{total - 1}")
    return Transcript(config=cfg, k=k, codes=codes, test_indices=tests, accepted=accepted)
