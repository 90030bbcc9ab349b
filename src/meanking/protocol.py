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
uses. A unit's records therefore depend only on the seed and its position,
never on how many blocks run after it. Outcomes come from inverse-CDF
lookup in fixed-point cumulative tables, filled only for the basis and
outcome vectors that were actually drawn. The streams are part of the
release: a config gives byte-identical transcripts within one version of
the package, not across versions. In-memory records carry 1-based labels;
transcript files use 0-based indices.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import product
from math import ceil

import numpy as np

from . import attack as attack_mod
from .retrodiction import Strategy
from .serialize import canonical_dumps

_DIGITS = "123456789ABCDEFG"
TRANSCRIPT_FORMAT = "meanking-transcript-v1"
CHUNK = 4096  # units per Philox stream
_CHUNK_KEY, _TEST_KEY = 0, 1  # spawn-key namespaces: sampling chunks, test selection
# Fixed-point resolution of one inverse-CDF draw. Integer row offsets are
# exact, so a draw never depends on which other rows the table holds.
_RES = 1 << 40


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
    """One retrodiction instance, 1-based: basis b, outcomes i and i' = x(b)."""

    b: int
    i: int
    x: tuple
    i_prime: int


@dataclass
class Transcript:
    config: ProtocolConfig
    records: list
    test_indices: tuple = field(default_factory=tuple)
    accepted: bool = False


@dataclass(frozen=True)
class KeyPair:
    alice_key: str
    bob_key: str


def _stream(seed: int, *key: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=key)
    return np.random.Generator(np.random.Philox(ss))


def _normalized(dist: np.ndarray, what: str) -> np.ndarray:
    total = float(dist.sum())
    if abs(total - 1.0) > 1e-6 or np.any(dist < -1e-12):
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


def _outcome_dist(am, bs, bvec) -> np.ndarray:
    probs = [attack_mod._projected_raw(am, bs, bvec, ivec)[1]
             for ivec in product(range(bs.dim), repeat=am.n)]
    return _normalized(np.asarray(probs), f"Bob outcomes (b={bvec})")


def _povm_dist(am, bs, etas, weights, bvec, ivec) -> np.ndarray:
    rho = attack_mod.alice_state(am, bs, bvec, ivec)
    born = weights * np.sum((etas.conj() @ rho) * etas, axis=1).real
    return _normalized(born, f"measurement (b={bvec}, i={ivec})")


def _digits(flat: np.ndarray, base: int, n: int) -> np.ndarray:
    """Base-``base`` digits of each flat index, first slot slowest, as (len, n)."""
    return np.stack(np.unravel_index(flat, (base,) * n), axis=-1)


def _sample(seed: int, strategy: Strategy, am, units: int) -> np.ndarray:
    """Instance codes (b*d + i)*nx + x for ``units`` units of ``am.n`` instances.

    Per unit, chunk streams give Bob's basis vector and two fixed-point
    uniforms, one for his outcomes and one for Alice's POVM result.
    """
    bs = strategy.basis_set
    d, k, n = bs.dim, bs.k, am.n
    nx = len(strategy.guessing_functions)
    draws = []
    for chunk, start in enumerate(range(0, units, CHUNK)):
        rng = _stream(seed, _CHUNK_KEY, chunk)
        size = min(CHUNK, units - start)
        draws.append((rng.integers(k**n, size=size),
                      rng.integers(_RES, size=size),
                      rng.integers(_RES, size=size)))
    bflat, u_out, u_povm = (np.concatenate(col) for col in zip(*draws))

    bkeys, brows = np.unique(bflat, return_inverse=True)
    outcome = np.array([_outcome_dist(am, bs, tuple(bvec))
                        for bvec in _digits(bkeys, k, n).tolist()])
    iflat = _lookup(outcome, brows, u_out)

    pkeys, prows = np.unique(bflat * d**n + iflat, return_inverse=True)
    etas, weights, _ = attack_mod._product_tables(strategy, n)
    pairs = zip(_digits(pkeys // d**n, k, n).tolist(), _digits(pkeys % d**n, d, n).tolist())
    povm = np.array([_povm_dist(am, bs, etas, weights, tuple(bvec), tuple(ivec))
                     for bvec, ivec in pairs])
    yflat = _lookup(povm, prows, u_povm)

    b = _digits(bflat, k, n).ravel()
    i = _digits(iflat, d, n).ravel()
    y = _digits(yflat, nx, n).ravel()
    return (b * d + i) * nx + y


def _records(strategy: Strategy, codes: np.ndarray) -> list:
    """Records for instance codes, one interned RoundRecord per distinct code."""
    d = strategy.d
    xs = strategy.guessing_functions
    nx = len(xs)
    distinct, inverse = np.unique(codes, return_inverse=True)
    table = []
    for code in distinct.tolist():
        bi, y = divmod(code, nx)
        b, i = divmod(bi, d)
        x = xs[y]
        table.append(RoundRecord(b=b + 1, i=i + 1, x=tuple(v + 1 for v in x), i_prime=x[b] + 1))
    return [table[j] for j in inverse.tolist()]


def run_protocol(cfg: ProtocolConfig, strategy: Strategy, attack=None) -> Transcript:
    """Execute ``cfg.rounds`` blocks of n instances, with an optional attack.

    Bob's basis choices are uniform; his outcomes and Alice's measurement
    results follow the Born rule for the (possibly attacked) states. The
    result is deterministic given the config. Bob's bases reach Alice's
    records only through i' = x(b), evaluated after her outcomes are fixed.
    """
    d = strategy.basis_set.dim
    if cfg.d != d:
        raise ValueError(f"config dimension {cfg.d} vs strategy dimension {d}")
    if attack is None:
        am, units = attack_mod.identity_attack(d, 1), cfg.rounds * cfg.n
    elif attack.d != d or attack.n != cfg.n:
        raise ValueError("attack model does not match the protocol block shape")
    else:
        am, units = attack, cfg.rounds

    records = _records(strategy, _sample(cfg.seed, strategy, am, units))
    transcript = Transcript(config=cfg, records=records)
    accepted, _ = sift_and_test(transcript)
    transcript.accepted = accepted
    return transcript


def _test_indices(cfg: ProtocolConfig, total: int) -> tuple:
    count = ceil(cfg.test_fraction * total)
    if count == 0:
        return ()
    rng = _stream(cfg.seed, _TEST_KEY)
    picked = rng.choice(total, size=count, replace=False)
    return tuple(sorted(int(v) for v in picked))


def sift_and_test(transcript: Transcript):
    """Select test positions, check them, and build keys from the rest.

    Returns ``(accepted, KeyPair)``; accepted iff every tested position has
    i = i'. Selection depends only on the config, so the function is a pure
    recomputation and also fills in ``test_indices`` if still empty.
    """
    records = transcript.records
    tests = _test_indices(transcript.config, len(records))
    transcript.test_indices = tests
    accepted = all(records[t].i == records[t].i_prime for t in tests)
    test_set = set(tests)
    alice = []
    bob = []
    for pos, rec in enumerate(records):
        if pos in test_set:
            continue
        alice.append(_DIGITS[rec.i_prime - 1])
        bob.append(_DIGITS[rec.i - 1])
    return accepted, KeyPair(alice_key="".join(alice), bob_key="".join(bob))


def agreement_rate(transcript: Transcript) -> float:
    """Fraction of instances where Alice's inferred digit matches Bob's."""
    records = transcript.records
    if not records:
        return 1.0
    hits = sum(1 for rec in records if rec.i == rec.i_prime)
    return hits / len(records)


def _record_line(rec: RoundRecord) -> str:
    return canonical_dumps(
        {
            "b": rec.b - 1,
            "i": rec.i - 1,
            "x": [v - 1 for v in rec.x],
            "i_prime": rec.i_prime - 1,
        }
    ) + "\n"


def save_transcript(transcript: Transcript, path) -> None:
    """JSON-lines dump: a header line, then one 0-based record per instance.

    Each distinct record is serialized once and its line reused.
    """
    memo = {rec: _record_line(rec) for rec in set(transcript.records)}
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
        fh.write("".join(map(memo.__getitem__, transcript.records)))


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _parse_header(line: str):
    try:
        header = json.loads(line)
        fmt = header["format"]
        cfg = ProtocolConfig(**header["config"])
        tests = header["test_indices"]
        accepted = header["accepted"]
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"malformed transcript header: {exc}") from exc
    if fmt != TRANSCRIPT_FORMAT:
        raise ValueError(f"transcript format {fmt!r}, expected {TRANSCRIPT_FORMAT!r}")
    if not isinstance(tests, list) or not all(_is_int(t) for t in tests):
        raise ValueError("test_indices must be a list of integers")
    return cfg, tuple(tests), bool(accepted)


def _parse_record(line: str, d: int) -> RoundRecord:
    """One 0-based record line, checked on its own; returns the 1-based record."""
    try:
        raw = json.loads(line)
        b, i, x, i_prime = raw["b"], raw["i"], raw["x"], raw["i_prime"]
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"malformed transcript record {line.strip()!r}") from exc
    if not (_is_int(b) and _is_int(i) and _is_int(i_prime) and isinstance(x, list)
            and x and all(_is_int(v) for v in x)):
        raise ValueError(f"record {line.strip()!r}: fields must be integers, x a nonempty list")
    if not 0 <= i < d or any(not 0 <= v < d for v in x):
        raise ValueError(f"record {line.strip()!r}: outcomes must lie in 0..{d - 1}")
    if not 0 <= b < len(x):
        raise ValueError(f"record {line.strip()!r}: basis must lie in 0..{len(x) - 1}")
    if i_prime != x[b]:
        raise ValueError(f"record {line.strip()!r}: i_prime {i_prime} differs from x[b] = {x[b]}")
    return RoundRecord(b=b + 1, i=i + 1, x=tuple(v + 1 for v in x), i_prime=i_prime + 1)


def load_transcript(path) -> Transcript:
    """Read a transcript written by :func:`save_transcript`, checking it.

    Raises ``ValueError`` on a foreign format, a record count other than
    rounds*n, a malformed or inconsistent record, or test indices that are
    not strictly increasing positions. Each distinct line is parsed once.
    """
    with open(path, "r", encoding="utf-8") as fh:
        cfg, tests, accepted = _parse_header(fh.readline())
        memo: dict = {}
        records = []
        for line in fh:
            rec = memo.get(line)
            if rec is None:
                if not line.strip():
                    continue
                rec = memo[line] = _parse_record(line, cfg.d)
            records.append(rec)
    if len({len(rec.x) for rec in memo.values()}) > 1:
        raise ValueError("records disagree on the number of bases in x")
    total = cfg.rounds * cfg.n
    if len(records) != total:
        raise ValueError(f"transcript has {len(records)} records, expected rounds*n = {total}")
    if any(a >= b for a, b in zip(tests, tests[1:])):
        raise ValueError("test_indices must be strictly increasing")
    if tests and not 0 <= tests[0] <= tests[-1] < total:
        raise ValueError(f"test_indices must lie in 0..{total - 1}")
    return Transcript(config=cfg, records=records, test_indices=tests, accepted=accepted)
