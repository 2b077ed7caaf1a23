"""Deterministic random-stream derivation.

Every random draw in the package flows from a single non-negative integer
seed. Independent sub-streams (k-means replicates, gap-statistic reference
datasets, per-k clustering seeds) are those of
``np.random.SeedSequence(entropy=seed, spawn_key=key)`` feeding PCG64, so
results are reproducible bit-for-bit across runs given the same seed, and
distinct keys never share a stream.

:func:`substream` builds one numpy ``Generator``, for the gap statistic's
reference draws. Every other stream is derived in bulk, many keys per call
(:class:`_Streams`, :func:`_subseeds`), in plain integer arithmetic: numpy's
SeedSequence hash (``mix_entropy`` and ``generate_state`` of numpy's
``bit_generator.pyx``) on ``uint32`` arrays, and PCG64 (O'Neill 2014, "PCG: A
Family of Simple Fast Space-Efficient Statistically Good Algorithms for
Random Number Generation"), XSL-RR output, on (hi, lo) ``uint64`` pairs,
serving ``random()`` and ``integers(n)`` as numpy's ``Generator`` does. The
values are numpy's bit for bit (``tests/test_rng.py`` holds them to
numpy's own generators), but they no longer depend on how a numpy release
implements its ``Generator`` methods. Every operand is unsigned: a
``uint64`` mixed with a signed array promotes to float64.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

from .errors import KstError

DEFAULT_SEED = 42

_U32, _U64 = np.uint32, np.uint64
_M32 = (1 << 32) - 1
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_POOL = 4  # SeedSequence's default pool size, in 32-bit words
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # the hash constants of mix_entropy
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # and of generate_state
_MIX_L, _MIX_R = _U32(0xCA01F9DD), _U32(0x4973F715)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's 128-bit multiplier


def substream(seed: int, *key: int) -> np.random.Generator:
    """Generator for the sub-stream identified by ``key`` under ``seed``."""
    _check_seed(seed)
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def subseed(seed: int, *key: int) -> int:
    """Derived integer seed, for call sites that take a seed rather than a stream."""
    return _subseeds(seed, [key])[0]


def _subseeds(seed: int, keys: Sequence[Sequence[int]]) -> list[int]:
    """:func:`subseed` for every key of ``keys``, from one derivation:
    ``SeedSequence(entropy=seed, spawn_key=key).generate_state(1, np.uint64)``
    halved, so it stays inside the non-negative int64 range accepted
    everywhere."""
    _check_seed(seed)
    return (_state_words(_pools([seed], keys), 1)[0, :, 0] >> _U64(1)).tolist()


def _check_seed(seed: int) -> None:
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool) or seed < 0:
        raise KstError(f"seed must be a non-negative integer, got {seed!r}")


def _check_ints(**counts: object) -> None:
    """Raise a KstError naming the first of ``counts`` that is not a Python
    or numpy integer; a bool is not one, as for a seed."""
    for name, value in counts.items():
        if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
            raise KstError(f"{name} must be an integer, got {value!r}")


def _words(value: int) -> list[int]:
    """The 32-bit words of a non-negative integer, least significant first,
    one zero word for 0: SeedSequence's entropy words of an int."""
    value = int(value)
    words = [value & _M32]
    while value := value >> 32:
        words.append(value & _M32)
    return words


@functools.lru_cache(maxsize=64)
def _hash_consts(init: int, mult: int, start: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The constants of ``count`` successive SeedSequence hashes after
    ``start`` of them: hash t xors with ``init * mult**t mod 2**32`` and
    multiplies by the next power. Returns the xor and the multiply constants."""
    c = init * pow(mult, start, 1 << 32) & _M32
    out = [c]
    for _ in range(count):
        c = c * mult & _M32
        out.append(c)
    consts = np.array(out, dtype=_U32)
    consts.setflags(write=False)  # shared by every caller
    return consts[:-1], consts[1:]


def _hashmix(value: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    """SeedSequence's ``hashmix``, with the constants of each hash along the
    last axis; ``generate_state`` hashes each output word the same way."""
    value = value ^ xor
    value *= mul
    value ^= value >> _U32(16)
    return value


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's ``mix``, word by word."""
    out = x * _MIX_L - y * _MIX_R
    out ^= out >> _U32(16)
    return out


def _spread_consts() -> list[tuple[np.ndarray, np.ndarray]]:
    """Per pool word, the constants with which ``mix_entropy`` hashes it
    for each other word it is mixed into, by that word's place (the word's
    own place holds one of them, unused)."""
    xor, mul = _hash_consts(_INIT_A, _MULT_A, _POOL, _POOL * (_POOL - 1))
    spread, t = [], 0
    for src in range(_POOL):
        cols = [t + dst - (dst > src) for dst in range(_POOL)]
        cols[src] = t
        spread.append((xor[cols], mul[cols]))
        t += _POOL - 1
    return spread


_FILL = _hash_consts(_INIT_A, _MULT_A, 0, _POOL)  # the hashes of the first four words
_SPREAD = _spread_consts()
_MIXED = _POOL * _POOL  # the hashes mix_entropy makes before the words beyond the pool


def _mix_in(pool: np.ndarray, words: Sequence[np.ndarray], start: int) -> np.ndarray:
    """Mix each of ``words``, in order, into every word of ``pool`` (..., 4),
    as ``mix_entropy`` mixes the entropy beyond the pool's size, after
    ``start`` hashes; each word broadcasts against the pool's leading axes."""
    xor, mul = _hash_consts(_INIT_A, _MULT_A, start, _POOL * len(words))
    for w, word in enumerate(words):
        at = slice(_POOL * w, _POOL * (w + 1))
        pool = _mix(pool, _hashmix(word, xor[at], mul[at]))
    return pool


def _pools(seeds: Sequence[int], keys: Sequence[Sequence[int]]) -> np.ndarray:
    """The entropy pools of ``SeedSequence(entropy=seeds[i], spawn_key=keys[j])``
    for every i and j, as a (seeds, keys, 4) ``uint32`` array.

    The entropy is the seed's words (:func:`_words`), padded with zero words
    to the pool size (numpy pads only when a key follows, but it hashes a
    missing word as a zero), then the words of each key entry. The first
    four words are mixed once per seed, every word into every other; each
    further word is mixed into every pool word, with hashes that depend on
    its place. So seeds are grouped by word count and keys by theirs, and
    never padded to one width.
    """
    pools = np.empty((len(seeds), len(keys), _POOL), dtype=_U32)
    seed_words = [_words(s) for s in seeds]
    key_words = [[w for part in key for w in _words(part)] for key in keys]
    for width in sorted({max(len(w), _POOL) for w in seed_words}):
        rows = [i for i, w in enumerate(seed_words) if max(len(w), _POOL) == width]
        entropy = np.array([seed_words[i] + [0] * (width - len(seed_words[i])) for i in rows],
                           dtype=_U32)
        pool = _hashmix(entropy[:, :_POOL], *_FILL)
        for src, consts in enumerate(_SPREAD):
            mixed = _mix(pool, _hashmix(pool[:, src, None], *consts))
            mixed[:, src] = pool[:, src]  # a word is not mixed into itself
            pool = mixed
        pool = _mix_in(pool, [entropy[:, w, None] for w in range(_POOL, width)], _MIXED)
        done = _MIXED + _POOL * (width - _POOL)
        for length in sorted({len(w) for w in key_words}):
            cols = [j for j, w in enumerate(key_words) if len(w) == length]
            words = np.array([key_words[j] for j in cols], dtype=_U32).reshape(len(cols), length)
            pools[np.ix_(rows, cols)] = _mix_in(
                pool[:, None], [words[:, w, None] for w in range(length)], done)
    return pools


def _state_words(pools: np.ndarray, count: int) -> np.ndarray:
    """``generate_state(count, np.uint64)`` of each pool of ``pools`` (..., 4):
    2 count hashed words, cycling through the pool, paired little-endian."""
    words = _hashmix(pools[..., np.arange(2 * count) % _POOL],
                     *_hash_consts(_INIT_B, _MULT_B, 0, 2 * count)).astype(_U64)
    return words[..., 0::2] | words[..., 1::2] << _U64(32)


def _jumps(count: int) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """PCG64's jump-ahead constants for 0 .. count - 1 steps: t steps take a
    state s to ``A_t s + C_t inc`` mod 2^128, with A_t = _PCG_MULT^t and C_t
    = 1 + _PCG_MULT + ... + _PCG_MULT^(t - 1). Each as :func:`_split` gives
    it."""
    a, c, mults, incs = 1, 0, [], []
    for _ in range(count):
        mults.append(a)
        incs.append(c)
        a, c = a * _PCG_MULT & _M128, (c * _PCG_MULT + 1) & _M128
    return _split(mults), _split(incs)


def _split(values: Sequence[int]) -> tuple[np.ndarray, ...]:
    """128-bit integers as ``uint64`` arrays: the high and low halves, and the
    low half's two 32-bit limbs."""
    return tuple(np.array([v >> shift & mask for v in values], dtype=_U64)
                 for shift, mask in ((64, _M64), (0, _M64), (0, _M32), (32, _M32)))


def _mul(hi: np.ndarray, lo: np.ndarray, c_hi: np.ndarray, c_lo: np.ndarray,
         c_lo0: np.ndarray, c_lo1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo) * (c_hi, c_lo) mod 2^128, on 64-bit halves; the high half of
    ``lo * c_lo`` is summed from 32-bit limbs (``c_lo0``, ``c_lo1``)."""
    lo0, lo1 = lo & _U64(_M32), lo >> _U64(32)
    p00, p01, p10 = lo0 * c_lo0, lo0 * c_lo1, lo1 * c_lo0
    mid = (p00 >> _U64(32)) + (p01 & _U64(_M32)) + (p10 & _U64(_M32))
    out_hi = lo1 * c_lo1 + (p01 >> _U64(32)) + (p10 >> _U64(32)) + (mid >> _U64(32))
    out_hi += hi * c_lo + lo * c_hi
    return out_hi, lo * c_lo


_AHEAD = 10  # PCG64 states kept per stream: its current one and those after it
_JUMP_MULT, _JUMP_INC = _jumps(_AHEAD)


class _Streams:
    """PCG64 streams of ``SeedSequence(entropy=seeds[i], spawn_key=keys[j])``
    for every i and j, stream ``i * len(keys) + j``, derived in one pass.

    Each stream is seeded as ``PCG64`` seeds itself: seed and increment are
    ``generate_state(4, np.uint64)``, then state 0, increment 2 seq + 1, one
    step, the seed added, one step. :meth:`random` and :meth:`integers` draw
    once on each stream of an index array of distinct streams, and leave
    every stream where numpy's ``Generator`` would leave it, 32-bit buffer
    included (:meth:`state`).

    Each stream holds a block of ``_AHEAD`` consecutive states and their
    XSL-RR outputs, all jumped to at once from the first (``_jumps``), and
    where it is in the block; a draw reads the next output, and a stream
    that reaches the end of its block starts a new one from its last state.
    A fresh stream has 8 outputs ahead, k-means++'s draws for up to 8
    centres in the usual case. A stream takes 3 ``_AHEAD`` + 4 words of 8
    bytes.
    """

    def __init__(self, seeds: Sequence[int], keys: Sequence[Sequence[int]]):
        seed_hi, seed_lo, seq_hi, seq_lo = _state_words(_pools(seeds, keys), 4).reshape(-1, 4).T
        self.inc_hi = (seq_hi << _U64(1) | seq_lo >> _U64(63))[:, None]
        self.inc_lo = (seq_lo << _U64(1) | _U64(1))[:, None]
        lo = self.inc_lo[:, 0] + seed_lo  # one step from state 0 gives the increment
        self.hi, self.lo, self.out = (np.empty((len(lo), _AHEAD), dtype=_U64) for _ in range(3))
        self._fill(slice(None), (self.inc_hi[:, 0] + seed_hi + (lo < seed_lo))[:, None],
                   lo[:, None])
        self.at = np.ones(len(lo), dtype=np.intp)  # the column of each stream's state
        self.has32 = np.zeros(len(lo), dtype=bool)  # the upper half of an output is held
        self.buf = np.zeros(len(lo), dtype=_U64)

    def __len__(self) -> int:
        return len(self.at)

    def _fill(self, rows: np.ndarray | slice, hi: np.ndarray, lo: np.ndarray) -> None:
        """Start the blocks of streams ``rows`` at states (hi, lo), one row each."""
        hi, lo = _mul(hi, lo, *_JUMP_MULT)
        inc_hi, inc_lo = _mul(self.inc_hi[rows], self.inc_lo[rows], *_JUMP_INC)
        lo += inc_lo
        hi += inc_hi + (lo < inc_lo)
        x, rot = hi ^ lo, hi >> _U64(58)  # XSL-RR: rotate by the top six bits
        self.hi[rows], self.lo[rows] = hi, lo
        self.out[rows] = x >> rot | x << ((_U64(64) - rot) & _U64(63))

    def state(self, i: int) -> dict:
        """Stream i's state in the form of numpy's ``bit_generator.state``."""
        at = self.at[i]
        return {"bit_generator": "PCG64",
                "state": {"state": int(self.hi[i, at]) << 64 | int(self.lo[i, at]),
                          "inc": int(self.inc_hi[i, 0]) << 64 | int(self.inc_lo[i, 0])},
                "has_uint32": int(self.has32[i]), "uinteger": int(self.buf[i])}

    def _next64(self, rows: np.ndarray) -> np.ndarray:
        at = self.at[rows] + 1
        ended = at == _AHEAD
        if ended.any():
            ended = rows[ended]
            self._fill(ended, self.hi[ended, -1:], self.lo[ended, -1:])
            self.at[ended] = 0
            at = self.at[rows] + 1
        self.at[rows] = at
        return self.out[rows, at]

    def _next32(self, rows: np.ndarray) -> np.ndarray:
        """The held upper half of the last 64-bit output where there is one,
        else the lower half of a new one, whose upper half is held."""
        held = self.has32[rows]
        fresh = rows[~held]
        new = self._next64(fresh)
        out = np.empty(len(rows), dtype=_U64)
        out[~held] = new & _U64(_M32)
        out[held] = self.buf[rows[held]]
        self.buf[fresh] = new >> _U64(32)
        self.has32[rows] = ~held
        return out

    def random(self, rows: np.ndarray) -> np.ndarray:
        """``Generator.random()`` once on each stream of ``rows``: the top 53
        bits of a 64-bit output; the 32-bit buffer is left alone."""
        return (self._next64(rows) >> _U64(11)) * 2.0 ** -53

    def integers(self, rows: np.ndarray, n: int) -> np.ndarray:
        """``Generator.integers(n)`` once on each stream of ``rows``, for 1 <=
        n < 2^32: nothing drawn at n = 1, else Lemire's bounded 32-bit draw
        (arXiv:1805.10941), whose rejected draws are drawn again."""
        if not 1 <= n < 1 << 32:
            raise ValueError(f"integers(n) needs 1 <= n < 2**32, got {n}")
        out = np.zeros(len(rows), dtype=np.intp)
        todo = np.arange(len(rows) if n > 1 else 0)
        while len(todo):
            m = self._next32(rows[todo]) * _U64(n)
            ok = (m & _U64(_M32)) >= _U64((1 << 32) % n)
            out[todo[ok]] = m[ok] >> _U64(32)
            todo = todo[~ok]
        return out
