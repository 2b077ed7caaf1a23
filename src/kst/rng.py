"""Deterministic random-stream derivation.

Every random draw in the package flows from a single non-negative integer
seed. Independent sub-streams (k-means replicates, gap-statistic reference
datasets, per-k clustering seeds) are those of
``np.random.SeedSequence(entropy=seed, spawn_key=key)`` feeding PCG64, so
results are reproducible bit-for-bit across runs given the same seed, and
distinct keys never share a stream.

:func:`substream` builds one numpy ``Generator``, for the gap statistic's
reference draws. Every other stream is derived in bulk, many keys per call
(:class:`_Streams`, :func:`_subseeds`), in plain integer arithmetic that
follows numpy's own loops: SeedSequence's ``mix_entropy`` and
``generate_state`` (numpy's ``bit_generator.pyx``) on ``uint32`` columns,
and PCG64 (O'Neill 2014, "PCG: A Family of Simple Fast Space-Efficient
Statistically Good Algorithms for Random Number Generation"), one step and
one XSL-RR output per 64-bit draw, on (hi, lo) ``uint64`` pairs, serving
``random()`` and ``integers(n)`` as numpy's ``Generator`` does. The values
are numpy's bit for bit (``tests/test_rng.py`` holds them to numpy's own
generators), but they no longer depend on how a numpy release implements
its ``Generator`` methods. Every operand is unsigned: a ``uint64`` mixed
with a signed array promotes to float64.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import KstError

DEFAULT_SEED = 42

_U32, _U64 = np.uint32, np.uint64
_M32 = (1 << 32) - 1
_POOL = 4  # SeedSequence's default pool size, in 32-bit words
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # the hash constants of mix_entropy
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # and of generate_state
_MIX_L, _MIX_R = _U32(0xCA01F9DD), _U32(0x4973F715)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's 128-bit multiplier
# its high and low halves, and the low half's two 32-bit limbs
_MULT_HI, _MULT_LO, _MULT_LO0, _MULT_LO1 = (
    _U64(_PCG_MULT >> 64), _U64(_PCG_MULT & (1 << 64) - 1),
    _U64(_PCG_MULT & _M32), _U64(_PCG_MULT >> 32 & _M32))


def substream(seed: int, *key: int) -> np.random.Generator:
    """Generator for the sub-stream identified by ``key`` under ``seed``."""
    _check_seed(seed)
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def _subseeds(seed: int, keys: Sequence[Sequence[int]]) -> list[int]:
    """Derived integer seeds, one per key of ``keys``, from one derivation:
    ``SeedSequence(entropy=seed, spawn_key=key).generate_state(1, np.uint64)``
    halved, so it stays inside the non-negative int64 range accepted
    everywhere."""
    _check_seed(seed)
    return (_state_words(_pools([seed], keys), 1)[0, :, 0] >> _U64(1)).tolist()


def _is_int(value: object) -> bool:
    """Whether ``value`` is a Python or numpy integer; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_seed(seed: int) -> None:
    if not _is_int(seed) or seed < 0:
        raise KstError(f"seed must be a non-negative integer, got {seed!r}")


def _check_ints(**counts: object) -> list[int]:
    """``counts``' values as Python ints, in order; a KstError names the
    first that is not an integer (:func:`_is_int`)."""
    for name, value in counts.items():
        if not _is_int(value):
            raise KstError(f"{name} must be an integer, got {value!r}")
    return [int(value) for value in counts.values()]


def _check_budget(n_init: int, max_iter: int) -> None:
    """A k-means fit runs at least one replicate of at least one iteration."""
    if n_init < 1 or max_iter < 1:
        raise KstError("n_init and max_iter must be >= 1")


def _words(value: int) -> list[int]:
    """The 32-bit words of a non-negative integer, least significant first,
    one zero word for 0: SeedSequence's entropy words of an int."""
    value = int(value)
    words = [value & _M32]
    while value := value >> 32:
        words.append(value & _M32)
    return words


def _hash_consts(init: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The constants of ``count`` successive SeedSequence hashes: hash t
    xors with ``init * mult**t mod 2**32`` and multiplies by the next power.
    Returns the xor and the multiply constants."""
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & _M32)
    consts = np.array(out, dtype=_U32)
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


def _pools(seeds: Sequence[int], keys: Sequence[Sequence[int]]) -> np.ndarray:
    """The entropy pools of ``SeedSequence(entropy=seeds[i], spawn_key=keys[j])``
    for every i and j, as a (seeds, keys, 4) ``uint32`` array.

    The entropy is the seed's words (:func:`_words`), padded with zero words
    to the pool size (numpy pads only when a key follows, but it hashes a
    missing word as a zero), then the words of each key entry. The pairs
    are grouped by their entropy's word count, and each group runs numpy's
    ``mix_entropy`` on whole columns: the first four words hashed into the
    pool, then each word mixed into every other pool word in numpy's loop
    order, each hash taking the next constants.
    """
    seed_words = [w + [0] * (_POOL - len(w)) for w in map(_words, seeds)]
    key_words = [[w for part in key for w in _words(part)] for key in keys]
    entropy = [s + k for s in seed_words for k in key_words]
    pools = np.empty((len(entropy), _POOL), dtype=_U32)
    for width in {len(e) for e in entropy}:
        rows = [i for i, e in enumerate(entropy) if len(e) == width]
        words = np.array([entropy[i] for i in rows], dtype=_U32).T  # one row per word
        xor, mul = _hash_consts(_INIT_A, _MULT_A, _POOL * width)
        pool = _hashmix(words[:_POOL], xor[:_POOL, None], mul[:_POOL, None])
        t = _POOL
        for src in range(width):
            word = pool[src] if src < _POOL else words[src]
            for dst in range(_POOL):
                if dst != src:  # a pool word is not mixed into itself
                    pool[dst] = _mix(pool[dst], _hashmix(word, xor[t], mul[t]))
                    t += 1
        pools[rows] = pool.T
    return pools.reshape(len(seeds), len(keys), _POOL)


def _state_words(pools: np.ndarray, count: int) -> np.ndarray:
    """``generate_state(count, np.uint64)`` of each pool of ``pools`` (..., 4):
    2 count hashed words, cycling through the pool, paired little-endian."""
    words = _hashmix(pools[..., np.arange(2 * count) % _POOL],
                     *_hash_consts(_INIT_B, _MULT_B, 2 * count)).astype(_U64)
    return words[..., 0::2] | words[..., 1::2] << _U64(32)


def _step(hi: np.ndarray, lo: np.ndarray, inc_hi: np.ndarray,
          inc_lo: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One PCG64 step, state * _PCG_MULT + inc mod 2^128, on 64-bit halves;
    the high half of ``lo * _MULT_LO`` is summed from 32-bit limbs."""
    lo0, lo1 = lo & _U64(_M32), lo >> _U64(32)
    p00, p01, p10 = lo0 * _MULT_LO0, lo0 * _MULT_LO1, lo1 * _MULT_LO0
    mid = (p00 >> _U64(32)) + (p01 & _U64(_M32)) + (p10 & _U64(_M32))
    out_hi = lo1 * _MULT_LO1 + (p01 >> _U64(32)) + (p10 >> _U64(32)) + (mid >> _U64(32))
    out_hi += hi * _MULT_LO + lo * _MULT_HI + inc_hi
    out_lo = lo * _MULT_LO + inc_lo
    return out_hi + (out_lo < inc_lo), out_lo


class _Streams:
    """PCG64 streams of ``SeedSequence(entropy=seeds[i], spawn_key=keys[j])``
    for every i and j, stream ``i * len(keys) + j``, derived in one pass.

    Each stream is seeded as ``PCG64`` seeds itself: seed and increment are
    ``generate_state(4, np.uint64)``, then state 0, increment 2 seq + 1, one
    step, the seed added, one step. :meth:`random` and :meth:`integers` draw
    once on each stream of an index array of distinct streams, one PCG64
    step per 64-bit output, and leave every stream where numpy's
    ``Generator`` would leave it, 32-bit buffer included (:meth:`state`).
    A stream takes 41 bytes: its state, increment and held 32-bit half,
    8 bytes each, and whether a half is held.
    """

    def __init__(self, seeds: Sequence[int], keys: Sequence[Sequence[int]]):
        seed_hi, seed_lo, seq_hi, seq_lo = _state_words(_pools(seeds, keys), 4).reshape(-1, 4).T
        self.inc_hi = seq_hi << _U64(1) | seq_lo >> _U64(63)
        self.inc_lo = seq_lo << _U64(1) | _U64(1)
        lo = self.inc_lo + seed_lo  # one step from state 0 gives the increment
        self.hi, self.lo = _step(self.inc_hi + seed_hi + (lo < seed_lo), lo,
                                 self.inc_hi, self.inc_lo)
        self.has32 = np.zeros(len(lo), dtype=bool)  # the upper half of an output is held
        self.buf = np.zeros(len(lo), dtype=_U64)

    def __len__(self) -> int:
        return len(self.hi)

    def state(self, i: int) -> dict:
        """Stream i's state in the form of numpy's ``bit_generator.state``."""
        return {"bit_generator": "PCG64",
                "state": {"state": int(self.hi[i]) << 64 | int(self.lo[i]),
                          "inc": int(self.inc_hi[i]) << 64 | int(self.inc_lo[i])},
                "has_uint32": int(self.has32[i]), "uinteger": int(self.buf[i])}

    def _next64(self, rows: np.ndarray) -> np.ndarray:
        """One step of each stream of ``rows`` and its XSL-RR output: the
        state's halves xored, rotated by the top six bits."""
        hi, lo = _step(self.hi[rows], self.lo[rows], self.inc_hi[rows], self.inc_lo[rows])
        self.hi[rows], self.lo[rows] = hi, lo
        x, rot = hi ^ lo, hi >> _U64(58)
        return x >> rot | x << ((_U64(64) - rot) & _U64(63))

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
