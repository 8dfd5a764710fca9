"""Projective Bell measurement of a qubit pair inside a larger pure state,
one pair at a time or a whole outcome tree level by level. The tree walk
names each outcome by its 2-bit code, the index into KIND_ORDER
(``BellKind.code``) that the wire format also carries.

Sampling uses numpy's default PCG64 generator; a 64-bit seed fully determines
every outcome sequence drawn from it. A sampled path reads its draws from
``default_rng(seed).random(n)``; :func:`_uniforms` computes those draws for
many seeds in one array pass, bit for bit.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .bell import _BELL_AMPS, _SQRT1_2, KIND_ORDER, BellKind, BellOutcome
from .statevec import EXACT_TOL, DuplicateQubit, MissingQubit, PureState, canonicalize


class ZeroProbabilityOutcome(Exception):
    """Requested collapse onto an outcome of (numerically) zero probability."""


@dataclass(frozen=True, eq=False)
class MeasurementRecord:
    outcome: BellOutcome
    probability: float
    residual: PureState


def _project_raw(
    qubits: tuple[int, ...], vec: np.ndarray, pair: tuple[int, int], kind: BellKind
) -> tuple[tuple[int, ...], np.ndarray]:
    """Projection guts on a raw (possibly unnormalized) canonical vector, or on
    each column of a (2**len(qubits), k) array (BLAS may round those apart)."""
    lo, hi = min(pair), max(pair)
    ax_lo, ax_hi = qubits.index(lo), qubits.index(hi)
    bell = _BELL_AMPS[kind].reshape(2, 2).conj()
    psi = vec.reshape([2] * len(qubits) + list(vec.shape[1:]))
    residual = np.tensordot(bell, psi, axes=([0, 1], [ax_lo, ax_hi]))
    remaining = tuple(q for q in qubits if q not in (lo, hi))
    return remaining, residual.reshape((-1,) + vec.shape[1:])


def _contract(
    qubits: tuple[int, ...], level: np.ndarray, pair: tuple[int, int]
) -> tuple[tuple[int, ...], np.ndarray, np.ndarray]:
    """All four projections of each row of ``level`` in one pass.

    ``level`` is an (N, 2**len(qubits)) array of raw canonical vectors.
    Returns the remaining qubits, an (N, 4, 2**(len(qubits)-2)) array whose
    [i, k] is row i's unnormalized residual for KIND_ORDER[k], and the (N, 4)
    squared norms. The arithmetic is elementwise and each squared norm is a
    reduction over its own row, with no BLAS kernel whose rounding may change
    with N, so a row gets the same bits whatever rows share its call.
    """
    lo, hi = min(pair), max(pair)
    ax_lo, ax_hi = qubits.index(lo), qubits.index(hi)
    rows_in = len(level)
    psi = level.reshape(rows_in, 2**ax_lo, 2, 2 ** (ax_hi - ax_lo - 1), 2, -1)
    # psi+- pair |00> with +-|11>, phi+- pair |01> with +-|10> (bell._BELL_AMPS):
    # (s00, s01) +- (s11, s10) gives (psi+-, phi+-), with the bit of the
    # larger id moved next to the row axis
    same = psi[:, :, 0].transpose(0, 3, 1, 2, 4)
    flip = psi[:, :, 1, :, ::-1].transpose(0, 3, 1, 2, 4)
    rows = np.empty((rows_in, 2, 2) + same.shape[2:], dtype=complex)
    np.add(same, flip, out=rows[:, :, 0])
    np.subtract(same, flip, out=rows[:, :, 1])
    rows = rows.reshape(rows_in, 4, -1)
    flat = rows.view(np.float64)
    flat *= _SQRT1_2
    probs = np.einsum("nki,nki->nk", flat, flat)
    remaining = tuple(q for q in qubits if q not in (lo, hi))
    return remaining, rows, probs


def _contract_one(
    s: PureState, pair: tuple[int, int]
) -> tuple[tuple[int, ...], np.ndarray, list[float]]:
    """:func:`_contract` of a single state: residual rows and probabilities."""
    s = _check_pair(s, pair)
    remaining, rows, probs = _contract(s.qubits, s.amps.reshape(1, -1), pair)
    return remaining, rows[0], probs[0].tolist()


def _pick(probs: Sequence[float], u: float) -> int:
    """Index of the kind the uniform draw ``u`` selects against the cumulative
    probabilities in KIND_ORDER. If rounding leaves the sum short of ``u``,
    the last kind with a probability above EXACT_TOL is taken."""
    acc = 0.0
    for k, p in enumerate(probs):
        acc += p
        if u < acc:
            return k
    return max(k for k, p in enumerate(probs) if p > EXACT_TOL)


def _check_pair(s: PureState, pair: tuple[int, int]) -> PureState:
    if pair[0] == pair[1]:
        raise DuplicateQubit(f"measurement pair {pair} names qubit {pair[0]} twice")
    for q in pair:
        if q not in s.qubits:
            raise MissingQubit(f"qubit {q} not in state over {s.qubits}")
    if s.n_qubits < 2:
        raise MissingQubit("Bell measurement needs a state of at least 2 qubits")
    return canonicalize(s)


def project_onto_bell(
    s: PureState, pair: tuple[int, int], kind: BellKind
) -> tuple[tuple[int, ...], np.ndarray]:
    """Unnormalized projection (<kind_pair| (x) I)|s>.

    Returns the remaining qubits (ascending) and the raw residual vector;
    its squared norm is the outcome probability. Its single-kind contraction
    is the one the oracle's transfer matrices use.
    """
    s = _check_pair(s, pair)
    return _project_raw(s.qubits, s.amps, pair, kind)


def bell_probabilities(
    s: PureState, pair: tuple[int, int]
) -> dict[BellKind, float]:
    """Born-rule outcome distribution of a Bell measurement on ``pair``."""
    _, _, probs = _contract_one(s, pair)
    return dict(zip(KIND_ORDER, probs))


def bell_collapse(
    s: PureState, pair: tuple[int, int], kind: BellKind
) -> MeasurementRecord:
    """Deterministic collapse onto ``kind``; residual is renormalized."""
    remaining, rows, probs = _contract_one(s, pair)
    p = probs[kind.code]
    _check_possible(p, kind, pair)
    residual = PureState(remaining, rows[kind.code] / np.sqrt(p))
    return MeasurementRecord(BellOutcome(tuple(pair), kind), p, residual)


def sample_kind(
    s: PureState, pair: tuple[int, int], rng: np.random.Generator
) -> BellKind:
    """Draw one outcome kind from the Born distribution using ``rng``."""
    _, _, probs = _contract_one(s, pair)
    return KIND_ORDER[_pick(probs, rng.random())]


def bell_measure(
    s: PureState, pair: tuple[int, int], rng_seed: int
) -> MeasurementRecord:
    """Seeded random Bell measurement: sample a kind, then collapse onto it."""
    rng = np.random.default_rng(rng_seed)
    kind = sample_kind(s, pair, rng)
    return bell_collapse(s, pair, kind)


def _check_possible(p: float, kind: BellKind, pair: tuple[int, int]) -> None:
    if p <= EXACT_TOL:
        raise ZeroProbabilityOutcome(
            f"outcome {kind.token} on pair {pair} has probability {p:.3e}"
        )


def _normalize(rows: np.ndarray, norms: np.ndarray) -> None:
    """Divide each row in place by the root of its squared norm."""
    flat = rows.view(np.float64)
    flat /= np.sqrt(norms)[:, None]


# numpy's SeedSequence (a pool of four uint32 words) and PCG64 (a 128-bit LCG)
_M32 = np.uint64(0xFFFFFFFF)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT = (0x2360ED051FC65DA4, 0x4385DF649FCCF645)  # (high, low) halves
# Seeds drawn per array step: bounds the kernel's temporary arrays.
_SEED_BLOCK = 8192


def _hash_consts(init: int, mult: int, count: int) -> list[tuple[np.uint32, np.uint32]]:
    """(xor, multiplier) of each of ``count`` successive hash calls: the
    running constant before and after it is multiplied by ``mult``."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & 0xFFFFFFFF)
    return [(np.uint32(a), np.uint32(b)) for a, b in zip(consts, consts[1:])]


# No hash constant depends on the data: 4 + 12 pool hashes while the entropy
# is mixed in, then 8 word hashes in generate_state(4, uint64).
_POOL_HASH = _hash_consts(0x43B0D7E5, 0x931E8875, 16)
_STATE_HASH = _hash_consts(0x8B51F9DD, 0x58F38DED, 8)


def _hash(value: np.ndarray, consts: tuple[np.uint32, np.uint32]) -> np.ndarray:
    value = (value ^ consts[0]) * consts[1]
    return value ^ (value >> np.uint32(16))


def _seed_array(seeds: Sequence[int] | np.ndarray) -> np.ndarray:
    """``seeds`` as uint64; a seed outside [0, 2**64) raises, never wraps."""
    if isinstance(seeds, np.ndarray) and seeds.dtype.kind in "iu":
        if seeds.dtype.kind == "i" and seeds.size and seeds.min() < 0:
            raise ValueError(f"seed {seeds.min()} is negative")
        return seeds.astype(np.uint64)
    seeds = [operator.index(s) for s in seeds]
    for s in seeds:
        if not 0 <= s < 2**64:
            raise ValueError(f"seed {s} is outside [0, 2**64)")
    return np.array(seeds, dtype=np.uint64)


def _generate_state(seeds: np.ndarray) -> list[np.ndarray]:
    """``SeedSequence(s).generate_state(4, np.uint64)`` for each uint64 seed."""
    # the entropy words of s < 2**32 are (s,), of larger s (low, high); the
    # pool pads them with zeros to four either way
    low = (seeds & _M32).astype(np.uint32)
    zero = np.zeros_like(low)
    words = [low, (seeds >> np.uint64(32)).astype(np.uint32), zero, zero]
    hashes = iter(_POOL_HASH)
    pool = [_hash(w, next(hashes)) for w in words]
    for src in range(4):
        for dst in range(4):
            if dst != src:
                mixed = _MIX_L * pool[dst] - _MIX_R * _hash(pool[src], next(hashes))
                pool[dst] = mixed ^ (mixed >> np.uint32(16))
    out = [_hash(pool[i % 4], c).astype(np.uint64) for i, c in enumerate(_STATE_HASH)]
    # a uint64 word reads two uint32 words little-endian
    return [out[2 * j] | (out[2 * j + 1] << np.uint64(32)) for j in range(4)]


def _mulhi(a: np.ndarray, b: int) -> np.ndarray:
    """High 64 bits of each ``a * b``, from 32-bit limbs."""
    a0, a1 = a & _M32, a >> np.uint64(32)
    b0, b1 = np.uint64(b & 0xFFFFFFFF), np.uint64(b >> 32)
    p01, p10, top = a0 * b1, a1 * b0, np.uint64(32)
    mid = ((a0 * b0) >> top) + (p01 & _M32) + (p10 & _M32)
    return a1 * b1 + (p01 >> top) + (p10 >> top) + (mid >> top)


def _pcg_step(
    hi: np.ndarray, lo: np.ndarray, inc: tuple[np.ndarray, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """One LCG step, state * mult + inc mod 2**128, on (high, low) halves."""
    m_hi, m_lo = _PCG_MULT
    hi = _mulhi(lo, m_lo) + lo * np.uint64(m_hi) + hi * np.uint64(m_lo)
    lo = lo * np.uint64(m_lo)
    new_lo = lo + inc[1]
    return hi + inc[0] + (new_lo < lo), new_lo


def _uniforms(seeds: Sequence[int] | np.ndarray, n: int) -> np.ndarray:
    """Row t is ``np.random.default_rng(seeds[t]).random(n)``, bit for bit.

    The same stream computed as array work over all seeds: SeedSequence's
    pool mixing and ``generate_state(4, uint64)``, PCG64 seeding, then n
    XSL-RR 128/64 outputs, each scaled as ``random()`` scales it. Seeds must
    lie in [0, 2**64), where SeedSequence takes one or two entropy words.
    """
    seeds = _seed_array(seeds)
    out = np.empty((len(seeds), n))
    for start in range(0, len(seeds), _SEED_BLOCK):
        block = slice(start, start + _SEED_BLOCK)
        init_hi, init_lo, seq_hi, seq_lo = _generate_state(seeds[block])
        inc = (
            (seq_hi << np.uint64(1)) | (seq_lo >> np.uint64(63)),
            (seq_lo << np.uint64(1)) | np.uint64(1),
        )
        # seeding: state = 0, step, add the initial state, step
        lo = inc[1] + init_lo
        hi, lo = _pcg_step(inc[0] + init_hi + (lo < init_lo), lo, inc)
        for d in range(n):
            hi, lo = _pcg_step(hi, lo, inc)
            # XSL-RR: xor the halves, rotate right by the top 6 bits
            x, rot = hi ^ lo, hi >> np.uint64(58)
            x = (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))
            out[block, d] = (x >> np.uint64(11)) * 2.0**-53
    return out


class Walk(NamedTuple):
    """The distinct leaves a walk reached, in order of first appearance.
    Leaf i's path is ``outcomes[i]``: one KIND_ORDER index (``BellKind.code``)
    per measured pair, in measurement order. A sampled walk of two or more
    trials picks every trial's child as array work; one trial picks with
    :func:`_pick`, bit for bit the same."""

    qubits: tuple[int, ...]  # left unmeasured, the same for every leaf
    outcomes: list[tuple[int, ...]]
    probabilities: list[float]
    leaves: np.ndarray  # row i: leaf i's normalized residual
    trial_leaf: list[int] | None  # sampled walks: the leaf each trial reached


def _pick_rows(probs: np.ndarray, node: np.ndarray, u: np.ndarray) -> np.ndarray:
    """:func:`_pick` for every trial at once: the child ``4 * node[t] + k`` that
    draw ``u[t]`` selects from row ``node[t]`` of the (N, 4) ``probs``.

    ``np.cumsum`` adds in order, so its bits are ``_pick``'s ``acc += p``, and
    acc never decreases, so the first k with ``u < acc[k]`` is the number of k
    with ``acc[k] <= u``. Each column is gathered on its own, so no (T, 4)
    array is made.
    """
    acc = np.cumsum(probs, axis=1).T.copy()  # row k: every node's acc[k]
    count = (acc[0][node] <= u).astype(np.intp)
    for column in acc[1:]:
        count += column[node] <= u
    short = count == 4
    if short.any():
        # the rounded sum fell short of u: the last kind above EXACT_TOL
        last = 3 - np.argmax(probs[:, ::-1] > EXACT_TOL, axis=1)
        count[short] = last[node[short]]
    return 4 * node + count


def _first_appearance(child: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of ``child`` (each in [0, size)) in order of first
    appearance, and each entry's index into them."""
    first = np.full(size, len(child))
    np.minimum.at(first, child, np.arange(len(child)))
    # a mask of each value's first entry reads them in order, with no sort
    is_first = np.zeros(len(child), dtype=bool)
    is_first[first[first < len(child)]] = True
    picked = child[is_first]
    rank = np.empty(size, dtype=np.intp)
    rank[picked] = np.arange(len(picked))
    return picked, rank[child]


def _check_children(
    born: np.ndarray, picked: np.ndarray, pair: tuple[int, int]
) -> None:
    """:func:`_check_possible` for each kept child, in child order."""
    if born.min() <= EXACT_TOL:
        i = np.flatnonzero(born <= EXACT_TOL)[0]
        _check_possible(float(born[i]), KIND_ORDER[int(picked[i]) & 3], pair)


def _join(
    qubits: tuple[int, ...], level: np.ndarray, pair: tuple[int, int], amps: np.ndarray
) -> tuple[tuple[int, ...], np.ndarray]:
    """Each row of ``level`` joined with the 2-qubit state ``amps`` on
    ``pair`` (over |00>..|11>, the smaller id first) in one broadcast
    multiply, its two bits put in their places in ascending id order."""
    lo, hi = min(pair), max(pair)
    if lo == hi or lo in qubits or hi in qubits:
        raise DuplicateQubit(f"cannot join pair {pair} onto qubits {qubits}")
    joined = tuple(sorted(qubits + (lo, hi)))
    ax_lo, ax_hi = joined.index(lo), joined.index(hi)
    psi = level.reshape(len(level), 2**ax_lo, 1, 2 ** (ax_hi - ax_lo - 1), 1, -1)
    return joined, (psi * amps.reshape(2, 1, 2, 1)).reshape(len(level), -1)


def walk_branches(
    qubits: tuple[int, ...],
    vec: np.ndarray,
    pairs: Sequence[tuple[int, int]],
    draws: np.ndarray | Sequence[Sequence[float]] | None = None,
    joins: Sequence[tuple[tuple[int, int], np.ndarray]] | None = None,
) -> Walk:
    """Measure ``pairs`` in turn on a normalized canonical vector, one level
    of the outcome tree at a time.

    A level holds its distinct nodes as the rows of one array and contracts
    its pair for all of them in one :func:`_contract` call. With ``joins``,
    level d first joins the 2-qubit state ``joins[d]``, a (pair, 4
    amplitudes) entry, onto every node (:func:`_join`), so a vector that is
    a product with independent pairs is never built whole: each node holds
    only the pairs joined so far. Without ``draws`` every node keeps its
    four children, so the leaves come in lexicographic code order. With
    them, trial t follows one path: ``draws[t][d]`` picks its child at depth
    d as :func:`sample_kind` picks from ``rng.random()``. ``draws`` is a
    (trials, depth) array, or lists that convert to one, with at least one
    row; each level reads its column. Two or more rows pick as
    array work (:func:`_pick_rows`); one row picks with :func:`_pick`, which
    costs less for a single trial. Only the children some trial reaches are
    kept, so trials that share a prefix share its nodes. A leaf's probability
    is the product of its per-pair Born probabilities.
    """
    level = vec.reshape(1, -1)
    outcomes: list[tuple[int, ...]] = [()]
    probabilities = np.array([1.0])
    trial_node = None
    if draws is not None:
        draws = np.asarray(draws, dtype=float)
        if draws.ndim != 2 or len(draws) < 1 or draws.shape[1] != len(pairs):
            raise ValueError(
                f"draws must have shape (rows, {len(pairs)}) with rows >= 1, "
                f"got {draws.shape}"
            )
        trial_node = np.zeros(len(draws), dtype=np.intp)
    if joins is not None and len(joins) != len(pairs):
        raise ValueError(f"{len(joins)} joins for {len(pairs)} measured pairs")
    for depth, pair in enumerate(pairs):
        if joins is not None:
            qubits, level = _join(qubits, level, *joins[depth])
        qubits, rows, probs = _contract(qubits, level, pair)
        # child 4 * i + k is node i's child for KIND_ORDER[k]; the previous
        # level goes here, so at most two levels are held at once
        level = rows.reshape(-1, rows.shape[-1])
        del rows
        if draws is None:
            picked = np.arange(len(level))
        else:
            if len(draws) == 1:  # the one trial is at node 0
                picked = np.array([_pick(probs[0].tolist(), float(draws[0, depth]))])
            else:
                picked, trial_node = _first_appearance(
                    _pick_rows(probs, trial_node, draws[:, depth]), len(level)
                )
            level = level[picked]
        born = probs.reshape(-1)[picked]
        _check_children(born, picked, pair)
        outcomes = [outcomes[c >> 2] + (c & 3,) for c in picked.tolist()]
        probabilities = probabilities[picked >> 2] * born
        _normalize(level, born)
    trial_leaf = None if trial_node is None else trial_node.tolist()
    return Walk(qubits, outcomes, probabilities.tolist(), level, trial_leaf)
