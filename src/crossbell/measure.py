"""Projective Bell measurement of a qubit pair inside a larger pure state
with the kernel ``bell._contract``, and the teleportation's outcome tree,
level by level, with :func:`_channel_level`. The tree has the protocol's one
geometry: level d joins channel pair (d+1, n+d+1) and measures (n+d+1,
2n+d+1). It names each outcome by its 2-bit code (``BellKind.code``, also on
the wire), in one array.

A sampled path reads one uniform draw per level. The walk draws its own from
:func:`_uniforms`: trial t's are the first n outputs of SplitMix64 seeded
with its 64-bit seed, for one seed or many in one array pass, so the seed
fully determines the path. The one-pair calls :func:`sample_kind` and
:func:`bell_measure` draw from a numpy Generator instead.
"""
from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .bell import _BELL_AMPS, _SQRT1_2, KIND_ORDER, BellKind, BellOutcome, _contract
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
    return canonicalize(s)


def project_onto_bell(
    s: PureState, pair: tuple[int, int], kind: BellKind
) -> tuple[tuple[int, ...], np.ndarray]:
    """Unnormalized projection (<kind_pair| (x) I)|s>.

    Returns the remaining qubits (ascending) and the raw residual vector;
    its squared norm is the outcome probability.
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


# SplitMix64 (Steele, Lea and Flood 2014): the state step, the output
# function's two multipliers, and its shifts (numpy scalars cost less per
# operation than Python ints)
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MULT1, _MULT2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
_S11, _S27, _S30, _S31 = map(np.uint64, (11, 27, 30, 31))
# Seeds drawn per array step: bounds the kernel's temporary arrays.
_SEED_BLOCK = 8192


def _seed_array(seeds: Sequence[int] | np.ndarray) -> np.ndarray:
    """``seeds`` as uint64; a seed outside [0, 2**64) raises, never wraps. An
    array must be 1-D, not empty, and hold integers; a bool is not one."""
    if isinstance(seeds, np.ndarray):
        if seeds.dtype.kind not in "iu":
            raise TypeError(f"seed array must hold integers, got dtype {seeds.dtype}")
        if seeds.ndim != 1 or not seeds.size:
            raise ValueError(f"seed array must be 1-D, not empty: shape {seeds.shape}")
        if seeds.dtype.kind == "i" and seeds.min() < 0:
            raise ValueError(f"seed {seeds.min()} is negative")
        return seeds.astype(np.uint64)
    for s in seeds:
        if isinstance(s, (bool, np.bool_)) or not hasattr(s, "__index__"):
            raise TypeError(f"seed must be an integer, got {s!r}")
        if not 0 <= operator.index(s) < 2**64:
            raise ValueError(f"seed {s} is outside [0, 2**64)")
    return np.array([operator.index(s) for s in seeds], dtype=np.uint64)


def _uniforms(seeds: Sequence[int] | np.ndarray, n: int) -> np.ndarray:
    """Row t holds the first n outputs of SplitMix64 seeded with ``seeds[t]``,
    each scaled to [0, 1) as ``Generator.random`` scales a 64-bit word: its
    top 53 bits times 2**-53.

    Output d of seed s mixes the state s + (d + 1) * _GAMMA mod 2**64, so
    every output of every seed is one array pass in wrapping uint64
    arithmetic. Seeds must lie in [0, 2**64).
    """
    seeds = _seed_array(seeds)
    steps = np.arange(1, n + 1, dtype=np.uint64) * _GAMMA
    out = np.empty((len(seeds), n))
    for start in range(0, len(seeds), _SEED_BLOCK):
        block = slice(start, start + _SEED_BLOCK)
        z = seeds[block, None] + steps
        # the reference output function: xor-shift-multiply twice, xor-shift
        z ^= z >> _S30
        z *= _MULT1
        z ^= z >> _S27
        z *= _MULT2
        z ^= z >> _S31
        out[block] = (z >> _S11) * 2.0**-53
    return out


class Walk(NamedTuple):
    """The distinct leaves a walk reached, in ascending code order. Leaf i's
    path is ``outcomes[i]``: one KIND_ORDER index (``BellKind.code``) per
    measured pair, in measurement order; its row of ``leaves`` is Bob's state
    on qubits 1..n. A sampled walk follows one :func:`_uniforms` row per trial."""

    outcomes: np.ndarray  # (leaves, depth) integers: row i holds leaf i's codes
    probabilities: np.ndarray  # entry i: leaf i's probability
    leaves: np.ndarray  # row i: leaf i's normalized residual
    trial_leaf: np.ndarray | None  # sampled walks: the leaf each trial reached


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


def _reached(child: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of ``child`` (each in [0, size)) in ascending
    order, and each entry's index into them."""
    reached = np.zeros(size, dtype=bool)
    reached[child] = True
    return np.flatnonzero(reached), (np.cumsum(reached) - 1)[child]


def _check_children(
    born: np.ndarray, codes: np.ndarray | None, pair: tuple[int, int]
) -> None:
    """:func:`_check_possible` for each kept child, in child order. Child i's
    code is ``codes[i]``, or i itself when every child is kept (``None``)."""
    if born.min() <= EXACT_TOL:
        i = np.flatnonzero(born <= EXACT_TOL)[0]
        code = i if codes is None else codes[i]
        _check_possible(float(born[i]), KIND_ORDER[int(code) & 3], pair)


@functools.cache
def _enumerated(n: int) -> np.ndarray:
    """Read-only (4**n, n) outcome codes of an n-level enumeration, by leaf."""
    codes = np.arange(4**n)[:, None] >> np.arange(2 * n - 2, -1, -2) & 3
    codes.setflags(write=False)
    return codes


# _LEVEL_FACTORS[K, k, b]: 2**-1/2 times child k's sign at Bob's bit b under a
# channel pair of kind K, row b's nonzero in A_K conj(A_k) (A: 2x2 Bell amps)
_AMPS = np.array([_BELL_AMPS[k] for k in KIND_ORDER]).reshape(4, 2, 2)
_LEVEL_FACTORS = _SQRT1_2 * np.sign(np.einsum("Kba,kac->Kkb", _AMPS, _AMPS.conj()).real)


@functools.cache
def _level_tables(code: int, width: int, depth: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only tables of level ``depth`` over rows of ``width`` amplitudes and
    a channel pair of kind code ``code``: amplitude i of a node's (4, width)
    children is amplitude ``index[i]`` of the node, and float j of the children
    is then multiplied by ``factors[j]``, that child's +-2**-1/2 at Bob's bit."""
    shape = (4, 2**depth, 2, width >> (depth + 1))  # child, Bob's bits, bit d, rest
    k, bob, bit, rest = np.indices(shape, sparse=True)
    # children 2f and 2f + 1 read bit d straight, the other two reversed
    index = ((2 * bob + (bit ^ (k >> 1 != code >> 1))) * shape[3] + rest).ravel()
    signs = _LEVEL_FACTORS[code].reshape(4, 1, 2, 1, 1)
    factors = np.broadcast_to(signs, shape + (2,)).ravel()
    for table in (index, factors):
        table.setflags(write=False)
    return index, factors


def _channel_level(
    level: np.ndarray, kind: BellKind, depth: int
) -> tuple[np.ndarray, np.ndarray]:
    """Level ``depth`` = d of the walk: channel pair (d+1, n+d+1) of ``kind``
    joined onto each row of ``level`` and (n+d+1, 2n+d+1) measured, as the
    (N, 4, 2**n) residuals and (N, 4) Born probabilities. Each row holds Bob's
    qubits 1..d, then client qubits 2n+d+1..3n, so the measured client qubit
    sits at axis d and Bob's qubit d+1 takes its place: child k is the node,
    that axis reversed where the kinds' codes differ in their high bit, times
    +-2**-1/2 twice, the join's and projection's roundings (their bits but for
    the sign of an exact zero). No joined row is built: the node's floats are
    multiplied by 2**-1/2, one ``take`` through :func:`_level_tables`' index
    lays out all four children, and one in-place multiply by its row of
    factors signs them."""
    rows_in, width = level.shape
    index, factors = _level_tables(kind.code, width, depth)
    scaled = (level.view(np.float64) * _SQRT1_2).view(complex)
    flat = scaled.take(index, axis=1).view(np.float64)
    flat *= factors
    flat = flat.reshape(rows_in, 4, -1)
    return flat.view(complex), np.einsum("nki,nki->nk", flat, flat)


def walk_branches(
    kinds: Sequence[BellKind],
    vec: np.ndarray,
    seeds: Sequence[int] | np.ndarray | None = None,
) -> Walk:
    """Every branch of the teleportation over a channel of ``kinds`` (no
    ``seeds``), or one sampled path per seed, from the client's 2**n canonical
    amplitudes ``vec``, a 1-D complex128 array (any other shape or dtype
    raises). Level d is one :func:`_channel_level` call for all of its
    distinct nodes, the rows of one array, so neither the total state nor a
    joined node is made.

    Trial t's draws are row t of :func:`_uniforms` for ``seeds[t]``, checked
    before any level; draw d picks its child at depth d as :func:`sample_kind`
    picks from ``rng.random()``. Two or more trials pick as array work
    (:func:`_pick_rows`); one trial picks with :func:`_pick`, bit for bit the
    same at less cost. Each reached child is kept once, so trials that share
    a prefix share its nodes. Every level keeps its children in ascending
    child index, so every walk lists its leaves in code order and a sampled
    walk is bit for bit the enumerate walk's rows at the codes its trials
    reach. A leaf's probability is the product of its per-pair Born
    probabilities. A sampled node carries its path as one base-4 code,
    ``4 * parent + k``, expanded into ``outcomes`` at the end; an enumerate
    walk's leaf i has code i, so its ``outcomes`` are :func:`_enumerated`'s.
    """
    n = len(kinds)
    if vec.shape != (2**n,):
        raise ValueError(f"need {2**n} client amplitudes, got shape {vec.shape}")
    if vec.dtype != np.complex128:  # each level reads it through a float64 view
        raise TypeError(f"client amplitudes must be complex128, got dtype {vec.dtype}")
    vec = np.ascontiguousarray(vec)  # e.g. a strided view, for that float64 view
    draws = None if seeds is None else _uniforms(seeds, n)
    level = vec.reshape(1, -1)
    codes = None if draws is None else np.zeros(1, dtype=np.intp)
    probabilities = np.array([1.0])
    trial_node = None if draws is None else np.zeros(len(draws), dtype=np.intp)
    for depth, kind in enumerate(kinds):
        rows, probs = _channel_level(level, kind, depth)
        # child 4 * i + k is node i's child for KIND_ORDER[k]; the previous
        # level goes here, so at most two levels are held at once
        level, born = rows.reshape(-1, rows.shape[-1]), probs.reshape(-1)
        del rows
        if draws is None:
            probabilities = (probabilities[:, None] * probs).ravel()
        else:
            if len(draws) == 1:  # the one trial is at node 0
                picked = np.array([_pick(probs[0].tolist(), float(draws[0, depth]))])
            else:
                picked, trial_node = _reached(
                    _pick_rows(probs, trial_node, draws[:, depth]), len(level)
                )
            parent, level, born = picked >> 2, level[picked], born[picked]
            codes = 4 * codes[parent] + (picked & 3)
            probabilities = probabilities[parent] * born
        _check_children(born, codes, (n + depth + 1, 2 * n + depth + 1))
        _normalize(level, born)
    shifts = np.arange(2 * n - 2, -1, -2)  # pair d's 2 bits, highest first
    outcomes = _enumerated(n) if codes is None else codes[:, None] >> shifts & 3
    return Walk(outcomes, probabilities, level, trial_node)
