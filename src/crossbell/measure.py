"""Projective Bell measurement of a qubit pair inside a larger pure state.

Sampling uses numpy's default PCG64 generator; a 64-bit seed fully determines
every outcome sequence drawn from it.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .bell import _BELL_AMPS, _SQRT1_2, KIND_ORDER, BellKind, BellOutcome
from .statevec import EXACT_TOL, MissingQubit, PureState, canonicalize


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


def _normalize(rows: np.ndarray, norms: Sequence[float]) -> None:
    """Divide each row in place by the root of its squared norm."""
    flat = rows.view(np.float64)
    flat /= np.sqrt(norms)[:, None]


class Walk(NamedTuple):
    """The distinct leaves a walk reached, in order of first appearance."""

    qubits: tuple[int, ...]  # left unmeasured, the same for every leaf
    outcomes: list[tuple[BellKind, ...]]
    probabilities: list[float]
    leaves: np.ndarray  # row i: leaf i's normalized residual
    trial_leaf: list[int] | None  # sampled walks: the leaf each trial reached


def walk_branches(
    qubits: tuple[int, ...],
    vec: np.ndarray,
    pairs: Sequence[tuple[int, int]],
    draws: Sequence[Sequence[float]] | None = None,
) -> Walk:
    """Measure ``pairs`` in turn on a normalized canonical vector, one level
    of the outcome tree at a time.

    A level holds its distinct nodes as the rows of one array and contracts
    its pair for all of them in one :func:`_contract` call. Without ``draws``
    every node keeps its four children, so the leaves come in lexicographic
    KIND_ORDER. With them, trial t follows one path: ``draws[t][d]`` picks
    its child at depth d as :func:`sample_kind` picks from ``rng.random()``.
    Only the children some trial reaches are kept, so trials that share a
    prefix share its nodes. A leaf's probability is the product of its
    per-pair Born probabilities.
    """
    level = vec.reshape(1, -1)
    outcomes: list[tuple[BellKind, ...]] = [()]
    probabilities = [1.0]
    trial_node = None if draws is None else [0] * len(draws)
    for depth, pair in enumerate(pairs):
        qubits, rows, probs = _contract(qubits, level, pair)
        table = probs.tolist()
        # child 4 * i + k is node i's child for KIND_ORDER[k]; the previous
        # level goes here, so at most two levels are held at once
        level = rows.reshape(-1, rows.shape[-1])
        del rows
        if trial_node is None:
            picked = range(len(level))
        else:
            index: dict[int, int] = {}
            for t, node in enumerate(trial_node):
                child = 4 * node + _pick(table[node], draws[t][depth])
                trial_node[t] = index.setdefault(child, len(index))
            picked = list(index)
            level = level[picked]
        born = [table[c >> 2][c & 3] for c in picked]
        for c, p in zip(picked, born):
            _check_possible(p, KIND_ORDER[c & 3], pair)
        outcomes = [outcomes[c >> 2] + (KIND_ORDER[c & 3],) for c in picked]
        probabilities = [probabilities[c >> 2] * p for c, p in zip(picked, born)]
        _normalize(level, born)
    return Walk(qubits, outcomes, probabilities, level, trial_node)
