"""Projective Bell measurement of a qubit pair inside a larger pure state.

Sampling uses numpy's default PCG64 generator; a 64-bit seed fully determines
every outcome sequence drawn from it.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .bell import _BELL_AMPS, KIND_ORDER, BellKind, BellOutcome
from .statevec import MissingQubit, PureState, canonicalize

ZERO_PROB_TOL = 1e-12

# Row k holds <KIND_ORDER[k]| over (bit of the smaller id, bit of the larger).
_BELL_BRAS = np.stack([_BELL_AMPS[k].reshape(2, 2) for k in KIND_ORDER]).conj()


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
    """Projection guts on a raw (possibly unnormalized) canonical vector."""
    lo, hi = min(pair), max(pair)
    ax_lo, ax_hi = qubits.index(lo), qubits.index(hi)
    bell = _BELL_AMPS[kind].reshape(2, 2).conj()
    psi = vec.reshape([2] * len(qubits))
    residual = np.tensordot(bell, psi, axes=([0, 1], [ax_lo, ax_hi]))
    remaining = tuple(q for q in qubits if q not in (lo, hi))
    return remaining, residual.reshape(-1)


def _project_all(
    qubits: tuple[int, ...], vec: np.ndarray, pair: tuple[int, int]
) -> tuple[tuple[int, ...], np.ndarray, list[float]]:
    """All four projections of a raw canonical vector in one contraction.

    Returns the remaining qubits, a (4, 2**(n-2)) array whose row k is the
    unnormalized residual for KIND_ORDER[k], and the rows' squared norms.
    """
    lo, hi = min(pair), max(pair)
    ax_lo, ax_hi = qubits.index(lo), qubits.index(hi)
    psi = vec.reshape(2**ax_lo, 2, 2 ** (ax_hi - ax_lo - 1), 2, -1)
    rows = np.tensordot(_BELL_BRAS, psi, axes=([1, 2], [1, 3])).reshape(4, -1)
    probs = np.einsum("ki,ki->k", rows.conj(), rows).real.tolist()
    remaining = tuple(q for q in qubits if q not in (lo, hi))
    return remaining, rows, probs


def _pick(probs: Sequence[float], u: float) -> int:
    """Index of the kind the uniform draw ``u`` selects against the cumulative
    probabilities in KIND_ORDER. If rounding leaves the sum short of ``u``,
    the last kind with a probability above ZERO_PROB_TOL is taken."""
    acc = 0.0
    for k, p in enumerate(probs):
        acc += p
        if u < acc:
            return k
    return max(k for k, p in enumerate(probs) if p > ZERO_PROB_TOL)


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
    s = _check_pair(s, pair)
    _, _, probs = _project_all(s.qubits, s.amps, pair)
    return dict(zip(KIND_ORDER, probs))


def bell_collapse(
    s: PureState, pair: tuple[int, int], kind: BellKind
) -> MeasurementRecord:
    """Deterministic collapse onto ``kind``; residual is renormalized."""
    s = _check_pair(s, pair)
    remaining, rows, probs = _project_all(s.qubits, s.amps, pair)
    p = probs[kind.code]
    if p <= ZERO_PROB_TOL:
        raise ZeroProbabilityOutcome(
            f"outcome {kind.token} on pair {pair} has probability {p:.3e}"
        )
    residual = PureState(remaining, rows[kind.code] / np.sqrt(p))
    return MeasurementRecord(BellOutcome(tuple(pair), kind), p, residual)


def sample_kind(
    s: PureState, pair: tuple[int, int], rng: np.random.Generator
) -> BellKind:
    """Draw one outcome kind from the Born distribution using ``rng``."""
    s = _check_pair(s, pair)
    _, _, probs = _project_all(s.qubits, s.amps, pair)
    return KIND_ORDER[_pick(probs, rng.random())]


def bell_measure(
    s: PureState, pair: tuple[int, int], rng_seed: int
) -> MeasurementRecord:
    """Seeded random Bell measurement: sample a kind, then collapse onto it."""
    rng = np.random.default_rng(rng_seed)
    kind = sample_kind(s, pair, rng)
    return bell_collapse(s, pair, kind)


Leaf = tuple[tuple[BellKind, ...], float, tuple[int, ...], np.ndarray]


def walk_branches(
    qubits: tuple[int, ...],
    vec: np.ndarray,
    pairs: Sequence[tuple[int, int]],
    rng: np.random.Generator | None = None,
) -> Iterator[Leaf]:
    """Measure ``pairs`` in turn on a normalized canonical vector.

    Each node contracts its pair once, which gives all four children and
    their probabilities. Without ``rng`` every branch is visited, in
    lexicographic KIND_ORDER; with it, one ``rng.random()`` per pair picks
    the single child to follow, as :func:`sample_kind` does. Yields
    (outcome, probability, remaining qubits, normalized residual) per leaf;
    the probability is the product of the per-pair Born probabilities.
    """
    # an explicit stack, not a recursive closure: a closure that refers to
    # itself is a reference cycle and would hold every leaf until the cyclic GC
    stack: list[Leaf] = [((), 1.0, qubits, vec)]
    while stack:
        outcome, probability, qubits, vec = stack.pop()
        depth = len(outcome)
        if depth == len(pairs):
            yield outcome, probability, qubits, vec
            continue
        remaining, rows, probs = _project_all(qubits, vec, pairs[depth])
        if rng is None:
            picks = range(3, -1, -1)  # pushed last-first, so popped in order
        else:
            picks = (_pick(probs, rng.random()),)
        for k in picks:
            p = probs[k]
            if p <= ZERO_PROB_TOL:
                raise ZeroProbabilityOutcome(
                    f"outcome {KIND_ORDER[k].token} on pair {pairs[depth]} "
                    f"has probability {p:.3e}"
                )
            stack.append(
                (outcome + (KIND_ORDER[k],), probability * p, remaining,
                 rows[k] / np.sqrt(p))
            )
