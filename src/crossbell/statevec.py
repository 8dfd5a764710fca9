"""Dense state-vector arithmetic over labeled qubits.

States carry an explicit qubit-id order. The amplitude index is read as a
binary number whose most significant bit belongs to the *first* qubit in the
order list; for canonical states (ids ascending) the MSB therefore belongs to
the smallest id. ``tensor`` concatenates orders without sorting, so a product
state remembers which factor came first; ``canonicalize`` (and ``cross``,
which is tensor-then-canonicalize) restores ascending id order by permuting
amplitudes.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence, TextIO

import numpy as np

# The two tolerances: one arithmetic step (normalization, Gram matrices,
# probabilities) and a chained pipeline (fidelities, transfer factorizations).
EXACT_TOL = 1e-12
CHAIN_TOL = 1e-9


def _close(a, b, tol: float) -> bool:
    """max |a - b| <= tol: the one comparison rule, absolute, with no relative term."""
    return bool(np.abs(np.subtract(a, b)).max() <= tol)

SIGMA_0 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


class StateError(Exception):
    """Base class for state construction and manipulation errors."""


class DuplicateQubit(StateError):
    pass


class QubitCollision(StateError):
    pass


class QubitSetMismatch(StateError):
    pass


class MissingQubit(StateError):
    pass


class NormalizationError(StateError):
    pass


def _validated(
    qubits: Sequence[int], amps, ndim: int
) -> tuple[tuple[int, ...], np.ndarray]:
    """The checks every PureState passes, run once over a whole block.

    ``amps`` is one state's amplitudes (``ndim`` 1) or a (k, 2**n) block with
    one state per row (``ndim`` 2). Returns the ids as ints and a (k, 2**n)
    view of ``amps``, copied only if not complex C-order. The caller hands
    ``amps`` over: it, and a view's base, are marked read-only in place."""
    # zero qubits is legal: the scalar left after measuring everything
    try:
        ids = tuple(map(operator.index, qubits))
    except TypeError:
        raise StateError(f"qubit ids must be integers, got {qubits}") from None
    if any(q < 1 for q in ids):
        raise StateError(f"qubit ids must be positive, got {ids}")
    if len(set(ids)) != len(ids):
        raise DuplicateQubit(f"repeated qubit id in {ids}")
    amps = np.asarray(amps, dtype=complex, order="C")
    dim = 2 ** len(ids)
    if amps.ndim != ndim or amps.shape[-1:] != (dim,):
        raise StateError(
            f"expected {dim} amplitudes for {len(ids)} qubits, got shape {amps.shape}"
        )
    flat = amps.reshape(-1, dim).view(np.float64)
    norms = np.einsum("ki,ki->k", flat, flat)
    deviation = abs(norms - 1.0)
    # a row with a non-finite amplitude has a NaN or infinite deviation, so
    # it fails this test too
    if not deviation.max(initial=0.0) <= EXACT_TOL:
        if not np.isfinite(flat).all():
            raise StateError("amplitudes must be finite")
        raise NormalizationError(
            f"squared norm {float(norms[deviation > EXACT_TOL][0])!r} "
            f"outside 1 +/- {EXACT_TOL}; "
            "use PureState.renormalized to accept unnormalized input"
        )
    amps.setflags(write=False)
    if isinstance(amps.base, np.ndarray):  # else a view's flag could be set back
        amps.base.setflags(write=False)
    return ids, amps.reshape(-1, dim)


@dataclass(frozen=True, eq=False, slots=True)
class PureState:
    """Normalized complex amplitude vector over an ordered tuple of qubit ids.

    ``qubits`` may be non-ascending (a raw tensor product); most consumers
    want canonical (ascending) order, see :func:`canonicalize`. ``amps`` is a
    read-only copy of the amplitudes it was built from.
    """

    qubits: tuple[int, ...]
    amps: np.ndarray

    def __post_init__(self) -> None:
        qubits, block = _validated(self.qubits, np.array(self.amps, dtype=complex), 1)
        object.__setattr__(self, "qubits", qubits)
        object.__setattr__(self, "amps", block[0])

    @classmethod
    def renormalized(cls, qubits: Sequence[int], amps: np.ndarray) -> "PureState":
        """Escape hatch: scale ``amps`` to unit norm before constructing."""
        amps = np.asarray(amps, dtype=complex)
        norm = float(np.linalg.norm(amps))
        if norm <= EXACT_TOL:
            raise NormalizationError("cannot renormalize a (near-)zero vector")
        return cls(tuple(qubits), amps / norm)

    @property
    def n_qubits(self) -> int:
        return len(self.qubits)

    @property
    def dim(self) -> int:
        return len(self.amps)

    @property
    def is_canonical(self) -> bool:
        return all(a < b for a, b in zip(self.qubits, self.qubits[1:]))

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))


def _row_states(qubits: tuple[int, ...], rows: Sequence[np.ndarray]) -> list[PureState]:
    """States over rows of blocks :func:`_validated` passed: no check, no copy.
    Each slot is set through its class descriptor, past the frozen setattr."""
    set_qubits, set_amps = PureState.qubits.__set__, PureState.amps.__set__
    states = [object.__new__(PureState) for _ in range(len(rows))]
    for state, row in zip(states, rows):
        set_qubits(state, qubits)
        set_amps(state, row)
    return states


def ket(assignments: Mapping[int, int]) -> PureState:
    """Computational basis state |b_q ...> from a qubit-id -> bit map.

    Qubits come out sorted ascending; the amplitude sits at the index whose
    binary digits, MSB first, are the bits of the ids in ascending order.
    """
    if not assignments:
        raise StateError("ket needs at least one qubit assignment")
    try:
        bits = {operator.index(q): operator.index(b) for q, b in assignments.items()}
    except TypeError:
        raise StateError(f"ids and bits must be integers: {assignments}") from None
    if len(bits) != len(assignments):
        raise DuplicateQubit(f"repeated qubit id in {assignments}")
    qubits = sorted(bits)
    index = 0
    for q in qubits:
        if bits[q] not in (0, 1):
            raise StateError(f"bit for qubit {q} must be 0 or 1, got {bits[q]}")
        index = (index << 1) | bits[q]
    amps = np.zeros(2 ** len(qubits), dtype=complex)
    amps[index] = 1.0
    return PureState(tuple(qubits), amps)


def tensor(a: PureState, b: PureState) -> PureState:
    """Tensor product preserving factor order: result order is a's then b's."""
    overlap = set(a.qubits) & set(b.qubits)
    if overlap:
        raise QubitCollision(f"qubit ids present in both factors: {sorted(overlap)}")
    return PureState(a.qubits + b.qubits, np.kron(a.amps, b.amps))


def canonicalize(s: PureState) -> PureState:
    """Permute amplitudes so the qubit order becomes ascending."""
    if s.is_canonical:
        return s
    perm = np.argsort(s.qubits)
    reshaped = s.amps.reshape([2] * s.n_qubits)
    return PureState(
        tuple(sorted(s.qubits)), np.transpose(reshaped, axes=perm).reshape(-1)
    )


def cross(*states: PureState) -> PureState:
    """Tensor product returned in ascending qubit order (left fold if n-ary)."""
    if not states:
        raise StateError("cross needs at least one state")
    acc = states[0]
    for s in states[1:]:
        acc = tensor(acc, s)
    return canonicalize(acc)


def inner(a: PureState, b: PureState) -> complex:
    """<a|b> over identical qubit sets (orders are canonicalized internally)."""
    if set(a.qubits) != set(b.qubits):
        raise QubitSetMismatch(
            f"qubit sets differ: {sorted(a.qubits)} vs {sorted(b.qubits)}"
        )
    return complex(np.vdot(canonicalize(a).amps, canonicalize(b).amps))


def fidelity(a: PureState, b: PureState) -> float:
    """|<a|b>|^2: 1 iff the states agree up to a global phase."""
    return abs(inner(a, b)) ** 2


def is_unitary2(u: np.ndarray) -> bool:
    """u u^dagger equals I to within EXACT_TOL."""
    u = np.asarray(u, dtype=complex)
    return u.shape == (2, 2) and _close(u @ u.conj().T, SIGMA_0, EXACT_TOL)


def apply_local(
    s: PureState, targets: Iterable[tuple[int, np.ndarray]]
) -> PureState:
    """Apply single-qubit unitaries to the named qubits, identity elsewhere."""
    gates: dict[int, np.ndarray] = {}
    for q, u in targets:
        if q not in s.qubits:
            raise MissingQubit(f"qubit {q} not in state over {s.qubits}")
        if q in gates:
            raise DuplicateQubit(f"qubit {q} targeted twice")
        u = np.asarray(u, dtype=complex)
        if not is_unitary2(u):
            raise StateError(f"matrix for qubit {q} is not a 2x2 unitary")
        gates[q] = u
    psi = s.amps
    for q, u in gates.items():
        # (2, 2) @ (before, 2, after) acts on the target's axis alone
        psi = u @ psi.reshape(2 ** s.qubits.index(q), 2, -1)
    return PureState(s.qubits, psi.reshape(-1))


# --- state file format (text, bit-exact round-trip) ---

_STATE_MAGIC = "crossbell-state v1"


def save_state(s: PureState, fp: TextIO) -> None:
    """Write a canonical state as text: header, id line, then re/im pairs."""
    s = canonicalize(s)
    fp.write(_STATE_MAGIC + "\n")
    fp.write("qubits " + " ".join(str(q) for q in s.qubits) + "\n")
    for amp in s.amps:
        fp.write(f"{float(amp.real)!r} {float(amp.imag)!r}\n")


def load_state(fp: TextIO) -> PureState:
    lines = [ln.strip() for ln in fp.read().splitlines() if ln.strip()]
    if not lines or lines[0] != _STATE_MAGIC:
        raise StateError(f"missing '{_STATE_MAGIC}' header")
    # a state over zero qubits has an id line of just "qubits"
    if len(lines) < 2 or lines[1].partition(" ")[0] != "qubits":
        raise StateError("missing 'qubits' line")
    qubits = tuple(int(tok) for tok in lines[1].split()[1:])
    body = lines[2:]
    if len(body) != 2 ** len(qubits):
        raise StateError(
            f"expected {2 ** len(qubits)} amplitude lines, got {len(body)}"
        )
    amps = np.empty(len(body), dtype=complex)
    for i, ln in enumerate(body):
        parts = ln.split()
        if len(parts) != 2:
            raise StateError(f"amplitude line {i + 1} must be 're im'")
        amps[i] = complex(float(parts[0]), float(parts[1]))
    return PureState(qubits, amps)
