"""Bell states, the one Bell-pair kernel, cross-Bell bases and expansions, and
the reference correction table.

Naming note: PSI_PLUS/PSI_MINUS pair |00> and |11>, PHI_PLUS/PHI_MINUS pair
|01> and |10>. Much of the literature swaps the Psi and Phi names; this
convention is normative downstream (wire encoding, CLI flags, tables).
"""
from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from importlib import resources
from itertools import product
from typing import Iterator, Sequence

import numpy as np

from .statevec import (
    CHAIN_TOL,
    SIGMA_0,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    DuplicateQubit,
    PureState,
    QubitSetMismatch,
    _close,
    canonicalize,
    cross,
)

_SQRT1_2 = 1.0 / np.sqrt(2.0)


class BellKind(enum.Enum):
    """The four Bell kinds, in the fixed lexicographic slot order."""

    PSI_PLUS = "psi+"
    PSI_MINUS = "psi-"
    PHI_PLUS = "phi+"
    PHI_MINUS = "phi-"

    @property
    def token(self) -> str:
        return self.value

    @property
    def code(self) -> int:
        """2-bit outcome and wire code: psi+=00, psi-=01, phi+=10, phi-=11."""
        return KIND_ORDER.index(self)

    @classmethod
    def from_token(cls, token: str) -> "BellKind":
        try:
            return cls(token.strip().lower())
        except ValueError:
            raise ValueError(
                f"unknown Bell kind {token!r}; expected one of "
                f"{[k.value for k in cls]}"
            ) from None


# The member order is the code order: KIND_ORDER[code] is that code's kind.
KIND_ORDER: tuple[BellKind, ...] = tuple(BellKind)

# 4-dim amplitude patterns over |00>,|01>,|10>,|11> of an (a,b) pair, a < b.
_BELL_AMPS = {
    BellKind.PSI_PLUS: np.array([1, 0, 0, 1], dtype=complex) * _SQRT1_2,
    BellKind.PSI_MINUS: np.array([1, 0, 0, -1], dtype=complex) * _SQRT1_2,
    BellKind.PHI_PLUS: np.array([0, 1, 1, 0], dtype=complex) * _SQRT1_2,
    BellKind.PHI_MINUS: np.array([0, 1, -1, 0], dtype=complex) * _SQRT1_2,
}


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
    # psi+- pair |00> with +-|11>, phi+- pair |01> with +-|10> (_BELL_AMPS):
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


@dataclass(frozen=True)
class BellOutcome:
    """A Bell kind attached to the measured qubit pair."""

    pair: tuple[int, int]
    kind: BellKind

    def __post_init__(self) -> None:
        if self.pair[0] == self.pair[1]:
            raise DuplicateQubit(f"measured pair must be distinct, got {self.pair}")


ChannelSpec = tuple[BellKind, ...]


def parse_channel(text: str) -> ChannelSpec:
    """Parse a comma-separated kind list, e.g. 'phi+,phi-'; an empty position
    raises rather than being skipped."""
    tokens = text.split(",")
    for position, tok in enumerate(tokens, 1):
        if not tok.strip():
            raise ValueError(f"empty Bell kind at position {position} in {text!r}")
    return tuple(BellKind.from_token(tok) for tok in tokens)


def bell_state(kind: BellKind, pair: tuple[int, int]) -> PureState:
    """The canonical two-qubit Bell state of the given kind on ``pair``."""
    a, b = pair
    if a == b:
        raise DuplicateQubit(f"Bell pair needs two distinct qubits, got {pair}")
    state = PureState((min(a, b), max(a, b)), _BELL_AMPS[kind])
    return state


def cross_bell_state(
    kinds: Sequence[BellKind], pairs: Sequence[tuple[int, int]]
) -> PureState:
    """Cross product of per-pair Bell states, in ascending qubit order."""
    if len(kinds) != len(pairs):
        raise ValueError(f"{len(kinds)} kinds for {len(pairs)} pairs")
    return cross(*(bell_state(k, p) for k, p in zip(kinds, pairs)))


def kind_tuples(n: int) -> Iterator[tuple[BellKind, ...]]:
    """All 4**n kind combinations in lexicographic slot order."""
    return product(KIND_ORDER, repeat=n)


def cross_bell_basis(pairs: Sequence[tuple[int, int]]) -> list[PureState]:
    """All 4**n cross-Bell states for the given disjoint pairs."""
    return [cross_bell_state(kinds, pairs) for kinds in kind_tuples(len(pairs))]


def cross_bell_coefficients(
    s: PureState, pairs: Sequence[tuple[int, int]]
) -> np.ndarray:
    """Coefficients <T|s> of ``s`` in the cross-Bell basis of ``pairs``, in
    kind_tuples order: one unnormalized :func:`_contract` per pair, and no
    basis state is built. They satisfy Parseval and reconstruct ``s``."""
    if sorted(q for p in pairs for q in p) != sorted(s.qubits):
        raise QubitSetMismatch(
            f"state over {sorted(s.qubits)} does not live on pairs {list(pairs)}"
        )
    s = canonicalize(s)
    qubits, level = s.qubits, s.amps.reshape(1, -1)
    for pair in pairs:
        qubits, rows, _ = _contract(qubits, level, pair)
        level = rows.reshape(-1, rows.shape[-1])
    return level[:, 0]


def expand_in_cross_bell(
    s: PureState, pairs: Sequence[tuple[int, int]]
) -> dict[tuple[BellKind, ...], complex]:
    """The coefficients of :func:`cross_bell_coefficients`, keyed by kind tuple."""
    coefficients = cross_bell_coefficients(s, pairs).tolist()
    return dict(zip(kind_tuples(len(pairs)), coefficients))


_MATRIX_BASE = {"s0": SIGMA_0, "sx": SIGMA_X, "sy": SIGMA_Y, "sz": SIGMA_Z}


def pauli(name: str) -> np.ndarray:
    """Pauli matrix by short name: one of '0', 'x', 'y', 'z'."""
    try:
        return _MATRIX_BASE["s" + name].copy()
    except KeyError:
        raise ValueError(f"unknown Pauli name {name!r}") from None


_MATRIX_TOKEN_RE = re.compile(r"^(-?)(i\*)?(s[0xyz])$")


def parse_matrix_token(token: str) -> np.ndarray:
    """Parse tokens like 'sx', '-s0', 'i*sy' into 2x2 matrices."""
    m = _MATRIX_TOKEN_RE.match(token.strip())
    if not m:
        raise ValueError(f"bad matrix token {token!r}")
    sign, imag, base = m.groups()
    mat = _MATRIX_BASE[base].copy()
    if imag:
        mat = 1j * mat
    if sign:
        mat = -mat
    return mat


def format_matrix_token(mat: np.ndarray) -> str:
    """Inverse of :func:`parse_matrix_token` for signed (i-)Pauli matrices."""
    for base, ref in _MATRIX_BASE.items():
        for prefix, factor in (("", 1), ("-", -1), ("i*", 1j), ("-i*", -1j)):
            if _close(mat, factor * ref, CHAIN_TOL):
                return prefix + base
    raise ValueError("matrix is not a signed (i-)Pauli")


CorrectionTable = dict[tuple[int, BellKind], np.ndarray]


def _read_data_lines(name: str) -> list[list[str]]:
    text = resources.files("crossbell.data").joinpath(name).read_text()
    rows = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append(line.split())
    return rows


def paper_correction_table() -> CorrectionTable:
    """The reference correction assignment for the (phi+, phi-) channel.

    Loaded verbatim from the shipped reference table; slot 0 keys the first
    measured pair's outcome, slot 1 the second's. The oracle module audits
    this assignment against a brute-force derivation.
    """
    table: CorrectionTable = {}
    for _, slot, kind, token in _read_data_lines("printed_eq7.txt"):
        table[(int(slot), BellKind.from_token(kind))] = parse_matrix_token(token)
    if len(table) != 8:
        raise ValueError(f"expected 8 reference correction entries, got {len(table)}")
    return table
