"""Brute-force ground truth: transfer matrices, correction derivation, and
an audit of the shipped reference tables.

Nothing here trusts the reference data or runs on the walker's kernels. The
channel, built from the oracle's own Bell patterns times sqrt(2), is joined
once with all 2^n client basis states, and each measured pair is projected
onto every pattern with the oracle's own tensordot over all 3n qubits. So
each scaled transfer matrix 2^n T is an exact float64 matrix of -1, 0 and 1,
and factors exactly into signed Pauli slots. The audit diffs the reference
tables against that derivation and freezes the verdicts (see
data/divergence_golden.json); only it, comparing printed data, matches to
within CHAIN_TOL, with :func:`_ratio`.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from functools import reduce
from importlib import resources
from itertools import chain, product
from typing import Sequence

import numpy as np

from .bell import (
    KIND_ORDER,
    BellKind,
    ChannelSpec,
    _read_data_lines,
    format_matrix_token,
    kind_tuples,
    paper_correction_table,
)
from .statevec import (
    CHAIN_TOL,
    EXACT_TOL,
    PureState,
    _close,
    canonicalize,
    ket,
)


class FactorizationFailure(Exception):
    """A transfer matrix did not factor into signed Pauli slots."""


class ArityError(Exception):
    """An operation got a state with the wrong number of qubits."""

# The Bell patterns times sqrt(2), rows in KIND_ORDER, over |00>, |01>, |10>,
# |11> of a pair (lower id first): psi+- = |00> +- |11>, phi+- = |01> +- |10>.
_PATTERNS = np.array([[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]])


def _transfers(kinds: ChannelSpec, choices: Sequence[Sequence[BellKind]]) -> np.ndarray:
    """Transfer matrices of every outcome in ``product(*choices)``, from one join."""
    if not kinds:
        raise ValueError("need at least one teleported qubit, got n=0")
    if len(choices) != len(kinds):
        raise ValueError(f"{len(choices)} outcomes for {len(kinds)} channel slots")
    for role, entries in (("channel", kinds), ("outcome", chain(*choices))):
        for kind in entries:
            if not isinstance(kind, BellKind):
                raise TypeError(f"{role} kind must be a BellKind, got {kind!r}")
    n, pairs = len(kinds), _PATTERNS.reshape(4, 2, 2)
    # pair m's pattern on ids m and n+m, joined with each client basis state
    # |j> / 2**n: axes ids 1, n+1, ..., n, 2n, then 2n+1..3n, then column j
    channel = reduce(np.multiply.outer, pairs[[k.code for k in kinds]])
    columns = np.multiply.outer(channel, (np.eye(2**n) / 2**n).reshape([2] * n + [-1]))
    for m, choice in enumerate(choices):
        patterns = pairs[[k.code for k in choice]]
        # ids n+m+1, 2n+m+1: the first channel, client axes left; outcome axis last
        columns = np.tensordot(columns, patterns, axes=([m + 1, 2 * n - m], [1, 2]))
    return columns.reshape(2**n, 2**n, -1).transpose(2, 0, 1)


def transfer_matrix(kinds: ChannelSpec, outcome: tuple[BellKind, ...]) -> np.ndarray:
    """Map from client basis coefficients to Bob's unnormalized collapsed
    coefficients for a fixed channel and outcome: 2**-n times -1, 0 or 1."""
    return _transfers(kinds, [(kind,) for kind in outcome])[0]


def _ratio(a: np.ndarray, b: np.ndarray) -> complex | None:
    """Scalar c with a == c * b to within CHAIN_TOL, or None: the audits'
    one matcher."""
    flat_b = b.reshape(-1)
    idx = np.argmax(np.abs(flat_b))
    if abs(flat_b[idx]) <= CHAIN_TOL:
        return None
    c = complex(a.reshape(-1)[idx] / flat_b[idx])
    return c if _close(a, c * b, CHAIN_TOL) else None


def _corner_slot(matrix: np.ndarray, base: np.ndarray, m: int) -> np.ndarray:
    """Slot m of ``matrix``, its 2x2 slice with every other slot at base's
    corner: row 0, and that slot's bit of the column of base's one row-0
    nonzero. Slots 1..n-1 are multiplied by that nonzero, +-1, which makes
    them canonical (first nonzero entry +1) and leaves the sign on slot 0."""
    n = len(base).bit_length() - 1
    first = int(np.flatnonzero(base[0])[0])
    corner = [0] * n + [first >> (n - 1 - j) & 1 for j in range(n)]
    corner[m] = corner[n + m] = slice(None)
    sign = base[0, first] if m else 1
    return sign * matrix.reshape((2,) * 2 * n)[tuple(corner)].astype(complex)


def _factor_slots(scaled: np.ndarray) -> list[np.ndarray]:
    """Per-slot factors of one scaled transfer matrix, each read at its own
    corner (:func:`_corner_slot`), so the exact tensor product reproduces it."""
    if not np.array_equal(scaled @ scaled.conj().T, np.eye(len(scaled))):
        raise FactorizationFailure("scaled transfer matrix is not unitary")
    n = len(scaled).bit_length() - 1
    slots = [_corner_slot(scaled, scaled, m) for m in range(n)]
    integral = np.isin(scaled, (-1, 0, 1)).all()  # so each exact factor is a Pauli
    if not (integral and np.array_equal(reduce(np.kron, slots), scaled)):
        raise FactorizationFailure("no signed Pauli product matches the transfer")
    return slots


def derive_correction(
    kinds: ChannelSpec, outcome: tuple[BellKind, ...]
) -> list[np.ndarray]:
    """Per-slot corrections for one outcome, :func:`_factor_slots` of 2^n T."""
    return _factor_slots((2 ** len(kinds)) * transfer_matrix(kinds, tuple(outcome)))


def _derive_tables(kinds: ChannelSpec) -> tuple[list[dict], np.ndarray]:
    """:func:`derive_correction_table` and the 4^n scaled matrices it reads."""
    n = len(kinds)
    scaled = (2**n) * _transfers(kinds, [KIND_ORDER] * n)
    _factor_slots(scaled[0])  # the all-psi+ outcome, at whose corner all is read
    # entry (m, kind): slot m of the all-psi+ outcome with slot m's kind changed
    tables: list[dict[BellKind, np.ndarray]] = [
        {kind: _corner_slot(scaled[kind.code * 4 ** (n - 1 - m)], scaled[0], m)
         for kind in KIND_ORDER}
        for m in range(n)
    ]
    # every outcome's product in one left fold, outcome-major: each slot
    # appends one digit to the outcome, the row and the column
    joint = np.ones((1, 1, 1))
    for m, table in enumerate(tables):
        block = np.stack([table[kind] for kind in KIND_ORDER])
        joint = joint[:, None, :, None, :, None] * block[:, None, :, None, :]
        joint = joint.reshape(4 ** (m + 1), 2 ** (m + 1), -1)
    if not np.array_equal(joint, scaled):
        outcome = list(kind_tuples(n))[np.argmin((joint == scaled).all(axis=(1, 2)))]
        raise FactorizationFailure(
            f"slot tables are jointly inconsistent at outcome "
            f"{[k.token for k in outcome]}"
        )
    return tables, scaled


def derive_correction_table(kinds: ChannelSpec) -> list[dict[BellKind, np.ndarray]]:
    """Joint per-slot tables A_m with A_0[k0] (x) ... (x) A_{n-1}[k_{n-1}]
    exactly equal to every scaled transfer matrix, from one join.

    Gauge: the all-psi+ outcome is factored with slots 1..n-1 canonical and
    slot 0 absorbing its sign; every other entry is then forced.
    """
    return _derive_tables(kinds)[0]


def coefficient_matrix(state: PureState) -> np.ndarray:
    """2x2 coefficient matrix [[a, b], [g, d]] of a two-qubit state."""
    if state.n_qubits != 2:
        raise ArityError(f"need a 2-qubit state, got {state.n_qubits} qubits")
    return canonicalize(state).amps.reshape(2, 2).copy()


def is_entangled(client: PureState) -> tuple[bool, complex]:
    """Entanglement test for a two-qubit state: determinant of the
    coefficient matrix (a*d - b*g), nonzero iff entangled."""
    det = complex(np.linalg.det(coefficient_matrix(client)))
    return abs(det) > EXACT_TOL, det


# --- reference-table audit ---

VERDICT_MATCH = "match"
VERDICT_SIGN = "sign-mismatch"
VERDICT_LABEL = "label-mismatch"
VERDICT_PREFACTOR = "prefactor-mismatch"


@dataclass(frozen=True)
class DivergenceEntry:
    location: str
    printed: str
    derived: str
    verdict: str
    notes: str = ""

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass
class DivergenceReport:
    entries: list[DivergenceEntry] = field(default_factory=list)
    summary: dict = field(default_factory=dict)

    def verdict_counts(self, prefix: str) -> dict[str, int]:
        counts: dict[str, int] = {}
        for e in self.entries:
            if e.location.startswith(prefix):
                counts[e.verdict] = counts.get(e.verdict, 0) + 1
        return counts

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "entries": [e.to_json_dict() for e in self.entries],
            "summary": self.summary,
        }

    def to_text(self) -> str:
        lines = ["reference-table audit", "=" * 21, ""]
        width = max(len(e.location) for e in self.entries)
        for e in self.entries:
            lines.append(f"{e.location:<{width}}  {e.verdict}")
            lines.append(f"{'':<{width}}    printed: {e.printed}")
            lines.append(f"{'':<{width}}    derived: {e.derived}")
            if e.notes:
                lines.append(f"{'':<{width}}    note: {e.notes}")
        lines.append("")
        lines.append("summary")
        lines.append("-" * 7)
        for key, val in self.summary.items():
            lines.append(f"{key}: {val}")
        return "\n".join(lines)


_SYMBOLS = ("a", "b", "g", "d")


def _parse_symbol_vector(text: str) -> np.ndarray:
    """Pattern like '+d,+g,-b,-a' -> 4x4 signed choice matrix (rows pick a
    signed client symbol)."""
    rows = text.split(",")
    if len(rows) != 4:
        raise ValueError(f"expected 4 entries in {text!r}")
    mat = np.zeros((4, 4), dtype=complex)
    for i, tok in enumerate(rows):
        tok = tok.strip()
        sign = -1.0 if tok.startswith("-") else 1.0
        sym = tok.lstrip("+-")
        mat[i, _SYMBOLS.index(sym)] = sign
    return mat


_PHASE_SIGNS = {1: "+", -1: "-", 1j: "+i*", -1j: "-i*"}


def _format_pattern(mat: np.ndarray) -> str:
    """Inverse of :func:`_parse_symbol_vector` for signed choice matrices."""
    toks = []
    for row in mat:
        idx = int(np.argmax(np.abs(row)))
        val = row[idx]
        sign = next(
            (s for phase, s in _PHASE_SIGNS.items() if _close(val, phase, CHAIN_TOL)),
            f"({val})*",
        )
        toks.append(sign + _SYMBOLS[idx])
    return ",".join(toks)


def _parse_prefactor(text: str) -> float:
    if "/" in text:
        num, den = text.split("/")
        return float(num) / float(den)
    return float(text)


def _sign_distance(a: np.ndarray, b: np.ndarray) -> int | None:
    """Entrywise sign flips needed to turn b into a, or None if supports differ."""
    if not np.array_equal(np.abs(a) > 0.5, np.abs(b) > 0.5):
        return None
    diff = np.abs(a - b) > 0.5
    return int(np.count_nonzero(diff))


def _audit_eq6(report: DivergenceReport, scaled: dict) -> None:
    label_flips = 0
    for location, k35, k46, prefactor, vector in _read_data_lines("printed_eq6.txt"):
        label = (BellKind.from_token(k35), BellKind.from_token(k46))
        flip = tuple(KIND_ORDER[k.code ^ 1] for k in label)
        pattern = _parse_symbol_vector(vector)
        printed_map = _parse_prefactor(prefactor) * pattern
        printed_desc = f"{prefactor} * ({vector})"
        derived_desc = f"1/4 * ({_format_pattern(scaled[label])})"
        # each derived branch's positive real ratio to the printed map
        ratios = {}
        for lab, mat in scaled.items():
            c = _ratio(printed_map, 0.25 * mat)
            if c is not None and abs(c.imag) <= CHAIN_TOL and c.real > 0:
                ratios[lab] = c.real
        exact = [lab for lab, c in ratios.items() if c == 1]
        lab = exact[0] if exact else next(iter(ratios), None)
        if label in exact:
            verdict, notes = VERDICT_MATCH, ""
        elif lab is None:
            # No branch matches even proportionally: report the nearest by signs.
            verdict = VERDICT_SIGN
            notes = "printed vector matches no derived branch"
            dists = {
                branch: d
                for branch, mat in scaled.items()
                if (d := _sign_distance(pattern, mat)) is not None
            }
            if dists:
                k, l = near = min(dists, key=dists.get)
                notes += (
                    f"; nearest is label ({k.token},{l.token}) "
                    f"at {dists[near]} sign flips"
                )
        else:
            label_flips += lab == flip
            derived_desc = (
                f"1/4 * ({_format_pattern(scaled[lab])}) at label "
                f"({lab[0].token},{lab[1].token})"
            )
            if exact:
                verdict = VERDICT_LABEL
                printed_desc += f" labeled ({k35},{k46})"
                if lab == flip:
                    notes = (
                        "printed vector equals the derived branch of the +/- "
                        "flipped outcome label"
                    )
                else:
                    broken = "first" if lab[1] == flip[1] else "second"
                    notes = (
                        f"the printed {broken}-slot label is wrong even after the "
                        "systematic +/- flip (duplicated label in the source block)"
                    )
            else:
                verdict = VERDICT_PREFACTOR
                notes = f"printed coefficients are {ratios[lab]:g}x the derived branch"
                if lab == flip:
                    notes += "; label is also the +/- flipped one"
        report.entries.append(
            DivergenceEntry(location, printed_desc, derived_desc, verdict, notes)
        )
    report.summary["eq6_flip_consistent_lines"] = label_flips


def _audit_eq7(report: DivergenceReport, printed: dict, tables: list) -> None:
    for (slot, kind), mat in printed.items():
        other = 1 - slot
        printed_desc = f"slot {slot}: {format_matrix_token(mat)}"
        derived_desc = f"slot {slot}: {format_matrix_token(tables[slot][kind])}"
        c = _ratio(mat, tables[slot][kind])
        if c == 1:
            verdict, notes = VERDICT_MATCH, ""
        elif _ratio(mat, tables[other][kind]) == 1:
            verdict = VERDICT_LABEL
            derived_desc += f"; printed matrix is exact at slot {other}"
            notes = (
                "matrix is entrywise exact but assigned to the other "
                "measurement slot"
            )
        else:
            verdict = VERDICT_SIGN
            notes = "" if c is None else f"printed = ({c}) * derived"
        location = f"eq7.U{'35' if slot == 0 else '46'}.{kind.token}"
        report.entries.append(
            DivergenceEntry(location, printed_desc, derived_desc, verdict, notes)
        )


# Cross-Bell coefficients of a pair as codes: psi+, psi- then phi+, phi-.
_GROUP_CODES = {"psi": slice(0, 2), "phi": slice(2, 4)}


def _audit_eq4(report: DivergenceReport) -> None:
    pattern = _PATTERNS.reshape(4, 2, 2)  # row (k, l): kinds k, l on (1, 3), (2, 4)
    basis = 0.5 * np.einsum("kac,lbd->klabcd", pattern, pattern).reshape(16, 16)
    for location, lhs, line_sign, group1, group2 in _read_data_lines(
        "printed_eq4.txt"
    ):
        holds_at = []
        for i, r in product((0, 1), repeat=2):
            env = {"i": i, "r": r, "!i": 1 - i, "!r": 1 - r, "i+r": i + r}
            state = ket(dict(zip((1, 2, 3, 4), (env[p] for p in lhs.split(",")))))
            # <T|state> per basis state T, indexed by the two pairs' codes
            actual = (basis @ state.amps).reshape(4, 4)
            # a line sign is "+" or (-1)^e for an exponent e in env
            sign = 1.0
            if line_sign != "+":
                sign = (-1.0) ** env[line_sign[len("(-1)^") :].strip("()")]
            claimed = np.zeros((4, 4))
            claimed[_GROUP_CODES[group1], _GROUP_CODES[group2]] = 0.5 * sign
            if _close(actual, claimed, CHAIN_TOL):
                holds_at.append((i, r))
        printed_desc = (
            f"|{lhs}> = 1/2 {line_sign} ({group1}+ + {group1}-) x "
            f"({group2}+ + {group2}-)"
        )
        derived_desc = (
            f"|{lhs}> = 1/2 ({group1}+ + (-1)^i {group1}-) "
            f"x ({group2}+ + (-1)^r {group2}-)"
        )
        verdict, notes = VERDICT_MATCH, ""
        if holds_at != [(0, 0), (0, 1), (1, 0), (1, 1)]:
            verdict = VERDICT_SIGN
            notes = (
                f"printed identity holds only at (i,r) in {holds_at}; the "
                "alternating signs must sit on the minus kinds, not on the "
                "whole line"
            )
        report.entries.append(
            DivergenceEntry(location, printed_desc, derived_desc, verdict, notes)
        )


def _audit_eq9(report: DivergenceReport, printed: dict) -> None:
    claim = {
        loc: " ".join(rest)
        for loc, *rest in _read_data_lines("printed_misc.txt")
    }
    group35 = [printed[(0, k)] for k in KIND_ORDER]
    group46 = [printed[(1, k)] for k in KIND_ORDER]
    printed_holds = 0
    for a in group35:
        for b in group46:
            inverse = np.linalg.inv(np.kron(a, b))
            if not _close(inverse, np.kron(a.T, b.T), CHAIN_TOL):
                raise FactorizationFailure(
                    "a reference correction matrix is not real orthogonal: "
                    "(U_K x U_L)^-1 != U_K^T x U_L^T"
                )
            if _close(inverse, np.kron(b.T, a.T), CHAIN_TOL):
                printed_holds += 1
    report.entries.append(
        DivergenceEntry(
            "eq9.inverse",
            claim["eq9.inverse"],
            "(U_K x U_L)^-1 = U_K^T x U_L^T (slotwise transpose; all eight "
            "reference matrices are real orthogonal)",
            VERDICT_MATCH if printed_holds == 16 else VERDICT_LABEL,
            f"printed slot order holds for {printed_holds}/16 matrix pairs; "
            "the derived recovery for outcome (K, L) transposes slot 0's own "
            "correction, then slot 1's",
        )
    )
    # Entanglement criterion: exhibit a product state the printed formula
    # calls entangled and an entangled state it calls product.
    product_state = np.array([1, 2, 1, 2], dtype=complex)  # (1,1) x (1,2)
    product_state = product_state / np.linalg.norm(product_state)
    a_, b_, g_, d_ = product_state
    printed_det_product = a_ * g_ - b_ * d_
    bell_amps = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    a2, b2, g2, d2 = bell_amps
    printed_det_bell = a2 * g2 - b2 * d2
    derived_det_bell = a2 * d2 - b2 * g2
    report.entries.append(
        DivergenceEntry(
            "discussion.entanglement",
            claim["discussion.entanglement"],
            "entangled iff a*d - b*g != 0 (determinant of [[a,b],[g,d]])",
            VERDICT_LABEL,
            "printed formula swaps b and d: it is nonzero "
            f"({printed_det_product:.3f}) on the product state (1,1)x(1,2)/norm "
            f"and zero ({printed_det_bell:.1f}) on a maximally entangled state "
            f"whose determinant is {derived_det_bell:.2f}",
        )
    )


def verify_paper_tables() -> DivergenceReport:
    """Re-derive every shipped reference table and classify each entry."""
    tables, matrices = _derive_tables((BellKind.PHI_PLUS, BellKind.PHI_MINUS))
    scaled = dict(zip(kind_tuples(2), matrices))
    printed = paper_correction_table()
    report = DivergenceReport()
    _audit_eq6(report, scaled)
    _audit_eq7(report, printed, tables)
    _audit_eq4(report)
    _audit_eq9(report, printed)
    report.summary["eq6_verdicts"] = report.verdict_counts("eq6.")
    report.summary["eq7_verdicts"] = report.verdict_counts("eq7.")
    report.summary["eq4_verdicts"] = report.verdict_counts("eq4.")
    report.summary["systematic"] = (
        "every structurally consistent eq6 line carries the +/- flipped outcome "
        "label (equivalently: the printed table is the true expansion for the "
        "(phi-,phi+) channel); eq7's two slot groups are exchanged"
    )
    return report


def load_golden() -> dict:
    text = resources.files("crossbell.data").joinpath("divergence_golden.json")
    return json.loads(text.read_text())


def matches_golden(report: DivergenceReport, golden: dict | None = None) -> bool:
    if golden is None:
        golden = load_golden()
    return report.to_json_dict() == golden
