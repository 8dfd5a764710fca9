"""Brute-force ground truth: transfer matrices, correction derivation, and
an audit of the shipped reference tables.

Nothing here trusts the reference data. Corrections are recovered by joining
the channel with all 2^n client basis states, the columns of one array, and
projecting them with the oracle's own tensordot (not the walker's kernel),
then factoring each transfer matrix into signed Pauli slots. The audit diffs
each reference table entry against that derivation and freezes the verdicts
(see data/divergence_golden.json).
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import reduce
from importlib import resources
from itertools import product
from typing import Sequence

import numpy as np

from .bell import (
    KIND_ORDER,
    BellKind,
    ChannelSpec,
    _read_data_lines,
    expand_in_cross_bell,
    format_matrix_token,
    kind_tuples,
    paper_correction_table,
)
from .measure import _project_raw
from .statevec import (
    CHAIN_TOL,
    EXACT_TOL,
    SIGMA_0,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    PureState,
    canonicalize,
    ket,
)
from .teleport import ProtocolLayout, prepare_channel


class FactorizationFailure(Exception):
    """A transfer matrix did not factor into signed Pauli slots."""


class ArityError(Exception):
    """An operation got a state with the wrong number of qubits."""


# Canonical slot representatives: first nonzero entry (row-major) is +1.
_SLOT_REPS = {
    "s0": SIGMA_0,
    "sx": SIGMA_X,
    "i*sy": 1j * SIGMA_Y,
    "sz": SIGMA_Z,
}


def transfer_matrix(
    kinds: ChannelSpec, outcome: tuple[BellKind, ...]
) -> np.ndarray:
    """Map from client basis coefficients to Bob's unnormalized collapsed
    coefficients, for a fixed channel and measurement outcome."""
    layout = ProtocolLayout(len(kinds))
    channel = prepare_channel(kinds)
    # column j joins client |j>; the channel ids lie below the client ids
    qubits = channel.qubits + layout.client_ids
    columns = np.kron(channel.amps[:, None], np.eye(2**layout.n))
    for pair, kind in zip(layout.measure_pairs, outcome):
        qubits, columns = _project_raw(qubits, columns, pair, kind)
    return columns


def _proportionality(a: np.ndarray, b: np.ndarray) -> complex | None:
    """Scalar c with a == c * b to within CHAIN_TOL, or None."""
    flat_b = b.reshape(-1)
    idx = np.argmax(np.abs(flat_b))
    if abs(flat_b[idx]) <= CHAIN_TOL:
        return None
    c = complex(a.reshape(-1)[idx] / flat_b[idx])
    return c if np.allclose(a, c * b, atol=CHAIN_TOL) else None


def _unit_ratio(scaled: np.ndarray, factors: Sequence[np.ndarray]) -> complex | None:
    """Unit scalar c with scaled == c * (left kron fold of factors), or None."""
    ratio = _proportionality(scaled, reduce(np.kron, factors))
    if ratio is not None and abs(abs(ratio) - 1.0) <= CHAIN_TOL:
        return ratio
    return None


def _factor_signed_paulis(
    scaled: np.ndarray, n: int
) -> tuple[list[np.ndarray], complex]:
    """Factor a unitary into canonical slot matrices and a residual phase."""
    for combo in product(_SLOT_REPS.values(), repeat=n):
        ratio = _unit_ratio(scaled, combo)
        if ratio is not None:
            return [m.copy() for m in combo], ratio
    raise FactorizationFailure("no signed Pauli product matches the transfer")


def derive_correction(
    kinds: ChannelSpec, outcome: tuple[BellKind, ...]
) -> list[np.ndarray]:
    """Per-slot correction matrices for one outcome, derived from scratch.

    Slots 1..n-1 are canonical signed Paulis (first nonzero entry +1); slot 0
    carries the residual phase so the exact tensor product reproduces the
    scaled transfer matrix.
    """
    n = len(kinds)
    scaled = (2**n) * transfer_matrix(kinds, tuple(outcome))
    if not np.allclose(scaled @ scaled.conj().T, np.eye(2**n), atol=CHAIN_TOL):
        raise FactorizationFailure("scaled transfer matrix is not unitary")
    slots, phase = _factor_signed_paulis(scaled, n)
    slots[0] = phase * slots[0]
    return slots


def derive_correction_table(kinds: ChannelSpec) -> list[dict[BellKind, np.ndarray]]:
    """Joint per-slot tables A_m with A_0[k0] (x) ... (x) A_{n-1}[k_{n-1}]
    equal to every scaled transfer matrix exactly.

    Gauge: the all-psi+ outcome is factored with slots 1..n-1 canonical and
    slot 0 absorbing its phase; every other entry is then forced.
    """
    n = len(kinds)
    kinds = tuple(kinds)
    baseline = (BellKind.PSI_PLUS,) * n
    base = derive_correction(kinds, baseline)
    tables: list[dict[BellKind, np.ndarray]] = [
        {BellKind.PSI_PLUS: base[m]} for m in range(n)
    ]
    for m in range(n):
        for kind in KIND_ORDER:
            if kind is BellKind.PSI_PLUS:
                continue
            outcome = tuple(
                kind if j == m else BellKind.PSI_PLUS for j in range(n)
            )
            scaled = (2**n) * transfer_matrix(kinds, outcome)
            tables[m][kind] = _solve_slot(scaled, tables, m, n)
    for outcome in kind_tuples(n):
        scaled = (2**n) * transfer_matrix(kinds, outcome)
        joint = tables[0][outcome[0]]
        for m in range(1, n):
            joint = np.kron(joint, tables[m][outcome[m]])
        if not np.allclose(joint, scaled, atol=CHAIN_TOL):
            raise FactorizationFailure(
                f"slot tables are jointly inconsistent at outcome "
                f"{[k.token for k in outcome]}"
            )
    return tables


def _solve_slot(
    scaled: np.ndarray,
    tables: list[dict[BellKind, np.ndarray]],
    m: int,
    n: int,
) -> np.ndarray:
    base = [tables[j][BellKind.PSI_PLUS] for j in range(n)]
    for rep in _SLOT_REPS.values():
        ratio = _unit_ratio(scaled, base[:m] + [rep] + base[m + 1 :])
        if ratio is not None:
            return ratio * rep
    raise FactorizationFailure(f"no signed Pauli solves slot {m}")


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
        return {
            "location": self.location,
            "printed": self.printed,
            "derived": self.derived,
            "verdict": self.verdict,
            "notes": self.notes,
        }


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

_FLIP = {
    BellKind.PSI_PLUS: BellKind.PSI_MINUS,
    BellKind.PSI_MINUS: BellKind.PSI_PLUS,
    BellKind.PHI_PLUS: BellKind.PHI_MINUS,
    BellKind.PHI_MINUS: BellKind.PHI_PLUS,
}


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


def _format_pattern(mat: np.ndarray) -> str:
    """Inverse of :func:`_parse_symbol_vector` for signed choice matrices."""
    toks = []
    for row in mat:
        idx = int(np.argmax(np.abs(row)))
        val = row[idx]
        if np.isclose(val, 1):
            toks.append("+" + _SYMBOLS[idx])
        elif np.isclose(val, -1):
            toks.append("-" + _SYMBOLS[idx])
        elif np.isclose(val, 1j):
            toks.append("+i*" + _SYMBOLS[idx])
        elif np.isclose(val, -1j):
            toks.append("-i*" + _SYMBOLS[idx])
        else:
            toks.append(f"({val})*{_SYMBOLS[idx]}")
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
    lines = _read_data_lines("printed_eq6.txt")
    label_flips = 0
    for location, k35, k46, prefactor, vector in lines:
        label = (BellKind.from_token(k35), BellKind.from_token(k46))
        printed_map = _parse_prefactor(prefactor) * _parse_symbol_vector(vector)
        printed_desc = f"{prefactor} * ({vector})"
        derived_at_label = 0.25 * scaled[label]
        derived_desc = f"1/4 * ({_format_pattern(scaled[label])})"
        if np.allclose(printed_map, derived_at_label, atol=CHAIN_TOL):
            report.entries.append(
                DivergenceEntry(location, printed_desc, derived_desc, VERDICT_MATCH)
            )
            continue
        exact = [
            lab
            for lab, mat in scaled.items()
            if np.allclose(printed_map, 0.25 * mat, atol=CHAIN_TOL)
        ]
        if exact:
            lab = exact[0]
            slot_ok = (lab[0] == _FLIP[label[0]], lab[1] == _FLIP[label[1]])
            flipped = all(slot_ok)
            if flipped:
                label_flips += 1
                note = (
                    "printed vector equals the derived branch of the +/- "
                    "flipped outcome label"
                )
            else:
                broken = "first" if slot_ok[1] else "second"
                note = (
                    f"the printed {broken}-slot label is wrong even after the "
                    "systematic +/- flip (duplicated label in the source block)"
                )
            report.entries.append(
                DivergenceEntry(
                    location,
                    printed_desc + f" labeled ({k35},{k46})",
                    f"1/4 * ({_format_pattern(scaled[lab])}) at label "
                    f"({lab[0].token},{lab[1].token})",
                    VERDICT_LABEL,
                    note,
                )
            )
            continue
        prop = None
        for lab, mat in scaled.items():
            c = _proportionality(printed_map, 0.25 * mat)
            if c is not None and abs(c.imag) <= CHAIN_TOL and c.real > 0:
                prop = (lab, c.real)
                break
        if prop is not None:
            lab, c = prop
            flipped = lab == (_FLIP[label[0]], _FLIP[label[1]])
            if flipped:
                label_flips += 1
            report.entries.append(
                DivergenceEntry(
                    location,
                    printed_desc,
                    f"1/4 * ({_format_pattern(scaled[lab])}) at label "
                    f"({lab[0].token},{lab[1].token})",
                    VERDICT_PREFACTOR,
                    f"printed coefficients are {c:g}x the derived branch"
                    + (
                        "; label is also the +/- flipped one" if flipped else ""
                    ),
                )
            )
            continue
        # No branch matches even proportionally: report the nearest by signs.
        printed_pattern = _parse_symbol_vector(vector)
        nearest = None
        for lab, mat in scaled.items():
            dist = _sign_distance(printed_pattern, mat)
            if dist is not None and (nearest is None or dist < nearest[1]):
                nearest = (lab, dist)
        note = "printed vector matches no derived branch"
        if nearest is not None:
            note += (
                f"; nearest is label ({nearest[0][0].token},{nearest[0][1].token}) "
                f"at {nearest[1]} sign flips"
            )
        report.entries.append(
            DivergenceEntry(location, printed_desc, derived_desc, VERDICT_SIGN, note)
        )
    report.summary["eq6_flip_consistent_lines"] = label_flips


def _audit_eq7(report: DivergenceReport, printed: dict, tables: list) -> None:
    for (slot, kind), mat in printed.items():
        location = f"eq7.U{'35' if slot == 0 else '46'}.{kind.token}"
        printed_desc = format_matrix_token(mat)
        derived_here = tables[slot][kind]
        derived_desc = format_matrix_token(derived_here)
        if np.allclose(mat, derived_here, atol=CHAIN_TOL):
            report.entries.append(
                DivergenceEntry(
                    location,
                    f"slot {slot}: {printed_desc}",
                    f"slot {slot}: {derived_desc}",
                    VERDICT_MATCH,
                )
            )
            continue
        other = 1 - slot
        if np.allclose(mat, tables[other][kind], atol=CHAIN_TOL):
            report.entries.append(
                DivergenceEntry(
                    location,
                    f"slot {slot}: {printed_desc}",
                    f"slot {slot}: {derived_desc}; printed matrix is exact at "
                    f"slot {other}",
                    VERDICT_LABEL,
                    "matrix is entrywise exact but assigned to the other "
                    "measurement slot",
                )
            )
            continue
        c = _proportionality(mat, derived_here)
        report.entries.append(
            DivergenceEntry(
                location,
                f"slot {slot}: {printed_desc}",
                f"slot {slot}: {derived_desc}",
                VERDICT_SIGN,
                "" if c is None else f"printed = ({c}) * derived",
            )
        )


_GROUP_KINDS = {
    "psi": (BellKind.PSI_PLUS, BellKind.PSI_MINUS),
    "phi": (BellKind.PHI_PLUS, BellKind.PHI_MINUS),
}


def _audit_eq4(report: DivergenceReport) -> None:
    pairs = ((1, 3), (2, 4))
    for location, lhs, line_sign, group1, group2 in _read_data_lines(
        "printed_eq4.txt"
    ):
        patterns = lhs.split(",")
        holds_at = []
        for i, r in product((0, 1), repeat=2):
            env = {"i": i, "r": r, "!i": 1 - i, "!r": 1 - r, "i+r": i + r}
            bits = [env[p] for p in patterns]
            state = ket({1: bits[0], 2: bits[1], 3: bits[2], 4: bits[3]})
            actual = expand_in_cross_bell(state, pairs)
            # a line sign is "+" or (-1)^e for an exponent e in env
            sign = 1.0
            if line_sign != "+":
                sign = (-1.0) ** env[line_sign[len("(-1)^") :].strip("()")]
            claimed = {
                (g1, g2): 0.5 * sign
                for g1 in _GROUP_KINDS[group1]
                for g2 in _GROUP_KINDS[group2]
            }
            ok = all(
                abs(actual.get(key, 0.0) - claimed.get(key, 0.0)) <= CHAIN_TOL
                for key in set(actual) | set(claimed)
                if abs(actual.get(key, 0.0)) > CHAIN_TOL
                or abs(claimed.get(key, 0.0)) > CHAIN_TOL
            )
            if ok:
                holds_at.append((i, r))
        printed_desc = (
            f"|{lhs}> = 1/2 {line_sign} ({group1}+ + {group1}-) x "
            f"({group2}+ + {group2}-)"
        )
        derived_desc = (
            f"|{lhs}> = 1/2 ({group1}+ + (-1)^i {group1}-) "
            f"x ({group2}+ + (-1)^r {group2}-)"
        )
        if holds_at == [(0, 0), (0, 1), (1, 0), (1, 1)]:
            report.entries.append(
                DivergenceEntry(location, printed_desc, derived_desc, VERDICT_MATCH)
            )
        else:
            report.entries.append(
                DivergenceEntry(
                    location,
                    printed_desc,
                    derived_desc,
                    VERDICT_SIGN,
                    f"printed identity holds only at (i,r) in {holds_at}; the "
                    "alternating signs must sit on the minus kinds, not on the "
                    "whole line",
                )
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
            if not np.allclose(inverse, np.kron(a.T, b.T), atol=CHAIN_TOL):
                raise FactorizationFailure(
                    "a reference correction matrix is not real orthogonal: "
                    "(U_K x U_L)^-1 != U_K^T x U_L^T"
                )
            if np.allclose(inverse, np.kron(b.T, a.T), atol=CHAIN_TOL):
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
    reference_channel = (BellKind.PHI_PLUS, BellKind.PHI_MINUS)
    scaled = {
        (k, l): 4.0 * transfer_matrix(reference_channel, (k, l))
        for k in KIND_ORDER
        for l in KIND_ORDER
    }
    tables = derive_correction_table(reference_channel)
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
