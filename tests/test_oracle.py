from __future__ import annotations

import hashlib
import json
import tracemalloc
from functools import reduce
from itertools import product

import numpy as np
import pytest

from crossbell import oracle
from crossbell.bell import (
    KIND_ORDER,
    BellKind,
    _read_data_lines,
    bell_state,
    kind_tuples,
    paper_correction_table,
)
from crossbell.oracle import (
    ArityError,
    DivergenceEntry,
    DivergenceReport,
    FactorizationFailure,
    _audit_eq6,
    _audit_eq7,
    _audit_eq9,
    _factor_slots,
    _transfers,
    coefficient_matrix,
    derive_correction,
    derive_correction_table,
    is_entangled,
    load_golden,
    matches_golden,
    transfer_matrix,
    verify_paper_tables,
)
from crossbell.statevec import (
    CHAIN_TOL,
    EXACT_TOL,
    SIGMA_0,
    SIGMA_X,
    SIGMA_Y,
    PureState,
    ket,
)
from crossbell.measure import _project_raw, project_onto_bell
from crossbell.teleport import (
    _PAIR_CORRECTIONS,
    ProtocolLayout,
    corrections_for,
    prepare_channel,
    run_protocol,
    total_state,
)
from conftest import random_state

PHI_CHANNEL = (BellKind.PHI_PLUS, BellKind.PHI_MINUS)


class TestTransferMatrix:
    @pytest.mark.parametrize(
        "kinds",
        [
            (BellKind.PSI_PLUS,),
            PHI_CHANNEL,
            (BellKind.PHI_MINUS, BellKind.PSI_MINUS),
            (BellKind.PSI_PLUS, BellKind.PHI_PLUS, BellKind.PSI_MINUS),
        ],
    )
    def test_scaled_transfer_is_unitary(self, kinds):
        n = len(kinds)
        for outcome in [
            (BellKind.PSI_PLUS,) * n,
            (BellKind.PHI_MINUS,) * n,
            tuple(KIND_ORDER[(i + 1) % 4] for i in range(n)),
        ]:
            scaled = (2**n) * transfer_matrix(kinds, outcome)
            assert np.allclose(
                scaled @ scaled.conj().T, np.eye(2**n), atol=1e-9
            )

    @pytest.mark.parametrize("n", [1, 2])
    def test_equals_one_total_state_per_client_basis_state(self, n):
        # reference: each client basis state joined to the channel with
        # total_state, then one project_onto_bell per pair
        layout = ProtocolLayout(n)
        basis = np.eye(2**n, dtype=complex)
        for kinds in product(KIND_ORDER, repeat=n):
            channel = prepare_channel(kinds)
            totals = [
                total_state(channel, PureState(layout.client_ids, e)) for e in basis
            ]
            for outcome in product(KIND_ORDER, repeat=n):
                expected = np.empty((2**n, 2**n), dtype=complex)
                for j, state in enumerate(totals):
                    scale = 1.0
                    for pair, kind in zip(layout.measure_pairs, outcome):
                        remaining, raw = project_onto_bell(state, pair, kind)
                        norm = np.linalg.norm(raw)
                        scale *= norm
                        state = PureState(remaining, raw / norm)
                    expected[:, j] = scale * state.amps
                got = transfer_matrix(kinds, outcome)
                assert np.max(np.abs(got - expected)) <= 1e-12

    def test_columns_are_collapsed_basis_clients(self, rng):
        # column j = unnormalized Bob amplitudes after projecting the total
        # state built from client basis state j; spot-check one column against
        # the enumerate-mode protocol run
        outcome = (BellKind.PHI_PLUS, BellKind.PHI_PLUS)
        t = transfer_matrix(PHI_CHANNEL, outcome)
        client = ket({5: 0, 6: 1})
        report = [
            r for r in run_protocol(PHI_CHANNEL, client) if r.outcome == outcome
        ][0]
        column = t[:, 1]
        norm = np.linalg.norm(column)
        assert norm**2 == pytest.approx(report.probability, abs=1e-12)
        assert np.allclose(column / norm, report.bob_pre_state.amps, atol=1e-12)


def transfer_matrix_in_blocks(kinds, outcome):
    """``transfer_matrix`` of one outcome projected alone with ``_project_raw``
    on ``prepare_channel``'s state, 8 client columns at a time, so the whole
    kron(channel, eye(2^n)) is never held: a per-outcome reference for the
    oracle's one pass that shares none of its patterns or contraction."""
    layout = ProtocolLayout(len(kinds))
    channel = prepare_channel(kinds)
    eye = np.eye(2**layout.n)
    blocks = []
    for start in range(0, 2**layout.n, 8):
        qubits = channel.qubits + layout.client_ids
        columns = np.kron(channel.amps[:, None], eye[:, start : start + 8])
        for pair, kind in zip(layout.measure_pairs, outcome):
            qubits, columns = _project_raw(qubits, columns, pair, kind)
        blocks.append(columns)
    return np.hstack(blocks)


class TestOnePass:
    """The oracle's one pass: every outcome equals that outcome projected
    alone, and a derivation or an audit joins its channel only a few times."""

    @staticmethod
    def check_every_outcome(kinds):
        n = len(kinds)
        matrices = _transfers(kinds, [KIND_ORDER] * n)
        assert matrices.shape == (4**n, 2**n, 2**n)
        for outcome, got in zip(kind_tuples(n), matrices):
            expected = transfer_matrix_in_blocks(kinds, outcome)
            assert np.max(np.abs(got - expected)) <= EXACT_TOL

    @pytest.mark.parametrize("kinds", list(product(KIND_ORDER, repeat=2)))
    def test_every_two_pair_channel(self, kinds):
        self.check_every_outcome(kinds)

    @pytest.mark.parametrize("n", [3, 4])
    def test_two_seeded_channels(self, rng, n):
        for channel in rng.integers(4, size=(2, n)):
            self.check_every_outcome(tuple(KIND_ORDER[c] for c in channel))

    def test_derivation_and_audit_join_few_channels(self, monkeypatch):
        # one join per transfer matrix would be 1 + 3n + 4^n = 74 for this
        # derivation, and 39 for the audit; each joins its channel once
        joined = []
        transfers = oracle._transfers

        def counting(kinds, choices):
            joined.append(tuple(kinds))
            return transfers(kinds, choices)

        monkeypatch.setattr(oracle, "_transfers", counting)
        derive_correction_table(
            (BellKind.PSI_MINUS, BellKind.PHI_PLUS, BellKind.PHI_MINUS)
        )
        assert len(joined) == 1
        joined.clear()
        verify_paper_tables()
        assert joined == [(BellKind.PHI_PLUS, BellKind.PHI_MINUS)]


class TestExactness:
    """2^n T is an integer matrix, and the derivation fits it exactly."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_scaled_transfers_and_slot_tables_are_exact(self, rng, n):
        # every channel and outcome at n <= 2, two seeded channels above
        channels = list(product(KIND_ORDER, repeat=n))
        if n > 2:
            rows = rng.integers(4, size=(2, n))
            channels = [tuple(KIND_ORDER[c] for c in row) for row in rows]
        for kinds in channels:
            for outcome in kind_tuples(n):
                scaled = 2**n * transfer_matrix(kinds, outcome)
                assert np.isin(scaled, (-1, 0, 1)).all(), (kinds, outcome)
            for table in derive_correction_table(kinds):
                for entry in table.values():
                    assert np.isin(entry, (1, -1, 1j, -1j, 0)).all(), kinds


class TestInputChecks:
    @pytest.mark.parametrize(
        "call, args, error, match",
        [
            ("transfer_matrix", (PHI_CHANNEL, (BellKind.PSI_PLUS,)), ValueError,
             r"^1 outcomes for 2 channel slots$"),
            ("transfer_matrix", (PHI_CHANNEL, (BellKind.PSI_PLUS,) * 3), ValueError,
             r"^3 outcomes for 2 channel slots$"),
            ("derive_correction", (PHI_CHANNEL, (BellKind.PSI_PLUS,) * 3), ValueError,
             r"^3 outcomes for 2 channel slots$"),
            ("derive_correction_table", (("phi+",),), TypeError,
             r"^channel kind must be a BellKind, got 'phi\+'$"),
            ("transfer_matrix", ((BellKind.PSI_PLUS, 2), PHI_CHANNEL), TypeError,
             r"^channel kind must be a BellKind, got 2$"),
            ("derive_correction", (PHI_CHANNEL, (BellKind.PSI_PLUS, "psi-")), TypeError,
             r"^outcome kind must be a BellKind, got 'psi-'$"),
            ("derive_correction_table", ((),), ValueError, "at least one"),
        ],
        ids=["one-of-two", "three-of-two", "derive-three-of-two", "token-channel",
             "int-channel", "token-outcome", "empty-channel"],
    )
    def test_bad_input_raises_naming_it(self, call, args, error, match):
        with pytest.raises(error, match=match):
            getattr(oracle, call)(*args)


class TestTransferMatrixComposition:
    @pytest.mark.parametrize("n", [4, 5])
    def test_every_outcome_is_the_kron_of_single_pair_entries(self, rng, n):
        # the claim that lets teleport correct pair by pair without the oracle
        channel = rng.integers(4, size=n)
        scaled = (2**n) * _transfers(
            tuple(KIND_ORDER[c] for c in channel), [KIND_ORDER] * n
        )
        for outcome, matrix in zip(product(range(4), repeat=n), scaled):
            composed = reduce(np.kron, _PAIR_CORRECTIONS[channel, list(outcome)])
            assert np.array_equal(matrix, composed)

    # n = 6 holds 256 MiB in one pass, so two outcomes are projected alone;
    # n = 7 is left out: in 8-column blocks it took 4.9 s and 654 MB
    @pytest.mark.parametrize("n", [6])
    def test_scaled_transfer_is_the_kron_of_single_pair_entries(self, rng, n):
        for _ in range(2):
            channel = rng.integers(4, size=n)
            outcome = rng.integers(4, size=n)
            scaled = (2**n) * transfer_matrix_in_blocks(
                tuple(KIND_ORDER[c] for c in channel),
                tuple(KIND_ORDER[k] for k in outcome),
            )
            composed = reduce(np.kron, _PAIR_CORRECTIONS[channel, outcome])
            assert np.max(np.abs(scaled - composed)) <= CHAIN_TOL

    def test_blocks_equal_the_whole_transfer_matrix(self, rng):
        kinds = tuple(KIND_ORDER[c] for c in rng.integers(4, size=4))
        outcome = tuple(KIND_ORDER[k] for k in rng.integers(4, size=4))
        got = transfer_matrix_in_blocks(kinds, outcome)
        assert np.max(np.abs(got - transfer_matrix(kinds, outcome))) <= EXACT_TOL


class TestDeriveCorrection:
    def test_single_pair_identity_case(self):
        slots = derive_correction((BellKind.PSI_PLUS,), (BellKind.PSI_PLUS,))
        assert len(slots) == 1
        assert np.allclose(np.abs(slots[0]), np.eye(2), atol=1e-9)

    def test_reference_channel_psi_psi(self):
        slots = derive_correction(
            PHI_CHANNEL, (BellKind.PSI_PLUS, BellKind.PSI_PLUS)
        )
        assert np.allclose(slots[0], SIGMA_X)
        assert np.allclose(slots[1], 1j * SIGMA_Y)

    def test_deterministic(self):
        outcome = (BellKind.PHI_MINUS, BellKind.PSI_MINUS)
        first = derive_correction(PHI_CHANNEL, outcome)
        second = derive_correction(PHI_CHANNEL, outcome)
        for a, b in zip(first, second):
            assert np.array_equal(a, b)

    def test_exact_product_reproduces_transfer(self):
        for outcome in product(KIND_ORDER, repeat=2):
            slots = derive_correction(PHI_CHANNEL, outcome)
            scaled = 4.0 * transfer_matrix(PHI_CHANNEL, outcome)
            assert np.allclose(np.kron(slots[0], slots[1]), scaled, atol=1e-9)

    def test_factorization_failure_on_non_pauli(self):
        hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        with pytest.raises(FactorizationFailure):
            _factor_slots(np.kron(hadamard, SIGMA_0))

    def test_the_documented_bound_is_the_bound(self):
        # the read is exact: sigma_x and -sigma_x factor, and a 1e-10
        # deviation and a deviation of one ulp are both refused
        for sign in (1, -1):
            (slot,) = _factor_slots(sign * SIGMA_X)
            assert np.array_equal(slot, sign * SIGMA_X) and slot.dtype == complex
        for near in (1 + 1e-10, np.nextafter(1.0, 2.0)):
            deviated = np.array([[0, 1], [near, 0]], dtype=complex)
            with pytest.raises(FactorizationFailure):
                _factor_slots(deviated)

    def test_one_ulp_off_unitary_is_refused_before_the_fit(self):
        off = np.array([[0, 1], [np.nextafter(1.0, 2.0), 0]])
        with pytest.raises(FactorizationFailure, match="not unitary"):
            _factor_slots(off)

    @pytest.mark.parametrize(
        "matrix",
        [
            np.eye(4)[[0, 1, 3, 2]],  # CNOT
            np.eye(4)[[0, 2, 1, 3]],  # SWAP
            np.diag([1, -1j]),  # a phase gate: one slot, but not a signed Pauli
        ],
        ids=["cnot", "swap", "phase"],
    )
    def test_exactly_unitary_non_products_fail_the_product_check(self, matrix):
        with pytest.raises(
            FactorizationFailure,
            match=r"^no signed Pauli product matches the transfer$",
        ):
            _factor_slots(matrix)


class TestDeriveCorrectionTable:
    def test_reference_channel_tables_cross_the_printed_groups(self):
        tables = derive_correction_table(PHI_CHANNEL)
        printed = paper_correction_table()
        # derived slot-m table equals the printed table of the *other* slot
        for kind in KIND_ORDER:
            assert np.allclose(tables[0][kind], printed[(1, kind)], atol=1e-9)
            assert np.allclose(tables[1][kind], printed[(0, kind)], atol=1e-9)

    def test_all_eight_printed_matrices_recovered_entrywise(self):
        tables = derive_correction_table(PHI_CHANNEL)
        derived = [tables[m][k] for m in (0, 1) for k in KIND_ORDER]
        printed = list(paper_correction_table().values())
        used = set()
        for mat in printed:
            hit = next(
                i
                for i, d in enumerate(derived)
                if i not in used and np.allclose(d, mat, atol=1e-9)
            )
            used.add(hit)
        assert len(used) == 8

    def test_joint_consistency_every_outcome(self):
        kinds = (BellKind.PSI_MINUS, BellKind.PHI_PLUS)
        tables = derive_correction_table(kinds)
        for outcome in product(KIND_ORDER, repeat=2):
            scaled = 4.0 * transfer_matrix(kinds, outcome)
            joint = np.kron(tables[0][outcome[0]], tables[1][outcome[1]])
            assert np.allclose(joint, scaled, atol=1e-9)

    def test_warm_five_pair_derivation_peaks_within_28_mib(self):
        # the 4^5 scaled matrices alone are 8 MiB, their joint fold 16 MiB
        kinds = pinned_channels(5)[0]
        derive_correction_table(kinds)
        tracemalloc.start()
        try:
            derive_correction_table(kinds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 28 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    def test_a_negated_outcome_is_jointly_inconsistent(self, monkeypatch):
        # (psi-, psi-) changes both slots, so no single-slot read sees it
        transfers = oracle._transfers

        def negating(kinds, choices):
            matrices = transfers(kinds, choices)
            matrices[BellKind.PSI_MINUS.code * 5] *= -1
            return matrices

        monkeypatch.setattr(oracle, "_transfers", negating)
        with pytest.raises(
            FactorizationFailure,
            match=r"^slot tables are jointly inconsistent at outcome "
            r"\['psi-', 'psi-'\]$",
        ):
            derive_correction_table(PHI_CHANNEL)

    @pytest.mark.parametrize("kinds", list(product(KIND_ORDER, repeat=2)))
    def test_loop_closure_all_two_pair_channels(self, kinds, rng):
        # corrections derived here give unit fidelity through the protocol
        layout = ProtocolLayout(2)
        for _ in range(5):
            client = random_state(layout.client_ids, rng)
            for report in run_protocol(kinds, client):
                assert report.fidelity_vs_client >= 1 - 1e-9

    def test_three_pair_spot_loop_closure(self, rng):
        kinds = (BellKind.PHI_PLUS, BellKind.PSI_MINUS, BellKind.PHI_MINUS)
        layout = ProtocolLayout(3)
        client = random_state(layout.client_ids, rng)
        for report in run_protocol(kinds, client):
            assert report.fidelity_vs_client >= 1 - 1e-9

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_single_pair_corrections_compose_to_the_joint_table(self, n, rng):
        # the protocol composes one table per pair; the joint brute force
        # over all 3n qubits must agree slot by slot for every channel, or
        # above n = 3 for two seeded ones (every n = 4 channel takes 7 s)
        channels = product(KIND_ORDER, repeat=n)
        if n > 3:
            rows = rng.integers(4, size=(2, n))
            channels = [tuple(KIND_ORDER[c] for c in row) for row in rows]
        for kinds in channels:
            tables = derive_correction_table(kinds)
            for kind in KIND_ORDER:
                composed = corrections_for(kinds, (kind,) * n)
                for m in range(n):
                    assert np.array_equal(composed[m], tables[m][kind])


def entry_digest(entries) -> str:
    """sha256 of each entry's dtype and shape, then its real and imaginary
    parts as int8 after an integrality check, so the sign of zero drops out."""
    digest = hashlib.sha256()
    for entry in entries:
        digest.update(f"{entry.dtype.str}{entry.shape}".encode())
        for part in (entry.real, entry.imag):
            assert np.array_equal(part, np.rint(part))
            digest.update(part.astype(np.int8).tobytes())
    return digest.hexdigest()


def pinned_channels(n):
    """Every channel at n <= 3; four channels seeded by n above."""
    if n <= 3:
        return list(product(KIND_ORDER, repeat=n))
    rows = np.random.default_rng(n).integers(4, size=(4, n))
    return [tuple(KIND_ORDER[c] for c in row) for row in rows]


# recorded from the 4^n candidate search that fitted each slot, before the
# slots were read off the transfer matrices directly
_TABLE_DIGESTS = {
    1: "5dfe11065a0fbaa558e709f054ae351c046c0b77d88b2621c1be53276aa3b08b",
    2: "8acdb02b4e8bf2c572b70f7066e2ef91f2afda260ab960e1b0ae9c5cf86a0abf",
    3: "646d20fce5714cbd3c5f87d84b7f3fafc11db885bce0bef43367963e385a1bdf",
    4: "f9ce999be1ea9418e7c1897d2c30fc44cc300acc7c63792678cd99865b7cb330",
    5: "f01bb83a9ca4ce0de5215a4320757daee5872e4712391e6b97b5959d621e275d",
}
_CORRECTION_DIGESTS = {
    1: "5dfe11065a0fbaa558e709f054ae351c046c0b77d88b2621c1be53276aa3b08b",
    2: "64474e0cc46fa351d261574675a0955c683f371448336b8635fac9116c6f84fd",
}


class TestDerivedEntryPins:
    """Every derived entry, pinned as exact small integers and a dtype."""

    @pytest.mark.parametrize("n", sorted(_TABLE_DIGESTS))
    def test_correction_tables(self, n):
        entries = [
            table[kind]
            for kinds in pinned_channels(n)
            for table in derive_correction_table(kinds)
            for kind in KIND_ORDER
        ]
        assert entry_digest(entries) == _TABLE_DIGESTS[n]

    @pytest.mark.parametrize("n", sorted(_CORRECTION_DIGESTS))
    def test_corrections_of_every_outcome(self, n):
        entries = [
            slot
            for kinds in pinned_channels(n)
            for outcome in kind_tuples(n)
            for slot in derive_correction(kinds, outcome)
        ]
        assert entry_digest(entries) == _CORRECTION_DIGESTS[n]


class TestEntanglement:
    def test_maximally_entangled(self):
        entangled, det = is_entangled(bell_state(BellKind.PSI_PLUS, (1, 2)))
        assert entangled
        assert det == pytest.approx(0.5, abs=1e-12)

    def test_basis_state_is_product(self):
        entangled, det = is_entangled(ket({1: 0, 2: 0}))
        assert not entangled
        assert det == pytest.approx(0.0, abs=1e-12)

    def test_random_products_have_zero_determinant(self, rng):
        for _ in range(50):
            u = rng.normal(size=2) + 1j * rng.normal(size=2)
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            state = PureState.renormalized((1, 2), np.kron(u, v))
            entangled, det = is_entangled(state)
            assert not entangled
            assert abs(det) < 1e-12

    def test_arity_guard(self, rng):
        with pytest.raises(ArityError):
            is_entangled(random_state((1, 2, 3), rng))
        with pytest.raises(ArityError):
            coefficient_matrix(ket({1: 0}))

    def test_agrees_with_rank_test_in_bulk(self, rng):
        matrices = rng.normal(size=(10_000, 2, 2)) + 1j * rng.normal(
            size=(10_000, 2, 2)
        )
        norms = np.linalg.norm(matrices.reshape(-1, 4), axis=1)
        matrices /= norms[:, None, None]
        dets = np.abs(np.linalg.det(matrices))
        singulars = np.linalg.svd(matrices, compute_uv=False)
        rank_two = singulars[:, 1] > 1e-12
        assert np.array_equal(dets > 1e-12, rank_two)


@pytest.fixture(scope="module")
def report():
    return verify_paper_tables()


class TestAudit:

    def test_every_branch_and_entry_appears_once(self, report):
        locations = [e.location for e in report.entries]
        assert len(locations) == len(set(locations))
        assert sum(loc.startswith("eq6.") for loc in locations) == 16
        assert sum(loc.startswith("eq7.") for loc in locations) == 8
        assert sum(loc.startswith("eq4.") for loc in locations) == 4
        assert "eq9.inverse" in locations
        assert "discussion.entanglement" in locations

    def test_eq6_verdict_distribution(self, report):
        counts = report.verdict_counts("eq6.")
        assert counts == {
            "label-mismatch": 14,
            "sign-mismatch": 1,
            "prefactor-mismatch": 1,
        }
        assert report.summary["eq6_flip_consistent_lines"] == 14

    def test_duplicated_branch_label_flagged_once(self, report):
        dup_notes = [
            e
            for e in report.entries
            if e.location.startswith("eq6.") and "duplicated label" in e.notes
        ]
        assert len(dup_notes) == 1
        assert dup_notes[0].location == "eq6.line08"

    def test_missing_prefactor_flagged_on_final_line(self, report):
        entry = next(e for e in report.entries if e.location == "eq6.line16")
        assert entry.verdict == "prefactor-mismatch"
        assert "4x" in entry.notes

    def test_extra_sign_defect_on_line_two(self, report):
        entry = next(e for e in report.entries if e.location == "eq6.line02")
        assert entry.verdict == "sign-mismatch"

    def test_eq7_entries_all_slot_swapped(self, report):
        for entry in (e for e in report.entries if e.location.startswith("eq7.")):
            assert entry.verdict == "label-mismatch"
            assert "other measurement slot" in entry.notes

    def test_eq4_lines_hold_only_at_origin(self, report):
        for entry in (e for e in report.entries if e.location.startswith("eq4.")):
            assert entry.verdict == "sign-mismatch"
            assert "(0, 0)" in entry.notes

    def test_non_orthogonal_reference_matrix_raises(self):
        printed = paper_correction_table()
        printed[(1, BellKind.PHI_PLUS)] = np.array([[1, 1], [0, 1]], dtype=complex)
        with pytest.raises(FactorizationFailure):
            _audit_eq9(DivergenceReport(), printed)

    def test_inverse_rule_slot_order_flagged(self, report):
        entry = next(e for e in report.entries if e.location == "eq9.inverse")
        assert entry.verdict == "label-mismatch"

    def test_entanglement_criterion_flagged(self, report):
        entry = next(
            e for e in report.entries if e.location == "discussion.entanglement"
        )
        assert entry.verdict == "label-mismatch"

    def test_matches_checked_in_golden(self, report):
        assert matches_golden(report)

    def test_tampered_golden_detected(self, report):
        golden = load_golden()
        tampered = json.loads(json.dumps(golden))
        tampered["entries"][0]["verdict"] = "match"
        assert not matches_golden(report, tampered)

    def test_json_round_trip(self, report):
        payload = json.loads(json.dumps(report.to_json_dict()))
        assert payload == report.to_json_dict()

    def test_text_rendering_covers_all_entries(self, report):
        text = report.to_text()
        for entry in report.entries:
            assert entry.location in text


_FLIP_TOKEN = {"psi+": "psi-", "psi-": "psi+", "phi+": "phi-", "phi-": "phi+"}


class TestAuditVerdictBranches:
    """Entries the golden never reaches, pinned field by field."""

    def test_eq6_relabelled_to_the_flipped_labels(self, monkeypatch):
        relabelled = [
            [location, _FLIP_TOKEN[k35], _FLIP_TOKEN[k46], prefactor, vector]
            for location, k35, k46, prefactor, vector in _read_data_lines(
                "printed_eq6.txt"
            )
        ]
        monkeypatch.setattr(oracle, "_read_data_lines", lambda name: relabelled)
        scaled = {
            (k, l): 4.0 * transfer_matrix(PHI_CHANNEL, (k, l))
            for k in KIND_ORDER
            for l in KIND_ORDER
        }
        report = DivergenceReport()
        _audit_eq6(report, scaled)
        entries = {e.location: e for e in report.entries}
        assert entries["eq6.line01"] == DivergenceEntry(
            "eq6.line01", "1/4 * (+d,+g,-b,-a)", "1/4 * (+d,+g,-b,-a)", "match"
        )
        assert entries["eq6.line08"] == DivergenceEntry(
            "eq6.line08",
            "1/4 * (+g,-d,+a,-b) labeled (psi+,phi-)",
            "1/4 * (+g,-d,+a,-b) at label (psi+,phi+)",
            "label-mismatch",
            "the printed first-slot label is wrong even after the systematic "
            "+/- flip (duplicated label in the source block)",
        )
        assert entries["eq6.line16"] == DivergenceEntry(
            "eq6.line16",
            "1 * (+a,-b,+g,-d)",
            "1/4 * (+a,-b,+g,-d) at label (phi+,phi+)",
            "prefactor-mismatch",
            "printed coefficients are 4x the derived branch",
        )
        assert entries["eq6.line02"] == DivergenceEntry(
            "eq6.line02",
            "1/4 * (+d,+g,+b,-a)",
            "1/4 * (-d,+g,+b,-a)",
            "sign-mismatch",
            "printed vector matches no derived branch; nearest is label "
            "(psi+,psi+) at 1 sign flips",
        )
        assert report.verdict_counts("eq6.") == {
            "match": 13,
            "sign-mismatch": 1,
            "label-mismatch": 1,
            "prefactor-mismatch": 1,
        }
        assert report.summary == {"eq6_flip_consistent_lines": 0}

    def test_eq7_swapped_groups_match_and_a_negated_entry_is_a_sign_defect(self):
        printed = paper_correction_table()
        swapped = {(1 - slot, kind): mat for (slot, kind), mat in printed.items()}
        swapped[(1, BellKind.PSI_PLUS)] = -swapped[(1, BellKind.PSI_PLUS)]
        report = DivergenceReport()
        _audit_eq7(report, swapped, derive_correction_table(PHI_CHANNEL))
        sign = DivergenceEntry(
            "eq7.U46.psi+",
            "slot 1: -i*sy",
            "slot 1: i*sy",
            "sign-mismatch",
            "printed = ((-1+0j)) * derived",
        )
        matches = [
            DivergenceEntry(
                location, f"slot {slot}: {token}", f"slot {slot}: {token}", "match"
            )
            for location, slot, token in [
                ("eq7.U46.psi-", 1, "-sx"),
                ("eq7.U46.phi+", 1, "sz"),
                ("eq7.U46.phi-", 1, "-s0"),
                ("eq7.U35.psi+", 0, "sx"),
                ("eq7.U35.psi-", 0, "-i*sy"),
                ("eq7.U35.phi+", 0, "s0"),
                ("eq7.U35.phi-", 0, "-sz"),
            ]
        ]
        assert report.entries == [sign] + matches
