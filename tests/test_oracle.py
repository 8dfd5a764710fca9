from __future__ import annotations

import json
from itertools import product

import numpy as np
import pytest

from crossbell.bell import KIND_ORDER, BellKind, bell_state, paper_correction_table
from crossbell.oracle import (
    ArityError,
    DivergenceReport,
    FactorizationFailure,
    _audit_eq9,
    _factor_signed_paulis,
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
    SIGMA_0,
    SIGMA_X,
    SIGMA_Y,
    PureState,
    ket,
)
from crossbell.measure import project_onto_bell
from crossbell.teleport import (
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
            _factor_signed_paulis(np.kron(hadamard, SIGMA_0), 2)


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

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_single_pair_corrections_compose_to_the_joint_table(self, n):
        # the protocol composes one table per pair; the joint brute force
        # over all 3n qubits must agree slot by slot for every channel
        for kinds in product(KIND_ORDER, repeat=n):
            tables = derive_correction_table(kinds)
            for kind in KIND_ORDER:
                composed = corrections_for(kinds, (kind,) * n)
                for m in range(n):
                    assert np.max(np.abs(composed[m] - tables[m][kind])) <= 1e-12


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
