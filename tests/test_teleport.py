from __future__ import annotations

import ast
import importlib
import inspect
import json
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crossbell.teleport as teleport_module
from crossbell.bell import KIND_ORDER, BellKind
from crossbell.measure import _contract, bell_collapse
from crossbell.statevec import (
    SIGMA_0,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    PureState,
    QubitSetMismatch,
    StateError,
    fidelity,
    ket,
)
from crossbell.teleport import (
    ClassicalMessage,
    ProtocolLayout,
    PipeEndpoint,
    ProtocolViolation,
    SessionAborted,
    corrections_for,
    make_pipe,
    prepare_channel,
    recover,
    run_protocol,
    run_session,
    total_state,
)
from conftest import random_state, run_optimized

PHI_CHANNEL = (BellKind.PHI_PLUS, BellKind.PHI_MINUS)


def random_client(n, rng) -> PureState:
    return random_state(ProtocolLayout(n).client_ids, rng)


def sampled_reports(kinds, client, seeds) -> list:
    """One report per trial: each distinct leaf's report, shared by the trials
    that reach it."""
    walk = teleport_module._walk(kinds, client, seeds)
    leaves = teleport_module._leaf_reports(kinds, walk, client.amps)
    return [leaves[i] for i in walk.trial_leaf]


def einsum_correct(kinds, walk, reference):
    """Reference for ``_correct``: slot m's inverses act on axis m of each
    block of rows through one ``einsum("nrs,nasb->narb")``, the form the
    step took before its elementwise multiply-adds."""
    corrected = np.empty_like(walk.leaves)
    for start in range(0, len(walk.outcomes), teleport_module._BLOCK_ROWS):
        block = slice(start, start + teleport_module._BLOCK_ROWS)
        codes, rows = np.array(walk.outcomes[block]), walk.leaves[block]
        for m, channel in enumerate(kinds):
            inverse = teleport_module._PAIR_INVERSES[channel.code, codes[:, m]]
            psi = rows.reshape(len(rows), 2**m, 2, -1)
            rows = np.einsum("nrs,nasb->narb", inverse, psi).reshape(len(rows), -1)
        corrected[block] = rows
    fidelities = abs(np.einsum("ni,i->n", corrected, reference.conj())) ** 2
    return corrected, fidelities.tolist()


class TestLayout:
    def test_reference_labels_at_n2(self):
        layout = ProtocolLayout(2)
        assert layout.bob_ids == (1, 2)
        assert layout.alice_channel_ids == (3, 4)
        assert layout.client_ids == (5, 6)
        assert layout.channel_pairs == ((1, 3), (2, 4))
        assert layout.measure_pairs == ((3, 5), (4, 6))

    def test_tripartite_pairing(self):
        layout = ProtocolLayout(3)
        assert layout.channel_pairs == ((1, 4), (2, 5), (3, 6))
        assert layout.measure_pairs == ((4, 7), (5, 8), (6, 9))

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            ProtocolLayout(0)


class TestClassicalMessage:
    def test_frame_layout(self):
        frame = ClassicalMessage(
            (BellKind.PSI_PLUS, BellKind.PHI_MINUS)
        ).encode()
        assert frame[:4] == b"XBEL"
        assert frame[4] == 1
        assert frame[5] == 2
        assert len(frame) == 7
        assert frame[6] == 0b00_11_00_00

    @staticmethod
    def reference_payload(kinds) -> bytes:
        """The codes as one bit string, MSB-first, zero padded to whole bytes."""
        bits = "".join(f"{k.code:02b}" for k in kinds)
        size = (len(bits) + 7) // 8
        return (int(bits, 2) << 8 * size - len(bits)).to_bytes(size, "big")

    @pytest.mark.parametrize("n", range(1, 10))
    def test_bit_layout_and_padding(self, n):
        # n = 1..9 covers padding widths 6, 4, 2 and 0 bits, each twice
        kinds = tuple(KIND_ORDER[(3 * m + 1) % 4] for m in range(n))
        frame = ClassicalMessage(kinds).encode()
        assert frame[:6] == b"XBEL" + bytes([1, n])
        assert frame[6:] == self.reference_payload(kinds)
        padding = 8 * len(frame[6:]) - 2 * n
        assert padding == (-2 * n) % 8
        value = int.from_bytes(frame[6:], "big")
        for bit in range(padding):
            bad = (value | 1 << bit).to_bytes(len(frame) - 6, "big")
            with pytest.raises(ProtocolViolation, match="padding"):
                ClassicalMessage.decode(frame[:6] + bad)
        assert ClassicalMessage.decode(frame).outcomes == kinds

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from(KIND_ORDER), min_size=1, max_size=255))
    def test_encode_equals_the_bit_string_reference(self, kinds):
        frame = ClassicalMessage(tuple(kinds)).encode()
        header = b"XBEL" + bytes([1, len(kinds)])
        assert frame == header + self.reference_payload(kinds)

    def test_carries_exactly_two_bits_per_slot(self):
        for n in range(1, 8):
            frame = ClassicalMessage((BellKind.PHI_MINUS,) * n).encode()
            assert len(frame) - 6 == (2 * n + 7) // 8

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sampled_from(KIND_ORDER), min_size=1, max_size=255))
    def test_round_trip(self, kinds):
        message = ClassicalMessage(tuple(kinds))
        assert ClassicalMessage.decode(message.encode()) == message

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.sampled_from(KIND_ORDER), min_size=1, max_size=255),
        st.data(),
    )
    def test_single_byte_change_is_rejected_or_decodes_differently(
        self, kinds, data
    ):
        message = ClassicalMessage(tuple(kinds))
        frame = bytearray(message.encode())
        position = data.draw(st.integers(0, len(frame) - 1))
        value = data.draw(st.integers(0, 255).filter(lambda b: b != frame[position]))
        frame[position] = value
        try:
            decoded = ClassicalMessage.decode(bytes(frame))
        except ProtocolViolation:
            return
        assert decoded != message
        assert decoded.encode() == bytes(frame)

    def test_rejects_wrong_bit_count(self):
        # n=2 header followed by no payload byte: 4 outcome bits missing
        frame = b"XBEL" + bytes([1, 2])
        with pytest.raises(ProtocolViolation):
            ClassicalMessage.decode(frame)

    def test_rejects_nonzero_padding(self):
        good = ClassicalMessage((BellKind.PSI_PLUS, BellKind.PSI_PLUS)).encode()
        bad = good[:-1] + bytes([good[-1] | 0b0000_1000])
        with pytest.raises(ProtocolViolation):
            ClassicalMessage.decode(bad)

    def test_rejects_bad_magic_and_version(self):
        good = ClassicalMessage((BellKind.PSI_PLUS,)).encode()
        with pytest.raises(ProtocolViolation):
            ClassicalMessage.decode(b"NOPE" + good[4:])
        with pytest.raises(ProtocolViolation):
            ClassicalMessage.decode(good[:4] + bytes([9]) + good[5:])


class TestChannelAndTotal:
    def test_reference_channel_state(self):
        got = prepare_channel(PHI_CHANNEL)
        expected = np.zeros(16, dtype=complex)
        expected[0b0011] = 0.5
        expected[0b0110] = -0.5
        expected[0b1001] = 0.5
        expected[0b1100] = -0.5
        assert got.qubits == (1, 2, 3, 4)
        assert np.allclose(got.amps, expected)

    def test_single_pair_channel(self):
        got = prepare_channel((BellKind.PSI_PLUS,))
        assert got.qubits == (1, 2)
        assert np.allclose(got.amps, np.array([1, 0, 0, 1]) / np.sqrt(2))

    def test_three_pair_channel_norm(self):
        got = prepare_channel((BellKind.PHI_PLUS,) * 3)
        assert got.dim == 64
        assert abs(got.norm() - 1.0) < 1e-12

    def test_channel_is_built_once_and_read_only(self):
        kinds = (BellKind.PSI_MINUS, BellKind.PHI_PLUS)
        channel = prepare_channel(kinds)
        assert prepare_channel(kinds) is channel
        assert prepare_channel(list(kinds)) is channel
        with pytest.raises(ValueError):
            channel.amps[0] = 1.0
        with pytest.raises(ValueError):
            channel.amps.setflags(write=True)

    def test_total_state_is_product(self, rng):
        channel = prepare_channel(PHI_CHANNEL)
        client = random_client(2, rng)
        total = total_state(channel, client)
        assert total.qubits == (1, 2, 3, 4, 5, 6)
        # amplitude factorizes: amp(b1..b6) = channel(b1..b4) * client(b5 b6)
        t = total.amps.reshape(16, 4)
        assert np.allclose(t, np.outer(channel.amps, client.amps))

    def test_total_state_basis_client(self):
        client = ket({5: 0, 6: 0})
        total = total_state(prepare_channel(PHI_CHANNEL), client)
        assert abs(total.amps[0b001100] - 0.5) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_walk_is_the_born_projection_of_the_joined_state(self, rng, n):
        # the walk joins each channel pair at its level; the reference
        # collapses the whole total state one pair at a time
        layout = ProtocolLayout(n)
        client = random_client(n, rng)
        for kinds in product(KIND_ORDER, repeat=n):
            nodes = {(): (total_state(prepare_channel(kinds), client), 1.0)}
            for pair in layout.measure_pairs:
                nodes = {
                    path + (kind.code,): (record.residual, p * record.probability)
                    for path, (state, p) in nodes.items()
                    for kind in KIND_ORDER
                    for record in [bell_collapse(state, pair, kind)]
                }
            walk = teleport_module._walk(kinds, client)
            assert walk.outcomes == list(nodes)
            for (state, p), probability, row in zip(
                nodes.values(), walk.probabilities, walk.leaves, strict=True
            ):
                assert state.qubits == walk.qubits
                assert probability == pytest.approx(p, rel=0, abs=1e-12)
                assert np.allclose(row, state.amps, rtol=0, atol=1e-12)

    def test_sixteen_equal_weight_branches(self, rng):
        from crossbell.bell import expand_in_cross_bell

        total = total_state(prepare_channel(PHI_CHANNEL), random_client(2, rng))
        # group coefficients over Bob's 4-dim factor for each measured-kind pair
        weights = {}
        for b1, b2 in product((0, 1), repeat=2):
            bob_ket = ket({1: b1, 2: b2})
            overlap = np.tensordot(
                bob_ket.amps.conj(),
                total.amps.reshape(4, 16),
                axes=([0], [0]),
            )
            rest = PureState.renormalized((3, 4, 5, 6), overlap)
            scale = np.linalg.norm(overlap)
            for kinds, c in expand_in_cross_bell(rest, [(3, 5), (4, 6)]).items():
                weights[kinds] = weights.get(kinds, 0.0) + abs(scale * c) ** 2
        assert len(weights) == 16
        for value in weights.values():
            assert value == pytest.approx(1 / 16, abs=1e-12)


class TestCorrections:
    def test_reference_channel_assignment_is_derived(self):
        # Brute-force derivation crosses the two printed slot groups; the
        # audit in the oracle module records the discrepancy.
        got = corrections_for(PHI_CHANNEL, (BellKind.PSI_PLUS, BellKind.PSI_PLUS))
        assert np.allclose(got[0], SIGMA_X)
        assert np.allclose(got[1], 1j * SIGMA_Y)

    def test_phi_phi_outcome(self):
        got = corrections_for(PHI_CHANNEL, (BellKind.PHI_PLUS, BellKind.PHI_PLUS))
        assert np.allclose(got[0], SIGMA_0)
        assert np.allclose(got[1], SIGMA_Z)

    def test_psi_channel_fixed_point(self):
        got = corrections_for(
            (BellKind.PSI_PLUS, BellKind.PSI_PLUS),
            (BellKind.PSI_PLUS, BellKind.PSI_PLUS),
        )
        for mat in got:
            assert np.allclose(np.abs(mat), np.eye(2), atol=1e-9)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            corrections_for(PHI_CHANNEL, (BellKind.PSI_PLUS,))

    @pytest.mark.parametrize("name", ["statevec", "bell", "measure", "teleport"])
    def test_runtime_path_does_not_import_the_oracle(self, name):
        # the oracle checks the runtime's corrections, so it must not feed them
        tree = ast.parse(inspect.getsource(importlib.import_module(f"crossbell.{name}")))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                imported.add(node.module or "")
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
        assert not any("oracle" in mod for mod in imported), imported


class TestRecover:
    def test_identity_corrections(self, rng):
        bob = random_state((1, 2), rng)
        out = recover(bob, [SIGMA_0, SIGMA_0])
        assert np.allclose(out.amps, bob.amps)

    def test_undoes_iy_x_pair(self, rng):
        client = random_state((1, 2), rng)
        a, b, g, d = client.amps
        bob_pre = PureState((1, 2), np.array([d, g, -b, -a]))
        out = recover(bob_pre, [1j * SIGMA_Y, SIGMA_X])
        assert np.allclose(out.amps, [a, b, g, d], atol=1e-12)

    def test_every_branch_recovers_reference_run(self, rng):
        client = random_client(2, rng)
        for report in run_protocol(PHI_CHANNEL, client):
            assert report.fidelity_vs_client == pytest.approx(1.0, abs=1e-9)


class TestCorrectStep:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_equals_recover_on_every_branch_of_every_channel(self, rng, n):
        client = random_client(n, rng)
        reference = PureState(ProtocolLayout(n).bob_ids, client.amps)
        for kinds in product(KIND_ORDER, repeat=n):
            walk = teleport_module._walk(kinds, client)
            reports = list(teleport_module._leaf_reports(kinds, walk, client.amps))
            assert [tuple(k.code for k in r.outcome) for r in reports] == walk.outcomes
            for report, pre in zip(reports, walk.leaves):
                assert np.array_equal(report.bob_pre_state.amps, pre)
                expected = recover(
                    report.bob_pre_state, corrections_for(kinds, report.outcome)
                )
                got = report.bob_corrected
                assert got.qubits == expected.qubits
                assert np.allclose(got.amps, expected.amps, rtol=0, atol=1e-12)
                assert report.fidelity_vs_client == pytest.approx(
                    fidelity(expected, reference), abs=1e-12
                )

    @pytest.mark.parametrize(
        "kinds",
        [*product(KIND_ORDER, repeat=1), *product(KIND_ORDER, repeat=2)]
        + [tuple(np.random.default_rng(seed).choice(KIND_ORDER, size=n))
           for n, seed in ((3, 31), (3, 32), (4, 41), (4, 42))],
        ids=lambda kinds: ",".join(k.token for k in kinds),
    )
    def test_reports_hold_the_walk_and_correct_rows_bit_for_bit(self, rng, kinds):
        client = random_client(len(kinds), rng)
        reports = run_protocol(kinds, client)
        walk = teleport_module._walk(kinds, client)
        corrected, _ = teleport_module._correct(kinds, walk, client.amps)
        assert len(reports) == len(walk.leaves) == len(corrected)
        for report, pre, post in zip(reports, walk.leaves, corrected):
            assert report.bob_pre_state.qubits == walk.qubits
            assert report.bob_corrected.qubits == walk.qubits
            assert np.array_equal(report.bob_pre_state.amps, pre)
            assert np.array_equal(report.bob_corrected.amps, post)

    @pytest.mark.parametrize(
        "n, trials",
        [(1, None), (2, None), (3, None), (4, None), (3, 1000), (3, 1)],
        ids=["enumerate-1", "enumerate-2", "enumerate-3", "enumerate-4",
             "sample-1000", "sample-1"],
    )
    def test_elementwise_correction_equals_the_einsum_bit_for_bit(
        self, rng, n, trials
    ):
        kinds = tuple(KIND_ORDER[c] for c in rng.integers(4, size=n))
        client = random_client(n, rng)
        seeds = None if trials is None else rng.integers(2**63, size=trials)
        walk = teleport_module._walk(kinds, client, seeds)
        corrected, fidelities = teleport_module._correct(kinds, walk, client.amps)
        expected, expected_fidelities = einsum_correct(kinds, walk, client.amps)
        assert np.array_equal(corrected, expected)
        assert np.array_equal(fidelities, expected_fidelities)

    def test_state_checks_per_enumerate_do_not_grow_with_n(self, rng, monkeypatch):
        # the leaf states are checked in one batch, not one PureState each
        calls = []
        post_init = PureState.__post_init__

        def counting(self):
            calls.append(1)
            post_init(self)

        monkeypatch.setattr(PureState, "__post_init__", counting)
        counts = []
        for n in (2, 4):
            kinds, client = (BellKind.PHI_MINUS,) * n, random_client(n, rng)
            run_protocol(kinds, client)  # builds the channel
            calls.clear()
            run_protocol(kinds, client)
            counts.append(len(calls))
        assert counts[0] == counts[1]

    def test_block_size_does_not_change_a_bit(self, rng, monkeypatch):
        kinds = (BellKind.PHI_MINUS, BellKind.PSI_PLUS, BellKind.PHI_PLUS)
        client = random_client(3, rng)
        whole = run_protocol(kinds, client)
        monkeypatch.setattr(teleport_module, "_BLOCK_ROWS", 5)
        for a, b in zip(whole, run_protocol(kinds, client), strict=True):
            assert a.outcome == b.outcome and a.probability == b.probability
            assert np.array_equal(a.bob_pre_state.amps, b.bob_pre_state.amps)
            assert np.array_equal(a.bob_corrected.amps, b.bob_corrected.amps)
            assert a.fidelity_vs_client == b.fidelity_vs_client

    def test_single_pair_table_equals_eight_basis_totals(self):
        # reference: one validated total state per channel kind and client bit
        layout = ProtocolLayout(1)
        (client_id,), (pair,) = layout.client_ids, layout.measure_pairs
        totals = [
            total_state(prepare_channel((channel,)), ket({client_id: j}))
            for channel in KIND_ORDER
            for j in (0, 1)
        ]
        level = np.stack([total.amps for total in totals])
        _, rows, _ = _contract(totals[0].qubits, level, pair)
        expected = 2.0 * rows.reshape(4, 2, 4, 2).transpose(0, 2, 3, 1)
        assert np.array_equal(teleport_module._PAIR_CORRECTIONS, expected)

    def test_import_check_rejects_a_corrupted_single_pair_entry(self):
        table = teleport_module._PAIR_CORRECTIONS.copy()
        assert np.array_equal(
            teleport_module._pair_inverses(table), teleport_module._PAIR_INVERSES
        )
        table[2, 3] *= 1 + 1e-6
        with pytest.raises(StateError, match=r"\(phi\+, phi-\)"):
            teleport_module._pair_inverses(table)
        # the check is a raise, not an assert, so python -O keeps it
        code = (
            "import crossbell.teleport as t\n"
            "from crossbell.statevec import StateError\n"
            "table = t._PAIR_CORRECTIONS.copy()\n"
            "table[2, 3] *= 1 + 1e-6\n"
            "try:\n"
            "    t._pair_inverses(table)\n"
            "except StateError:\n"
            "    print('rejected')\n"
        )
        result = run_optimized(code)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "rejected"


class TestRunProtocol:
    def test_sixteen_uniform_branches(self, rng):
        client = random_client(2, rng)
        reports = run_protocol(PHI_CHANNEL, client)
        assert len(reports) == 16
        for report in reports:
            assert report.probability == pytest.approx(1 / 16, abs=1e-12)
            assert report.fidelity_vs_client >= 1 - 1e-9
        assert sum(r.probability for r in reports) == pytest.approx(1.0, abs=1e-12)

    def test_single_pair_protocol(self, rng):
        client = random_client(1, rng)
        reports = run_protocol((BellKind.PSI_PLUS,), client)
        assert len(reports) == 4
        for report in reports:
            assert report.probability == pytest.approx(1 / 4, abs=1e-12)
            assert report.fidelity_vs_client >= 1 - 1e-9

    def test_three_pair_protocol(self, rng):
        client = random_client(3, rng)
        kinds = (BellKind.PHI_PLUS, BellKind.PHI_PLUS, BellKind.PHI_MINUS)
        reports = run_protocol(kinds, client)
        assert len(reports) == 64
        for report in reports:
            assert report.probability == pytest.approx(1 / 64, abs=1e-12)
            assert report.fidelity_vs_client >= 1 - 1e-9

    def test_product_client_corrected_state_factorizes(self, rng):
        u = rng.normal(size=2) + 1j * rng.normal(size=2)
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        amps = np.kron(u, v)
        client = PureState.renormalized((5, 6), amps)
        a, b, g, d = client.amps
        assert abs(a * d - b * g) < 1e-12
        for report in run_protocol(PHI_CHANNEL, client):
            m = report.bob_corrected.amps.reshape(2, 2)
            singulars = np.linalg.svd(m, compute_uv=False)
            assert singulars[1] < 1e-9
            assert report.fidelity_vs_client >= 1 - 1e-9

    def test_schmidt_coefficients_preserved(self, rng):
        client = random_client(2, rng)
        client_singulars = np.linalg.svd(
            client.amps.reshape(2, 2), compute_uv=False
        )
        for report in run_protocol(PHI_CHANNEL, client):
            got = np.linalg.svd(
                report.bob_corrected.amps.reshape(2, 2), compute_uv=False
            )
            assert np.allclose(got, client_singulars, atol=1e-9)

    def test_sample_mode_deterministic(self, rng):
        client = random_client(2, rng)
        first = run_protocol(PHI_CHANNEL, client, mode="sample", seed=99)
        second = run_protocol(PHI_CHANNEL, client, mode="sample", seed=99)
        assert len(first) == len(second) == 1
        assert first[0].outcome == second[0].outcome
        assert np.array_equal(
            first[0].bob_corrected.amps, second[0].bob_corrected.amps
        )

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_batched_trials_equal_single_runs_and_enumeration_bit_for_bit(
        self, rng, n
    ):
        kinds = tuple(rng.choice(KIND_ORDER, size=n))
        client = random_client(n, rng)
        seeds = [int(seed) for seed in rng.integers(2**63, size=120)]
        enumerated = {r.outcome: r for r in run_protocol(kinds, client)}
        for seed, batched in zip(seeds, sampled_reports(kinds, client, seeds)):
            (single,) = run_protocol(kinds, client, mode="sample", seed=seed)
            for twin in (single, enumerated[batched.outcome]):
                assert twin.outcome == batched.outcome
                assert twin.probability == batched.probability
                assert np.array_equal(
                    twin.bob_pre_state.amps, batched.bob_pre_state.amps
                )
                assert np.array_equal(
                    twin.bob_corrected.amps, batched.bob_corrected.amps
                )
                assert twin.fidelity_vs_client == batched.fidelity_vs_client

    def test_each_distinct_leaf_report_is_built_once(self, rng, monkeypatch):
        built = []
        report_class = teleport_module.TeleportReport

        def counting(outcome, *args):
            built.append(outcome)
            return report_class(outcome, *args)

        monkeypatch.setattr(teleport_module, "TeleportReport", counting)
        client = random_client(2, rng)
        reports = sampled_reports(PHI_CHANNEL, client, [5] * 30)
        assert len(reports) == 30 and len(built) == 1
        assert all(r is reports[0] for r in reports)
        built.clear()
        reports = sampled_reports(
            (BellKind.PHI_PLUS,), random_client(1, rng), list(range(200))
        )
        assert len(reports) == 200
        assert len(built) == len(set(built)) == 4
        assert set(built) == {r.outcome for r in reports}

    def test_sample_needs_seed(self, rng):
        with pytest.raises(ValueError):
            run_protocol(PHI_CHANNEL, random_client(2, rng), mode="sample")

    def test_bad_mode(self, rng):
        with pytest.raises(ValueError):
            run_protocol(PHI_CHANNEL, random_client(2, rng), mode="all")

    def test_client_on_wrong_ids(self, rng):
        with pytest.raises(QubitSetMismatch):
            run_protocol(PHI_CHANNEL, random_state((1, 2), rng))

    def test_all_channel_specs_unit_fidelity(self, rng):
        # every 2-pair channel, a few clients each
        for kinds in product(KIND_ORDER, repeat=2):
            for _ in range(3):
                client = random_client(2, rng)
                for report in run_protocol(kinds, client):
                    assert report.probability == pytest.approx(1 / 16, abs=1e-12)
                    assert report.fidelity_vs_client >= 1 - 1e-9


class TestRunSession:
    def test_matches_sampled_protocol_bit_for_bit(self, rng):
        for seed in (0, 7, 123456789):
            client = random_client(2, rng)
            direct = run_protocol(PHI_CHANNEL, client, mode="sample", seed=seed)[0]
            session = run_session(PHI_CHANNEL, client, seed=seed)
            assert json.dumps(session.to_json_dict(), sort_keys=True) == json.dumps(
                direct.to_json_dict(), sort_keys=True
            )

    def test_explicit_transport(self, rng):
        client = random_client(1, rng)
        report = run_session(
            (BellKind.PHI_MINUS,), client, transport=make_pipe(), seed=3
        )
        assert report.fidelity_vs_client >= 1 - 1e-9

    def test_unpaired_send_aborts_under_python_O(self):
        # assert statements vanish under -O; the guard must not
        with pytest.raises(SessionAborted):
            PipeEndpoint().send(b"x")
        code = (
            "from crossbell.teleport import PipeEndpoint, SessionAborted\n"
            "try:\n"
            "    PipeEndpoint().send(b'x')\n"
            "except SessionAborted:\n"
            "    print('aborted')\n"
        )
        result = run_optimized(code)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "aborted"

    def test_premature_close_aborts(self):
        alice_end, bob_end = make_pipe()
        alice_end.send(b"XB")
        alice_end.close()
        from crossbell.teleport import _recv_frame

        with pytest.raises(SessionAborted):
            _recv_frame(bob_end)

    def test_bad_magic_frame_rejected(self):
        alice_end, bob_end = make_pipe()
        alice_end.send(b"NOPE" + bytes([1, 1, 0b00_000000]))
        from crossbell.teleport import _recv_frame

        with pytest.raises(ProtocolViolation):
            _recv_frame(bob_end)

    def test_frame_with_wrong_outcome_count_rejected(self, rng):
        # Bob expects 2n=4 outcome bits; a rogue frame carrying only 2 bits
        # (n=1) must be refused even though it is well-formed on its own.
        client = random_client(2, rng)

        class DiscardingEnd:
            def send(self, data):
                pass

            def close(self):
                pass

        injector, bob_end = make_pipe()
        injector.send(ClassicalMessage((BellKind.PSI_PLUS,)).encode())
        with pytest.raises(ProtocolViolation):
            run_session(
                PHI_CHANNEL, client, transport=(DiscardingEnd(), bob_end), seed=1
            )

    @pytest.mark.parametrize(
        "transport",
        [
            "make_pipe()[0], make_pipe()[1]",
            "DiscardingEnd(), make_pipe()[1]",
        ],
        ids=["ends-of-two-pipes", "discarding-alice-empty-bob"],
    )
    def test_frame_that_never_arrives_aborts(self, transport):
        # on one thread a missing frame can only mean it was never sent; in
        # a child process so that a hang fails by timeout, not stalls the suite
        code = (
            "import numpy as np\n"
            "from crossbell.bell import BellKind\n"
            "from crossbell.statevec import PureState\n"
            "from crossbell.teleport import SessionAborted, make_pipe, run_session\n"
            "class DiscardingEnd:\n"
            "    def send(self, data):\n"
            "        pass\n"
            "    def close(self):\n"
            "        pass\n"
            "client = PureState((5, 6), np.array([1, 0, 0, 0], dtype=complex))\n"
            "kinds = (BellKind.PHI_PLUS, BellKind.PHI_MINUS)\n"
            "try:\n"
            f"    run_session(kinds, client, transport=({transport}), seed=1)\n"
            "except SessionAborted:\n"
            "    print('aborted')\n"
        )
        result = run_optimized(code)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "aborted"

    def test_runs_on_the_callers_thread(self, rng, monkeypatch):
        def no_threads(*args, **kwargs):
            raise AssertionError("run_session started a thread")

        monkeypatch.setattr("threading.Thread", no_threads)
        client = random_client(2, rng)
        direct = run_protocol(PHI_CHANNEL, client, mode="sample", seed=5)[0]
        session = run_session(PHI_CHANNEL, client, seed=5)
        assert session.outcome == direct.outcome
        assert np.array_equal(session.bob_corrected.amps, direct.bob_corrected.amps)

    def test_alice_error_propagates_and_closes_her_end(self, rng, monkeypatch):
        def failing_walk(*args, **kwargs):
            raise RuntimeError("alice failed")

        monkeypatch.setattr(teleport_module, "_walk", failing_walk)
        alice_end, bob_end = make_pipe()
        with pytest.raises(RuntimeError, match="alice failed"):
            run_session(
                PHI_CHANNEL, random_client(2, rng), transport=(alice_end, bob_end)
            )
        with pytest.raises(SessionAborted):
            alice_end.send(b"x")
        assert bob_end.recv(1) == b""

    def test_thousand_sessions_unit_fidelity(self, rng):
        failures = 0
        for trial in range(100):
            client = random_client(2, rng)
            report = run_session(PHI_CHANNEL, client, seed=trial)
            if report.fidelity_vs_client < 1 - 1e-9:
                failures += 1
        assert failures == 0
