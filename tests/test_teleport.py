from __future__ import annotations

import ast
import copy
import hashlib
import importlib
import inspect
import json
import pickle
import re
import sys
import threading
import tracemalloc
from collections import Counter
from dataclasses import FrozenInstanceError
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import crossbell.measure as measure_module
import crossbell.teleport as teleport_module
from crossbell import oracle
from crossbell.bell import KIND_ORDER, BellKind
from crossbell.measure import _contract, bell_collapse, project_onto_bell, walk_branches
from crossbell.statevec import (
    CHAIN_TOL,
    EXACT_TOL,
    SIGMA_0,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    PureState,
    QubitSetMismatch,
    StateError,
    _close,
    fidelity,
    is_unitary2,
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
from conftest import chi_square, random_state, run_optimized

PHI_CHANNEL = (BellKind.PHI_PLUS, BellKind.PHI_MINUS)


class DiscardingEnd:
    """Alice's end of a transport that drops whatever she sends."""

    def send(self, data):
        pass

    def close(self):
        pass


def random_client(n, rng) -> PureState:
    return random_state(ProtocolLayout(n).client_ids, rng)


def sampled_reports(kinds, client, seeds) -> list:
    """One report per trial: each distinct leaf's report, shared by the trials
    that reach it."""
    leaves = run_protocol(kinds, client, "sample", np.array(seeds, dtype=np.uint64))
    return [leaves[i] for i in leaves.trial_leaf]


def einsum_correct(kinds, walk, reference):
    """Reference for ``_correct``: each row's inverses, the conjugate
    transposes of ``_PAIR_CORRECTIONS`` entries, act on axis m of the rows
    through one ``einsum("nrs,nasb->narb")`` per slot m, over all rows. Each
    fidelity is clipped at 1."""
    inverses = teleport_module._PAIR_CORRECTIONS.conj().swapaxes(-1, -2)
    codes, rows = walk.outcomes, walk.leaves
    for m, channel in enumerate(kinds):
        psi = rows.reshape(len(rows), 2**m, 2, -1)
        rows = np.einsum("nrs,nasb->narb", inverses[channel.code, codes[:, m]], psi)
        rows = rows.reshape(len(codes), -1)
    fidelities = abs(np.einsum("ni,i->n", rows, reference.conj())) ** 2
    return rows, np.minimum(fidelities, 1.0).tolist()


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

    def test_rejects_a_bool_naming_n(self):
        # True would otherwise run as n = 1 and equal ProtocolLayout(1)
        with pytest.raises(TypeError, match=r"^n must be an integer, got True$"):
            ProtocolLayout(True)

    def test_rejects_a_float_when_built(self):
        # not later, when a property first calls range()
        with pytest.raises(TypeError, match=r"^n must be an integer, got 2\.0$"):
            ProtocolLayout(2.0)

    def test_rejects_a_string_naming_n(self):
        with pytest.raises(TypeError, match=r"^n must be an integer, got '2'$"):
            ProtocolLayout("2")

    def test_takes_a_numpy_integer_as_an_int(self):
        layout = ProtocolLayout(np.int64(2))
        assert type(layout.n) is int
        assert layout == ProtocolLayout(2)
        assert layout.measure_pairs == ((3, 5), (4, 6))


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

    def test_channel_is_read_only(self):
        channel = prepare_channel((BellKind.PSI_MINUS, BellKind.PHI_PLUS))
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
            walk = walk_branches(kinds, client.amps)
            assert list(map(tuple, walk.outcomes.tolist())) == list(nodes)
            for (state, p), probability, row in zip(
                nodes.values(), walk.probabilities, walk.leaves, strict=True
            ):
                assert state.qubits == layout.bob_ids
                assert probability == pytest.approx(p, rel=0, abs=1e-12)
                assert np.allclose(row, state.amps, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_sampled_walk_equals_an_independent_projection_chain(self, rng, n):
        # project_onto_bell contracts with its own tensordot, the oracle's
        # kernel, and shares no code with the walk's _channel_level
        layout = ProtocolLayout(n)
        kinds = tuple(KIND_ORDER[c] for c in rng.integers(4, size=n))
        client = random_client(n, rng)
        total = total_state(prepare_channel(kinds), client)
        seeds = [int(s) for s in rng.integers(2**63, size=3)]
        walk = walk_branches(kinds, client.amps, seeds)
        for outcome, probability, leaf in zip(
            walk.outcomes, walk.probabilities, walk.leaves, strict=True
        ):
            state, expected = total, 1.0
            for pair, code in zip(layout.measure_pairs, outcome):
                remaining, raw = project_onto_bell(state, pair, KIND_ORDER[code])
                p = float(np.vdot(raw, raw).real)
                expected *= p
                state = PureState(remaining, raw / np.sqrt(p))
            assert state.qubits == layout.bob_ids
            assert _close(probability, expected, EXACT_TOL)
            assert _close(leaf, state.amps, EXACT_TOL)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 4),
        st.integers(0, 2**32 - 1),
        st.lists(st.integers(0, 2**64 - 1), min_size=2, max_size=300),
    )
    # seed 1 reaches (phi+, phi+) and seed 3 (psi+, phi+): first reached is
    # not code order
    @example(n=2, state_seed=0, seeds=[1, 2, 3])
    def test_sampled_walk_is_a_sub_walk_of_the_enumeration(
        self, n, state_seed, seeds
    ):
        rng = np.random.default_rng(state_seed)
        kinds = tuple(KIND_ORDER[c] for c in rng.integers(4, size=n))
        client = random_client(n, rng)
        walk = walk_branches(kinds, client.amps, seeds)
        enumerated = walk_branches(kinds, client.amps)
        # base-4 codes: enumeration row i holds the leaf of code i
        codes = walk.outcomes @ 4 ** np.arange(n - 1, -1, -1)
        assert np.all(np.diff(codes) > 0)
        assert np.array_equal(walk.outcomes, enumerated.outcomes[codes])
        assert np.array_equal(walk.probabilities, enumerated.probabilities[codes])
        assert np.array_equal(walk.leaves, enumerated.leaves[codes])

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


def take_sum_frames(kinds, codes):
    """Reference for ``_frames``: the frame step it replaced, one ``take`` of
    every (row, slot) entry from the slots' rows of ``packed``, flattened, and
    one sum over each row."""
    packed = teleport_module._frame_tables(len(kinds))[0]
    m = np.arange(len(kinds))
    return packed[m, [k.code for k in kinds]].ravel().take(codes + 4 * m).sum(1)


class TestCorrectStep:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_equals_recover_on_every_branch_of_every_channel(self, rng, n):
        client = random_client(n, rng)
        reference = PureState(ProtocolLayout(n).bob_ids, client.amps)
        for kinds in product(KIND_ORDER, repeat=n):
            walk = walk_branches(kinds, client.amps)
            reports = list(teleport_module.RunReports(kinds, walk, client.amps))
            codes = [[k.code for k in r.outcome] for r in reports]
            assert codes == walk.outcomes.tolist()
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
        walk = walk_branches(kinds, client.amps)
        corrected, _ = teleport_module._correct(kinds, walk, client.amps)
        bob_ids = ProtocolLayout(len(kinds)).bob_ids
        assert len(reports) == len(walk.leaves) == len(corrected)
        for report, pre, post in zip(reports, walk.leaves, corrected):
            assert report.bob_pre_state.qubits == report.bob_corrected.qubits == bob_ids
            assert np.array_equal(report.bob_pre_state.amps, pre)
            assert np.array_equal(report.bob_corrected.amps, post)

    @pytest.mark.parametrize(
        "n, trials",
        [(1, None), (2, None), (3, None), (4, None), (5, None), (6, None),
         (7, None), (3, 1000), (3, 1)],
        ids=["enumerate-1", "enumerate-2", "enumerate-3", "enumerate-4",
             "enumerate-5", "enumerate-6", "enumerate-7", "sample-1000", "sample-1"],
    )
    def test_elementwise_correction_equals_the_einsum_bit_for_bit(
        self, rng, n, trials
    ):
        kinds = tuple(KIND_ORDER[c] for c in rng.integers(4, size=n))
        client = random_client(n, rng)
        seeds = None if trials is None else rng.integers(2**63, size=trials)
        walk = walk_branches(kinds, client.amps, seeds)
        corrected, fidelities = teleport_module._correct(kinds, walk, client.amps)
        expected, expected_fidelities = einsum_correct(kinds, walk, client.amps)
        assert np.array_equal(corrected, expected)
        assert np.array_equal(fidelities, expected_fidelities)

    @pytest.mark.parametrize(
        "n, trials",
        [(1, None), (2, None), (3, None), (4, None), (5, None), (6, None),
         (7, None), (3, 1000), (9, 1000)],
        ids=["enumerate-1", "enumerate-2", "enumerate-3", "enumerate-4",
             "enumerate-5", "enumerate-6", "enumerate-7", "sample-3", "sample-9"],
    )
    def test_each_corrected_row_holds_its_leafs_floats_up_to_sign_and_order(
        self, rng, n, trials
    ):
        # a Pauli frame moves and negates amplitudes; it rescales none
        kinds = tuple(KIND_ORDER[c] for c in rng.integers(4, size=n))
        client = random_client(n, rng)
        seeds = None if trials is None else rng.integers(2**63, size=trials)
        walk = walk_branches(kinds, client.amps, seeds)
        corrected, _ = teleport_module._correct(kinds, walk, client.amps)
        rows = len(walk.leaves)
        got = np.sort(abs(corrected.view(np.float64).reshape(rows, -1)), axis=1)
        leaves = np.sort(abs(walk.leaves.view(np.float64).reshape(rows, -1)), axis=1)
        assert np.array_equal(got, leaves)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_frames_equal_the_take_and_row_sum_reference(self, rng, n):
        # every outcome up to n = 5, else 2000 drawn ones and the two extremes
        kinds = tuple(KIND_ORDER[c] for c in rng.integers(4, size=n))
        if n <= 5:
            codes = np.array(list(product(range(4), repeat=n)), dtype=np.intp)
        else:
            drawn = rng.integers(4, size=(2000, n))
            codes = np.concatenate([drawn, np.zeros((1, n)), np.full((1, n), 3)])
            codes = codes.astype(np.intp)
        packed = teleport_module._frame_tables(n)[0]
        frames = teleport_module._frames(packed, kinds, codes)
        expected = take_sum_frames(kinds, codes)
        assert frames.dtype == expected.dtype
        assert np.array_equal(frames, expected)

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

    def test_any_subset_of_leaves_corrects_to_the_same_bytes(self, rng):
        kinds = (BellKind.PHI_MINUS, BellKind.PSI_PLUS, BellKind.PHI_PLUS)
        client = random_client(3, rng)
        walk = walk_branches(kinds, client.amps)
        whole, fidelities = teleport_module._correct(kinds, walk, client.amps)
        for size in (1, 5, 37, len(walk.leaves)):
            picked = np.sort(rng.choice(len(walk.leaves), size=size, replace=False))
            part = walk._replace(
                outcomes=walk.outcomes[picked],
                probabilities=walk.probabilities[picked],
                leaves=walk.leaves[picked],
            )
            rows, part_fidelities = teleport_module._correct(kinds, part, client.amps)
            assert rows.tobytes() == whole[picked].tobytes()
            assert part_fidelities.tobytes() == fidelities[picked].tobytes()

    @pytest.mark.parametrize("n", [8, 9])
    def test_frame_beyond_eight_index_bits_equals_the_einsum(self, rng, n):
        # n = 9 rows need a uint16 lane index
        kinds = tuple(KIND_ORDER[c] for c in rng.integers(4, size=n))
        client = random_client(n, rng)
        walk = walk_branches(kinds, client.amps, rng.integers(2**63, size=64))
        corrected, fidelities = teleport_module._correct(kinds, walk, client.amps)
        expected, expected_fidelities = einsum_correct(kinds, walk, client.amps)
        assert np.array_equal(corrected, expected)
        assert fidelities.tobytes() == np.array(expected_fidelities).tobytes()

    def test_cached_tables_are_read_only_and_keep_no_state_between_sizes(self):
        teleport_module._frame_tables.cache_clear()
        for n in (3, 9):  # 9 slots sign from two tables
            for table in teleport_module._frame_tables(n):
                with pytest.raises(ValueError):
                    table[(0,) * table.ndim] = 0
        runs, channel = {}, (BellKind.PSI_MINUS, BellKind.PHI_MINUS) * 2
        for n in (2, 4, 2):
            kinds = channel[:n]
            client = random_client(n, np.random.default_rng(n))
            walk = walk_branches(kinds, client.amps)
            corrected, fidelities = teleport_module._correct(kinds, walk, client.amps)
            runs.setdefault(n, []).append(corrected.tobytes() + fidelities.tobytes())
        assert runs[2][0] == runs[2][1]

    def test_warm_seven_pair_correction_peaks_within_38_mib(self, rng):
        # the corrected block alone is 4**7 * 2**7 * 16 bytes = 32 MiB
        kinds = tuple(KIND_ORDER[c] for c in rng.integers(4, size=7))
        client = random_client(7, rng)
        walk = walk_branches(kinds, client.amps)
        teleport_module._correct(kinds, walk, client.amps)  # warm: builds the tables
        tracemalloc.start()
        try:
            corrected, _ = teleport_module._correct(kinds, walk, client.amps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert corrected.nbytes == 32 * 2**20
        assert peak <= 38 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    def test_sampled_run_at_nine_qubits_recovers_the_client(self, rng):
        kinds = tuple(KIND_ORDER[c] for c in rng.integers(4, size=9))
        (report,) = run_protocol(kinds, random_client(9, rng), mode="sample", seed=9)
        assert report.fidelity_vs_client >= 1 - CHAIN_TOL

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
        expected = np.sign(rows.reshape(4, 2, 4, 2).transpose(0, 2, 3, 1))
        table = teleport_module._PAIR_CORRECTIONS
        assert np.array_equal(table, expected)
        for c, k in np.ndindex(4, 4):
            transfer = oracle.transfer_matrix((KIND_ORDER[c],), (KIND_ORDER[k],))
            assert np.array_equal(table[c, k], 2 * transfer)

    def test_import_check_rejects_a_corrupted_single_pair_entry(self):
        table = teleport_module._PAIR_CORRECTIONS.copy()
        flips, factors = teleport_module._pauli_frame(table)
        assert np.array_equal(flips, teleport_module._FLIPS)
        assert np.array_equal(factors, teleport_module._FACTORS)
        table[2, 3] *= 1 + 1e-6
        with pytest.raises(StateError, match=r"\(phi\+, phi-\)"):
            teleport_module._pauli_frame(table)
        # the check is a raise, not an assert, so python -O keeps it
        code = (
            "import crossbell.teleport as t\n"
            "from crossbell.statevec import StateError\n"
            "table = t._PAIR_CORRECTIONS.copy()\n"
            "table[2, 3] *= 1 + 1e-6\n"
            "try:\n"
            "    t._pauli_frame(table)\n"
            "except StateError:\n"
            "    print('rejected')\n"
        )
        result = run_optimized(code)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "rejected"

    def test_import_check_rejects_a_factor_of_another_magnitude(self):
        table = teleport_module._PAIR_CORRECTIONS.copy()
        table[3, 1] *= 1 + 2**-52
        inverse = table[3, 1].conj().T
        # still a unitary with one real nonzero per row, so a signed Pauli
        assert is_unitary2(inverse)
        assert (np.count_nonzero(inverse, axis=1) == 1).all() and not inverse.imag.any()
        original = teleport_module._PAIR_CORRECTIONS[3, 1]
        assert not np.array_equal(abs(inverse), abs(original))
        with pytest.raises(StateError, match=r"\(phi-, psi-\) scales by"):
            teleport_module._pauli_frame(table)
        code = (
            "import crossbell.teleport as t\n"
            "from crossbell.statevec import StateError\n"
            "table = t._PAIR_CORRECTIONS.copy()\n"
            "table[3, 1] *= 1 + 2**-52\n"
            "try:\n"
            "    t._pauli_frame(table)\n"
            "except StateError as error:\n"
            "    print(error)\n"
        )
        result = run_optimized(code)
        assert result.returncode == 0, result.stderr
        assert "(phi-, psi-) scales by" in result.stdout

    def test_import_check_rejects_a_unitary_that_is_not_a_signed_pauli(self):
        hadamard = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        assert is_unitary2(hadamard)
        table = teleport_module._PAIR_CORRECTIONS.copy()
        table[1, 2] = hadamard
        with pytest.raises(StateError, match=r"\(psi-, phi\+\) is not a signed Pauli"):
            teleport_module._pauli_frame(table)
        code = (
            "import numpy as np\n"
            "import crossbell.teleport as t\n"
            "from crossbell.statevec import StateError\n"
            "table = t._PAIR_CORRECTIONS.copy()\n"
            "table[1, 2] = np.array([[1, 1], [1, -1]]) / np.sqrt(2)\n"
            "try:\n"
            "    t._pauli_frame(table)\n"
            "except StateError as error:\n"
            "    print(error)\n"
        )
        result = run_optimized(code)
        assert result.returncode == 0, result.stderr
        assert "(psi-, phi+) is not a signed Pauli" in result.stdout


def haar_amps(n, rng, zeros=False):
    """A Haar-random client's 2**n amplitudes, normalized by a float-view
    einsum (no BLAS). With ``zeros``, about half the amplitudes and half the
    imaginary parts left are exact zeros, and amplitude 0 is 1 before the
    normalization."""
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    if zeros:
        amps *= rng.random(2**n) < 0.5
        amps[0] = 1.0
        amps.imag[rng.random(2**n) < 0.5] = 0.0
    flat = amps.view(np.float64)
    return amps / np.sqrt(np.einsum("i,i->", flat, flat))


# sha256 of (the walk's outcomes, probabilities, leaves and trial_leaf bytes,
# _correct's rows, its fidelities) per case: (n, trials, zeros). Each case
# draws its channel, client and seeds from default_rng(sum of its name's
# code points). The zero-holding client's leaves hold -0.0 entries. Each
# case has fidelities that round above 1, so its fidelity digest was recorded
# again once they were clipped at 1; the other two held.
_WALK_CASES = {
    "enumerate-5": (5, None, False),
    "enumerate-6": (6, None, False),
    "sample-7": (7, 10000, False),
    "one-seed-9": (9, 1, False),
    "zeros-4": (4, None, True),
}
_WALK_DIGESTS = {
    "enumerate-5": (
        "4f3a22ed1c2645752b919b30f834fc72a2c77946bc7fa05d8c05ac6b2bd914b3",
        "b6429b77a578c146e6f90afbbb348acd35892958e921185c542f64a653d3c21e",
        "c624726a59d7d4797aa3c3238301e6db8f8e0d2ed3fcdf3709865d9ecb936ed9",
    ),
    "enumerate-6": (
        "eb9e5ca66e26aa57b71471d53bd5434f33b5065bd2dbd3b05a63b375ddda5fba",
        "c0aa84ba3433762e0b985a9fc099a0af70ae13061c2d7b0926d96bb0b3b9f6fb",
        "47c5b812c4b99fba13ffa3b2de925581182b6f74649d1b4a148d922937baea00",
    ),
    "sample-7": (
        "26ffffb972c8ca1fb2cd66de0ab46764a0f1bab60054dd4e43cbc6502621bc56",
        "c43c705fc1e94a6bb7a0cf10d253d73667095896bd1f19b1d400b8274631ab16",
        "5e46e965eb556ee45c52a2e275567fca1ee44e54c9eee164995d3a293d96e8fa",
    ),
    "one-seed-9": (
        "51a2de16288b477bcb42bc22725adddb7c203c7cbfc903a49ae6d3687bb002bc",
        "4a7ad36d9b3ee6d39f04f9a89ac7e98a754adc9759c9ab620c73bdf71bbcd05c",
        "6c3c396ed6b5c36dcae172271f462051b1266b851e92df3deea8ac65478fd712",
    ),
    "zeros-4": (
        "71c399de8cb07156b16243b4b43f6727ad56632c71b68f4c0dd9090608d00d67",
        "2f4c1fc591735d178f463136c6ee41356f54a924169a56cde456664a719fb01a",
        "ec9d9827912e6fc384605ff044ae1117cb51deba78e578a2a9ca6e5979dba98a",
    ),
}


class TestWalkAndCorrectionPins:
    @pytest.mark.parametrize("case", sorted(_WALK_CASES))
    def test_bytes_equal_the_pins(self, case):
        n, trials, zeros = _WALK_CASES[case]
        rng = np.random.default_rng(sum(map(ord, case)))
        kinds = tuple(KIND_ORDER[c] for c in rng.integers(4, size=n))
        amps = haar_amps(n, rng, zeros)
        seeds = None if trials is None else rng.integers(2**63, size=trials)
        walk = walk_branches(kinds, amps, seeds)
        rows, fidelities = teleport_module._correct(kinds, walk, amps)
        columns = [walk.outcomes, walk.probabilities, walk.leaves]
        if trials is not None:
            columns.append(walk.trial_leaf)
        digest = hashlib.sha256()
        for column in columns:
            digest.update(column.tobytes())
        assert (
            digest.hexdigest(),
            hashlib.sha256(rows.tobytes()).hexdigest(),
            hashlib.sha256(fidelities.tobytes()).hexdigest(),
        ) == _WALK_DIGESTS[case]
        if zeros:
            flat = walk.leaves.view(np.float64)
            assert np.signbit(flat[flat == 0]).any()


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
        seeds = rng.integers(2**63, size=120)
        enumerated = {r.outcome: r for r in run_protocol(kinds, client)}
        reports = run_protocol(kinds, client, "sample", seeds)
        # one report per distinct leaf the trials reach
        assert len(reports) == len(set(reports.trial_leaf.tolist()))
        with pytest.raises(ValueError):
            reports.trial_leaf[0] = 0
        for seed, leaf in zip(seeds.tolist(), reports.trial_leaf, strict=True):
            batched = reports[leaf]
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

    def test_trial_leaf_is_none_when_enumerating(self, rng):
        reports = run_protocol(PHI_CHANNEL, random_client(2, rng), seed=np.arange(3))
        assert reports.trial_leaf is None and len(reports) == 16

    # each message names the seed array, and the shape or dtype it got
    MALFORMED_SEEDS = {
        "2-d": (np.array([[1, 2], [3, 4]]), ValueError, r"seed array.* 1-D.*\(2, 2\)"),
        "0-d": (np.array(5), ValueError, r"seed array.* 1-D.*\(\)"),
        "empty": (np.array([], dtype=int), ValueError, r"seed array.*empty.*\(0,\)"),
        "float": (np.array([1.0]), TypeError, "seed array.* integers.*float64"),
        "bool": (np.array([True]), TypeError, "seed array.* integers.*bool"),
    }

    @pytest.mark.parametrize("case", MALFORMED_SEEDS)
    def test_malformed_seed_raises_naming_it_before_any_walk(
        self, rng, monkeypatch, case
    ):
        seed, error, message = self.MALFORMED_SEEDS[case]

        def no_walk(*args):
            raise AssertionError("a walk started")

        monkeypatch.setattr(measure_module, "_channel_level", no_walk)
        with pytest.raises(error, match=message):
            run_protocol(PHI_CHANNEL, random_client(2, rng), "sample", seed)

    @pytest.mark.parametrize("entry", ["run_protocol", "run_session"])
    @pytest.mark.parametrize(
        "seed", [1.5, [1, 2], "3", True, False, np.bool_(True)], ids=repr
    )
    def test_non_integer_scalar_seed_raises_naming_it_before_any_walk(
        self, rng, monkeypatch, entry, seed
    ):
        def no_walk(*args):
            raise AssertionError("a walk started")

        monkeypatch.setattr(measure_module, "_channel_level", no_walk)
        client = random_client(2, rng)
        with pytest.raises(TypeError, match=r"seed must be an integer, got "):
            if entry == "run_protocol":
                run_protocol(PHI_CHANNEL, client, "sample", seed)
            else:
                run_session(PHI_CHANNEL, client, seed=seed)

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

    @pytest.mark.parametrize("entry", ["run_protocol", "run_session"])
    @pytest.mark.parametrize("kind", ["phi+", 2, None], ids=repr)
    def test_channel_entry_that_is_not_a_bell_kind_raises_before_any_walk(
        self, rng, monkeypatch, entry, kind
    ):
        def no_walk(*args):
            raise AssertionError("a walk started")

        monkeypatch.setattr(measure_module, "_channel_level", no_walk)
        kinds, client = (BellKind.PHI_PLUS, kind), random_client(2, rng)
        message = "channel kind must be a BellKind, got " + re.escape(repr(kind))
        with pytest.raises(TypeError, match=message):
            if entry == "run_protocol":
                run_protocol(kinds, client)
            else:
                run_session(kinds, client)

    def test_all_channel_specs_unit_fidelity(self, rng):
        # every 2-pair channel, a few clients each
        for kinds in product(KIND_ORDER, repeat=2):
            for _ in range(3):
                client = random_client(2, rng)
                for report in run_protocol(kinds, client):
                    assert report.probability == pytest.approx(1 / 16, abs=1e-12)
                    assert report.fidelity_vs_client >= 1 - 1e-9


class TestRunReports:
    def test_reports_and_their_states_are_slotted_frozen_and_round_trip(self, rng):
        reports = run_protocol(PHI_CHANNEL, random_client(2, rng))
        report = reports[5]
        for obj in (report, report.bob_pre_state, report.bob_corrected):
            assert not hasattr(obj, "__dict__")
            # a new name raises TypeError on Python 3.11, as dataclasses has it
            with pytest.raises((FrozenInstanceError, TypeError)):
                obj.extra = 0
        for obj, name in ((report, "probability"), (report.bob_corrected, "qubits")):
            with pytest.raises(FrozenInstanceError):
                setattr(obj, name, 0)
        for twin in (pickle.loads(pickle.dumps(report)), copy.copy(report)):
            assert twin.outcome == report.outcome
            for state in ("bob_pre_state", "bob_corrected"):
                got, expected = getattr(twin, state), getattr(report, state)
                assert got.qubits == expected.qubits == (1, 2)
                assert got.amps.tobytes() == expected.amps.tobytes()

    def test_indexes_as_a_list_does(self, rng):
        reports = run_protocol(PHI_CHANNEL, random_client(2, rng))
        assert isinstance(reports, teleport_module.RunReports)
        assert reports[7] is reports[7]
        listed = list(reports)
        assert len(reports) == len(listed) == 16
        for index in (0, 5, -1, -16, np.int64(3), np.intp(-2)):
            assert reports[index] is listed[index]
        for part in (slice(2, 9, 3), slice(None, None, -1), slice(20, 30), slice(-3, None)):
            got = reports[part]
            assert type(got) is list and len(got) == len(listed[part])
            assert all(a is b for a, b in zip(got, listed[part]))
        for index in (16, -17, np.int64(16)):
            with pytest.raises(IndexError):
                reports[index]
        with pytest.raises(TypeError):
            reports[1.0]

    def test_the_first_access_builds_every_report_and_later_ones_build_none(
        self, rng, monkeypatch
    ):
        built = []
        report_class = teleport_module.TeleportReport

        def counting(outcome, *args):
            built.append(outcome)
            return report_class(outcome, *args)

        monkeypatch.setattr(teleport_module, "TeleportReport", counting)
        client = random_client(2, rng)
        reports = run_protocol(PHI_CHANNEL, client)
        first = reports[3]
        assert len(built) == len(set(built)) == 16
        last, part = reports[-1], reports[2:6]
        listed = list(reports)
        assert list(reports) == listed and len(built) == 16
        assert listed[3] is first and listed[-1] is last and listed[2:6] == part
        built.clear()
        fresh = run_protocol(PHI_CHANNEL, client)
        with pytest.raises(IndexError):
            fresh[16]
        assert built == []

    @pytest.mark.parametrize("listers", [0, 3])
    def test_threads_indexing_at_once_see_one_report_per_branch(self, rng, listers):
        reports = run_protocol(PHI_CHANNEL * 2, random_client(4, rng))
        orders = [rng.permutation(len(reports)) for _ in range(8)]
        seen = [dict() for _ in orders]
        start = threading.Barrier(len(orders))

        def read(lists, order, got):
            start.wait(timeout=60)
            if lists:
                got.update(enumerate(list(reports)))
            else:
                for i in order:
                    got[i] = reports[i]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            # the first ``listers`` threads list the run, the rest index it
            threads = [
                threading.Thread(target=read, args=(t < listers, order, got))
                for t, (order, got) in enumerate(zip(orders, seen))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        for got in seen:
            assert len(got) == len(reports) == 256
            assert all(got[i] is reports[i] for i in range(256))

    def test_columns_are_the_walks_arrays_made_read_only(self, rng):
        kinds, client = PHI_CHANNEL, random_client(2, rng)
        walk = walk_branches(kinds, client.amps)
        reports = teleport_module.RunReports(kinds, walk, client.amps)
        assert np.shares_memory(reports.pre, walk.leaves)
        assert reports.outcomes is walk.outcomes
        assert reports.probabilities is walk.probabilities
        report = reports[3]
        assert np.shares_memory(report.bob_pre_state.amps, reports.pre)
        assert np.shares_memory(report.bob_corrected.amps, reports.post)
        columns = (
            reports.outcomes, reports.probabilities, reports.pre, reports.post,
            reports.fidelities, report.bob_pre_state.amps, report.bob_corrected.amps,
        )
        for column in columns:
            with pytest.raises(ValueError):
                column[(0,) * column.ndim] = 0
        for state in (report.bob_pre_state, report.bob_corrected):
            with pytest.raises(ValueError):
                state.amps.setflags(write=True)

    def test_block_check_rejects_a_bad_walk_row_under_python_O(self):
        # the checks are raises, not asserts, so python -O keeps them
        code = (
            "import numpy as np\n"
            "from crossbell.bell import BellKind\n"
            "from crossbell.statevec import NormalizationError, StateError, ket\n"
            "from crossbell.measure import walk_branches\n"
            "from crossbell.teleport import RunReports\n"
            "kinds, client = (BellKind.PHI_PLUS,), ket({3: 1})\n"
            "for bad, error in ((np.nan, StateError), (2.0, NormalizationError)):\n"
            "    walk = walk_branches(kinds, client.amps)\n"
            "    leaves = walk.leaves.copy()\n"
            "    leaves[2, 0] = bad\n"
            "    try:\n"
            "        RunReports(kinds, walk._replace(leaves=leaves), client.amps)\n"
            "    except error as exc:\n"
            "        print(type(exc).__name__)\n"
        )
        result = run_optimized(code)
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["StateError", "NormalizationError"]

    def test_warm_seven_pair_run_peaks_within_80_mib(self, rng):
        kinds = tuple(KIND_ORDER[c] for c in rng.integers(4, size=7))
        client = random_client(7, rng)
        run_protocol(kinds, client)  # warm: builds the channel's tables
        tracemalloc.start()
        try:
            reports = run_protocol(kinds, client)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(reports) == 4**7
        assert peak <= 80 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_session_is_the_sampled_runs_one_report_bit_for_bit(self, rng, n):
        for seed in rng.integers(2**63, size=5).tolist():
            kinds = tuple(KIND_ORDER[c] for c in rng.integers(4, size=n))
            client = random_client(n, rng)
            direct = run_protocol(kinds, client, mode="sample", seed=seed)
            assert isinstance(direct, teleport_module.RunReports)
            (twin,) = direct
            session = run_session(kinds, client, seed=seed)
            assert session.outcome == twin.outcome
            assert session.probability == twin.probability
            assert session.fidelity_vs_client == twin.fidelity_vs_client
            for got, expected in (
                (session.bob_pre_state, twin.bob_pre_state),
                (session.bob_corrected, twin.bob_corrected),
            ):
                assert got.qubits == expected.qubits
                assert got.amps.tobytes() == expected.amps.tobytes()


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

    def test_negative_recv_count_raises_and_keeps_the_buffer(self):
        # a negative slice bound would return all but the last bytes
        alice_end, bob_end = make_pipe()
        alice_end.send(b"XBEL\x01\x02P")
        with pytest.raises(ValueError, match="negative"):
            bob_end.recv(-1)
        assert bob_end.recv(0) == b""
        assert bob_end.recv(7) == b"XBEL\x01\x02P"

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
        injector, bob_end = make_pipe()
        injector.send(ClassicalMessage((BellKind.PSI_PLUS,)).encode())
        with pytest.raises(ProtocolViolation):
            run_session(
                PHI_CHANNEL, client, transport=(DiscardingEnd(), bob_end), seed=1
            )

    @pytest.mark.parametrize("seed", [1, 7, 123456789])
    def test_bob_corrects_by_the_frame_not_by_alices_record(self, rng, seed):
        # Alice's own frame is dropped and a well-formed one whose every
        # outcome differs from hers arrives instead: Bob's step reads the frame
        client = random_client(2, rng)
        alice = walk_branches(PHI_CHANNEL, client.amps, [seed])
        injected = tuple(KIND_ORDER[(c + 1) % 4] for c in alice.outcomes[0].tolist())
        injector, bob_end = make_pipe()
        injector.send(ClassicalMessage(injected).encode())
        report = run_session(
            PHI_CHANNEL, client, transport=(DiscardingEnd(), bob_end), seed=seed
        )
        assert report.outcome == injected
        assert report.bob_pre_state.qubits == (1, 2)
        assert np.array_equal(report.bob_pre_state.amps, alice.leaves[0])
        expected = recover(report.bob_pre_state, corrections_for(PHI_CHANNEL, injected))
        assert report.bob_corrected.qubits == expected.qubits
        assert _close(report.bob_corrected.amps, expected.amps, EXACT_TOL)

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

        monkeypatch.setattr(teleport_module, "walk_branches", failing_walk)
        alice_end, bob_end = make_pipe()
        with pytest.raises(RuntimeError, match="alice failed"):
            run_session(
                PHI_CHANNEL, random_client(2, rng), transport=(alice_end, bob_end)
            )
        with pytest.raises(SessionAborted):
            alice_end.send(b"x")
        assert bob_end.recv(1) == b""

    def test_sequential_seeds_sample_uniform_outcomes(self, rng):
        # every one of the 4**2 outcomes has probability 1/16 whatever the
        # client; 62.33 is chi-square's critical value at 1e-7 for df 15
        client = random_client(2, rng)
        counts = Counter(
            run_session(PHI_CHANNEL, client, seed=seed).outcome for seed in range(4096)
        )
        assert chi_square(counts.values(), 16) < 62.33

    def test_thousand_sessions_unit_fidelity(self, rng):
        failures = 0
        for trial in range(100):
            client = random_client(2, rng)
            report = run_session(PHI_CHANNEL, client, seed=trial)
            if report.fidelity_vs_client < 1 - 1e-9:
                failures += 1
        assert failures == 0
