from __future__ import annotations

from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crossbell.measure as measure_module
from crossbell.bell import KIND_ORDER, BellKind, bell_state
from crossbell.measure import (
    ZeroProbabilityOutcome,
    _pick,
    _project_raw,
    _uniforms,
    bell_collapse,
    bell_measure,
    bell_probabilities,
    project_onto_bell,
    sample_kind,
    walk_branches,
)
from crossbell.statevec import (
    DuplicateQubit, MissingQubit, PureState, cross, ket, tensor
)
from crossbell.teleport import ProtocolLayout, prepare_channel, total_state
from conftest import random_state


def reference_total(client_amps) -> PureState:
    channel = prepare_channel((BellKind.PHI_PLUS, BellKind.PHI_MINUS))
    client = PureState((5, 6), np.asarray(client_amps, dtype=complex))
    return total_state(channel, client)


class TestProbabilities:
    def test_eigenstate(self):
        probs = bell_probabilities(bell_state(BellKind.PSI_PLUS, (1, 2)), (1, 2))
        assert probs[BellKind.PSI_PLUS] == pytest.approx(1.0, abs=1e-12)
        for kind in KIND_ORDER[1:]:
            assert probs[kind] == pytest.approx(0.0, abs=1e-12)

    def test_zero_zero_ket(self):
        probs = bell_probabilities(ket({1: 0, 2: 0}), (1, 2))
        assert probs[BellKind.PSI_PLUS] == pytest.approx(0.5, abs=1e-12)
        assert probs[BellKind.PSI_MINUS] == pytest.approx(0.5, abs=1e-12)
        assert probs[BellKind.PHI_PLUS] == pytest.approx(0.0, abs=1e-12)
        assert probs[BellKind.PHI_MINUS] == pytest.approx(0.0, abs=1e-12)

    def test_reference_total_state_is_uniform(self, rng):
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        total = reference_total(amps / np.linalg.norm(amps))
        probs = bell_probabilities(total, (3, 5))
        for kind in KIND_ORDER:
            assert probs[kind] == pytest.approx(0.25, abs=1e-12)

    def test_completeness_random(self, rng):
        for _ in range(10):
            s = random_state((1, 2, 3), rng)
            for pair in [(1, 2), (1, 3), (2, 3)]:
                probs = bell_probabilities(s, pair)
                assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)

    def test_missing_qubit(self):
        with pytest.raises(MissingQubit):
            bell_probabilities(ket({1: 0, 2: 0}), (1, 9))

    @pytest.mark.parametrize(
        "measure",
        [
            lambda s, pair: bell_probabilities(s, pair),
            lambda s, pair: bell_collapse(s, pair, BellKind.PSI_PLUS),
            lambda s, pair: sample_kind(s, pair, np.random.default_rng(0)),
            lambda s, pair: bell_measure(s, pair, 0),
            lambda s, pair: project_onto_bell(s, pair, BellKind.PSI_PLUS),
        ],
        ids=[
            "bell_probabilities", "bell_collapse", "sample_kind", "bell_measure",
            "project_onto_bell",
        ],
    )
    def test_pair_naming_one_qubit_twice(self, measure):
        with pytest.raises(DuplicateQubit, match=r"\(2, 2\)"):
            measure(bell_state(BellKind.PSI_PLUS, (1, 2)), (2, 2))


class TestProjectRaw:
    @pytest.mark.parametrize(
        "qubits, pair",
        [((1, 2), (1, 2)), ((1, 2, 3, 4), (2, 4)), ((1, 2, 3, 4, 5), (5, 2))],
    )
    def test_array_columns_project_as_single_vectors(self, rng, qubits, pair):
        # BLAS may order or fuse a wider array's sums differently (numpy picks
        # its kernel by shape), so general columns agree with their
        # single-vector projections to rounding
        shape = (2 ** len(qubits), 6)
        vecs = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        for kind in KIND_ORDER:
            remaining, block = _project_raw(qubits, vecs, pair, kind)
            assert block.shape == (2 ** (len(qubits) - 2), shape[1])
            for j in range(shape[1]):
                column = _project_raw(qubits, vecs[:, j].copy(), pair, kind)
                assert column[0] == remaining
                assert np.max(np.abs(column[1] - block[:, j])) <= 1e-14

    def test_client_basis_columns_project_bit_for_bit(self):
        # the oracle's input, the channel joined with each client basis
        # state: each projected amplitude sums one nonzero term, so no order
        # of summation can change a bit
        layout = ProtocolLayout(2)
        channel = prepare_channel((BellKind.PHI_PLUS, BellKind.PSI_MINUS))
        start = channel.qubits + layout.client_ids
        for outcome in product(KIND_ORDER, repeat=2):
            qubits, block = start, np.kron(channel.amps[:, None], np.eye(4))
            columns = list(block.T)
            for pair, kind in zip(layout.measure_pairs, outcome):
                columns = [_project_raw(qubits, c, pair, kind)[1] for c in columns]
                qubits, block = _project_raw(qubits, block, pair, kind)
            assert np.array_equal(block, np.stack(columns, axis=1))


class TestCollapse:
    def test_eigenstate_with_spectator(self):
        s = tensor(bell_state(BellKind.PSI_PLUS, (1, 2)), ket({3: 0}))
        record = bell_collapse(s, (1, 2), BellKind.PSI_PLUS)
        assert record.probability == pytest.approx(1.0, abs=1e-12)
        assert record.residual.qubits == (3,)
        assert np.allclose(record.residual.amps, [1, 0])

    def test_two_stage_reference_collapse(self, rng):
        # Both measured pairs land on phi+: Bob keeps (a, -b, g, -d) at joint
        # probability 1/16, by brute-force expansion of the total state.
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        amps = amps / np.linalg.norm(amps)
        total = reference_total(amps)
        first = bell_collapse(total, (3, 5), BellKind.PHI_PLUS)
        second = bell_collapse(first.residual, (4, 6), BellKind.PHI_PLUS)
        joint = first.probability * second.probability
        assert joint == pytest.approx(1 / 16, abs=1e-12)
        a, b, g, d = amps
        assert second.residual.qubits == (1, 2)
        assert np.allclose(second.residual.amps, [a, -b, g, -d], atol=1e-12)

    def test_zero_probability_rejected(self):
        with pytest.raises(ZeroProbabilityOutcome):
            bell_collapse(ket({1: 0, 2: 0}), (1, 2), BellKind.PHI_PLUS)

    def test_reconstruction_from_all_sectors(self, rng):
        s = random_state((1, 2, 3, 4), rng)
        pair = (2, 4)
        rebuilt = np.zeros_like(s.amps.reshape([2] * 4))
        for kind in KIND_ORDER:
            remaining, raw = project_onto_bell(s, pair, kind)
            bell = bell_state(kind, pair).amps.reshape(2, 2)
            piece = np.tensordot(bell, raw.reshape([2] * 2), axes=0)
            # piece axes: (q2, q4, q1, q3) -> reorder to (q1, q2, q3, q4)
            piece = np.moveaxis(piece, [0, 1, 2, 3], [1, 3, 0, 2])
            rebuilt = rebuilt + piece
        assert np.allclose(rebuilt.reshape(-1), s.amps, atol=1e-12)

    def test_disjoint_measurements_commute(self, rng):
        s = random_state((1, 2, 3, 4, 5, 6), rng)
        for k1 in KIND_ORDER:
            for k2 in KIND_ORDER:
                first_a = bell_collapse(s, (3, 5), k1)
                then_b = bell_collapse(first_a.residual, (4, 6), k2)
                first_b = bell_collapse(s, (4, 6), k2)
                then_a = bell_collapse(first_b.residual, (3, 5), k1)
                p_ab = first_a.probability * then_b.probability
                p_ba = first_b.probability * then_a.probability
                assert p_ab == pytest.approx(p_ba, abs=1e-12)
                assert np.allclose(
                    then_b.residual.amps, then_a.residual.amps, atol=1e-9
                )


class TestSampling:
    def test_eigenstate_outcome_certain(self):
        s = bell_state(BellKind.PHI_MINUS, (1, 2))
        for seed in (0, 1, 12345):
            record = bell_measure(s, (1, 2), seed)
            assert record.outcome.kind is BellKind.PHI_MINUS

    def test_fixed_seed_is_deterministic(self, rng):
        s = random_state((1, 2, 3), rng)
        first = bell_measure(s, (1, 3), 777)
        second = bell_measure(s, (1, 3), 777)
        assert first.outcome == second.outcome
        assert np.array_equal(first.residual.amps, second.residual.amps)

    def test_empirical_frequencies_within_binomial_bounds(self, rng):
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        total = reference_total(amps / np.linalg.norm(amps))
        trials = 30_000
        sampler = np.random.default_rng(4242)
        counts = {kind: 0 for kind in KIND_ORDER}
        for _ in range(trials):
            counts[sample_kind(total, (3, 5), sampler)] += 1
        p = 0.25
        sigma = np.sqrt(p * (1 - p) / trials)
        for kind in KIND_ORDER:
            assert abs(counts[kind] / trials - p) <= 3 * sigma

    def test_rounding_shortfall_falls_back_to_a_possible_kind(self):
        # psi+ carries all the weight, but its rounded probability sits just
        # below the largest draw rng.random() can return
        class TopDraw:
            def random(self):
                return np.nextafter(1.0, 0.0)

        s = bell_state(BellKind.PSI_PLUS, (1, 2))
        assert bell_probabilities(s, (1, 2))[BellKind.PSI_PLUS] < TopDraw().random()
        kind = sample_kind(s, (1, 2), TopDraw())
        assert kind is BellKind.PSI_PLUS
        assert bell_collapse(s, (1, 2), kind).probability == pytest.approx(1.0)


PAIRS = ((3, 5), (4, 6))


def draws_of(seed, count):
    return np.random.default_rng(seed).random(count).tolist()


class TestWalkBranches:
    def test_enumeration_matches_one_projection_per_kind(self, rng):
        # reference: project_onto_bell contracts one kind at a time
        s = random_state((1, 2, 3, 4, 5, 6), rng)
        walk = walk_branches(s.qubits, s.amps, PAIRS)
        assert walk.trial_leaf is None
        leaves = list(zip(walk.outcomes, walk.probabilities, walk.leaves))
        assert [leaf[0] for leaf in leaves] == [
            (k1.code, k2.code) for k1 in KIND_ORDER for k2 in KIND_ORDER
        ]
        for outcome, probability, vec in leaves:
            state, expected = s, 1.0
            for pair, code in zip(PAIRS, outcome):
                remaining, raw = project_onto_bell(state, pair, KIND_ORDER[code])
                p = float(np.vdot(raw, raw).real)
                expected *= p
                state = PureState(remaining, raw / np.sqrt(p))
            assert probability == pytest.approx(expected, abs=1e-12)
            assert walk.qubits == state.qubits == (1, 2)
            assert np.allclose(vec, state.amps, atol=1e-12)
        total = sum(leaf[1] for leaf in leaves)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_sampled_path_draws_like_sample_kind(self, rng):
        # random(n) gives the numbers n rng.random() calls give
        s = random_state((1, 2, 3, 4, 5, 6), rng)
        for seed in range(20):
            walk = walk_branches(s.qubits, s.amps, PAIRS, [draws_of(seed, len(PAIRS))])
            ((outcome, probability, vec),) = zip(
                walk.outcomes, walk.probabilities, walk.leaves
            )
            assert walk.trial_leaf == [0]
            sampler = np.random.default_rng(seed)
            state, expected = s, []
            for pair in PAIRS:
                kind = sample_kind(state, pair, sampler)
                state = bell_collapse(state, pair, kind).residual
                expected.append(kind.code)
            assert outcome == tuple(expected)
            assert np.allclose(vec, state.amps, atol=1e-12)

    def test_trials_share_nodes_and_keep_first_appearance_order(self, rng):
        s = random_state((1, 2, 3, 4, 5, 6), rng)
        seeds = [3, 11, 3, 40, 11, 3]
        walk = walk_branches(
            s.qubits, s.amps, PAIRS, [draws_of(seed, len(PAIRS)) for seed in seeds]
        )
        alone = [
            walk_branches(s.qubits, s.amps, PAIRS, [draws_of(seed, len(PAIRS))])
            for seed in seeds
        ]
        reached = [one.outcomes[0] for one in alone]
        assert walk.outcomes == list(dict.fromkeys(reached))
        for t, one in enumerate(alone):
            leaf = walk.trial_leaf[t]
            assert walk.outcomes[leaf] == one.outcomes[0]
            assert walk.probabilities[leaf] == one.probabilities[0]
            assert np.array_equal(walk.leaves[leaf], one.leaves[0])

    def test_zero_probability_branch_rejected(self):
        s = tensor(bell_state(BellKind.PSI_PLUS, (1, 2)), ket({3: 0}))
        with pytest.raises(ZeroProbabilityOutcome):
            walk_branches(s.qubits, s.amps, [(1, 2)])

    def test_zero_probability_child_a_trial_reaches_is_rejected(self):
        # psi- carries 1e-13 of the weight: a draw just below 1 lands on it
        c_plus, c_minus = np.sqrt(1 - 1e-13), np.sqrt(1e-13)
        pair_amps = np.array(
            [c_plus + c_minus, 0, 0, c_plus - c_minus], dtype=complex
        ) / np.sqrt(2)
        s = tensor(PureState((1, 2), pair_amps), ket({3: 0}))
        walk = walk_branches(s.qubits, s.amps, [(1, 2)], [[0.3], [0.7]])
        assert walk.outcomes == [(BellKind.PSI_PLUS.code,)]
        with pytest.raises(ZeroProbabilityOutcome):
            walk_branches(s.qubits, s.amps, [(1, 2)], [[0.3], [1 - 5e-14]])
        # psi- and phi- carry 1e-13 and 2e-13: in a longer walk, later trials
        # reach both, and the first one reached is named
        c_plus, c_phi = np.sqrt(1 - 3e-13), np.sqrt(2e-13)
        pair_amps = np.array(
            [c_plus + c_minus, c_phi, -c_phi, c_plus - c_minus], dtype=complex
        ) / np.sqrt(2)
        s = tensor(PureState((1, 2), pair_amps), ket({3: 0}))
        draws = [[0.3], [0.7], [1 - 2.5e-13], [0.5], [1 - 1e-13]]
        message = r"outcome psi- on pair \(1, 2\) has probability 1\.000e-13"
        with pytest.raises(ZeroProbabilityOutcome, match=message):
            walk_branches(s.qubits, s.amps, [(1, 2)], draws)

    def test_draw_array_walks_as_the_same_draws_in_lists(self, rng):
        s = random_state((1, 2, 3, 4, 5, 6), rng)
        draws = _uniforms([3, 11, 3, 40, 11, 3, 2**64 - 1], len(PAIRS))
        as_array = walk_branches(s.qubits, s.amps, PAIRS, draws)
        as_lists = walk_branches(s.qubits, s.amps, PAIRS, draws.tolist())
        assert as_array.qubits == as_lists.qubits
        assert as_array.outcomes == as_lists.outcomes
        assert as_array.probabilities == as_lists.probabilities
        assert as_array.trial_leaf == as_lists.trial_leaf
        assert np.array_equal(as_array.leaves, as_lists.leaves)

    def test_joined_pairs_walk_as_the_joined_vector(self, rng):
        # each pair lands between the qubits it is joined onto, not at an end
        s = random_state((1, 3, 4, 6), rng)
        factors = [random_state(pair, rng) for pair in ((2, 7), (5, 8))]
        pairs = ((3, 7), (2, 6))
        joins = [(f.qubits, f.amps) for f in factors]
        draws = [draws_of(seed, len(pairs)) for seed in (5, 9, 5)]
        whole = cross(s, *factors)
        for rows in (None, draws[:1], draws):
            walk = walk_branches(s.qubits, s.amps, pairs, rows, joins)
            expected = walk_branches(whole.qubits, whole.amps, pairs, rows)
            assert walk.qubits == expected.qubits == (1, 4, 5, 8)
            assert walk.outcomes == expected.outcomes
            assert walk.trial_leaf == expected.trial_leaf
            assert np.allclose(
                walk.probabilities, expected.probabilities, rtol=0, atol=1e-15
            )
            assert np.allclose(walk.leaves, expected.leaves, rtol=0, atol=1e-15)

    def test_joins_must_add_new_qubits_one_pair_per_level(self, rng):
        s = random_state((1, 3, 4, 6), rng)
        pair_amps = random_state((2, 7), rng).amps
        with pytest.raises(DuplicateQubit, match=r"pair \(3, 7\)"):
            walk_branches(s.qubits, s.amps, [(1, 3)], None, [((3, 7), pair_amps)])
        with pytest.raises(ValueError, match="1 joins for 2 measured pairs"):
            walk_branches(s.qubits, s.amps, PAIRS, None, [((2, 7), pair_amps)])

    @pytest.mark.parametrize(
        "draws",
        [np.full((3, 1), 0.5), np.full((3, 3), 0.5), np.empty((0, 2))],
        ids=["too-few-columns", "extra-columns", "no-rows"],
    )
    def test_draws_of_the_wrong_shape_are_rejected(self, rng, draws):
        s = random_state((1, 2, 3, 4, 5, 6), rng)
        with pytest.raises(ValueError, match=r"shape \(rows, 2\)"):
            walk_branches(s.qubits, s.amps, PAIRS, draws)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from([0, 0, 1e-3, 0.5, 1, 2, 7]),
                st.sampled_from([1, -1, 1j]),
            ),
            min_size=16,
            max_size=16,
        ).filter(lambda cs: any(w for w, _ in cs)),
        st.sampled_from([(), (0,), (1,), (0, 1)]),
    )
    def test_array_picks_equal_each_trials_one_row_walk(self, coefficients, short):
        # Bell coefficients on (1, 2) then (3, 4), with zeros among them
        vec = sum(
            np.sqrt(w) * phase * tensor(
                bell_state(k1, (1, 2)), bell_state(k2, (3, 4))
            ).amps
            for (w, phase), (k1, k2) in zip(coefficients, product(KIND_ORDER, repeat=2))
        )
        vec = vec / np.linalg.norm(vec)
        pairs, qubits = ((1, 2), (3, 4)), (1, 2, 3, 4)
        contract = measure_module._contract

        def stub(qubits, level, pair):
            # a short level: every row's sum falls below the top draws, so
            # the fallback to the last possible kind fires
            remaining, rows, probs = contract(qubits, level, pair)
            if pairs.index(pair) in short:
                probs = probs * (1 - 2**-20)
            return remaining, rows, probs

        def edges(row):
            # the accumulated sums _pick compares against, and just below
            acc, out = 0.0, [0.0, 1 - 2**-53]
            for p in row:
                acc += p
                out += [acc, float(np.nextafter(acc, 0))]
            return out

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(measure_module, "_contract", stub)
            remaining, rows, probs = stub(qubits, vec.reshape(1, -1), pairs[0])
            # the level-2 nodes, normalized as the walk normalizes them (a
            # node no draw can reach is divided by 1 instead of by 0)
            nodes = rows[0].copy()
            measure_module._normalize(nodes, np.where(probs[0] > 0, probs[0], 1.0))
            below = stub(remaining, nodes, pairs[1])[2].tolist()
            first = probs[0].tolist()
            draws = [
                (u1, u2)
                for u1 in edges(first)
                for u2 in edges(below[_pick(first, u1)])
            ]
            alone, kept = [], []
            for row in draws:
                try:
                    alone.append(walk_branches(qubits, vec, pairs, [row]))
                except ZeroProbabilityOutcome:
                    continue  # a pick of a kind at or below EXACT_TOL
                kept.append(row)
            walk = walk_branches(qubits, vec, pairs, kept)
        assert len(kept) >= 2
        reached = [one.outcomes[0] for one in alone]
        assert walk.outcomes == list(dict.fromkeys(reached))
        assert walk.trial_leaf == [walk.outcomes.index(r) for r in reached]
        for t, one in enumerate(alone):
            assert one.trial_leaf == [0]
            leaf = walk.trial_leaf[t]
            assert walk.probabilities[leaf] == one.probabilities[0]
            assert walk.leaves[leaf].tobytes() == one.leaves[0].tobytes()


def generator_draws(seeds, n):
    return np.array([draws_of(s, n) for s in seeds])


class TestUniforms:
    # one- and two-word entropies, and each side of 2**32 and 2**63
    SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64 - 1]

    @pytest.mark.parametrize("n", range(1, 8))
    def test_rows_equal_each_seeds_generator_bit_for_bit(self, n):
        assert np.array_equal(_uniforms(self.SEEDS, n), generator_draws(self.SEEDS, n))

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=20),
        st.integers(1, 7),
    )
    def test_any_seeds_in_range_match_their_generators(self, seeds, n):
        assert np.array_equal(_uniforms(seeds, n), generator_draws(seeds, n))

    def test_int64_and_uint64_arrays_match_python_ints(self):
        # 9000 rows take more than one of the kernel's blocks
        seeds = np.random.default_rng(8).integers(2**63, size=9000)
        expected = generator_draws(seeds.tolist(), 3)
        assert np.array_equal(_uniforms(seeds, 3), expected)
        assert np.array_equal(_uniforms(seeds.astype(np.uint64), 3), expected)

    @pytest.mark.parametrize(
        "seeds",
        [
            [5, -1],
            [2**64],
            [2**64 + 5],
            np.array([5, -1], dtype=np.int64),
            np.array([-(2**63)], dtype=np.int64),
        ],
        ids=["negative", "2**64", "above", "int64-negative", "int64-min"],
    )
    def test_seed_outside_the_uint64_range_raises_and_does_not_wrap(self, seeds):
        with pytest.raises(ValueError, match="seed"):
            _uniforms(seeds, 3)
