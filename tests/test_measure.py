from __future__ import annotations

import numpy as np
import pytest

from crossbell.bell import KIND_ORDER, BellKind, bell_state
from crossbell.measure import (
    ZeroProbabilityOutcome,
    bell_collapse,
    bell_measure,
    bell_probabilities,
    project_onto_bell,
    sample_kind,
    walk_branches,
)
from crossbell.statevec import MissingQubit, PureState, ket, tensor
from crossbell.teleport import prepare_channel, total_state
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
            (k1, k2) for k1 in KIND_ORDER for k2 in KIND_ORDER
        ]
        for outcome, probability, vec in leaves:
            state, expected = s, 1.0
            for pair, kind in zip(PAIRS, outcome):
                remaining, raw = project_onto_bell(state, pair, kind)
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
                expected.append(kind)
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
        assert walk.outcomes == [(BellKind.PSI_PLUS,)]
        with pytest.raises(ZeroProbabilityOutcome):
            walk_branches(s.qubits, s.amps, [(1, 2)], [[0.3], [1 - 5e-14]])
