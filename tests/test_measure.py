from __future__ import annotations

from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crossbell.measure as measure_module
from crossbell.bell import _BELL_AMPS, KIND_ORDER, BellKind, _contract, bell_state
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
from crossbell.teleport import (
    ProtocolLayout, prepare_channel, run_protocol, run_session, total_state
)
from conftest import random_state, run_optimized


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
        assert walk.outcomes.dtype.kind == "i"
        leaves = list(zip(walk.outcomes.tolist(), walk.probabilities, walk.leaves))
        assert [leaf[0] for leaf in leaves] == [
            [k1.code, k2.code] for k1 in KIND_ORDER for k2 in KIND_ORDER
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
            assert walk.trial_leaf.tolist() == [0]
            sampler = np.random.default_rng(seed)
            state, expected = s, []
            for pair in PAIRS:
                kind = sample_kind(state, pair, sampler)
                state = bell_collapse(state, pair, kind).residual
                expected.append(kind.code)
            assert outcome.tolist() == expected
            assert np.allclose(vec, state.amps, atol=1e-12)

    def test_trials_share_nodes_and_keep_code_order(self, rng):
        s = random_state((1, 2, 3, 4, 5, 6), rng)
        # trials first reach (2, 3), (0, 0), (2, 1), (0, 1) and (3, 0): out of
        # code order at both levels
        seeds = [40, 3, 6, 40, 11, 3, 9]
        walk = walk_branches(
            s.qubits, s.amps, PAIRS, [draws_of(seed, len(PAIRS)) for seed in seeds]
        )
        alone = [
            walk_branches(s.qubits, s.amps, PAIRS, [draws_of(seed, len(PAIRS))])
            for seed in seeds
        ]
        reached = [tuple(one.outcomes[0].tolist()) for one in alone]
        assert list(dict.fromkeys(reached)) != sorted(set(reached))
        assert list(map(tuple, walk.outcomes.tolist())) == sorted(set(reached))
        for t, one in enumerate(alone):
            leaf = walk.trial_leaf[t]
            assert np.array_equal(walk.outcomes[leaf], one.outcomes[0])
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
        assert walk.outcomes.tolist() == [[BellKind.PSI_PLUS.code]]
        with pytest.raises(ZeroProbabilityOutcome):
            walk_branches(s.qubits, s.amps, [(1, 2)], [[0.3], [1 - 5e-14]])
        # psi- and phi- carry 1e-13 and 2e-13: in a longer walk, later trials
        # reach phi- and then psi-, and psi-, the lower code, is named
        c_plus, c_phi = np.sqrt(1 - 3e-13), np.sqrt(2e-13)
        pair_amps = np.array(
            [c_plus + c_minus, c_phi, -c_phi, c_plus - c_minus], dtype=complex
        ) / np.sqrt(2)
        s = tensor(PureState((1, 2), pair_amps), ket({3: 0}))
        draws = [[0.3], [0.7], [1 - 1e-13], [0.5], [1 - 2.5e-13]]
        message = r"outcome psi- on pair \(1, 2\) has probability 1\.000e-13"
        with pytest.raises(ZeroProbabilityOutcome, match=message):
            walk_branches(s.qubits, s.amps, [(1, 2)], draws)

    def test_draw_array_walks_as_the_same_draws_in_lists(self, rng):
        s = random_state((1, 2, 3, 4, 5, 6), rng)
        draws = _uniforms([3, 11, 3, 40, 11, 3, 2**64 - 1], len(PAIRS))
        as_array = walk_branches(s.qubits, s.amps, PAIRS, draws)
        as_lists = walk_branches(s.qubits, s.amps, PAIRS, draws.tolist())
        assert as_array.qubits == as_lists.qubits
        assert np.array_equal(as_array.outcomes, as_lists.outcomes)
        assert np.array_equal(as_array.probabilities, as_lists.probabilities)
        assert np.array_equal(as_array.trial_leaf, as_lists.trial_leaf)
        assert np.array_equal(as_array.leaves, as_lists.leaves)

    def test_joined_pairs_walk_as_the_joined_vector(self, rng):
        # Bell-kind joins on the protocol layout: channel pair m is (m, n+m),
        # measured pair m is (n+m, 2n+m), and the client holds 2n+1..3n
        for n in (1, 2, 3):
            layout = ProtocolLayout(n)
            client = random_state(layout.client_ids, rng)
            draws = [draws_of(seed, n) for seed in (5, 9, 5)]
            for kinds, rows in product(
                product(KIND_ORDER, repeat=n), (None, draws[:1], draws)
            ):
                joins = list(zip(layout.channel_pairs, kinds))
                whole = cross(prepare_channel(kinds), client)
                pairs = layout.measure_pairs
                walk = walk_branches(client.qubits, client.amps, pairs, rows, joins)
                expected = walk_branches(whole.qubits, whole.amps, pairs, rows)
                assert walk.qubits == expected.qubits == layout.bob_ids
                assert np.array_equal(walk.outcomes, expected.outcomes)
                if rows is None:
                    assert walk.trial_leaf is expected.trial_leaf is None
                else:
                    assert np.array_equal(walk.trial_leaf, expected.trial_leaf)
                assert np.allclose(
                    walk.probabilities, expected.probabilities, rtol=0, atol=1e-15
                )
                assert np.allclose(walk.leaves, expected.leaves, rtol=0, atol=1e-15)

    def test_joins_must_add_new_qubits_one_pair_per_level(self, rng):
        s = random_state((1, 3, 4, 6), rng)
        with pytest.raises(DuplicateQubit, match=r"pair \(3, 7\)"):
            walk_branches(
                s.qubits, s.amps, [(7, 4)], None, [((3, 7), BellKind.PHI_PLUS)]
            )
        with pytest.raises(ValueError, match="1 joins for 2 measured pairs"):
            walk_branches(
                s.qubits, s.amps, PAIRS, None, [((2, 7), BellKind.PSI_PLUS)]
            )

    @pytest.mark.parametrize(
        "join, pair",
        [
            (((2, 7), BellKind.PSI_MINUS), (7, 9)),  # 2 does not sort to 9's axis
            (((2, 7), BellKind.PSI_MINUS), (7, 3)),  # the measured 3 is below 7
            (((8, 7), BellKind.PHI_MINUS), (7, 9)),  # the channel pair reversed
            (((2, 7), BellKind.PHI_PLUS), (3, 7)),  # the measured pair reversed
            (((2, 7), BellKind.PHI_PLUS), (7, 8)),  # 8 is not a qubit
        ],
    )
    def test_joins_off_the_protocol_geometry_raise(self, rng, join, pair):
        s = random_state((1, 3, 4, 6, 9), rng)
        with pytest.raises(ValueError, match="must put"):
            walk_branches(s.qubits, s.amps, [pair], None, [join])

    @pytest.mark.parametrize(
        "draws",
        [np.full((3, 1), 0.5), np.full((3, 3), 0.5), np.empty((0, 2))],
        ids=["too-few-columns", "extra-columns", "no-rows"],
    )
    def test_draws_of_the_wrong_shape_are_rejected(self, rng, draws):
        s = random_state((1, 2, 3, 4, 5, 6), rng)
        with pytest.raises(ValueError, match=r"shape \(rows, 2\)"):
            walk_branches(s.qubits, s.amps, PAIRS, draws)

    @pytest.mark.parametrize(
        "draws",
        [[[np.nan]], [[np.nan], [np.nan]], [[1.5]], [[-0.5]], [[0.5], [1.0]]],
        ids=["nan-one-row", "nan-rows", "above-one", "negative", "one"],
    )
    def test_draws_outside_the_unit_interval_are_rejected(self, rng, draws):
        # unchecked, a NaN draw picked phi- through _pick, psi+ through _pick_rows
        s = random_state((1, 2), rng)
        with pytest.raises(ValueError, match=r"draws must lie in \[0, 1\)"):
            walk_branches(s.qubits, s.amps, [(1, 2)], draws)

    def test_draw_check_is_a_raise_that_python_O_keeps(self):
        code = (
            "import numpy as np\n"
            "from crossbell.measure import walk_branches\n"
            "for draws in ([[np.nan]], [[np.nan], [np.nan]], [[0.5], [1.5]]):\n"
            "    try:\n"
            "        walk_branches((1, 2), np.full(4, 0.5), [(1, 2)], draws)\n"
            "    except ValueError as error:\n"
            "        print(error)\n"
        )
        result = run_optimized(code)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines() == [
            "draws must lie in [0, 1), got nan to nan",
            "draws must lie in [0, 1), got nan to nan",
            "draws must lie in [0, 1), got 0.5 to 1.5",
        ]

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
            # the accumulated sums _pick compares against, and just below,
            # that are draws: a sum can round to 1 or above
            acc, out = 0.0, [0.0, 1 - 2**-53]
            for p in row:
                acc += p
                out += [acc, float(np.nextafter(acc, 0))]
            return [u for u in out if u < 1.0]

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
        reached = [tuple(one.outcomes[0].tolist()) for one in alone]
        paths = list(map(tuple, walk.outcomes.tolist()))
        assert paths == sorted(set(reached))
        assert walk.trial_leaf.tolist() == [paths.index(r) for r in reached]
        for t, one in enumerate(alone):
            assert one.trial_leaf.tolist() == [0]
            leaf = walk.trial_leaf[t]
            assert walk.probabilities[leaf] == one.probabilities[0]
            assert walk.leaves[leaf].tobytes() == one.leaves[0].tobytes()


def joined_then_contracted(qubits, level, join, pair):
    """Reference for ``_channel_level``: the level as the walker once ran it,
    each row joined with the Bell pair's amplitudes in one broadcast multiply
    (the pair's two bits put in their places in ascending id order), then
    all four projections of the joined rows by ``_contract``."""
    (lo, hi), kind = join
    joined = tuple(sorted(qubits + (lo, hi)))
    ax_lo, ax_hi = joined.index(lo), joined.index(hi)
    psi = level.reshape(len(level), 2**ax_lo, 1, 2 ** (ax_hi - ax_lo - 1), 1, -1)
    rows = psi * _BELL_AMPS[kind].reshape(2, 1, 2, 1)
    return _contract(joined, rows.reshape(len(level), -1), pair)


class TestChannelLevel:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_walk_equals_the_join_then_contract_reference(self, rng, n):
        # Four channels put every Bell kind at every level. Outcomes, trial
        # leaves and the bytes of the probabilities are the reference's.
        # Amplitudes are compared with np.array_equal, which counts -0.0 equal
        # to 0.0: where the reference adds a node amplitude times a zero Bell
        # amplitude to an exact zero, the kernel may give that zero the other
        # sign, so clients that hold exact zeros can differ there, and only
        # there.
        layout = ProtocolLayout(n)
        dense = random_state(layout.client_ids, rng).amps
        sparse = dense * (rng.random(2**n) < 0.5)
        sparse[0] = 1.0
        sparse.imag[rng.random(2**n) < 0.5] = 0.0
        sparse /= np.linalg.norm(sparse)
        draw_sets = (None, _uniforms([n], n), _uniforms(np.arange(500), n))
        for shift, amps, draws in product(range(4), (dense, sparse), draw_sets):
            kinds = [KIND_ORDER[(shift + d) % 4] for d in range(n)]
            joins = list(zip(layout.channel_pairs, kinds))
            args = (layout.client_ids, amps, layout.measure_pairs, draws, joins)
            walk = walk_branches(*args)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(measure_module, "_channel_level", joined_then_contracted)
                expected = walk_branches(*args)
            assert walk.qubits == expected.qubits == layout.bob_ids
            assert np.array_equal(walk.outcomes, expected.outcomes)
            if draws is None:
                assert walk.trial_leaf is expected.trial_leaf is None
            else:
                assert np.array_equal(walk.trial_leaf, expected.trial_leaf)
            assert walk.probabilities.tobytes() == expected.probabilities.tobytes()
            assert np.array_equal(walk.leaves, expected.leaves)
            if amps is dense:
                assert walk.leaves.tobytes() == expected.leaves.tobytes()


_WORD = 2**64 - 1


def splitmix64_draws(seed, count):
    """The first ``count`` SplitMix64 outputs seeded with ``seed``, stepped
    one at a time on Python ints mod 2**64 as the reference C code steps
    them, each scaled as ``Generator.random`` scales a 64-bit word."""
    state, draws = seed, []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & _WORD
        z = (state ^ state >> 30) * 0xBF58476D1CE4E5B9 & _WORD
        z = (z ^ z >> 27) * 0x94D049BB133111EB & _WORD
        draws.append(((z ^ z >> 31) >> 11) * 2.0**-53)
    return draws


def reference_draws(seeds, n):
    return np.array([splitmix64_draws(s, n) for s in seeds])


class TestUniforms:
    # each side of 2**32 and 2**63, and both ends of the seed range
    SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64 - 1]

    def test_seed_zero_draws_the_reference_codes_first_output(self):
        # splitmix64.c seeded with 0 first returns 0xE220A8397B1DCDAF
        assert _uniforms([0], 1)[0, 0] == (0xE220A8397B1DCDAF >> 11) * 2.0**-53

    @pytest.mark.parametrize("n", range(1, 8))
    def test_rows_equal_the_scalar_reference_bit_for_bit(self, n):
        assert np.array_equal(_uniforms(self.SEEDS, n), reference_draws(self.SEEDS, n))

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=20),
        st.integers(1, 7),
    )
    def test_any_seeds_in_range_match_the_scalar_reference(self, seeds, n):
        assert np.array_equal(_uniforms(seeds, n), reference_draws(seeds, n))

    def test_int64_and_uint64_arrays_match_python_ints(self):
        # 9000 rows take more than one of the kernel's blocks
        seeds = np.random.default_rng(8).integers(2**63, size=9000)
        expected = reference_draws(seeds.tolist(), 3)
        assert np.array_equal(_uniforms(seeds, 3), expected)
        assert np.array_equal(_uniforms(seeds.astype(np.uint64), 3), expected)

    def test_one_seed_draws_its_row_of_a_batch(self):
        seeds = [7, 2**63 + 5, 0, 7, 2**64 - 1]
        batch = _uniforms(seeds, 5)
        for t, seed in enumerate(seeds):
            assert np.array_equal(_uniforms([seed], 5), batch[t : t + 1])

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

    @pytest.mark.parametrize(
        "run",
        [
            lambda kinds, client: run_protocol(kinds, client, "sample", seed=2**64),
            lambda kinds, client: run_session(kinds, client, seed=-1),
        ],
        ids=["run_protocol-2**64", "run_session-negative"],
    )
    def test_a_run_seed_outside_the_uint64_range_raises(self, rng, run):
        kinds = (BellKind.PHI_PLUS, BellKind.PSI_MINUS)
        client = random_state(ProtocolLayout(2).client_ids, rng)
        with pytest.raises(ValueError, match="seed"):
            run(kinds, client)
