from __future__ import annotations

import re
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crossbell.measure as measure_module
from crossbell.bell import (
    _BELL_AMPS, _SQRT1_2, KIND_ORDER, BellKind, _contract, bell_state
)
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
from crossbell.statevec import DuplicateQubit, MissingQubit, PureState, ket, tensor
from crossbell.teleport import (
    ProtocolLayout, prepare_channel, run_protocol, run_session, total_state
)
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


class RowDraws:
    """A stand-in rng whose ``random()`` calls return one row of draws."""

    def __init__(self, row):
        self.draws = iter(row.tolist())

    def random(self):
        return next(self.draws)


CHANNEL_LEVEL = measure_module._channel_level


def scaled_levels(weights):
    """A ``_channel_level`` stand-in that multiplies level d's Born
    probabilities by ``weights[d]``, one factor per kind."""

    def stub(level, kind, depth):
        rows, probs = CHANNEL_LEVEL(level, kind, depth)
        return rows, probs * weights[depth]

    return stub


def given_draws(seeds, n):
    """A ``_uniforms`` stand-in: the walk's "seeds" are its rows of draws."""
    return np.array(seeds, dtype=float).reshape(len(seeds), n)


def no_level(*args):
    raise AssertionError("a level was walked")


class TestWalkBranches:
    def test_enumeration_matches_one_projection_per_kind(self, rng):
        # reference: project_onto_bell contracts one kind at a time from the
        # total state
        layout = ProtocolLayout(2)
        kinds = (BellKind.PHI_PLUS, BellKind.PSI_MINUS)
        client = random_state(layout.client_ids, rng)
        walk = walk_branches(kinds, client.amps)
        assert walk.trial_leaf is None
        assert walk.outcomes.dtype.kind == "i"
        leaves = list(zip(walk.outcomes.tolist(), walk.probabilities, walk.leaves))
        assert [leaf[0] for leaf in leaves] == [
            [k1.code, k2.code] for k1 in KIND_ORDER for k2 in KIND_ORDER
        ]
        total = total_state(prepare_channel(kinds), client)
        for outcome, probability, vec in leaves:
            state, expected = total, 1.0
            for pair, code in zip(layout.measure_pairs, outcome):
                remaining, raw = project_onto_bell(state, pair, KIND_ORDER[code])
                p = float(np.vdot(raw, raw).real)
                expected *= p
                state = PureState(remaining, raw / np.sqrt(p))
            assert probability == pytest.approx(expected, abs=1e-12)
            assert state.qubits == layout.bob_ids
            assert np.allclose(vec, state.amps, atol=1e-12)
        assert sum(leaf[1] for leaf in leaves) == pytest.approx(1.0, abs=1e-12)

    def test_trials_share_nodes_and_keep_code_order(self, rng):
        # every Born probability is 1/4, so draw u picks kind floor(4u): these
        # seeds first reach (2, 3), (0, 2), (2, 1), (0, 0) and (2, 0), out of
        # code order at both levels
        kinds = (BellKind.PSI_MINUS, BellKind.PHI_PLUS)
        amps = random_state(ProtocolLayout(2).client_ids, rng).amps
        seeds = [9, 3, 6, 9, 20, 3, 19]
        walk = walk_branches(kinds, amps, seeds)
        alone = [walk_branches(kinds, amps, [seed]) for seed in seeds]
        reached = [tuple(one.outcomes[0].tolist()) for one in alone]
        assert list(dict.fromkeys(reached)) != sorted(set(reached))
        assert list(map(tuple, walk.outcomes.tolist())) == sorted(set(reached))
        for t, one in enumerate(alone):
            leaf = walk.trial_leaf[t]
            assert np.array_equal(walk.outcomes[leaf], one.outcomes[0])
            assert walk.probabilities[leaf] == one.probabilities[0]
            assert np.array_equal(walk.leaves[leaf], one.leaves[0])

    def test_seed_lists_and_integer_arrays_walk_alike(self, rng):
        kinds = (BellKind.PHI_MINUS, BellKind.PSI_PLUS, BellKind.PHI_PLUS)
        amps = random_state(ProtocolLayout(3).client_ids, rng).amps
        seeds = [3, 11, 3, 40, 11, 3, 2**63 - 1]
        as_list = walk_branches(kinds, amps, seeds)
        for dtype in (np.int64, np.uint64):
            as_array = walk_branches(kinds, amps, np.array(seeds, dtype=dtype))
            assert np.array_equal(as_array.outcomes, as_list.outcomes)
            assert np.array_equal(as_array.trial_leaf, as_list.trial_leaf)
            assert as_array.probabilities.tobytes() == as_list.probabilities.tobytes()
            assert as_array.leaves.tobytes() == as_list.leaves.tobytes()

    @pytest.mark.parametrize(
        "n, shape",
        [(1, (4,)), (2, (2,)), (2, (2, 2)), (1, (1, 2))],
        ids=["too-many", "too-few", "2-d", "one-row"],
    )
    def test_amplitudes_other_than_2_to_the_n_in_1d_raise_before_any_level(
        self, monkeypatch, n, shape
    ):
        # unchecked, one pair walked 4 amplitudes into four leaves of 4
        kinds = (BellKind.PHI_PLUS,) * n
        vec = np.full(shape, np.prod(shape) ** -0.5, dtype=complex)
        monkeypatch.setattr(measure_module, "_channel_level", no_level)
        message = rf"need {2**n} client amplitudes, got shape {re.escape(str(shape))}"
        for seeds in (None, [5]):
            with pytest.raises(ValueError, match=message):
                walk_branches(kinds, vec, seeds)

    @pytest.mark.parametrize(
        "vec",
        [np.array([0.5, 0.0, -0.5, 0.5]),
         np.array([0.5, 0.5j, -0.5, 0.5], dtype=np.complex64),
         np.array([1, 0, 0, 0])],
        ids=["float64", "complex64", "int64"],
    )
    def test_amplitudes_other_than_complex128_raise_before_any_level(
        self, monkeypatch, vec
    ):
        # unchecked, the level read a float64 client's 4 floats as 2 amplitudes
        kinds = (BellKind.PHI_PLUS,) * 2
        monkeypatch.setattr(measure_module, "_channel_level", no_level)
        message = rf"client amplitudes must be complex128, got dtype {vec.dtype}"
        for seeds in (None, [5]):
            with pytest.raises(TypeError, match=message):
                walk_branches(kinds, vec, seeds)

    @pytest.mark.parametrize(
        "seeds, error",
        [
            ([-1], ValueError),
            ([2**64], ValueError),
            ([1.5], TypeError),
            ([True], TypeError),
            (np.array([1.0]), TypeError),
            (np.array([[1]]), ValueError),
            (np.array([], dtype=int), ValueError),
        ],
        ids=["negative", "2**64", "float", "bool", "float-array", "2-d", "empty"],
    )
    def test_bad_seeds_raise_before_any_level(self, rng, monkeypatch, seeds, error):
        amps = random_state(ProtocolLayout(2).client_ids, rng).amps
        monkeypatch.setattr(measure_module, "_channel_level", no_level)
        with pytest.raises(error, match="seed"):
            walk_branches((BellKind.PHI_PLUS, BellKind.PSI_PLUS), amps, seeds)

    def test_sampled_path_draws_like_sample_kind(self, rng):
        # sample_kind, on the total state, reads the seed's _uniforms row one
        # rng.random() call at a time; the 20 seeds cover every 2-pair channel
        layout = ProtocolLayout(2)
        client = random_state(layout.client_ids, rng)
        for seed in range(20):
            kinds = (KIND_ORDER[seed % 4], KIND_ORDER[seed // 4 % 4])
            walk = walk_branches(kinds, client.amps, [seed])
            ((outcome, probability, vec),) = zip(
                walk.outcomes, walk.probabilities, walk.leaves
            )
            assert walk.trial_leaf.tolist() == [0]
            sampler = RowDraws(_uniforms([seed], 2)[0])
            state, expected, p = total_state(prepare_channel(kinds), client), [], 1.0
            for pair in layout.measure_pairs:
                kind = sample_kind(state, pair, sampler)
                record = bell_collapse(state, pair, kind)
                state, p = record.residual, p * record.probability
                expected.append(kind.code)
            assert outcome.tolist() == expected
            assert probability == pytest.approx(p, rel=0, abs=1e-12)
            assert np.allclose(vec, state.amps, rtol=0, atol=1e-12)

    def test_zero_probability_child_a_trial_reaches_is_rejected(self, rng):
        # one pair, (2, 3): psi- carries 1e-13 of the weight and phi+ none
        kinds = (BellKind.PHI_MINUS,)
        amps = random_state(ProtocolLayout(1).client_ids, rng).amps
        message = r"outcome psi- on pair \(2, 3\) has probability 1\.000e-13"
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(
                measure_module, "_channel_level",
                scaled_levels([4 * np.array([1 - 1e-13, 1e-13, 0, 0])]),
            )
            mp.setattr(measure_module, "_uniforms", given_draws)
            # enumerating keeps every child, so the first zero raises
            with pytest.raises(ZeroProbabilityOutcome, match=message):
                walk_branches(kinds, amps)
            # a draw just below 1 lands on psi-
            walk = walk_branches(kinds, amps, [[0.3], [0.7]])
            assert walk.outcomes.tolist() == [[BellKind.PSI_PLUS.code]]
            with pytest.raises(ZeroProbabilityOutcome, match=message):
                walk_branches(kinds, amps, [[0.3], [1 - 5e-14]])
            # psi- and phi- carry 1e-13 and 2e-13: later trials reach phi-
            # and then psi-, and psi-, the lower code, is named
            mp.setattr(
                measure_module, "_channel_level",
                scaled_levels([4 * np.array([1 - 3e-13, 1e-13, 0, 2e-13])]),
            )
            draws = [[0.3], [0.7], [1 - 1e-13], [0.5], [1 - 2.5e-13]]
            with pytest.raises(ZeroProbabilityOutcome, match=message):
                walk_branches(kinds, amps, draws)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.sampled_from([0, 0, 1e-3, 0.5, 1, 2, 7]), min_size=4, max_size=4
            ).filter(any),
            min_size=5,
            max_size=5,
        ),
        st.sampled_from([(), (0,), (1,), (0, 1)]),
    )
    def test_array_picks_equal_each_trials_one_row_walk(self, weights, short):
        # Level 1's probabilities are its Born ones, 1/4 each, times row 0 of
        # the per-kind weights; level 2's, under level-1 node k, times row
        # 1 + k. So level-2 nodes differ in their zeros and in their sums,
        # above and below 1, and a pick must read its own node's row.
        kinds = (BellKind.PHI_PLUS, BellKind.PSI_MINUS)
        amps = random_state(ProtocolLayout(2).client_ids, np.random.default_rng(3)).amps
        weights = 4 * np.array(weights) / np.sum(weights, axis=1, keepdims=True)
        for depth in short:
            # a short level: every row's sum falls below the top draws, so
            # the fallback to the last possible kind fires
            weights[slice(0, 1) if depth == 0 else slice(1, None)] *= 1 - 2**-20
        rows, probs = CHANNEL_LEVEL(amps.reshape(1, -1), kinds[0], 0)
        first = (probs[0] * weights[0]).tolist()
        # the level-2 nodes, normalized as the walk normalizes them (a node
        # no draw can reach is divided by 1 instead of by 0)
        nodes = rows[0].copy()
        measure_module._normalize(nodes, np.array([p if p > 0 else 1.0 for p in first]))

        def stub(level, kind, depth):
            rows, probs = CHANNEL_LEVEL(level, kind, depth)
            if depth == 0:
                return rows, probs * weights[0]
            parents = [
                next(k for k, node in enumerate(nodes) if np.array_equal(row, node))
                for row in level
            ]
            return rows, probs * weights[1:][parents]

        def edges(row):
            # the accumulated sums _pick compares against, and just below,
            # that are draws: a sum can round to 1 or above
            acc, out = 0.0, [0.0, 1 - 2**-53]
            for p in row:
                acc += p
                out += [acc, float(np.nextafter(acc, 0))]
            return [u for u in out if u < 1.0]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(measure_module, "_channel_level", stub)
            mp.setattr(measure_module, "_uniforms", given_draws)
            below = stub(nodes, kinds[1], 1)[1].tolist()
            draws = [
                (u1, u2)
                for u1 in edges(first)
                for u2 in edges(below[_pick(first, u1)])
            ]
            alone, kept = [], []
            for row in draws:
                try:
                    alone.append(walk_branches(kinds, amps, [row]))
                except ZeroProbabilityOutcome:
                    continue  # a pick of a kind at or below EXACT_TOL
                kept.append(row)
            walk = walk_branches(kinds, amps, kept)
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


def joined_then_contracted(level, kind, depth):
    """Reference for ``_channel_level`` on the protocol layout: each row, on
    Bob's qubits 1..d and client qubits 2n+d+1..3n, joined with channel pair
    d+1's Bell amplitudes in one broadcast multiply (the pair's two bits put
    in their places in ascending id order), then all four projections of the
    joined rows onto measured pair d+1 by ``_contract``."""
    layout = ProtocolLayout(level.shape[1].bit_length() - 1)
    qubits = layout.bob_ids[:depth] + layout.client_ids[depth:]
    lo, hi = layout.channel_pairs[depth]
    joined = tuple(sorted(qubits + (lo, hi)))
    ax_lo, ax_hi = joined.index(lo), joined.index(hi)
    psi = level.reshape(len(level), 2**ax_lo, 1, 2 ** (ax_hi - ax_lo - 1), 1, -1)
    rows = psi * _BELL_AMPS[kind].reshape(2, 1, 2, 1)
    _, rows, probs = _contract(
        joined, rows.reshape(len(level), -1), layout.measure_pairs[depth]
    )
    return rows, probs


def halves_level(level, kind, depth):
    """Reference for ``_channel_level``'s array steps, the kernel they
    replaced: each node times 2**-1/2 into one half of a (N, 2, ...) block,
    the other half its copy with axis d reversed, then one broadcast multiply
    by ``_LEVEL_FACTORS[kind]`` writes all four children."""
    rows_in, f = len(level), kind.code >> 1
    node = level.view(np.float64).reshape(rows_in, 2**depth, 2, -1)
    halves = np.empty((rows_in, 2) + node.shape[1:])
    np.multiply(node, _SQRT1_2, out=halves[:, f])
    halves[:, 1 - f] = halves[:, f, :, ::-1]
    factors = np.empty((2, 2) + node.shape[1:])
    factors[...] = measure_module._LEVEL_FACTORS[kind.code].reshape(2, 2, 1, 2, 1)
    flat = np.multiply(halves[:, :, None], factors).reshape(rows_in, 4, -1)
    return flat.view(complex), np.einsum("nki,nki->nk", flat, flat)


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
        seed_sets = (None, [n], np.arange(500))
        for shift, amps, seeds in product(range(4), (dense, sparse), seed_sets):
            kinds = [KIND_ORDER[(shift + d) % 4] for d in range(n)]
            walk = walk_branches(kinds, amps, seeds)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(measure_module, "_channel_level", joined_then_contracted)
                expected = walk_branches(kinds, amps, seeds)
            assert np.array_equal(walk.outcomes, expected.outcomes)
            if seeds is None:
                assert walk.trial_leaf is expected.trial_leaf is None
            else:
                assert np.array_equal(walk.trial_leaf, expected.trial_leaf)
            assert walk.probabilities.tobytes() == expected.probabilities.tobytes()
            assert np.array_equal(walk.leaves, expected.leaves)
            if amps is dense:
                assert walk.leaves.tobytes() == expected.leaves.tobytes()

    @pytest.mark.parametrize("n", range(1, 9))
    def test_rows_and_born_sums_equal_the_halves_reference_bit_for_bit(self, n):
        # every kind at every depth, on levels of 1, 5 and 64 rows, dense and
        # holding exact zeros of either sign: the bytes, signs of zero included
        rng = np.random.default_rng(n)
        for rows, zeros in product((1, 5, 64), (False, True)):
            level = rng.normal(size=(rows, 2**n)) + 1j * rng.normal(size=(rows, 2**n))
            if zeros:
                level *= rng.random(level.shape) < 0.5
                level.imag[rng.random(level.shape) < 0.5] = 0.0
                level.real[rng.random(level.shape) < 0.25] = -0.0
            for kind, depth in product(KIND_ORDER, range(n)):
                got = measure_module._channel_level(level, kind, depth)
                expected = halves_level(level, kind, depth)
                assert got[0].shape == expected[0].shape == (rows, 4, 2**n)
                assert got[0].tobytes() == expected[0].tobytes()
                assert got[1].tobytes() == expected[1].tobytes()

    def test_cached_tables_are_read_only(self):
        # one pair of tables per (kind code, row width, depth) the walk met
        tables = measure_module._level_tables
        tables.cache_clear()
        kinds = (BellKind.PHI_MINUS, BellKind.PSI_PLUS)
        walk_branches(kinds, np.full(4, 0.5 + 0j))
        assert tables.cache_info().currsize == 2
        for depth, kind in enumerate(kinds):
            for table in tables(kind.code, 4, depth):
                assert not table.flags.writeable
                with pytest.raises(ValueError):
                    table[0] = 0
        assert tables.cache_info().currsize == 2


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
