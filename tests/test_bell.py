from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crossbell.bell import (
    KIND_ORDER,
    BellKind,
    BellOutcome,
    bell_state,
    cross_bell_basis,
    cross_bell_coefficients,
    cross_bell_stack,
    cross_bell_state,
    expand_in_cross_bell,
    format_matrix_token,
    kind_tuples,
    paper_correction_table,
    parse_channel,
    parse_matrix_token,
    pauli,
)
from crossbell.statevec import (
    EXACT_TOL,
    SIGMA_X,
    SIGMA_Y,
    DuplicateQubit,
    PureState,
    QubitSetMismatch,
    StateError,
    canonicalize,
    ket,
)
from conftest import dict_bell, dict_product, dict_to_vector, random_state


@st.composite
def states_on_pairs(draw):
    """A random state over ids 1..2n (1 <= n <= 4), its qubits in a random
    order, and n pairs of its ids in random order and orientation."""
    n = draw(st.integers(1, 4))
    ids = draw(st.permutations(range(1, 2 * n + 1)))
    order = draw(st.permutations(range(1, 2 * n + 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    state = random_state(tuple(order), rng)
    return state, [(ids[2 * m], ids[2 * m + 1]) for m in range(n)]


_REVERSED_STATE = PureState.renormalized(
    (3, 1, 4, 2), np.arange(16) + 1j * np.arange(16)[::-1]
)


class TestBellState:
    def test_psi_plus_amplitudes(self):
        s = bell_state(BellKind.PSI_PLUS, (1, 3))
        assert s.qubits == (1, 3)
        assert np.allclose(s.amps, np.array([1, 0, 0, 1]) / np.sqrt(2))

    def test_phi_minus_amplitudes(self):
        s = bell_state(BellKind.PHI_MINUS, (2, 4))
        assert np.allclose(s.amps, np.array([0, 1, -1, 0]) / np.sqrt(2))

    @pytest.mark.parametrize("kind", KIND_ORDER)
    def test_unit_norm(self, kind):
        assert abs(bell_state(kind, (1, 2)).norm() - 1.0) < 1e-15

    def test_equal_ids_rejected(self):
        with pytest.raises(DuplicateQubit):
            bell_state(BellKind.PSI_PLUS, (3, 3))

    @pytest.mark.parametrize("kind", KIND_ORDER)
    def test_amplitudes_independent_of_id_magnitudes(self, kind):
        assert np.array_equal(
            bell_state(kind, (1, 3)).amps, bell_state(kind, (7, 9)).amps
        )

    def test_outcome_requires_distinct_pair(self):
        with pytest.raises(DuplicateQubit):
            BellOutcome((2, 2), BellKind.PSI_PLUS)


class TestCrossBellState:
    def test_reference_channel(self):
        got = cross_bell_state(
            (BellKind.PHI_PLUS, BellKind.PHI_MINUS), [(1, 3), (2, 4)]
        )
        expected = np.zeros(16, dtype=complex)
        expected[0b0011] = 0.5
        expected[0b0110] = -0.5
        expected[0b1001] = 0.5
        expected[0b1100] = -0.5
        assert np.allclose(got.amps, expected)

    def test_single_pair_equals_bell_state(self):
        got = cross_bell_state((BellKind.PSI_PLUS,), [(1, 2)])
        assert np.array_equal(got.amps, bell_state(BellKind.PSI_PLUS, (1, 2)).amps)

    def test_three_pair_norm_and_coefficients(self):
        kinds = (BellKind.PSI_PLUS, BellKind.PSI_PLUS, BellKind.PSI_MINUS)
        pairs = [(1, 4), (2, 5), (3, 6)]
        got = cross_bell_state(kinds, pairs)
        assert got.dim == 64
        assert abs(got.norm() - 1.0) < 1e-12
        _, expected = dict_to_vector(
            dict_product(*(dict_bell(k, p) for k, p in zip(kinds, pairs)))
        )
        assert np.allclose(got.amps, expected)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            cross_bell_state((BellKind.PSI_PLUS,), [(1, 2), (3, 4)])


class TestCrossBellBasis:
    @pytest.mark.parametrize(
        "pairs", [[(1, 2)], [(1, 3), (2, 4)], [(1, 4), (2, 5), (3, 6)]]
    )
    def test_gram_is_identity(self, pairs):
        states = cross_bell_basis(pairs)
        assert len(states) == 4 ** len(pairs)
        stack = np.stack([s.amps for s in states])
        gram = stack.conj() @ stack.T
        assert np.max(np.abs(gram - np.eye(len(states)))) < 1e-12

    @pytest.mark.parametrize(
        "pairs",
        [[(1, 2)], [(1, 3), (2, 4)], [(1, 4), (2, 5), (3, 6)],
         [(2, 1)], [(4, 2), (3, 1)], [(6, 3), (5, 2), (4, 1)],
         [(3, 6), (1, 4), (2, 5)], [(7, 2), (1, 8), (5, 3), (4, 6)]],
        ids=str,
    )
    def test_states_are_each_kind_tuples_cross_bell_state_bytes(self, pairs):
        # the paper's test pairs, then reversed and shuffled disjoint pairs
        states = cross_bell_basis(pairs)
        expected = [cross_bell_state(k, pairs) for k in kind_tuples(len(pairs))]
        assert len(states) == len(expected) == 4 ** len(pairs)
        for state, reference in zip(states, expected):
            assert state.qubits == reference.qubits
            assert state.amps.tobytes() == reference.amps.tobytes()
        stack = cross_bell_stack(pairs)
        assert stack.tobytes() == np.stack([s.amps for s in expected]).tobytes()

    def test_states_of_drawn_disjoint_pairs_match_cross_bell_state(self, rng):
        ids = rng.permutation(np.arange(1, 11)).tolist()
        pairs = [tuple(ids[i : i + 2]) for i in range(0, 10, 2)]
        states = cross_bell_basis(pairs)
        for state, kinds in zip(states, kind_tuples(len(pairs))):
            reference = cross_bell_state(kinds, pairs)
            assert state.qubits == reference.qubits
            assert state.amps.tobytes() == reference.amps.tobytes()

    def test_basis_rows_are_read_only(self):
        (state, *_) = cross_bell_basis([(1, 3), (2, 4)])
        with pytest.raises(ValueError):
            state.amps[0] = 1

    @pytest.mark.parametrize(
        "pairs, error",
        [([], StateError), ([(1, 1)], DuplicateQubit),
         ([(1, 2), (2, 3)], DuplicateQubit), ([(0, 1)], StateError)],
        ids=["empty", "one-qubit-pair", "overlap", "id-zero"],
    )
    def test_bad_pairs_raise(self, pairs, error):
        with pytest.raises(error):
            cross_bell_basis(pairs)

    def test_lexicographic_order(self):
        combos = list(kind_tuples(2))
        assert combos[0] == (BellKind.PSI_PLUS, BellKind.PSI_PLUS)
        assert combos[1] == (BellKind.PSI_PLUS, BellKind.PSI_MINUS)
        assert combos[4] == (BellKind.PSI_MINUS, BellKind.PSI_PLUS)
        assert combos[-1] == (BellKind.PHI_MINUS, BellKind.PHI_MINUS)


class TestExpand:
    def test_all_zero_ket_coefficients(self):
        coeffs = expand_in_cross_bell(
            ket({1: 0, 2: 0, 3: 0, 4: 0}), [(1, 3), (2, 4)]
        )
        psi_combos = {
            (a, b)
            for a in (BellKind.PSI_PLUS, BellKind.PSI_MINUS)
            for b in (BellKind.PSI_PLUS, BellKind.PSI_MINUS)
        }
        for kinds, value in coeffs.items():
            if kinds in psi_combos:
                assert value == pytest.approx(0.5, abs=1e-12)
            else:
                assert abs(value) < 1e-12

    def test_basis_element_is_delta(self):
        kinds = (BellKind.PHI_PLUS, BellKind.PHI_MINUS)
        pairs = [(1, 3), (2, 4)]
        coeffs = expand_in_cross_bell(cross_bell_state(kinds, pairs), pairs)
        for combo, value in coeffs.items():
            expected = 1.0 if combo == kinds else 0.0
            assert value == pytest.approx(expected, abs=1e-12)

    def test_parseval_and_reconstruction(self, rng):
        pairs = [(1, 3), (2, 4)]
        s = random_state((1, 2, 3, 4), rng)
        coeffs = expand_in_cross_bell(s, pairs)
        assert sum(abs(c) ** 2 for c in coeffs.values()) == pytest.approx(
            1.0, abs=1e-12
        )
        rebuilt = sum(
            c * cross_bell_state(kinds, pairs).amps for kinds, c in coeffs.items()
        )
        assert np.allclose(rebuilt, s.amps, atol=1e-12)

    def test_wrong_support(self, rng):
        with pytest.raises(QubitSetMismatch):
            expand_in_cross_bell(random_state((1, 2, 3, 4), rng), [(1, 2)])

    @pytest.mark.parametrize(
        "ids, pairs",
        [
            ((1, 2, 3), [(1, 1), (2, 3)]),
            ((1, 2, 3), [(1, 2), (2, 3)]),
            ((1, 2, 3, 4), [(1, 2), (1, 2)]),
        ],
        ids=["qubit-named-twice", "overlapping", "repeated-pair"],
    )
    def test_malformed_pairs_fail_the_support_check(self, rng, ids, pairs):
        assert issubclass(QubitSetMismatch, StateError)
        with pytest.raises(QubitSetMismatch, match=re.escape(f"pairs {pairs}")):
            expand_in_cross_bell(random_state(ids, rng), pairs)

    def test_array_is_the_dicts_values_in_kind_tuple_order(self, rng):
        pairs = [(1, 4), (3, 2)]
        s = random_state((1, 2, 3, 4), rng)
        coefficients = cross_bell_coefficients(s, pairs)
        assert coefficients.shape == (16,)
        expanded = expand_in_cross_bell(s, pairs)
        assert list(expanded) == list(kind_tuples(2))
        assert coefficients.tolist() == list(expanded.values())

    def test_zero_pairs_expand_the_empty_state(self):
        assert expand_in_cross_bell(PureState((), [1]), []) == {(): 1}

    @settings(max_examples=100, deadline=None)
    @given(case=states_on_pairs())
    @example(case=(_REVERSED_STATE, [(4, 1), (3, 2)]))
    def test_kernel_equals_the_inner_product_reference(self, case):
        # reference: <T|s> against every basis state T built whole
        s, pairs = case
        coeffs = expand_in_cross_bell(s, pairs)
        assert list(coeffs) == list(kind_tuples(len(pairs)))
        amps = canonicalize(s).amps
        for kinds, c in coeffs.items():
            reference = np.vdot(cross_bell_state(kinds, pairs).amps, amps)
            assert abs(c - reference) <= EXACT_TOL


class TestPauliAndTokens:
    def test_sigma_y_entries(self):
        assert np.array_equal(pauli("y"), np.array([[0, -1j], [1j, 0]]))

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            pauli("w")

    @pytest.mark.parametrize(
        "token", ["s0", "sx", "sy", "sz", "-s0", "i*sy", "-i*sy", "-sz"]
    )
    def test_token_round_trip(self, token):
        assert format_matrix_token(parse_matrix_token(token)) == token

    def test_token_tolerance_is_absolute(self):
        # CHAIN_TOL = 1e-9 with no relative term: 1e-10 off is sx, 1e-6 is not
        assert format_matrix_token([[0, 1], [1 + 1e-10, 0]]) == "sx"
        with pytest.raises(ValueError):
            format_matrix_token([[0, 1], [1 + 1e-6, 0]])

    def test_parse_channel(self):
        assert parse_channel("phi+,phi-") == (
            BellKind.PHI_PLUS,
            BellKind.PHI_MINUS,
        )
        with pytest.raises(ValueError):
            parse_channel("phi*,psi+")

    @pytest.mark.parametrize(
        "text, position", [("phi+,,phi-", 2), ("psi+,", 2), ("", 1), (" ,psi+", 1)]
    )
    def test_parse_channel_rejects_an_empty_position(self, text, position):
        with pytest.raises(ValueError, match=f"position {position} "):
            parse_channel(text)


class TestReferenceCorrectionTable:
    def test_entries_match_reference_display(self):
        table = paper_correction_table()
        assert len(table) == 8
        assert np.array_equal(table[(0, BellKind.PSI_PLUS)], 1j * SIGMA_Y)
        assert np.array_equal(table[(0, BellKind.PSI_MINUS)], -SIGMA_X)
        assert np.array_equal(table[(0, BellKind.PHI_PLUS)], np.diag([1, -1]))
        assert np.array_equal(table[(0, BellKind.PHI_MINUS)], -np.eye(2))
        assert np.array_equal(table[(1, BellKind.PSI_PLUS)], SIGMA_X)
        assert np.array_equal(table[(1, BellKind.PSI_MINUS)], -1j * SIGMA_Y)
        assert np.array_equal(table[(1, BellKind.PHI_PLUS)], np.eye(2))
        assert np.array_equal(table[(1, BellKind.PHI_MINUS)], -np.diag([1, -1]))

    def test_every_entry_real_and_orthogonal(self):
        for mat in paper_correction_table().values():
            assert np.allclose(mat.imag, 0)
            assert np.allclose(mat @ mat.T, np.eye(2), atol=1e-12)
            assert np.allclose(mat @ mat.conj().T, np.eye(2), atol=1e-12)

    def test_iy_is_real(self):
        assert np.allclose((1j * SIGMA_Y).imag, 0)
