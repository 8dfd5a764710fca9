from __future__ import annotations

import io

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from crossbell.bell import BellKind, bell_state
from crossbell.statevec import (
    SIGMA_0,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    DuplicateQubit,
    MissingQubit,
    NormalizationError,
    PureState,
    QubitCollision,
    QubitSetMismatch,
    StateError,
    apply_local,
    canonicalize,
    cross,
    fidelity,
    inner,
    ket,
    load_state,
    save_state,
    tensor,
)
from conftest import dict_bell, dict_product, dict_to_vector, random_state


class TestConstruction:
    def test_rejects_unnormalized(self):
        with pytest.raises(NormalizationError):
            PureState((1,), np.array([1.0, 1.0]))

    def test_renormalized_escape_hatch(self):
        s = PureState.renormalized((1,), np.array([1.0, 1.0]))
        assert np.allclose(s.amps, [np.sqrt(0.5), np.sqrt(0.5)])

    def test_rejects_near_zero_renormalize(self):
        with pytest.raises(NormalizationError):
            PureState.renormalized((1,), np.array([0.0, 1e-13]))

    def test_rejects_duplicate_ids(self):
        with pytest.raises(DuplicateQubit):
            PureState((2, 2), np.array([1, 0, 0, 0], dtype=complex))

    def test_rejects_nonfinite(self):
        with pytest.raises(StateError):
            PureState((1,), np.array([np.nan, 0]))

    def test_rejects_wrong_length(self):
        with pytest.raises(StateError):
            PureState((1, 2), np.array([1, 0], dtype=complex))

    def test_amps_are_immutable(self):
        s = ket({1: 0})
        with pytest.raises(ValueError):
            s.amps[0] = 0.0


class TestKet:
    def test_two_qubit_zero(self):
        s = ket({1: 0, 3: 0})
        assert s.qubits == (1, 3)
        assert np.array_equal(s.amps, [1, 0, 0, 0])

    def test_msb_is_smallest_id(self):
        s = ket({1: 1, 2: 0, 3: 0, 4: 1})
        assert np.argmax(np.abs(s.amps)) == 0b1001

    def test_pair_ones(self):
        assert np.array_equal(ket({5: 1, 6: 1}).amps, [0, 0, 0, 1])

    def test_bad_bit(self):
        for bit in (2, 0.5):
            with pytest.raises(StateError):
                ket({1: bit})

    def test_numpy_integers_pass(self):
        s = ket({np.int64(2): np.int8(1), 1: 0})
        assert s.qubits == (1, 2)
        assert np.array_equal(s.amps, [0, 1, 0, 0])

    def test_non_integral_ids_rejected_not_truncated(self):
        # int() would read 1.9 as id 1 and 0.5 as bit 0
        with pytest.raises(StateError):
            PureState((1.9, 2), np.array([1, 0, 0, 0], dtype=complex))
        with pytest.raises(StateError):
            ket({2.7: 1})


class TestTensor:
    def test_basis_product(self):
        s = tensor(ket({1: 0}), ket({2: 1}))
        assert s.qubits == (1, 2)
        assert np.array_equal(s.amps, [0, 1, 0, 0])

    def test_keeps_factor_order(self):
        s = tensor(
            bell_state(BellKind.PSI_PLUS, (1, 3)),
            bell_state(BellKind.PHI_MINUS, (2, 4)),
        )
        assert s.qubits == (1, 3, 2, 4)
        assert not s.is_canonical
        # direct coefficient multiplication in the stored (1,3,2,4) order
        expected = np.zeros(16, dtype=complex)
        expected[0b0001] = 0.5
        expected[0b0010] = -0.5
        expected[0b1101] = 0.5
        expected[0b1110] = -0.5
        assert np.allclose(s.amps, expected)

    def test_collision(self):
        with pytest.raises(QubitCollision):
            tensor(ket({1: 0, 3: 0}), ket({3: 1}))


FOUR_TERM_CHANNEL = dict_product(
    dict_bell(BellKind.PHI_PLUS, (1, 3)), dict_bell(BellKind.PHI_MINUS, (2, 4))
)


class TestCanonicalize:
    def test_identity_on_sorted(self):
        s = ket({1: 0, 2: 1})
        assert canonicalize(s) is s

    def test_two_qubit_swap(self):
        raw = PureState((3, 1), np.array([0, 0, 1, 0], dtype=complex))  # |1_3 0_1>
        out = canonicalize(raw)
        assert out.qubits == (1, 3)
        assert np.array_equal(out.amps, [0, 1, 0, 0])  # |0_1 1_3>

    def test_reproduces_four_term_channel(self):
        got = canonicalize(
            tensor(
                bell_state(BellKind.PSI_PLUS, (1, 3)),
                bell_state(BellKind.PHI_MINUS, (2, 4)),
            )
        )
        want = dict_product(
            dict_bell(BellKind.PSI_PLUS, (1, 3)),
            dict_bell(BellKind.PHI_MINUS, (2, 4)),
        )
        qubits, vec = dict_to_vector(want)
        assert got.qubits == qubits
        assert np.allclose(got.amps, vec)

    def test_idempotent_and_norm_preserving(self, rng):
        for _ in range(10):
            order = tuple(rng.permutation([4, 7, 2, 9]) )
            amps = rng.normal(size=16) + 1j * rng.normal(size=16)
            s = PureState.renormalized(order, amps)
            c = canonicalize(s)
            assert c.is_canonical
            assert canonicalize(c) is c
            assert abs(c.norm() - 1.0) < 1e-12


class TestCross:
    def test_channel_state_four_terms(self):
        got = cross(
            bell_state(BellKind.PHI_PLUS, (1, 3)),
            bell_state(BellKind.PHI_MINUS, (2, 4)),
        )
        expected = np.zeros(16, dtype=complex)
        expected[0b0011] = 0.5
        expected[0b0110] = -0.5
        expected[0b1001] = 0.5
        expected[0b1100] = -0.5
        assert got.qubits == (1, 2, 3, 4)
        assert np.allclose(got.amps, expected)

    def test_basis_state_reorder(self):
        got = cross(ket({1: 0, 3: 0}), ket({2: 0, 4: 0}))
        assert got.qubits == (1, 2, 3, 4)
        assert got.amps[0] == 1

    def test_three_factor_interleaved(self):
        got = cross(
            bell_state(BellKind.PSI_PLUS, (1, 4)),
            bell_state(BellKind.PHI_PLUS, (2, 5)),
            bell_state(BellKind.PSI_MINUS, (3, 6)),
        )
        want = dict_product(
            dict_bell(BellKind.PSI_PLUS, (1, 4)),
            dict_bell(BellKind.PHI_PLUS, (2, 5)),
            dict_bell(BellKind.PSI_MINUS, (3, 6)),
        )
        qubits, vec = dict_to_vector(want)
        assert got.qubits == qubits
        assert np.allclose(got.amps, vec)

    def test_equals_canonicalized_tensor(self, rng):
        for _ in range(20):
            a = random_state((1, 4), rng)
            b = random_state((2, 3), rng)
            assert np.allclose(
                cross(a, b).amps, canonicalize(tensor(a, b)).amps
            )

    def test_symmetric_after_canonicalization(self, rng):
        a = random_state((2, 5), rng)
        b = random_state((1, 7), rng)
        assert np.allclose(cross(a, b).amps, cross(b, a).amps)

    def test_bilinear(self, rng):
        # combine two states on the same ids, then cross with a third
        x = random_state((1, 3), rng)
        y = random_state((1, 3), rng)
        z = random_state((2,), rng)
        alpha, beta = 0.3 - 0.1j, 0.7 + 0.4j
        mix = alpha * x.amps + beta * y.amps
        lhs_raw = np.zeros(8, dtype=complex)
        # cross() needs normalized inputs; fold the mixture in manually
        lhs = alpha * cross(x, z).amps + beta * cross(y, z).amps
        combined = PureState.renormalized((1, 3), mix)
        scale = np.linalg.norm(mix)
        assert np.allclose(scale * cross(combined, z).amps, lhs, atol=1e-12)
        del lhs_raw

    def test_fold_order_irrelevant(self, rng):
        a = random_state((1, 4), rng)
        b = random_state((2, 5), rng)
        c = random_state((3, 6), rng)
        left = cross(cross(a, b), c)
        right = cross(a, cross(b, c))
        assert left.qubits == right.qubits
        assert np.allclose(left.amps, right.amps)


class TestInnerAndFidelity:
    def test_self_inner_is_one(self, rng):
        s = random_state((1, 2, 3), rng)
        assert abs(inner(s, s) - 1.0) < 1e-12

    def test_bell_kinds_orthogonal(self):
        a = bell_state(BellKind.PSI_PLUS, (1, 3))
        b = bell_state(BellKind.PHI_PLUS, (1, 3))
        assert inner(a, b) == 0

    def test_cross_bell_orthogonal_sixteen_dim(self):
        a = cross(
            bell_state(BellKind.PHI_PLUS, (1, 3)),
            bell_state(BellKind.PHI_MINUS, (2, 4)),
        )
        b = cross(
            bell_state(BellKind.PHI_PLUS, (1, 3)),
            bell_state(BellKind.PSI_PLUS, (2, 4)),
        )
        # independent 16-dim dot product
        assert abs(np.vdot(a.amps, b.amps)) < 1e-12
        assert abs(inner(a, b)) < 1e-12

    def test_mismatched_sets(self):
        with pytest.raises(QubitSetMismatch):
            inner(ket({1: 0}), ket({2: 0}))

    def test_fidelity_global_phase(self, rng):
        s = random_state((1, 2), rng)
        flipped = PureState(s.qubits, -s.amps)
        rotated = PureState(s.qubits, np.exp(0.71j) * s.amps)
        assert fidelity(s, s) == pytest.approx(1.0, abs=1e-12)
        assert fidelity(s, flipped) == pytest.approx(1.0, abs=1e-12)
        assert fidelity(s, rotated) == pytest.approx(1.0, abs=1e-12)
        assert fidelity(s, rotated) == pytest.approx(fidelity(rotated, s), abs=1e-15)

    def test_orthogonal_fidelity_zero(self):
        assert fidelity(ket({1: 0}), ket({1: 1})) == 0


class TestApplyLocal:
    def test_identity_leaves_state(self, rng):
        s = random_state((1, 2), rng)
        assert np.allclose(apply_local(s, [(1, SIGMA_0)]).amps, s.amps)

    def test_iy_and_x_pair(self, rng):
        s = random_state((1, 2), rng)
        a, b, g, d = s.amps
        out = apply_local(s, [(1, 1j * SIGMA_Y), (2, SIGMA_X)])
        assert np.allclose(out.amps, [d, g, -b, -a])

    def test_z_and_identity(self, rng):
        s = random_state((1, 2), rng)
        a, b, g, d = s.amps
        out = apply_local(s, [(1, SIGMA_Z), (2, SIGMA_0)])
        assert np.allclose(out.amps, [a, b, -g, -d])

    def test_missing_qubit(self):
        with pytest.raises(MissingQubit):
            apply_local(ket({1: 0}), [(2, SIGMA_X)])

    def test_rejects_nonunitary(self):
        with pytest.raises(StateError):
            apply_local(ket({1: 0}), [(1, np.array([[1, 0], [0, 2.0]]))])
        # within numpy's default relative tolerance, far outside 1e-12
        near = np.diag([1 + 4e-6, 1.0])
        with pytest.raises(StateError, match="not a 2x2 unitary"):
            apply_local(ket({1: 0}), [(1, near)])

    def test_unitary_then_adjoint_is_identity(self, rng):
        s = random_state((1, 2, 3), rng)
        theta = 0.83
        u = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]],
            dtype=complex,
        )
        forward = apply_local(s, [(2, u)])
        assert abs(forward.norm() - 1.0) < 1e-12
        back = apply_local(forward, [(2, u.conj().T)])
        assert np.allclose(back.amps, s.amps, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_cross_commutes_with_relabeled_factors(seed):
    rng = np.random.default_rng(seed)
    a = random_state((1, 6), rng)
    b = random_state((3, 4), rng)
    assert np.allclose(cross(a, b).amps, cross(b, a).amps)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_canonicalize_round_trip_preserves_inner(seed):
    rng = np.random.default_rng(seed)
    order = tuple(rng.permutation([2, 5, 8]))
    a = random_state(order, rng)
    b = random_state(order, rng)
    direct = np.vdot(canonicalize(a).amps, canonicalize(b).amps)
    assert abs(direct - inner(a, b)) < 1e-12


finite = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


class TestStateFile:
    @settings(max_examples=100, deadline=None)
    @given(
        st.sets(st.integers(1, 40), min_size=1, max_size=4).flatmap(
            lambda ids: st.tuples(
                st.just(tuple(sorted(ids))),
                st.lists(
                    finite, min_size=2 ** (len(ids) + 1), max_size=2 ** (len(ids) + 1)
                ),
            )
        )
    )
    def test_round_trip_bit_exact(self, ids_and_parts):
        ids, parts = ids_and_parts
        amps = np.array(parts[0::2]) + 1j * np.array(parts[1::2])
        assume(np.linalg.norm(amps) > 1e-3)
        s = PureState.renormalized(ids, amps)
        buf = io.StringIO()
        save_state(s, buf)
        buf.seek(0)
        loaded = load_state(buf)
        assert loaded.qubits == s.qubits
        assert np.array_equal(loaded.amps, s.amps)

    def test_rejects_bad_header(self):
        with pytest.raises(StateError):
            load_state(io.StringIO("not a state file\n"))

    def test_rejects_wrong_count(self):
        text = "crossbell-state v1\nqubits 1 2\n1.0 0.0\n"
        with pytest.raises(StateError):
            load_state(io.StringIO(text))

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.text(),
            st.text().map(lambda body: "crossbell-state v1\n" + body),
            st.text().map(lambda body: "crossbell-state v1\nqubits " + body),
        )
    )
    def test_arbitrary_text_loads_or_raises_a_mapped_error(self, text):
        # cli.main maps StateError and ValueError to exit 2
        try:
            state = load_state(io.StringIO(text))
        except (StateError, ValueError):
            return
        assert isinstance(state, PureState)
