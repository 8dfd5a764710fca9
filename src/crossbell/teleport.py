"""End-to-end cross-Bell teleportation for n client qubits.

Qubit id layout generalizes the bipartite case: Bob holds 1..n, the sender's
channel halves are n+1..2n, and the client state to teleport sits on
2n+1..3n. Channel pair m entangles (m, n+m); measurement pair m joins the
channel half n+m with client qubit 2n+m.

The channel is a product of independent pairs, and Alice's m-th measurement
touches only pair m and client qubit m. So a run never builds the
2**(3n)-amplitude total state: ``walk_branches`` walks from the client's
amplitudes and joins channel pair m onto every branch at the level that
measures it. This layout is the walk's one geometry, so it takes no qubit ids.

``run_protocol`` is a pure function over all (or one sampled) outcome
branches. ``run_session`` realizes the same exchange as two actors talking
over a byte transport; the only classical data that crosses it is one framed
message of 2n bits naming the measurement outcomes. Alice's half runs to
completion, then Bob's, on the caller's thread. Their byte pipe serves that
one thread: it is not thread-safe and never blocks.
"""
from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bell import KIND_ORDER, BellKind, ChannelSpec, cross_bell_state
from .measure import Walk, _channel_level, walk_branches
from .statevec import (
    PureState,
    QubitSetMismatch,
    StateError,
    _row_states,
    _validated,
    apply_local,
    canonicalize,
    cross,
)

FRAME_MAGIC = b"XBEL"
FRAME_VERSION = 1


def _payload_len(n: int) -> int:
    """Bytes of 2-bit outcome codes a frame announcing n outcomes carries."""
    return (2 * n + 7) // 8


class ProtocolViolation(Exception):
    """Received classical data that does not parse as a valid frame."""


class SessionAborted(Exception):
    """A complete frame had not arrived when Bob read it, or the peer closed."""


@dataclass(frozen=True)
class ProtocolLayout:
    """Qubit id assignment for an n-qubit teleportation."""

    n: int

    def __post_init__(self) -> None:
        if isinstance(self.n, bool) or not hasattr(self.n, "__index__"):
            raise TypeError(f"n must be an integer, got {self.n!r}")
        object.__setattr__(self, "n", operator.index(self.n))
        if self.n < 1:
            raise ValueError(f"need at least one teleported qubit, got n={self.n}")

    @property
    def bob_ids(self) -> tuple[int, ...]:
        return tuple(range(1, self.n + 1))

    @property
    def alice_channel_ids(self) -> tuple[int, ...]:
        return tuple(range(self.n + 1, 2 * self.n + 1))

    @property
    def client_ids(self) -> tuple[int, ...]:
        return tuple(range(2 * self.n + 1, 3 * self.n + 1))

    @property
    def channel_pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple((m, self.n + m) for m in range(1, self.n + 1))

    @property
    def measure_pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple((self.n + m, 2 * self.n + m) for m in range(1, self.n + 1))


@dataclass(frozen=True)
class ClassicalMessage:
    """The 2n-bit outcome announcement: one Bell kind per slot."""

    outcomes: tuple[BellKind, ...]

    def encode(self) -> bytes:
        """Frame: 4-byte magic, version byte, n byte, then the 2-bit codes
        MSB-first, read as one zero-padded big-endian integer."""
        n = len(self.outcomes)
        if not 1 <= n <= 255:
            raise ValueError(f"cannot frame {n} outcomes")
        value = 0
        for kind in self.outcomes:
            value = value << 2 | kind.code
        size = _payload_len(n)
        payload = (value << 8 * size - 2 * n).to_bytes(size, "big")
        return FRAME_MAGIC + bytes([FRAME_VERSION, n]) + payload

    @classmethod
    def decode(cls, frame: bytes) -> "ClassicalMessage":
        if len(frame) < 6 or frame[:4] != FRAME_MAGIC:
            raise ProtocolViolation("bad frame magic")
        if frame[4] != FRAME_VERSION:
            raise ProtocolViolation(f"unsupported frame version {frame[4]}")
        n = frame[5]
        if n < 1:
            raise ProtocolViolation("frame announces zero outcomes")
        expected = 6 + _payload_len(n)
        if len(frame) != expected:
            raise ProtocolViolation(
                f"frame length {len(frame)} != {expected} for n={n}"
            )
        padding = 8 * (expected - 6) - 2 * n
        value = int.from_bytes(frame[6:], "big")
        if value & ((1 << padding) - 1):
            raise ProtocolViolation("nonzero padding bits")
        value >>= padding
        return cls(tuple(KIND_ORDER[value >> 2 * m & 3] for m in reversed(range(n))))


@dataclass(frozen=True, eq=False, slots=True)
class TeleportReport:
    """One outcome branch of a run, with Bob's states and the success metric."""

    outcome: tuple[BellKind, ...]
    probability: float
    bob_pre_state: PureState
    bob_corrected: PureState
    fidelity_vs_client: float

    def to_json_dict(self) -> dict:
        return {
            "outcome": [k.token for k in self.outcome],
            "probability": self.probability,
            "fidelity": self.fidelity_vs_client,
            "bob_corrected": [
                [amp.real, amp.imag] for amp in self.bob_corrected.amps
            ],
        }


def prepare_channel(kinds: ChannelSpec) -> PureState:
    """The shared 2n-qubit channel state on ids 1..2n."""
    return cross_bell_state(kinds, ProtocolLayout(len(kinds)).channel_pairs)


def total_state(channel: PureState, client: PureState) -> PureState:
    """Channel and client joined in canonical (ascending id) order."""
    return cross(channel, client)


def _single_pair_table() -> np.ndarray:
    """Scaled transfer matrices 2T of one-qubit teleportation, indexed
    [channel code, outcome code]: column j holds the signs of Bob's
    unnormalized state after the walk's one level from client |j>, so each
    entry is exactly -1, 0 or 1 and each correction inverts the walk's own
    level."""
    eye = np.eye(2, dtype=complex)
    # a level's rows[j, k] from the rows |j> is Bob's residual for outcome k
    levels = [_channel_level(eye, kind, 0)[0] for kind in KIND_ORDER]
    return np.sign(np.stack(levels).transpose(0, 2, 3, 1))


def _pauli_frame(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bob's inverses, ``table``'s conjugate transposes, as a Pauli frame: row
    r of inverse (c, k) holds one real nonzero, ``factors[c, k, r]``, at column
    ``r ^ flips[c, k]``. Each inverse is checked entry by entry against its
    frame, and each factor for being exactly +1 or -1, so every inverse is a
    signed Pauli, unitary without a tolerance, and ``_correct`` scales by none."""
    inverses = table.conj().swapaxes(-1, -2)
    flips = (abs(inverses[..., 0, 1]) > abs(inverses[..., 0, 0])).astype(np.intp)
    columns = np.arange(2) ^ flips[..., None]
    factors = np.take_along_axis(inverses, columns[..., None], -1)[..., 0].real
    for c, k in np.ndindex(4, 4):
        entry = f"single-pair correction ({KIND_ORDER[c].token}, {KIND_ORDER[k].token})"
        frame = np.diag(factors[c, k])[:, columns[c, k]]
        if not np.array_equal(inverses[c, k], frame):
            raise StateError(f"{entry} is not a signed Pauli")
        scales = abs(factors[c, k]).tolist()
        if scales != [1.0, 1.0]:
            raise StateError(f"{entry} scales by {scales}, not by 1")
    return flips, factors


# The channel is a product of independent pairs, so slot m's correction is
# the single-pair one for its own channel kind and outcome.
_PAIR_CORRECTIONS = _single_pair_table()
# Slot m's inverse flips Bob's bit m by _FLIPS[channel, outcome] and negates
# the row whose bit m is b where _FACTORS[channel, outcome, b], +-1.0, is -1.
_FLIPS, _FACTORS = _pauli_frame(_PAIR_CORRECTIONS)
# KIND_ORDER as an array, so indexing it with an array of codes gives kinds.
_KIND_OF = np.array(KIND_ORDER, dtype=object)


def corrections_for(
    kinds: ChannelSpec, outcome: Sequence[BellKind]
) -> list[np.ndarray]:
    """Per-slot transfer unitaries for a channel/outcome combination.

    Slot m's matrix maps client coefficients to Bob's collapsed coefficients
    on qubit m+1; it is the single-pair entry for (kinds[m], outcome[m]),
    valid for any channel because the pairs are independent. The oracle's
    joint brute-force derivation checks this composition in the tests.
    """
    if len(outcome) != len(kinds):
        raise ValueError(f"{len(outcome)} outcomes for {len(kinds)} channel slots")
    return [_PAIR_CORRECTIONS[c.code, k.code].copy() for c, k in zip(kinds, outcome)]


def recover(bob_pre: PureState, corrections: Sequence[np.ndarray]) -> PureState:
    """Undo the per-slot transfer: apply each correction's conjugate transpose."""
    bob_ids = sorted(bob_pre.qubits)
    if len(corrections) != len(bob_ids):
        raise ValueError(
            f"{len(corrections)} corrections for {len(bob_ids)} qubits"
        )
    targets = [
        (q, np.asarray(u, dtype=complex).conj().T)
        for q, u in zip(bob_ids, corrections)
    ]
    return apply_local(bob_pre, targets)


def _check_run(kinds: ChannelSpec, client: PureState) -> PureState:
    """The canonical client, once ``kinds`` and the client's ids check out."""
    for kind in kinds:
        if not isinstance(kind, BellKind):
            raise TypeError(f"channel kind must be a BellKind, got {kind!r}")
    layout = ProtocolLayout(len(kinds))
    if set(client.qubits) != set(layout.client_ids):
        raise QubitSetMismatch(
            f"client must live on ids {layout.client_ids}, got {client.qubits}"
        )
    return canonicalize(client)


# A sign row covers at most 2**_SIGN_SLOTS lanes; past that many slots a
# second table signs each block of lanes. With low = min(n, _SIGN_SLOTS) the
# two sign tables hold 4**(low + 1) + 4**(n - low) floats, not 4**(n + 1).
_SIGN_SLOTS = 7
# Rows ``_correct`` gathers and signs per step: bounds its index and sign rows.
_BLOCK_ROWS = 1024


def _walsh(k: int) -> np.ndarray:
    """The float64 (2**k, 2**k) table of (-1)**popcount(z & i) at [z, i]."""
    table = np.ones((1, 1))
    for _ in range(k):
        table = np.block([[table, table], [table, -table]])
    return table


@functools.cache
def _frame_tables(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only tables for ``_correct`` at n slots; low = min(n, _SIGN_SLOTS).

    ``packed[m, c, k]`` packs slot m's frame for channel c and outcome k; its
    bit of Bob's index is b = n - 1 - m. Bit b is the flip, bit n + b (n + b
    + 8 if b >= low) the Z bit, set if the factor's sign follows Bob's bit,
    and bit n + low the factor's sign at bit 0. So a row's sum over its slots
    (:func:`_frames`) holds its X mask in bits 0..n-1, then its low Z mask z
    and sign parity p, whose ``signs[p << low | z]`` is the +-1.0 of each of
    2**(low + 1) floats, then 8 bits of sign count (at most n), then its high
    Z mask, whose row of ``high`` signs each block of 2**low lanes."""
    low = min(n, _SIGN_SLOTS)
    b = n - 1 - np.arange(n)[:, None, None]
    negative = (_FACTORS < 0).astype(np.intp)
    z = negative[..., 0] ^ negative[..., 1]
    packed = _FLIPS << b | z << n + b + 8 * (b >= low) | negative[..., 0] << n + low
    walsh = _walsh(low)
    signs = np.repeat(np.concatenate([walsh, -walsh]), 2, axis=1)
    high = _walsh(n - low)
    for table in (packed, signs, high):
        table.setflags(write=False)
    return packed, signs, high


def _frames(packed: np.ndarray, kinds: ChannelSpec, codes: np.ndarray) -> np.ndarray:
    """Each row's packed frame: the sum over slots m of ``packed[m, kinds[m]]``
    at the row's outcome code ``codes[:, m]``, one slot at a time."""
    frames = packed[0, kinds[0].code][codes[:, 0]]
    for m in range(1, len(kinds)):
        frames += packed[m, kinds[m].code][codes[:, m]]
    return frames


def _correct(
    kinds: ChannelSpec, walk: Walk, reference: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Bob's corrected state for each leaf of ``walk``, one row per leaf, and
    each row's fidelity to the client amplitudes ``reference``.

    Leaf rows hold Bob's state on ids 1..n, so slot m is bit n - 1 - m of a
    row's index, and column m of ``walk.outcomes`` picks each row's frame for
    it. :func:`_frames` adds up each row's entries of :func:`_frame_tables`'
    ``packed``, one gather per slot, into its X mask, Z mask and sign parity.
    Per block of _BLOCK_ROWS rows, one ``take`` from the flattened leaves
    applies the X masks (row r's lane i reads amplitude r * 2**n + (i ^ mask))
    into the result, whose float view is then multiplied in place by each
    row's float64 signs (past _SIGN_SLOTS slots, by a row of ``high`` too).
    Each factor is +-1.0, so a corrected row holds its leaf's floats, moved
    and negated, and no row's bits depend on the rows sharing its call.

    A fidelity is clipped at 1.0: the client's squared norm and each leaf's
    normalization are rounded, so |<client|row>|**2 can come out a few ulps
    above 1. The rows are not rescaled, so every fidelity at or below 1 keeps
    its bits.
    """
    n, low, codes = len(kinds), min(len(kinds), _SIGN_SLOTS), walk.outcomes
    packed, signs, high = _frame_tables(n)
    frames = _frames(packed, kinds, codes)
    leaves, lanes = walk.leaves.reshape(-1), np.arange(2**n)
    corrected = np.empty((len(codes), 2**n), dtype=complex)
    for start in range(0, len(codes), _BLOCK_ROWS):
        block = frames[start : start + _BLOCK_ROWS]
        rows = corrected[start : start + len(block)]
        index = np.arange(start, start + len(block)) << n | block & 2**n - 1
        # every index is in range; "clip" lets take write to rows unbuffered
        leaves.take(index[:, None] ^ lanes, out=rows, mode="clip")
        floats = rows.view(np.float64).reshape(len(block), 2 ** (n - low), -1)
        floats *= signs[block >> n & 2 ** (low + 1) - 1][:, None]
        if n > low:
            floats *= high[block >> n + low + 8][..., None]
    fidelities = abs(np.einsum("ni,i->n", corrected, reference.conj())) ** 2
    np.minimum(fidelities, 1.0, out=fidelities)
    return corrected, fidelities


class RunReports(Sequence[TeleportReport]):
    """A run's branches in leaf order over the walk's arrays, taken uncopied and
    made read-only (a view's base too), each row block checked once as PureStates
    are. The first access of any kind builds every report, in one pass.
    ``trial_leaf[t]`` is sampled trial t's branch index (None when enumerating)."""

    def __init__(self, kinds: ChannelSpec, walk: Walk, reference: np.ndarray) -> None:
        corrected, self.fidelities = _correct(kinds, walk, reference)
        bob = ProtocolLayout(len(kinds)).bob_ids
        self.qubits, self.pre = _validated(bob, walk.leaves, 2)
        _, self.post = _validated(bob, corrected, 2)
        self.outcomes, self.probabilities = walk.outcomes, walk.probabilities
        self.trial_leaf = walk.trial_leaf
        columns = (self.outcomes, self.probabilities, self.fidelities, self.trial_leaf)
        for column in columns:
            if column is not None:
                column.setflags(write=False)

    def __len__(self) -> int:
        return len(self.pre)

    def __getitem__(self, index):
        if not isinstance(index, slice):
            index = range(len(self))[index]  # a list's errors, before any build
        return self._reports()[index]

    def __iter__(self):
        return iter(self._reports())

    def _reports(self) -> list[TeleportReport]:
        reports = vars(self).get("_list")
        if reports is None:  # setdefault keeps the first list built, on any thread
            q = self.qubits
            reports = vars(self).setdefault("_list", [
                TeleportReport(tuple(kinds), p, pre, post, f)
                for kinds, p, pre, post, f in zip(
                    _KIND_OF[self.outcomes].tolist(), self.probabilities.tolist(),
                    _row_states(q, self.pre), _row_states(q, self.post),
                    self.fidelities.tolist(),
                )
            ])
        return reports


def run_protocol(
    kinds: ChannelSpec,
    client: PureState,
    mode: str = "enumerate",
    seed: int | np.ndarray | None = None,
) -> RunReports:
    """Run the full protocol.

    ``enumerate`` returns all 4**n outcome branches (probabilities sum to 1),
    and ignores ``seed``. ``sample`` runs one trial per seed: ``seed`` is one
    int, or a non-empty 1-D integer array of them, each in [0, 2**64). The
    result holds the distinct branches the trials reach, so its ``len()`` is
    their count, in outcome-code order; its read-only ``trial_leaf[t]`` is
    trial t's branch index. Trial t's branch is bit for bit the one branch of
    ``run_protocol(kinds, client, "sample", seed[t])``.
    """
    if mode not in ("enumerate", "sample"):
        raise ValueError(f"mode must be 'enumerate' or 'sample', got {mode!r}")
    if mode == "sample" and seed is None:
        raise ValueError("sample mode needs a seed")
    client = _check_run(kinds, client)
    seeds = seed if isinstance(seed, np.ndarray) else [seed]
    walk = walk_branches(kinds, client.amps, None if mode == "enumerate" else seeds)
    return RunReports(kinds, walk, client.amps)


# --- two-actor session over a byte transport ---


class PipeEndpoint:
    """One end of an in-process, in-order duplex byte pipe serving one thread:
    not thread-safe, and ``recv`` never waits for bytes yet to be sent."""

    def __init__(self) -> None:
        self._buf = bytearray()
        self._closed = False
        self._peer: "PipeEndpoint | None" = None

    def send(self, data: bytes) -> None:
        peer = self._peer
        if peer is None:
            raise SessionAborted("endpoint is not paired")
        if peer._closed:
            raise SessionAborted("peer endpoint is closed")
        peer._buf.extend(data)

    def recv(self, max_bytes: int) -> bytes:
        """Up to max_bytes of the buffered bytes; b'' when none are buffered.
        A negative count raises ``ValueError``, as ``socket.recv`` does."""
        if max_bytes < 0:
            raise ValueError(f"negative byte count {max_bytes}")
        chunk = bytes(self._buf[:max_bytes])
        del self._buf[:max_bytes]
        return chunk

    def close(self) -> None:
        """Close the link: both ends stop accepting writes and reads drain."""
        for end in (self, self._peer):
            if end is not None:
                end._closed = True


def make_pipe() -> tuple[PipeEndpoint, PipeEndpoint]:
    a, b = PipeEndpoint(), PipeEndpoint()
    a._peer, b._peer = b, a
    return a, b


def _recv_exact(endpoint: PipeEndpoint, count: int) -> bytes:
    # the sender ran first on this thread, so no more bytes can arrive
    data = endpoint.recv(count)
    if len(data) < count:
        raise SessionAborted(f"only {len(data)} of {count} frame bytes arrived")
    return data


def _recv_frame(endpoint: PipeEndpoint) -> bytes:
    header = _recv_exact(endpoint, 6)
    if header[:4] != FRAME_MAGIC:
        raise ProtocolViolation("bad frame magic")
    return header + _recv_exact(endpoint, _payload_len(header[5]))


def run_session(
    kinds: ChannelSpec,
    client: PureState,
    transport: tuple[PipeEndpoint, PipeEndpoint] | None = None,
    seed: int = 0,
) -> TeleportReport:
    """Sampled teleportation as an Alice/Bob exchange over a byte transport.

    Alice holds the channel halves and the client, walks one sampled path
    with ``seed``, sends one framed 2n-bit message and closes Alice's end. Bob
    holds qubits 1..n, decodes the frame, and corrects the collapsed state by
    the outcomes it carries, with the step ``run_protocol`` uses. Bob acts
    only once the frame has arrived, so the two halves run in that order on
    the caller's thread; the residual state Bob corrects (the walk's leaf) is
    simulation-internal. The result is bit-identical to
    ``run_protocol(..., mode='sample')`` with the same seed.
    """
    client = _check_run(kinds, client)
    alice_end, bob_end = transport if transport is not None else make_pipe()

    try:
        walk = walk_branches(kinds, client.amps, [seed])
        alice_end.send(ClassicalMessage(tuple(_KIND_OF[walk.outcomes[0]])).encode())
    finally:
        alice_end.close()

    message = ClassicalMessage.decode(_recv_frame(bob_end))
    if len(message.outcomes) != len(kinds):
        raise ProtocolViolation(
            f"frame carries {len(message.outcomes)} outcomes, expected {len(kinds)}"
        )
    # Bob's corrections come from the frame, not from Alice's record
    walk = walk._replace(outcomes=np.array([[k.code for k in message.outcomes]]))
    return RunReports(kinds, walk, client.amps)[0]
