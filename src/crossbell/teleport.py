"""End-to-end cross-Bell teleportation for n client qubits.

Qubit id layout generalizes the bipartite case: Bob holds 1..n, the sender's
channel halves are n+1..2n, and the client state to teleport sits on
2n+1..3n. Channel pair m entangles (m, n+m); measurement pair m joins the
channel half n+m with client qubit 2n+m.

The channel is a product of independent pairs, and Alice's m-th measurement
touches only pair m and client qubit m. So a run never builds the
2**(3n)-amplitude total state: it walks from the client's amplitudes and
joins channel pair m onto every branch at the level that measures it.

``run_protocol`` is a pure function over all (or one sampled) outcome
branches. ``run_session`` realizes the same exchange as two actors talking
over a byte transport; the only classical data that crosses it is one framed
message of 2n bits naming the measurement outcomes. Alice's half runs to
completion, then Bob's, on the caller's thread. Their byte pipe serves that
one thread: it is not thread-safe and never blocks.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bell import _BELL_AMPS, KIND_ORDER, BellKind, ChannelSpec, cross_bell_state
from .measure import Walk, _contract, _uniforms, walk_branches
from .statevec import (
    PureState,
    QubitSetMismatch,
    StateError,
    apply_local,
    canonicalize,
    cross,
    is_unitary2,
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


@dataclass(frozen=True, eq=False)
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
    """The shared 2n-qubit channel state on ids 1..2n. States are immutable,
    so the last ``_CHANNELS_KEPT`` channels asked for are built once each."""
    return _channel(tuple(kinds))


# Channels kept built: 256 KiB of amplitudes each at n = 7.
_CHANNELS_KEPT = 16


@functools.lru_cache(maxsize=_CHANNELS_KEPT)
def _channel(kinds: ChannelSpec) -> PureState:
    layout = ProtocolLayout(len(kinds))
    return cross_bell_state(kinds, layout.channel_pairs)


def total_state(channel: PureState, client: PureState) -> PureState:
    """Channel and client joined in canonical (ascending id) order."""
    return cross(channel, client)


def _single_pair_table() -> np.ndarray:
    """Scaled transfer matrices 2T of one-qubit teleportation, indexed
    [channel code, outcome code]: column j is Bob's unnormalized state after
    the sender's pair of kron(channel, |j>) is measured (client id 3 is last)."""
    layout = ProtocolLayout(1)
    channels = [prepare_channel((channel,)) for channel in KIND_ORDER]
    level = np.concatenate([np.kron(ch.amps, np.eye(2)) for ch in channels])
    qubits = channels[0].qubits + layout.client_ids
    _, rows, _ = _contract(qubits, level, layout.measure_pairs[0])
    # rows[2 * c + j, k] is Bob's residual for channel c, client |j>, outcome k
    return 2.0 * rows.reshape(4, 2, 4, 2).transpose(0, 2, 3, 1)


def _pair_inverses(table: np.ndarray) -> np.ndarray:
    """Bob's inverses: the conjugate transpose of each entry of ``table``,
    each checked with ``is_unitary2`` as ``apply_local`` checks a gate."""
    inverses = table.conj().swapaxes(-1, -2)
    for c, k in np.ndindex(4, 4):
        if not is_unitary2(inverses[c, k]):
            raise StateError(
                f"single-pair correction ({KIND_ORDER[c].token}, "
                f"{KIND_ORDER[k].token}) is not a 2x2 unitary"
            )
    return inverses


# The channel is a product of independent pairs, so slot m's correction is
# the single-pair one for its own channel kind and outcome.
_PAIR_CORRECTIONS = _single_pair_table()
_PAIR_INVERSES = _pair_inverses(_PAIR_CORRECTIONS)
# Leaves corrected per array step: bounds the temporary rows held at once.
_BLOCK_ROWS = 1024


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


def _check_client(client: PureState, layout: ProtocolLayout) -> PureState:
    if set(client.qubits) != set(layout.client_ids):
        raise QubitSetMismatch(
            f"client must live on ids {layout.client_ids}, got {client.qubits}"
        )
    return canonicalize(client)


def _walk(
    kinds: ChannelSpec,
    client: PureState,
    seeds: Sequence[int] | np.ndarray | None = None,
) -> Walk:
    """Every branch of the run (no ``seeds``), or one sampled path per seed.

    The walk starts from the client's 2**n amplitudes, and level m first
    joins channel pair m's Bell amplitudes onto every node, then measures
    (n+m, 2n+m). Each level is thus the Born-rule projection of the joined
    state, built up one pair at a time; no total state is made.

    Trial t's draws are ``default_rng(seeds[t]).random(n)``, the numbers n
    ``rng.random()`` calls give. One seed draws them from its Generator; two
    or more draw all rows in one :func:`_uniforms` pass, bit for bit the
    same, which needs every seed in [0, 2**64).
    """
    layout = ProtocolLayout(len(kinds))
    client = canonicalize(client)
    joins = [(p, _BELL_AMPS[k]) for p, k in zip(layout.channel_pairs, kinds)]
    draws = None
    if seeds is not None and len(seeds) == 1:
        draws = np.random.default_rng(seeds[0]).random((1, layout.n))
    elif seeds is not None:
        draws = _uniforms(seeds, layout.n)
    return walk_branches(client.qubits, client.amps, layout.measure_pairs, draws, joins)


def _correct(
    kinds: ChannelSpec, walk: Walk, reference: np.ndarray
) -> tuple[np.ndarray, list[float]]:
    """Bob's corrected state for each leaf of ``walk``, one row per leaf, and
    each row's fidelity to the client amplitudes ``reference``.

    Leaf rows hold Bob's state on ids 1..n, so slot m is axis m. Each block of
    ``_BLOCK_ROWS`` rows is corrected at once: with ``inv`` each row's
    inverse for slot m, axis m becomes ``inv[:, 0] * psi[0] + inv[:, 1] *
    psi[1]``, two broadcast multiply-adds of the inverse's columns. That is
    elementwise, with no BLAS kernel, so a row's bits do not depend on the
    rows sharing its call.
    """
    corrected = np.empty_like(walk.leaves)
    for start in range(0, len(walk.outcomes), _BLOCK_ROWS):
        block = slice(start, start + _BLOCK_ROWS)
        codes, rows = np.array(walk.outcomes[block]), walk.leaves[block]
        for m, channel in enumerate(kinds):
            # axis 3 is s, the inverse's column and psi's bit m, in both
            inv = _PAIR_INVERSES[channel.code, codes[:, m]][:, None, :, :, None]
            psi = rows.reshape(len(rows), 2**m, 1, 2, -1)
            rows = inv[:, :, :, 0] * psi[:, :, :, 0] + inv[:, :, :, 1] * psi[:, :, :, 1]
            rows = rows.reshape(len(rows), -1)
        corrected[block] = rows
    fidelities = abs(np.einsum("ni,i->n", corrected, reference.conj())) ** 2
    return corrected, fidelities.tolist()


def _kinds(codes: Sequence[int]) -> tuple[BellKind, ...]:
    return tuple(map(KIND_ORDER.__getitem__, codes))


def _leaf_reports(
    kinds: ChannelSpec, walk: Walk, reference: np.ndarray
) -> list[TeleportReport]:
    """One report per leaf of ``walk``, in leaf order: its outcome and
    probability, Bob's state before and after :func:`_correct`, and the
    fidelity to the client amplitudes ``reference``."""
    corrected, fidelities = _correct(kinds, walk, reference)
    # the corrected rows go once copied, so at most three blocks are held
    post = PureState.rows(walk.qubits, corrected)
    del corrected
    pre = PureState.rows(walk.qubits, walk.leaves)
    return [
        TeleportReport(_kinds(codes), p, before, after, f)
        for codes, p, before, after, f in zip(
            walk.outcomes, walk.probabilities, pre, post, fidelities
        )
    ]


def run_protocol(
    kinds: ChannelSpec,
    client: PureState,
    mode: str = "enumerate",
    seed: int | None = None,
) -> list[TeleportReport]:
    """Run the full protocol.

    ``enumerate`` returns all 4**n outcome branches (probabilities sum to 1);
    ``sample`` draws a single branch with the given seed.
    """
    if mode not in ("enumerate", "sample"):
        raise ValueError(f"mode must be 'enumerate' or 'sample', got {mode!r}")
    if mode == "sample" and seed is None:
        raise ValueError("sample mode needs a seed")
    client = _check_client(client, ProtocolLayout(len(kinds)))
    walk = _walk(kinds, client, None if mode == "enumerate" else [seed])
    return _leaf_reports(kinds, walk, client.amps)


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
        """Up to max_bytes of the buffered bytes; b'' when none are buffered."""
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

    Alice holds the channel halves and the client, measures, sends one framed
    2n-bit message and closes her end. Bob holds qubits 1..n, decodes the
    frame, and corrects his collapsed state by the outcomes it carries, with
    the step ``run_protocol`` uses. Bob acts only once the frame has arrived,
    so the two halves run in that order on the caller's thread; the residual
    state Bob corrects (Alice's walk) is simulation-internal. The result is
    bit-identical to ``run_protocol(..., mode='sample')`` with the same seed.
    """
    layout = ProtocolLayout(len(kinds))
    client = _check_client(client, layout)
    alice_end, bob_end = transport if transport is not None else make_pipe()

    try:
        walk = _walk(kinds, client, [seed])
        alice_end.send(ClassicalMessage(_kinds(walk.outcomes[0])).encode())
    finally:
        alice_end.close()

    message = ClassicalMessage.decode(_recv_frame(bob_end))
    if len(message.outcomes) != layout.n:
        raise ProtocolViolation(
            f"frame carries {len(message.outcomes)} outcomes, expected {layout.n}"
        )
    # Bob's corrections come from the frame, not from Alice's record
    walk = walk._replace(outcomes=[tuple(k.code for k in message.outcomes)])
    return _leaf_reports(kinds, walk, client.amps)[0]
