"""End-to-end cross-Bell teleportation for n client qubits.

Qubit id layout generalizes the bipartite case: Bob holds 1..n, the sender's
channel halves are n+1..2n, and the client state to teleport sits on
2n+1..3n. Channel pair m entangles (m, n+m); measurement pair m joins the
channel half n+m with client qubit 2n+m.

``run_protocol`` is a pure function over all (or one sampled) outcome
branches. ``run_session`` realizes the same exchange with two actors talking
over a byte transport; the only classical data that crosses it is one framed
message of 2n bits naming the measurement outcomes.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .bell import KIND_ORDER, BellKind, ChannelSpec, cross_bell_state
from .measure import Walk, _contract, walk_branches
from .statevec import (
    PureState,
    QubitSetMismatch,
    apply_local,
    canonicalize,
    cross,
    fidelity,
    ket,
)

FRAME_MAGIC = b"XBEL"
FRAME_VERSION = 1


class ProtocolViolation(Exception):
    """Received classical data that does not parse as a valid frame."""


class SessionAborted(Exception):
    """The transport closed before a complete frame arrived."""


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
        """Frame: 4-byte magic, version byte, n byte, 2-bit codes MSB-first."""
        n = len(self.outcomes)
        if not 1 <= n <= 255:
            raise ValueError(f"cannot frame {n} outcomes")
        payload = bytearray((2 * n + 7) // 8)
        for m, kind in enumerate(self.outcomes):
            bitpos = 2 * m
            payload[bitpos // 8] |= kind.code << (6 - bitpos % 8)
        return FRAME_MAGIC + bytes([FRAME_VERSION, n]) + bytes(payload)

    @classmethod
    def decode(cls, frame: bytes) -> "ClassicalMessage":
        if len(frame) < 6 or frame[:4] != FRAME_MAGIC:
            raise ProtocolViolation("bad frame magic")
        if frame[4] != FRAME_VERSION:
            raise ProtocolViolation(f"unsupported frame version {frame[4]}")
        n = frame[5]
        if n < 1:
            raise ProtocolViolation("frame announces zero outcomes")
        expected = 6 + (2 * n + 7) // 8
        if len(frame) != expected:
            raise ProtocolViolation(
                f"frame length {len(frame)} != {expected} for n={n}"
            )
        payload = frame[6:]
        outcomes = []
        for m in range(n):
            bitpos = 2 * m
            code = (payload[bitpos // 8] >> (6 - bitpos % 8)) & 0b11
            outcomes.append(BellKind.from_code(code))
        used_bits = 2 * n
        for bitpos in range(used_bits, 8 * len(payload)):
            if (payload[bitpos // 8] >> (7 - bitpos % 8)) & 1:
                raise ProtocolViolation("nonzero padding bits")
        return cls(tuple(outcomes))


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
    """The shared 2n-qubit channel state on ids 1..2n."""
    layout = ProtocolLayout(len(kinds))
    return cross_bell_state(kinds, layout.channel_pairs)


def total_state(channel: PureState, client: PureState) -> PureState:
    """Channel and client joined in canonical (ascending id) order."""
    return cross(channel, client)


def _single_pair_table() -> dict[tuple[BellKind, BellKind], np.ndarray]:
    """Scaled transfer matrices 2T of one-qubit teleportation, keyed
    (channel kind, outcome kind): column j is Bob's unnormalized state after
    the client |j> meets the channel and the sender's pair is measured."""
    layout = ProtocolLayout(1)
    (client_id,), (pair,) = layout.client_ids, layout.measure_pairs
    table = {}
    for channel in KIND_ORDER:
        totals = [
            total_state(prepare_channel((channel,)), ket({client_id: j}))
            for j in (0, 1)
        ]
        level = np.stack([total.amps for total in totals])
        _, rows, _ = _contract(totals[0].qubits, level, pair)
        for k, outcome in enumerate(KIND_ORDER):
            table[(channel, outcome)] = 2.0 * rows[:, k].T
    return table


# The channel is a product of independent pairs, so slot m's correction is
# the single-pair one for its own channel kind and outcome.
_PAIR_CORRECTIONS = _single_pair_table()


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
    return [_PAIR_CORRECTIONS[(c, k)].copy() for c, k in zip(kinds, outcome)]


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


def _make_report(
    kinds: ChannelSpec,
    outcome: tuple[BellKind, ...],
    probability: float,
    bob_pre: PureState,
    reference: PureState,
) -> TeleportReport:
    corrected = recover(bob_pre, corrections_for(kinds, outcome))
    return TeleportReport(
        outcome, probability, bob_pre, corrected, fidelity(corrected, reference)
    )


def _check_client(client: PureState, layout: ProtocolLayout) -> PureState:
    if set(client.qubits) != set(layout.client_ids):
        raise QubitSetMismatch(
            f"client must live on ids {layout.client_ids}, got {client.qubits}"
        )
    return canonicalize(client)


def _walk(
    kinds: ChannelSpec, client: PureState, seeds: Sequence[int] | None = None
) -> Walk:
    """Every branch of the run (no ``seeds``), or one sampled path per seed,
    walked from one total state. Trial t's draws are the first n uniforms of
    ``default_rng(seeds[t])``, the ones n ``rng.random()`` calls give."""
    layout = ProtocolLayout(len(kinds))
    total = total_state(prepare_channel(kinds), client)
    draws = None
    if seeds is not None:
        draws = [
            np.random.default_rng(seed).random(layout.n).tolist() for seed in seeds
        ]
    return walk_branches(total.qubits, total.amps, layout.measure_pairs, draws)


def _reports(
    kinds: ChannelSpec, client: PureState, seeds: Sequence[int] | None = None
) -> Iterator[TeleportReport]:
    """Reports of every branch (no ``seeds``), or of one sampled branch per
    seed. Checks the inputs and walks the tree before it returns; each
    distinct leaf's report is built once, as the reports are consumed."""
    layout = ProtocolLayout(len(kinds))
    client = _check_client(client, layout)
    walk = _walk(kinds, client, seeds)
    reference = PureState(layout.bob_ids, client.amps)

    def report(leaf: int) -> TeleportReport:
        bob_pre = PureState(walk.qubits, walk.leaves[leaf])
        return _make_report(
            kinds, walk.outcomes[leaf], walk.probabilities[leaf], bob_pre, reference
        )

    if walk.trial_leaf is None:
        return map(report, range(len(walk.outcomes)))
    return _per_trial(report, walk.trial_leaf)


def _per_trial(
    report: Callable[[int], TeleportReport], trial_leaf: Iterable[int]
) -> Iterator[TeleportReport]:
    # leaves are numbered in order of first appearance, so a leaf not built
    # yet is always the next one
    built: list[TeleportReport] = []
    for leaf in trial_leaf:
        if leaf == len(built):
            built.append(report(leaf))
        yield built[leaf]


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
    if mode == "enumerate":
        return list(_reports(kinds, client))
    if mode == "sample":
        if seed is None:
            raise ValueError("sample mode needs a seed")
        return list(_reports(kinds, client, [seed]))
    raise ValueError(f"mode must be 'enumerate' or 'sample', got {mode!r}")


# --- two-actor session over a byte transport ---


class PipeEndpoint:
    """One end of an in-process, in-order, reliable duplex byte pipe."""

    def __init__(self) -> None:
        self._buf = bytearray()
        self._closed = False
        self._cond = threading.Condition()
        self._peer: "PipeEndpoint | None" = None

    def send(self, data: bytes) -> None:
        peer = self._peer
        if peer is None:
            raise SessionAborted("endpoint is not paired")
        with peer._cond:
            if peer._closed:
                raise SessionAborted("peer endpoint is closed")
            peer._buf.extend(data)
            peer._cond.notify_all()

    def recv(self, max_bytes: int) -> bytes:
        """Blocking read of 1..max_bytes; b'' once closed and drained."""
        with self._cond:
            while not self._buf and not self._closed:
                self._cond.wait()
            chunk = bytes(self._buf[:max_bytes])
            del self._buf[:max_bytes]
            return chunk

    def close(self) -> None:
        """Close the link: both ends stop accepting writes and reads drain."""
        for end in (self, self._peer):
            if end is None:
                continue
            with end._cond:
                end._closed = True
                end._cond.notify_all()


def make_pipe() -> tuple[PipeEndpoint, PipeEndpoint]:
    a, b = PipeEndpoint(), PipeEndpoint()
    a._peer, b._peer = b, a
    return a, b


def _recv_exact(endpoint: PipeEndpoint, count: int) -> bytes:
    buf = bytearray()
    while len(buf) < count:
        chunk = endpoint.recv(count - len(buf))
        if not chunk:
            raise SessionAborted(
                f"transport closed after {len(buf)} of {count} bytes"
            )
        buf.extend(chunk)
    return bytes(buf)


def _recv_frame(endpoint: PipeEndpoint) -> bytes:
    header = _recv_exact(endpoint, 6)
    if header[:4] != FRAME_MAGIC:
        raise ProtocolViolation("bad frame magic")
    n = header[5]
    payload_len = (2 * n + 7) // 8 if n else 0
    return header + _recv_exact(endpoint, payload_len)


def run_session(
    kinds: ChannelSpec,
    client: PureState,
    transport: tuple[PipeEndpoint, PipeEndpoint] | None = None,
    seed: int = 0,
) -> TeleportReport:
    """Sampled teleportation as an Alice/Bob exchange over a byte transport.

    Alice holds the channel halves and the client, measures, and sends one
    framed 2n-bit message. Bob holds qubits 1..n, decodes the frame, and
    corrects using only it and his collapsed state. The residual-state
    handoff is simulation-internal and committed before Alice's send. The
    result is bit-identical to ``run_protocol(..., mode='sample')`` with the
    same seed.
    """
    layout = ProtocolLayout(len(kinds))
    client = _check_client(client, layout)
    alice_end, bob_end = transport if transport is not None else make_pipe()

    handoff: dict = {}
    alice_error: list[BaseException] = []

    def alice() -> None:
        try:
            walk = _walk(kinds, client, [seed])
            handoff["probability"] = walk.probabilities[0]
            handoff["bob_pre"] = PureState(walk.qubits, walk.leaves[0])
            alice_end.send(ClassicalMessage(walk.outcomes[0]).encode())
            alice_end.close()
        except BaseException as exc:  # surfaced to the caller after join
            alice_error.append(exc)
            alice_end.close()

    thread = threading.Thread(target=alice, name="crossbell-alice")
    thread.start()
    try:
        message = ClassicalMessage.decode(_recv_frame(bob_end))
        if len(message.outcomes) != layout.n:
            raise ProtocolViolation(
                f"frame carries {len(message.outcomes)} outcomes, expected {layout.n}"
            )
    finally:
        thread.join()
        # Alice's failure explains Bob's, so it is the one raised
        if alice_error:
            raise alice_error[0]
    reference = PureState(layout.bob_ids, client.amps)
    return _make_report(
        kinds, message.outcomes, handoff["probability"], handoff["bob_pre"], reference
    )
