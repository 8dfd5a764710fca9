"""Output checks made apart from the program under test.

Nothing here calls crossbell: Bell states, the qubit layout and the index
arithmetic are written out again, in the dict style of the test suite's
helpers, and inner products use numpy directly. Every check raises
CheckFailed with a message naming what it saw.
"""
from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence

import numpy as np

PROB_TOL = 1e-12
FIDELITY_TOL = 1e-9
AMP_TOL = 1e-9
# A correct sampler fails the uniformity test once in 1/CHI2_ALPHA runs.
CHI2_ALPHA = 1e-7
CHI2_MIN_EXPECTED = 5.0

TOKENS = ("psi+", "psi-", "phi+", "phi-")

_S = 1.0 / math.sqrt(2.0)
# Bell amplitudes keyed (bit of the smaller id, bit of the larger id).
BELL = {
    "psi+": {(0, 0): _S, (1, 1): _S},
    "psi-": {(0, 0): _S, (1, 1): -_S},
    "phi+": {(0, 1): _S, (1, 0): _S},
    "phi-": {(0, 1): _S, (1, 0): -_S},
}


class CheckFailed(Exception):
    """An output of the program disagrees with the independent reference."""


def check_branch_probability(p: float, n: int) -> None:
    """A maximally entangled channel makes every branch equally likely."""
    expected = 4.0**-n
    if not abs(p - expected) <= PROB_TOL:
        raise CheckFailed(f"branch probability {p!r} is not 4^-{n} = {expected!r}")


def check_enumeration(outcomes: Sequence[tuple[str, ...]], probs: Sequence[float], n: int) -> None:
    """All 4^n outcomes, each once, each with probability 4^-n, summing to 1."""
    if len(outcomes) != 4**n or len(set(outcomes)) != 4**n:
        raise CheckFailed(f"enumeration has {len(set(outcomes))} distinct of {4**n} outcomes")
    for p in probs:
        check_branch_probability(p, n)
    total = math.fsum(probs)
    if not abs(total - 1.0) <= PROB_TOL:
        raise CheckFailed(f"enumerated probabilities sum to {total!r}")


def check_fidelity(client: np.ndarray, bob: np.ndarray) -> float:
    """|<client|bob>|^2 >= 1 - FIDELITY_TOL; returns the fidelity."""
    client = np.asarray(client, dtype=complex)
    bob = np.asarray(bob, dtype=complex)
    if client.shape != bob.shape:
        raise CheckFailed(f"Bob holds {bob.shape} amplitudes, the client {client.shape}")
    f = abs(np.vdot(client, bob)) ** 2
    if not f >= 1.0 - FIDELITY_TOL:
        raise CheckFailed(f"fidelity {f!r} below 1 - {FIDELITY_TOL}")
    return f


def bob_pre_reference(
    channel: Sequence[str], client: np.ndarray, outcome: Sequence[str]
) -> tuple[np.ndarray, float]:
    """Bob's normalized pre-correction amplitudes and the branch probability.

    Layout: Bob holds 1..n, channel pair m is (m, n+m), the client sits on
    2n+1..3n with its smallest id in the most significant index bit, and
    measurement pair m is (n+m, 2n+m).
    """
    n = len(channel)
    state = {(): 1.0 + 0j}  # key: tuple of (qubit, bit), ascending qubits
    for m, kind in enumerate(channel, start=1):
        state = {
            key + ((m, b_lo), (n + m, b_hi)): amp * a
            for key, amp in state.items()
            for (b_lo, b_hi), a in BELL[kind].items()
        }
    client_ids = range(2 * n + 1, 3 * n + 1)
    client_terms = {}
    for index, amp in enumerate(np.asarray(client, dtype=complex)):
        if amp != 0:
            bits = [(index >> (n - 1 - j)) & 1 for j in range(n)]
            client_terms[tuple(zip(client_ids, bits))] = amp
    bob: dict[tuple[int, ...], complex] = {}
    for key, amp in state.items():
        bits = dict(key)
        for ckey, camp in client_terms.items():
            bits.update(ckey)
            factor = 1.0 + 0j
            for m, kind in enumerate(outcome, start=1):
                factor *= np.conj(BELL[kind].get((bits[n + m], bits[2 * n + m]), 0.0))
                if factor == 0:
                    break
            if factor != 0:
                bob_bits = tuple(bits[q] for q in range(1, n + 1))
                bob[bob_bits] = bob.get(bob_bits, 0.0) + amp * camp * factor
    vec = np.zeros(2**n, dtype=complex)
    for bob_bits, amp in bob.items():
        index = 0
        for b in bob_bits:
            index = (index << 1) | b
        vec[index] += amp
    p = float(np.vdot(vec, vec).real)
    return vec / math.sqrt(p), p


def check_bob_pre(
    channel: Sequence[str],
    client: np.ndarray,
    outcome: Sequence[str],
    qubits: Sequence[int],
    amps: np.ndarray,
) -> None:
    """Bob's pre-correction state equals the independent projection."""
    n = len(channel)
    if tuple(qubits) != tuple(range(1, n + 1)):
        raise CheckFailed(f"Bob's state lives on {tuple(qubits)}, not 1..{n}")
    ref, _ = bob_pre_reference(channel, client, outcome)
    err = float(np.max(np.abs(np.asarray(amps) - ref)))
    if not err <= AMP_TOL:
        raise CheckFailed(
            f"Bob's pre-correction state for outcome {list(outcome)} is off by {err:.3e}"
        )


def chi2_sf(stat: float, df: int) -> float:
    """P(X >= stat) for X chi-square with df degrees of freedom: the
    regularized upper incomplete gamma Q(df/2, stat/2)."""
    a, x = df / 2.0, stat / 2.0
    if x <= 0.0:
        return 1.0
    log_prefactor = -x + a * math.log(x) - math.lgamma(a)
    if x < a + 1.0:
        # series for the lower function P
        term = total = 1.0 / a
        ap = a
        for _ in range(10_000):
            ap += 1.0
            term *= x / ap
            total += term
            if abs(term) < abs(total) * 1e-16:
                break
        return max(0.0, 1.0 - total * math.exp(log_prefactor))
    # continued fraction for Q (modified Lentz)
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 10_000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = tiny if abs(d) < tiny else d
        c = b + an / c
        c = tiny if abs(c) < tiny else c
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return math.exp(log_prefactor) * h


def check_uniform(counts: Mapping[object, int], cells: int) -> tuple[float, float]:
    """Chi-square test that ``counts`` over ``cells`` outcomes is uniform.

    Returns (statistic, p-value); raises when p < CHI2_ALPHA. Outcomes never
    seen count as zero.
    """
    total = sum(counts.values())
    if len(counts) > cells:
        raise CheckFailed(f"{len(counts)} distinct outcomes, only {cells} exist")
    expected = total / cells
    if expected < CHI2_MIN_EXPECTED:
        raise ValueError(f"{total} samples are too few to test {cells} cells")
    observed: Iterable[int] = list(counts.values()) + [0] * (cells - len(counts))
    stat = sum((c - expected) ** 2 for c in observed) / expected
    p = chi2_sf(stat, cells - 1)
    if p < CHI2_ALPHA:
        raise CheckFailed(
            f"outcome histogram is not uniform: chi2 = {stat:.1f} on {cells - 1} "
            f"degrees of freedom, p = {p:.2e} < {CHI2_ALPHA}"
        )
    return stat, p
