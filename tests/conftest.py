"""Shared fixtures and independent brute-force helpers.

The helpers here deliberately re-derive states with dict bookkeeping keyed by
qubit id, so they share no index arithmetic with the library under test.
"""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import crossbell
from crossbell.bell import BellKind
from crossbell.statevec import PureState

SQ2 = 1.0 / np.sqrt(2.0)

# Bell amplitude dicts keyed (bit_of_smaller_id, bit_of_larger_id).
BELL_DICT = {
    BellKind.PSI_PLUS: {(0, 0): SQ2, (1, 1): SQ2},
    BellKind.PSI_MINUS: {(0, 0): SQ2, (1, 1): -SQ2},
    BellKind.PHI_PLUS: {(0, 1): SQ2, (1, 0): SQ2},
    BellKind.PHI_MINUS: {(0, 1): SQ2, (1, 0): -SQ2},
}


def dict_bell(kind: BellKind, pair: tuple[int, int]):
    """Bell state as {frozenset of (qubit, bit): amp}."""
    lo, hi = min(pair), max(pair)
    return {
        frozenset({(lo, b_lo), (hi, b_hi)}): amp
        for (b_lo, b_hi), amp in BELL_DICT[kind].items()
    }


def dict_product(*states):
    """Merge dict states over disjoint qubits by multiplying amplitudes."""
    acc = {frozenset(): 1.0 + 0j}
    for state in states:
        nxt = {}
        for key_a, amp_a in acc.items():
            for key_b, amp_b in state.items():
                nxt[key_a | key_b] = amp_a * amp_b
        acc = nxt
    return acc


def dict_to_vector(state) -> tuple[tuple[int, ...], np.ndarray]:
    """Render a dict state as (ascending qubits, amplitudes); the index puts
    the smallest qubit id in the most significant bit."""
    qubits = sorted({q for key in state for q, _ in key})
    vec = np.zeros(2 ** len(qubits), dtype=complex)
    for key, amp in state.items():
        bits = dict(key)
        index = 0
        for q in qubits:
            index = (index << 1) | bits[q]
        vec[index] += amp
    return tuple(qubits), vec


def random_state(ids, rng) -> PureState:
    n = len(ids)
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return PureState.renormalized(tuple(ids), amps)


def chi_square(counts, cells: int) -> float:
    """Pearson's statistic of the observed ``counts`` against equal expected
    counts over ``cells`` cells; a cell with no count observed counts 0."""
    counts = list(counts)
    assert len(counts) <= cells
    expected = sum(counts) / cells
    observed = counts + [0] * (cells - len(counts))
    return sum((o - expected) ** 2 / expected for o in observed)


def run_optimized(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` under ``python -O``, which strips assert statements."""
    src = str(Path(crossbell.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True, text=True, env=env, timeout=60,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20250810)
