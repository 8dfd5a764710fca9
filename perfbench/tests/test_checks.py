"""Each independent check accepts the program's real outputs and rejects a
corrupted copy of them."""
import json
import math

import numpy as np
import pytest

import checks
import workloads
from checks import CheckFailed, TOKENS

import crossbell


def _client(rng, n):
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    amps /= np.linalg.norm(amps)
    return amps, crossbell.PureState(tuple(range(2 * n + 1, 3 * n + 1)), amps)


@pytest.fixture
def enumeration():
    rng = np.random.default_rng(5)
    tokens = ("phi+", "psi-")
    amps, client = _client(rng, 2)
    reports = crossbell.run_protocol(crossbell.parse_channel(",".join(tokens)), client)
    return tokens, amps, reports


def _outcome(report):
    return tuple(k.token for k in report.outcome)


def test_real_enumeration_passes(enumeration):
    tokens, amps, reports = enumeration
    checks.check_enumeration([_outcome(r) for r in reports], [r.probability for r in reports], 2)
    for r in reports:
        checks.check_fidelity(amps, r.bob_corrected.amps)
        checks.check_bob_pre(tokens, amps, _outcome(r), r.bob_pre_state.qubits, r.bob_pre_state.amps)


def test_flipped_amplitude_sign_is_rejected(enumeration):
    tokens, amps, reports = enumeration
    r = reports[7]
    j = int(np.argmax(np.abs(r.bob_corrected.amps)))
    bad = r.bob_corrected.amps.copy()
    bad[j] = -bad[j]
    with pytest.raises(CheckFailed, match="fidelity"):
        checks.check_fidelity(amps, bad)
    pre = r.bob_pre_state.amps.copy()
    j = int(np.argmax(np.abs(pre)))
    pre[j] = -pre[j]
    with pytest.raises(CheckFailed, match="pre-correction"):
        checks.check_bob_pre(tokens, amps, _outcome(r), r.bob_pre_state.qubits, pre)


def test_probability_off_by_1e_6_is_rejected(enumeration):
    _, _, reports = enumeration
    outcomes = [_outcome(r) for r in reports]
    probs = [r.probability for r in reports]
    with pytest.raises(CheckFailed, match="probability"):
        checks.check_branch_probability(probs[3] + 1e-6, 2)
    probs[3] += 1e-6
    with pytest.raises(CheckFailed):
        checks.check_enumeration(outcomes, probs, 2)


def test_missing_or_repeated_outcome_is_rejected(enumeration):
    _, _, reports = enumeration
    outcomes = [_outcome(r) for r in reports]
    probs = [r.probability for r in reports]
    outcomes[0] = outcomes[1]
    with pytest.raises(CheckFailed, match="distinct"):
        checks.check_enumeration(outcomes, probs, 2)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_reference_matches_program_on_every_outcome(n):
    rng = np.random.default_rng(n)
    channel = tuple(TOKENS[i] for i in rng.integers(4, size=n))
    amps, client = _client(rng, n)
    reports = crossbell.run_protocol(crossbell.parse_channel(",".join(channel)), client)
    for r in reports:
        ref, p = checks.bob_pre_reference(channel, amps, _outcome(r))
        assert p == pytest.approx(4.0**-n, abs=1e-12)
        np.testing.assert_allclose(r.bob_pre_state.amps, ref, atol=1e-12)


def test_sample_trials_replay_rejects_an_outcome_the_protocol_did_not_give(tmp_path):
    workload = workloads.SampleTrials(4, str(tmp_path))
    workload.trials = workload.REPLAYED = 8
    workload.setup()
    inputs = workload.prepare()
    assert workload.run(inputs) == 0
    workload.check(inputs, 0)
    with open(workload.out_path) as fp:
        payload = json.load(fp)
    first = payload["branches"][0]
    first["outcome"] = [TOKENS[(TOKENS.index(t) + 1) % 4] for t in first["outcome"]]
    with open(workload.out_path, "w") as fp:
        json.dump(payload, fp)
    with pytest.raises(CheckFailed, match="replay"):
        workload.check(inputs, 0)


def test_chi2_survival_matches_closed_forms():
    for x in (0.01, 0.5, 1.0, 3.0, 10.0, 40.0, 80.0):
        assert checks.chi2_sf(x, 2) == pytest.approx(math.exp(-x / 2), rel=1e-10)
        assert checks.chi2_sf(x, 1) == pytest.approx(math.erfc(math.sqrt(x / 2)), rel=1e-9)
    # reference values from scipy.stats.chi2.sf, near the rejection threshold
    assert checks.chi2_sf(140.0, 63) == pytest.approx(8.872027037820625e-08, rel=1e-9)
    assert checks.chi2_sf(60.0, 15) == pytest.approx(2.522085078696141e-07, rel=1e-9)


@pytest.mark.parametrize(
    "cells, samples, weight",
    [(64, 28_000, 2.0), (16, 6_000, 1.5)],  # about one run of sample_trials / session_roundtrip
)
def test_histogram_biased_toward_one_outcome_is_rejected(cells, samples, weight):
    rng = np.random.default_rng(11)
    fair = rng.multinomial(samples, [1 / cells] * cells)
    checks.check_uniform({i: int(c) for i, c in enumerate(fair) if c}, cells)
    weights = np.ones(cells)
    weights[cells // 3] = weight
    biased = rng.multinomial(samples, weights / weights.sum())
    with pytest.raises(CheckFailed, match="not uniform"):
        checks.check_uniform({i: int(c) for i, c in enumerate(biased)}, cells)


def test_fair_histograms_pass_with_calibrated_p_values():
    rng = np.random.default_rng(3)
    p_values = [
        checks.check_uniform(dict(enumerate(rng.multinomial(4_000, [1 / 16] * 16))), 16)[1]
        for _ in range(200)
    ]
    # a fair sampler's p-values are uniform on (0, 1)
    assert 0.4 < np.median(p_values) < 0.6
    assert checks.CHI2_ALPHA <= 1e-6


def test_too_few_samples_cannot_be_judged():
    with pytest.raises(ValueError):
        checks.check_uniform({("psi+",): 3}, 16)

