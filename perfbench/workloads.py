"""The workloads: inputs drawn from the seed, one timed call per op,
and checks of each op's outputs made apart from the program.

Every workload calls crossbell only through its public names, looked up at
call time, so that the tracer's wrappers see the calls.
"""
from __future__ import annotations

import json
import os
from collections import Counter
from itertools import product

import numpy as np

import checks
from checks import TOKENS, CheckFailed

import crossbell
import crossbell.cli


def random_amps(rng: np.random.Generator, n: int) -> np.ndarray:
    """Complex-Gaussian amplitudes, normalized: a Haar-random n-qubit state."""
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return amps / np.linalg.norm(amps)


def client_ids(n: int) -> tuple[int, ...]:
    return tuple(range(2 * n + 1, 3 * n + 1))


def to_kinds(tokens: tuple[str, ...]):
    return crossbell.parse_channel(",".join(tokens))


def tokens_of(kinds) -> tuple[str, ...]:
    return tuple(k.token for k in kinds)


class Workload:
    """Set up once, then ops: ``prepare`` (untimed) makes one op's inputs,
    ``run`` (timed) is the call, ``check`` (untimed) judges its outputs.
    Ops come in rounds of ``round_size``; a run attempts whole rounds."""

    round_size = 1
    out_bytes = 0  # bytes the last op wrote, where it writes any
    summary: dict = {}  # figures from finish(), for the run's log

    def __init__(self, seed: int, workdir: str) -> None:
        self.rng = np.random.default_rng([seed, 0xBE7C])
        self.workdir = workdir

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self):
        raise NotImplementedError

    def run(self, inputs):
        raise NotImplementedError

    def check(self, inputs, output) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        """Checks over the whole run, after the last op."""


class EnumerateWarm(Workload):
    """n = 4 enumeration on four fixed channels whose tables set-up derived."""

    n = 4
    round_size = 4
    PRE_STATE_BRANCHES = 3

    def setup(self) -> None:
        channels = list(product(TOKENS, repeat=self.n))
        picks = self.rng.choice(len(channels), size=self.round_size, replace=False)
        self.channels = [channels[i] for i in picks]
        self.next_channel = 0
        for _ in self.channels:
            warm = self.prepare()
            self.check(warm, self.run(warm))

    def prepare(self):
        tokens = self.channels[self.next_channel % len(self.channels)]
        self.next_channel += 1
        amps = random_amps(self.rng, self.n)
        client = crossbell.PureState(client_ids(self.n), amps)
        branches = self.rng.choice(4**self.n, size=self.PRE_STATE_BRANCHES, replace=False)
        return tokens, to_kinds(tokens), amps, client, branches

    def run(self, inputs):
        _, kinds, _, client, _ = inputs
        return crossbell.run_protocol(kinds, client, mode="enumerate")

    def check(self, inputs, reports) -> None:
        tokens, _, amps, _, branches = inputs
        outcomes = [tokens_of(r.outcome) for r in reports]
        checks.check_enumeration(outcomes, [r.probability for r in reports], self.n)
        for r in reports:
            checks.check_fidelity(amps, r.bob_corrected.amps)
        for b in branches:
            r = reports[b]
            checks.check_bob_pre(
                tokens, amps, outcomes[b], r.bob_pre_state.qubits, r.bob_pre_state.amps
            )


class _Sampled(Workload):
    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        self.histogram: Counter = Counter()

    def finish(self) -> None:
        stat, p = checks.check_uniform(self.histogram, 4**self.n)
        self.summary = {"chi2": stat, "chi2_p": p, "sampled": sum(self.histogram.values())}


class SampleTrials(_Sampled):
    """In-process CLI teleport --n 3 --mode sample --trials T, new seed per op."""

    n = 3
    # Between the CLI's documented --trials 100 and ROADMAP's --trials 10000
    # baseline: at T = 1000 an op takes about a second and the CLI's held
    # records lift the process's peak RSS by about 2 MB over T = 100.
    trials = 1000
    # Trials per op replayed through run_protocol, untimed, for the np.vdot
    # fidelity check; replaying all of them would halve the ops per run.
    REPLAYED = 32

    def setup(self) -> None:
        self.channel = tuple(TOKENS[i] for i in self.rng.integers(4, size=self.n))
        self.kinds = to_kinds(self.channel)
        self.client_path = os.path.join(self.workdir, "client.state")
        self.out_path = os.path.join(self.workdir, "teleport.json")
        warm = self.prepare()
        self.check(warm, self.run(warm))
        self.histogram.clear()

    def prepare(self):
        amps = random_amps(self.rng, self.n)
        with open(self.client_path, "w") as fp:
            fp.write("crossbell-state v1\n")
            fp.write("qubits " + " ".join(str(q) for q in range(1, self.n + 1)) + "\n")
            for a in amps:
                fp.write(f"{float(a.real)!r} {float(a.imag)!r}\n")
        seed = int(self.rng.integers(2**62))
        replayed = self.rng.choice(self.trials, size=self.REPLAYED, replace=False)
        argv = [
            "teleport", "--n", str(self.n), "--channel", ",".join(self.channel),
            "--client", f"file:{self.client_path}", "--mode", "sample",
            "--trials", str(self.trials), "--seed", str(seed), "--out", self.out_path,
        ]
        return seed, argv, amps, replayed

    def run(self, inputs):
        return crossbell.cli.main(inputs[1])

    def check(self, inputs, code) -> None:
        seed, _, amps, replayed = inputs
        if code != 0:
            raise CheckFailed(f"teleport exited {code}")
        self.out_bytes = os.path.getsize(self.out_path)
        with open(self.out_path) as fp:
            payload = json.load(fp)
        config = payload["config"]
        if (config["n"], tuple(config["channel"]), config["trials"], config["seed"]) != (
            self.n, self.channel, self.trials, seed,
        ):
            raise CheckFailed(f"report echoes another configuration: {config}")
        branches = payload["branches"]
        if len(branches) != self.trials:
            raise CheckFailed(f"{len(branches)} records for {self.trials} trials")
        for b in branches:
            outcome = tuple(b["outcome"])
            if len(outcome) != self.n or not set(outcome) <= set(TOKENS):
                raise CheckFailed(f"malformed outcome {outcome}")
            checks.check_branch_probability(b["probability"], self.n)
            if not b["fidelity"] >= 1.0 - checks.FIDELITY_TOL:
                raise CheckFailed(f"reported fidelity {b['fidelity']!r}")
            self.histogram[outcome] += 1
        # the CLI draws trial t's seed as the t-th integer of this generator
        trial_rng = np.random.default_rng(np.random.SeedSequence([seed, 0x71A1]))
        trial_seeds = [int(trial_rng.integers(2**63)) for _ in range(self.trials)]
        client = crossbell.PureState(client_ids(self.n), amps)
        for t in replayed:
            (twin,) = crossbell.run_protocol(self.kinds, client, mode="sample", seed=trial_seeds[t])
            if list(tokens_of(twin.outcome)) != branches[t]["outcome"]:
                raise CheckFailed(f"trial {t} of seed {seed} does not replay its outcome")
            checks.check_fidelity(amps, twin.bob_corrected.amps)


class SessionRoundtrip(_Sampled):
    """One two-actor run_session at n = 2 on the (phi+, phi-) channel."""

    n = 2
    channel = ("phi+", "phi-")
    # a round of about a third of a second between reference timings
    round_size = 256

    def setup(self) -> None:
        self.kinds = to_kinds(self.channel)
        warm = self.prepare()
        self.check(warm, self.run(warm))
        self.histogram.clear()

    def prepare(self):
        amps = random_amps(self.rng, self.n)
        client = crossbell.PureState(client_ids(self.n), amps)
        return amps, client, int(self.rng.integers(2**62))

    def run(self, inputs):
        _, client, seed = inputs
        return crossbell.run_session(self.kinds, client, seed=seed)

    def check(self, inputs, report) -> None:
        amps, client, seed = inputs
        outcome = tokens_of(report.outcome)
        checks.check_branch_probability(report.probability, self.n)
        checks.check_fidelity(amps, report.bob_corrected.amps)
        (twin,) = crossbell.run_protocol(self.kinds, client, mode="sample", seed=seed)
        same = (
            tokens_of(twin.outcome) == outcome
            and twin.probability == report.probability
            and np.array_equal(twin.bob_pre_state.amps, report.bob_pre_state.amps)
            and np.array_equal(twin.bob_corrected.amps, report.bob_corrected.amps)
        )
        if not same:
            raise CheckFailed(f"run_session differs from sampled run_protocol at seed {seed}")
        self.histogram[outcome] += 1


WORKLOADS = {
    "enumerate_warm": EnumerateWarm,
    "sample_trials": SampleTrials,
    "session_roundtrip": SessionRoundtrip,
}
