from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import time
import weakref
from collections import Counter
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np
import pytest

import crossbell
import crossbell.cli as cli_module
import crossbell.teleport as teleport_module
from crossbell import __version__
from crossbell.bell import (
    KIND_ORDER, BellKind, cross_bell_state, expand_in_cross_bell, kind_tuples,
    parse_channel,
)
from crossbell.cli import MAX_PARTIES, _resolve_client, main
from crossbell.statevec import PureState, load_state, save_state
from crossbell.teleport import ProtocolLayout, run_protocol
from conftest import chi_square, random_state


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert out, f"no stdout; stderr: {err}"
    return code, json.loads(out)


def branch_digest(path) -> str:
    """sha256 of a teleport report's branches and aggregate, re-serialized
    with sorted keys. The envelope is left out, so a version bump keeps it."""
    payload = json.loads(Path(path).read_text())
    body = {"branches": payload["branches"], "aggregate": payload["aggregate"]}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


def outcome_digest(path) -> str:
    """sha256 of a teleport report's outcomes and probabilities, in branch
    order, and its max_prob_deviation: the walk's fields, without Bob's
    corrected state or its fidelities."""
    payload = json.loads(Path(path).read_text())
    body = {
        "branches": [[b["outcome"], b["probability"]] for b in payload["branches"]],
        "max_prob_deviation": payload["aggregate"]["max_prob_deviation"],
    }
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


def assert_pinned(path, digests: tuple[str, str]) -> None:
    """A teleport report's (branch_digest, outcome_digest) equal ``digests``."""
    assert (branch_digest(path), outcome_digest(path)) == digests


# Digests of teleport runs: (branch_digest, outcome_digest). The first were
# recorded once Bob's correction factors were exactly +-1 (N7_DIGESTS' and
# _SAMPLED_DIGESTS' once fidelities were clipped at 1, since those runs
# printed fidelities above 1); the second, before that, and they held across
# it. They pin the CLI's values apart from the walk that both sides of
# test_stdout_equals_the_payload_built_from_reports share.
_CHANNELS = ["phi+", "psi-", "phi-", "psi+"] * 2
N7_DIGESTS = (
    "22de3276d5e314c9d99237ccb2528c5a08e12e832a175f9c9206a52f0e675819",
    "99b3d5fd6443fb3e8d256f91c4667c27281a2ac82119d04a35a77ed8b466d5b8",
)
# (±1 ± 1j) / 4 on each of 8 amplitudes: the squared norm is exactly 1
_PINNED_CLIENT = (
    "crossbell-state v1\nqubits 1 2 3\n0.25 0.25\n0.25 -0.25\n-0.25 0.25\n"
    "-0.25 -0.25\n0.25 -0.25\n0.25 0.25\n-0.25 -0.25\n-0.25 0.25\n"
)
# an enumeration's outcomes and probabilities do not depend on the client, so
# two presets differ only in their fidelities' last bits, which agree at n = 1
_PRESET_DIGESTS = {
    ("ghz", 1): (
        "1ba4613dc5f683fefda2218dce92c8f9d54a8394815f079c9e612fbb7bf1ee7c",
        "881467a09f9a74d46f35e3b6ad64c29b0712f4c97e47653671060fc275fb86d7",
    ),
    ("ghz", 2): (
        "fecad53c75aec70a76ed2c2a4269ca6fc38a570b7001e54766e09b88daaf450a",
        "8082b9eee507945958e001eebd8324776e9da5d933bb6b5d6a00ea8b031fb925",
    ),
    ("ghz", 3): (
        "339bd0b3f51a922ae7b053c93821a9ddd0d62074d048d686946366e378f2ae2c",
        "a3f5848f6c1c82452d27675e562595b4f93ea5b6647a350c0d4ee8a7a020c588",
    ),
    ("ghz", 4): (
        "04c9cd0baf714578aa2d033c14e5edd9269f1594a0f44d34a7c5746770810e3b",
        "55794d020ad33acbaecfe0a989f3c27b0636bd13123db849d64a85908ccc5cf8",
    ),
    ("uniform", 1): (
        "1ba4613dc5f683fefda2218dce92c8f9d54a8394815f079c9e612fbb7bf1ee7c",
        "881467a09f9a74d46f35e3b6ad64c29b0712f4c97e47653671060fc275fb86d7",
    ),
    ("uniform", 2): (
        "a294a33c32f4bff9da3c659eecf2b40ddee7c92bce387950586beb7c88cb5200",
        "8082b9eee507945958e001eebd8324776e9da5d933bb6b5d6a00ea8b031fb925",
    ),
    ("uniform", 3): (
        "a5821d09aada5ed6fd4ddfb63936f3dd671c9ccbe9fd3dc4254ea98f7d2fc441",
        "a79ea32337815b63466cfa0935b6fecf69a985bb4cfcf0c6891302dbb459d58f",
    ),
    ("uniform", 4): (
        "7e18b0860064f5b59e26318094eabebe19032f648523fc659dae6dd79f151912",
        "f6e8d5fc15c892460885909cf0013981cef033a167119acde5c2852cd7ff6ba5",
    ),
}
_FILE_CLIENT_DIGESTS = (
    "937d687477fe98ebb0d6fb0f54f898642ec459616fb24b63153f39fa6294d032",
    "022183132005ed1a3a70615171eef464497d86d5d09c0878ab867ead00812366",
)
_SAMPLED_DIGESTS = (
    "bd05e04d3f7fd1fa5693e91ae5e74c685cfc2bb257c5dc2a45fc1351f550b8ec",
    "aa8ee02ebd1b7e106c3a833525a36ca1cd0ce5a915ee97e3cf25963b95de9c55",
)


# Digests of expand's coefficients, re-serialized with sorted keys, recorded
# while expand wrote its whole payload with json.dumps. They pin the values
# apart from the writer and from the expansion that the byte test shares.
# The random states are normalized without BLAS, so the pins hold whatever
# the BLAS pool's size.
_EXPAND_DIGESTS = {
    ("random", 1): "44c7ff81621717e8ad4e10bab7a323c08110d35d9ac3ae8c4fd45082ac6c1cb5",
    ("random", 3): "19c112160b5405613f6290b3458ea656f31ea359fdbff2a470600aea6a17a060",
    ("random", 7): "08794d789fd80e3478c5510d0295c009035f58b3f9a58eff6ceb9eae200d76a8",
    ("basis", 3): "ec41fe70f3a226ce7f9e6f6087ea3ff25420c44523ce92b6c4cc75aa94e13ca9",
}


# sha256 of whole stdout (tool_version included) of verify and basis. basis
# prints a BLAS matmul's max_deviation; the bytes held under one, two and the
# default number of BLAS threads when they were recorded.
_STDOUT_DIGESTS = {
    ("verify",): "dc567ffdfd807be0427de90e89e143692fbe0cdf56ee4874bae254cf51b687e5",
    ("verify", "--format", "json"):
        "ca0b07ed8096da83c5a0b3e0fdb2fcdd29350b4fd31c4af31c5ace22729e2b41",
    ("basis", "--n", "1"):
        "6de38593790a1dcbf035894703335354b9e87c32b8a12926a1de48a02c6e13d6",
    ("basis", "--n", "2"):
        "86407a02150d44b8686fc6b17eb313aea43501ffa06134ee377bde4917a7a5ef",
    ("basis", "--n", "3"):
        "f43b43f7fc997fbbc6d085986fa637da9dc1b2ed5f368b711ca3da0270994748",
    ("basis", "--n", "4"):
        "f5a337c7f34ccabecaed17ba0cf7283c9ba0a5bc63d8ad45dae050f5cc08eb5c",
    ("basis", "--n", "5"):
        "37f05b65871b323e5b0686574ca0862f207798641da988877d4c9ac49458f759",
}


def coefficient_digest(text: str) -> str:
    """sha256 of an expand report's coefficients, re-serialized with sorted keys."""
    coefficients = json.loads(text)["coefficients"]
    return hashlib.sha256(json.dumps(coefficients, sort_keys=True).encode()).hexdigest()


# Runs argv[1:] and prints its exit code and ru_maxrss. A process started
# from the test process carries that process's peak through fork and exec
# into its own ru_maxrss, so the CLI is started from this small one instead.
_PEAK_LAUNCHER = (
    "import os, subprocess, sys\n"
    "child = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)\n"
    "_, status, usage = os.wait4(child.pid, 0)\n"
    "child.returncode = os.waitstatus_to_exitcode(status)\n"
    "print(child.returncode, usage.ru_maxrss)\n"
)


def cli_peak_rss(*argv) -> int:
    """Peak RSS (KiB) of ``crossbell argv`` in a fresh process; it must exit 0."""
    src = str(Path(crossbell.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    result = subprocess.run(
        [sys.executable, "-c", _PEAK_LAUNCHER,
         sys.executable, "-m", "crossbell.cli", *argv],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
        check=True,
    )
    code, peak = map(int, result.stdout.split())
    assert code == 0, result.stderr
    return peak


class TestTeleportCommand:
    def test_enumerate_sixteen_unit_fidelity_branches(self, capsys):
        code, payload = run_json(
            capsys,
            "teleport",
            "--n",
            "2",
            "--channel",
            "phi+,phi-",
            "--client",
            "random",
            "--seed",
            "7",
            "--mode",
            "enumerate",
        )
        assert code == 0
        assert payload["schema_version"] == 1
        assert payload["config"]["seed"] == 7
        assert len(payload["branches"]) == 16
        assert payload["aggregate"]["min_fidelity"] >= 1 - 1e-9
        assert payload["aggregate"]["max_prob_deviation"] < 1e-12

    def test_sampled_trials_from_file_client(self, capsys, tmp_path, rng):
        state = random_state((1,), rng)
        path = tmp_path / "qubit.state"
        with open(path, "w") as fp:
            save_state(state, fp)
        code, payload = run_json(
            capsys,
            "teleport",
            "--n",
            "1",
            "--channel",
            "psi+",
            "--client",
            f"file:{path}",
            "--mode",
            "sample",
            "--trials",
            "100",
            "--seed",
            "3",
        )
        assert code == 0
        assert len(payload["branches"]) == 100
        assert all(b["fidelity"] >= 1 - 1e-9 for b in payload["branches"])

    def test_each_trial_replays_as_a_sampled_run(self, capsys, tmp_path, rng):
        state = random_state((1, 2), rng)
        path = tmp_path / "pair.state"
        with open(path, "w") as fp:
            save_state(state, fp)
        code, payload = run_json(
            capsys,
            "teleport",
            "--channel",
            "phi-,psi+",
            "--client",
            f"file:{path}",
            "--mode",
            "sample",
            "--trials",
            "25",
            "--seed",
            "19",
        )
        assert code == 0
        client = PureState((5, 6), state.amps)
        trial_rng = np.random.default_rng(np.random.SeedSequence([19, 0x71A1]))
        for record in payload["branches"]:
            seed = int(trial_rng.integers(2**63))
            (twin,) = run_protocol(
                parse_channel("phi-,psi+"), client, mode="sample", seed=seed
            )
            assert record == {
                "outcome": [k.token for k in twin.outcome],
                "probability": twin.probability,
                "fidelity": twin.fidelity_vs_client,
            }

    def test_sampled_outcomes_are_uniform(self, tmp_path):
        # every one of the 4**3 outcomes has probability 1/64 whatever the
        # client; 139.58 is chi-square's critical value at 1e-7 for df 63
        path = tmp_path / "trials.json"
        code = main([
            "teleport", "--channel", "phi+,psi-,phi-", "--client", "random",
            "--seed", "7", "--mode", "sample", "--trials", "64000",
            "--out", str(path),
        ])
        assert code == 0
        with open(path) as fp:
            branches = json.load(fp)["branches"]
        assert len(branches) == 64000
        counts = Counter(tuple(b["outcome"]) for b in branches)
        assert chi_square(counts.values(), 64) < 139.58

    def test_largest_advertised_n_enumerates_in_bounded_time(self, tmp_path):
        # 4**7 = 16384 branches; a few seconds on a 2-core host
        wall_bound_s = 60.0
        channel = ",".join((["phi+", "psi-", "phi-", "psi+"] * 2)[:MAX_PARTIES])
        path = tmp_path / "n7.json"
        start = time.perf_counter()
        code = main(
            ["teleport", "--n", str(MAX_PARTIES), "--channel", channel,
             "--seed", "7", "--out", str(path)]
        )
        elapsed = time.perf_counter() - start
        payload = json.loads(path.read_text())
        assert code == 0
        assert len(payload["branches"]) == 4**MAX_PARTIES == 16384
        assert payload["aggregate"]["min_fidelity"] >= 1 - 1e-9
        assert elapsed < wall_bound_s
        assert_pinned(path, N7_DIGESTS)

    def test_largest_advertised_n_samples_a_thousand_trials_in_bounded_time(
        self, tmp_path
    ):
        wall_bound_s = 30.0
        channel = ",".join((["psi+", "phi-", "psi-", "phi+"] * 2)[:MAX_PARTIES])
        path = tmp_path / "n7_sample.json"
        start = time.perf_counter()
        code = main(
            ["teleport", "--n", str(MAX_PARTIES), "--channel", channel,
             "--mode", "sample", "--trials", "1000", "--seed", "7",
             "--out", str(path)]
        )
        elapsed = time.perf_counter() - start
        payload = json.loads(path.read_text())
        assert code == 0
        assert len(payload["branches"]) == 1000
        assert elapsed < wall_bound_s

    def test_peak_memory_of_many_trials_stays_within_twice_a_thousand(
        self, tmp_path
    ):
        def peak_rss(trials):
            return cli_peak_rss(
                "teleport", "--channel", "phi-,psi+,phi+", "--mode", "sample",
                "--trials", str(trials), "--seed", "5",
                "--out", str(tmp_path / f"{trials}.json"),
            )

        assert peak_rss(100_000) <= 2 * peak_rss(1000)

    def test_sampled_peak_memory_does_not_follow_the_joined_state(self, tmp_path):
        # a sampled walk holds only the nodes its trials reach, each joined
        # with the channel pairs measured so far, never the 2**21 total state
        channel = ",".join((["phi+", "psi-", "phi-", "psi+"] * 2)[:MAX_PARTIES])

        def peak_rss(*mode):
            return cli_peak_rss(
                "teleport", "--channel", channel, "--seed", "7", *mode,
                "--out", str(tmp_path / "n7.json"),
            )

        sampled = peak_rss("--mode", "sample", "--trials", "1000")
        assert sampled < 0.6 * peak_rss("--mode", "enumerate")

    def test_client_file_resolves_in_ascending_id_order(self, tmp_path, rng):
        # ids 2 1: amplitude index 1 is q2=0, q1=1, i.e. |10> on ids 1 2
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        amps /= np.linalg.norm(amps)
        raw = tmp_path / "raw.state"
        raw.write_text(
            "crossbell-state v1\nqubits 2 1\n"
            + "".join(f"{float(a.real)!r} {float(a.imag)!r}\n" for a in amps)
        )
        rewrite = tmp_path / "canonical.state"
        with open(raw) as src, open(rewrite, "w") as dst:
            save_state(load_state(src), dst)
        client_ids = (5, 6)
        from_raw = _resolve_client(f"file:{raw}", client_ids, 0)
        from_rewrite = _resolve_client(f"file:{rewrite}", client_ids, 0)
        assert from_raw.qubits == from_rewrite.qubits == client_ids
        assert np.array_equal(from_raw.amps, from_rewrite.amps)
        assert np.array_equal(from_raw.amps, amps[[0, 2, 1, 3]])

    def test_preset_client(self, capsys):
        code, payload = run_json(
            capsys, "teleport", "--channel", "phi+,phi+", "--client", "ghz"
        )
        assert code == 0
        assert payload["aggregate"]["min_fidelity"] >= 1 - 1e-9

    def test_malformed_channel_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "teleport", "--channel", "phi*,psi+")
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("channel", ["phi+,,phi-", "psi+,"])
    def test_empty_channel_position_exits_2(self, capsys, channel):
        code, out, err = run_cli(capsys, "teleport", "--channel", channel)
        assert code == 2
        assert out == ""
        assert "empty Bell kind at position 2" in err

    def test_n_channel_disagreement_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "teleport", "--n", "3", "--channel", "phi+,phi-"
        )
        assert code == 2
        assert "disagrees" in err

    def test_n_ceiling_enforced(self, capsys):
        code, _, err = run_cli(
            capsys, "teleport", "--channel", ",".join(["psi+"] * 8)
        )
        assert code == 2

    def test_missing_client_file_exits_2(self, capsys):
        # the bare preset names are the only preset spelling
        for client, message in (
            ("file:/does/not/exist", "error:"),
            ("preset:ghz", "bad client source"),
        ):
            code, _, err = run_cli(
                capsys, "teleport", "--channel", "psi+", "--client", client
            )
            assert code == 2
            assert message in err

    def test_deterministic_output(self, capsys):
        argv = [
            "teleport",
            "--channel",
            "phi+,phi-",
            "--client",
            "random",
            "--seed",
            "11",
        ]
        code1, out1, _ = run_cli(capsys, *argv)
        code2, out2, _ = run_cli(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_env_seed_default(self, capsys, monkeypatch):
        monkeypatch.setenv("CROSSBELL_SEED", "41")
        code, payload = run_json(
            capsys, "teleport", "--channel", "psi+", "--client", "random"
        )
        assert code == 0
        assert payload["config"]["seed"] == 41

    @pytest.mark.parametrize(
        "seed_arg, env, source",
        [
            (["--seed", "-1"], None, "--seed"),
            ([], "abc", "CROSSBELL_SEED"),
            ([], "-3", "CROSSBELL_SEED"),
        ],
        ids=["negative-flag", "non-integer-env", "negative-env"],
    )
    def test_bad_seed_exits_2_naming_its_source(
        self, capsys, monkeypatch, seed_arg, env, source
    ):
        if env is not None:
            monkeypatch.setenv("CROSSBELL_SEED", env)
        code, out, err = run_cli(
            capsys, "teleport", "--channel", "psi+", "--client", "zero", *seed_arg
        )
        assert code == 2
        assert out == ""
        assert f"error: {source} must be an integer >= 0" in err

    def test_builds_no_per_leaf_report(self, capsys, monkeypatch):
        def refuse(*args):
            raise RuntimeError("CLI teleport built a TeleportReport")

        monkeypatch.setattr(teleport_module, "TeleportReport", refuse)
        for mode in (["--mode", "enumerate"], ["--mode", "sample", "--trials", "50"]):
            code, _, err = run_cli(
                capsys, "teleport", "--channel", "phi+,psi-", "--seed", "3", *mode
            )
            assert code == 0, err

        built = []
        post_init = PureState.__post_init__

        def counting(state):
            built.append(state.qubits)
            post_init(state)

        monkeypatch.setattr(PureState, "__post_init__", counting)
        code, payload = run_json(
            capsys, "teleport", "--channel", "phi+,psi-,phi-", "--seed", "3"
        )
        assert code == 0 and len(payload["branches"]) == 4**3
        assert 0 < len(built) < 4**3

    @pytest.mark.parametrize("mode", ["enumerate", "sample"])
    def test_run_is_released_before_the_records_are_written(
        self, capsys, monkeypatch, mode
    ):
        # keeping the run's blocks of Bob's states while formatting raised the
        # whole-process peak of an n = 7 enumerate by 8 MiB
        runs, alive = [], []
        real_run, table_pieces = cli_module.run_protocol, cli_module._table_pieces

        def keeping(*args):
            reports = real_run(*args)
            runs.append(weakref.ref(reports))
            return reports

        def checking(*args):
            alive.append([run() is not None for run in runs])
            return table_pieces(*args)

        monkeypatch.setattr(cli_module, "run_protocol", keeping)
        monkeypatch.setattr(cli_module, "_table_pieces", checking)
        code, _, err = run_cli(
            capsys, "teleport", "--channel", "phi+,psi-,phi-", "--seed", "3",
            "--mode", mode, "--trials", "40",
        )
        assert code == 0, err
        assert alive == [[False]]

    @pytest.mark.parametrize(
        "channel, trials",
        [
            ("psi+", None),
            ("phi+,phi-", None),
            ("phi-,psi+,phi+", None),
            ("psi-,phi+,phi-,psi+", None),
            ("psi-", 1),
            ("phi+,psi-", 2),
            ("phi-,psi+", 300),
            ("psi+,phi-,psi-", 200),
        ],
    )
    def test_stdout_equals_the_payload_built_from_reports(
        self, capsys, channel, trials
    ):
        kinds, seed = parse_channel(channel), 13
        n = len(kinds)
        mode = "enumerate" if trials is None else "sample"
        argv = ["teleport", "--channel", channel, "--seed", str(seed), "--mode", mode]
        client = _resolve_client("random", ProtocolLayout(n).client_ids, seed)
        if trials is None:
            reports = run_protocol(kinds, client)
        else:
            argv += ["--trials", str(trials)]
            trial_rng = np.random.default_rng(np.random.SeedSequence([seed, 0x71A1]))
            reports = [
                run_protocol(
                    kinds, client, mode="sample", seed=int(trial_rng.integers(2**63))
                )[0]
                for _ in range(trials)
            ]
        payload = {
            "tool_version": __version__,
            "schema_version": 1,
            "command": "teleport",
            "config": {
                "n": n,
                "channel": [k.token for k in kinds],
                "client": "random",
                "mode": mode,
                "trials": trials,
                "seed": seed,
            },
            "branches": [
                {
                    "outcome": [k.token for k in r.outcome],
                    "probability": r.probability,
                    "fidelity": r.fidelity_vs_client,
                }
                for r in reports
            ],
            "aggregate": {
                "min_fidelity": min(r.fidelity_vs_client for r in reports),
                "max_prob_deviation": max(
                    abs(r.probability - 4.0**-n) for r in reports
                ),
            },
        }
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out == json.dumps(payload, indent=2) + "\n"

    # where repr switches between fixed and exponent notation, the extremes
    # (the least subnormal, the largest double below 1), and a negative zero
    FLOATS = [5e-324, 1e-300, 2.5e-5, 1e-4, 0.1 + 0.2, 1 - 2**-53, 1.0, 1e16, -0.0]
    # orders of 1, 8 and 9 of the 9 entries: a branch order repeats a leaf,
    # as two trials that reach it do; a dict's keys are distinct
    ORDERS = {
        "branches": {1: [5], 8: list(range(8))[::-1], 9: list(range(8)) + [0]},
        "coefficients": {1: [8], 8: list(range(1, 9)), 9: list(range(9))[::-1]},
    }

    @pytest.mark.parametrize("length", [1, 8, 9], ids=["one", "block", "block+1"])
    def test_record_template_writes_what_json_writes(self, monkeypatch, length):
        monkeypatch.setattr(cli_module, "_ENTRIES_PER_WRITE", 8)
        firsts, seconds = self.FLOATS, self.FLOATS[::-1]
        envelope = {"command": "teleport", "aggregate": {"x": 0.1}}

        def check(key, container, texts, entries):
            # texts[i] is what json writes for entries[i], an item of a list
            # or a (key, value) item of a dict
            order = self.ORDERS[key][length]
            pieces = list(cli_module._table_pieces(
                dict(envelope, **{key: container()}), key,
                np.array(texts, dtype=object), order,
            ))
            expected = dict(envelope, **{key: container(entries[i] for i in order)})
            assert "".join(pieces) == json.dumps(expected, indent=2) + "\n"
            # one piece per block of entries, then the envelope's tail
            assert len(pieces) == -(-length // 8) + 1

        for depth in (1, 2, 3):
            # leaf i's codes are i, i + 1, ... mod 4, so every code appears
            outcomes = (np.arange(9)[:, None] + np.arange(depth)) % 4
            check("branches", list, [
                cli_module._RECORD % (
                    ",\n        ".join(cli_module._QUOTED[codes]),
                    float.__repr__(p), float.__repr__(f),
                )
                for codes, p, f in zip(outcomes, firsts, seconds)
            ], [
                {"outcome": [KIND_ORDER[c].token for c in codes], "probability": p,
                 "fidelity": f}
                for codes, p, f in zip(outcomes.tolist(), firsts, seconds)
            ])
        # expand's coefficients: a dict placeholder, keyed by joined tokens
        keys = [",".join(k.token for k in kinds) for kinds in kind_tuples(2)][:9]
        check("coefficients", dict, [
            cli_module._COEFFICIENT % (
                encode_basestring_ascii(key), float.__repr__(re), float.__repr__(im)
            )
            for key, re, im in zip(keys, firsts, seconds)
        ], [(key, [re, im]) for key, re, im in zip(keys, firsts, seconds)])


class TestPinnedValues:
    @pytest.mark.parametrize("client, n", sorted(_PRESET_DIGESTS))
    def test_preset_enumeration(self, tmp_path, client, n):
        offset = {"ghz": 0, "uniform": 1}[client]
        channel = ",".join(_CHANNELS[offset : offset + n])
        path = tmp_path / "run.json"
        argv = ["teleport", "--channel", channel, "--client", client, "--seed", "7"]
        assert main(argv + ["--out", str(path)]) == 0
        assert_pinned(path, _PRESET_DIGESTS[client, n])

    def test_file_client_enumeration(self, tmp_path):
        state = tmp_path / "client.state"
        state.write_text(_PINNED_CLIENT)
        path = tmp_path / "run.json"
        assert main([
            "teleport", "--channel", "psi+,phi-,psi-", "--client", f"file:{state}",
            "--seed", "7", "--out", str(path),
        ]) == 0
        assert_pinned(path, _FILE_CLIENT_DIGESTS)

    def test_thousand_sampled_trials(self, tmp_path):
        path = tmp_path / "run.json"
        assert main([
            "teleport", "--channel", "phi-,psi+,phi+", "--mode", "sample",
            "--trials", "1000", "--seed", "7", "--out", str(path),
        ]) == 0
        assert_pinned(path, _SAMPLED_DIGESTS)

    def test_no_fidelity_exceeds_one(self, tmp_path):
        # this run's client has a squared norm of 1 + 4e-16, and every one of
        # its recovered fidelities rounded to 1.0000000000000004..9 unclipped
        path = tmp_path / "run.json"
        assert main([
            "teleport", "--channel", "phi-,psi+,phi+", "--mode", "sample",
            "--trials", "1000", "--seed", "7", "--out", str(path),
        ]) == 0
        payload = json.loads(path.read_text())
        fidelities = [branch["fidelity"] for branch in payload["branches"]]
        assert len(fidelities) == 1000
        assert max(fidelities) <= 1.0
        assert 1 - 1e-12 <= payload["aggregate"]["min_fidelity"] <= 1.0

    @pytest.mark.parametrize("source, n_pairs", sorted(_EXPAND_DIGESTS))
    def test_expand_coefficients(self, capsys, tmp_path, source, n_pairs):
        # qubit q pairs with q + n_pairs, so the pairs interleave
        pairs = [(q, q + n_pairs) for q in range(1, n_pairs + 1)]
        if source == "random":
            # normalized with a float-view einsum, not np.linalg.norm: a BLAS
            # norm of 2**14 amplitudes rounds differently with the pool size
            ids = tuple(range(1, 2 * n_pairs + 1))
            rng = np.random.default_rng(n_pairs)
            amps = rng.normal(size=2 ** len(ids)) + 1j * rng.normal(size=2 ** len(ids))
            flat = amps.view(np.float64)
            state = PureState(ids, amps / np.sqrt(np.einsum("i,i->", flat, flat)))
        else:
            kinds = (BellKind.PSI_MINUS, BellKind.PHI_MINUS, BellKind.PSI_PLUS)
            state = cross_bell_state(kinds, pairs)
        path = tmp_path / "state.txt"
        with open(path, "w") as fp:
            save_state(state, fp)
        spec = ",".join(f"{a}:{b}" for a, b in pairs)
        code, out, err = run_cli(
            capsys, "expand", "--state", str(path), "--pairs", spec
        )
        assert code == 0, err
        assert coefficient_digest(out) == _EXPAND_DIGESTS[source, n_pairs]

    @pytest.mark.parametrize("argv", sorted(_STDOUT_DIGESTS))
    def test_stdout_bytes(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == _STDOUT_DIGESTS[argv]


class TestPinsUnderOneBlasThread:
    def test_every_pin_holds(self):
        # this run covers the default BLAS pool; a child reruns every pin with
        # a pool of one
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             f"{Path(__file__).resolve()}::TestPinnedValues"],
            cwd=Path(__file__).resolve().parents[1],
            env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
            capture_output=True, text=True, timeout=300,
        )
        assert result.returncode == 0, result.stdout[-3000:]


class TestVersion:
    def test_pyproject_version_equals_the_package_version(self):
        # read by pattern: tomllib is not in the standard library before 3.11
        text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        project = text.split("[project]", 1)[1].split("\n[", 1)[0]
        versions = re.findall(r'^version\s*=\s*"([^"]+)"', project, re.MULTILINE)
        assert versions == [__version__]


class TestParser:
    def test_is_built_once_and_behaves_as_before_after_reuse(
        self, capsys, monkeypatch
    ):
        # each build adds the sub-command parsers once
        builds = []
        add_subparsers = argparse.ArgumentParser.add_subparsers

        def counted(parser, **kwargs):
            builds.append(parser.prog)
            return add_subparsers(parser, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers", counted)
        cli_module.build_parser.cache_clear()
        for seed in ("1", "2", "3"):
            code, payload = run_json(
                capsys, "teleport", "--channel", "phi+", "--seed", seed
            )
            assert code == 0 and payload["config"]["seed"] == int(seed)
        assert builds == ["crossbell"]
        with pytest.raises(SystemExit) as version:
            main(["--version"])
        assert version.value.code == 0
        assert capsys.readouterr().out == f"{__version__}\n"
        with pytest.raises(SystemExit) as bad_mode:
            main(["teleport", "--channel", "phi+", "--mode", "both"])
        assert bad_mode.value.code == 2
        assert "invalid choice: 'both'" in capsys.readouterr().err
        code, out, err = run_cli(capsys, "teleport", "--channel", "phi+,xx")
        assert code == 2 and out == ""
        assert err.startswith("error: unknown Bell kind 'xx'")
        assert builds == ["crossbell"]


class TestVerifyCommand:
    def test_text_report_matches_golden(self, capsys):
        # stdout is the golden's entries and summary, rendered, byte for byte
        from crossbell.oracle import DivergenceEntry, DivergenceReport, load_golden

        golden = load_golden()
        expected = DivergenceReport([DivergenceEntry(**e) for e in golden["entries"]])
        # the golden stores keys sorted; the text prints them in the order the
        # audit computes them, and each verdict count in first-entry order
        flips = golden["summary"]["eq6_flip_consistent_lines"]
        expected.summary = {
            "eq6_flip_consistent_lines": flips,
            **{
                f"{eq}_verdicts": expected.verdict_counts(f"{eq}.")
                for eq in ("eq6", "eq7", "eq4")
            },
            "systematic": golden["summary"]["systematic"],
        }
        assert expected.summary == golden["summary"]
        code, out, _ = run_cli(capsys, "verify")
        assert code == 0
        assert out == expected.to_text() + "\nmatches_golden: True\n"

    def test_json_report(self, capsys):
        code, payload = run_json(capsys, "verify", "--format", "json")
        assert code == 0
        assert payload["matches_golden"] is True
        assert len(payload["report"]["entries"]) == 30

    def test_tampered_golden_exits_1(self, capsys, tmp_path):
        from crossbell.oracle import load_golden

        golden = load_golden()
        golden["entries"][0]["verdict"] = "match"
        path = tmp_path / "tampered.json"
        path.write_text(json.dumps(golden))
        code, _, _ = run_cli(capsys, "verify", "--golden", str(path))
        assert code == 1


class TestBasisCommand:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_orthonormal(self, capsys, n):
        code, payload = run_json(capsys, "basis", "--n", str(n))
        assert code == 0
        assert payload["states"] == 4**n
        assert payload["max_deviation"] < 1e-12

    def test_rejects_oversized(self, capsys):
        code, _, err = run_cli(capsys, "basis", "--n", "6")
        assert code == 2


class TestExpandCommand:
    def test_basis_element_delta(self, capsys, tmp_path):
        kinds = (BellKind.PHI_PLUS, BellKind.PSI_MINUS)
        state = cross_bell_state(kinds, [(1, 3), (2, 4)])
        path = tmp_path / "state.txt"
        with open(path, "w") as fp:
            save_state(state, fp)
        code, payload = run_json(
            capsys, "expand", "--state", str(path), "--pairs", "1:3,2:4"
        )
        assert code == 0
        coefficients = payload["coefficients"]
        assert coefficients["phi+,psi-"] == [pytest.approx(1.0, abs=1e-12), 0.0]
        total = sum(re**2 + im**2 for re, im in coefficients.values())
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_largest_advertised_pair_count_expands(self, capsys, tmp_path, rng):
        path = tmp_path / "state.txt"
        ids = tuple(range(1, 2 * MAX_PARTIES + 1))
        with open(path, "w") as fp:
            save_state(random_state(ids, rng), fp)
        pairs = ",".join(f"{q}:{q + 1}" for q in ids[::2])
        code, payload = run_json(
            capsys, "expand", "--state", str(path), "--pairs", pairs
        )
        assert code == 0
        coefficients = payload["coefficients"]
        assert len(coefficients) == 4**MAX_PARTIES == 16384
        total = sum(re**2 + im**2 for re, im in coefficients.values())
        assert total == pytest.approx(1.0, abs=1e-12)

    @staticmethod
    def indented_dump(path, spec):
        """``json.dumps(payload, indent=2) + "\n"`` of the payload expand
        reports for the state file ``path`` on pairs ``spec``."""
        with open(path) as fp:
            state = load_state(fp)
        pairs = [tuple(map(int, p.split(":"))) for p in spec.split(",")]
        payload = {
            "tool_version": __version__,
            "schema_version": 1,
            "command": "expand",
            "config": {"state": str(path), "pairs": spec},
            "coefficients": {
                ",".join(k.token for k in kinds): [c.real, c.imag]
                for kinds, c in expand_in_cross_bell(state, pairs).items()
            },
        }
        return json.dumps(payload, indent=2) + "\n"

    @pytest.mark.parametrize("n_pairs", [1, 3, 7])
    def test_stdout_is_the_indented_dump_of_token_keyed_coefficients(
        self, capsys, tmp_path, rng, n_pairs
    ):
        ids = tuple(range(1, 2 * n_pairs + 1))
        path = tmp_path / "state.txt"
        with open(path, "w") as fp:
            save_state(random_state(ids, rng), fp)
        spec = ",".join(f"{q}:{q + 1}" for q in ids[::2])
        code, out, err = run_cli(
            capsys, "expand", "--state", str(path), "--pairs", spec
        )
        assert code == 0, err
        # compared line by line: a failing diff of the whole text is slow
        assert out.split("\n") == self.indented_dump(path, spec).split("\n")

    def test_negative_and_exact_zeros_write_as_json_writes_them(
        self, capsys, tmp_path
    ):
        path = tmp_path / "zeros.state"
        path.write_text(
            "crossbell-state v1\nqubits 1 2\n-0.0 -0.0\n0.6 -0.0\n-0.8 -0.0\n"
            "-0.0 -0.0\n"
        )
        code, out, err = run_cli(
            capsys, "expand", "--state", str(path), "--pairs", "1:2"
        )
        assert code == 0, err
        assert out == self.indented_dump(path, "1:2")
        assert len(re.findall(r"^ +-0\.0,?$", out, re.M)) == 3
        assert len(re.findall(r"^ +0\.0,?$", out, re.M)) == 3

    def test_one_pair_over_the_limit_exits_2_before_the_state_is_read(
        self, capsys, tmp_path
    ):
        ids = range(1, 2 * MAX_PARTIES + 3)
        pairs = ",".join(f"{q}:{q + 1}" for q in ids[::2])
        missing = tmp_path / "missing.state"
        code, out, err = run_cli(
            capsys, "expand", "--state", str(missing), "--pairs", pairs
        )
        assert code == 2 and out == ""
        assert err == "error: expand takes at most 7 pairs\n"

    @pytest.mark.parametrize(
        "ids, pairs",
        [((1, 2, 3), "1:1,2:3"), ((1, 2, 3), "1:2,2:3"), ((1, 2, 3, 4), "1:2,1:2")],
        ids=["qubit-named-twice", "overlapping", "repeated-pair"],
    )
    def test_malformed_pairs_exit_2_naming_them(
        self, capsys, tmp_path, rng, ids, pairs
    ):
        path = tmp_path / "state.txt"
        with open(path, "w") as fp:
            save_state(random_state(ids, rng), fp)
        code, out, err = run_cli(
            capsys, "expand", "--state", str(path), "--pairs", pairs
        )
        assert code == 2 and out == ""
        named = [tuple(map(int, p.split(":"))) for p in pairs.split(",")]
        assert err == (
            f"error: state over {list(ids)} does not live on pairs {named}\n"
        )


    @pytest.mark.parametrize(
        "pairs, chunk",
        [("1-2", "1-2"), ("1:3:5", "1:3:5"), ("a:b", "a:b"), ("1:3,2:4x", "2:4x"),
         ("1:3,", ""), (":3", ":3")],
        ids=["no-colon", "two-colons", "not-numbers", "trailing-letter", "empty",
             "no-left-id"],
    )
    def test_bad_pairs_syntax(self, capsys, tmp_path, rng, pairs, chunk):
        path = tmp_path / "state.txt"
        with open(path, "w") as fp:
            save_state(random_state((1, 2, 3, 4), rng), fp)
        code, out, err = run_cli(
            capsys, "expand", "--state", str(path), "--pairs", pairs
        )
        assert code == 2 and out == ""
        assert err == f"error: bad pair {chunk!r}; expected 'a:b'\n"

    def test_spaces_around_ids_are_accepted(self, capsys, tmp_path, rng):
        path = tmp_path / "state.txt"
        with open(path, "w") as fp:
            save_state(random_state((1, 2, 3, 4), rng), fp)
        spaced = run_json(
            capsys, "expand", "--state", str(path), "--pairs", " 1 : 3, 2:4 "
        )
        plain = run_json(capsys, "expand", "--state", str(path), "--pairs", "1:3,2:4")
        assert spaced[0] == plain[0] == 0
        assert spaced[1]["coefficients"] == plain[1]["coefficients"]

    def test_largest_pair_count_peaks_within_a_third_of_one_pair(
        self, tmp_path, rng
    ):
        # the coefficients go out as text, with no dict of 4**n lists to dump
        def peak_rss(n_pairs):
            ids = tuple(range(1, 2 * n_pairs + 1))
            path = tmp_path / f"{n_pairs}.state"
            with open(path, "w") as fp:
                save_state(random_state(ids, rng), fp)
            pairs = ",".join(f"{q}:{q + 1}" for q in ids[::2])
            return cli_peak_rss("expand", "--state", str(path), "--pairs", pairs)

        assert peak_rss(MAX_PARTIES) <= 1.35 * peak_rss(1)

class TestOutFile:
    @pytest.mark.parametrize(
        "argv",
        [
            ["teleport", "--channel", "psi+", "--seed", "5"],
            ["verify"],
            ["verify", "--format", "json"],
            ["basis", "--n", "2"],
            ["expand", "--state", "{state}", "--pairs", "1:2"],
        ],
        ids=["teleport", "verify-text", "verify-json", "basis", "expand"],
    )
    def test_out_file(self, capsys, tmp_path, rng, argv):
        state = tmp_path / "pair.state"
        with open(state, "w") as fp:
            save_state(random_state((1, 2), rng), fp)
        argv = [arg.format(state=state) for arg in argv]
        code, out, _ = run_cli(capsys, *argv)
        path = tmp_path / "report.out"
        code_to_file, quiet, _ = run_cli(capsys, *argv, "--out", str(path))
        assert code == code_to_file == 0
        assert quiet == ""
        assert path.read_bytes() == out.encode()
        if argv[0] == "verify" and "json" not in argv:
            assert out.endswith("\nmatches_golden: True\n")
        else:
            assert json.loads(out)["command"] == argv[0]
