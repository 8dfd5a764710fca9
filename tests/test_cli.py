from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import crossbell
import crossbell.cli as cli_module
import crossbell.teleport as teleport_module
from crossbell import __version__
from crossbell.bell import BellKind, cross_bell_state, parse_channel
from crossbell.cli import MAX_PARTIES, _resolve_client, main
from crossbell.statevec import PureState, load_state, save_state
from crossbell.teleport import ProtocolLayout, run_protocol
from conftest import random_state


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert out, f"no stdout; stderr: {err}"
    return code, json.loads(out)


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

    # where repr switches between fixed and exponent notation, and the
    # extremes: the least subnormal, the largest double below 1
    FLOATS = [5e-324, 1e-300, 2.5e-5, 1e-4, 0.1 + 0.2, 1 - 2**-53, 1.0, 1e16]

    @pytest.mark.parametrize("length", [1, 8, 9], ids=["one", "block", "block+1"])
    def test_record_template_writes_what_json_writes(self, monkeypatch, length):
        monkeypatch.setattr(cli_module, "_TRIALS_PER_WRITE", 8)
        tokens = ["phi+", "psi-", "psi+"]
        records = [
            {"outcome": tokens[: 1 + i % 3], "probability": p, "fidelity": f}
            for i, (p, f) in enumerate(zip(self.FLOATS, self.FLOATS[::-1]))
        ]
        order = {1: [5], 8: list(range(8))[::-1], 9: list(range(8)) + [0]}[length]
        payload = {"command": "teleport", "branches": None, "aggregate": {"x": 0.1}}
        pieces = list(cli_module._branch_pieces(payload, records, order))
        expected = dict(payload, branches=[records[i] for i in order])
        assert "".join(pieces) == json.dumps(expected, indent=2) + "\n"
        # one piece per block of trials, then the envelope's tail
        assert len(pieces) == -(-length // 8) + 1


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

    def test_bad_pairs_syntax(self, capsys, tmp_path, rng):
        path = tmp_path / "state.txt"
        with open(path, "w") as fp:
            save_state(random_state((1, 2), rng), fp)
        code, _, err = run_cli(
            capsys, "expand", "--state", str(path), "--pairs", "1-2"
        )
        assert code == 2


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
