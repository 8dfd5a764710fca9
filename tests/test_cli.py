from __future__ import annotations

import json
import time

import numpy as np
import pytest

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


class TestVerifyCommand:
    def test_text_report_matches_golden(self, capsys):
        code, out, _ = run_cli(capsys, "verify")
        assert code == 0
        assert "matches_golden: True" in out
        assert "eq6.line16" in out

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
