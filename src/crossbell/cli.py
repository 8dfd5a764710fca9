"""Command-line front end: teleportation runs, basis checks, table audits,
and state expansion, all emitting versioned JSON reports.

The default seed comes from the CROSSBELL_SEED environment variable (0 if
unset); every report echoes the resolved configuration so a run can be
reproduced from its output alone.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from json.encoder import encode_basestring_ascii
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import __version__
from .bell import KIND_ORDER, cross_bell_basis, expand_in_cross_bell, parse_channel
from .oracle import load_golden, matches_golden, verify_paper_tables
from .statevec import (
    CHAIN_TOL, EXACT_TOL, PureState, StateError, canonicalize, load_state
)
from .teleport import ProtocolLayout, _correct, _walk

SCHEMA_VERSION = 1
MAX_PARTIES = 7
MAX_BASIS_PARTIES = 5

_PRESETS = ("zero", "ghz", "uniform")


def _resolve_seed(flag: int | None) -> int:
    """``--seed`` if given, else CROSSBELL_SEED, else 0; an integer >= 0."""
    if flag is not None:
        source, text = "--seed", flag
    else:
        source, text = "CROSSBELL_SEED", os.environ.get("CROSSBELL_SEED", "0")
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise ValueError(f"{source} must be an integer >= 0, got {text!r}")
    return seed


def _emit(payload: dict | str | Iterable[str], out: str | None) -> None:
    """Write a JSON payload, finished text, or text in pieces to ``out`` or
    else to stdout; both get the same bytes."""
    if isinstance(payload, dict):
        payload = json.dumps(payload, indent=2) + "\n"
    pieces = [payload] if isinstance(payload, str) else payload
    if out:
        with open(out, "w") as fp:
            fp.writelines(pieces)
    else:
        sys.stdout.writelines(pieces)


# Trials whose record texts go out joined as one write.
_TRIALS_PER_WRITE = 256

# One branch record at its depth in json.dumps(payload, indent=2).
_RECORD = (
    '\n    {\n      "outcome": [\n        %s\n      ],\n'
    '      "probability": %s,\n      "fidelity": %s\n    }'
)


def _branch_pieces(
    payload: dict, records: list[dict], order: Sequence[int]
) -> Iterator[str]:
    """``json.dumps(payload, indent=2) + "\n"`` with the placeholder
    ``payload["branches"] = None`` read as ``[records[i] for i in order]``, in
    pieces of up to ``_TRIALS_PER_WRITE`` records. ``order`` is not empty.

    Each record (its keys ``outcome``, ``probability``, ``fidelity``, in that
    order) is formatted once with the ``_RECORD`` template, from the texts
    json itself writes: ``encode_basestring_ascii`` for a token and
    ``float.__repr__`` for a finite float.
    """
    # string values escape their quotes, so only the key itself matches
    head, _, tail = json.dumps(payload, indent=2).partition('"branches": null')
    texts = [
        _RECORD % (
            ",\n        ".join(map(encode_basestring_ascii, r["outcome"])),
            float.__repr__(r["probability"]),
            float.__repr__(r["fidelity"]),
        )
        for r in records
    ]
    sep = head + '"branches": ['
    for start in range(0, len(order), _TRIALS_PER_WRITE):
        block = order[start : start + _TRIALS_PER_WRITE]
        yield sep + ",".join(map(texts.__getitem__, block))
        sep = ","
    yield "\n  ]" + tail + "\n"


def _envelope(command: str, config: dict) -> dict:
    return {
        "tool_version": __version__,
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": config,
    }


def _resolve_client(spec: str, ids: Sequence[int], seed: int) -> PureState:
    """Client source: 'random', 'file:PATH', or a preset name."""
    dim = 2 ** len(ids)
    if spec == "random":
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0xC11E]))
        amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        return PureState.renormalized(tuple(ids), amps)
    if spec.startswith("file:"):
        path = spec[len("file:") :]
        with open(path) as fp:
            state = load_state(fp)
        if state.n_qubits != len(ids):
            raise ValueError(
                f"client file holds {state.n_qubits} qubits, protocol needs "
                f"{len(ids)}"
            )
        # the file's ids map onto ``ids`` in ascending order, however it lists them
        return PureState(tuple(ids), canonicalize(state).amps)
    if spec in _PRESETS:
        amps = np.zeros(dim, dtype=complex)
        if spec == "zero":
            amps[0] = 1.0
        elif spec == "ghz":
            amps[0] = amps[-1] = 1.0 / np.sqrt(2.0)
        else:
            amps[:] = 1.0 / np.sqrt(dim)
        return PureState(tuple(ids), amps)
    raise ValueError(
        f"bad client source {spec!r}: use random, file:PATH, or one of {_PRESETS}"
    )


def cmd_teleport(args: argparse.Namespace) -> int:
    kinds = parse_channel(args.channel)
    n = args.n if args.n is not None else len(kinds)
    if n != len(kinds):
        raise ValueError(f"--n {n} disagrees with {len(kinds)} channel kinds")
    if not 1 <= n <= MAX_PARTIES:
        raise ValueError(f"n must be in 1..{MAX_PARTIES}, got {n}")
    if args.trials < 1:
        raise ValueError("--trials must be positive")
    seed = _resolve_seed(args.seed)
    layout = ProtocolLayout(n)
    client = _resolve_client(args.client, layout.client_ids, seed)

    seeds = None
    if args.mode == "sample":
        # trial t equals run_protocol(..., mode="sample", seed=<t-th draw>)
        trial_rng = np.random.default_rng(np.random.SeedSequence([seed, 0x71A1]))
        seeds = trial_rng.integers(2**63, size=args.trials)
    walk = _walk(kinds, client, seeds)
    # one record per distinct leaf; Bob's corrected rows are not kept
    fidelities = _correct(kinds, walk, client.amps)[1]
    tokens = [k.token for k in KIND_ORDER]  # indexed by outcome code
    records = [
        {"outcome": [tokens[c] for c in codes], "probability": p, "fidelity": f}
        for codes, p, f in zip(walk.outcomes, walk.probabilities, fidelities)
    ]
    min_fidelity = min(fidelities)
    payload = _envelope(
        "teleport",
        {
            "n": n,
            "channel": [k.token for k in kinds],
            "client": args.client,
            "mode": args.mode,
            "trials": args.trials if args.mode == "sample" else None,
            "seed": seed,
        },
    )
    payload["branches"] = None  # streamed by _branch_pieces
    payload["aggregate"] = {
        "min_fidelity": min_fidelity,
        "max_prob_deviation": max(abs(p - 4.0**-n) for p in walk.probabilities),
    }
    order = walk.trial_leaf if walk.trial_leaf is not None else range(len(records))
    _emit(_branch_pieces(payload, records, order), args.out)
    return 0 if min_fidelity >= 1.0 - CHAIN_TOL else 1


def cmd_verify(args: argparse.Namespace) -> int:
    report = verify_paper_tables()
    if args.golden:
        with open(args.golden) as fp:
            golden = json.load(fp)
    else:
        golden = load_golden()
    ok = matches_golden(report, golden)
    if args.format == "json":
        payload = _envelope("verify", {"format": "json"})
        payload["report"] = report.to_json_dict()
        payload["matches_golden"] = ok
    else:
        payload = report.to_text() + f"\nmatches_golden: {ok}\n"
    _emit(payload, args.out)
    return 0 if ok else 1


def cmd_basis(args: argparse.Namespace) -> int:
    n = args.n
    if not 1 <= n <= MAX_BASIS_PARTIES:
        raise ValueError(f"basis check supports n in 1..{MAX_BASIS_PARTIES}")
    states = cross_bell_basis(ProtocolLayout(n).channel_pairs)
    stack = np.stack([s.amps for s in states])
    gram = stack.conj() @ stack.T
    deviation = float(np.max(np.abs(gram - np.eye(len(states)))))
    payload = _envelope("basis", {"n": n})
    payload["states"] = len(states)
    payload["max_deviation"] = deviation
    _emit(payload, args.out)
    return 0 if deviation < EXACT_TOL else 1


def _parse_pairs(text: str) -> list[tuple[int, int]]:
    pairs = []
    for chunk in text.split(","):
        left, sep, right = chunk.partition(":")
        if not sep:
            raise ValueError(f"bad pair {chunk!r}; expected 'a:b'")
        pairs.append((int(left), int(right)))
    return pairs


def cmd_expand(args: argparse.Namespace) -> int:
    with open(args.state) as fp:
        state = load_state(fp)
    pairs = _parse_pairs(args.pairs)
    coefficients = expand_in_cross_bell(state, pairs)
    payload = _envelope("expand", {"state": args.state, "pairs": args.pairs})
    payload["coefficients"] = {
        ",".join(k.token for k in kinds): [c.real, c.imag]
        for kinds, c in coefficients.items()
    }
    _emit(payload, args.out)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared after it:
    parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="crossbell",
        description="Cross-Bell teleportation simulator and table-audit oracle.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("teleport", help="run the teleportation protocol")
    p.add_argument("--n", type=int, default=None, help="number of client qubits")
    p.add_argument(
        "--channel",
        required=True,
        help="comma-separated channel kinds, e.g. phi+,phi-",
    )
    p.add_argument(
        "--client",
        default="random",
        help="client source: random, file:PATH, or preset (zero|ghz|uniform)",
    )
    p.add_argument("--mode", choices=("enumerate", "sample"), default="enumerate")
    p.add_argument("--trials", type=int, default=1, help="samples in sample mode")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None, help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_teleport)

    p = sub.add_parser("verify", help="audit the reference tables")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--golden", default=None, help="override golden verdict file")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("basis", help="orthonormality check of the cross-Bell basis")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("expand", help="expand a state file in a cross-Bell basis")
    p.add_argument("--state", required=True, help="state file path")
    p.add_argument("--pairs", required=True, help="pairs like 1:3,2:4")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_expand)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, StateError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
