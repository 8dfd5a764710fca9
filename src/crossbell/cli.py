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
from itertools import product
from json.encoder import encode_basestring_ascii
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import __version__
from .bell import KIND_ORDER, bell_state, cross_bell_coefficients, parse_channel
from .oracle import load_golden, matches_golden, verify_paper_tables
from .statevec import (
    CHAIN_TOL, EXACT_TOL, PureState, StateError, canonicalize, load_state
)
from .teleport import ProtocolLayout, run_protocol

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


# Table entries whose texts go out joined as one write.
_ENTRIES_PER_WRITE = 256

# A teleport branch record and an expand coefficient at their depth in
# json.dumps(payload, indent=2), and each outcome code's token as json writes it.
_RECORD = (
    '\n    {\n      "outcome": [\n        %s\n      ],\n'
    '      "probability": %s,\n      "fidelity": %s\n    }'
)
_COEFFICIENT = '\n    %s: [\n      %s,\n      %s\n    ]'
_QUOTED = np.array([encode_basestring_ascii(k.token) for k in KIND_ORDER], dtype=object)


def _table_pieces(
    payload: dict, key: str, texts: np.ndarray, order: Sequence[int]
) -> Iterator[str]:
    """``json.dumps(payload, indent=2) + "\n"`` with the empty list or dict
    ``payload[key]`` read as the entries ``texts[order]``, in pieces of up to
    ``_ENTRIES_PER_WRITE`` entries; ``order`` is not empty. Each text is made
    once by its command with a template above, from the texts json writes:
    ``encode_basestring_ascii`` for a string, ``float.__repr__`` for a float.
    """
    empty, field = json.dumps(payload[key]), json.dumps(key) + ": "
    # string values escape their quotes, so only the key itself matches
    head, _, tail = json.dumps(payload, indent=2).partition(field + empty)
    sep = head + field + empty[0]
    for start in range(0, len(order), _ENTRIES_PER_WRITE):
        yield sep + ",".join(texts[order[start : start + _ENTRIES_PER_WRITE]])
        sep = ","
    yield "\n  " + empty[1] + tail + "\n"


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
    client = _resolve_client(args.client, ProtocolLayout(n).client_ids, seed)

    seeds = None
    if args.mode == "sample":
        # trial t equals run_protocol(..., mode="sample", seed=<t-th draw>)
        trial_rng = np.random.default_rng(np.random.SeedSequence([seed, 0x71A1]))
        seeds = trial_rng.integers(2**63, size=args.trials)
    run = run_protocol(kinds, client, args.mode, seeds)
    outcomes, probs, fidelities = run.outcomes, run.probabilities, run.fidelities
    order = run.trial_leaf if run.trial_leaf is not None else range(len(outcomes))
    del run  # free its blocks of Bob's states before one record per leaf is made
    min_fidelity = float(fidelities.min())
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
    payload["branches"] = []  # streamed by _table_pieces
    payload["aggregate"] = {
        "min_fidelity": min_fidelity,
        "max_prob_deviation": float(np.abs(probs - 4.0**-n).max()),
    }
    records = np.array([
        _RECORD % (",\n        ".join(tokens), float.__repr__(p), float.__repr__(f))
        for tokens, p, f in zip(_QUOTED[outcomes].tolist(), probs.tolist(),
                                fidelities.tolist())
    ], dtype=object)
    _emit(_table_pieces(payload, "branches", records, order), args.out)
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
    # the paper's cross product of one Bell block per pair (j, n + j): a
    # left-fold kron lists the states in kind_tuples order over qubits
    # 1, n+1, 2, n+2, ...; one transpose puts the qubits in ascending order
    block = np.stack([bell_state(kind, (1, 2)).amps for kind in KIND_ORDER])
    axes = (0, *range(1, 2 * n, 2), *range(2, 2 * n + 1, 2))
    stack = functools.reduce(np.kron, [block] * n).reshape((4**n,) + (2, 2) * n)
    stack = stack.transpose(axes).reshape(4**n, -1)
    gram = stack.conj() @ stack.T
    deviation = float(np.max(np.abs(gram - np.eye(len(stack)))))
    payload = _envelope("basis", {"n": n})
    payload["states"] = len(stack)
    payload["max_deviation"] = deviation
    _emit(payload, args.out)
    return 0 if deviation < EXACT_TOL else 1


def _parse_pairs(text: str) -> list[tuple[int, int]]:
    pairs = []
    for chunk in text.split(","):
        try:  # int() strips spaces around an id
            left, right = map(int, chunk.split(":"))
        except ValueError:
            raise ValueError(f"bad pair {chunk!r}; expected 'a:b'") from None
        pairs.append((left, right))
    return pairs


def cmd_expand(args: argparse.Namespace) -> int:
    pairs = _parse_pairs(args.pairs)
    if len(pairs) > MAX_PARTIES:
        raise ValueError(f"expand takes at most {MAX_PARTIES} pairs")
    with open(args.state) as fp:
        state = load_state(fp)
    coefficients = cross_bell_coefficients(state, pairs).tolist()
    payload = _envelope("expand", {"state": args.state, "pairs": args.pairs})
    payload["coefficients"] = {}  # streamed by _table_pieces
    tokens = product([kind.token for kind in KIND_ORDER], repeat=len(pairs))
    texts = np.array([
        _COEFFICIENT % (encode_basestring_ascii(",".join(key)), float.__repr__(c.real),
                        float.__repr__(c.imag))
        for key, c in zip(tokens, coefficients)
    ], dtype=object)
    _emit(_table_pieces(payload, "coefficients", texts, range(len(texts))), args.out)
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
