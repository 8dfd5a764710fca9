"""The tracer sees calls made through by-name imports, counts exactly, and
leaves the program as it found it."""
import numpy as np

import crossbell
import crossbell.cli
import crossbell.measure
import crossbell.teleport
from tracer import IDLE_OP, SETUP_OP, Tracer, summarize


def _inputs(n):
    rng = np.random.default_rng(2)
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    client = crossbell.PureState(tuple(range(2 * n + 1, 3 * n + 1)), amps / np.linalg.norm(amps))
    return crossbell.parse_channel(",".join(["phi+", "phi-", "psi+"][:n])), client


def test_install_patches_by_name_imports_and_uninstall_restores():
    original = crossbell.measure.bell_collapse
    assert crossbell.teleport.bell_collapse is original
    tracer = Tracer()
    tracer.install()
    try:
        assert crossbell.teleport.bell_collapse is not original
        assert crossbell.measure.bell_collapse is crossbell.teleport.bell_collapse
        assert crossbell.bell_collapse is crossbell.teleport.bell_collapse
    finally:
        tracer.uninstall()
    assert crossbell.teleport.bell_collapse is original
    assert crossbell.measure.bell_collapse is original
    assert "__post_init__" in crossbell.PureState.__dict__
    assert crossbell.PureState.__post_init__.__qualname__ == "PureState.__post_init__"


def test_counts_repeat_exactly_and_self_time_is_bounded():
    kinds, client = _inputs(2)
    crossbell.run_protocol(kinds, client)  # derive the corrections outside the counted ops
    tracer = Tracer()
    tracer.install()
    try:
        for op in range(3):
            tracer.op = op
            crossbell.run_protocol(kinds, client)
            tracer.op = IDLE_OP
    finally:
        tracer.uninstall()
    per_op = [summarize(tracer.spans, {op}) for op in range(3)]
    for summary in per_op:
        # 16 branches, two Bell collapses each, one projection per collapse
        assert summary["measure.project_onto_bell"]["count"] == 32
        assert summary["measure.bell_collapse"]["count"] == 32
        assert summary["teleport.run_protocol"]["count"] == 1
        assert "oracle.transfer_matrix" not in summary
    assert [s["statevec.PureState"]["count"] for s in per_op] == [per_op[0]["statevec.PureState"]["count"]] * 3
    durations = {sid: end - start for sid, _, start, end, _, _ in tracer.spans}
    (root,) = [s for s in tracer.spans if s[1] == "teleport.run_protocol" and s[5] == 0]
    total_self = sum(v["self_s"] for v in per_op[0].values())
    assert 0 < total_self <= durations[root[0]] * 1e-9 + 1e-9
    for summary in per_op:
        assert all(v["self_s"] >= 0 for v in summary.values())


def test_correction_table_counts_transfer_matrices():
    tracer = Tracer()
    tracer.install()
    try:
        crossbell.derive_correction_table(crossbell.parse_channel("psi-,phi+,phi-"))
    finally:
        tracer.uninstall()
    summary = summarize(tracer.spans, {SETUP_OP})
    # one baseline, 3 per slot, then every one of the 4^n outcomes
    assert summary["oracle.transfer_matrix"]["count"] == 1 + 3 * 3 + 4**3
    assert summary["oracle.derive_correction_table"]["count"] == 1


def test_session_spans_on_alices_thread_hang_from_the_session():
    kinds, client = _inputs(2)
    crossbell.run_session(kinds, client, seed=1)  # derive the corrections outside the counted ops
    tracer = Tracer()
    tracer.install()
    try:
        for op in range(3):
            tracer.op = op
            crossbell.run_session(kinds, client, seed=op)
            tracer.op = IDLE_OP
    finally:
        tracer.uninstall()
    by_id = {s[0]: s for s in tracer.spans}
    for op in range(3):
        spans = [s for s in tracer.spans if s[5] == op]
        (root,) = [s for s in spans if s[1] == "teleport.run_session"]
        assert any(s[1] == "teleport.total_state" for s in spans)  # Alice's work
        for span in spans:
            while span[4] is not None:
                span = by_id[span[4]]
            assert span == root
        summary = summarize(tracer.spans, {op})
        total_self = sum(v["self_s"] for v in summary.values())
        assert total_self <= (root[3] - root[2]) * 1e-9 + 1e-9
