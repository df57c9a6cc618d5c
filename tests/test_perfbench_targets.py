"""The benchmark's traced run wraps tart functions by module attribute.

Installing its tracer looks up every wrapped name, so a rename or deletion
of one of them fails here, in the main suite, and not only in the
benchmark's own self-test.
"""
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_patch_targets_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    originals = [getattr(mod, attr) for mod, attr, _ in tracing.PLAIN_SPANS]
    with tracing.Tracer().installed():
        for (mod, attr, _), original in zip(tracing.PLAIN_SPANS, originals):
            assert getattr(mod, attr) is not original
    assert [getattr(mod, attr) for mod, attr, _ in tracing.PLAIN_SPANS] == originals
