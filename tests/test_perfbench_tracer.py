"""The benchmark's tracer wraps library methods by name; a renamed or
deleted method silently drops out of its per-layer metrics. This pins the
names it cannot find."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_finds_every_target_but_the_retired_methods(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    assert Path(spans.__file__).parent == PERFBENCH
    tracer = spans.Tracer()
    tracer.install()
    try:
        # the delta methods went with the chunked storage, prune_blocks
        # with the fused probe (ColumnTable.probe)
        assert tracer.missing == ["ColumnTable.scan_delta",
                                  "ColumnTable.prune_blocks",
                                  "ColumnTable.merge_delta"]
    finally:
        tracer.uninstall()
