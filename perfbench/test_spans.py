"""Checks the tracer's wrapping and self-time rule.

Run with ``python3 -m pytest perfbench/test_spans.py``.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import dephasim.cli  # noqa: E402
import dephasim.fit  # noqa: E402
import dephasim.montecarlo  # noqa: E402
from spans import Span, Tracer  # noqa: E402


def test_self_time_subtracts_the_union_of_overlapping_children():
    tracer = Tracer()
    tracer.spans = [
        Span(1, "parent", 0.0, 10.0, 0, 1),
        Span(2, "child", 1.0, 4.0, 1, 2),
        Span(3, "child", 3.0, 6.0, 1, 3),   # overlaps span 2 in another thread
        Span(4, "grandchild", 2.0, 3.0, 2, 2),
    ]
    summary = tracer.summary()
    assert summary["parent"]["self_s"] == 5.0          # 10 - |[1, 6]|
    assert summary["child"]["self_s"] == 5.0           # (3 - 1) + 3
    assert summary["child"]["total_s"] == 6.0
    assert summary["grandchild"]["calls"] == 1


def test_install_wraps_every_namespace_and_table_and_uninstall_restores():
    original = dephasim.fit.fit_fringe
    original_rabi = dephasim.fit.FITTERS["rabi"]
    tracer = Tracer()
    tracer.install()
    try:
        assert dephasim.fit.fit_fringe is not original
        assert dephasim.montecarlo.fit_fringe is dephasim.fit.fit_fringe
        assert dephasim.fit.FITTERS["rabi"] is not original_rabi
        assert dephasim.cli.main is not None
    finally:
        tracer.uninstall()
    assert dephasim.fit.fit_fringe is original
    assert dephasim.montecarlo.fit_fringe is original
    assert dephasim.fit.FITTERS["rabi"] is original_rabi


def test_worker_thread_spans_nest_under_the_open_main_span():
    import threading

    tracer = Tracer()
    outer = tracer.open("outer")
    worker = threading.Thread(target=lambda: tracer.close(tracer.open("inner")))
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    tracer.close(outer)
    inner = next(s for s in tracer.spans if s.name == "inner")
    assert inner.parent == outer.id
