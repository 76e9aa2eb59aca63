"""Tests of the benchmark's own code: span arithmetic and the generator.

    python3 -m pytest perfbench -q
"""

import threading
import types

import numpy as np
import pytest

import workloads
from tracing import Span, Tracer, covered_length, self_times


def _span(sid, parent, start, end, name="s"):
    return Span(id=sid, name=name, parent=parent, thread=0,
                start=start, end=end)


def test_covered_length_merges_overlaps_and_clips_to_the_parent():
    assert covered_length(0.0, 10.0, []) == 0.0
    assert covered_length(0.0, 10.0, [(1.0, 2.0), (4.0, 6.0)]) == 3.0
    # overlapping and nested intervals count once
    assert covered_length(0.0, 10.0, [(1.0, 5.0), (3.0, 7.0),
                                      (4.0, 4.5)]) == 6.0
    # parts outside [lo, hi] are clipped, empty intervals ignored
    assert covered_length(2.0, 8.0, [(0.0, 3.0), (7.0, 12.0),
                                     (5.0, 5.0)]) == 2.0


def test_self_time_subtracts_only_direct_children():
    spans = [_span(0, None, 0.0, 10.0), _span(1, 0, 1.0, 4.0),
             _span(2, 1, 2.0, 3.0), _span(3, 0, 6.0, 9.0),
             _span(4, None, 20.0, 21.5)]
    st = self_times(spans)
    assert st[0] == pytest.approx(10.0 - 3.0 - 3.0)
    assert st[1] == pytest.approx(3.0 - 1.0)
    assert st[2] == pytest.approx(1.0)
    assert st[3] == pytest.approx(3.0)
    assert st[4] == pytest.approx(1.5)


def test_tracer_links_parents_counts_and_restores():
    mod = types.SimpleNamespace()
    mod.leaf = lambda n: np.zeros(n)
    mod.inner = lambda n: mod.leaf(n).size
    mod.outer = lambda n: mod.inner(n) + mod.inner(n)
    orig = (mod.outer, mod.inner, mod.leaf)
    with Tracer() as tr:
        assert tr.wrap_span(mod, "outer", "outer")
        assert tr.wrap_span(mod, "inner", "inner",
                            {"twice": lambda r: 2 * r})
        assert tr.wrap_counter(mod, "leaf", "nodes", lambda r: r.size)
        assert not tr.wrap_span(mod, "gone", "gone")
        assert mod.outer(3) == 6
    assert (mod.outer, mod.inner, mod.leaf) == orig
    outer = [s for s in tr.spans if s.name == "outer"]
    inner = [s for s in tr.spans if s.name == "inner"]
    assert len(outer) == 1 and len(inner) == 2
    assert all(s.parent == outer[0].id for s in inner)
    assert all(s.counts == {"twice": 6, "nodes": 3} for s in inner)
    assert outer[0].counts == {}


def test_tracer_records_errors_and_keeps_threads_apart():
    mod = types.SimpleNamespace()

    def work(fail):
        if fail:
            raise KeyError("boom")
        return 1

    mod.work = work
    tr = Tracer()
    tr.wrap_span(mod, "work", "work")
    with pytest.raises(KeyError):
        mod.work(True)

    def in_thread():
        with tr.span("root"):
            mod.work(False)

    th = threading.Thread(target=in_thread)
    th.start()
    th.join(timeout=10)
    assert not th.is_alive()
    tr.restore()
    failed, root, ok = sorted(tr.spans, key=lambda s: s.id)
    assert failed.error == "KeyError" and failed.parent is None
    assert root.name == "root" and ok.parent == root.id
    assert ok.thread == root.thread != failed.thread


@pytest.mark.parametrize("name", sorted(workloads.N_POINTS))
def test_generator_is_deterministic_per_seed(name):
    a, b = workloads.build(name, 7), workloads.build(name, 7)
    c = workloads.build(name, 8)
    assert a.config == b.config
    assert np.array_equal(a.times_s, b.times_s)
    assert not np.array_equal(a.times_s, c.times_s)
    t_end = a.config.time_grid.t_end
    assert a.times_s.size == workloads.N_POINTS[name]
    assert np.all(np.diff(a.times_s) > 0)
    assert 0.0 < a.times_s[0] and a.times_s[-1] <= t_end
    # antithetic strata: the times of a grid sum to the same for every seed
    n = a.times_s.size
    for w in (a, c):
        assert w.times_s.sum() == pytest.approx(n * t_end / 2, rel=1e-12)


def test_generator_varies_only_the_inputs():
    base = workloads.build("fig3-driven", 3)
    mt = workloads.build("fig3-driven-mt", 3)
    assert mt.config == base.config
    assert np.array_equal(mt.times_s, base.times_s)
    s1, s2 = (workloads.build("sampled-drive", s).config for s in (1, 2))
    f1, f2 = s1.force1, s2.force1
    assert f1.kind == "sampled" and s1.force2.kind == "zero"
    assert f1.times[0] == 0.0 and f1.times[-1] == s1.time_grid.t_end
    assert f1.values != f2.values
    assert s1.osc1 == s2.osc1 and s1.bath1 == s2.bath1
    wide = workloads.build("wideband-undriven", 1)
    assert wide.config.force1.kind == wide.config.force2.kind == "zero"
    assert wide.driven_twin.force1.kind == "exponential_step"
