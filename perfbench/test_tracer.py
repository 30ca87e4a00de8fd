"""Tests of the span tracer's self-time arithmetic.

    python3 -m pytest -q perfbench/test_tracer.py
"""

import os
import sys

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracer import Tracer, nearest, self_times  # noqa: E402


class FakeClock:
    """Returns the next scripted time on every call."""

    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return float(next(self.ticks))


def _spans(tr):
    cols = tr.arrays()
    names = [tr.names[i] for i in cols["name_id"]]
    return names, cols


def test_self_time_of_a_synthetic_nested_call():
    # outer [0, 10] calls inner [1, 3] and inner [4, 7]; inner [4, 7] calls leaf [5, 6]
    tr = Tracer(clock=FakeClock([0, 1, 3, 4, 5, 6, 7, 10]))
    leaf = tr.wrap(lambda: "leaf", "leaf")
    inner = tr.wrap(lambda deep: leaf() if deep else None, "inner")
    outer = tr.wrap(lambda: (inner(False), inner(True))[1], "outer")

    assert outer() == "leaf"
    names, cols = _spans(tr)
    assert names == ["outer", "inner", "inner", "leaf"]
    assert cols["parent"].tolist() == [-1, 0, 0, 2]
    own = self_times(cols["start"], cols["end"], cols["parent"])
    assert own.tolist() == [10 - 2 - 3, 2.0, 3 - 1, 1.0]
    # self times of a single-threaded call tree add up to the root's span
    assert own.sum() == cols["end"][0] - cols["start"][0]


def test_overlapping_and_overhanging_children_count_once():
    # parent [0, 10]; children [2, 6] and [4, 8] overlap on [4, 6];
    # child [9, 12] sticks out of the parent and is clipped to [9, 10]
    start = [0.0, 2.0, 4.0, 9.0]
    end = [10.0, 6.0, 8.0, 12.0]
    parent = [-1, 0, 0, 0]
    own = self_times(start, end, parent)
    assert own[0] == 10.0 - (8.0 - 2.0) - 1.0
    assert own[1:].tolist() == [4.0, 4.0, 3.0]


def test_span_records_exception_exit_and_stack_recovers():
    tr = Tracer(clock=FakeClock([0, 1, 2, 3]))

    def boom():
        raise ValueError("x")

    boom_w = tr.wrap(boom, "boom")
    try:
        boom_w()
    except ValueError:
        pass
    with tr.span("after"):
        pass
    _, cols = _spans(tr)
    assert cols["parent"].tolist() == [-1, -1]
    assert cols["end"].tolist() == [1.0, 3.0]


def test_restore_undoes_every_patch_and_clear_keeps_wrappers_live():
    class Owner:
        @staticmethod
        def f():
            return 1

    tr = Tracer()
    original = Owner.f
    tr.patch(Owner, "f", tr.wrap(original, "Owner.f"))
    Owner.f()
    tr.clear()
    Owner.f()
    assert len(tr.arrays()["start"]) == 1
    tr.restore()
    assert Owner.f is original


def test_nearest_root_ancestor():
    #   0 root
    #   +- 1
    #      +- 2 root
    #         +- 3
    #   4 (no root above)
    parent = np.array([-1, 0, 1, 2, -1])
    is_root = np.array([True, False, True, False, False])
    assert nearest(parent, is_root).tolist() == [0, 0, 2, 2, -1]
