"""Criterion scans in two halves: the caller and one helper thread.

``matrix_core._scan`` splits the blocks of a criterion scan (and of
``build_skew_gauge``) into two contiguous halves where the process may run
on two CPUs and n is in 16..32. The caller scans the first half and a
helper thread the second. Each test here runs the same scan with
``matrix_core._cpus`` read as 2 (halves) and as 1 (one thread), so the
halves are exercised on any host, and checks that the helper behaves as
the serial scan does: the same report bytes, no numpy warning where the
serial scan prints none, the serial exception, no work and no helper thread
left after the scan, and a forked child that can still scan. A run whose
scans never split imports no ``concurrent`` module: the helper's pool is
imported where a scan first splits.
"""

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from riccati_cert import coefficients as cf
from riccati_cert import matrix_core as mc
from riccati_cert.coefficients import CoefficientSet
from riccati_cert.criteria import CRITERION_NAMES, GridSpec, build_skew_gauge, run_criterion
from riccati_cert.exceptions import NotPositiveDefiniteError
from riccati_cert.instances import TARGETS, InstanceSpec, generate

#: 201 points leave every partition a short last block
GRID_POINTS = 201


def _cpus(monkeypatch, count):
    monkeypatch.setattr(mc, "_cpus", lambda: count)


def _scan_threads():
    """The split scans' helper threads that are alive now."""
    return [t.name for t in threading.enumerate() if t.name.startswith("riccati-scan")]


def _split(n, points=GRID_POINTS):
    """Whether a scan of ``points`` points at n splits when two CPUs are seen."""
    return bool(mc._scan_blocks(points, n, True)[1])


def _everything(cs, y0, gauges, grid):
    """The report JSON of every criterion and the skew gauge's spline bytes
    and record, or its refusal (P not positive definite, or gauge values that
    are not finite)."""
    out = [json.dumps(run_criterion(name, cs, y0, grid=grid, **gauges).to_dict())
           for name in CRITERION_NAMES]
    try:
        lam0, rec = build_skew_gauge(cs, gauges.get("mu"), grid)
    except (NotPositiveDefiniteError, ValueError) as exc:
        return out + [(type(exc).__name__, str(exc))]
    return out + [(lam0.values.tobytes(), lam0.node_derivatives.tobytes(), rec)]


@pytest.mark.parametrize("n", [2, 8, 16, 32])
@pytest.mark.parametrize("target", sorted(TARGETS))
def test_halves_give_the_serial_bytes(monkeypatch, target, n):
    cs, y0, gauges = generate(InstanceSpec(n=n, seed=1, target=target))
    grid = GridSpec.for_set(cs, GRID_POINTS)
    _cpus(monkeypatch, 2)
    assert _split(n) is (16 <= n <= 32)
    halves = _everything(cs, y0, gauges, grid)
    _cpus(monkeypatch, 1)
    assert not _split(n)
    assert halves == _everything(cs, y0, gauges, grid)


def test_the_partition_keeps_the_memory_bound(monkeypatch):
    """Each block of a scan that splits holds half the entries of a serial
    block, so the two blocks in flight hold what one serial block holds."""
    _cpus(monkeypatch, 2)
    mine, theirs = mc._scan_blocks(1001, 32, True)
    blocks = mine + theirs
    assert [s.start for s in blocks] == list(range(0, 1001, 8))
    assert blocks[-1].stop >= 1001 and len(mine) - len(theirs) in (0, 1)
    assert max(s.stop - s.start for s in blocks) * 32 ** 2 == mc.BLOCK_ENTRIES // 2
    assert mc._scan_blocks(1001, 32, False) == (mc.block_slices(1001, 32), [])
    for n in (8, 33, 64):
        assert mc._scan_blocks(1001, n, True) == (mc.block_slices(1001, n), [])
    _cpus(monkeypatch, 1)
    assert mc._scan_blocks(1001, 32, True) == (mc.block_slices(1001, 32), [])


def _set(n, p, r=None):
    """P = p(t) I (p: coefficients, lowest first), Q = 0, R = r(t) I, S = I on [0, 5]."""
    eye = np.eye(n)
    poly = lambda c: cf.polynomial([a * eye for a in c])
    return CoefficientSet(n=n, t0=0.0, t_end=5.0, P=poly(p),
                          Q=cf.zero_matrix_function(n),
                          R=poly(r) if r is not None else cf.zero_matrix_function(n),
                          S=cf.constant(eye))


def test_overflow_in_the_helper_half_is_quiet_and_serial(monkeypatch):
    """R = 1e307 t^2 overflows from t ~ 4.24 on, in the helper's half only:
    the helper runs in the caller's error state, so nothing warns (the suite
    turns RuntimeWarning into an error), and the witnesses are the serial ones."""
    n = 32
    cs = _set(n, [1.0], r=[0.0, 0.0, 1e307])
    grid = GridSpec.for_set(cs, GRID_POINTS)
    _cpus(monkeypatch, 2)
    theirs = mc._scan_blocks(GRID_POINTS, n, True)[1]
    overflow = grid.points[grid.points ** 2 > np.finfo(float).max / 1e307]
    assert overflow.size and overflow[0] >= grid.points[theirs[0].start]
    halves = _everything(cs, np.eye(n), {}, grid)
    assert not json.loads(halves[0])["holds"]
    _cpus(monkeypatch, 1)
    assert halves == _everything(cs, np.eye(n), {}, grid)


@pytest.mark.parametrize("p, halves", [
    # p(t) = (t - 1)^2 (t - 4)^2 - 0.1 dips below 0 in both halves
    ([15.9, -40.0, 33.0, -10.0, 1.0], ("caller", "helper")),
    # p(t) = (t - 4)^2 - 0.1 in the helper's half only
    ([15.9, -8.0, 1.0], ("helper",)),
], ids=["both_halves", "helper_half"])
def test_skew_gauge_refusal_is_the_serial_one(monkeypatch, p, halves):
    """P = p(t) I is not positive definite where p < 0: the refusal names the
    earliest such grid time, as the serial scan does."""
    n = 32
    cs = _set(n, p)
    grid = GridSpec.for_set(cs, GRID_POINTS)
    _cpus(monkeypatch, 2)
    helper_start = grid.points[mc._scan_blocks(GRID_POINTS, n, True)[1][0].start]
    bad = grid.points[np.polynomial.polynomial.polyval(grid.points, p) < 0]
    assert (("caller",) if bad[0] < helper_start else ()) + ("helper",) == halves
    assert bad[-1] >= helper_start
    messages = []
    for cpus in (2, 1):
        _cpus(monkeypatch, cpus)
        assert _split(n) is (cpus == 2)
        with pytest.raises(NotPositiveDefiniteError) as exc:
            build_skew_gauge(cs, None, grid)
        messages.append((str(exc.value), exc.value.min_eigenvalue))
    assert messages[0] == messages[1]
    assert messages[0][0].startswith(f"P({bad[0]}) is not positive definite")


class TestTheHelperIsDoneWhenTheScanIs:
    """``_scan`` returns or raises only once the helper's half has finished
    and its thread is gone."""

    ts = np.linspace(0.0, 1.0, 101)
    n = 32

    @pytest.fixture
    def scan(self, monkeypatch):
        _cpus(monkeypatch, 2)
        assert _split(self.n, self.ts.size)
        main = threading.get_ident()
        lock = threading.Lock()
        state = {"running": 0, "helper_blocks": 0}

        def run(fail_in):
            def block(ts, value):
                mine = threading.get_ident() == main
                with lock:
                    state["running"] += 1
                try:
                    if not mine:
                        time.sleep(0.01)  # the helper is still busy when the caller is done
                    if ("caller" if mine else "helper") == fail_in:
                        raise ValueError(f"{fail_in} at {ts[0]}")
                    return (ts,)
                finally:
                    with lock:
                        state["running"] -= 1
                        state["helper_blocks"] += not mine

            values = cf.stacked_evaluator((cf.polynomial([np.eye(self.n), np.eye(self.n)]),))
            return mc._scan(self.ts, self.n, block, values=values)

        return run, state

    def test_after_return(self, scan):
        run, state = scan
        (ts,) = run(None)
        assert np.array_equal(ts, self.ts)
        assert state["running"] == 0
        assert state["helper_blocks"] == len(mc._scan_blocks(self.ts.size, self.n, True)[1])
        assert _scan_threads() == []

    def test_after_the_caller_raises(self, scan):
        run, state = scan
        with pytest.raises(ValueError, match=r"^caller at 0\.0$"):
            run("caller")
        done = state["helper_blocks"]
        assert state["running"] == 0 and done
        assert _scan_threads() == []
        time.sleep(0.05)
        assert state["helper_blocks"] == done

    def test_after_the_helper_raises(self, scan):
        run, state = scan
        theirs = mc._scan_blocks(self.ts.size, self.n, True)[1]
        first = re.escape(str(self.ts[theirs[0].start]))
        with pytest.raises(ValueError, match=rf"^helper at {first}$"):
            run("helper")
        assert state["running"] == 0
        assert _scan_threads() == []


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_scans_in_halves(monkeypatch):
    """A child forked after a scan that split scans in halves too: the scan
    took its helper thread with it, so the parent forks with no helper
    thread alive and the child starts its own."""
    cs, y0, gauges = generate(InstanceSpec(n=32, seed=1, target="satisfying"))
    grid = GridSpec.for_set(cs, GRID_POINTS)
    _cpus(monkeypatch, 2)
    want = json.dumps(run_criterion("theorem3.1", cs, y0, grid=grid, **gauges).to_dict())
    assert _split(32) and _scan_threads() == []
    pid = os.fork()
    if pid == 0:  # the child: exit 0 only when its split scan gives the parent's bytes
        code = 1
        try:
            signal.alarm(20)
            got = json.dumps(run_criterion("theorem3.1", cs, y0, grid=grid, **gauges).to_dict())
            code = 0 if got == want else 3
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0


POOL_SCRIPT = """
import contextlib, io, json, sys
from riccati_cert import matrix_core as mc
from riccati_cert.cli import main

workdir, n, steps = sys.argv[1], sys.argv[2], int(sys.argv[3])
mc._cpus = lambda: 2  # a split scan is possible on any host
inst, csv = f"{workdir}/inst.json", f"{workdir}/traj.csv"
chain = [["gen", "--target", "satisfying", "--n", n, "--out", inst], ["check", inst],
         ["integrate", inst, "--method", "both", "--out", csv], ["verify", inst, csv]]
codes = []
for argv in chain[:steps]:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
print(json.dumps({"codes": codes,
                  "concurrent": sorted(m for m in sys.modules if m.split(".")[0] == "concurrent")}))
"""


def _fresh_chain(workdir, n, steps):
    """Run the first ``steps`` commands of gen, check, integrate, verify at n
    in a fresh interpreter; (exit codes, concurrent modules loaded at exit)."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run([sys.executable, "-c", POOL_SCRIPT, str(workdir), str(n), str(steps)],
                          env=env, capture_output=True, text=True, timeout=300, check=True)
    out = json.loads(done.stdout.splitlines()[-1])
    return out["codes"], out["concurrent"]


@pytest.mark.parametrize("steps", [1, 2, 3, 4], ids=["gen", "check", "integrate", "verify"])
def test_commands_whose_scans_never_split_import_no_pool(tmp_path, steps):
    assert not _split(3)
    codes, loaded = _fresh_chain(tmp_path, 3, steps)
    assert codes == [0] * steps
    assert loaded == []


def test_a_scan_that_splits_imports_the_pool(tmp_path):
    # the control of the test above: at n = 32 check's scan splits
    codes, loaded = _fresh_chain(tmp_path, 32, 2)
    assert codes == [0, 0]
    assert "concurrent.futures" in loaded
