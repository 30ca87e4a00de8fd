"""Memory held by the integrators, the residual, the criterion scans and the
``integrate --method both`` and ``verify`` subcommands.

Traced with ``tracemalloc`` (numpy reports its buffers to it) at n = 32
on the default 201 samples: each result is allocated once, at its full
size, and a run keeps little else alive. ``integrate --method both`` runs
the direct integration, then folds each sample of the linear flow into
the discrepancy as it is reached, storing no sample of the flow. The
residual forms F block by block, on a block's rows and one sample on each
side, so it holds no derivative of the whole trajectory. The CSV reader's Y is a view of its
parsed rows, so it holds about its result. The CSV writer formats and writes one
row at a time, so it holds a fraction of the samples it writes. A criterion scan
on the default 1001-point grid holds one block of grid values at a time, or, where it runs
in two halves, two half blocks in flight: the caller and the helper thread
each scan a block of ``BLOCK_ENTRIES // 2`` entries per stack, which
together hold what one block of the serial scan holds. A trajectory that
stops early holds only the samples it reached, in arrays of its own. The
driver evaluates the coefficients for a window of sample-to-sample steps
at once, of at most ``BLOCK_ENTRIES`` entries, and frees each window
before the next: a run on many samples holds its samples and one window.
"""

import contextlib
import io
import math
import tracemalloc

import numpy as np
import pytest

from riccati_cert import cli
from riccati_cert.matrix_core import BLOCK_ENTRIES
from riccati_cert.criteria import GridSpec, run_criterion
from riccati_cert.instances import (
    InstanceSpec,
    canonical_catalog,
    gen_blowup,
    gen_comparison,
    gen_satisfying,
)
from riccati_cert.integrate import (
    DEFAULT_SAMPLES,
    integrate_linear_system,
    integrate_riccati_direct,
)
from riccati_cert.serialize import (
    dumps_instance,
    instance_to_obj,
    read_trajectory_csv,
    write_trajectory_csv,
)
from riccati_cert.verify import residual_series

N = 32
#: Bytes of one trajectory's values at n = 32 on the default 201 samples.
ONE_TRAJECTORY = 201 * N * N * np.dtype(np.complex128).itemsize


@pytest.fixture(scope="module")
def instance():
    cs, _, _, y0 = gen_satisfying(InstanceSpec(n=N, seed=1))
    # warm up once, so lazy set-up is not counted as the run's memory
    ts = np.linspace(cs.t0, cs.t_end, 3)
    integrate_riccati_direct(cs, y0, sample_times=ts)
    integrate_linear_system(cs, y0, sample_times=ts)
    return cs, y0


def traced_peak(fn):
    """(fn(), the peak of traced memory above what was traced before the call)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return out, peak


def test_direct_holds_its_samples_once(instance):
    traj, peak = traced_peak(lambda: integrate_riccati_direct(*instance))
    assert traj.status == "completed" and traj.times.size == 201
    assert peak <= 1.5 * traj.values.nbytes


def test_direct_on_many_samples_holds_its_samples_and_one_window():
    n = 8
    cs, _, _, y0 = gen_satisfying(InstanceSpec(n=n, seed=1))
    ts = np.linspace(cs.t0, cs.t_end, 2001)
    integrate_riccati_direct(cs, y0, sample_times=ts[:3])
    traj, peak = traced_peak(lambda: integrate_riccati_direct(cs, y0, sample_times=ts))
    assert traj.status == "completed" and traj.times.size == ts.size
    # a window: 10 steps of P, Q, R, S at six stage times each
    entries = 6 * (BLOCK_ENTRIES // (6 * 4 * n * n)) * 4 * n * n
    assert entries == 15360
    window = entries * np.dtype(np.complex128).itemsize
    # the window, and at most as much again while it is evaluated: numpy
    # buffers a broadcast operand of a product, up to np.getbufsize()
    # entries, fewer than a window's
    assert np.getbufsize() <= entries
    assert peak <= traj.times.nbytes + traj.values.nbytes + 2 * window


def test_linear_flow_holds_its_samples_once(instance):
    (flow, traj), peak = traced_peak(lambda: integrate_linear_system(*instance))
    assert traj.status == "completed" and traj.times.size == 201
    assert peak <= 1.3 * (flow.phi.nbytes + flow.psi.nbytes + traj.values.nbytes)


def test_cli_both_stores_no_sample_of_the_flow(instance, tmp_path):
    cs, y0 = instance
    path = tmp_path / "inst.json"
    path.write_text(dumps_instance(instance_to_obj(cs, y0)))
    argv = ["integrate", str(path), "--method", "both", "--out", str(tmp_path / "traj.csv")]
    with contextlib.redirect_stdout(io.StringIO()):
        code, peak = traced_peak(lambda: cli.main(argv))
    assert code == 0
    assert peak <= 2 * ONE_TRAJECTORY


def test_residual_holds_no_derivative_of_the_whole_trajectory(instance):
    cs, y0 = instance
    traj = integrate_riccati_direct(cs, y0)
    series, peak = traced_peak(lambda: residual_series(traj, cs))
    assert series.shape == (201,)
    assert peak <= 0.5 * ONE_TRAJECTORY


def test_cli_verify_holds_about_what_it_reads(instance, tmp_path):
    cs, y0 = instance
    lam = gen_satisfying(InstanceSpec(n=N, seed=1))[1]
    path, csv = tmp_path / "inst.json", str(tmp_path / "traj.csv")
    path.write_text(dumps_instance(instance_to_obj(cs, y0, lam=lam)))
    write_trajectory_csv(csv, integrate_riccati_direct(cs, y0), cs, lam=lam)
    with contextlib.redirect_stdout(io.StringIO()):
        code, peak = traced_peak(lambda: cli.main(["verify", str(path), csv]))
    assert code == 0
    assert peak <= 2 * ONE_TRAJECTORY


def test_csv_reader_holds_about_its_result(instance, tmp_path):
    cs, y0 = instance
    traj = integrate_riccati_direct(cs, y0)
    path = str(tmp_path / "traj.csv")
    write_trajectory_csv(path, traj, cs)
    (times, values), peak = traced_peak(lambda: read_trajectory_csv(path, N))
    assert np.array_equal(values, traj.values) and times.size == 201
    assert peak <= 1.6 * (times.nbytes + values.nbytes)


def test_csv_writer_streams_its_rows(instance, tmp_path):
    cs, y0 = instance
    traj = integrate_riccati_direct(cs, y0)
    path = str(tmp_path / "traj.csv")
    _, peak = traced_peak(lambda: write_trajectory_csv(path, traj, cs))
    assert peak <= 0.5 * traj.values.nbytes


@pytest.mark.parametrize("criterion, target, bound", [("theorem3.1", "satisfying", 1.5),
                                                      ("theorem1.1", "comparison", 1.0)])
def test_criterion_scan_holds_a_block_at_a_time(criterion, target, bound):
    spec = InstanceSpec(n=N, seed=1, target=target)
    if target == "satisfying":
        cs, lam, mu, y0 = gen_satisfying(spec)
    else:
        (cs, y0), lam, mu = gen_comparison(spec), None, None
    grid = GridSpec(cs.t0, cs.t_end)
    report, peak = traced_peak(lambda: run_criterion(criterion, cs, y0, lam=lam, mu=mu,
                                                     grid=grid))
    assert report.holds
    assert peak <= bound * ONE_TRAJECTORY


def test_blow_up_owns_only_the_samples_it_reached():
    cs, y0 = gen_blowup(InstanceSpec(n=N, seed=0, target="blowup", scale=1.5))
    traj = integrate_riccati_direct(cs, y0)
    assert traj.status == "blow_up"
    assert 1 < traj.times.size < DEFAULT_SAMPLES
    assert traj.values.shape == (traj.times.size, N, N)
    assert traj.times.base is None and traj.values.base is None


def test_phi_singular_owns_only_the_samples_it_kept():
    entry = canonical_catalog()["tan_blowup"]
    ts = np.array([0.0, 1.0, math.pi / 2, 2.0])
    flow, traj = integrate_linear_system(entry.cs, entry.y0, sample_times=ts)
    assert traj.status == "phi_singular"
    assert traj.times.tolist() == [0.0, 1.0, 2.0]
    assert traj.values.shape == (3, 1, 1)
    assert traj.times.base is None and traj.values.base is None
    assert flow.times.size == 4
