"""Span bookkeeping: self time, cross-thread parents, installed wrappers."""
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import spans


def test_union_of_overlapping_and_disjoint_intervals():
    intervals = [(1.0, 4.0), (3.0, 6.0), (8.0, 9.0), (5.5, 5.8)]
    assert spans.union_length(intervals, 0.0, 10.0) == pytest.approx(6.0)
    assert spans.union_length(intervals, 2.0, 8.5) == pytest.approx(4.5)
    assert spans.union_length([], 0.0, 1.0) == 0.0


def test_self_time_subtracts_the_union_of_worker_thread_children():
    # root [0, 10] on thread 1; children on threads 2 and 3 overlap in [3, 4]
    recorded = [
        (1, "cli", 0.0, 10.0, None, 1, 0, None),
        (2, "propagator.propagate", 1.0, 4.0, 1, 2, 0, None),
        (3, "propagator.propagate", 3.0, 6.0, 1, 3, 0, None),
        (4, "propagator.drift_report", 8.0, 9.0, 1, 1, 0, None),
    ]
    prof = spans.pass_profile(recorded)
    assert prof["cli"]["self_s"] == pytest.approx(10.0 - 6.0)
    assert prof["propagator.propagate"]["calls"] == 2
    assert prof["propagator.propagate"]["s"] == pytest.approx(6.0)


def test_live_pool_threads_are_charged_to_the_pass_root():
    tracer = spans.Tracer()
    nap = tracer.wrap("test.nap", lambda: time.sleep(0.05))

    def pass_body():
        with ThreadPoolExecutor(max_workers=3) as pool:
            for future in [pool.submit(nap) for _ in range(3)]:
                future.result()

    tracer.run_pass(7, pass_body)
    root = next(s for s in tracer.spans if s[1] == "cli")
    naps = [s for s in tracer.spans if s[1] == "test.nap"]
    assert len(naps) == 3
    assert all(s[4] == root[0] and s[6] == 7 for s in naps)
    assert len({s[5] for s in naps}) == 3 and root[5] == threading.get_ident()
    prof = spans.pass_profile(tracer.spans)
    union = spans.union_length([(s[2], s[3]) for s in naps], root[2], root[3])
    assert union < prof["test.nap"]["s"]  # the naps overlapped
    assert prof["cli"]["self_s"] == pytest.approx(root[3] - root[2] - union)


def test_install_sees_module_globals_and_deferred_lookups_then_restores():
    import so3kin
    from so3kin import differential, propagator
    from so3kin.core import RotationMatrix

    original = (propagator.sample_rate, propagator.exp_so3, differential.hat,
                RotationMatrix.__post_init__)
    profile = so3kin.RateProfile(np.linspace(0.0, 1.0, 11), np.tile([0.0, 0.0, 1.0], (11, 1)))
    tracer = spans.Tracer()
    tracer.install()
    try:
        traj = tracer.run_pass(0, lambda: so3kin.propagate(
            so3kin.RotationMatrix.identity(), profile, 0.1, so3kin.Method.EXPONENTIAL))
        tracer.run_pass(1, lambda: so3kin.finite_difference_residual(traj, profile))
    finally:
        tracer.uninstall()
    assert (propagator.sample_rate, propagator.exp_so3, differential.hat,
            RotationMatrix.__post_init__) == original

    first, second = ([s for s in tracer.spans if s[6] == p] for p in (0, 1))
    prof = spans.pass_profile(first)
    assert prof["propagator.propagate"]["work"] == 10
    assert prof["algebra.exp_so3"]["calls"] == 10
    assert prof["propagator.sample_rate"]["calls"] == 10
    assert prof["core.RotationMatrix"]["calls"] == 21  # identity + two per step
    prof = spans.pass_profile(second)
    assert prof["differential.finite_difference_residual"]["work"] == 9
    assert prof["propagator.sample_rate"]["calls"] == 9  # the deferred import
    assert prof["algebra.hat"]["calls"] == 9
