"""Kernel-level differential tests: numpy backend vs the python reference.

Every kernel of :class:`repro.compute.base.ComputeBackend` is exercised on
seeded random inputs under both implementations and must agree exactly —
values, dtypes, and shapes.  Backend selection (env var, set_backend,
backend_scope) is covered at the bottom.
"""

import numpy as np
import pytest

from repro.analyze import simsan
from repro.compute import (
    BACKEND_NAMES,
    available_backends,
    backend_scope,
    default_backend_name,
    get_backend,
    set_backend,
)
from repro.compute.numpy_backend import NumpyBackend
from repro.compute.python_backend import PythonBackend
from repro.errors import ConfigError

PY = PythonBackend()
NP = NumpyBackend()

SEED = 20150601  # DaMoN'15


def _arrays_equal(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and (a == b).all()


class TestMaskKernels:
    @pytest.mark.parametrize("n", [1, 7, 64, 1000])
    def test_range_mask(self, n):
        rng = np.random.default_rng(SEED + n)
        values = rng.integers(-100, 100, n, dtype=np.int64)
        low, high = sorted(rng.integers(-100, 100, 2).tolist())
        assert _arrays_equal(PY.range_mask(values, low, high),
                             NP.range_mask(values, low, high))

    def test_range_mask_empty_range(self):
        values = np.arange(10, dtype=np.int64)
        assert _arrays_equal(PY.range_mask(values, 5, 4),
                             NP.range_mask(values, 5, 4))

    @pytest.mark.parametrize("n", [1, 8, 9, 200, 4096])
    def test_pack_unpack_popcount_positions(self, n):
        rng = np.random.default_rng(SEED + n)
        mask = rng.random(n) < rng.random()
        packed_py = PY.pack_mask(mask)
        packed_np = NP.pack_mask(mask)
        assert _arrays_equal(packed_py, packed_np)
        assert _arrays_equal(PY.unpack_mask(packed_py, n),
                             NP.unpack_mask(packed_np, n))
        assert PY.popcount(mask) == NP.popcount(mask) == int(mask.sum())
        assert _arrays_equal(PY.flatnonzero(mask), NP.flatnonzero(mask))

    def test_unpack_ignores_padding_bits(self):
        buf = np.full(2, 0xFF, dtype=np.uint8)
        assert _arrays_equal(PY.unpack_mask(buf, 11), NP.unpack_mask(buf, 11))

    def test_merge_masked(self):
        rng = np.random.default_rng(SEED)
        n = 333
        update = rng.random(n) < 0.5
        owned = rng.random(n) < 0.3
        cur_py = rng.random(n) < 0.5
        cur_np = cur_py.copy()
        PY.merge_masked(cur_py, owned, update)
        NP.merge_masked(cur_np, owned, update)
        assert _arrays_equal(cur_py, cur_np)

    @pytest.mark.parametrize("rows_per_line", [1, 3, 8, 16])
    def test_per_line_stats(self, rows_per_line):
        rng = np.random.default_rng(SEED + rows_per_line)
        for n in (1, rows_per_line, 257):
            mask = rng.random(n) < 0.4
            m_py, t_py = PY.per_line_stats(mask, rows_per_line)
            m_np, t_np = NP.per_line_stats(mask, rows_per_line)
            assert _arrays_equal(m_py, m_np)
            assert _arrays_equal(t_py, t_np)


class TestSelectivityKernels:
    def test_count_in_range_and_kth_smallest(self):
        rng = np.random.default_rng(SEED)
        values = rng.integers(0, 1000, 500, dtype=np.int64)
        assert (PY.count_in_range(values, 100, 900)
                == NP.count_in_range(values, 100, 900))
        for k in (1, 250, 500):
            assert PY.kth_smallest(values, k) == NP.kth_smallest(values, k)


class TestFusedHitRun:
    def _random_case(self, rng, big_wp_int):
        cl = int(rng.integers(1, 20)) * 1000
        burst = int(rng.integers(1, 10)) * 500
        tccd = int(rng.integers(1, 8)) * 500
        trtp = int(rng.integers(1, 12)) * 500
        base = int(rng.integers(0, 10**9))
        state = [base + int(rng.integers(0, 50_000)) for _ in range(6)]
        n = int(rng.integers(1, 400))
        next_ref = (base + int(rng.integers(0, 10**7))
                    if rng.random() < 0.5 else 1 << 62)
        if big_wp_int:
            wp_full = float(int(rng.integers(0, 5000)))
        else:
            wp_full = float(rng.integers(0, 5000)) + float(rng.random())
        return (n, *state, next_ref, cl, burst, tccd, trtp, wp_full)

    @pytest.mark.parametrize("integral_wp", [True, False])
    def test_matches_reference_on_random_state(self, integral_wp):
        rng = np.random.default_rng(SEED + integral_wp)
        for trial in range(50):
            args = self._random_case(rng, integral_wp)
            assert PY.fused_hit_run(*args) == NP.fused_hit_run(*args), args

    def test_half_integer_wp_banker_rounding(self):
        # wp_full = x.5 makes round() parity-dependent: the numpy backend
        # must not extrapolate, and must match the reference bit for bit.
        args = (100, 0, 0, 0, 0, 0, 0, 1 << 62, 1000, 500, 500, 500, 2.5)
        assert PY.fused_hit_run(*args) == NP.fused_hit_run(*args)

    def test_steady_state_jump_is_exact(self):
        # A clean cadence that reaches steady state immediately: the numpy
        # backend's O(1) jump must land on the reference's state exactly.
        args = (10_000, 1_000_000, 1_000_000, 1_000_000, 1_000_000,
                1_000_000, 1_000_000, 1 << 62, 10_000, 1250, 2500, 5000,
                160.0)
        assert PY.fused_hit_run(*args) == NP.fused_hit_run(*args)

    def test_refresh_deadline_stops_both(self):
        args = (10_000, 1_000_000, 1_000_000, 1_000_000, 1_000_000,
                1_000_000, 1_000_000, 9_000_000, 10_000, 1250, 2500, 5000,
                160.0)
        out_py = PY.fused_hit_run(*args)
        assert out_py == NP.fused_hit_run(*args)
        assert out_py[0] < 10_000  # the deadline actually cut the run short

    def test_huge_magnitudes_disable_extrapolation_but_agree(self):
        base = (1 << 53) - (1 << 18)
        args = (500, base, base, base, base, base, base, 1 << 62,
                10_000, 1250, 2500, 5000, 160.0)
        assert PY.fused_hit_run(*args) == NP.fused_hit_run(*args)


# Under `pytest --simsan` the sanitizers force exact mode (the fused
# kernels never run) and the scan-equivalence shadow aborts on a mask bug
# before the harness can report it, so the seeded-bug tests stand down.
sanitizers_off = pytest.mark.skipif(
    simsan.active(),
    reason="SimSan installed: exact mode, and its shadow checks pre-empt "
           "the harness")


class TestMutationSmoke:
    """The differential harness must *catch* an injected kernel bug.

    A green ``analyze backends`` run only means something if a divergent
    backend turns it red, so these tests monkeypatch a realistic off-by-one
    into a numpy kernel and assert the harness verdict flips.
    """

    def _harness(self):
        from repro.analyze.backends import run_backends

        return run_backends(rows=512, modes=("fast-forward",),
                            with_goldens=False)

    def test_unmutated_control_is_green(self):
        report = self._harness()
        assert report["ok"], report

    @sanitizers_off
    def test_catches_range_mask_off_by_one(self, monkeypatch):
        def mutant(self, values, low, high):
            # Classic vectorisation off-by-one: the last lane is dropped
            # (as if the kernel iterated n-1 elements).
            mask = (values >= low) & (values <= high)
            if mask.size:
                mask[-1] = False
            return mask

        monkeypatch.setattr(NumpyBackend, "range_mask", mutant)
        report = self._harness()
        assert not report["ok"], (
            "harness missed an off-by-one in numpy range_mask")
        diverged = [c["name"]
                    for c in report["modes"]["fast-forward"]["checks"]
                    if not c["ok"]]
        assert diverged, report

    @sanitizers_off
    def test_catches_fused_timing_mutation(self, monkeypatch):
        original = NumpyBackend.fused_hit_run

        def mutant(self, n, cursor, alu_ready, io, b_col, b_dfree, b_pre,
                   next_ref, cl, burst, tccd, trtp, wp_full):
            # One picosecond-tick too many per burst: a pure timing bug
            # that never changes match counts, only simulated durations.
            return original(self, n, cursor, alu_ready, io, b_col, b_dfree,
                            b_pre, next_ref, cl, burst + 1, tccd, trtp,
                            wp_full)

        monkeypatch.setattr(NumpyBackend, "fused_hit_run", mutant)
        report = self._harness()
        assert not report["ok"], (
            "harness missed a timing mutation in numpy fused_hit_run")


class TestBackendSelection:
    def test_registry_names(self):
        assert set(available_backends()) <= set(BACKEND_NAMES)
        assert "python" in available_backends()

    def test_set_backend_round_trip(self):
        before = get_backend().name
        try:
            previous = set_backend("python")
            assert previous == before
            assert get_backend().name == "python"
        finally:
            set_backend(before)

    def test_backend_scope_restores(self):
        before = get_backend().name
        other = "python" if before != "python" else "numpy"
        with backend_scope(other) as backend:
            assert backend.name == other
            assert get_backend().name == other
        assert get_backend().name == before

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigError):
            set_backend("cuda")

    def test_env_var_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "python")
        assert default_backend_name() == "python"
        monkeypatch.setenv("REPRO_BACKEND", "fortran")
        with pytest.raises(ConfigError):
            default_backend_name()
        monkeypatch.delenv("REPRO_BACKEND")
        assert default_backend_name() in available_backends()

    def test_engine_fixture_controls_dispatch(self, engine):
        assert get_backend().name == engine
