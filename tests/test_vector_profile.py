"""The kernel-profiler hook and the before/after profile shapes.

The scalar oracle charges a whole row to one opaque
``core.characterization;run_row.scalar`` bucket; the batch path breaks
the same work into ``vector;vector.delay`` / ``vector;vector.safety`` /
``vector;vector.fault_draw``.  That contrast is the "before/after"
story the committed profile fixture captures
(``benchmarks/profiles/BEFORE_characterization_scalar.collapsed.txt``).
"""

from __future__ import annotations

from repro.core.characterization import CharacterizationConfig, CharacterizationFramework
from repro.cpu import COMET_LAKE
from repro.observe.profiler import SimProfiler
import repro.vector
from repro.vector.profile import kernel_profiler, profiled_kernels, record_kernel_site

COARSE = CharacterizationConfig(
    offset_start_mv=-10, offset_stop_mv=-250, offset_step_mv=10
)


def _buckets(profiler):
    return {(b.component, b.site): b for b in profiler.buckets()}


class TestHookLifecycle:
    def test_detached_by_default_and_recording_is_noop(self):
        assert kernel_profiler() is None
        record_kernel_site("vector.delay", events=3)  # must not raise

    def test_attach_detach_roundtrip(self):
        profiler = SimProfiler()
        with profiled_kernels(profiler) as active:
            assert active is profiler
            assert kernel_profiler() is profiler
        assert kernel_profiler() is None

    def test_profiled_kernels_restores_previous_hook(self):
        outer = SimProfiler()
        inner = SimProfiler()
        with profiled_kernels(outer):
            with profiled_kernels(inner) as active:
                assert active is inner
                assert kernel_profiler() is inner
            assert kernel_profiler() is outer
        assert kernel_profiler() is None

    def test_hook_restored_when_block_raises(self):
        outer = SimProfiler()
        with profiled_kernels(outer):
            try:
                with profiled_kernels(SimProfiler()):
                    raise RuntimeError("boom")
            except RuntimeError:
                pass
            assert kernel_profiler() is outer
        assert kernel_profiler() is None

    def test_profiled_kernels_is_the_only_attach_point(self):
        for name in ("attach_kernel_profiler", "detach_kernel_profiler"):
            assert not hasattr(repro.vector.profile, name)
            assert name not in repro.vector.__all__

    def test_record_site_accumulates(self):
        profiler = SimProfiler()
        with profiled_kernels(profiler):
            record_kernel_site("vector.delay", events=25, wall_s=0.25)
            record_kernel_site("vector.delay", events=5, wall_s=0.05)
        bucket = _buckets(profiler)[("vector", "vector.delay")]
        assert bucket.events == 30
        assert abs(bucket.wall_time_s - 0.3) < 1e-12


class TestBeforeAfterProfiles:
    def test_scalar_row_is_one_opaque_bucket(self):
        profiler = SimProfiler()
        framework = CharacterizationFramework(COMET_LAKE, config=COARSE, seed=2024)
        with profiled_kernels(profiler):
            cells = framework.run_row(COMET_LAKE.frequency_table.base_ghz)
        buckets = _buckets(profiler)
        assert set(buckets) == {("core.characterization", "run_row.scalar")}
        assert buckets[("core.characterization", "run_row.scalar")].events == len(cells)

    def test_batch_row_exposes_the_three_vector_sites(self):
        profiler = SimProfiler()
        framework = CharacterizationFramework(COMET_LAKE, config=COARSE, seed=2024)
        with profiled_kernels(profiler):
            framework.run_row_batch(COMET_LAKE.frequency_table.base_ghz)
        buckets = _buckets(profiler)
        assert set(buckets) == {
            ("vector", "vector.delay"),
            ("vector", "vector.safety"),
            ("vector", "vector.fault_draw"),
        }
        offsets = len(COARSE.offsets_mv())
        assert buckets[("vector", "vector.delay")].events == offsets
        assert buckets[("vector", "vector.safety")].events == offsets

    def test_collapsed_profile_round_trip(self):
        """The collapsed-stack export carries the site labels verbatim —
        the format the committed before-profile fixture is stored in."""
        profiler = SimProfiler()
        framework = CharacterizationFramework(COMET_LAKE, config=COARSE, seed=2024)
        with profiled_kernels(profiler):
            framework.run_row_batch(COMET_LAKE.frequency_table.base_ghz)
        collapsed = profiler.to_collapsed()
        assert collapsed.endswith("\n")
        stacks = dict(
            line.rsplit(" ", 1) for line in collapsed.strip().splitlines()
        )
        assert "vector;vector.delay" in stacks
        assert "vector;vector.safety" in stacks
        assert "vector;vector.fault_draw" in stacks

    def test_event_totals_are_deterministic(self):
        """Event counts (unlike wall-clock) are replay-stable: two runs of
        the same row charge identical totals."""
        totals = []
        for _ in range(2):
            profiler = SimProfiler()
            framework = CharacterizationFramework(COMET_LAKE, config=COARSE, seed=2024)
            with profiled_kernels(profiler):
                framework.run_row_batch(COMET_LAKE.frequency_table.base_ghz)
            totals.append(
                {key: bucket.events for key, bucket in _buckets(profiler).items()}
            )
        assert totals[0] == totals[1]
