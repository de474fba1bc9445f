"""Tests for the deterministic fault-injection plans (:mod:`repro.faults`)."""

import pytest

from repro import faults
from repro.exceptions import InvalidParameterError
from repro.faults import (
    ArtifactByteFlip,
    FaultPlan,
    QueueDelay,
    WorkerCrash,
    WorkerHang,
)


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    """Every test starts and ends with no plan installed."""
    faults.clear()
    yield
    faults.clear()


def full_plan() -> FaultPlan:
    return FaultPlan(
        worker_crashes=(WorkerCrash(worker=0, at_batch=2, exitcode=42),),
        worker_hangs=(WorkerHang(worker=1),),
        queue_delays=(QueueDelay(worker=0, seconds=0.5, at_batch=None),),
        byte_flips=(ArtifactByteFlip(array="S.data", offset=-1),),
    )


class TestFaultPlan:
    def test_dict_round_trip(self):
        plan = full_plan()
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_json_round_trip(self):
        plan = full_plan()
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_empty_plan_serializes_to_empty_dict(self):
        assert FaultPlan().to_dict() == {}
        assert FaultPlan().empty
        assert not full_plan().empty

    def test_from_dict_rejects_unknown_sections(self):
        # A typo, and the section of the removed GMRES stagnation fault.
        for section in ("worker_crahses", "gmres_stagnations"):
            with pytest.raises(InvalidParameterError, match="unknown fault plan"):
                FaultPlan.from_dict({section: []})

    def test_from_dict_rejects_bad_entries(self):
        with pytest.raises(InvalidParameterError, match="worker_crashes"):
            FaultPlan.from_dict({"worker_crashes": [{"nope": 1}]})

    def test_without_worker_strips_only_that_worker(self):
        narrowed = full_plan().without_worker(0)
        assert narrowed.worker_crashes == ()
        assert narrowed.queue_delays == ()
        assert narrowed.worker_hangs == (WorkerHang(worker=1),)
        # Process-agnostic faults survive the narrowing.
        assert narrowed.byte_flips == full_plan().byte_flips

    def test_load_plan(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(full_plan().to_json())
        assert faults.load_plan(path) == full_plan()


class TestInjector:
    def test_no_plan_means_no_faults(self):
        assert faults.active_plan() is None
        assert faults.crash_for(0, 0) is None
        assert not faults.hang_for(0)
        assert faults.delay_for(0, 0) == 0.0

    def test_install_and_clear(self):
        plan = full_plan()
        faults.install(plan)
        assert faults.active_plan() == plan
        faults.clear()
        assert faults.active_plan() is None

    def test_active_restores_previous_plan(self):
        outer = FaultPlan(worker_hangs=(WorkerHang(worker=5),))
        faults.install(outer)
        with faults.active(full_plan()):
            assert faults.active_plan() == full_plan()
        assert faults.active_plan() == outer

    def test_crash_matches_worker_and_batch(self):
        with faults.active(full_plan()):
            assert faults.crash_for(0, 2) == WorkerCrash(0, 2, 42)
            assert faults.crash_for(0, 1) is None
            assert faults.crash_for(1, 2) is None

    def test_hang_and_delay(self):
        with faults.active(full_plan()):
            assert faults.hang_for(1)
            assert not faults.hang_for(0)
            # at_batch=None delays every batch of worker 0.
            assert faults.delay_for(0, 0) == 0.5
            assert faults.delay_for(0, 7) == 0.5
            assert faults.delay_for(1, 0) == 0.0


class TestByteFlips:
    def test_flip_is_self_inverse(self, tmp_path):
        arrays = tmp_path / "arrays"
        arrays.mkdir()
        target = arrays / "S.data.npy"
        original = bytes(range(16))
        target.write_bytes(original)
        plan = FaultPlan(byte_flips=(ArtifactByteFlip(array="S.data", offset=3),))
        flipped = faults.apply_byte_flips(tmp_path, plan)
        assert flipped == [str(target)]
        mutated = target.read_bytes()
        assert mutated != original
        assert mutated[3] == original[3] ^ 0xFF
        faults.apply_byte_flips(tmp_path, plan)
        assert target.read_bytes() == original

    def test_missing_target_fails_loudly(self, tmp_path):
        (tmp_path / "arrays").mkdir()
        plan = FaultPlan(byte_flips=(ArtifactByteFlip(array="nope"),))
        with pytest.raises(InvalidParameterError, match="does not exist"):
            faults.apply_byte_flips(tmp_path, plan)

    def test_out_of_range_offset_fails_loudly(self, tmp_path):
        arrays = tmp_path / "arrays"
        arrays.mkdir()
        (arrays / "S.data.npy").write_bytes(b"abc")
        plan = FaultPlan(byte_flips=(ArtifactByteFlip(array="S.data", offset=99),))
        with pytest.raises(InvalidParameterError, match="out of range"):
            faults.apply_byte_flips(tmp_path, plan)

    def test_uses_active_plan_by_default(self, tmp_path):
        arrays = tmp_path / "arrays"
        arrays.mkdir()
        (arrays / "S.data.npy").write_bytes(b"xyz")
        with faults.active(FaultPlan(byte_flips=(ArtifactByteFlip("S.data", 0),))):
            assert len(faults.apply_byte_flips(tmp_path)) == 1
        assert faults.apply_byte_flips(tmp_path) == []  # no plan, no flips


class TestNetworkFaultSpecs:
    """The wire-level fault specs: serialization and injector sequencing."""

    def network_plan(self) -> FaultPlan:
        from repro.faults import ConnectionDrop, FrameCorrupt, SlowLink

        return FaultPlan(
            connection_drops=(
                ConnectionDrop(endpoint="b1", after_frames=2, count=3),
            ),
            slow_links=(SlowLink(endpoint="*", seconds=0.25),),
            frame_corrupts=(FrameCorrupt(endpoint="b2", at_frame=1, count=1),),
        )

    def test_json_round_trip(self):
        plan = self.network_plan()
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_dict_round_trip(self):
        plan = self.network_plan()
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_network_plan_is_not_empty(self):
        assert not self.network_plan().empty

    def test_without_worker_keeps_network_faults(self):
        narrowed = self.network_plan().without_worker(0)
        assert narrowed.connection_drops == self.network_plan().connection_drops
        assert narrowed.slow_links == self.network_plan().slow_links
        assert narrowed.frame_corrupts == self.network_plan().frame_corrupts

    def test_wire_actions_sequencing_and_budgets(self):
        from repro.faults import ConnectionDrop, FaultPlan, SlowLink

        faults.install(FaultPlan(
            connection_drops=(
                ConnectionDrop(endpoint="b1", after_frames=1, count=2),
            ),
            slow_links=(SlowLink(endpoint="b1", seconds=0.5),),
        ))
        # Frame 0: delay only (drop starts after_frames=1).
        first = faults.wire_actions("b1")
        assert first is not None and not first.drop
        assert first.delay == pytest.approx(0.5)
        # Frames 1-2: the two budgeted drops.
        assert faults.wire_actions("b1").drop
        assert faults.wire_actions("b1").drop
        # Frame 3: budget spent — the link has recovered (delay remains).
        recovered = faults.wire_actions("b1")
        assert recovered is not None and not recovered.drop

    def test_wire_actions_endpoints_count_independently(self):
        from repro.faults import ConnectionDrop, FaultPlan

        faults.install(FaultPlan(
            connection_drops=(
                ConnectionDrop(endpoint="b1", after_frames=1, count=1),
            ),
        ))
        assert faults.wire_actions("b2") is None  # frame 0 on b2
        assert faults.wire_actions("b1") is None  # frame 0 on b1
        assert faults.wire_actions("b1").drop    # frame 1 on b1
        assert faults.wire_actions("b2") is None  # frame 1 on b2: no match

    def test_corrupt_skipped_on_dropped_frame(self):
        from repro.faults import ConnectionDrop, FaultPlan, FrameCorrupt

        faults.install(FaultPlan(
            connection_drops=(ConnectionDrop(endpoint="b1", count=1),),
            frame_corrupts=(FrameCorrupt(endpoint="b1", count=1),),
        ))
        first = faults.wire_actions("b1")
        assert first.drop and not first.corrupt
        second = faults.wire_actions("b1")
        assert second.corrupt and not second.drop

    def test_no_actions_without_plan(self):
        assert faults.wire_actions("anything") is None
