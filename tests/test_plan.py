import itertools

import pytest

from traincost.errors import InputError, ShapeError
from traincost.plan import ParallelPlan, in_device_order


class TestDerivedQuantities:
    @pytest.mark.parametrize("pp,chunks", [(1, 1), (1, 3), (4, 1), (4, 2), (8, 5)])
    def test_warmup_depth(self, pp, chunks):
        plan = ParallelPlan(pp=pp, chunks=chunks, num_layers=pp * chunks)
        for stage in range(pp):
            assert plan.warmup_depth(stage) == 2 * (pp - stage - 1) + (chunks - 1) * pp
            assert plan.warmup_depth(stage) + 1 == chunks * pp + pp - 2 * stage - 1

    def test_world_size_and_micro_batches(self):
        plan = ParallelPlan(tp=8, cp=1, pp=8, ep=1, dp=2, micro_batch=2,
                            global_batch=256, chunks=5, num_layers=80)
        assert plan.world_size == 128
        assert plan.micro_batches == 64
        assert plan.layers_per_stage == 2

    def test_validate_accepts_consistent_plan(self):
        plan = ParallelPlan(pp=2, micro_batch=2, global_batch=8, dp=2, num_layers=4)
        assert plan == (1, 1, 2, 1, 2, 2, 8, 1, 4)

    def test_validate_layer_divisibility(self):
        with pytest.raises(ShapeError, match="num_layers"):
            ParallelPlan(pp=3, global_batch=3, num_layers=4)

    def test_validate_batch_divisibility(self):
        with pytest.raises(ShapeError, match="global_batch"):
            ParallelPlan(micro_batch=3, global_batch=8, num_layers=1)

    def test_validate_positive_dimensions(self):
        with pytest.raises(ShapeError, match="dp"):
            ParallelPlan(dp=0, num_layers=1)

    def test_validate_names_the_first_field_below_one(self):
        # fields are checked in PLAN_KEYS order, so tp is named before dp
        with pytest.raises(ShapeError) as info:
            ParallelPlan(tp=0, dp=0, num_layers=1)
        assert str(info.value) == "tp must be >= 1, got 0"
        with pytest.raises(ShapeError) as info:
            ParallelPlan(dp=-2, chunks=0, num_layers=1)
        assert str(info.value) == "dp must be >= 1, got -2"

    def test_json_round_trip(self):
        plan = ParallelPlan.from_json_dict(
            {"t": 8, "c": 1, "p": 8, "e": 1, "d": 2, "m_bs": 2,
             "g_bs": 256, "v": 5}, num_layers=80)
        assert plan.tp == 8 and plan.chunks == 5
        assert ParallelPlan.from_json_dict(plan.to_json_dict()) == plan

    def test_json_keys_in_search_order(self):
        plan = ParallelPlan(tp=2, cp=1, pp=4, ep=1, dp=8, micro_batch=1,
                            global_batch=64, chunks=2, num_layers=8)
        assert list(plan.to_json_dict().items()) == [
            ("t", 2), ("c", 1), ("p", 4), ("e", 1), ("d", 8), ("m_bs", 1),
            ("g_bs", 64), ("v", 2), ("L", 8)]

    @pytest.mark.parametrize("data", [{"tp": 8}, {"t": 8, "tp": 4}, {"num_layers": 80}])
    def test_json_rejects_field_names(self, data):
        with pytest.raises(InputError, match="unknown plan key"):
            ParallelPlan.from_json_dict(data, num_layers=80)


def schedule_plan(pp, chunks, micro_batches):
    return ParallelPlan(pp=pp, chunks=chunks, global_batch=micro_batches,
                        num_layers=pp * chunks)


class TestSchedule:
    @pytest.mark.parametrize("pp", [1, 2, 3, 4, 8])
    def test_warmups_cap_warmup_depth(self, pp):
        """Each stage's warmup is its depth capped at the forwards there are,
        except that an interleaved schedule with one micro-batch per stage
        runs every forward first."""
        for chunks, groups in itertools.product(range(1, 5), range(1, 4)):
            plan = schedule_plan(pp, chunks, pp * groups)
            forwards = plan.micro_batches * chunks
            if chunks > 1 and groups == 1:
                assert plan.warmups() == [forwards] * pp
            else:
                assert plan.warmups() == [min(plan.warmup_depth(r), forwards)
                                          for r in range(pp)]

    def test_single_chunk_allows_any_micro_batch_count_from_pp(self):
        assert schedule_plan(4, 1, 5).warmups() == [5, 4, 2, 0]

    @pytest.mark.parametrize("pp,chunks,micro_batches,match", [
        (4, 1, 3, "micro_batches=3 < pp=4"),
        (4, 2, 2, "micro_batches=2 < pp=4"),
        (4, 2, 6, "divisible by pp"),
    ])
    def test_warmups_reject_unsupported_regimes(self, pp, chunks, micro_batches, match):
        with pytest.raises(InputError, match=match):
            schedule_plan(pp, chunks, micro_batches).warmups()

    @pytest.mark.parametrize("pp,chunks,micro_batches", [(1, 1, 3), (2, 3, 4), (4, 2, 8)])
    def test_slots(self, pp, chunks, micro_batches):
        """Every (micro-batch, chunk) pair runs once per direction, and a
        backward runs the chunk v-1-c of its slot's forward chunk c."""
        micros, fwd, bwd = schedule_plan(pp, chunks, micro_batches).slots()
        slots = micro_batches * chunks
        assert len(micros) == len(fwd) == len(bwd) == slots
        assert all(b == chunks - 1 - f for f, b in zip(fwd, bwd))
        for chunk_of in (fwd, bwd):
            assert sorted(zip(micros, chunk_of)) == [
                (m, c) for m in range(micro_batches) for c in range(chunks)]

    def test_slots_pinned(self):
        """Micro-batches go in groups of pp, each group cycling through the
        chunks."""
        assert schedule_plan(2, 2, 4).slots() == (
            [0, 1, 0, 1, 2, 3, 2, 3], [0, 0, 1, 1, 0, 0, 1, 1], [1, 1, 0, 0, 1, 1, 0, 0])

    @pytest.mark.parametrize("warmup,order", [
        (0, ["f0", "b0", "f1", "b1", "f2", "b2"]),
        (1, ["f0", "f1", "b0", "f2", "b1", "b2"]),
        (3, ["f0", "f1", "f2", "b0", "b1", "b2"]),
    ])
    def test_in_device_order(self, warmup, order):
        fwd, bwd = ["f0", "f1", "f2"], ["b0", "b1", "b2"]
        assert in_device_order(fwd, bwd, warmup) == order
