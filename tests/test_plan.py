import pytest

from traincost.errors import ShapeError
from traincost.plan import ParallelPlan


class TestDerivedQuantities:
    def test_world_size_and_micro_batches(self):
        plan = ParallelPlan(tp=8, cp=1, pp=8, ep=1, dp=2, micro_batch=2,
                            global_batch=256, chunks=5, num_layers=80)
        assert plan.world_size == 128
        assert plan.micro_batches == 64
        assert plan.layers_per_stage == 2

    def test_validate_accepts_consistent_plan(self):
        ParallelPlan(pp=2, micro_batch=2, global_batch=8, dp=2,
                     num_layers=4).validate()

    def test_validate_layer_divisibility(self):
        with pytest.raises(ShapeError, match="num_layers"):
            ParallelPlan(pp=3, global_batch=3, num_layers=4).validate()

    def test_validate_batch_divisibility(self):
        with pytest.raises(ShapeError, match="global_batch"):
            ParallelPlan(micro_batch=3, global_batch=8, num_layers=1).validate()

    def test_validate_positive_dimensions(self):
        with pytest.raises(ShapeError, match="dp"):
            ParallelPlan(dp=0, num_layers=1).validate()

    def test_json_round_trip(self):
        plan = ParallelPlan.from_json_dict(
            {"t": 8, "c": 1, "p": 8, "e": 1, "d": 2, "m_bs": 2,
             "g_bs": 256, "v": 5}, num_layers=80)
        assert plan.tp == 8 and plan.chunks == 5
        assert ParallelPlan.from_json_dict(plan.to_json_dict()) == plan

    def test_with_updates_field(self):
        plan = ParallelPlan(num_layers=4)
        assert plan.with_(chunks=2).chunks == 2
        assert plan.chunks == 1
