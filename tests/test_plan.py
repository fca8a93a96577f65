import pytest

from traincost.errors import InputError, ShapeError
from traincost.plan import ParallelPlan


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
