import pytest

from helpers import make_db, make_hardware, tiny_dense, tiny_moe
from traincost.basecost import evaluate_plan, layer_cost, pipeline_time
from traincost.errors import ConfigError, InputError, ProfileLookupError
from traincost.plan import ParallelPlan
from traincost.profile import (
    CommBucket,
    CommEntry,
    CommProfile,
    ComputeEntry,
    ComputeProfile,
    HardwareSpec,
    comm_time,
    op_time,
    roofline_bound,
)


class TestPrimitives:
    def test_op_time_unit_ratio(self):
        assert op_time(2e12, 1e12) == 2.0

    def test_op_time_zero_work(self):
        assert op_time(0, 5e12) == 0.0

    def test_op_time_qkv_example(self):
        assert op_time(6 * 4096 * 8192**2, 2e14) == pytest.approx(8.246e-3, rel=1e-3)

    def test_op_time_rejects_nonpositive_throughput(self):
        with pytest.raises(InputError):
            op_time(1.0, 0.0)

    def test_comm_time_no_decay(self):
        assert comm_time(10e9, 100e9, 1.0) == pytest.approx(0.1)

    def test_comm_time_decay_halves_bandwidth(self):
        assert comm_time(10e9, 100e9, 0.5) == pytest.approx(0.2)

    def test_comm_time_zero_bytes(self):
        assert comm_time(0, 100e9) == 0.0

    @pytest.mark.parametrize("beta", [0.0, -0.1, 1.5])
    def test_comm_time_rejects_bad_decay(self, beta):
        with pytest.raises(InputError):
            comm_time(1.0, 1e9, beta)

    def test_comm_time_monotone_in_decayed_bandwidth(self):
        times = [comm_time(1e9, 1e9 * bw, 0.5) for bw in (1, 2, 4, 8)]
        assert times == sorted(times, reverse=True)

    def test_comm_time_linear_in_bytes(self):
        assert comm_time(6e9, 100e9, 0.5) == pytest.approx(
            3 * comm_time(2e9, 100e9, 0.5))


class TestRoofline:
    def test_memory_bound_arm(self):
        hw = make_hardware(hbm_bw=2000e9, gpu_peak_flops=512e12)
        assert roofline_bound(100.0, 1.0, hw) == pytest.approx(2.0e14)

    def test_compute_bound_clamp(self):
        hw = make_hardware()
        assert roofline_bound(1e9, 1.0, hw) == hw.gpu_peak_flops

    def test_zero_traffic_is_compute_bound(self):
        hw = make_hardware()
        assert roofline_bound(1e12, 0.0, hw) == hw.gpu_peak_flops

    def test_always_below_peak(self):
        hw = make_hardware()
        for intensity in (0.1, 1, 10, 100, 1e4, 1e8):
            assert roofline_bound(intensity, 1.0, hw) <= hw.gpu_peak_flops


def one_byte_per_s_db():
    """A flat profile whose every link moves 1 B/s, so each collective's time
    equals the bytes it moves."""
    return make_db(bandwidth_gbps=1e-9)


class TestCommVolume:
    """The bytes each collective moves, read from layer_cost and
    evaluate_plan on 1 B/s links."""

    def test_pp_hop_bytes(self):
        # one context-sharded activation, b*(s/cp)*h*D_act
        arch = tiny_dense(s=4096, h=8192)
        for cp, hop in ((1, 67_108_864.0), (2, 33_554_432.0)):
            plan = ParallelPlan(pp=2, cp=cp, micro_batch=1, global_batch=2,
                                num_layers=arch.num_layers)
            cost = evaluate_plan(arch, plan, one_byte_per_s_db()).cost
            assert cost.t_pp == pipeline_time(0.0, 0.0, plan, t_pp=hop).total

    def test_dp_from_params(self):
        # D_grad * chunks * layers per stage * params per layer: 2*2*1*168
        arch = tiny_dense(l=4)
        plan = ParallelPlan(pp=2, chunks=2, dp=2, micro_batch=1, global_batch=4,
                            num_layers=arch.num_layers)
        cost = evaluate_plan(arch, plan, one_byte_per_s_db()).cost
        assert cost.t_dp == pytest.approx(672.0, rel=1e-12)

    def test_tp_volume_zero_when_unsharded(self, dense_arch):
        plan = ParallelPlan(num_layers=dense_arch.num_layers)
        lc = layer_cost(dense_arch, plan, one_byte_per_s_db())
        assert (lc.fwd.tp, lc.bwd.tp) == (0.0, 0.0)

    def test_tp_bytes(self):
        # a full activation b*s*h*D_act = 2*8*8*2 per collective, 2 all-gathers
        # and 2 reduce-scatters per direction
        arch = tiny_dense(s=8, h=8, a=2)
        plan = ParallelPlan(tp=2, micro_batch=2, global_batch=2,
                            num_layers=arch.num_layers)
        lc = layer_cost(arch, plan, one_byte_per_s_db())
        assert lc.fwd.tp == lc.bwd.tp == pytest.approx(4 * 256.0, rel=1e-12)

    def test_ep_uses_topk(self):
        # b*(s/cp)*t_k*h*D_act = 1*8*2*4*2 per all-to-all, dispatch and combine
        arch = tiny_moe(s=8, h=4, t_k=2)
        plan = ParallelPlan(ep=2, micro_batch=1, global_batch=2,
                            num_layers=arch.num_layers)
        lc = layer_cost(arch, plan, one_byte_per_s_db())
        assert lc.fwd.ep == pytest.approx(2 * 128.0, rel=1e-12)

    def test_cp_shards_sequence(self):
        # b*(s/cp)*h*D_act = 1*2*8*2 per ring hop, cp-1 hops
        arch = tiny_dense(s=8, h=8)
        plan = ParallelPlan(cp=4, micro_batch=1, global_batch=1,
                            num_layers=arch.num_layers)
        lc = layer_cost(arch, plan, one_byte_per_s_db())
        assert lc.fwd.cp == pytest.approx(3 * 32.0, rel=1e-12)


class TestProfiles:
    def test_compute_lookup_wildcard_fallback(self):
        profile = ComputeProfile((ComputeEntry("*", 3e12),))
        assert profile.lookup("norm").throughput() == 3e12

    def test_compute_lookup_missing_names_key(self):
        profile = ComputeProfile((ComputeEntry("qkv", 1e12),))
        with pytest.raises(ProfileLookupError, match="norm"):
            profile.lookup("norm")

    def test_backward_defaults_to_forward(self):
        profile = ComputeProfile((ComputeEntry("qkv", 1e12),))
        assert profile.lookup("qkv").throughput(backward=True) == 1e12

    def test_backward_override(self):
        profile = ComputeProfile((ComputeEntry("qkv", 1e12, bwd_flops_per_s=5e11),))
        assert profile.lookup("qkv").throughput(backward=True) == 5e11

    def test_bucket_rejects_bad_beta(self):
        with pytest.raises(InputError):
            CommBucket(1.0, 1e9, beta=1.5)

    def test_compute_lookup_first_entry_wins(self):
        profile = ComputeProfile((
            ComputeEntry("qkv", 1e12),
            ComputeEntry("qkv", 3e12),
            ComputeEntry("*", 5e12),
            ComputeEntry("*", 6e12),
        ))
        assert profile.lookup("qkv").throughput() == 1e12
        assert profile.lookup("norm").throughput() == 5e12

    def test_completeness_flags(self):
        assert ComputeProfile((ComputeEntry("qkv", 1e12),
                               ComputeEntry("*", 1e12))).has_wildcard
        assert not ComputeProfile((ComputeEntry("qkv", 1e12),)).has_wildcard
        full = make_db().comm
        assert full.has_every_kind
        assert not CommProfile(full.entries[1:]).has_every_kind

    @pytest.mark.parametrize("size", [0.0, -1.0, float("nan")])
    def test_bucket_rejects_non_positive_size(self, size):
        with pytest.raises(InputError, match="bucket size"):
            CommBucket(size, 1e9)

    @pytest.mark.parametrize("group_size", [0, -8])
    def test_entry_rejects_group_size_below_one(self, group_size):
        with pytest.raises(InputError, match="group_size"):
            CommEntry("all-reduce", group_size, (CommBucket(1.0, 1e9),))

    def test_entry_rejects_duplicate_bucket_sizes(self):
        with pytest.raises(InputError, match="duplicate bucket size 5"):
            CommEntry("all-gather", 8, (
                CommBucket(1.0, 10e9), CommBucket(5.0, 20e9),
                CommBucket(5.0, 40e9),
            ))

    def test_buckets_sorted_at_construction(self):
        low, high = CommBucket(1e6, 50e9, 1.0), CommBucket(1e8, 150e9, 0.9)
        shuffled = CommEntry("all-gather", 8, (high, low))
        assert shuffled.buckets == (low, high)
        bw, beta = CommProfile((shuffled,)).effective_bandwidth("all-gather", 8, 1e7)
        assert (bw, beta) == (pytest.approx(100e9), pytest.approx(0.95))

    def test_comm_lookup_missing_kind(self):
        comm = CommProfile((CommEntry("p2p", 2, (CommBucket(1.0, 1e9),)),))
        with pytest.raises(ProfileLookupError, match="all-gather"):
            comm.effective_bandwidth("all-gather", 8, 1e6)

    def test_group_size_nearest_in_log_space(self):
        comm = CommProfile((
            CommEntry("all-reduce", 8, (CommBucket(1.0, 100e9),)),
            CommEntry("all-reduce", 64, (CommBucket(1.0, 50e9),)),
        ))
        bw, _ = comm.effective_bandwidth("all-reduce", 16, 1e6)
        assert bw == 100e9
        bw, _ = comm.effective_bandwidth("all-reduce", 48, 1e6)
        assert bw == 50e9

    def test_interpolation_continuous_and_clamped(self):
        entry = CommEntry("all-gather", 8, (
            CommBucket(1e6, 50e9, 1.0),
            CommBucket(1e8, 150e9, 0.9),
        ))
        comm = CommProfile((entry,))
        # clamped outside the profiled range
        assert comm.effective_bandwidth("all-gather", 8, 10.0)[0] == 50e9
        assert comm.effective_bandwidth("all-gather", 8, 1e12)[0] == 150e9
        # no jumps across the bucket boundary
        lo, _ = comm.effective_bandwidth("all-gather", 8, 1e6 * (1 - 1e-9))
        hi, _ = comm.effective_bandwidth("all-gather", 8, 1e6 * (1 + 1e-9))
        assert hi == pytest.approx(lo, rel=1e-6)
        # halfway in log space interpolates halfway in bandwidth
        mid, beta = comm.effective_bandwidth("all-gather", 8, 1e7)
        assert mid == pytest.approx(100e9)
        assert beta == pytest.approx(0.95)

    def test_interpolated_latency_monotone_in_size(self):
        db = make_db()
        entry = CommEntry("all-gather", 8, (
            CommBucket(1e6, 50e9), CommBucket(1e8, 150e9),
        ))
        comm = CommProfile((entry,))
        sizes = [10 ** (6 + 0.1 * i) for i in range(21)]
        latencies = []
        for size in sizes:
            bw, beta = comm.effective_bandwidth("all-gather", 8, size)
            latencies.append(comm_time(size, bw, beta))
        assert latencies == sorted(latencies)


class TestHardwareSpec:
    def test_unit_conversion_from_json(self):
        hw = HardwareSpec.from_json_dict({
            "B_H2D": 32, "B_D2H": 16, "M_CPU": 2000, "F_CPU": 3.0,
            "P_GPU": 512, "M_GPU": 64, "N": 8,
        })
        assert hw.h2d_bw == 32e9
        assert hw.d2h_bw == 16e9
        assert hw.cpu_memory == 2000e9
        assert hw.cpu_flops == 3e9
        assert hw.gpu_peak_flops == 512e12
        assert hw.gpu_memory == 64e9

    def test_missing_field(self):
        with pytest.raises(ConfigError, match="B_H2D"):
            HardwareSpec.from_json_dict({"B_D2H": 16})

    def test_positivity_enforced(self):
        with pytest.raises(InputError):
            make_hardware(gpu_peak_flops=0.0)
