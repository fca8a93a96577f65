"""The record contract. Every traincost record is a NamedTuple: its repr is
pinned, it cannot be assigned to, and `_replace` runs the checks and
normalisation of its constructor."""

import importlib
import math
import pkgutil
from array import array

import pytest

import traincost
from traincost.arch import ModelArchitecture, ModuleOverride, ModuleShape, decompose
from traincost.basecost import (CostReport, Dtypes, LayerCost, MemoryReport, PipelinePhases,
                                PlanEvaluation, TimeParts)
from traincost.config import FaultSection, RunConfig
from traincost.errors import InputError, ShapeError
from traincost.fault import CheckpointPolicy, EttrReport, FaultModel
from traincost.optim import DpOverlapCoeffs, OffloadCoeffs, OptimizationSet, OverlapCoeffs
from traincost.oracle import PipelineTrace, TraceEvent
from traincost.plan import ParallelPlan
from traincost.profile import (CommBucket, CommEntry, CommProfile, ComputeEntry,
                               ComputeProfile, HardwareSpec, ProfileDB)
from traincost.tuner import Candidate, SearchSpace, SweepResult, TuneResult
from traincost.verification import SuiteResult, VerifyReport


def samples() -> dict:
    """One instance of every record class, keyed by class name."""
    hw = HardwareSpec(h2d_bw=1, d2h_bw=2.0, cpu_memory=3.0, cpu_flops=4.0,
                      gpu_peak_flops=5.0, gpu_memory=6.0, gpus_per_node=8,
                      hbm_bw=7.0, optimizer_throughput=9.0)
    compute = ComputeProfile((ComputeEntry("qkv", 2.0, intensity=3),
                              ComputeEntry("*", 1.0, bwd_flops_per_s=0.5)))
    entry = CommEntry("p2p", 2, (CommBucket(10.0, 2.0), CommBucket(1, 1.0, 0.5)))
    db = ProfileDB(hw, compute, CommProfile((entry,)))
    arch = ModelArchitecture(num_layers=2, hidden_size=4, seq_len=8, num_heads=2,
                             vocab_size=16, dense_ffn_size=8, query_groups=1,
                             attention_kind="GQA",
                             module_overrides={"qkv": ModuleOverride(params=3)})
    plan = ParallelPlan(tp=2, pp=2, micro_batch=1, global_batch=4, num_layers=2)
    opts = OptimizationSet(compute_scaling={"*": 0.5}, tp_overlap=OverlapCoeffs(splits=2),
                           optimizer_strategy="distributed")
    fault = FaultModel(4, 1, mix=[0.25, 0.5, 0.25], mean_repair_s=60)
    cost = CostReport(*(float(i) for i in range(16)))
    memory = MemoryReport(1.0, 2.0, 3.0, 4.0, 5.0, 6.0, ("note",))
    candidate = Candidate(plan, opts, 1, cost, memory, interval=5, ettr=0.5)
    suite = SuiteResult("suite", True, "ok")
    records = [
        ModuleOverride(flops_per_token=2.0), arch, ModuleShape("norm", 1.0, 2.0, 3.0),
        decompose(arch, ParallelPlan(num_layers=2)),
        Dtypes(param_bytes=1, opt_bytes=8.0), TimeParts(1.0, tp=2.0),
        LayerCost(TimeParts(1.0), TimeParts(2.0), 0.5, 0.25),
        FaultSection(fault, save_s=3, total_steps=10, tokens=100),
        RunConfig(arch, db, plan=plan, opt_combos=(opts,)),
        fault, CheckpointPolicy(10, 2.0, 100, 1.5), EttrReport(0.5, 1.0, 2.0, 3.0, 4.0),
        OverlapCoeffs(1.5, 2, 3), DpOverlapCoeffs(alpha_rs=2, mode="verbatim"),
        OffloadCoeffs(alpha_fetch=1.5), opts, plan, hw, compute.entries[0], compute,
        entry.buckets[0], entry, db.comm, db,
        SearchSpace(arch, db, 8, 16, tp_candidates=(1, 2), opt_combos=(opts,)),
        candidate, TuneResult((candidate,), 3, {"memory": 2}),
        SweepResult("v", ("value", "T_step"), ((1, 2.0),)), suite, VerifyReport((suite,)),
        cost, memory, PlanEvaluation(None, memory), PipelinePhases(1.0, 2.0, 3.0, 6.0),
        TraceEvent("fwd", 0, 1, 2, 0.5, 1.5),
        PipelineTrace(2.0, array("d", [0.0, 1.0]), array("d", [1.0, 2.0]), [0], [0], [0]),
    ]
    return {type(r).__name__: r for r in records}


SAMPLES = samples()

# Each sample's repr, with the repr of every other, larger sample it holds
# shown as <ClassName>.
PINNED = {
    "ModuleOverride": (
        "ModuleOverride(flops_per_token=2.0, act_elems_per_token=None, params=None)"),
    "ModelArchitecture": (
        "ModelArchitecture(num_layers=2, hidden_size=4, seq_len=8, num_heads=2, "
        "vocab_size=16, dense_ffn_size=8, query_groups=1, expert_ffn_size=None, "
        "top_k=None, num_experts=None, attention_kind='GQA', structure_kind='Dense', "
        "module_overrides={'qkv': ModuleOverride(flops_per_token=None, "
        "act_elems_per_token=None, params=3)})"),
    "ModuleShape": (
        "ModuleShape(name='norm', flops_fwd=1.0, act_bytes=2.0, param_count=3.0, "
        "is_expert=False)"),
    "Decomposition": (
        "Decomposition(layer=(ModuleShape(name='norm', flops_fwd=32.0, act_bytes=128.0, "
        "param_count=4.0, is_expert=False), ModuleShape(name='qkv', flops_fwd=512.0, "
        "act_bytes=128.0, param_count=3.0, is_expert=False), "
        "ModuleShape(name='attention-map', flops_fwd=512.0, act_bytes=384.0, "
        "param_count=0.0, is_expert=False), ModuleShape(name='softmax', flops_fwd=0.0, "
        "act_bytes=256.0, param_count=0.0, is_expert=False), "
        "ModuleShape(name='attention-on-value', flops_fwd=512.0, act_bytes=256.0, "
        "param_count=0.0, is_expert=False), ModuleShape(name='o-projection', "
        "flops_fwd=256.0, act_bytes=128.0, param_count=16.0, is_expert=False), "
        "ModuleShape(name='norm', flops_fwd=32.0, act_bytes=128.0, param_count=4.0, "
        "is_expert=False), ModuleShape(name='mlp-linear-1', flops_fwd=1024.0, "
        "act_bytes=128.0, param_count=64.0, is_expert=False), ModuleShape(name='swiglu', "
        "flops_fwd=64.0, act_bytes=128.0, param_count=0.0, is_expert=False), "
        "ModuleShape(name='mlp-linear-2', flops_fwd=512.0, act_bytes=128.0, "
        "param_count=32.0, is_expert=False)), embedding=ModuleShape(name='embedding', "
        "flops_fwd=32.0, act_bytes=128.0, param_count=64.0, is_expert=False), "
        "head=ModuleShape(name='head', flops_fwd=1024.0, act_bytes=64.0, "
        "param_count=64.0, is_expert=False))"),
    "Dtypes": "Dtypes(param_bytes=1, grad_bytes=2.0, opt_bytes=8.0, act_bytes=2.0)",
    "TimeParts": "TimeParts(cal=1.0, tp=2.0, cp=0.0, ep=0.0)",
    "LayerCost": (
        "LayerCost(fwd=TimeParts(cal=1.0, tp=0.0, cp=0.0, ep=0.0), "
        "bwd=TimeParts(cal=2.0, tp=0.0, cp=0.0, ep=0.0), t_qkv_fwd=0.5, "
        "t_attention_fwd=0.25)"),
    "FaultSection": (
        "FaultSection(model=<FaultModel>, save_s=3.0, interval_steps=None, "
        "total_steps=10, tokens=100.0)"),
    "RunConfig": (
        "RunConfig(arch=<ModelArchitecture>, db=<ProfileDB>, plan=<ParallelPlan>, "
        "space=None, opt_combos=(<OptimizationSet>,), fault=None, "
        "dtypes=Dtypes(param_bytes=2.0, grad_bytes=2.0, opt_bytes=4.0, act_bytes=2.0), "
        "output_format='json', tflops_mode='fwd-bwd-per-device', schema_version=1)"),
    "FaultModel": (
        "FaultModel(nodes=4, failures_per_node_day=1.0, recovery_process_s=141.0, "
        "recovery_pod_s=262.0, recovery_job_s=307.0, mix=(0.25, 0.5, 0.25), init_s=0.0, "
        "mean_repair_s=60.0)"),
    "CheckpointPolicy": (
        "CheckpointPolicy(interval_steps=10, save_s=2.0, total_steps=100, step_s=1.5)"),
    "EttrReport": (
        "EttrReport(ettr=0.5, training_s=1.0, interruption_s=2.0, e2e_s=3.0, "
        "expected_failures=4.0)"),
    "OverlapCoeffs": "OverlapCoeffs(alpha=1.5, beta=2, splits=3)",
    "DpOverlapCoeffs": (
        "DpOverlapCoeffs(alpha_rs=2, beta_bwd=1.0, alpha_ag=1.0, beta_fwd=1.0, "
        "mode='verbatim')"),
    "OffloadCoeffs": (
        "OffloadCoeffs(alpha_offload=1.0, beta_offload=1.0, alpha_fetch=1.5, "
        "beta_fetch=1.0)"),
    "OptimizationSet": (
        "OptimizationSet(compute_scaling={'*': 0.5}, comm_scaling={}, "
        "tp_overlap=OverlapCoeffs(alpha=1.0, beta=1.0, splits=2), cp_overlap=None, "
        "ep_overlap=None, pp_overlap=None, dp_overlap=None, "
        "optimizer_strategy='distributed', activation_strategy='none', "
        "offload_coeffs=OffloadCoeffs(alpha_offload=1.0, beta_offload=1.0, "
        "alpha_fetch=1.0, beta_fetch=1.0))"),
    "ParallelPlan": (
        "ParallelPlan(tp=2, cp=1, pp=2, ep=1, dp=1, micro_batch=1, global_batch=4, "
        "chunks=1, num_layers=2)"),
    "HardwareSpec": (
        "HardwareSpec(h2d_bw=1, d2h_bw=2.0, cpu_memory=3.0, cpu_flops=4.0, "
        "gpu_peak_flops=5.0, gpu_memory=6.0, gpus_per_node=8, hbm_bw=7.0, "
        "optimizer_throughput=9.0)"),
    "ComputeEntry": (
        "ComputeEntry(module='qkv', fwd_flops_per_s=2.0, bwd_flops_per_s=None, "
        "intensity=3)"),
    "ComputeProfile": (
        "ComputeProfile(entries=(<ComputeEntry>, ComputeEntry(module='*', "
        "fwd_flops_per_s=1.0, bwd_flops_per_s=0.5, intensity=None)))"),
    "CommBucket": "CommBucket(message_bytes=1, bandwidth=1.0, beta=0.5)",
    "CommEntry": (
        "CommEntry(kind='p2p', group_size=2, buckets=(<CommBucket>, "
        "CommBucket(message_bytes=10.0, bandwidth=2.0, beta=1.0)))"),
    "CommProfile": "CommProfile(entries=(<CommEntry>,))",
    "ProfileDB": (
        "ProfileDB(hardware=<HardwareSpec>, compute=<ComputeProfile>, "
        "comm=<CommProfile>)"),
    "SearchSpace": (
        "SearchSpace(arch=<ModelArchitecture>, db=<ProfileDB>, total_gpus=8, "
        "global_batch=16, tp_candidates=(1, 2), cp_candidates=(), pp_candidates=(), "
        "ep_candidates=(), dp_candidates=(), micro_batch_candidates=(), "
        "chunk_candidates=(), opt_combos=(<OptimizationSet>,), "
        "dtypes=Dtypes(param_bytes=2.0, grad_bytes=2.0, opt_bytes=4.0, act_bytes=2.0), "
        "tflops_mode='fwd-bwd-per-device')"),
    "Candidate": (
        "Candidate(plan=<ParallelPlan>, opts=<OptimizationSet>, opts_index=1, "
        "cost=<CostReport>, memory=<MemoryReport>, interval=5, ettr=0.5, t_e2e=None, "
        "fault_note=None)"),
    "TuneResult": (
        "TuneResult(candidates=(<Candidate>,), evaluated=3, rejections={'memory': 2})"),
    "SweepResult": (
        "SweepResult(parameter='v', columns=('value', 'T_step'), rows=((1, 2.0),))"),
    "SuiteResult": "SuiteResult(name='suite', passed=True, detail='ok')",
    "VerifyReport": "VerifyReport(suites=(<SuiteResult>,))",
    "CostReport": (
        "CostReport(t_fwd=0.0, t_bwd=1.0, t_warmup=2.0, t_steady=3.0, t_cooldown=4.0, "
        "t_pipeline=5.0, t_dp=6.0, t_update=7.0, t_opt=8.0, t_step=9.0, tflops=10.0, "
        "t_cal=11.0, t_tp=12.0, t_pp=13.0, t_ep=14.0, t_cp=15.0, warnings=())"),
    "MemoryReport": (
        "MemoryReport(m_static=1.0, m_activation=2.0, m_peak=3.0, param_bytes=4.0, "
        "grad_bytes=5.0, optimizer_bytes=6.0, warnings=('note',))"),
    "PlanEvaluation": "PlanEvaluation(cost=None, memory=<MemoryReport>)",
    "PipelinePhases": (
        "PipelinePhases(warmup=1.0, steady=2.0, cooldown=3.0, total=6.0, warnings=())"),
    "TraceEvent": (
        "TraceEvent(kind='fwd', micro_batch=0, chunk=1, device=2, start=0.5, end=1.5)"),
    "PipelineTrace": (
        "PipelineTrace(makespan=2.0, starts=array('d', [0.0, 1.0]), ends=array('d', "
        "[1.0, 2.0]), micros=[0], fwd_chunks=[0], bwd_chunks=[0])"),
}


def shown(name: str) -> str:
    text = repr(SAMPLES[name])
    for other, record in sorted(SAMPLES.items(), key=lambda kv: -len(repr(kv[1]))):
        if other != name:
            text = text.replace(repr(record), f"<{other}>")
    return text


def test_every_record_class_has_a_sample():
    classes = set()
    for info in pkgutil.iter_modules(traincost.__path__):
        module = importlib.import_module(f"traincost.{info.name}")
        classes |= {name for name, obj in vars(module).items()
                    if isinstance(obj, type) and issubclass(obj, tuple)
                    and obj.__module__ == module.__name__}
    assert classes == set(SAMPLES) == set(PINNED)
    assert all(hasattr(record, "_fields") for record in SAMPLES.values())


@pytest.mark.parametrize("name", sorted(PINNED))
def test_repr_is_pinned(name):
    assert shown(name) == PINNED[name]


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_fields_cannot_be_set(name):
    record = SAMPLES[name]
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)


@pytest.mark.parametrize("name,field,bad", [
    ("OptimizationSet", "optimizer_strategy", "bogus"),
    ("FaultModel", "nodes", 0),
    ("CheckpointPolicy", "interval_steps", 0),
    ("CheckpointPolicy", "interval_steps", 2.5),
    ("CheckpointPolicy", "save_s", math.nan),
    ("CheckpointPolicy", "total_steps", True),
    ("CheckpointPolicy", "step_s", math.nan),
    ("CheckpointPolicy", "step_s", 0.0),
    ("HardwareSpec", "gpu_memory", math.nan),
    ("DpOverlapCoeffs", "alpha_ag", 0.0),
    ("ParallelPlan", "dp", 0),
    ("ParallelPlan", "pp", 3),
    ("ParallelPlan", "micro_batch", 3),
])
def test_replace_runs_the_constructor_checks(name, field, bad):
    """A ParallelPlan raises ShapeError, every other record InputError."""
    record = SAMPLES[name]
    error = ShapeError if name == "ParallelPlan" else InputError
    with pytest.raises(error) as built:
        type(record)(**{**record._asdict(), field: bad})
    with pytest.raises(error) as replaced:
        record._replace(**{field: bad})
    assert str(replaced.value) == str(built.value)


def test_replace_normalises_like_the_constructor():
    fault = SAMPLES["FaultModel"]._replace(mix=[0.3, 0.6, 0.1], nodes=8)
    assert fault.mix == (0.3, 0.6, 0.1)
    assert all(type(w) is float for w in fault.mix)
    entry = SAMPLES["CommEntry"]
    flipped = entry._replace(buckets=entry.buckets[::-1])
    assert [b.message_bytes for b in flipped.buckets] == [1, 10.0]
