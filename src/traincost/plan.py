"""Parallel execution plan: the (tp, cp, pp, ep, dp, micro batch, chunks) tuple,
and the interleaved-1F1B schedule order it runs.

A plan is always tied to a concrete layer count so that derived quantities
(layers per stage, micro-batches per step, world size) are well defined.
The schedule (each stage's warmup, each virtual slot's micro-batch and
chunks, and the merge of forwards and backwards into one device's order) is
defined here once: the replays in oracle.py execute it, while basecost's
phase formulas and optim's retention factor count it.
"""

from __future__ import annotations

from operator import attrgetter

from .errors import MAX_COUNT, InputError, ShapeError, check_count, check_keys, record

# Config key -> ParallelPlan field. The order is the one plans are searched,
# ranked (after step time) and printed in, and golden outputs depend on it.
PLAN_KEYS = {
    "t": "tp", "c": "cp", "p": "pp", "e": "ep", "d": "dp",
    "m_bs": "micro_batch", "g_bs": "global_batch", "v": "chunks",
    "L": "num_layers",
}
# The seven search dimensions; the first five are the parallel degrees, whose
# product is the world size.
DIMS = {key: name for key, name in PLAN_KEYS.items() if key not in ("g_bs", "L")}
# A plan's search-dimension values as a tuple, in DIMS order.
dim_values = attrgetter(*DIMS.values())


@record
class ParallelPlan:
    def __new__(cls, tp: int = 1, cp: int = 1, pp: int = 1, ep: int = 1, dp: int = 1,
                micro_batch: int = 1, global_batch: int = 1, chunks: int = 1,
                num_layers: int = 1):
        """chunks is the pipeline model chunks per device (virtual stages).
        Raises ShapeError for a field below 1, then for layers not divisible
        by pp*chunks, then for a global batch not divisible by micro_batch*dp."""
        values = (tp, cp, pp, ep, dp, micro_batch, global_batch, chunks, num_layers)
        for name, value in zip(cls._fields, values):
            if value < 1:
                raise ShapeError(f"{name} must be >= 1, got {value}")
        if num_layers % (pp * chunks) != 0:
            raise ShapeError(
                f"num_layers={num_layers} not divisible by pp*chunks={pp * chunks}")
        if global_batch % (micro_batch * dp) != 0:
            raise ShapeError(
                f"global_batch={global_batch} not divisible by "
                f"micro_batch*dp={micro_batch * dp}")
        return tuple.__new__(cls, values)

    @property
    def world_size(self) -> int:
        return self.tp * self.cp * self.pp * self.ep * self.dp

    @property
    def micro_batches(self) -> int:
        """Micro-batches injected into the pipeline per step."""
        return self.global_batch // (self.micro_batch * self.dp)

    @property
    def layers_per_stage(self) -> int:
        return self.num_layers // (self.pp * self.chunks)

    def warmup_depth(self, stage: int) -> int:
        """Forwards `stage` runs before its first backward in interleaved 1F1B,
        2(pp-stage-1) + (chunks-1)pp, uncapped by the forwards there are."""
        return 2 * (self.pp - stage - 1) + (self.chunks - 1) * self.pp

    def warmups(self) -> list[int]:
        """Forwards each stage runs before its first backward in the schedule
        the replays execute; raises InputError outside the regime they support.

        The depth is warmup_depth capped at the m_b*v forwards, for every
        chunk count, v=1 included: the deeper-than-classic warmup only moves
        forwards into otherwise idle bubble time (single-chunk makespans are
        unchanged; property-checked in the tests) while producing the
        activation residency the memory model assumes."""
        p, v, m_b = self.pp, self.chunks, self.micro_batches
        if m_b < p:
            raise InputError(
                f"unsupported regime: micro_batches={m_b} < pp={p}; "
                "the analytic formula remains usable"
            )
        if v > 1 and m_b % p != 0:
            raise InputError("interleaved schedule needs micro_batches divisible by pp")
        if v > 1 and m_b == p:
            return [m_b * v] * p  # all forwards first, then all backwards
        return [min(self.warmup_depth(r), m_b * v) for r in range(p)]

    def slots(self) -> tuple[list[int], list[int], list[int]]:
        """Each virtual slot's micro-batch, forward chunk and backward chunk,
        the same on every stage: micro-batches go in groups of pp, each group
        cycling through the chunks, and backwards run the chunks in reverse."""
        p, v = self.pp, self.chunks
        every = range(self.micro_batches * v)
        fwd = [s % (p * v) // p for s in every]
        return [s // (p * v) * p + s % p for s in every], fwd, [v - 1 - c for c in fwd]

    @classmethod
    def from_json_dict(cls, data: dict, num_layers: int | None = None) -> "ParallelPlan":
        """Build from the config keys of PLAN_KEYS; every value must be an
        integer in [1, MAX_COUNT]."""
        check_keys(data, tuple(PLAN_KEYS), "plan")
        kwargs = {PLAN_KEYS[key]: check_count(key, value, high=MAX_COUNT)
                  for key, value in data.items()}
        if num_layers is not None:
            kwargs.setdefault("num_layers", num_layers)
        return cls(**kwargs)

    def to_json_dict(self) -> dict:
        return {key: getattr(self, name) for key, name in PLAN_KEYS.items()}


def in_device_order(fwd: list, bwd: list, warmup: int) -> list:
    """Merge per-slot forward and backward columns into one device's op
    order: `warmup` forwards, one-forward-one-backward pairs, trailing
    backwards."""
    out, paired = fwd + bwd, len(fwd) - warmup
    out[warmup:warmup + 2 * paired:2], out[warmup + 1:warmup + 2 * paired:2] = \
        fwd[warmup:], bwd[:paired]
    return out
