"""Parallel execution plan: the (tp, cp, pp, ep, dp, micro batch, chunks) tuple.

A plan is always tied to a concrete layer count so that derived quantities
(layers per stage, micro-batches per step, world size) are well defined.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

from .errors import ShapeError, check_count, check_keys

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
DEGREES = tuple(DIMS.values())[:5]
# A plan's search-dimension values as a tuple, in DIMS order.
dim_values = attrgetter(*DIMS.values())


@dataclass(frozen=True)
class ParallelPlan:
    tp: int = 1
    cp: int = 1
    pp: int = 1
    ep: int = 1
    dp: int = 1
    micro_batch: int = 1
    global_batch: int = 1
    chunks: int = 1          # pipeline model chunks per device (virtual stages)
    num_layers: int = 1

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

    def validate(self) -> None:
        """Check integer/divisibility invariants; raises ShapeError on the
        first violated dimension."""
        for name in PLAN_KEYS.values():
            if getattr(self, name) < 1:
                raise ShapeError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.num_layers % (self.pp * self.chunks) != 0:
            raise ShapeError(
                f"num_layers={self.num_layers} not divisible by "
                f"pp*chunks={self.pp * self.chunks}"
            )
        if self.global_batch % (self.micro_batch * self.dp) != 0:
            raise ShapeError(
                f"global_batch={self.global_batch} not divisible by "
                f"micro_batch*dp={self.micro_batch * self.dp}"
            )

    @classmethod
    def from_json_dict(cls, data: dict, num_layers: int | None = None) -> "ParallelPlan":
        """Build from the config keys of PLAN_KEYS; every value must be an
        integer >= 1."""
        check_keys(data, tuple(PLAN_KEYS), "plan")
        kwargs = {PLAN_KEYS[key]: check_count(key, value) for key, value in data.items()}
        if num_layers is not None:
            kwargs.setdefault("num_layers", num_layers)
        plan = cls(**kwargs)
        plan.validate()
        return plan

    def to_json_dict(self) -> dict:
        return {key: getattr(self, name) for key, name in PLAN_KEYS.items()}
