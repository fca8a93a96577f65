"""Parallel execution plan: the (tp, cp, pp, ep, dp, micro batch, chunks) tuple.

A plan is always tied to a concrete layer count so that derived quantities
(layers per stage, micro-batches per step, world size) are well defined.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from .errors import ShapeError, check_count, check_keys


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

    def validate(self) -> None:
        """Check integer/divisibility invariants; raises ShapeError on the
        first violated dimension."""
        for name in ("tp", "cp", "pp", "ep", "dp", "micro_batch",
                     "global_batch", "chunks", "num_layers"):
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

    def with_(self, **kwargs) -> "ParallelPlan":
        return replace(self, **kwargs)

    @classmethod
    def from_json_dict(cls, data: dict, num_layers: int | None = None) -> "ParallelPlan":
        """Build from the short key convention used in config files
        (t, c, p, e, d, m_bs, g_bs, v); long key names are accepted too.
        Every value must be an integer >= 1."""
        key_map = {
            "t": "tp", "c": "cp", "p": "pp", "e": "ep", "d": "dp",
            "m_bs": "micro_batch", "g_bs": "global_batch", "v": "chunks",
            "L": "num_layers",
        }
        check_keys(data, (*key_map, *(f.name for f in fields(cls))), "plan")
        kwargs = {}
        for key, value in data.items():
            kwargs[key_map.get(key, key)] = check_count(key, value)
        if num_layers is not None:
            kwargs.setdefault("num_layers", num_layers)
        plan = cls(**kwargs)
        plan.validate()
        return plan

    def to_json_dict(self) -> dict:
        return {
            "t": self.tp, "c": self.cp, "p": self.pp, "e": self.ep,
            "d": self.dp, "m_bs": self.micro_batch, "g_bs": self.global_batch,
            "v": self.chunks, "L": self.num_layers,
        }
