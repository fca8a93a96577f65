"""Hardware description and profiled operator/communication performance.

The two primitive latency functions live here: compute time as work over
profiled throughput, and communication time as bytes over decayed algorithm
bandwidth.  Profiles are immutable after load; lookups are pure.

Communication bandwidth entries are bucketed by message size; lookup
interpolates bandwidth (and decay) piecewise-linearly over log message size
and clamps beyond the profiled range, so the resulting latency curve has no
jumps between buckets.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import (MAX_COUNT, ConfigError, InputError, ProfileLookupError, check_count,
                     check_keys, check_number, record)

COLLECTIVE_KINDS = ("all-gather", "reduce-scatter", "all-reduce", "all-to-all", "p2p")

GB = 1e9

# Config key and unit of each HardwareSpec value but gpus_per_node (key N):
# bandwidths in GB/s, memory in GB, CPU frequency in GHz, GPU compute in
# TFLOPS, optimizer throughput in Gparams/s.
_HARDWARE_KEYS = {
    "h2d_bw": ("B_H2D", GB), "d2h_bw": ("B_D2H", GB), "cpu_memory": ("M_CPU", GB),
    "cpu_flops": ("F_CPU", 1e9), "gpu_peak_flops": ("P_GPU", 1e12),
    "gpu_memory": ("M_GPU", GB), "hbm_bw": ("B_HBM", GB),
    "optimizer_throughput": ("P_opt", GB),
}
_HARDWARE_DEFAULTS = {"B_HBM": 2000.0, "P_opt": 1.0}


def _scaled(data: dict, key: str, unit: float) -> float:
    """A config value checked in its own unit, then converted to SI units, so
    that `true` cannot become 1e9."""
    return check_number(key, data[key], strict=True) * unit


@record
class HardwareSpec:
    """Node and device capabilities, in SI units (bytes, bytes/s, FLOPs/s)."""

    def __new__(cls, h2d_bw: float, d2h_bw: float, cpu_memory: float, cpu_flops: float,
                gpu_peak_flops: float, gpu_memory: float, gpus_per_node: int,
                hbm_bw: float, optimizer_throughput: float):
        """Check each value under its config key. The bandwidths are in bytes/s
        (h2d: host to device), memory in bytes, cpu_flops in operations/s,
        gpu_peak_flops the specification peak and optimizer_throughput in
        parameter updates/s."""
        values = (h2d_bw, d2h_bw, cpu_memory, cpu_flops, gpu_peak_flops, gpu_memory,
                  gpus_per_node, hbm_bw, optimizer_throughput)
        for name, value in zip(cls._fields, values):
            if name in _HARDWARE_KEYS:
                check_number(_HARDWARE_KEYS[name][0], value, strict=True)
        check_count("N", gpus_per_node, high=MAX_COUNT)
        return tuple.__new__(cls, values)

    @classmethod
    def from_json_dict(cls, data: dict) -> "HardwareSpec":
        """Accepts the config keys and units of _HARDWARE_KEYS plus N."""
        check_keys(data, (*(key for key, _ in _HARDWARE_KEYS.values()), "N"), "hardware")
        raw = {**_HARDWARE_DEFAULTS, **data}
        try:
            return cls(**{name: _scaled(raw, key, unit)
                          for name, (key, unit) in _HARDWARE_KEYS.items()},
                       gpus_per_node=raw["N"])
        except KeyError as exc:
            raise ConfigError(f"hardware spec missing field {exc}") from exc


@record
class ComputeEntry:
    def __new__(cls, module: str, fwd_flops_per_s: float,
                bwd_flops_per_s: float | None = None, intensity: float | None = None):
        """intensity, in FLOPs/byte, enables roofline capping."""
        check_number(f"{module} fwd_flops_per_s", fwd_flops_per_s, strict=True)
        for name, value in (("bwd_flops_per_s", bwd_flops_per_s), ("intensity", intensity)):
            if value is not None:
                check_number(f"{module} {name}", value, strict=True)
        return tuple.__new__(cls, (module, fwd_flops_per_s, bwd_flops_per_s, intensity))

    def throughput(self, backward: bool = False) -> float:
        if backward and self.bwd_flops_per_s is not None:
            return self.bwd_flops_per_s
        return self.fwd_flops_per_s


class ComputeProfile(NamedTuple):
    entries: tuple[ComputeEntry, ...]

    def lookup(self, module: str) -> ComputeEntry:
        """The module's first entry, else the first '*' wildcard entry."""
        for name in (module, "*"):
            for entry in self.entries:
                if entry.module == name:
                    return entry
        raise ProfileLookupError(f"no compute profile entry for module={module!r}")

    @property
    def has_wildcard(self) -> bool:
        """True when lookup cannot fail: a '*' entry exists."""
        return any(entry.module == "*" for entry in self.entries)


@record
class CommBucket:
    def __new__(cls, message_bytes: float, bandwidth: float, beta: float = 1.0):
        """bandwidth is in bytes/s."""
        check_number("bucket size", message_bytes, strict=True)
        check_number("bandwidth", bandwidth, strict=True)
        check_number("decay beta", beta, strict=True, high=1.0)
        return tuple.__new__(cls, (message_bytes, bandwidth, beta))


@record
class CommEntry:
    """One collective kind at one group size; buckets are stored sorted by
    message size."""

    def __new__(cls, kind: str, group_size: int, buckets: tuple[CommBucket, ...]):
        if kind not in COLLECTIVE_KINDS:
            raise InputError(f"unknown collective kind {kind!r}")
        check_count("group_size", group_size, high=MAX_COUNT)
        if not buckets:
            raise InputError(f"collective {kind} needs at least one bucket")
        buckets = tuple(sorted(buckets, key=lambda b: b.message_bytes))
        for lo, hi in zip(buckets, buckets[1:]):
            if lo.message_bytes == hi.message_bytes:
                raise InputError(f"collective {kind} group_size {group_size} "
                                 f"has duplicate bucket size {lo.message_bytes}")
        return tuple.__new__(cls, (kind, group_size, buckets))


class CommProfile(NamedTuple):
    entries: tuple[CommEntry, ...]

    @property
    def has_every_kind(self) -> bool:
        """True when entries_of cannot fail."""
        return len({entry.kind for entry in self.entries}) == len(COLLECTIVE_KINDS)

    def entries_of(self, kind: str) -> tuple[CommEntry, ...]:
        """The profiled entries of one collective kind, in file order."""
        entries = tuple(entry for entry in self.entries if entry.kind == kind)
        if not entries:
            raise ProfileLookupError(f"no bandwidth entry for collective kind={kind!r}")
        return entries

    def effective_bandwidth(self, kind: str, group_size: int,
                            message_bytes: float) -> tuple[float, float]:
        """Return (bandwidth, beta) for a collective; group size picks the
        nearest profiled group (log distance), message size interpolates."""
        entry = min(
            self.entries_of(kind),
            key=lambda e: (abs(math.log(e.group_size) - math.log(max(group_size, 1))),
                           e.group_size),
        )
        buckets = entry.buckets
        if message_bytes <= buckets[0].message_bytes:
            b = buckets[0]
            return b.bandwidth, b.beta
        if message_bytes >= buckets[-1].message_bytes:
            b = buckets[-1]
            return b.bandwidth, b.beta
        for lo, hi in zip(buckets, buckets[1:]):
            if lo.message_bytes <= message_bytes <= hi.message_bytes:
                span = math.log(hi.message_bytes) - math.log(lo.message_bytes)
                frac = (math.log(message_bytes) - math.log(lo.message_bytes)) / span
                bw = lo.bandwidth + frac * (hi.bandwidth - lo.bandwidth)
                beta = lo.beta + frac * (hi.beta - lo.beta)
                return bw, beta
        raise AssertionError("unreachable: bucket scan exhausted")


class ProfileDB(NamedTuple):
    """Immutable bundle of a hardware spec plus profiled performance."""
    hardware: HardwareSpec
    compute: ComputeProfile
    comm: CommProfile

    @classmethod
    def from_json_dict(cls, data: dict, hardware: HardwareSpec) -> "ProfileDB":
        check_keys(data, ("operators", "collectives"), "profile")
        ops = []
        for raw in data.get("operators", []):
            check_keys(raw, ("module", "fwd_TFLOPS", "bwd_TFLOPS", "intensity"),
                       "operator")
            ops.append(ComputeEntry(
                module=raw["module"],
                fwd_flops_per_s=_scaled(raw, "fwd_TFLOPS", 1e12),
                bwd_flops_per_s=(_scaled(raw, "bwd_TFLOPS", 1e12)
                                 if raw.get("bwd_TFLOPS") is not None else None),
                intensity=raw.get("intensity"),
            ))
        colls = []
        for raw in data.get("collectives", []):
            check_keys(raw, ("kind", "group_size", "buckets", "bandwidth_GBps", "beta"),
                       "collective")
            buckets = raw.get("buckets")
            if buckets is None:
                buckets = [{"size_bytes": 1, "bandwidth_GBps": raw["bandwidth_GBps"],
                            "beta": raw.get("beta", 1.0)}]
            for b in buckets:
                check_keys(b, ("size_bytes", "bandwidth_GBps", "beta"), "bucket")
            colls.append(CommEntry(
                kind=raw["kind"],
                group_size=raw.get("group_size", 2),
                buckets=tuple(
                    CommBucket(b["size_bytes"], _scaled(b, "bandwidth_GBps", GB),
                               b.get("beta", 1.0))
                    for b in buckets
                ),
            ))
        return cls(hardware=hardware, compute=ComputeProfile(tuple(ops)),
                   comm=CommProfile(tuple(colls)))


def op_time(work_flops: float, throughput: float) -> float:
    """Compute latency: work over profiled throughput."""
    if throughput <= 0:
        raise InputError(f"throughput must be positive, got {throughput}")
    return work_flops / throughput


def comm_time(message_bytes: float, bandwidth: float, beta: float = 1.0) -> float:
    """Communication latency: bytes over decayed algorithm bandwidth."""
    if bandwidth <= 0:
        raise InputError(f"bandwidth must be positive, got {bandwidth}")
    if not (0.0 < beta <= 1.0):
        raise InputError(f"decay beta must be in (0, 1], got {beta}")
    return message_bytes / (beta * bandwidth)


def roofline_bound(work_flops: float, traffic_bytes: float,
                   hw: HardwareSpec) -> float:
    """Attainable throughput: min(arithmetic intensity x HBM bandwidth, peak).

    traffic_bytes == 0 degenerates to the compute-bound limit (peak), by
    definition rather than by error."""
    if traffic_bytes == 0:
        return hw.gpu_peak_flops
    return min(work_flops / traffic_bytes * hw.hbm_bw, hw.gpu_peak_flops)
