"""Servers, partitionable GPUs, and hard-isolated fractional GPU slices.

Slice sizes are stored internally as integer multiples of the device's
partition granularity; the decimal fraction is derived as units/total so
that e.g. a 0.4/0.6 split reproduces those decimals exactly. Slices hold
no grants: the orchestrator keeps what each GPU's one AI slice has granted
in its fleet arrays (``Fleet.ai_granted``), and drains a GPU before it
calls ``repartition``, so a new layout never has a grant to fit.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import GranularityViolation, PartitionOverflow

TOL = 1e-9


class TenantClass(Enum):
    RAN = "RAN"
    AI = "AI"
    FREE = "FREE"


class NfBundle(Enum):
    """Which network functions a server co-hosts; decides its egress target."""

    DU_ONLY = "DU_ONLY"
    DU_CU = "DU_CU"
    DU_CU_CN = "DU_CU_CN"


@dataclass(frozen=True)
class GpuDevice:
    """One physical accelerator, normalized to compute capacity 1.0."""

    id: str
    memory_units: int = 96
    partition_granularity: float = 0.05

    def __post_init__(self):
        if self.memory_units <= 0:
            raise ValueError(f"{self.id}: memory_units must be positive")
        g = self.partition_granularity
        if not 0.0 < g <= 1.0:
            raise GranularityViolation(f"{self.id}: granularity {g} outside (0, 1]")
        units = round(1.0 / g)
        if abs(units * g - 1.0) > TOL:
            raise GranularityViolation(f"{self.id}: 1.0/{g} is not an integer")

    @property
    def total_units(self) -> int:
        return round(1.0 / self.partition_granularity)


@dataclass(frozen=True)
class GpuInstance:
    """A hard-isolated fractional slice of one GPU.

    A repartition replaces the instances rather than resizing them.
    """

    id: str
    units: int
    total_units: int
    tenant_class: TenantClass

    def __post_init__(self):
        if self.units <= 0 or self.units > self.total_units:
            raise GranularityViolation(
                f"{self.id}: units {self.units} outside 1..{self.total_units}"
            )

    @property
    def compute_fraction(self) -> float:
        return self.units / self.total_units


@dataclass(frozen=True)
class Server:
    id: str
    gpus: tuple[GpuDevice, ...]
    cpu_cores: int = 64
    hosted_nf_bundle: NfBundle = NfBundle.DU_CU_CN
    frontend_port_gbps: float = 100.0
    backend_port_gbps: float = 100.0

    def __post_init__(self):
        if not self.gpus:
            raise ValueError(f"server {self.id}: needs at least one GPU")
        if not self.cpu_cores > 0:
            raise ValueError(f"server {self.id}: cpu_cores must be positive")
        if not (self.frontend_port_gbps > 0 and self.backend_port_gbps > 0):
            raise ValueError(f"server {self.id}: port rates must be positive")


def _share_units(gpu: GpuDevice, share: float) -> int:
    if not 0.0 <= share <= 1.0 + TOL:
        raise ValueError(f"{gpu.id}: share {share} outside [0, 1]")
    units = round(share * gpu.total_units)
    if abs(share - units / gpu.total_units) > TOL:
        raise GranularityViolation(
            f"{gpu.id}: {share} is not a multiple of "
            f"granularity {gpu.partition_granularity}"
        )
    return units


def partition_gpu(
    gpu: GpuDevice, ran: float, ai: float, id_prefix: str = ""
) -> list[GpuInstance]:
    """Cut a GPU into a RAN slice and an AI slice; leftover capacity becomes a FREE slice.

    A share of 0 gets no slice, and (0, 0) leaves the whole GPU one FREE
    slice. Slices are ``<prefix>/s0``, ``<prefix>/s1`` in cut order and
    ``<prefix>/free`` for the leftover. Raises ValueError for a share
    outside [0, 1], PartitionOverflow when the shares exceed the GPU and
    GranularityViolation when a share is off the granularity grid.
    ``id_prefix`` (default: the GPU id) keeps instance ids unique across
    repartition generations.
    """
    total = gpu.total_units
    ran_units, ai_units = _share_units(gpu, ran), _share_units(gpu, ai)
    used = ran_units + ai_units
    if used > total:
        raise PartitionOverflow(f"{gpu.id}: requested {used}/{total} units")
    prefix = id_prefix or gpu.id
    cuts = [(u, cls) for u, cls in ((ran_units, TenantClass.RAN), (ai_units, TenantClass.AI)) if u]
    if not cuts:
        return [GpuInstance(f"{prefix}/s0", total, total, TenantClass.FREE)]
    instances = [GpuInstance(f"{prefix}/s{i}", u, total, cls) for i, (u, cls) in enumerate(cuts)]
    if used < total:
        instances.append(GpuInstance(f"{prefix}/free", total - used, total, TenantClass.FREE))
    return instances


def repartition(
    gpu: GpuDevice, ran: float, ai: float, id_prefix: str = ""
) -> list[GpuInstance]:
    """Replace a drained GPU's slices with a new layout, as ``partition_gpu`` cuts it.

    The orchestrator preempts every job on the GPU first, so no grant is
    held across the change.
    """
    return partition_gpu(gpu, ran, ai, id_prefix=id_prefix)
