"""Servers, partitionable GPUs, and hard-isolated fractional GPU slices.

Slice sizes are stored internally as integer multiples of the device's
partition granularity; the decimal fraction is derived as units/total so
that e.g. a 0.4/0.6 split reproduces those decimals exactly. Slices hold
no grants: the orchestrator's ``GpuState.inst_granted`` is the one ledger
of what each slice has granted, and ``repartition`` checks a new layout
against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import ActiveAllocationConflict, GranularityViolation, PartitionOverflow

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
        if self.cpu_cores <= 0:
            raise ValueError(f"server {self.id}: cpu_cores must be positive")
        if self.frontend_port_gbps <= 0 or self.backend_port_gbps <= 0:
            raise ValueError(f"server {self.id}: port rates must be positive")


def _fraction_to_units(gpu: GpuDevice, fraction: float) -> int:
    units = round(fraction * gpu.total_units)
    if abs(fraction - units / gpu.total_units) > TOL:
        raise GranularityViolation(
            f"{gpu.id}: {fraction} is not a multiple of "
            f"granularity {gpu.partition_granularity}"
        )
    return units


def partition_gpu(
    gpu: GpuDevice,
    fractions: list[float],
    classes: list[TenantClass],
    id_prefix: str = "",
) -> list[GpuInstance]:
    """Split a GPU into hard slices; leftover capacity becomes a FREE slice.

    Raises PartitionOverflow when the fractions exceed 1.0 and
    GranularityViolation when a fraction does not sit on the granularity
    grid. ``id_prefix`` lets callers keep instance ids unique across
    repartition generations.
    """
    if not fractions:
        raise ValueError("fractions must be non-empty")
    if len(fractions) != len(classes):
        raise ValueError("fractions and classes must have equal length")
    units = []
    for f in fractions:
        if not 0.0 < f <= 1.0 + TOL:
            raise ValueError(f"fraction {f} outside (0, 1]")
        units.append(_fraction_to_units(gpu, f))
    total = gpu.total_units
    if sum(units) > total:
        raise PartitionOverflow(
            f"{gpu.id}: requested {sum(units)}/{total} units"
        )
    prefix = id_prefix or gpu.id
    instances = [
        GpuInstance(
            id=f"{prefix}/s{i}",
            units=u,
            total_units=total,
            tenant_class=cls,
        )
        for i, (u, cls) in enumerate(zip(units, classes))
    ]
    leftover = total - sum(units)
    if leftover >= 1:
        instances.append(
            GpuInstance(
                id=f"{prefix}/free",
                units=leftover,
                total_units=total,
                tenant_class=TenantClass.FREE,
            )
        )
    return instances


def repartition(
    gpu: GpuDevice,
    old_instances: list[GpuInstance],
    ledger: dict[str, float],
    new_fractions: list[float],
    new_classes: list[TenantClass],
    id_prefix: str = "",
) -> list[GpuInstance]:
    """Atomically replace a GPU's slices with a new layout.

    ``ledger`` is the caller's grant ledger (``GpuState.inst_granted``): the
    fraction granted inside each old slice, by instance id. Callers must
    drain or preempt first: for every tenant class, what the old slices of
    that class have granted has to fit inside the new slices of the same
    class (FREE counts toward every class).
    """
    new_instances = partition_gpu(gpu, new_fractions, new_classes, id_prefix=id_prefix)
    for cls in (TenantClass.RAN, TenantClass.AI):
        held = sum(ledger.get(i.id, 0.0) for i in old_instances if i.tenant_class is cls)
        capacity = sum(
            i.compute_fraction
            for i in new_instances
            if i.tenant_class is cls or i.tenant_class is TenantClass.FREE
        )
        if held > capacity + TOL:
            raise ActiveAllocationConflict(
                f"{gpu.id}: {cls.value} holds {held:.6f}, new layout offers "
                f"{capacity:.6f}; drain first"
            )
    return new_instances
