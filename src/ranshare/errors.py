"""Exception hierarchy shared across the simulator."""


class SimulatorError(Exception):
    """Base class for all simulator errors."""


# -- compute / partitioning ------------------------------------------------

class PartitionOverflow(SimulatorError):
    """Requested slice fractions add up to more than one GPU."""


class GranularityViolation(SimulatorError):
    """A fraction is not an integer multiple of the partition granularity."""


# -- workloads -------------------------------------------------------------

class UnsupportedNumerology(SimulatorError):
    """Subcarrier spacing outside the supported {15, 30, 60, 120} kHz set."""


class CalibrationOverflow(SimulatorError):
    """A single cell's calibrated peak demand exceeds one GPU."""


class EmptyTrace(SimulatorError):
    """A trace (load profile or metrics trace) has no points."""


# -- fabric ----------------------------------------------------------------

class InvalidCounts(SimulatorError):
    """Spine/leaf/endpoint counts outside the legal range."""


class OddLeafCount(SimulatorError):
    """Leaf switches must come in pairs."""


class UnreachableEndpoint(SimulatorError):
    """An RU or DU server has no path to a timing grandmaster."""


class NoPath(SimulatorError):
    """A flow's endpoints are not connected."""


class NodeIdClash(SimulatorError):
    """A server or RU id names another node of the fabric."""


# -- orchestration / engine ------------------------------------------------

class InvalidEpoch(SimulatorError):
    """policy_epoch was invoked at a time that is not an epoch boundary."""


class EventInPast(SimulatorError):
    """An event was scheduled at a time before the simulation clock."""


class ScenarioInvalid(SimulatorError):
    """A scenario failed validation; carries the list of violations."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(str(v) for v in self.violations))


# -- configuration ---------------------------------------------------------

class ParseError(SimulatorError):
    """Scenario document is not syntactically well formed."""


class SchemaError(SimulatorError):
    """Unknown key, missing required key, or dangling reference."""


class SemanticError(SimulatorError):
    """Structurally valid configuration that violates a model invariant."""
