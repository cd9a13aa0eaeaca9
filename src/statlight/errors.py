"""Exception taxonomy shared by all simulator modules."""


class SimulationError(Exception):
    """Base class for every error this package raises on purpose."""


class NonPhysicalParameter(SimulationError):
    """A model parameter violates a physical invariant (message names it)."""


class OutOfScheduleRange(SimulationError):
    """Control schedule evaluated outside its time span."""


class DegenerateCoefficients(SimulationError):
    """Transport coefficients undefined (both controls off at gamma2 = 0)."""


class NegativeRadicand(SimulationError):
    """Width quadrature produced a negative squared width."""


class QuadratureFailure(SimulationError):
    """Adaptive quadrature over a control ramp did not converge."""


class ChannelOff(SimulationError):
    """Envelope requested for a channel whose control field is off."""


class BranchSelectionFailure(SimulationError):
    """Dispersion root evaluation did not produce a finite branch value."""


class ModeBlowup(SimulationError):
    """A spectral step amplified some mode beyond roundoff tolerance."""


class GridTooCoarse(SimulationError):
    """Spatial grid too coarse for the absorption lengths or pulse size."""


class SweepDivergence(SimulationError):
    """Implicit step residual exceeded tolerance after the solve."""


class CFLViolation(SimulationError):
    """Requested time step exceeds the advective accuracy bound."""


class ThresholdChatter(SimulationError):
    """Control power crossed the storage threshold repeatedly in one ramp."""


class GuardBandOverflow(SimulationError):
    """Pulse energy reached the absorbing/guard band of the domain."""


class PerturberOffGrid(SimulationError):
    """Perturber center or extent falls outside the simulation domain."""


class NonDispersiveRegime(SimulationError):
    """Perturber detuning is not large compared to its linewidth."""


class EmptyField(SimulationError):
    """Moment requested of a field with no energy on the grid."""


class WindowTooShort(SimulationError):
    """Too few snapshots in the requested measurement window."""


class PhaseUnwrapAmbiguity(SimulationError):
    """Relative phase jumped by more than pi/2 between snapshots."""


class ParseError(SimulationError):
    """Config text could not be parsed; message carries the line number."""


class ValidationError(SimulationError):
    """Config parsed but failed semantic validation."""
