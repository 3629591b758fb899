"""Shared exception types."""


class ConfigError(ValueError):
    """Scenario or run parameters are inconsistent or out of range."""


class InputError(ValueError):
    """Concrete payloads or requests do not match the scenario."""


class PlanError(ValueError):
    """Requested delivery plan is combinatorially infeasible."""


class DeliveryError(RuntimeError):
    """Decoding failed: codewords are missing or corrupted."""

    def __init__(self, message, missing=None):
        super().__init__(message)
        # list of (subfile subset, subpacket index) pairs that could not be recovered
        self.missing = list(missing) if missing else []


class SolverError(RuntimeError):
    """Beamformer optimization diverged or violated its constraints."""

    trace = ()  # the failing run's iterations so far, where optimize raised it
