"""Exception types and process exit codes."""


class ParameterError(ValueError):
    """Invalid argument or configuration value."""


class ScheduleError(ParameterError):
    """Growth schedule cannot be built from the given constants."""


class RecordError(ValueError):
    """A run record that pipeline.validate_record refuses."""


class NumericalError(RuntimeError):
    """A numerical routine failed to converge or produced non-finite values."""


class SpectralDeficiencyError(RuntimeError):
    """build_xi could not build a frame from the round matrices; the
    message gives the counts that fell short."""


EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def exit_code_for(exc: BaseException) -> int:
    if isinstance(exc, ParameterError):
        return EXIT_CONFIG
    if isinstance(exc, NumericalError):
        return EXIT_NUMERICAL
    return 1
