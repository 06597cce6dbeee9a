"""Exception types and process exit codes."""


class ParameterError(ValueError):
    """Invalid argument or configuration value."""


class ScheduleError(ParameterError):
    """Growth schedule cannot be built from the given constants."""


class NumericalError(RuntimeError):
    """A numerical routine failed to converge or produced non-finite values."""


class SpectralDeficiencyError(RuntimeError):
    """build_xi could not build a frame from the round matrices.

    Carries diagnostics: the window counts and the eigenvalues.
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_SPECTRAL = 4


def exit_code_for(exc: BaseException) -> int:
    if isinstance(exc, ParameterError):
        return EXIT_CONFIG
    if isinstance(exc, SpectralDeficiencyError):
        return EXIT_SPECTRAL
    if isinstance(exc, NumericalError):
        return EXIT_NUMERICAL
    return 1
