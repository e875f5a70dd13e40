"""Exception types shared across the package.

The CLI maps these onto exit codes: configuration problems exit with 2,
numeric failures (non-convergence, infeasible targets) exit with 3.
"""


class ConfigError(ValueError):
    """Invalid scenario, experiment or CLI configuration."""


class SingularTestError(ConfigError):
    """A decision test was built with a degenerate (zero-variance) scenario."""


class NumericError(RuntimeError):
    """An iterative numeric routine failed to converge."""


class InfeasibleTargetError(NumericError):
    """No threshold setting can reach the requested false-alarm target."""
