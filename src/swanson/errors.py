"""Exception types shared across the toolkit."""


class SwansonError(Exception):
    """Base class for toolkit errors."""


class NonConvergentError(SwansonError):
    """No admissible integration strategy exists for the requested pairing,
    or a result lies outside the double-precision range."""


class DeltaDerivNotEvaluableError(SwansonError):
    """Delta-derivative functionals have no pointwise values; pair them instead."""


class RegionError(SwansonError):
    """Operation invoked at a parameter point outside its supported region."""


class SingularParameterError(SwansonError):
    """A printed closed form is singular at this parameter point."""


class PoleError(SwansonError):
    """Function evaluated exactly at a pole."""
