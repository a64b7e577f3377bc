"""Exact verification toolkit for Ramsey distance tuples on the unit circle."""

from .core import (Colouring, DiscreteInstance, DistanceTuple, ParseError,
                   RefutationError, discretize, parse_colouring,
                   parse_fraction, parse_fraction_list, power_tuple,
                   serialize_colouring)
from .detector import CopyWitness, count_copies, detect_bruteforce, detect_dp

__version__ = "0.1.0"

__all__ = [
    "Colouring", "CopyWitness", "DiscreteInstance", "DistanceTuple",
    "ParseError", "RefutationError", "count_copies", "detect_bruteforce",
    "detect_dp", "discretize", "parse_colouring", "parse_fraction",
    "parse_fraction_list", "power_tuple", "serialize_colouring", "__version__",
]
