"""Exception types shared across the package, and the argument checks
that every public entry point makes with them."""

import math
import operator
import os

import numpy as np


class FreqwalkError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(FreqwalkError, ValueError):
    """A state or run was requested with inconsistent parameters."""


class BoundaryLeakError(FreqwalkError, RuntimeError):
    """Too much probability reached the lattice edge for the truncation
    to remain physical.  Carries the step index at which it happened."""

    def __init__(self, step: int, mass: float):
        self.step = step
        self.mass = mass
        super().__init__(
            f"boundary mass {mass:.3e} exceeds tolerance at step {step}"
        )


class InfeasibleGateError(FreqwalkError, ValueError):
    """The requested gate constraints cannot be met at the given
    modulation strength."""


def check_integer(name: str, value, minimum: int | None = None) -> int:
    """`value` as an int if it is an integer (a bool is not) >= `minimum`,
    else a ConfigurationError naming the argument."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigurationError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


_NUMBERS = {
    # kind: (numpy dtype kinds, the bound of a scalar, what a valid value is)
    "real": ("iuf", None, "a finite real"),
    "real >= 0": ("iuf", operator.ge, "a finite real >= 0"),
    "real > 0": ("iuf", operator.gt, "positive and finite"),
    "real array": ("iuf", None, "finite reals"),
    "complex array": ("iufc", None, "finite numbers"),
}


def check_number(name: str, value, kind: str = "real"):
    """`value` if it is a number of `kind` (a key of `_NUMBERS`) that is
    finite, else a ConfigurationError naming the argument.  A bool is not a
    number.  The array kinds take a scalar, a sequence or an array, and
    return an array."""
    dtypes, bound, what = _NUMBERS[kind]
    arrays = kind.endswith(" array")
    if arrays:
        try:
            array = np.asarray(value)
        except (TypeError, ValueError):  # a ragged or otherwise unconvertible sequence
            ok = False
        else:
            ok = array.dtype.kind in dtypes and bool(np.isfinite(array).all())
    else:
        try:
            ok = (
                isinstance(value, (int, float, np.integer, np.floating))
                and not isinstance(value, bool)
                and math.isfinite(value)
                and (bound is None or bound(value, 0))
            )
        except OverflowError:  # a Python int past the float range
            ok = False
    if not ok:
        raise ConfigurationError(f"{name} must be {what}, got {value!r}")
    return array if arrays else value


def check_name(name: str, value, names, sequence: bool = False):
    """`value` if it is one of `names` (with `sequence`, a list or tuple of
    them), else a ConfigurationError naming the argument and the choices."""
    items = (value if isinstance(value, (list, tuple)) else None) if sequence else [value]
    if items is None or not all(isinstance(v, str) and v in names for v in items):
        choices = ", ".join(map(repr, names))
        what = f"a list of names from {choices}" if sequence else f"one of {choices}"
        raise ConfigurationError(f"{name} must be {what}, got {value!r}")
    return value


def physical_memory() -> int:
    """Bytes of physical memory, or the addressable limit where the system
    does not report them."""
    try:
        pages, size = os.sysconf("SC_PHYS_PAGES"), os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        pages = size = -1
    return pages * size if pages > 0 and size > 0 else np.iinfo(np.intp).max


def check_fits(what: str, nbytes: float) -> None:
    """A ConfigurationError "`what` would exceed physical memory" unless
    `nbytes`, the size of `what`, fit in it."""
    limit = physical_memory()
    if nbytes > limit:
        raise ConfigurationError(
            f"{what} would exceed the {limit / 1e9:.3g} GB of physical memory"
        )
