"""Error taxonomy shared by the library and the CLI, and the argument checks.

Two failure classes are distinguished so callers (and the command line
front end) can map them to different exit codes:

* ``DomainError`` -- the request itself is invalid: parameters outside
  their admissible ranges, regimes where a quantity is not defined, or
  malformed configuration.  CLI exit code 2.
* ``NumericsError`` -- the request was valid but evaluation failed to
  reach the required accuracy or produced non-finite intermediates.
  CLI exit code 1.

Every scalar argument is checked by one of two functions here, so each rule
has one implementation: ``integer`` for counts and seeds, ``number`` for
finite reals in an interval.  Each returns the value as an int or a float,
or raises a DomainError whose message starts with the argument's name,
states the range and shows the value given, as in
``nt must be an integer in [2, inf), got nt=2.5``.
"""

import math
import numbers


class DomainError(ValueError):
    """Parameter or regime outside the documented domain of validity."""


class NumericsError(RuntimeError):
    """Evaluation failed: tolerance not met or non-finite intermediates."""


def integer(name, value, low, high=math.inf):
    """``value`` as an int: a Python or numpy integer in [low, high], never a
    bool (which would count as 0 or 1) or a float (which would be truncated)."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or not low <= int(value) <= high):
        end = "]" if high < math.inf else ")"
        raise DomainError(f"{name} must be an integer in [{low}, {high}{end}, "
                          f"got {name}={value!r}")
    return int(value)


def number(name, value, low=-math.inf, high=math.inf, closed="neither"):
    """``value`` as a float: a finite real (numpy's too, never a bool) in the
    interval from low to high, which includes the ends that ``closed`` names:
    'neither', 'left', 'right' or 'both'."""
    left, right = closed in ("left", "both"), closed in ("right", "both")
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    x = float(value) if real else math.nan
    if not (math.isfinite(x) and (low <= x if left else low < x)
            and (x <= high if right else x < high)):
        raise DomainError(f"{name} must be a finite number in {'[' if left else '('}{low:g}, "
                          f"{high:g}{']' if right else ')'}, got {name}={value!r}")
    return x
