"""Golden-ratio calculus and point-vortex flows in golden annular domains.

The root re-exports nothing: import from the submodules (`goldcalc.ring`, ...).
"""

__version__ = "0.1.0"
