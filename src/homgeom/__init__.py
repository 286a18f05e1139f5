"""Exact-arithmetic feasibility checker for finite homogeneous geometry parameters.

The package root holds only the version; import from the modules, for
example ``from homgeom.pipeline import eliminate``.
"""

__version__ = "0.1.0"
