"""Exact-arithmetic feasibility checker for finite homogeneous geometry parameters.

The package root holds the version and ``_jsonable``, the one JSON
stringifier, which every command needs and which imports nothing beyond
``enum``; import everything else from the modules, for example
``from homgeom.pipeline import eliminate``.
"""

from enum import Enum

__version__ = "0.1.0"


def _jsonable(obj):
    """JSON-friendly form with every integer as a decimal string.

    Consumers of the report must not lose precision on the big integers, so
    ints are serialized as strings throughout.  A record with ``to_record``
    is tested before the tuple branch, since the package's records are named
    tuples.
    """
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return obj
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return obj
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if hasattr(obj, "to_record"):
        return _jsonable(obj.to_record())
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = sorted(obj) if isinstance(obj, (set, frozenset)) else obj
        return [_jsonable(v) for v in items]
    raise TypeError(f"cannot serialize {type(obj)!r}")
