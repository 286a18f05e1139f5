"""Exact-arithmetic feasibility checker for finite homogeneous geometry parameters.

The package root holds the version and ``_jsonable``, the one JSON
stringifier, which every command needs and which imports nothing; import
everything else from the modules, for example
``from homgeom.pipeline import eliminate``.
"""

__version__ = "0.1.0"


def _jsonable(obj):
    """JSON-friendly form with every integer as a decimal string.

    Consumers of the report must not lose precision on the big integers, so
    ints are serialized as strings throughout.  Callers convert their records
    with ``to_record`` first: a record is a named tuple, not one of the exact
    sequence types taken here, so it raises TypeError rather than print as a
    bare list.
    """
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return obj
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return obj
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if type(obj) in (list, tuple, set, frozenset):
        items = sorted(obj) if type(obj) in (set, frozenset) else obj
        return [_jsonable(v) for v in items]
    raise TypeError(f"cannot serialize {type(obj)!r}")
