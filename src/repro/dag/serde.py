"""Closure serialization for task payloads that cross a process boundary.

The stdlib pickle refuses lambdas, nested functions, and anything defined
in ``__main__`` — exactly the closures a :class:`~repro.dag.plan.StageSpec`
is made of (``pipeline`` is a fused nested function, ``input_merge`` is
usually a lambda).  The process executor backend therefore serializes
stage payloads with :func:`dumps_closure`, a pickler that falls back to
*by-value* function pickling: the code object goes through ``marshal``,
and the closure cells, defaults, and the referenced subset of the
function's globals are pickled recursively.

Importable module-level functions still pickle by reference (cheap, and
the child re-imports the module), so only the genuinely dynamic closures
pay the by-value cost.

Code travels only in stage payloads: everything else that crosses a
wire — an rpc envelope, a task report, a reply, an acknowledgement — is
data and goes through :func:`dumps_data`, plain stdlib pickle: the same
bytes, without paying for the ``reducer_override`` hook on every object.

When something in a payload cannot cross the boundary — a captured lock,
an open file handle, a socket — either function walks the payload to
find the *named* offending capture and raises
:class:`~repro.common.errors.SerializationError` naming it, instead of
letting a bare ``PicklingError`` surface from the worker pool.
"""

from __future__ import annotations

import dataclasses
import importlib
import io
import marshal
import pickle
import sys
import types
from typing import Any, Dict, Optional, Tuple

from repro.common.errors import SerializationError

__all__ = ["dumps_closure", "dumps_data", "loads_closure"]

# Sentinel standing in for an empty (never-assigned) closure cell.
_EMPTY_CELL = "__repro_empty_cell__"

# Marshal-layer caches.  A streaming workload re-ships the same closure
# *shapes* every batch — only the captured values change — so the
# marshal bytes and the referenced-global name set of a given code
# object recur across thousands of messages.  Code objects are
# immutable, which makes both directions safely cacheable: the encode
# side keys on the code object itself, the decode side on its marshal
# bytes (rebuilt functions then share one code object, exactly as
# sibling closures from one ``def`` do).  Bounded by wholesale clear —
# entries are a few hundred bytes and recomputing is only ever a cost,
# never a correctness issue.
_CODE_CACHE_MAX = 512
# code -> (marshal bytes, referenced co_names across nested code)
_ENCODE_CACHE: Dict[types.CodeType, Tuple[bytes, Tuple[str, ...]]] = {}
_DECODE_CACHE: Dict[bytes, types.CodeType] = {}


def _code_entry(code: types.CodeType) -> Tuple[bytes, Tuple[str, ...]]:
    entry = _ENCODE_CACHE.get(code)
    if entry is None:
        names = set()
        stack = [code]
        while stack:
            c = stack.pop()
            names.update(c.co_names)
            for const in c.co_consts:
                if isinstance(const, types.CodeType):
                    stack.append(const)
        if len(_ENCODE_CACHE) >= _CODE_CACHE_MAX:
            _ENCODE_CACHE.clear()
        entry = (marshal.dumps(code), tuple(names))
        _ENCODE_CACHE[code] = entry
    return entry


def _referenced_globals(fn: types.FunctionType) -> Dict[str, Any]:
    """The subset of ``fn.__globals__`` its code (including nested code
    objects) can actually name.  ``co_names`` over-approximates — it also
    lists attribute names — but the intersection with the globals dict is
    exactly what a rebuilt function could look up."""
    _, names = _code_entry(fn.__code__)
    fn_globals = fn.__globals__
    return {name: fn_globals[name] for name in names if name in fn_globals}


def _importable_by_name(fn: types.FunctionType) -> bool:
    """True when the child process can recover ``fn`` by importing its
    module — i.e. plain by-reference pickling will work."""
    if fn.__module__ in ("__main__", "__mp_main__", None):
        return False
    if "<locals>" in fn.__qualname__ or "<lambda>" in fn.__qualname__:
        return False
    module = sys.modules.get(fn.__module__)
    if module is None:
        return False
    obj: Any = module
    for part in fn.__qualname__.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return False
    return obj is fn


def _rebuild_cell(value: Any) -> types.CellType:
    if isinstance(value, str) and value == _EMPTY_CELL:
        return types.CellType()
    return types.CellType(value)


def _rebuild_function(
    code_bytes: bytes,
    name: str,
    qualname: str,
    module: Optional[str],
    defaults: Optional[Tuple],
    kwdefaults: Optional[Dict[str, Any]],
    closure_values: Tuple,
    fn_globals: Dict[str, Any],
    fn_dict: Dict[str, Any],
) -> types.FunctionType:
    code = _DECODE_CACHE.get(code_bytes)
    if code is None:
        if len(_DECODE_CACHE) >= _CODE_CACHE_MAX:
            _DECODE_CACHE.clear()
        code = marshal.loads(code_bytes)
        _DECODE_CACHE[code_bytes] = code
    namespace = dict(fn_globals)
    namespace["__builtins__"] = __builtins__
    if module is not None:
        namespace.setdefault("__name__", module)
    closure = tuple(_rebuild_cell(v) for v in closure_values) or None
    fn = types.FunctionType(code, namespace, name, defaults, closure)
    fn.__qualname__ = qualname
    fn.__module__ = module
    if kwdefaults:
        fn.__kwdefaults__ = dict(kwdefaults)
    if fn_dict:
        fn.__dict__.update(fn_dict)
    return fn


def _reduce_function(fn: types.FunctionType) -> Tuple:
    cells = fn.__closure__ or ()
    closure_values = []
    for cell in cells:
        try:
            closure_values.append(cell.cell_contents)
        except ValueError:  # never-assigned cell (e.g. recursive def mid-build)
            closure_values.append(_EMPTY_CELL)
    return (
        _rebuild_function,
        (
            _code_entry(fn.__code__)[0],
            fn.__name__,
            fn.__qualname__,
            fn.__module__,
            fn.__defaults__,
            fn.__kwdefaults__,
            tuple(closure_values),
            _referenced_globals(fn),
            dict(fn.__dict__),
        ),
    )


class _ClosurePickler(pickle.Pickler):
    """Pickler that serializes non-importable functions by value and
    modules by name."""

    def reducer_override(self, obj: Any) -> Any:
        if isinstance(obj, types.FunctionType):
            if _importable_by_name(obj):
                return NotImplemented  # stdlib by-reference path
            return _reduce_function(obj)
        if isinstance(obj, types.ModuleType):
            return (importlib.import_module, (obj.__name__,))
        return NotImplemented


def _picklable(value: Any, pickler: type = _ClosurePickler) -> bool:
    try:
        buf = io.BytesIO()
        pickler(buf, protocol=pickle.HIGHEST_PROTOCOL).dump(value)
        return True
    except Exception:  # noqa: BLE001 - any failure means "not picklable"
        return False


def _describe(value: Any) -> str:
    text = repr(value)
    if len(text) > 60:
        text = text[:57] + "..."
    return f"{text} (type {type(value).__name__})"


def _find_offender(
    obj: Any, seen: set, pickler: type = _ClosurePickler
) -> Optional[str]:
    """Walk an unpicklable object graph and name the first capture,
    element, or attribute that ``pickler`` cannot serialize."""
    if id(obj) in seen:
        return None
    seen.add(id(obj))

    if isinstance(obj, types.FunctionType) and not _importable_by_name(obj):
        cells = obj.__closure__ or ()
        for name, cell in zip(obj.__code__.co_freevars, cells):
            try:
                value = cell.cell_contents
            except ValueError:
                continue
            if not _picklable(value, pickler):
                deeper = _find_offender(value, seen, pickler)
                return deeper or (
                    f"captured variable {name!r} of function "
                    f"{obj.__qualname__!r} = {_describe(value)}"
                )
        for name, value in _referenced_globals(obj).items():
            if not _picklable(value, pickler):
                deeper = _find_offender(value, seen, pickler)
                return deeper or (
                    f"global {name!r} referenced by function "
                    f"{obj.__qualname__!r} = {_describe(value)}"
                )
        for index, value in enumerate(obj.__defaults__ or ()):
            if not _picklable(value, pickler):
                deeper = _find_offender(value, seen, pickler)
                return deeper or (
                    f"default argument #{index} of function "
                    f"{obj.__qualname__!r} = {_describe(value)}"
                )
        return None

    if isinstance(obj, (list, tuple, set, frozenset)):
        for value in obj:
            if not _picklable(value, pickler):
                return (
                    _find_offender(value, seen, pickler)
                    or f"element {_describe(value)}"
                )
        return None

    if isinstance(obj, dict):
        for key, value in obj.items():
            if not _picklable(value, pickler):
                return (
                    _find_offender(value, seen, pickler)
                    or f"value under key {key!r}: {_describe(value)}"
                )
            if not _picklable(key, pickler):
                return _find_offender(key, seen, pickler) or f"key {_describe(key)}"
        return None

    if dataclasses.is_dataclass(obj) or hasattr(obj, "__dict__"):
        for attr, value in vars(obj).items():
            if not _picklable(value, pickler):
                deeper = _find_offender(value, seen, pickler)
                return deeper or (
                    f"attribute {attr!r} of {type(obj).__name__} = {_describe(value)}"
                )
    return None


def _unpicklable(
    obj: Any, context: str, err: Exception, pickler: type
) -> SerializationError:
    """The typed error for a payload ``pickler`` refused."""
    if isinstance(err, RecursionError):
        return SerializationError(
            f"cannot serialize {context}: the closure graph is "
            "self-referential (a local function captures itself)"
        )
    offender = _find_offender(obj, set(), pickler)
    detail = offender or f"{_describe(obj)}: {err}"
    return SerializationError(
        f"cannot serialize {context}: {detail}. Captures must be "
        "picklable values; create handles (locks, files, sockets) inside "
        "the function body instead of capturing them."
    )


def dumps_closure(obj: Any, context: str = "task payload") -> bytes:
    """Serialize ``obj`` (closures included) to bytes for another process:
    a stage payload for a process-executor child or a tcp peer.

    Raises :class:`SerializationError` naming ``context`` and the
    offending capture when something in the payload cannot be pickled."""
    buf = io.BytesIO()
    try:
        _ClosurePickler(buf, protocol=pickle.HIGHEST_PROTOCOL).dump(obj)
    except Exception as err:  # noqa: BLE001 - diagnose, then re-raise typed
        raise _unpicklable(obj, context, err, _ClosurePickler) from err
    return buf.getvalue()


def dumps_data(obj: Any, context: str = "message") -> bytes:
    """Serialize plain data — no by-value functions — with stdlib pickle
    (read it back with :func:`pickle.loads`).

    Raises :class:`SerializationError` naming ``context`` and the
    offending value when something in the payload cannot be pickled."""
    try:
        return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as err:  # noqa: BLE001 - diagnose, then re-raise typed
        raise _unpicklable(obj, context, err, pickle.Pickler) from err


def loads_closure(data: bytes) -> Any:
    """Inverse of :func:`dumps_closure` (plain unpickling; by-value
    functions rebuild through :func:`_rebuild_function`)."""
    return pickle.loads(data)
