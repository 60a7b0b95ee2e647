"""In-memory span tracer for the trackcast package.

``Tracer.install(package)`` wraps every public function defined in a
module of ``package`` and rebinds every name that refers to it in any
of the package's module namespaces.  That covers names bound by value:
``cli`` imports ``read_csv`` and the other ingest/preprocess/persistence
functions, ``ensemble`` imports ``train`` and ``predict_batch``, and
``neural.predict`` is an alias of ``neural.forward``.  ``uninstall()``
puts every original object back.

A span is ``[name, start, end, parent, arch, op]``: ``name`` is
``<module>.<function>`` (the module name without the package prefix),
``start``/``end`` are ``time.perf_counter()`` readings, ``parent`` is
the index of the enclosing span on the same thread (or ``None``),
``arch`` is the network architecture when the function takes params, a
network config or an ensemble (else ``None``), and ``op`` identifies
the op (one CLI process) the span belongs to.  On Linux
``perf_counter`` reads ``CLOCK_MONOTONIC``, so readings from different
processes on one machine share a time base.
"""
from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import threading
import time
import types


def arch_of(args, kwargs) -> str | None:
    """Architecture named by the first argument that carries one."""
    for value in (*args, *kwargs.values()):
        arch = getattr(value, "arch", None)
        if isinstance(arch, str):
            return arch
        members = getattr(value, "members", value)
        if isinstance(members, (list, tuple)) and members:
            arch = getattr(members[0], "arch", None)
            if isinstance(arch, str):
                return arch
    return None


def package_modules(package) -> list[types.ModuleType]:
    """The package itself plus every direct submodule, imported."""
    mods = [package]
    for info in pkgutil.iter_modules(package.__path__):
        mods.append(importlib.import_module(f"{package.__name__}.{info.name}"))
    return mods


def public_functions(package) -> dict[int, tuple[str, types.FunctionType]]:
    """id(function) -> (span name, function) for every public function
    defined in one of the package's modules."""
    found = {}
    prefix = package.__name__ + "."
    for mod in package_modules(package):
        for attr, obj in vars(mod).items():
            if (
                isinstance(obj, types.FunctionType)
                and not attr.startswith("_")
                and obj.__module__ == mod.__name__
            ):
                short = mod.__name__[len(prefix):] if mod.__name__.startswith(prefix) else mod.__name__
                found.setdefault(id(obj), (f"{short}.{obj.__name__}", obj))
    return found


class Tracer:
    """Records spans around the public functions of one package."""

    def __init__(self, op: str = ""):
        self.op = op
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched: list[tuple[types.ModuleType, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            span = [name, 0.0, 0.0, stack[-1] if stack else None, arch_of(args, kwargs), self.op]
            with self._lock:
                index = len(self.spans)
                self.spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        wrapper.__wrapped_by_tracer__ = True
        return wrapper

    def install(self, package) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        wrappers = {
            key: (fn, self._wrap(name, fn))
            for key, (name, fn) in public_functions(package).items()
        }
        for mod in package_modules(package):
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)
