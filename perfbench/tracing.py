"""Spans around calls into ksvar's public functions, recorded from outside.

The program is not edited: ``patched`` swaps each named function for a
wrapper in every ``ksvar`` module that holds it (``ksvar.pipeline`` imports
``admm_fit`` by name, so patching ``ksvar.solver`` alone would miss the
pipeline's calls) and restores the originals on exit.  Spans are kept in
memory and written out by the caller when the benchmark ends.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float = 0.0
    parent: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "layer": self.layer,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "attrs": self.attrs,
        }


def array_bytes(*objects) -> int:
    """Computed bytes of the numpy arrays held as attributes of ``objects``."""
    total = 0
    for obj in objects:
        for value in getattr(obj, "__dict__", {}).values():
            if isinstance(value, np.ndarray):
                total += value.nbytes
    return total


def _note_fit(span: Span, args, kwargs, result) -> None:
    tensor, dual, diag = result
    span.attrs["iterations"] = int(getattr(diag, "iterations", 0))
    span.attrs["converged"] = bool(getattr(diag, "converged", False))
    span.attrs["state_bytes"] = array_bytes(tensor, dual)


def _note_kernels(span: Span, args, kwargs, result) -> None:
    blocks = getattr(result, "blocks", [])
    span.attrs["total_rank"] = int(sum(getattr(b, "rank", 0) for b in blocks))
    span.attrs["held_bytes"] = array_bytes(result, *blocks)


def _note_report(span: Span, args, kwargs, result) -> None:
    span.attrs["edges"] = int(getattr(args[0], "n_edges", 0)) if args else 0


NOTES = {
    "admm_fit": _note_fit,
    "build_kernel_set": _note_kernels,
    "compute_report": _note_report,
}


class Tracer:
    """Nested spans for one process; ``first_fit`` keeps the first
    ``admm_fit`` call's arguments for the iteration-cost probe."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.first_fit: tuple | None = None

    @contextmanager
    def span(self, name: str, layer: str):
        parent = self._stack[-1] if self._stack else None
        rec = Span(name=name, layer=layer, start=time.perf_counter(), parent=parent)
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name: str, layer: str):
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "admm_fit" and self.first_fit is None:
                self.first_fit = (fn, args, kwargs)
            with self.span(name, layer) as rec:
                result = fn(*args, **kwargs)
            if note is not None:
                note(rec, args, kwargs, result)
            return result

        return traced

    def own_times(self) -> list[float]:
        """Each span's duration minus the part its child spans cover."""
        own = [rec.duration for rec in self.spans]
        for rec in self.spans:
            if rec.parent is not None:
                own[rec.parent] -= rec.duration
        return own


def _ksvar_modules():
    return [m for name, m in sorted(sys.modules.items()) if name.startswith("ksvar") and m]


def _locate(qualname: str):
    """(owner, attribute) pairs holding ``qualname`` across ksvar modules.

    ``Class.method`` names patch the class attribute once; plain function
    names patch every module-level binding of the same function object.
    """
    modules = _ksvar_modules()
    if "." in qualname:
        cls_name, attr = qualname.split(".", 1)
        for mod in modules:
            cls = getattr(mod, cls_name, None)
            if isinstance(cls, type) and attr in vars(cls):
                return vars(cls)[attr], [(cls, attr)]
        return None, []
    original = None
    for mod in modules:
        obj = vars(mod).get(qualname)
        if callable(obj) and getattr(obj, "__module__", "").startswith("ksvar"):
            original = obj
            break
    if original is None:
        return None, []
    owners = [(mod, qualname) for mod in modules if vars(mod).get(qualname) is original]
    return original, owners


@contextmanager
def patched(tracer: Tracer, layers: dict[str, list[str]]):
    """Route every listed public name through ``tracer`` while active.

    Names absent from the installed ksvar are skipped, so the benchmark
    keeps running when a later version drops one; its spans then read 0.
    """
    saved = []
    try:
        for layer, names in layers.items():
            for qualname in names:
                original, owners = _locate(qualname)
                if original is None:
                    continue
                wrapper = tracer.wrap(original, qualname.rsplit(".", 1)[-1], layer)
                for owner, attr in owners:
                    saved.append((owner, attr, original))
                    setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
