"""Call timers installed around the program's public functions.

The benchmark adds no instrumentation to the program: a :class:`Tracer`
replaces chosen functions and methods with timing wrappers for the
duration of a ``with`` block and restores the originals afterwards.
Module-level functions are replaced in every loaded ``repro`` module
that imported them by name, so ``from repro.x import f`` call sites are
timed too.

Each metric accumulates busy seconds (the sum of call durations, which
can exceed wall time when two worker threads call concurrently) and a
call count.  A call nested inside another call of the same metric on
the same thread is not counted again.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable


class Tracer:
    """Timing wrappers around program callables, active inside ``with``."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._plan: list[tuple[str, str, str, str | None, Callable | None]] = []
        self._undo: list[tuple[Any, str, Any]] = []

    def time(
        self, metric: str, module: str, name: str, observe: Callable | None = None
    ) -> "Tracer":
        """Time calls to ``module.name`` (``Class.method`` for methods).

        ``observe``, when given, is called with each timed call's
        arguments before the call runs.
        """
        self._plan.append((metric, module, name, None, observe))
        return self

    def count_within(
        self, metric: str, module: str, name: str, within: str
    ) -> "Tracer":
        """Count calls to ``module.name`` made inside a ``within`` call."""
        self._plan.append((metric, module, name, within, None))
        return self

    def __enter__(self) -> "Tracer":
        try:
            for metric, module, name, within, observe in self._plan:
                self._install(metric, module, name, within, observe)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc: object) -> None:
        self._restore()

    def _open(self) -> set[str]:
        opened = getattr(self._local, "open", None)
        if opened is None:
            opened = self._local.open = set()
        return opened

    def _install(
        self,
        metric: str,
        module: str,
        name: str,
        within: str | None,
        observe: Callable | None,
    ) -> None:
        owner = importlib.import_module(module)
        if "." in name:
            class_name, attr = name.split(".")
            cls = getattr(owner, class_name)
            original = cls.__dict__[attr]
            setattr(cls, attr, self._wrap(metric, original, within, observe))
            self._undo.append((cls, attr, original))
            return
        original = getattr(owner, name)
        wrapper = self._wrap(metric, original, within, observe)
        for loaded_name, loaded in list(sys.modules.items()):
            if loaded_name.split(".")[0] != "repro":
                continue
            if getattr(loaded, name, None) is original:
                setattr(loaded, name, wrapper)
                self._undo.append((loaded, name, original))

    def _restore(self) -> None:
        while self._undo:
            target, attr, original = self._undo.pop()
            setattr(target, attr, original)

    def _wrap(
        self,
        metric: str,
        fn: Callable,
        within: str | None,
        observe: Callable | None,
    ) -> Callable:
        if within is not None:

            @functools.wraps(fn)
            def counted(*args: Any, **kwargs: Any) -> Any:
                if within in self._open():
                    with self._lock:
                        self.calls[metric] += 1
                return fn(*args, **kwargs)

            return counted

        @functools.wraps(fn)
        def timed(*args: Any, **kwargs: Any) -> Any:
            opened = self._open()
            if metric in opened:
                return fn(*args, **kwargs)
            if observe is not None:
                observe(*args, **kwargs)
            opened.add(metric)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                opened.discard(metric)
                with self._lock:
                    self.seconds[metric] += elapsed
                    self.calls[metric] += 1

        return timed
