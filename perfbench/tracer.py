"""Span tracing of the library from outside it.

``Tracer.install`` wraps every public function of each ``hyperheat``
module, the field constructors and ``SpectralField.hermitian_defect``, and
the ``scipy.fft`` transforms. A wrapper replaces the function wherever a
module looks it up (the defining module, every module that imported the
name, and the package), so calls one module makes into another are spans
too. Spans (name, start, end, parent) stay in memory until ``write``.
"""

import functools
import importlib
import pkgutil
import time
from collections import Counter, defaultdict

import scipy.fft

FFT_FUNCTIONS = ("fft", "ifft", "fftn", "ifftn", "fft2", "ifft2",
                 "rfft", "irfft", "rfftn", "irfftn", "rfft2", "irfft2")


def _module_functions(module):
    """Public callables defined in ``module`` itself (not imported names)."""
    for name, obj in vars(module).items():
        if name.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            yield name, obj


def _fft_points(args, kwargs, result):
    x = args[0] if args else kwargs["x"]
    return {"fft.points": getattr(x, "size", 0)}


class Tracer:
    """Records one span per wrapped call; install, run, uninstall, read."""

    def __init__(self):
        # Each span is [name, start, end, parent index, time covered by children].
        self.spans = []
        # Work measured from calls' arguments and results, such as points transformed.
        self.amounts = Counter()
        self._stack = []
        self._undo = []

    def wrap(self, name, fn, amount=None):
        """A traced stand-in for ``fn``; ``amount(args, kwargs, result)`` returns
        a mapping whose values are added to ``self.amounts``."""
        spans = self.spans
        stack = self._stack
        amounts = self.amounts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent][4] += span[2] - span[1]
            if amount is not None:
                amounts.update(amount(args, kwargs, result))
            return result

        return traced

    def _replace(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self, package, amounts=None):
        """Wrap the package's public functions everywhere they are bound.

        ``amounts`` maps a span name such as ``"solver.picard_solve"`` to an
        ``amount`` callback for that wrapper.
        """
        amounts = amounts or {}
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)]
        wrappers = {}
        for module in modules[1:]:
            layer = module.__name__.rsplit(".", 1)[1]
            for name, fn in _module_functions(module):
                span = f"{layer}.{name}"
                wrappers[id(fn)] = self.wrap(span, fn, amounts.get(span))
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers and callable(obj):
                    self._replace(module, attr, wrappers[id(obj)])
        grid = importlib.import_module(f"{package.__name__}.grid")
        for cls in (grid.RealField, grid.SpectralField):
            self._replace(cls, "__post_init__",
                          self.wrap(f"grid.{cls.__name__}.__post_init__",
                                    cls.__post_init__))
        self._replace(grid.SpectralField, "hermitian_defect",
                      self.wrap("grid.SpectralField.hermitian_defect",
                                grid.SpectralField.hermitian_defect))
        for name in FFT_FUNCTIONS:
            self._replace(scipy.fft, name,
                          self.wrap(f"fft.{name}", getattr(scipy.fft, name), _fft_points))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def summary(self):
        """Per span name: calls and inclusive seconds; per layer: self seconds.

        A span's self time is its duration minus the time its child spans
        cover; a layer is the span name's first dotted component.
        """
        calls = Counter()
        inclusive = defaultdict(float)
        self_time = defaultdict(float)
        for name, start, end, _parent, children in self.spans:
            calls[name] += 1
            inclusive[name] += end - start
            self_time[name.split(".", 1)[0]] += end - start - children
        return calls, inclusive, self_time

    def write(self, path):
        """Write the spans as CSV: index, name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("index,name,start,end,parent\n")
            for i, (name, start, end, parent, _children) in enumerate(self.spans):
                handle.write(f"{i},{name},{start!r},{end!r},{parent}\n")
