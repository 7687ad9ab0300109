"""Per-layer tracing from outside the library.

`Tracer.install()` replaces each public entry point of a pultr layer with
a timing wrapper, at every module binding that holds it, because several
modules import entry points by name (`from .engine import ...`).  Layers
are named by module.  Every wrapped call is a span; a layer's self time
is the span's duration minus the time of the spans nested in it, so
`hom_equivalent -> hom_exists -> solve` is counted once, in three parts.
`uninstall()` puts every original binding back.
"""

import gc
import sys
import time

ENGINE_ENTRIES = (
    "hom_exists",
    "hom_exists_pinned",
    "hom_enumerate",
    "hom_count",
    "hom_equivalent",
)
FUNCTOR_ENTRIES = ("lambda_functor", "gamma_functor")
ADJOINT_ENTRIES = ("omega_odd_path", "arc_graph", "interleaved_adjoint", "power_functor")

# Layers whose self times partition the traced pass (trace.coverage).
LAYERS = (
    "kernel",
    "engine",
    "engine.verify_witness",
    "functors",
    "adjoints",
    "graphs.enumerate_graphs",
    "duality",
    "chromatic",
    "suites",
)


def _public_functions(module):
    return [
        name
        for name, obj in vars(module).items()
        if callable(obj)
        and not name.startswith("_")
        and getattr(obj, "__module__", None) == module.__name__
        and not isinstance(obj, type)
    ]


class Tracer:
    """Spans and counters for one traced pass.  Not thread-safe: the
    benchmark runs every suite with workers=1."""

    def __init__(self):
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.counts = {
            "kernel.calls": 0,
            "kernel.decisions": 0,
            "kernel.budget_hits": 0,
            "engine.calls": 0,
            "engine.shortcut_hits": 0,
            "engine.verify_witness.calls": 0,
            "engine.verify_witness.arcs": 0,
            "functors.calls": 0,
            "functors.out_size": 0,
            "adjoints.calls": 0,
            "adjoints.out_size": 0,
            "graphs.enumerate_graphs.yielded": 0,
            "gc.collections": 0,
        }
        self.gc_pause_s = 0.0
        self._gc_start = None
        # One child-time accumulator per open span, innermost last.
        self._stack = []
        self._restore = []

    # -- spans -------------------------------------------------------------

    def _timed(self, layer, fn, after=None):
        stack = self._stack
        self_s = self.self_s
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                self_s[layer] += dur - stack.pop()
                if stack:
                    stack[-1] += dur
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _timed_generator(self, layer, fn):
        """Each next() of the generator is a span; creating it is not."""
        stack = self._stack
        self_s = self.self_s
        counts = self.counts
        clock = time.perf_counter
        key = layer + ".yielded"

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                stack.append(0.0)
                t0 = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    dur = clock() - t0
                    self_s[layer] += dur - stack.pop()
                    if stack:
                        stack[-1] += dur
                counts[key] += 1
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    # -- counters ----------------------------------------------------------

    def _count_out_size(self, layer):
        counts = self.counts
        calls, size = layer + ".calls", layer + ".out_size"

        def after(args, kwargs, result):
            counts[calls] += 1
            counts[size] += result.n + result.arc_count

        return after

    def _after_kernel(self, args, kwargs, result):
        status, _payload, decisions = result
        self.counts["kernel.calls"] += 1
        self.counts["kernel.decisions"] += decisions
        if status != 0:
            self.counts["kernel.budget_hits"] += 1

    def _after_engine(self, args, kwargs, result):
        self.counts["engine.calls"] += 1

    def _after_hom_exists(self, args, kwargs, result):
        # Classified from the arguments, as engine.hom_exists does: a
        # non-empty source and a looped target take the loop shortcut.
        g, h = args[0], args[1]
        shortcuts = kwargs.get("shortcuts", args[3] if len(args) > 3 else True)
        self.counts["engine.calls"] += 1
        if shortcuts and g.n and h.loop_mask:
            self.counts["engine.shortcut_hits"] += 1

    def _after_verify(self, args, kwargs, result):
        self.counts["engine.verify_witness.calls"] += 1
        self.counts["engine.verify_witness.arcs"] += args[0].arc_count

    def _gc_callback(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.gc_pause_s += time.perf_counter() - self._gc_start
            self.counts["gc.collections"] += 1
            self._gc_start = None

    # -- installation ------------------------------------------------------

    def _rebind(self, module, name, wrap):
        """Replace every pultr module binding of module.name by wrap(orig)."""
        orig = getattr(module, name)
        wrapper = wrap(orig)
        bound = 0
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "pultr" or modname.startswith("pultr.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._restore.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)
                    bound += 1
        if not bound:
            raise RuntimeError(f"no binding of {module.__name__}.{name} found")

    def install(self):
        import pultr.chromatic
        import pultr.duality
        import pultr.engine
        import pultr.functors
        import pultr.adjoints
        import pultr.graphs
        import pultr.suites

        engine = pultr.engine
        self._rebind(
            engine._kernel,
            "solve",
            lambda f: self._timed("kernel", f, self._after_kernel),
        )

        for name in ENGINE_ENTRIES:
            after = self._after_hom_exists if name == "hom_exists" else self._after_engine
            self._rebind(engine, name, lambda f, a=after: self._timed("engine", f, a))
        self._rebind(
            engine,
            "verify_witness",
            lambda f: self._timed("engine.verify_witness", f, self._after_verify),
        )
        for module, names, layer in (
            (pultr.functors, FUNCTOR_ENTRIES, "functors"),
            (pultr.adjoints, ADJOINT_ENTRIES, "adjoints"),
        ):
            after = self._count_out_size(layer)
            for name in names:
                self._rebind(module, name, lambda f, l=layer, a=after: self._timed(l, f, a))
        self._rebind(
            pultr.graphs,
            "enumerate_graphs",
            lambda f: self._timed_generator("graphs.enumerate_graphs", f),
        )
        for module, layer in ((pultr.duality, "duality"), (pultr.chromatic, "chromatic")):
            for name in _public_functions(module):
                self._rebind(module, name, lambda f, l=layer: self._timed(l, f))
        self._rebind(pultr.suites, "run_suite", lambda f: self._timed("suites", f))
        gc.callbacks.append(self._gc_callback)

    def uninstall(self):
        gc.callbacks.remove(self._gc_callback)
        for mod, attr, orig in reversed(self._restore):
            setattr(mod, attr, orig)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def layer_metrics(self, wall_s):
        """Per-layer numbers of one traced pass that took wall_s seconds."""
        c = self.counts
        kernel_s = self.self_s["kernel"]
        m = {name + ".self_s": s for name, s in self.self_s.items()}
        m.update(c)
        m["kernel.decisions_per_call"] = (
            c["kernel.decisions"] / c["kernel.calls"] if c["kernel.calls"] else 0.0
        )
        m["kernel.decisions_per_s"] = c["kernel.decisions"] / kernel_s if kernel_s else 0.0
        m["engine.shortcut_ratio"] = (
            c["engine.shortcut_hits"] / c["engine.calls"] if c["engine.calls"] else 0.0
        )
        m["gc.pause_s"] = self.gc_pause_s
        m["trace.wall_s"] = wall_s
        m["trace.coverage"] = sum(self.self_s.values()) / wall_s
        return m
