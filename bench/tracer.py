"""Per-layer tracing from outside the program: wrap the public functions.

`Tracer.install()` replaces every public function and method of the
starobs layer modules with a wrapper that counts calls and, for timed
layers, records a span: busy time (outermost active call only, so
recursion is not double counted) and self time (busy time minus the time
of the timed spans it caused).  A name bound by `from .x import f` in
another module, or held as a value of a module-level dict such as the CLI
dispatch table, is patched there too, so every call path is seen.

`Polynomial` methods are count-only: they run millions of times per
problem, and a timed span around each would dominate the run.  Their time
shows as self time of the layer that called them.  The exponent-tuple
helpers are not wrapped at all, for the same reason: they are tuple
additions inside the polynomial product loop.

Named counters record solver shapes and table sizes at the same
boundaries; see `HOOKS`.
"""

from __future__ import annotations

import functools
import inspect
import types
from collections import defaultdict

LAYERS = ("poly", "multivec", "polydiff", "star", "linsolve", "obstruction", "cli")
COUNT_ONLY_CLASSES = {("poly", "Polynomial")}
NOT_WRAPPED = {("poly", "zero_exponents"), ("poly", "unit_exponents"), ("poly", "add_exponents")}
DUNDERS = {"__init__", "__add__", "__sub__", "__mul__", "__neg__", "__pow__"}


def _solve_sparse(counters, args, result, state):
    rows, ncols = args["rows"], args["ncols"]
    name = "linsolve.solve_sparse."
    counters[name + "rows"] += len(rows)
    counters[name + "cols"] += ncols
    counters[name + "nnz"] += sum(len(r) for r in rows)
    counters[name + "rank"] += result.rank
    if result.solved:
        counters[name + "nullity"] += ncols - result.rank
    else:
        counters[name + "infeasible"] += 1


def _extend_pre(counters):
    return counters["linsolve.solve_sparse.cols"]


def _extend_one_order(counters, args, result, state):
    counters["star.extend_one_order.columns"] += counters["linsolve.solve_sparse.cols"] - state
    counters["star.extend_one_order.undecided"] += not result.solved


def _restricted_values(counters, args, result, state):
    counters["polydiff.restricted_values.entries"] += len(result)


def _exactness_solve(counters, args, result, state):
    counters["obstruction.exactness_solve.infeasible"] += not result.solved


def _render_report(counters, args, result, state):
    counters["cli.render_report.bytes"] += len(result.encode("utf-8"))


COUNTERS = (
    "linsolve.solve_sparse.rows",
    "linsolve.solve_sparse.cols",
    "linsolve.solve_sparse.nnz",
    "linsolve.solve_sparse.rank",
    "linsolve.solve_sparse.nullity",
    "linsolve.solve_sparse.infeasible",
    "star.extend_one_order.columns",
    "star.extend_one_order.undecided",
    "polydiff.restricted_values.entries",
    "obstruction.exactness_solve.infeasible",
    "cli.render_report.bytes",
)

# layer name -> (pre hook or None, post hook); post sees the bound arguments
HOOKS = {
    "linsolve.solve_sparse": (None, _solve_sparse),
    "star.extend_one_order": (_extend_pre, _extend_one_order),
    "polydiff.restricted_values": (None, _restricted_values),
    "obstruction.exactness_solve": (None, _exactness_solve),
    "cli.render_report": (None, _render_report),
}


class Tracer:
    """Call counts, busy and self times, and named counters per layer function.

    `clock` times the spans: a perf_counter that stops while the
    benchmark's speed probe runs.
    """

    def __init__(self, clock):
        self.clock = clock
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counters: dict[str, int] = defaultdict(int)
        self._active: dict[str, int] = defaultdict(int)
        self._stack: list[float] = [0.0]
        self._patches: list[tuple[object, str, object]] = []
        self.hook_errors: set[str] = set()

    # -- wrappers -----------------------------------------------------------

    def _count_only(self, name, fn):
        calls = self.calls
        calls[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _timed(self, name, fn):
        calls, busy, self_time = self.calls, self.busy, self.self_time
        active, stack, counters = self._active, self._stack, self.counters
        hook_errors = self.hook_errors
        pre, post = HOOKS.get(name, (None, None))
        signature = inspect.signature(fn) if post is not None else None
        clock = self.clock
        calls[name] = busy[name] = self_time[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            outermost = not active[name]
            active[name] += 1
            state = pre(counters) if pre is not None else None
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                stack[-1] += elapsed
                self_time[name] += elapsed - children
                if outermost:
                    busy[name] += elapsed
                active[name] -= 1
            if post is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    post(counters, bound.arguments, result, state)
                except (KeyError, AttributeError, TypeError):
                    # the layer's signature or result changed; its counters stop
                    hook_errors.add(name)
            return result

        return wrapper

    # -- installation -------------------------------------------------------

    def _targets(self, package):
        """(owner, attribute, original, layer name, count_only) to wrap."""
        for short in LAYERS:
            module = getattr(package, short)
            for attr, obj in sorted(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, types.FunctionType):
                    if (short, attr) not in NOT_WRAPPED:
                        yield module, attr, obj, f"{short}.{attr}", False
                elif isinstance(obj, type):
                    count_only = (short, attr) in COUNT_ONLY_CLASSES
                    for meth, raw in sorted(vars(obj).items()):
                        if meth.startswith("_") and meth not in DUNDERS:
                            continue
                        func = getattr(raw, "__func__", raw)
                        if isinstance(func, types.FunctionType):
                            name = f"{short}.{attr}.{func.__name__}"
                            yield obj, meth, raw, name, count_only

    def install(self, package):
        """Wrap the layer functions of `package` (the imported starobs)."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.counters.update(dict.fromkeys(COUNTERS, 0))
        wrapped: dict[int, object] = {}
        for owner, attr, raw, name, count_only in list(self._targets(package)):
            func = getattr(raw, "__func__", raw)
            if id(func) not in wrapped:
                make = self._count_only if count_only else self._timed
                wrapped[id(func)] = make(name, func)
            wrapper = wrapped[id(func)]
            if isinstance(raw, (classmethod, staticmethod)):
                wrapper = type(raw)(wrapper)
            self._patch(owner, attr, wrapper)
        # rebind names imported into other modules and values of module dicts
        modules = [package] + [getattr(package, short) for short in LAYERS]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if isinstance(obj, types.FunctionType) and id(obj) in wrapped:
                    self._patch(module, attr, wrapped[id(obj)])
                elif isinstance(obj, dict) and not attr.startswith("__"):
                    for key, value in list(obj.items()):
                        if isinstance(value, types.FunctionType) and id(value) in wrapped:
                            self._patch(obj, key, wrapped[id(value)])

    def _patch(self, owner, attr, value):
        if isinstance(owner, dict):
            self._patches.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self._patches.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- results ------------------------------------------------------------

    def snapshot(self) -> dict:
        """Every count so far: `<layer>.calls` plus the named counters."""
        out = {f"{name}.calls": n for name, n in self.calls.items()}
        out.update(self.counters)
        return dict(sorted(out.items()))

    def times(self) -> dict:
        out = {f"{name}.busy_s": t for name, t in self.busy.items()}
        out.update({f"{name}.self_s": t for name, t in self.self_time.items()})
        return dict(sorted(out.items()))
