"""Outside-in layer tracer: spans around the program's public functions.

:class:`LayerTracer` replaces public functions of the program's modules
with wrappers (``layers.py`` holds the table) and restores them on
:meth:`LayerTracer.uninstall`.  Nothing in the program is edited.

Host time is attributed by transitions.  The tracer keeps the stack of
spans running on the host right now; opening or closing a span, and
resuming or suspending a traced generator, charges the host time since
the previous clock read to the span on top of the stack, or to the
residual when the stack is empty (the DES kernel, resource primitives
and any code not wrapped).  A span's self time is thus its duration with
its children's removed, and the self times plus the residual add up to
the traced section's wall time.

A wrapped function that returns a generator (the program's DES ops, and
plain functions that build one) keeps its span open in a proxy
generator until the inner generator finishes, and the span is charged
only while that generator runs.  When the kernel resumes a process, the
resume passes down a chain of proxies (``yield from`` delegation) and
only the innermost one runs program code, so only the outermost proxy
reads the clock on the way in and only the innermost on the way out.

Each span has an op id shared by every span of one client op.  A
long-lived loop span (the commit loop, the gauge sampler) hands each
child call a fresh op id, so commit-side spans are rooted at the commit
RPC.  Full span records are kept for a deterministic sample of op ids;
aggregates are kept for every call.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from types import GeneratorType, SimpleNamespace
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

__all__ = ["FnStats", "LayerTracer", "wrapper_ns"]

_NO_ENV = SimpleNamespace(now=0.0)


class FnStats:
    """Aggregate counters of one wrapped function (or of the residual).

    ``resumes`` counts resumes that read the clock (the first one, and
    those coming straight from the kernel); ``delegated`` counts resumes
    passed down from an outer traced generator.  The wrapper work after a
    resume's clock read is paid by the span that reads the clock next,
    the innermost one running: ``absorbed_resumes`` and
    ``absorbed_delegated`` count the resumes paid for here.  ``child_*``
    count the calls and resumes this function's code made into wrapped
    functions; part of their wrapper cost is charged here too.
    """

    __slots__ = ("layer", "name", "calls", "gen_calls", "resumes",
                 "delegated", "absorbed_resumes", "absorbed_delegated",
                 "child_calls", "child_gen_calls",
                 "child_resumes", "self_ns", "errors")

    def __init__(self, layer: str, name: str):
        self.layer = layer
        self.name = name
        self.reset()

    def reset(self) -> None:
        self.calls = 0
        self.gen_calls = 0
        self.resumes = 0
        self.delegated = 0
        self.absorbed_resumes = 0
        self.absorbed_delegated = 0
        self.child_calls = 0
        self.child_gen_calls = 0
        self.child_resumes = 0
        self.self_ns = 0
        self.errors = 0

    def snapshot(self) -> Dict[str, int]:
        return {slot: getattr(self, slot) for slot in self.__slots__[2:]}


class _State:
    __slots__ = ("on", "last", "fresh", "lead", "chain", "next_op",
                 "next_span", "env", "sample_every")


# A span is a list: [stats, op_id, span_id, loop, parent_id, host_start,
# sim_start] -- cheaper to build than an object on the hot path.
_STATS, _OP, _ID, _LOOP, _PARENT, _HOST0, _SIM0 = range(7)


class LayerTracer:
    """Install wrappers, attribute host time, keep sampled spans."""

    def __init__(self, sample_every: int = 64):
        self.clock = time.perf_counter_ns
        st = self._state = _State()
        st.on = False
        st.last = 0
        st.fresh = False
        st.lead = 0
        st.chain = 0
        st.next_op = 0
        st.next_span = 0
        st.env = _NO_ENV
        st.sample_every = sample_every
        self._stack: List[list] = []
        self.residual = FnStats("residual", "residual")
        self.functions: List[FnStats] = []
        self.spans: List[Tuple] = []
        self._undo: List[Tuple[Any, str, Any]] = []

    @property
    def env(self) -> Any:
        return self._state.env

    # -- spans ---------------------------------------------------------
    def _finish(self, span: list) -> None:
        """Keep the full record of a sampled span."""
        st = self._state
        if st.on:
            stats = span[_STATS]
            self.spans.append((
                span[_OP], span[_ID], span[_PARENT], stats.layer,
                stats.name, span[_HOST0], self.clock(), span[_SIM0],
                st.env.now))

    def _drive(self, inner: GeneratorType, span: list):
        """Proxy generator: charge ``span`` only while ``inner`` runs."""
        st = self._state
        stack = self._stack
        clock = self.clock
        residual = self.residual
        stats = span[_STATS]
        send = inner.send
        value = None
        error: Optional[BaseException] = None
        first = True
        try:
            while True:
                if first or not stack:
                    # Started by the caller's code, or resumed by the
                    # kernel: the time so far belongs to them.
                    now = clock()
                    caller = stack[-1][_STATS] if stack else residual
                    caller.self_ns += now - st.last
                    caller.absorbed_resumes += st.lead
                    caller.absorbed_delegated += st.chain
                    caller.child_resumes += 1
                    stats.resumes += 1
                    st.last = now
                    st.lead = 1
                    st.chain = 0
                    first = False
                else:
                    # Delegated resume from an outer proxy: no program
                    # code ran since its clock read.
                    stats.delegated += 1
                    st.chain += 1
                stack.append(span)
                st.fresh = True
                try:
                    if error is None:
                        event = send(value)
                    else:
                        event = inner.throw(error)
                except BaseException as exc:
                    now = clock()
                    stats.self_ns += now - st.last
                    stats.absorbed_resumes += st.lead
                    stats.absorbed_delegated += st.chain
                    st.last = now
                    st.lead = st.chain = 0
                    st.fresh = True
                    stack.pop()
                    if isinstance(exc, StopIteration):
                        return exc.value
                    stats.errors += 1
                    raise
                if st.fresh:
                    # Innermost proxy on the way out: the program code
                    # since the last clock read was this span's.
                    now = clock()
                    stats.self_ns += now - st.last
                    stats.absorbed_resumes += st.lead
                    stats.absorbed_delegated += st.chain
                    st.last = now
                    st.lead = st.chain = 0
                    st.fresh = False
                stack.pop()
                try:
                    value = yield event
                    error = None
                except GeneratorExit:
                    inner.close()
                    raise
                except BaseException as exc:
                    value = None
                    error = exc
        finally:
            if span[_OP] % st.sample_every == 0:
                self._finish(span)

    # -- wrapping ------------------------------------------------------
    def wrap(self, fn: Callable, layer: str, name: str, loop: bool = False,
             guard: bool = False,
             after: Optional[Callable[[Any], None]] = None) -> Callable:
        """Return a traced stand-in for ``fn``.

        ``loop`` marks a long-lived function whose child calls start new
        op ids.  ``guard`` skips recording when the call's ``self`` is
        switched off (the program's NULL hub/tracer objects).  ``after``
        sees the return value of a call that did not return a generator.
        """
        stats = FnStats(layer, name)
        self.functions.append(stats)
        st = self._state
        stack = self._stack
        clock = self.clock
        residual = self.residual
        drive = self._drive
        finish = self._finish

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not st.on or (guard and not getattr(args[0], "enabled",
                                                   True)):
                return fn(*args, **kwargs)
            now = clock()
            if stack:
                top = stack[-1]
                caller = top[_STATS]
                if top[_LOOP]:
                    st.next_op += 1
                    op_id = st.next_op
                else:
                    op_id = top[_OP]
                parent_id = top[_ID]
            else:
                caller = residual
                st.next_op += 1
                op_id = st.next_op
                parent_id = 0
            caller.self_ns += now - st.last
            caller.absorbed_resumes += st.lead
            caller.absorbed_delegated += st.chain
            st.lead = st.chain = 0
            caller.child_calls += 1
            stats.calls += 1
            st.next_span += 1
            span = [stats, op_id, st.next_span, loop, parent_id, now,
                    st.env.now]
            stack.append(span)
            st.last = now
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stats.errors += 1
                raise
            finally:
                now = clock()
                stats.self_ns += now - st.last
                st.last = now
                st.fresh = True
                stack.pop()
            if type(result) is GeneratorType:
                stats.gen_calls += 1
                caller.child_gen_calls += 1
                return drive(result, span)
            if op_id % st.sample_every == 0:
                finish(span)
            if after is not None:
                after(result)
            return result

        return wrapper

    def patch(self, owner: Any, attr: str, layer: str, **options) -> None:
        """Replace ``owner.attr`` (a class or module) by a traced wrapper."""
        original = owner.__dict__[attr]
        qual = f"{owner.__name__.rpartition('.')[2]}.{attr}"
        wrapped = self.wrap(original, layer, qual, **options)
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, original))
        if isinstance(owner, type):
            return
        # Modules that imported the function by name hold their own
        # reference; patch those too or their calls go unseen.
        for module in list(sys.modules.values()):
            if (module is not owner and module is not None
                    and getattr(module, "__name__", "").startswith("repro.")
                    and module.__dict__.get(attr) is original):
                setattr(module, attr, wrapped)
                self._undo.append((module, attr, original))

    def install(self, table: Iterable[Tuple[str, str, Dict[str, Any]]],
                ) -> None:
        """Patch every ``(layer, target, options)`` entry of ``table``.

        A ``module:Class`` target patches the public plain functions the
        class itself defines (``options["only"]`` narrows the set and
        ``options["per_name"]`` adds options for single functions); a
        ``module:function`` target patches one module-level function.
        """
        for layer, target, options in table:
            module_name, _, name = target.partition(":")
            obj = importlib.import_module(module_name).__dict__[name]
            options = dict(options)
            only = options.pop("only", None)
            per_name = options.pop("per_name", {})
            if not isinstance(obj, type):
                self.patch(sys.modules[module_name], name, layer, **options)
                continue
            for attr, value in list(obj.__dict__.items()):
                if attr.startswith("_") or not callable(value) or \
                        isinstance(value, (staticmethod, classmethod, type)):
                    continue
                if only is not None and attr not in only:
                    continue
                self.patch(obj, attr, layer,
                           **{**options, **per_name.get(attr, {})})

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- section control -----------------------------------------------
    def start_section(self, env: Any) -> None:
        """Zero the counters and start charging time (end of set-up).

        The caller turns recording on before set-up (``set_recording``)
        so that long-lived processes started there, such as the commit
        loops, run inside their spans; only set-up's counts are dropped.
        """
        st = self._state
        st.env = env
        st.on = True
        for stats in self.functions:
            stats.reset()
        self.residual.reset()
        self.spans.clear()
        st.last = self.clock()

    def end_section(self) -> Dict[str, Dict[str, int]]:
        """Charge the tail, stop recording, return per-function totals."""
        st = self._state
        now = self.clock()
        self.residual.self_ns += now - st.last
        st.last = now
        st.on = False
        out = {"residual": self.residual.snapshot()}
        for stats in self.functions:
            out[f"{stats.layer}:{stats.name}"] = stats.snapshot()
        return out

    def set_recording(self, on: bool) -> None:
        self._state.on = on

    # -- calibration ---------------------------------------------------
    def calibrate(self, rounds: int = 20000) -> Dict[str, float]:
        """Wrapper cost in ns per call, per resume and per delegated resume.

        ``*_in`` lands in the wrapped function's own self time and
        ``*_out`` in its caller's.  Measured on empty functions and
        generators driven from untraced code (as the kernel resumes
        processes) and under a traced outer generator, against the same
        loops with unwrapped callees.  Medians of five trials.
        """
        trials = [self._calibrate_once(rounds) for _ in range(5)]
        return {key: sorted(t[key] for t in trials)[2] for key in trials[0]}

    def _calibrate_once(self, rounds: int) -> Dict[str, float]:
        st = self._state
        saved = (st.on, st.env, st.sample_every)
        st.on, st.env, st.sample_every = True, _NO_ENV, 1 << 62

        def empty():
            return None

        def gen(k):
            for _ in range(k):
                yield None

        def outer(inner, k):
            yield from inner(k)

        probe_fn = self.wrap(empty, "calibration", "fn")
        probe_gen = self.wrap(gen, "calibration", "gen")
        probe_outer = self.wrap(outer, "calibration", "outer")
        child_fn, child_gen, outer_stats = self.functions[-3:]
        del self.functions[-3:]
        everyone = (child_fn, child_gen, outer_stats, self.residual)

        def run(body) -> Dict[str, float]:
            """Self ns per round of ``body``, per function."""
            for stats in everyone:
                stats.reset()
            st.lead = st.chain = 0
            st.last = self.clock()
            body()
            now = self.clock()
            self.residual.self_ns += now - st.last
            st.last = now
            return {stats.name: stats.self_ns / rounds for stats in everyone}

        def calls(callee):
            for _ in range(rounds):
                callee()

        def drains(callee, *args):
            for _ in range(rounds):
                for _ in callee(*args):
                    pass

        try:
            base = run(lambda: calls(empty))
            fn = run(lambda: calls(probe_fn))
            # A generator yielding k items is resumed k + 1 times; under
            # a traced outer generator all but the first are delegated.
            direct, nested = {}, {}
            for k in (0, 4):
                plain = run(lambda: drains(gen, k))
                traced = run(lambda: drains(probe_gen, k))
                direct[k] = (traced["residual"] - plain["residual"],
                             traced["gen"])
                alone = run(lambda: drains(probe_outer, gen, k))
                both = run(lambda: drains(probe_outer, probe_gen, k))
                nested[k] = (both["residual"] + both["outer"]
                             - alone["residual"] - alone["outer"],
                             both["gen"])
        finally:
            st.on, st.env, st.sample_every = saved
            self.residual.reset()
        resume_out = (direct[4][0] - direct[0][0]) / 4
        resume_in = (direct[4][1] - direct[0][1]) / 4
        return {
            "fn_in": fn["fn"],
            "fn_out": fn["residual"] - base["residual"],
            "gen_in": direct[0][1] - resume_in,
            "gen_out": direct[0][0] - resume_out,
            "resume_in": resume_in,
            "resume_out": resume_out,
            # Per delegated resume: the innermost running span pays for
            # the chain (its clock read closes the whole resume), and the
            # outer proxies' own delegation work moves into it.
            "delegated": (nested[4][1] - nested[0][1]
                          + nested[4][0] - nested[0][0]) / 4,
        }


def wrapper_ns(stats: Dict[str, int], cost: Dict[str, float]) -> float:
    """Calibrated wrapper cost charged to one function's self time.

    A generator call's ``gen_*`` cost covers the call and building the
    proxy.  The ``_in`` side of the function's own calls, the ``_out``
    side of its children's calls and resumes, and the resumes it absorbed
    land in its self time.
    """
    fn_calls = stats["calls"] - stats["gen_calls"]
    child_fn = stats["child_calls"] - stats["child_gen_calls"]
    return (fn_calls * cost["fn_in"] + stats["gen_calls"] * cost["gen_in"]
            + stats["absorbed_resumes"] * cost["resume_in"]
            + stats["absorbed_delegated"] * cost["delegated"]
            + child_fn * cost["fn_out"]
            + stats["child_gen_calls"] * cost["gen_out"]
            + stats["child_resumes"] * cost["resume_out"])
