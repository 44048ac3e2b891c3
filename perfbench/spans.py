"""Spans around calls into ctxlab's public functions, recorded from outside.

``Tracer.install`` wraps each function in ``TRACED`` and rebinds the wrapper
in every ``ctxlab`` module that holds the original (``from ... import``
copies included), so calls between modules are seen too.  A wrapper calls
the original object, so ``lru_cache`` state is shared with untraced calls.
Spans live in memory as ``(name, start, end, parent, op, id)`` tuples;
metrics are derived from them when the run ends.
"""

from __future__ import annotations

import statistics
import sys
import time

TRACED = (
    ("logic", "parse_logic"),
    ("logic", "validate_logic"),
    ("logic", "paste_logics"),
    ("catalog", "catalog_get"),
    ("realization", "parse_vectors"),
    ("realization", "born_probabilities"),
    ("realization", "quantum_vs_classical"),
    ("states", "enumerate_states"),
    ("states", "classify_states"),
    ("states", "pair_property"),
    ("states", "convex_mixture"),
    ("states", "check_measure"),
    ("states", "certify_value_indefiniteness"),
    ("polytope", "vertices_from_states"),
    ("polytope", "facet_enumeration"),
    ("polytope", "canonical_inequality"),
    ("polytope", "membership"),
    ("polytope", "axiom_implied"),
    ("exactlp", "solve_standard"),
    ("urn", "urn_simulate"),
)

CACHED = ("states.enumerate_states", "polytope.facet_enumeration")


def _bits(x) -> int:
    return max(x.numerator.bit_length(), x.denominator.bit_length())


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.failed: dict[str, int] = {}
        self.op = -1
        self.recording = True  # off while the benchmark checks an answer
        self.lp_cells = 0
        self.lp_max_bits = 0
        self.facets_found = 0
        self.states_found = 0
        self.draws = 0
        self.cache = {name: [0, 0] for name in CACHED}  # hits, misses
        self._stack: list[int] = []
        self._next = 0
        self._bound: list[tuple[object, str, object]] = []
        self.originals: dict[str, object] = {}

    def load(self) -> None:
        """Import the traced modules and remember the original functions."""
        import importlib
        for mod, fn in TRACED:
            module = importlib.import_module(f"ctxlab.{mod}")
            self.originals[f"{mod}.{fn}"] = getattr(module, fn)

    def _wrap(self, name: str, orig):
        spans, stack, failed = self.spans, self._stack, self.failed
        clock = time.perf_counter
        cache = self.cache.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return orig(*args, **kwargs)
            idx = tracer._next
            tracer._next += 1
            parent = stack[-1] if stack else -1
            stack.append(idx)
            if cache is not None:
                before = orig.cache_info()
            start = clock()
            try:
                result = orig(*args, **kwargs)
            except BaseException:
                failed[name] = failed.get(name, 0) + 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans.append((name, start, end, parent, tracer.op, idx))
            if cache is not None:
                after = orig.cache_info()
                hit = after.hits - before.hits
                cache[0] += hit
                cache[1] += after.misses - before.misses
                if not hit:
                    tracer._count_new(name, result)
            elif name == "exactlp.solve_standard":
                A, c = args[1], args[0]
                tracer.lp_cells += len(A) * len(c)
                if result.x is not None:
                    tracer.lp_max_bits = max(tracer.lp_max_bits,
                                             max(map(_bits, result.x), default=0))
            elif name == "urn.urn_simulate":
                tracer.draws += result.draws
            return result

        wrapper.__wrapped__ = orig
        return wrapper

    def _count_new(self, name: str, result) -> None:
        if name == "states.enumerate_states":
            self.states_found += len(result)
        else:
            self.facets_found += len(result.facets)

    def install(self) -> None:
        if not self.originals:
            self.load()
        for name, orig in self.originals.items():
            wrapper = self._wrap(name, orig)
            for mname, module in list(sys.modules.items()):
                if mname == "ctxlab" or mname.startswith("ctxlab."):
                    attr = name.rsplit(".", 1)[1]
                    if getattr(module, attr, None) is orig:
                        setattr(module, attr, wrapper)
                        self._bound.append((module, attr, orig))

    def uninstall(self) -> None:
        for module, attr, orig in self._bound:
            setattr(module, attr, orig)
        self._bound.clear()

    # ------------------------------------------------------------ metrics

    def _child_time(self) -> dict[int, float]:
        child: dict[int, float] = {}
        for name, start, end, parent, op, idx in self.spans:
            if parent >= 0:
                child[parent] = child.get(parent, 0.0) + (end - start)
        return child

    def self_times(self) -> dict[str, float]:
        """Per-function self time: span duration minus its children's."""
        child = self._child_time()
        out: dict[str, float] = {}
        for name, start, end, parent, op, idx in self.spans:
            out[name] = out.get(name, 0.0) + (end - start) - child.get(idx, 0.0)
        return out

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for span in self.spans:
            out[span[0]] = out.get(span[0], 0) + 1
        return out

    def durations_ms(self, name: str) -> list[float]:
        return [(s[2] - s[1]) * 1e3 for s in self.spans if s[0] == name]

    def share(self, ops: set[int], op_time: float, name: str, self_only: bool) -> float:
        """Fraction of ``op_time`` spent in ``name`` (its self time when
        ``self_only``) within the given ops.  The traced names never nest in
        themselves, so inclusive durations do not double count."""
        if op_time <= 0:
            return 0.0
        child = self._child_time() if self_only else {}
        spent = sum((end - start) - child.get(idx, 0.0)
                    for n, start, end, parent, op, idx in self.spans
                    if n == name and op in ops)
        return spent / op_time


def hit_ratio(pair) -> float:
    hits, misses = pair
    return hits / (hits + misses) if hits + misses else 0.0


def median(values, default=0.0):
    return statistics.median(values) if values else default
