"""Spans around calls into scorelang's public functions.

`Tracer.install` rebinds each traced function in every scorelang module
namespace that holds it (`cli`, `harness` and `semantics` import names
directly, so wrapping only the defining module would miss their calls) and
`uninstall` puts the originals back.  A call made while the same function
is already open, such as `invert` recursing on its own arms, runs without
a span of its own.  Spans stay in memory until `summarize` reads them.
"""

from __future__ import annotations

import sys
from time import perf_counter

# Span names are "<module>.<function>"; per-layer metrics append ".self_s"
# or ".calls" to them.
TRACED = {
    "parser": ("tokenize", "parse"),
    "syntax": ("check_well_formed", "invert", "pretty", "variables_of"),
    "state": ("dump_state", "parse_state_declarations"),
    "semantics": ("eval_n", "eval_a", "eval_r", "eval_traced"),
    "harness": (
        "gen_term",
        "gen_state",
        "check_strong_reversibility",
        "check_weak_reversibility_a",
        "check_agreement_a_r",
        "check_failure_correspondence",
        "run_fuzz",
        "exhaustive_pop_push_inverse",
        "exhaustive_pop_injective",
        "minimize",
    ),
    "cli": ("main",),
}

# Spans whose result size is recorded as the span's item count.
ITEMS = {"parser.tokenize": len}

NAME, PARENT, OP, START, END, ITEM_COUNT = range(6)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = -1
        self._open = -1
        self._active: dict[str, bool] = {}
        self._saved: list[tuple] = []

    def wrap(self, name: str, fn):
        spans, active, measure = self.spans, self._active, ITEMS.get(name)

        def traced(*args, **kwargs):
            if active.get(name):
                return fn(*args, **kwargs)
            parent = self._open
            span = [name, parent, self.op, perf_counter(), 0.0, 0]
            self._open = len(spans)
            spans.append(span)
            active[name] = True
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                self._open = parent
                active[name] = False
            if measure is not None:
                span[ITEM_COUNT] = measure(result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "scorelang" or n.startswith("scorelang.")]
        for module_name, functions in TRACED.items():
            home = sys.modules[f"scorelang.{module_name}"]
            for function in functions:
                original = getattr(home, function)
                wrapper = self.wrap(f"{module_name}.{function}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._saved.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


def summarize(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, total self time in seconds, items, and self
    seconds per operation id.  Self time is a span's duration minus
    the durations of its direct children; spans nest strictly in this
    single-threaded program, so the children never overlap."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    out: dict[str, dict] = {}
    for i, span in enumerate(spans):
        entry = out.setdefault(span[NAME], {"calls": 0, "self_s": 0.0, "items": 0, "by_op": {}})
        own = span[END] - span[START] - child[i]
        entry["calls"] += 1
        entry["self_s"] += own
        entry["items"] += span[ITEM_COUNT]
        entry["by_op"][span[OP]] = entry["by_op"].get(span[OP], 0.0) + own
    return out
