"""Schema guards for the JSON documents this repo publishes.

Two contracts live here:

* ``pacon.metrics/v4`` (:func:`validate`) — the MetricsHub export.  CI
  runs an instrumented fig. 7 smoke pass and feeds the ``--metrics-out``
  JSON through it — renaming a metric, dropping a section, or bumping
  the schema string without updating this contract fails the build
  instead of silently breaking downstream dashboards.
* ``pacon.bench/v1`` (:func:`validate_bench`) — the benchmark snapshot
  (``BENCH_<label>.json``) written by ``pacon-bench all``.  The CI perf
  gate and ``pacon-bench compare``/``history`` refuse documents that
  drift from it.

Each contract is a table of ``(path, required fields)`` rows checked by
one walker, plus a few ``(path, predicate, expectation)`` value rows.
A path walks the document from its root: dot-separated object keys,
``*`` for every value of an object, ``[]`` for every element of a list.
Missing nodes are skipped (the parent row reports the absent field);
a node of the wrong type is reported once.

The required metric names are the ones an instrumented Pacon run is
*guaranteed* to produce (counters and histograms are created lazily, so
conditionally emitted series — discards, publish stalls — are not
required).
"""

from __future__ import annotations

import json
import sys
from typing import Any, Callable, Dict, Iterator, List, Sequence, Tuple

from repro.obs.hub import SCHEMA

__all__ = ["SCHEMA", "BENCH_SCHEMA", "METRICS_CONTRACT", "BENCH_CONTRACT",
           "CHAOS_CONTRACT", "validate", "validate_bench",
           "validate_chaos", "validate_any", "main"]

#: Version string of the benchmark snapshot document.
BENCH_SCHEMA = "pacon.bench/v1"

Rule = Tuple[str, Tuple[str, ...]]
ValueRule = Tuple[str, Callable[[Any], bool], str]


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


#: The ``pacon.metrics/v4`` export.
METRICS_CONTRACT: Tuple[Rule, ...] = (
    ("", ("schema", "enabled", "counters", "histograms", "series",
          "regions", "clients", "attribution", "resources", "trace",
          "consistency", "slo", "timeline", "incidents")),
    ("counters", ("client.ops", "commit.published", "commit.committed")),
    # commit.batch_size appears whenever the batched drain path runs,
    # i.e. any config with commit_batch_size > 1 (the default).
    ("histograms", ("commit.latency", "commit.batch_size")),
    ("regions.*.commit", ("committed", "discarded", "resubmissions",
                          "coalesced", "barriers_passed", "replays",
                          "aborts")),
    ("attribution", ("ops", "total_ops", "buckets")),
    ("attribution.ops.*", ("count", "mean_latency", "buckets",
                           "residual")),
    ("resources", ()),
    ("consistency", ("reads", "orphan_reads", "staleness",
                     "staleness_p99", "visibility", "pending_mutations",
                     "shard_reads", "sketches")),
    ("consistency.staleness", ("age", "lag")),
    ("consistency.sketches.*", ("buckets",)),
    ("slo", ("policy", "verdict", "objectives")),
    ("slo.objectives[]", ("name", "kind", "metric", "measured", "target",
                          "ok")),
    ("timeline", ("count", "dropped", "events")),
    ("timeline.events[]", ("seq", "t", "source", "kind", "label",
                           "detail", "duration", "ref")),
    ("incidents", ("policy", "count", "incidents")),
    ("incidents.incidents[]", ("id", "rule", "series", "start", "end",
                               "duration", "peak", "bound", "verdict",
                               "suspects", "saturated")),
    ("incidents.incidents[].suspects[]", ("rank", "seq", "kind", "label",
                                          "t", "score", "evidence")),
)

METRICS_VALUES: Tuple[ValueRule, ...] = (
    ("schema", lambda v: v == SCHEMA, repr(SCHEMA)),
    ("regions", bool, "at least one region (hub never attached?)"),
    ("slo.verdict", lambda v: v in ("pass", "fail"), "'pass' or 'fail'"),
)

#: Fault-injection runs (``pacon-bench chaos``) on top of the metrics
#: contract: every fault injects and recovers, and every recovery
#: observes its downtime.
CHAOS_CONTRACT: Tuple[Rule, ...] = (
    ("counters", ("chaos.injected", "chaos.recovered")),
    ("histograms", ("chaos.downtime",)),
)

#: The ``pacon.bench/v1`` snapshot.  ``rows``/``derived`` are the
#: simulated (deterministic) payload; ``host`` holds harness wall-clock
#: facts and is excluded from byte-identity guarantees.
BENCH_CONTRACT: Tuple[Rule, ...] = (
    ("", ("schema", "label", "scale", "seed", "experiments", "host")),
    ("host", ()),
    ("experiments.*", ("title", "scale", "seed", "params", "rows",
                       "derived", "notes", "host")),
    ("experiments.*.rows[]", ()),
    ("experiments.*.derived", ()),
    ("experiments.*.host", ()),
)

BENCH_VALUES: Tuple[ValueRule, ...] = (
    ("schema", lambda v: v == BENCH_SCHEMA, repr(BENCH_SCHEMA)),
    ("seed", _is_int, "an integer"),
    ("experiments", bool, "at least one experiment (runner never ran?)"),
    ("experiments.*.rows", bool, "at least one row"),
    ("experiments.*.derived.*", _is_number, "a number"),
    ("experiments.*.seed", lambda v: v is None or _is_int(v),
     "an integer"),
)

#: Fields that name a list element in problem messages, in preference
#: order; elements without one are named by index.
_ID_FIELDS = ("id", "seq", "name")


def _element_label(index: int, element: Any) -> str:
    if isinstance(element, dict):
        for field in _ID_FIELDS:
            if field in element:
                return f"[{field}={element[field]!r}]"
    return f"[{index}]"


def _walk(node: Any, steps: Sequence[str], label: str,
          problems: List[str]) -> Iterator[Tuple[str, Any]]:
    """Yield ``(label, node)`` for every node ``steps`` reaches."""
    if not steps:
        yield label, node
        return
    step, rest = steps[0], steps[1:]
    if step == "[]":
        if not isinstance(node, list):
            problems.append(f"{label} is not a list")
            return
        for index, element in enumerate(node):
            yield from _walk(element, rest,
                             label + _element_label(index, element),
                             problems)
        return
    if not isinstance(node, dict):
        problems.append(f"{label} is not an object")
        return
    keys = list(node) if step == "*" else [step] if step in node else []
    for key in keys:
        yield from _walk(node[key], rest,
                         key if label == "document" else f"{label}.{key}",
                         problems)


def _check(doc: Any, rules: Sequence[Rule],
           values: Sequence[ValueRule] = ()) -> List[str]:
    """Run one contract over ``doc``; returns de-duplicated problems."""
    problems: List[str] = []

    def nodes(path: str) -> Iterator[Tuple[str, Any]]:
        steps = path.replace("[]", ".[]").split(".") if path else []
        return _walk(doc, steps, "document", problems)

    for path, fields in rules:
        for label, node in nodes(path):
            if not isinstance(node, dict):
                problems.append(f"{label} is not an object")
                continue
            problems.extend(f"{label} missing {field!r}"
                            for field in fields if field not in node)
    for path, ok, expected in values:
        for label, value in nodes(path):
            if not ok(value):
                problems.append(f"{label} is {value!r}, expected"
                                f" {expected}")
    return list(dict.fromkeys(problems))


def validate(doc: Dict[str, Any]) -> List[str]:
    """Return a list of schema-drift problems (empty means conformant)."""
    if not isinstance(doc, dict):
        return [f"document is {type(doc).__name__}, expected object"]
    return _check(doc, METRICS_CONTRACT, METRICS_VALUES)


def validate_chaos(doc: Dict[str, Any]) -> List[str]:
    """Extended contract for fault-injection runs (``pacon-bench chaos``).

    Everything :func:`validate` requires, plus :data:`CHAOS_CONTRACT`
    and the fault lifecycle: at least one fault fired, and each injected
    fault recovered (the engine drove the matching heal/restart).
    """
    problems = validate(doc)
    if not isinstance(doc, dict):
        return problems
    problems += _check(doc, CHAOS_CONTRACT)
    counters = doc.get("counters", {})
    if isinstance(counters, dict):
        injected = counters.get("chaos.injected")
        recovered = counters.get("chaos.recovered")
        if _is_number(injected) and not injected > 0:
            problems.append("chaos.injected is 0 (no fault ever fired)")
        if _is_number(injected) and _is_number(recovered) \
                and injected != recovered:
            problems.append(f"chaos.injected ({injected}) !="
                            f" chaos.recovered ({recovered}):"
                            " some fault never recovered")
    return problems


def validate_bench(doc: Dict[str, Any]) -> List[str]:
    """Return schema problems of a ``pacon.bench/v1`` snapshot document."""
    if not isinstance(doc, dict):
        return [f"document is {type(doc).__name__}, expected object"]
    return _check(doc, BENCH_CONTRACT, BENCH_VALUES)


def _is_bench(doc: Any) -> bool:
    return isinstance(doc, dict) and \
        str(doc.get("schema", "")).startswith("pacon.bench/")


def validate_any(doc: Any) -> List[str]:
    """Dispatch on the document's schema family (metrics vs bench)."""
    return validate_bench(doc) if _is_bench(doc) else validate(doc)


def main(argv: List[str] = None) -> int:
    """``python -m repro.obs.schema [--chaos] FILE [...]`` — exit 1 on drift.

    Accepts ``pacon.metrics/v4`` exports and ``pacon.bench/v1``
    snapshots, picking the contract from each file's ``schema`` field.
    ``--chaos`` additionally holds metrics exports to the fault-injection
    contract (:func:`validate_chaos`).
    """
    argv = sys.argv[1:] if argv is None else argv
    chaos = "--chaos" in argv
    argv = [a for a in argv if a != "--chaos"]
    if not argv:
        print("usage: python -m repro.obs.schema [--chaos]"
              " METRICS_OR_BENCH_JSON [...]", file=sys.stderr)
        return 2
    status = 0
    for path in argv:
        with open(path) as fh:
            doc = json.load(fh)
        if chaos and not _is_bench(doc):
            problems = validate_chaos(doc)
        else:
            problems = validate_any(doc)
        if problems:
            status = 1
            print(f"{path}: {len(problems)} schema problem(s)")
            for problem in problems:
                print(f"  - {problem}")
        else:
            schema = doc.get("schema") if isinstance(doc, dict) else SCHEMA
            print(f"{path}: conforms to {schema}")
    return status


if __name__ == "__main__":  # pragma: no cover - CLI
    sys.exit(main())
