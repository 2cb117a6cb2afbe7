"""Declarative SLO engine over ``pacon.metrics`` documents.

A :class:`Policy` is a named list of objectives; each objective evaluates
one exported metrics document (the dict :meth:`MetricsHub.export`
returns, or the same JSON loaded back from disk) into a :class:`Verdict`.
Four objective kinds cover the paper's service-level story:

* :class:`LatencyObjective` — a percentile of an exported latency
  distribution (``histograms`` section) must not exceed a target.
* :class:`StalenessObjective` — the staleness lens must stay inside a
  bound: whole-run, the merged staleness-age distribution
  (``consistency`` section); windowed, the ``consistency.pending_age``
  gauge series (the only staleness signal with a time axis).
* :class:`ErrorRatioObjective` — failed client ops over total ops.
* :class:`BurnRateObjective` — multi-window burn rate over a gauge
  series: the fraction of samples above a threshold, divided by the
  error budget, computed over several trailing windows.  The objective
  fails only when *every* window has burned through its budget — the
  standard multi-window rule that ignores short blips (long window
  clean) and long-faded incidents (short window clean).
* :class:`SeriesThresholdObjective` — any gauge series bounded by
  max/final/mean aggregation inside a window; the incident detector
  uses it to stamp a per-incident verdict over the incident's own span.

Evaluation is windowable for chaos scenarios: ``window=(t0, t1)``
restricts series-based objectives to the fault or recovery phase, and
objectives that only exist as whole-run aggregates (histograms,
counters) abstain rather than report a misleading cumulative value.

Everything here is pure arithmetic over an already-exported document —
no simulation state, no wall clock — so same-seed runs produce
byte-identical SLO sections.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Verdict",
    "PolicyResult",
    "LatencyObjective",
    "StalenessObjective",
    "ErrorRatioObjective",
    "BurnRateObjective",
    "SeriesThresholdObjective",
    "Policy",
    "default_policy",
    "chaos_policy",
    "get_policy",
    "POLICIES",
    "evaluate_file",
]


@dataclass
class Verdict:
    """One objective's outcome against one document (or window of it)."""

    name: str
    kind: str
    metric: str
    measured: float
    target: float
    ok: bool
    detail: str = ""

    def to_doc(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "kind": self.kind,
            "metric": self.metric,
            "measured": self.measured,
            "target": self.target,
            "ok": self.ok,
            "detail": self.detail,
        }


@dataclass
class PolicyResult:
    """All verdicts of one policy evaluation."""

    policy: str
    verdicts: List[Verdict] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(v.ok for v in self.verdicts)

    def failed_verdicts(self) -> List[Verdict]:
        return [v for v in self.verdicts if not v.ok]

    def to_doc(self) -> Dict[str, Any]:
        return {
            "policy": self.policy,
            "verdict": "pass" if self.passed else "fail",
            "objectives": [v.to_doc() for v in
                           sorted(self.verdicts, key=lambda v: v.name)],
        }


def _series_points(doc: Dict[str, Any], prefix: str,
                   window: Optional[Tuple[float, float]] = None,
                   ) -> List[Tuple[float, float]]:
    """All ``(t, v)`` points of series named ``prefix`` or ``prefix[...]``,
    merged across regions, time-sorted, clipped to ``window``."""
    out: List[Tuple[float, float]] = []
    for name, series in (doc.get("series") or {}).items():
        if name == prefix or name.startswith(prefix + "["):
            for t, v in zip(series.get("t", []), series.get("v", [])):
                if window is None or window[0] <= t <= window[1]:
                    out.append((t, v))
    out.sort()
    return out


@dataclass(frozen=True)
class LatencyObjective:
    """``histograms[metric][percentile] <= target`` (whole-run only)."""

    name: str
    metric: str
    percentile: str  # summary key: p50 | p95 | p99 | mean | max
    target: float
    kind = "latency"
    windowable = False

    def evaluate(self, doc: Dict[str, Any],
                 window: Optional[Tuple[float, float]] = None,
                 ) -> Optional[Verdict]:
        if window is not None:
            return None  # cumulative distribution: cannot be windowed
        hist = (doc.get("histograms") or {}).get(self.metric)
        if not hist or not hist.get("count"):
            return Verdict(self.name, self.kind, self.metric, 0.0,
                           self.target, True, "no samples")
        measured = float(hist.get(self.percentile, 0.0))
        return Verdict(self.name, self.kind,
                       f"{self.metric}.{self.percentile}", measured,
                       self.target, measured <= self.target)


@dataclass(frozen=True)
class StalenessObjective:
    """Staleness stays inside ``bound``.

    Whole-run: the merged staleness-age percentile from the
    ``consistency`` section.  Windowed: the ``consistency.pending_age``
    gauge inside the window — ``mode="max"`` bounds the worst
    instantaneous exposure (how stale did reads *get*), ``mode="final"``
    bounds the last sample (did staleness *return* below the bound by
    the end of the window, the post-recovery question).
    """

    name: str
    bound: float
    percentile: str = "p99"
    mode: str = "max"  # windowed aggregation: max | final
    kind = "staleness"
    windowable = True

    def evaluate(self, doc: Dict[str, Any],
                 window: Optional[Tuple[float, float]] = None,
                 ) -> Optional[Verdict]:
        if window is None:
            age = ((doc.get("consistency") or {})
                   .get("staleness", {}).get("age", {}))
            measured = float(age.get(self.percentile, 0.0))
            metric = f"consistency.staleness.age.{self.percentile}"
            detail = "" if age.get("count") else "no samples"
        else:
            pts = _series_points(doc, "consistency.pending_age", window)
            if self.mode == "final":
                measured = pts[-1][1] if pts else 0.0
            else:
                measured = max((v for _, v in pts), default=0.0)
            metric = f"consistency.pending_age.{self.mode}"
            detail = "" if pts else "no samples in window"
        return Verdict(self.name, self.kind, metric, measured, self.bound,
                       measured <= self.bound, detail)


@dataclass(frozen=True)
class ErrorRatioObjective:
    """Failed client ops / total client ops ``<= max_ratio``."""

    name: str
    max_ratio: float
    total_metric: str = "client.ops"
    kind = "error_ratio"
    windowable = False

    def evaluate(self, doc: Dict[str, Any],
                 window: Optional[Tuple[float, float]] = None,
                 ) -> Optional[Verdict]:
        if window is not None:
            return None
        counters = doc.get("counters") or {}
        errors = sum(v for k, v in counters.items()
                     if k.startswith("client.op.") and k.endswith(".errors"))
        total = counters.get(self.total_metric, 0)
        ratio = (errors / total) if total else 0.0
        return Verdict(self.name, self.kind, "client.error_ratio", ratio,
                       self.max_ratio, ratio <= self.max_ratio,
                       f"{errors}/{total} ops failed")


@dataclass(frozen=True)
class BurnRateObjective:
    """Multi-window burn rate over a gauge series.

    For each trailing window (a fraction of the evaluated span ending at
    its last sample) the burn rate is ``bad_fraction / budget`` where
    ``bad_fraction`` is the share of samples above ``threshold``.  The
    objective fails only when every window's burn rate exceeds 1.0 —
    i.e. the violation is both current *and* sustained.  ``measured`` is
    the minimum burn across windows (the one that saves or condemns).
    """

    name: str
    series: str
    threshold: float
    budget: float
    windows: Tuple[float, ...] = (0.1, 1.0)
    kind = "burn_rate"
    windowable = True

    def evaluate(self, doc: Dict[str, Any],
                 window: Optional[Tuple[float, float]] = None,
                 ) -> Optional[Verdict]:
        pts = _series_points(doc, self.series, window)
        if not pts or self.budget <= 0:
            return Verdict(self.name, self.kind, self.series, 0.0, 1.0,
                           True, "no samples")
        t0, t1 = pts[0][0], pts[-1][0]
        span = t1 - t0
        burns: List[Tuple[float, float]] = []
        for frac in self.windows:
            w0 = t1 - span * frac
            wvals = [v for t, v in pts if t >= w0]
            bad = sum(1 for v in wvals if v > self.threshold) / len(wvals)
            burns.append((frac, bad / self.budget))
        measured = min(b for _, b in burns)
        detail = ", ".join(f"w={frac:g}: {burn:.3f}x"
                           for frac, burn in burns)
        return Verdict(self.name, self.kind, self.series, measured, 1.0,
                       measured <= 1.0, detail)


@dataclass(frozen=True)
class SeriesThresholdObjective:
    """Any gauge series stays inside ``bound`` (windowable).

    The generic cousin of :class:`StalenessObjective`'s windowed path:
    aggregates the merged ``series``/``series[...]`` points inside the
    window with ``mode`` — ``max`` (worst excursion), ``final`` (did it
    drain by the end), or ``mean`` — and compares against ``bound``.
    The incident detector attaches one of these per incident, so every
    detected incident carries a real SLO verdict over its own window
    rather than a bespoke number.
    """

    name: str
    series: str
    bound: float
    mode: str = "max"  # max | final | mean
    kind = "series_threshold"
    windowable = True

    def evaluate(self, doc: Dict[str, Any],
                 window: Optional[Tuple[float, float]] = None,
                 ) -> Optional[Verdict]:
        pts = _series_points(doc, self.series, window)
        if not pts:
            return Verdict(self.name, self.kind,
                           f"{self.series}.{self.mode}", 0.0, self.bound,
                           True, "no samples")
        if self.mode == "final":
            measured = pts[-1][1]
        elif self.mode == "mean":
            measured = sum(v for _, v in pts) / len(pts)
        else:
            measured = max(v for _, v in pts)
        return Verdict(self.name, self.kind,
                       f"{self.series}.{self.mode}", measured, self.bound,
                       measured <= self.bound)


@dataclass
class Policy:
    """A named set of objectives evaluated together."""

    name: str
    objectives: List[Any] = field(default_factory=list)

    def evaluate(self, doc: Dict[str, Any],
                 window: Optional[Tuple[float, float]] = None,
                 ) -> PolicyResult:
        result = PolicyResult(self.name)
        for objective in self.objectives:
            verdict = objective.evaluate(doc, window)
            if verdict is not None:  # abstained (not windowable)
                result.verdicts.append(verdict)
        return result


def default_policy() -> Policy:
    """The policy the hub stamps into every export.

    Bounds are deliberately loose — they assert the *machinery* (commit
    pipeline drains, staleness bounded, errors rare), not a particular
    hardware envelope; experiments wanting tight envelopes build their
    own Policy.
    """
    return Policy("default", [
        LatencyObjective("commit-latency-p99", "commit.latency",
                         "p99", 1.0),
        StalenessObjective("staleness-age-p99", bound=1.0),
        ErrorRatioObjective("client-error-ratio", max_ratio=0.01),
        BurnRateObjective("pending-age-burn", "consistency.pending_age",
                          threshold=1.0, budget=0.05),
    ])


def chaos_policy() -> Policy:
    """Windowed policy for fault phases: only objectives with a time
    axis, with bounds sized to 'recovered means converged'."""
    return Policy("chaos", [
        StalenessObjective("staleness-exposure", bound=2.0),
        BurnRateObjective("pending-age-burn", "consistency.pending_age",
                          threshold=2.0, budget=0.25),
    ])


POLICIES = {
    "default": default_policy,
    "chaos": chaos_policy,
}


def get_policy(name: str) -> Policy:
    try:
        return POLICIES[name]()
    except KeyError:
        raise ValueError(f"unknown SLO policy {name!r}; have"
                         f" {sorted(POLICIES)}") from None


def evaluate_file(path: str, policy: Optional[Policy] = None,
                  window: Optional[Tuple[float, float]] = None,
                  ) -> PolicyResult:
    """Offline evaluation of an exported metrics JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return (policy or default_policy()).evaluate(doc, window)


def format_result(result: PolicyResult) -> str:
    """Human-readable table of one policy result (CLI + CI logs)."""
    lines = [f"policy {result.policy}:"
             f" {'PASS' if result.passed else 'FAIL'}"]
    for v in sorted(result.verdicts, key=lambda v: v.name):
        status = "ok  " if v.ok else "FAIL"
        line = (f"  [{status}] {v.name:<24} {v.metric:<38}"
                f" {v.measured:.6g} <= {v.target:.6g}")
        if v.detail:
            line += f"  ({v.detail})"
        lines.append(line)
    return "\n".join(lines)
