"""Fig. 7 bench: single-application mkdir/create/stat — Pacon wins big."""

import json

from repro.bench import fig07
from repro.bench.runner import METRICS_SAMPLE_INTERVAL
from repro.obs import schema
from repro.obs.hub import MetricsHub


def test_fig07_single_app(benchmark, scale, tmp_path):
    hub = MetricsHub(sample_interval=METRICS_SAMPLE_INTERVAL)
    result = benchmark.pedantic(fig07.run, args=(scale,),
                                kwargs={"hub": hub}, iterations=1,
                                rounds=1)
    nodes = fig07.SCALES[scale]["node_counts"][-1]
    pacon = result.where(system="pacon", nodes=nodes)[0]
    beegfs = result.where(system="beegfs", nodes=nodes)[0]
    indexfs = result.where(system="indexfs", nodes=nodes)[0]
    # Paper shape: Pacon >> BeeGFS on writes (76x at paper scale; the
    # factor shrinks at smoke scale but must stay decisively large).
    assert pacon["create"] > beegfs["create"] * 5
    assert pacon["mkdir"] > beegfs["mkdir"] * 5
    # Pacon beats IndexFS on writes.
    assert pacon["create"] > indexfs["create"] * 2
    # Pacon wins random stat against both (the IndexFS gap is narrow at
    # smoke scale where its memtables absorb everything, and widens at
    # ci/paper scale — see EXPERIMENTS.md).
    assert pacon["stat"] > beegfs["stat"] * 1.5
    stat_factor = 1.0 if scale == "smoke" else 1.2
    assert pacon["stat"] > indexfs["stat"] * stat_factor

    # The run doubles as an observability acceptance check: the attached
    # hub must export a complete metrics document alongside the figure.
    artifact = tmp_path / "fig07.metrics.json"
    artifact.write_text(hub.to_json(indent=2))
    doc = json.loads(artifact.read_text())
    assert schema.validate(doc) == []
    hists = doc["histograms"]
    for op in ("mkdir", "create", "getattr"):
        assert hists[f"client.op.{op}.latency"]["count"] > 0
    assert hists["commit.latency"]["count"] > 0
    counters = doc["counters"]
    assert counters["commit.committed"] > 0
    assert counters.get("commit.resubmissions", 0) >= 0
    assert counters.get("commit.discarded", 0) >= 0
    depth_series = [s for name, s in doc["series"].items()
                    if name.startswith("queue.depth[")]
    assert depth_series and any(s["t"] for s in depth_series)
    assert result.metrics is not None
