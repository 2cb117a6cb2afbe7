"""Tests for the pacon.metrics schema guard (repro.obs.schema)."""

import json

from repro.obs import schema
from tests.obs.conftest import make_observed_world


def exported_doc():
    world = make_observed_world()
    for i in range(5):
        world.run(world.client.create(f"/app/f{i}"))
    world.quiesce()
    world.hub.stop_samplers()
    return world.hub.export()


class TestValidate:
    def test_real_export_conforms(self):
        doc = exported_doc()
        assert schema.validate(doc) == []

    def test_round_trip_through_json_conforms(self):
        doc = json.loads(json.dumps(exported_doc()))
        assert schema.validate(doc) == []

    def test_wrong_schema_string_flagged(self):
        doc = exported_doc()
        doc["schema"] = "pacon.metrics/v1"
        problems = schema.validate(doc)
        assert any(schema.SCHEMA in p for p in problems)

    def test_missing_counter_flagged(self):
        doc = exported_doc()
        del doc["counters"]["commit.published"]
        problems = schema.validate(doc)
        assert any("commit.published" in p for p in problems)

    def test_missing_histogram_flagged(self):
        doc = exported_doc()
        del doc["histograms"]["commit.batch_size"]
        problems = schema.validate(doc)
        assert any("commit.batch_size" in p for p in problems)

    def test_missing_top_level_section_flagged(self):
        doc = exported_doc()
        del doc["regions"]
        problems = schema.validate(doc)
        assert any("regions" in p for p in problems)

    def test_region_commit_snapshot_fields_required(self):
        doc = exported_doc()
        region_key = next(iter(doc["regions"]))
        del doc["regions"][region_key]["commit"]["coalesced"]
        problems = schema.validate(doc)
        assert any("coalesced" in p for p in problems)

    def test_non_dict_document_rejected(self):
        assert schema.validate([]) != []


class TestValidateV4:
    """v4-only sections: the incident flight recorder."""

    def test_missing_timeline_section_flagged(self):
        doc = exported_doc()
        del doc["timeline"]
        problems = schema.validate(doc)
        assert any("timeline" in p for p in problems)

    def test_missing_incidents_section_flagged(self):
        doc = exported_doc()
        del doc["incidents"]
        problems = schema.validate(doc)
        assert any("incidents" in p for p in problems)

    def test_timeline_event_missing_field_flagged(self):
        doc = exported_doc()
        doc["timeline"]["events"].append(
            {"seq": 99, "t": 0.1, "source": "chaos",
             "kind": "fault.injected", "label": "x", "detail": "",
             "duration": 0.0})  # no "ref"
        problems = schema.validate(doc)
        assert any("seq=99" in p and "'ref'" in p for p in problems)

    def test_incident_suspect_missing_field_flagged(self):
        doc = exported_doc()
        doc["incidents"]["incidents"].append(
            {"id": "INC-009", "rule": "r", "series": "x", "start": 0.0,
             "end": 0.1, "peak": 1.0, "bound": 0.5,
             "verdict": {"ok": False},
             "suspects": [{"rank": 1, "seq": 1, "kind": "fault.injected",
                           "label": "f", "t": 0.0, "score": 1.0}]})
        problems = schema.validate(doc)
        assert any("INC-009" in p and "evidence" in p for p in problems)

    def test_v3_document_rejected(self):
        # v4 is the only contract: an archived v3 export (no timeline or
        # incidents sections) no longer validates.
        doc = exported_doc()
        del doc["timeline"]
        del doc["incidents"]
        doc["schema"] = "pacon.metrics/v3"
        problems = schema.validate(doc)
        assert any("pacon.metrics/v3" in p for p in problems)
        assert any("timeline" in p for p in problems)


def bench_doc():
    """A minimal conformant pacon.bench/v1 document."""
    return {
        "schema": schema.BENCH_SCHEMA,
        "label": "test",
        "scale": "smoke",
        "seed": 0xBEE,
        "experiments": {
            "figX": {
                "title": "t", "scale": "smoke", "seed": 0xBEE,
                "params": {"nodes": 2},
                "rows": [{"system": "pacon", "ops": 1.0}],
                "derived": {"speedup": 2.0}, "notes": ["n"],
                "host": {"wall_clock_s": 0.1},
            },
        },
        "host": {"wall_clock_s": 0.2, "peak_rss_bytes": 1024},
    }


class TestValidateBench:
    def test_minimal_doc_conforms(self):
        assert schema.validate_bench(bench_doc()) == []

    def test_wrong_schema_string_flagged(self):
        doc = bench_doc()
        doc["schema"] = "pacon.bench/v0"
        problems = schema.validate_bench(doc)
        assert any("pacon.bench/v1" in p for p in problems)

    def test_missing_top_level_field_flagged(self):
        doc = bench_doc()
        del doc["seed"]
        assert any("seed" in p for p in schema.validate_bench(doc))

    def test_empty_experiments_flagged(self):
        doc = bench_doc()
        doc["experiments"] = {}
        assert schema.validate_bench(doc) != []

    def test_missing_experiment_field_flagged(self):
        doc = bench_doc()
        del doc["experiments"]["figX"]["derived"]
        problems = schema.validate_bench(doc)
        assert any("derived" in p for p in problems)

    def test_empty_rows_flagged(self):
        doc = bench_doc()
        doc["experiments"]["figX"]["rows"] = []
        assert schema.validate_bench(doc) != []

    def test_non_numeric_derived_flagged(self):
        doc = bench_doc()
        doc["experiments"]["figX"]["derived"]["speedup"] = "fast"
        problems = schema.validate_bench(doc)
        assert any("speedup" in p for p in problems)

    def test_non_dict_document_rejected(self):
        assert schema.validate_bench([]) != []

    def test_validate_any_dispatches_on_schema(self):
        assert schema.validate_any(bench_doc()) == []
        assert schema.validate_any(exported_doc()) == []


class TestCli:
    def test_main_accepts_conformant_file(self, tmp_path):
        path = tmp_path / "metrics.json"
        path.write_text(json.dumps(exported_doc()))
        assert schema.main([str(path)]) == 0

    def test_main_rejects_drifted_file(self, tmp_path):
        doc = exported_doc()
        del doc["counters"]["commit.published"]
        path = tmp_path / "metrics.json"
        path.write_text(json.dumps(doc))
        assert schema.main([str(path)]) == 1

    def test_main_without_args_is_usage_error(self):
        assert schema.main([]) == 2

    def test_main_accepts_bench_file(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(bench_doc()))
        assert schema.main([str(path)]) == 0

    def test_main_rejects_drifted_bench_file(self, tmp_path):
        doc = bench_doc()
        del doc["experiments"]["figX"]["rows"]
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(doc))
        assert schema.main([str(path)]) == 1
