"""Tests for the AnalysisRequest schema: round-trips and validation."""

import json
from dataclasses import fields

import pytest

from repro.service.request import (
    _FIELD_TYPES,
    REQUEST_KINDS,
    AnalysisRequest,
    RequestValidationError,
)


class TestRoundTrip:
    def test_dict_round_trip_defaults(self):
        request = AnalysisRequest(kind="run", program="bench").validate()
        assert AnalysisRequest.from_dict(request.to_dict()) == request

    def test_dict_round_trip_every_field(self):
        request = AnalysisRequest(
            kind="sweep",
            program="bench",
            variants=8,
            max_rows_per_block=16,
            return_periods=(10.0, 50.0),
            tvar_levels=(0.95,),
            seed=7,
            quote=False,
            tags={"client": "desk-3"},
        ).validate()
        assert AnalysisRequest.from_dict(request.to_dict()) == request

    def test_json_round_trip(self):
        request = AnalysisRequest(
            kind="run_many", programs=("a", "b"), yet="y", shards=2
        ).validate()
        document = json.dumps(request.to_dict())
        assert AnalysisRequest.from_json(document) == request

    def test_to_dict_is_json_compatible(self):
        request = AnalysisRequest(kind="uncertainty", program="bench", seed=3)
        json.dumps(request.to_dict())

    def test_lists_become_tuples(self):
        request = AnalysisRequest.from_dict(
            {"kind": "run_many", "programs": ["a", "b"]}
        )
        assert request.programs == ("a", "b")
        assert isinstance(request.return_periods, tuple)


class TestValidation:
    def test_all_kinds_accepted(self):
        for kind in REQUEST_KINDS:
            AnalysisRequest(kind=kind)  # construction never validates eagerly

    def test_unknown_kind_rejected(self):
        with pytest.raises(RequestValidationError, match="unknown kind"):
            AnalysisRequest(kind="teleport").validate()

    def test_unknown_field_rejected(self):
        with pytest.raises(RequestValidationError, match="unknown fields.*programme"):
            AnalysisRequest.from_dict({"kind": "run", "programme": "typo"})

    def test_missing_kind_rejected(self):
        with pytest.raises(RequestValidationError, match="missing required field 'kind'"):
            AnalysisRequest.from_dict({"program": "bench"})

    def test_run_requires_program(self):
        with pytest.raises(RequestValidationError, match="requires a program"):
            AnalysisRequest(kind="run").validate()

    def test_run_rejects_program_list(self):
        with pytest.raises(RequestValidationError, match="single program"):
            AnalysisRequest(kind="run", program="a", programs=("b",)).validate()

    def test_run_many_needs_programs_or_variants(self):
        with pytest.raises(RequestValidationError, match="explicit program names"):
            AnalysisRequest(kind="run_many", program="a").validate()

    def test_run_many_rejects_both_forms(self):
        with pytest.raises(RequestValidationError, match="either"):
            AnalysisRequest(
                kind="run_many", program="a", variants=2, programs=("b",)
            ).validate()

    def test_stack_is_not_a_field(self):
        """``run_stacked`` is not a request kind, so nothing takes a stack."""
        assert "run_stacked" not in REQUEST_KINDS
        with pytest.raises(RequestValidationError, match="unknown fields"):
            AnalysisRequest.from_dict({"kind": "run", "program": "a", "stack": "s"})
        with pytest.raises(RequestValidationError, match="unknown kind"):
            AnalysisRequest.from_dict({"kind": "run_stacked", "yet": "y"})

    @pytest.mark.parametrize(
        "overrides,match",
        [
            (dict(replications=0), "replications"),
            (dict(replication_block=-1), "replication_block"),
            (dict(cv=-0.5), "cv"),
            (dict(method="guess"), "unknown method"),
            (dict(return_periods=(0.0,)), "return periods"),
            (dict(tvar_levels=(1.5,)), "TVaR levels"),
            (dict(variants=-1), "variants"),
            (dict(max_rows_per_block=-2), "max_rows_per_block"),
        ],
    )
    def test_field_bounds(self, overrides, match):
        with pytest.raises(RequestValidationError, match=match):
            AnalysisRequest(kind="uncertainty", program="a", **overrides).validate()

    def test_workers_rejected_on_uncertainty(self):
        with pytest.raises(RequestValidationError, match="does not support distributed"):
            AnalysisRequest(kind="uncertainty", program="a", workers=("h:1",)).validate()

    @pytest.mark.parametrize("kind", ["run_many", "sweep"])
    def test_workers_accepted_on_many_program_kinds(self, kind):
        AnalysisRequest(kind=kind, program="a", variants=2, workers=("h:1",)).validate()

    def test_dedupe_is_not_a_field(self):
        """The service always dedupes; the knob is gone from the wire."""
        with pytest.raises(RequestValidationError, match="unknown fields"):
            AnalysisRequest.from_dict({"kind": "run_many", "programs": ["a"], "dedupe": False})

    @pytest.mark.parametrize("address", ["localhost", "host:", ":9", "host:http"])
    def test_worker_address_must_be_host_port(self, address):
        with pytest.raises(RequestValidationError, match="HOST:PORT"):
            AnalysisRequest(kind="run", program="a", workers=(address,)).validate()

    def test_workers_round_trip(self):
        request = AnalysisRequest(
            kind="run", program="a", workers=("10.0.0.1:7001", "10.0.0.2:7001")
        ).validate()
        assert AnalysisRequest.from_dict(request.to_dict()) == request
        assert AnalysisRequest.from_json(json.dumps(request.to_dict())).workers == request.workers

    def test_validation_error_names_field(self):
        with pytest.raises(RequestValidationError) as excinfo:
            AnalysisRequest(kind="run").validate()
        assert excinfo.value.field == "program"

    def test_invalid_json_document(self):
        with pytest.raises(RequestValidationError, match="not valid JSON"):
            AnalysisRequest.from_json("{nope")

    def test_non_mapping_payload_rejected(self):
        with pytest.raises(RequestValidationError, match="expected a mapping"):
            AnalysisRequest.from_dict(["kind", "run"])

    def test_scalar_list_field_rejected(self):
        with pytest.raises(RequestValidationError, match="must be a list"):
            AnalysisRequest.from_dict({"kind": "run_many", "programs": "solo"})


class TestMetricAxes:
    """Axis values that cannot be a band: non-finite, under a year, or two
    values whose ``:g`` band names collide (they would pool 2R values)."""

    @pytest.mark.parametrize("field,values", [
        ("return_periods", [100, 100]),
        ("return_periods", [100.0000001, 100.0000002]),
        ("return_periods", [float("nan")]),
        ("return_periods", [float("inf")]),
        ("return_periods", [0.5]),
        ("tvar_levels", [0.99, 0.99]),
        ("tvar_levels", [0.99, 0.990000001]),
    ])
    def test_rejected_naming_the_field(self, field, values):
        payload = {"kind": "uncertainty", "program": "tiny", field: values}
        with pytest.raises(RequestValidationError) as excinfo:
            AnalysisRequest.from_dict(payload)
        assert excinfo.value.field == field

    def test_distinct_and_integral_values_accepted(self):
        request = AnalysisRequest.from_dict({
            "kind": "uncertainty", "program": "tiny",
            "return_periods": [1, 100, 100.5], "tvar_levels": [0.99, 0.995],
        })
        assert request.return_periods == (1, 100, 100.5)


class TestFieldTypes:
    """Wire values of the wrong type are field errors, never a raw
    ``TypeError`` and never a silently different request."""

    def test_every_field_has_a_wire_type(self):
        assert set(_FIELD_TYPES) == {each.name for each in fields(AnalysisRequest)}

    @pytest.mark.parametrize("field,value", [
        ("shards", "2"),
        ("shards", 2.5),
        ("replications", "4"),
        ("variants", True),
        ("quote", "no"),
        ("result_cache", 1),
        ("cv", "0.5"),
        ("cv", False),
        ("return_periods", ["a"]),
        ("tvar_levels", [True]),
        ("programs", ["a", 3]),
        ("workers", "h:1"),
        ("program", 7),
        ("kind", 5),
        ("seed", "abc"),
        ("seed", 1.5),
        ("seed", -1),
        ("tags", ["x"]),
        ("yet", 3),
        ("max_rows_per_block", 1.5),
        ("family", None),
        ("method", ["batched"]),
        ("replication_block", "8"),
    ])
    def test_wrong_type_names_the_field(self, field, value):
        payload = {"kind": "run", "program": "tiny", field: value}
        with pytest.raises(RequestValidationError) as excinfo:
            AnalysisRequest.from_dict(payload)
        assert excinfo.value.field == field

    def test_json_numbers_and_nulls_accepted(self):
        request = AnalysisRequest.from_dict({
            "kind": "uncertainty", "program": "tiny", "yet": None, "seed": None,
            "cv": 1, "return_periods": [100, 250.0], "replications": 3,
        })
        assert (request.cv, request.seed, request.yet) == (1, None, None)
        assert AnalysisRequest.from_dict({"kind": "run", "program": "a", "seed": 0}).seed == 0
