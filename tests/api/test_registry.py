"""Tests for the experiment registry, parameter specs and coercion."""

import pytest

from repro.api import (
    DuplicateExperimentError,
    Experiment,
    ExperimentNotFoundError,
    ParameterError,
    ParamSpec,
    get_experiment,
    list_experiments,
    normalize_records,
    register_experiment,
    unregister_experiment,
)

EXPECTED_EXPERIMENTS = {
    "fig8a",
    "fig8c",
    "fig9",
    "fig10_capacitance",
    "fig10_m1_m2",
    "fig10_resistance",
    "fig12",
    "energy",
    "table_ampacity",
    "table_thermal",
    "table_density",
    "table_doping_resistance",
}

# The extension studies registered in repro.analysis.studies.
EXPECTED_STUDIES = {
    "crosstalk",
    "em_lifetime",
    "variability",
    "growth_window",
    "wafer_uniformity",
    "composite_tradeoff",
    "tlm",
    "self_heating",
}


class TestRegistry:
    def test_every_paper_experiment_is_registered(self):
        names = {experiment.name for experiment in list_experiments()}
        assert EXPECTED_EXPERIMENTS <= names

    def test_every_extension_study_is_registered(self):
        names = {experiment.name for experiment in list_experiments()}
        assert EXPECTED_STUDIES <= names
        assert len(EXPECTED_EXPERIMENTS | EXPECTED_STUDIES) >= 19

    def test_extension_studies_tagged_and_described(self):
        for experiment in list_experiments(tag="extension"):
            assert experiment.description
            for spec in experiment.params:
                assert spec.help, f"{experiment.name}.{spec.name} lacks help text"

    def test_em_lifetime_gain_when_copper_fails_immediately(self):
        # At a stress density where copper fails instantly, copper's gain
        # over itself is undefined (NaN) while surviving materials are
        # infinitely better -- not inf across the board.
        import math

        from repro.api import Engine

        records = Engine().run("em_lifetime", current_density=1.0e12).to_records()
        by_material = {record["material"]: record for record in records}
        assert by_material["copper"]["lifetime_years"] == 0.0
        assert math.isnan(by_material["copper"]["gain_over_copper"])
        assert by_material["cnt"]["gain_over_copper"] == float("inf")

    def test_cheap_studies_run_and_cache_through_the_engine(self, tmp_path):
        # The heavyweight studies (crosstalk, fig12, ...) are exercised by the
        # benchmarks; here a representative cheap subset proves every study is
        # a real engine citizen: runnable, memoised and replayable.
        from repro.api import Engine

        engine = Engine(store=str(tmp_path))
        for name, params in [
            ("em_lifetime", {}),
            ("variability", {"n_devices": 50}),
            ("growth_window", {"temperatures_c": (400.0, 600.0)}),
            ("wafer_uniformity", {}),
            ("composite_tradeoff", {"fractions": (0.0, 0.3)}),
            ("tlm", {}),
            ("self_heating", {}),
        ]:
            first = engine.run(name, params)
            assert len(first) > 0, name
            replay = engine.run(name, params)
            assert replay.meta["cache_hit"] is True, name
            assert replay == first, name

    def test_lookup_unknown_name(self):
        with pytest.raises(ExperimentNotFoundError, match="registered:"):
            get_experiment("fig99")

    def test_lookup_typo_suggests_nearest_names(self):
        with pytest.raises(ExperimentNotFoundError, match="did you mean: variability"):
            get_experiment("varibility")

    def test_lookup_far_off_name_has_no_suggestion(self):
        with pytest.raises(ExperimentNotFoundError) as excinfo:
            get_experiment("zzzzzzzz")
        assert "did you mean" not in str(excinfo.value)

    def test_tag_filtering(self):
        tables = {e.name for e in list_experiments(tag="table")}
        assert "table_ampacity" in tables
        assert "fig9" not in tables

    def test_registration_collision(self):
        @register_experiment("api_test_collision")
        def first():
            return []

        try:
            with pytest.raises(DuplicateExperimentError, match="already registered"):

                @register_experiment("api_test_collision")
                def second():
                    return []

            # replace=True overrides explicitly.
            @register_experiment("api_test_collision", replace=True)
            def third():
                return [{"x": 1}]

            assert get_experiment("api_test_collision").run() == [{"x": 1}]
        finally:
            unregister_experiment("api_test_collision")

    def test_description_defaults_to_docstring(self):
        @register_experiment("api_test_doc")
        def documented():
            """First line wins.

            Not this one.
            """
            return []

        try:
            assert get_experiment("api_test_doc").description == "First line wins."
        finally:
            unregister_experiment("api_test_doc")


class TestParamSpec:
    def test_scalar_coercion(self):
        assert ParamSpec("x", "float").coerce("2.5") == 2.5
        assert ParamSpec("x", "int").coerce("7") == 7
        assert ParamSpec("x", "str").coerce(14) == "14"

    def test_bool_coercion(self):
        spec = ParamSpec("x", "bool")
        assert spec.coerce("true") is True
        assert spec.coerce("False") is False
        assert spec.coerce(True) is True
        with pytest.raises(ParameterError):
            spec.coerce("maybe")

    def test_tuple_coercion_from_csv_string(self):
        assert ParamSpec("x", "floats").coerce("1,2.5,3") == (1.0, 2.5, 3.0)
        assert ParamSpec("x", "ints").coerce([1, 2]) == (1, 2)
        assert ParamSpec("x", "floats").coerce(5) == (5.0,)

    def test_choices(self):
        spec = ParamSpec("tech", "str", "45nm", choices=("14nm", "45nm"))
        assert spec.coerce("14nm") == "14nm"
        with pytest.raises(ParameterError, match="must be one of"):
            spec.coerce("7nm")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown param kind"):
            ParamSpec("x", "complex")

    def test_bad_value_mentions_param(self):
        with pytest.raises(ParameterError, match="'x'"):
            ParamSpec("x", "float").coerce("not-a-number")


class TestExperimentParams:
    def experiment(self):
        return Experiment(
            name="demo",
            fn=lambda a, b, flag: [{"a": a, "b": b, "flag": flag}],
            params=(
                ParamSpec("a", "float", 1.0),
                ParamSpec("b", "floats", (1.0, 2.0)),
                ParamSpec("flag", "bool", True),
            ),
        )

    def test_defaults_and_overrides(self):
        experiment = self.experiment()
        resolved = experiment.resolve_params({"a": "3"})
        assert resolved == {"a": 3.0, "b": (1.0, 2.0), "flag": True}

    def test_unknown_param_rejected(self):
        with pytest.raises(ParameterError, match="no parameter 'c'"):
            self.experiment().resolve_params({"c": 1})

    def test_missing_required_param(self):
        experiment = Experiment(
            name="demo", fn=lambda a: [], params=(ParamSpec("a", "float"),)
        )
        with pytest.raises(ParameterError, match="missing required"):
            experiment.resolve_params()

    def test_duplicate_param_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate parameter"):
            Experiment(
                name="demo",
                fn=lambda a: [],
                params=(ParamSpec("a"), ParamSpec("a")),
            )

    def test_run_normalizes(self):
        experiment = self.experiment()
        records = experiment.run(flag="false")
        assert records == [{"a": 1.0, "b": (1.0, 2.0), "flag": False}]


class TestNormalizeRecords:
    def test_list_of_dicts_passthrough(self):
        assert normalize_records([{"a": 1}]) == [{"a": 1}]

    def test_single_dict_wrapped(self):
        assert normalize_records({"a": 1}) == [{"a": 1}]

    def test_dataclass_converted(self):
        from dataclasses import dataclass

        @dataclass
        class Point:
            x: float
            y: float

        assert normalize_records(Point(1.0, 2.0)) == [{"x": 1.0, "y": 2.0}]

    def test_bad_types_rejected(self):
        with pytest.raises(TypeError):
            normalize_records(42)
        with pytest.raises(TypeError):
            normalize_records([1, 2])
