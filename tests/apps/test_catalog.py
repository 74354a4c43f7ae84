"""Table-I catalog tests."""

import pytest

from repro.apps import TABLE_I, app_by_name, supported_on
from repro.apps.application import Application, make_job_request
from repro.errors import ConfigurationError
from repro.experiments import table1
from repro.simkernel.rng import RngStreams


def test_catalog_has_15_rows():
    assert len(TABLE_I) == 15


def test_platform_split_matches_paper():
    def coded(code):
        return {a.name for a in TABLE_I if a.platform_code == code}

    assert len(coded("L")) == 10
    assert coded("W") == {"Backburner", "Opera"}
    assert coded("W&L") == {"COMSOL", "ANSYS FLUENT", "MATLAB"}


def test_supported_on_counts():
    assert len(supported_on("linux")) == 13
    assert len(supported_on("windows")) == 5


def test_platform_codes():
    assert app_by_name("DL_POLY").platform_code == "L"
    assert app_by_name("Backburner").platform_code == "W"
    assert app_by_name("MATLAB").platform_code == "W&L"


def test_app_by_name_unknown():
    with pytest.raises(ConfigurationError):
        app_by_name("Gaussian")


def test_descriptions_from_paper():
    assert app_by_name("CASTEP").description == (
        "CAmbridge Sequential Total Energy Package"
    )
    assert "3ds Max" in app_by_name("Backburner").description


def test_table1_experiment_renders_every_row():
    text = table1.run().tables[0].render()
    for app in TABLE_I:
        assert app.name in text
    assert "W&L" in text and "Table I" in text


def test_application_platform_validation():
    with pytest.raises(ConfigurationError):
        Application("X", "desc", frozenset())
    with pytest.raises(ConfigurationError):
        Application("X", "desc", frozenset({"beos"}))


def test_make_job_request_respects_platforms():
    rng = RngStreams(5)
    for app in TABLE_I:
        request = make_job_request(app, rng)
        assert request.os_name in app.platforms
        assert request.cores in app.profile.core_options
        assert request.runtime_s > 0


def test_make_job_request_preference_honoured_when_supported():
    rng = RngStreams(5)
    matlab = app_by_name("MATLAB")
    request = make_job_request(matlab, rng, platform_preference="windows")
    assert request.os_name == "windows"
    dlpoly = app_by_name("DL_POLY")
    request = make_job_request(dlpoly, rng, platform_preference="windows")
    assert request.os_name == "linux"  # preference unsupported -> native


def test_requests_deterministic_per_seed():
    a = make_job_request(app_by_name("MATLAB"), RngStreams(9))
    b = make_job_request(app_by_name("MATLAB"), RngStreams(9))
    assert a == b
