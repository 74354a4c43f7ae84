"""Table I — applications on the Huddersfield campus cluster.

Names, descriptions and platform codes are verbatim from the paper; the
job profiles are synthetic (see :mod:`repro.apps.application`).
"""

from __future__ import annotations

from typing import List

from repro.apps.application import LINUX, WINDOWS, Application, JobProfile
from repro.errors import ConfigurationError

_L = frozenset({LINUX})
_W = frozenset({WINDOWS})
_WL = frozenset({LINUX, WINDOWS})

TABLE_I: List[Application] = [
    Application(
        "Abaqus", "Finite Element Analysis", _L,
        JobProfile((4, 8), 7200.0, 0.7),
    ),
    Application(
        "Amber",
        "Assisted Model Building with Energy Refinement aimed at biological "
        "systems",
        _L,
        JobProfile((4, 8, 16), 14400.0, 0.9),
    ),
    Application(
        "Backburner", "Rendering software for 3ds Max", _W,
        JobProfile((4, 8, 16), 3600.0, 0.8),
    ),
    Application(
        "Blender", "Open Source 3D Modeller and Renderer", _L,
        JobProfile((1, 2, 4), 1800.0, 0.9),
    ),
    Application(
        "CASTEP", "CAmbridge Sequential Total Energy Package", _L,
        JobProfile((4, 8, 16), 10800.0, 0.8),
    ),
    Application(
        "COMSOL",
        "Multiphysics Modelling, Finite Element Analysis, Engineering "
        "Simulation Software",
        _WL,
        JobProfile((2, 4, 8), 5400.0, 0.7),
    ),
    Application(
        "DL_POLY",
        "General purpose classical molecular dynamics (MD) simulation "
        "software",
        _L,
        JobProfile((4, 8, 16), 21600.0, 0.9),
    ),
    Application(
        "ANSYS FLUENT", "Computational Fluid Dynamics (CFD)", _WL,
        JobProfile((4, 8, 16), 10800.0, 0.8),
    ),
    Application(
        "GAMESS-UK", "Molecular QM code", _L,
        JobProfile((2, 4, 8), 7200.0, 0.8),
    ),
    Application(
        "GULP", "General Utility Lattice Program", _L,
        JobProfile((1, 2, 4), 3600.0, 0.7),
    ),
    Application(
        "LAMMPS", "Large-scale Atomic/Molecular Massively Parallel Simulator",
        _L,
        JobProfile((8, 16, 32), 14400.0, 0.9),
    ),
    Application(
        "MATLAB", "Numerical Computing Environment", _WL,
        JobProfile((1, 2, 4, 8), 2700.0, 1.0),
    ),
    Application(
        "METADISE",
        "Minimum Energy Techniques Applied to Defects, Interfaces and "
        "Surface Energies",
        _L,
        JobProfile((1, 2, 4), 5400.0, 0.8),
    ),
    Application(
        "NWChem", "Multi-purpose QM and MM code", _L,
        JobProfile((4, 8, 16), 10800.0, 0.9),
    ),
    Application(
        "Opera", "Finite Element Analysis for Electromagnetics", _W,
        JobProfile((1, 2, 4), 5400.0, 0.7),
    ),
]


def app_by_name(name: str) -> Application:
    for app in TABLE_I:
        if app.name == name:
            return app
    raise ConfigurationError(f"no Table-I application named {name!r}")


def supported_on(platform: str) -> List[Application]:
    return [app for app in TABLE_I if app.runs_on(platform)]
