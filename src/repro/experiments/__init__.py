"""Reproductions of the paper's evaluation, driven by declarative specs.

Experiments are :class:`~repro.experiments.spec.ExperimentSpec` *data*
(:mod:`repro.experiments.builtin` holds the eight built-ins, registered in
``repro.registry.EXPERIMENT_SPECS``) executed by generic drivers
(:mod:`repro.experiments.driver`) against the open component registries of
:mod:`repro.registry`.  Run one from Python with
``run_spec(EXPERIMENT_SPECS.get("JAM"), scale="small", overrides={...})`` or
from the command line with ``python -m repro.experiments run JAM --scale
small``.  User scenarios ship as ~20-line JSON or TOML files run with
``python -m repro.experiments run --spec FILE`` — see the ``examples/specs/``
directory.
"""

from ..sim.runner import SweepExecutor, SweepTask
from .base import PointResult, run_points
from .builtin import (
    CLUST_SPEC,
    DUAL_SPEC,
    EPID_SPEC,
    FIG5_SPEC,
    FIG6_SPEC,
    FIG7_SPEC,
    JAM_SPEC,
    MAPSZ_SPEC,
)
from .driver import describe_spec, run_spec
from .metrics import airtime_bits, fit_linear_trend, linear_scaling_error
from .spec import ExperimentSpec, SpecValidationError, load_spec

__all__ = [
    "SweepExecutor",
    "SweepTask",
    "PointResult",
    "run_points",
    "ExperimentSpec",
    "SpecValidationError",
    "load_spec",
    "run_spec",
    "describe_spec",
    "FIG5_SPEC",
    "JAM_SPEC",
    "FIG6_SPEC",
    "FIG7_SPEC",
    "CLUST_SPEC",
    "MAPSZ_SPEC",
    "EPID_SPEC",
    "DUAL_SPEC",
    "airtime_bits",
    "fit_linear_trend",
    "linear_scaling_error",
]
