from dataclasses import replace

import numpy as np
import pytest

from duosc.cli import preset_config
from duosc.config import ForceSpec, to_internal, validate_config
from duosc.modes import solve_determinant


def internal(name):
    return to_internal(validate_config(preset_config(name)))


@pytest.fixture(scope="session")
def ic_fig2():
    return internal("fig2")


@pytest.fixture(scope="session")
def ic_fig3():
    return internal("fig3")


@pytest.fixture(scope="session")
def ic_fig4():
    return internal("fig4")


@pytest.fixture(scope="session")
def ic_fig3_heavy2():
    """fig3 with m2 = 1e8 m1: a physical state whose covariance entries
    span many decades in internal units."""
    cfg = preset_config("fig3")
    return to_internal(validate_config(
        replace(cfg, osc2=replace(cfg.osc2, mass=1e8 * cfg.osc1.mass))))


@pytest.fixture(scope="session")
def ic_wideband():
    """fig4's baths at cutoff 200 omega01 and no forces: the wideband
    configuration, two temperatures on one cutoff."""
    cfg = preset_config("fig4")
    cut = 200.0 * cfg.osc1.eigenfrequency
    zero = ForceSpec(kind="zero")
    return to_internal(validate_config(replace(
        cfg, bath1=replace(cfg.bath1, cutoff=cut),
        bath2=replace(cfg.bath2, cutoff=cut), force1=zero, force2=zero)))


@pytest.fixture(scope="session")
def modes_fig3(ic_fig3):
    return solve_determinant(ic_fig3)


@pytest.fixture(scope="session")
def modes_fig2(ic_fig2):
    return solve_determinant(ic_fig2)
