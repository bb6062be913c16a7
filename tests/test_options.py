"""The fields of every config dataclass and the parameters of every
tracker constructor, written out.

Adding or removing an option, as a config field or as a constructor
knob, then shows as an edit of this file.
"""

import dataclasses
import inspect

import pytest

from stad.gauss import GaussConfig, GaussModel
from stad.stream import DriftScenario
from stad.vmf import VmfConfig, VmfModel

FIELDS = {
    VmfConfig: ["d", "k", "kappa_trans", "kappa_ems", "window", "e_sweeps", "learn_kappa_ems"],
    GaussConfig: ["d", "k", "sigma_trans_scale", "sigma_ems_scale", "window", "e_sweeps",
                  "learn_transition", "learn_sigmas"],
    DriftScenario: ["geometry", "d", "k", "t_steps", "n_per_step", "kappa_true", "sigma_true",
                    "drift_deg_per_step", "drift_scale", "dirichlet_alpha", "seed"],
}


@pytest.mark.parametrize("config", FIELDS, ids=lambda c: c.__name__)
def test_config_fields(config):
    assert [f.name for f in dataclasses.fields(config)] == FIELDS[config]


PARAMETERS = {
    VmfModel: ["source_weights", "config"],
    GaussModel: ["source_weights", "config"],
}


@pytest.mark.parametrize("model", PARAMETERS, ids=lambda c: c.__name__)
def test_constructor_parameters(model):
    assert list(inspect.signature(model).parameters) == PARAMETERS[model]
