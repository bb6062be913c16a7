"""The fields of every config dataclass, written out.

Adding or removing an option then shows as an edit of this file.
"""

import dataclasses

import pytest

from stad.gauss import GaussConfig
from stad.stream import DriftScenario
from stad.vmf import VmfConfig

FIELDS = {
    VmfConfig: ["d", "k", "kappa_trans", "kappa_ems", "window", "e_sweeps", "learn_kappa_ems",
                "pi_floor"],
    GaussConfig: ["d", "k", "sigma_trans_scale", "sigma_ems_scale", "window", "e_sweeps",
                  "learn_transition", "learn_sigmas", "pi_floor", "init_cov_scale"],
    DriftScenario: ["geometry", "d", "k", "t_steps", "n_per_step", "kappa_true", "sigma_true",
                    "drift_deg_per_step", "drift_scale", "dirichlet_alpha", "seed"],
}


@pytest.mark.parametrize("config", FIELDS, ids=lambda c: c.__name__)
def test_config_fields(config):
    assert [f.name for f in dataclasses.fields(config)] == FIELDS[config]
