"""No pass flag compares a non-finite value: a NaN in any compared field
reads False."""

import math
from dataclasses import replace

import pytest

import entrokit as ek
from entrokit.packing import BumpFamilyReport

NAN = math.nan


def _certificate(measured_err=0.1, lip_estimate=1.0, delta=1.0):
    return ek.QuantCertificate(measured_err, lip_estimate, delta)


def _isometry(moment=1.0, moment_stderr=0.5, reference=1.5):
    # z = (1.0 - 1.5) / 0.5 = -1: consistent
    mc = ek.McEstimate(1.0, 0.5, moment, moment_stderr, 100)
    return ek.IsometryReport.from_mc(mc, reference)


BUMP = BumpFamilyReport(size=4, cell_profile_l1=0.5, profile_l1_lower=0.25,
                        min_pairwise_l1=0.1, pairwise_lower=0.01,
                        l1_floor=0.01, sup_max=1.0, lipschitz_max=1.0)


def _bump(**nan):
    return replace(BUMP, **nan)


CASES = ([(_certificate, "passed", field)
          for field in ("measured_err", "lip_estimate", "delta")]
         + [(_isometry, "consistent", field)
            for field in ("moment", "moment_stderr", "reference")]
         + [(_bump, "ok", field)
            for field in ("cell_profile_l1", "profile_l1_lower",
                          "min_pairwise_l1", "pairwise_lower", "sup_max",
                          "lipschitz_max")])


@pytest.mark.parametrize("build,flag,field", CASES,
                         ids=[f"{flag}-{field}" for _, flag, field in CASES])
def test_a_nan_in_any_compared_field_fails_the_flag(build, flag, field):
    assert getattr(build(), flag) is True
    assert not getattr(build(**{field: NAN}), flag)
