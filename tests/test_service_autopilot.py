"""Autopilot tests: capacity estimate, knee detection, loadsweep schema."""

import pytest

from repro.errors import ConfigurationError
from repro.runtime import machine_template
from repro.service import (
    LOADSWEEP_SCHEMA,
    EngineOracle,
    FixedOracle,
    JobTemplate,
    Mix,
    TenantProfile,
    detect_knee,
    estimate_capacity_rate,
    get_mix,
    run_load_sweep,
    validate_loadsweep,
)
from tests._digest_util import digest


def flat_mix() -> Mix:
    """One tenant, one 4-node template — capacity math is closed-form."""
    return Mix(
        name="flat",
        tenants=(TenantProfile(name="solo", work=(("job", 1.0),)),),
        templates={"job": JobTemplate(name="job", nranks=4)},
    )


ORACLE = FixedOracle({"job": 0.5})


class TestCapacityEstimate:
    def test_closed_form(self):
        # Each arrival demands 4 nodes x 0.5 s = 2 node-seconds; 16 nodes
        # supply 16 node-seconds/s => 8 requests/s.
        assert estimate_capacity_rate(flat_mix(), ORACLE, 16) == pytest.approx(8.0)

    def test_scales_with_machine(self):
        assert estimate_capacity_rate(flat_mix(), ORACLE, 32) == pytest.approx(16.0)


class TestDetectKnee:
    def test_hockey_stick_finds_the_bend(self):
        loads = [0.25, 0.5, 1.0, 2.0, 4.0]
        turnarounds = [0.5, 0.5, 0.6, 4.0, 12.0]
        knee = detect_knee(loads, turnarounds, [False] * 5)
        assert knee["detected"] and knee["method"] == "kneedle-chord"
        # The chord construction flags the last point before the curve
        # shoots up — the highest still-flat load, not the blown-up one.
        assert knee["offered_load"] == 1.0

    def test_flat_curve_no_knee(self):
        loads = [0.25, 0.5, 1.0, 2.0]
        knee = detect_knee(loads, [0.5, 0.5, 0.5, 0.5], [False] * 4)
        assert not knee["detected"] and knee["method"] == "none"

    def test_backlog_divergence_fallback(self):
        loads = [0.5, 1.0, 2.0]
        # Linear curve (no curvature) but the last point went unstable.
        knee = detect_knee(loads, [1.0, 2.0, 4.0], [False, False, True])
        assert knee["detected"] and knee["method"] == "backlog-divergence"
        assert knee["offered_load"] == 2.0

    def test_instability_clamps_a_later_curvature_knee(self):
        loads = [0.25, 0.5, 1.0, 2.0, 4.0]
        turnarounds = [0.5, 0.5, 0.6, 4.0, 12.0]
        knee = detect_knee(loads, turnarounds, [False, True, False, False, False])
        assert knee["method"] == "backlog-divergence"
        assert knee["offered_load"] == 0.5

    def test_parallel_lists_enforced(self):
        with pytest.raises(ConfigurationError):
            detect_knee([1.0, 2.0], [0.5], [False])


class TestRunLoadSweep:
    @pytest.fixture(scope="class")
    def sweep(self):
        return run_load_sweep(
            16,
            flat_mix(),
            ORACLE,
            multipliers=(0.25, 0.5, 1.0, 2.0, 4.0),
            seed=5,
            horizon_s=30.0,
        )

    def test_schema_and_validation(self, sweep):
        assert sweep["schema"] == LOADSWEEP_SCHEMA
        validate_loadsweep(sweep)  # no raise
        assert len(sweep["points"]) == 5

    def test_turnaround_grows_with_load(self, sweep):
        p99s = [p["p99_turnaround_s"] for p in sweep["points"]]
        assert p99s[-1] > 3.0 * p99s[0]

    def test_overload_points_flagged_unstable(self, sweep):
        assert not sweep["points"][0]["unstable"]
        assert sweep["points"][-1]["unstable"]

    def test_knee_detected_inside_the_grid(self, sweep):
        knee = sweep["knee"]
        assert knee["detected"]
        assert 0.25 < knee["offered_load"] <= 4.0
        assert knee["rate_s"] == pytest.approx(
            knee["offered_load"] * sweep["config"]["capacity_rate_s"]
        )

    def test_replay_identical(self, sweep):
        again = run_load_sweep(
            16,
            flat_mix(),
            ORACLE,
            multipliers=(0.25, 0.5, 1.0, 2.0, 4.0),
            seed=5,
            horizon_s=30.0,
        )
        assert again == sweep

    def test_grid_validation(self):
        with pytest.raises(ConfigurationError):
            run_load_sweep(16, flat_mix(), ORACLE, multipliers=(1.0,))
        with pytest.raises(ConfigurationError):
            run_load_sweep(16, flat_mix(), ORACLE, multipliers=(2.0, 1.0))


class TestValidateLoadsweep:
    def test_rejects_wrong_schema(self, ):
        with pytest.raises(ConfigurationError):
            validate_loadsweep({"schema": "bogus", "points": [], "config": {}})

    def test_rejects_descending_points(self):
        doc = run_load_sweep(
            16, flat_mix(), ORACLE, multipliers=(0.5, 1.0), horizon_s=10.0
        )
        doc["points"] = list(reversed(doc["points"]))
        doc["knee"]["index"] = 0
        doc["knee"]["offered_load"] = doc["points"][0]["offered_load"]
        with pytest.raises(ConfigurationError):
            validate_loadsweep(doc)

    def test_rejects_knee_point_mismatch(self):
        doc = run_load_sweep(
            16, flat_mix(), ORACLE, multipliers=(0.5, 1.0), horizon_s=10.0
        )
        doc["knee"]["offered_load"] = 99.0
        with pytest.raises(ConfigurationError):
            validate_loadsweep(doc)


# sha256 of whole run_load_sweep reports: the 64-node Paragon (NX), the
# default mix, the default load grid, horizon 5 s.  Captured from the
# raise-and-skip scheduling walk that PendingQueue replaced; a mismatch
# is a regression, not a reason to re-pin.
PINNED_SWEEPS = {
    ("fair", "poisson", 0): "04a7cf45ad9656fc70de012d46895dd56b629502d194035c6fbb5632e6857315",
    ("fair", "poisson", 3): "2a1f52f7520bdc4d18823c4dd1d20de1978cd621dd336be943be0d0bbd4051ea",
    ("fair", "bursty", 1): "7f39a9086e5093cfd5f89b09d9fd2bbdcedfa6edd95c3a3fc4847d699f852a50",
    ("fifo", "poisson", 0): "61c4c98594a6e8902a88ae83eaf716656a20d8a71286443b25b59fd2ee018dd4",
    ("fifo", "poisson", 3): "a78e4da05de324641dbbbeeaac8c57f207325926750dc054503b193553d9fb3f",
    ("fifo", "bursty", 1): "3b84f02a3bba585b63111f1ef0010a67ce841fad8193413058d3815b727ef5cc",
}


@pytest.fixture(scope="module")
def paragon_oracle():
    return EngineOracle("paragon", protocol="nx")


class TestPinnedParagonSweeps:
    @pytest.mark.parametrize("policy,arrival,seed", sorted(PINNED_SWEEPS))
    def test_report_digest(self, paragon_oracle, policy, arrival, seed):
        doc = run_load_sweep(
            machine_template("paragon", protocol="nx").total_nodes,
            get_mix("default"),
            paragon_oracle,
            arrival_kind=arrival,
            seed=seed,
            horizon_s=5.0,
            policy_name=policy,
        )
        assert digest(doc) == PINNED_SWEEPS[(policy, arrival, seed)]
