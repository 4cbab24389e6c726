"""Deterministic fault injection: plans, the inline degradations, convergence."""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.campaigns import (
    CampaignRunner,
    CampaignSpec,
    SweepOptions,
    execute_campaign,
)
from repro.errors import CampaignTimeout, FaultInjected, ReproError
from repro.faults import FAULT_KINDS, FaultPlan


class TestFaultPlan:
    def test_draw_is_deterministic(self):
        a = FaultPlan(seed=7, kinds=FAULT_KINDS, max_faults=3)
        b = FaultPlan(seed=7, kinds=FAULT_KINDS, max_faults=3)
        ids = [f"campaign-{i}" for i in range(20)]
        assert [a.faults_for(c) for c in ids] == [b.faults_for(c) for c in ids]

    def test_seed_changes_the_draw(self):
        ids = [f"campaign-{i}" for i in range(50)]
        a = FaultPlan(seed=1, kinds=FAULT_KINDS, max_faults=3)
        b = FaultPlan(seed=2, kinds=FAULT_KINDS, max_faults=3)
        assert [a.faults_for(c) for c in ids] != [b.faults_for(c) for c in ids]

    def test_rate_zero_faults_nothing(self):
        plan = FaultPlan(rate=0.0)
        assert plan.faults_for("anything") == ()
        assert plan.fault_for("anything", 1) is None

    def test_attempts_past_the_sequence_succeed(self):
        plan = FaultPlan(targets={"x": ("transient", "crash")})
        assert plan.fault_for("x", 1) == "transient"
        assert plan.fault_for("x", 2) == "crash"
        assert plan.fault_for("x", 3) is None
        assert plan.fault_for("untargeted", 1) is None

    def test_store_stream_independent_of_exec_stream(self):
        plan = FaultPlan(seed=0, rate=1.0, store_rate=1.0)
        assert plan.store_faults_for("c") == 1
        assert plan.store_fault("c", 1) and not plan.store_fault("c", 2)
        assert FaultPlan(store_rate=0.0).store_faults_for("c") == 0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ReproError, match="unknown fault kind"):
            FaultPlan(kinds=("meteor",))
        with pytest.raises(ReproError, match="unknown fault kind"):
            FaultPlan(targets={"x": ("meteor",)})

    def test_bad_rates_rejected(self):
        with pytest.raises(ReproError):
            FaultPlan(rate=1.5)
        with pytest.raises(ReproError):
            FaultPlan(store_rate=-0.1)

    @pytest.mark.parametrize("seconds", [float("inf"), float("nan")])
    def test_non_finite_hang_rejected(self, seconds):
        """`time.sleep` raises at once on both, so the hang never hung."""
        with pytest.raises(ReproError, match="finite"):
            FaultPlan(hang_seconds=seconds)

    def test_parse_round_trip(self):
        text = "seed=7,rate=0.5,kinds=crash+transient,max=2,hang=30.0,store=0.25"
        plan = FaultPlan.parse(text)
        assert plan.seed == 7 and plan.rate == 0.5
        assert plan.kinds == ("crash", "transient")
        assert plan.max_faults == 2 and plan.hang_seconds == 30.0
        assert plan.store_rate == 0.25

    def test_parse_rejects_bad_input(self):
        with pytest.raises(ReproError, match="key=value"):
            FaultPlan.parse("seed")
        with pytest.raises(ReproError, match="unknown fault-plan key"):
            FaultPlan.parse("speed=7")
        with pytest.raises(ReproError, match="takes a int"):
            FaultPlan.parse("seed=fast")


class TestInlineInjection:
    def test_no_plan_is_a_no_op(self):
        """Like no plan at all (``execute_campaign``'s default), a plan
        that schedules nothing for the attempt fires nothing, even in a
        worker."""
        FaultPlan(rate=0.0).inject("c", 1, in_worker=True)
        FaultPlan(targets={}).inject("c", 1, in_worker=True)

    def test_transient_raises(self):
        plan = FaultPlan(targets={"c": ("transient",)})
        with pytest.raises(FaultInjected, match="transient"):
            plan.inject("c", 1, in_worker=False)
        plan.inject("c", 2, in_worker=False)  # past the sequence

    def test_crash_and_sigkill_degrade_inline(self):
        """Outside a dispatch worker the process-killers must not kill us."""
        plan = FaultPlan(targets={"c": ("crash",), "k": ("sigkill",)})
        with pytest.raises(FaultInjected, match="simulated inline"):
            plan.inject("c", 1, in_worker=False)
        with pytest.raises(FaultInjected, match="simulated inline"):
            plan.inject("k", 1, in_worker=False)

    def test_hang_degrades_to_immediate_timeout_inline(self):
        plan = FaultPlan(targets={"c": ("hang",)}, hang_seconds=3600)
        with pytest.raises(CampaignTimeout, match="simulated inline"):
            # Returns immediately, no hour-long sleep.
            plan.inject("c", 1, in_worker=False)


class TestExecuteCampaignUnderFaults:
    def test_faulted_attempt_fails_with_traceback(self):
        spec = CampaignSpec(app="redis", scale="test", eval_runs=5)
        plan = FaultPlan(targets={spec.campaign_id: ("transient",)})
        record = execute_campaign(spec, attempt=1, fault_plan=plan)
        assert not record.ok
        assert record.error.startswith("FaultInjected")
        assert ", in inject\n" in record.traceback
        assert record.attempts == 1

    def test_next_attempt_succeeds_and_counts(self):
        spec = CampaignSpec(app="redis", scale="test", eval_runs=5)
        plan = FaultPlan(targets={spec.campaign_id: ("transient",)})
        record = execute_campaign(spec, attempt=2, fault_plan=plan)
        assert record.ok and record.attempts == 2


class TestConvergence:
    """A chaos run with enough retries equals the fault-free run."""

    @pytest.fixture(scope="class")
    def specs(self):
        return [
            CampaignSpec(app="redis", scale="test", seed=s, eval_runs=5)
            for s in (0, 1)
        ]

    @pytest.fixture(scope="class")
    def clean(self, specs):
        report = CampaignRunner(SweepOptions(jobs=1)).run(specs)
        return [json.dumps(r.stable_payload(), sort_keys=True)
                for r in report.records]

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        seed=st.integers(0, 2**31),
        kinds=st.lists(
            st.sampled_from(FAULT_KINDS), min_size=1, max_size=4, unique=True
        ),
        max_faults=st.integers(1, 3),
    )
    def test_any_plan_with_enough_retries_is_stable_identical(
        self, specs, clean, seed, kinds, max_faults
    ):
        plan = FaultPlan(
            seed=seed, rate=1.0, kinds=tuple(kinds), max_faults=max_faults,
            hang_seconds=0.0,
        )
        report = CampaignRunner(SweepOptions(
            jobs=1, backoff=0.0, max_retries=max_faults, fault_plan=plan
        )).run(specs)
        assert all(r.ok for r in report.records)
        chaos = [json.dumps(r.stable_payload(), sort_keys=True)
                 for r in report.records]
        assert chaos == clean
        expected = sum(len(plan.faults_for(s.campaign_id)) for s in specs)
        assert report.retries == expected

    def test_fault_free_records_have_attempt_one(self, specs):
        report = CampaignRunner(SweepOptions(jobs=1)).run(specs)
        assert [r.attempts for r in report.records] == [1, 1]
        assert report.retries == 0
