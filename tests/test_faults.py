"""Deterministic fault injection: plans, the inline degradations, convergence."""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.campaigns import CampaignRunner, CampaignSpec, execute_campaign
from repro.errors import CampaignTimeout, FaultInjected, ReproError
from repro.faults import (
    FAULT_KINDS,
    FaultPlan,
    active_fault_plan,
    mark_dispatch_worker,
    maybe_inject,
    set_active_fault_plan,
)


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    """Every test starts and ends with no active plan and no worker flag."""
    set_active_fault_plan(None)
    mark_dispatch_worker(False)
    yield
    set_active_fault_plan(None)
    mark_dispatch_worker(False)


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
        assert active_fault_plan() is None
        maybe_inject("c", 1)  # must not raise

    def test_transient_raises(self):
        set_active_fault_plan(FaultPlan(targets={"c": ("transient",)}))
        with pytest.raises(FaultInjected, match="transient"):
            maybe_inject("c", 1)
        maybe_inject("c", 2)  # past the sequence

    def test_crash_and_sigkill_degrade_inline(self):
        """Outside a dispatch worker the process-killers must not kill us."""
        set_active_fault_plan(
            FaultPlan(targets={"c": ("crash",), "k": ("sigkill",)})
        )
        with pytest.raises(FaultInjected, match="simulated inline"):
            maybe_inject("c", 1)
        with pytest.raises(FaultInjected, match="simulated inline"):
            maybe_inject("k", 1)

    def test_hang_degrades_to_immediate_timeout_inline(self):
        set_active_fault_plan(
            FaultPlan(targets={"c": ("hang",)}, hang_seconds=3600)
        )
        with pytest.raises(CampaignTimeout, match="simulated inline"):
            maybe_inject("c", 1)  # returns immediately, no hour-long sleep

    def test_set_returns_previous_plan(self):
        first = FaultPlan(seed=1)
        assert set_active_fault_plan(first) is None
        assert set_active_fault_plan(None) is first


class TestExecuteCampaignUnderFaults:
    def test_faulted_attempt_fails_with_traceback(self):
        spec = CampaignSpec(app="redis", scale="test", eval_runs=5)
        set_active_fault_plan(
            FaultPlan(targets={spec.campaign_id: ("transient",)})
        )
        record = execute_campaign(spec, attempt=1)
        assert not record.ok
        assert record.error.startswith("FaultInjected")
        assert "maybe_inject" in record.traceback
        assert record.attempts == 1

    def test_next_attempt_succeeds_and_counts(self):
        spec = CampaignSpec(app="redis", scale="test", eval_runs=5)
        set_active_fault_plan(
            FaultPlan(targets={spec.campaign_id: ("transient",)})
        )
        record = execute_campaign(spec, attempt=2)
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
        report = CampaignRunner(jobs=1).run(specs)
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
        report = CampaignRunner(
            jobs=1, backoff=0.0, max_retries=max_faults, fault_plan=plan
        ).run(specs)
        assert all(r.ok for r in report.records)
        chaos = [json.dumps(r.stable_payload(), sort_keys=True)
                 for r in report.records]
        assert chaos == clean
        expected = sum(len(plan.faults_for(s.campaign_id)) for s in specs)
        assert report.retries == expected

    def test_fault_free_records_have_attempt_one(self, specs):
        report = CampaignRunner(jobs=1).run(specs)
        assert [r.attempts for r in report.records] == [1, 1]
        assert report.retries == 0

    def test_runner_restores_previous_plan(self, specs):
        sentinel = FaultPlan(seed=99, rate=0.0)
        set_active_fault_plan(sentinel)
        CampaignRunner(jobs=1, fault_plan=FaultPlan(rate=0.0)).run(specs[:1])
        assert active_fault_plan() is sentinel
