"""The programmatic experiment-regeneration API."""

from __future__ import annotations

import pytest

from repro.cpu import COMET_LAKE, SKY_LAKE
from repro.errors import ReproError
from repro.experiments import (
    characterization,
    maximal_safe_deployments,
    prevention_matrix,
    protected_machine,
    table2_overhead,
)


class TestCharacterizationCache:
    def test_cached_per_model_and_seed(self):
        a = characterization(COMET_LAKE)
        b = characterization(COMET_LAKE)
        assert a is b
        c = characterization(COMET_LAKE, seed=99)
        assert c is not a

    def test_models_independent(self):
        assert characterization(SKY_LAKE) is not characterization(COMET_LAKE)


class TestProtectedMachine:
    def test_module_loaded_and_bound(self):
        machine, module = protected_machine(COMET_LAKE)
        assert machine.modules.is_loaded(module.name)
        assert module.unsafe_states is characterization(COMET_LAKE).unsafe_states


class TestTable2:
    def test_full_report(self):
        report = table2_overhead()
        assert len(report.rows) == 23
        assert 0.001 < report.mean_base_overhead < 0.006


class TestPreventionMatrix:
    @pytest.fixture(scope="class")
    def matrix(self):
        return prevention_matrix(include_aes=False)

    def test_cell_counts(self, matrix):
        # 3 CPUs x 2 defense states x 3 campaigns (AES skipped).
        assert len(matrix.cells) == 18

    def test_headline_claim(self, matrix):
        assert matrix.protected_faults == 0
        for cell in matrix.outcomes(protected=True):
            assert not cell.outcome.succeeded

    def test_undefended_attacks_work(self, matrix):
        for codename in ("Sky Lake", "Comet Lake"):
            cells = matrix.outcomes(codename=codename, protected=False)
            assert any(c.outcome.succeeded for c in cells)

    def test_filtering(self, matrix):
        sky = matrix.outcomes(codename="Sky Lake")
        assert len(sky) == 6
        assert all(c.codename == "Sky Lake" for c in sky)


class TestDeployments:
    def test_three_depths_ordered(self):
        outcomes = {d.deployment: d.outcome for d in maximal_safe_deployments()}
        assert outcomes["polling only"].faults_observed > 0
        assert outcomes["polling + microcode (5.1)"].faults_observed == 0
        assert outcomes["polling + MSR clamp (5.2)"].faults_observed == 0


class TestDefenseComparison:
    def test_comparison_reflects_paper_claims(self):
        from repro.experiments import defense_comparison

        comparison = defense_comparison(attempts=20)
        # Access control protects but blocks the benign request too.
        assert comparison.sa00289_blocks_attack
        assert comparison.sa00289_blocks_benign
        # Minefield detects statistically, collapses under stepping.
        assert comparison.minefield_detected_plain > 0
        assert comparison.minefield_detected_stepped == 0
        assert comparison.minefield_exploited_stepped > 0
        # Polling: benign undervolt applied, attack offset never reached.
        assert comparison.polling_benign_accepted
        assert abs(comparison.polling_benign_applied_mv + 30) <= 1.0
        assert comparison.polling_attack_applied_mv > -100
        # Polling is the cheapest defense of the three.
        assert comparison.polling_overhead < 0.01
        assert comparison.polling_overhead < comparison.minefield_overhead


def _poisoned_session(**kwargs):
    """A serial session that quarantines a job at its first failure."""
    from repro.engine import EngineSession, ResultCache, RetryPolicy, SerialExecutor

    kwargs.setdefault("cache", ResultCache())
    return EngineSession(
        executor=SerialExecutor(policy=RetryPolicy(max_attempts=1, backoff_s=0.0)),
        registry=None,
        **kwargs,
    )


class TestQuarantinedJobs:
    """A fold over a quarantined job raises the one-line quarantine error
    instead of handing the stand-in back as a result."""

    def test_prevention_matrix(self, monkeypatch):
        from repro.attacks import AttackOutcome
        from repro.engine import AttackCampaignJob
        from repro.experiments import prevention_jobs

        poisoned = prevention_jobs(include_aes=False)[0]

        def run(self, telemetry):
            if self == poisoned:
                raise RuntimeError("poisoned cell")
            return AttackOutcome(attack=self.attack, succeeded=False)

        monkeypatch.setattr(AttackCampaignJob, "run", run)
        with pytest.raises(ReproError, match="prevention matrix lost 1 attack cell"):
            prevention_matrix(include_aes=False, session=_poisoned_session())

    def _poison_table2(self, monkeypatch):
        from repro.engine import OverheadJob, get_session
        from repro.engine import session as session_module

        def run(self, telemetry):
            raise RuntimeError("poisoned overhead run")

        monkeypatch.setattr(OverheadJob, "run", run)
        # The shared cache serves the characterization; the seed keeps
        # the overhead job itself a miss.
        monkeypatch.setattr(
            session_module, "_session", _poisoned_session(cache=get_session().cache)
        )

    def test_table2_overhead(self, monkeypatch):
        self._poison_table2(monkeypatch)
        with pytest.raises(ReproError, match="Table 2 overhead run for Comet Lake lost 1 job"):
            table2_overhead(seed=97)

    def test_spec_cli_exits_with_the_message(self, monkeypatch, capsys):
        from repro.cli import main

        self._poison_table2(monkeypatch)
        assert main(["spec", "--cpu", "Comet Lake", "--seed", "97"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [
            "spec: Table 2 overhead run for Comet Lake lost 1 job(s) to "
            "quarantine; see the run report's quarantine list"
        ]
