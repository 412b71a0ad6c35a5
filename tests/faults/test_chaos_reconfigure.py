"""Chaos under dynamic membership: the issue's acceptance criteria.

A seeded campaign with reconfiguration enabled must commit at least
three view changes -- covering add, remove AND replace -- while faults
and client traffic flow, with the history checker passing for all three
schemes, and must stay bit-identical across ``jobs`` values.
"""

import pytest

from repro.cli import main
from repro.faults import ChaosConfig, run_chaos, run_chaos_campaign
from repro.faults.checker import Violation
from repro.types import SchemeName

RECONFIG = dict(reconfigure_rate=0.08, spare_sites=4)


class TestAcceptance:
    @pytest.mark.parametrize("scheme", list(SchemeName))
    def test_view_changes_of_every_kind_under_fire(self, scheme):
        result = run_chaos(
            ChaosConfig(scheme=scheme, seed=1, **RECONFIG)
        )
        assert result.ok, (result.violations,
                           result.unaccounted_corruptions)
        assert result.view_changes >= 3
        for kind in ("add", "remove", "replace"):
            assert result.reconfigurations.get(kind, 0) > 0, kind
        assert result.final_epoch == result.view_changes
        assert result.injected.total_faults > 0
        # Reconfiguration must not hollow out the workload: the group
        # keeps serving while views change.
        assert result.writes_ok > 0 and result.reads_ok > 0

    @pytest.mark.parametrize("scheme", list(SchemeName))
    def test_mid_write_crash_triggers_replacement(self, scheme):
        # A reconfigure rate too small to ever fire still builds the
        # manager, so every committed view change below was triggered
        # by a crash -- the unplanned-replacement path.
        result = run_chaos(ChaosConfig(
            scheme=scheme, seed=1, mid_write_weight=2.0,
            reconfigure_rate=1e-12, spare_sites=4,
        ))
        assert result.ok
        assert result.injected.mid_write_crashes > 0
        assert result.reconfigurations.get("replace", 0) > 0
        assert result.reconfigurations.get("add", 0) == 0
        assert result.reconfigurations.get("remove", 0) == 0

    def test_catchup_traffic_is_priced(self):
        result = run_chaos(
            ChaosConfig(
                scheme=SchemeName.AVAILABLE_COPY, seed=1, **RECONFIG
            )
        )
        assert result.reconfigurations.get("add", 0) > 0
        assert result.catchup_messages > 0
        assert result.catchup_bytes > result.catchup_messages

    def test_scrub_keeps_read_latest_write_with_batches(self):
        # On this seed a scrub once pushed a verified v67 copy over a
        # v69 one (the only v70 copy was corrupt), and two rolled-back
        # sites then formed a read quorum on v67.
        result = run_chaos(
            ChaosConfig(
                scheme=SchemeName.VOTING, seed=1, operations=3000,
                reconfigure_rate=0.08, batch_rate=0.2,
            )
        )
        assert result.ok, result.violations

    def test_summary_reports_the_view_changes(self):
        result = run_chaos(ChaosConfig(seed=1, **RECONFIG))
        assert "view changes" in result.summary()
        assert f"epoch {result.final_epoch}" in result.summary()


class TestDeterminism:
    def test_same_seed_same_schedule(self):
        first = run_chaos(ChaosConfig(seed=5, **RECONFIG))
        second = run_chaos(ChaosConfig(seed=5, **RECONFIG))
        assert first.history == second.history
        assert first.reconfigurations == second.reconfigurations
        assert first.final_epoch == second.final_epoch
        assert first.messages == second.messages

    def test_rate_zero_preserves_legacy_schedules(self):
        legacy = run_chaos(ChaosConfig(seed=7))
        gated = run_chaos(ChaosConfig(seed=7, reconfigure_rate=0.0))
        assert legacy.history == gated.history
        assert legacy.messages == gated.messages

    def test_campaign_is_jobs_invariant(self):
        config = ChaosConfig(seed=3, operations=120, **RECONFIG)
        serial = run_chaos_campaign(config, runs=4, jobs=1)
        parallel = run_chaos_campaign(config, runs=4, jobs=2)
        for a, b in zip(serial, parallel):
            assert a.summary() == b.summary()
            assert a.history == b.history
            assert a.reconfigurations == b.reconfigurations


class TestCliReconfigure:
    def test_reconfigure_flag_runs_and_reports(self, capsys):
        code = main([
            "chaos", "--reconfigure", "--scheme", "mcv",
            "--operations", "120", "--seed", "1",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "view changes" in out
        assert "all checks passed" in out

    def test_explicit_rate_implies_reconfigure(self, capsys):
        code = main([
            "chaos", "--reconfigure-rate", "0.1", "--scheme", "ac",
            "--operations", "120", "--seed", "1",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "view changes" in out

    def test_bad_rate_is_rejected(self, capsys):
        code = main(["chaos", "--reconfigure-rate", "1.5"])
        assert code == 2
        assert "--reconfigure-rate" in capsys.readouterr().err


class TestCliExitCodes:
    """Satellite: the chaos CLI must exit nonzero whenever the checker
    reports a violation -- and when a run dies outright."""

    def _violating_result(self):
        result = run_chaos(ChaosConfig(operations=40))
        result.violations = [Violation(
            event_index=0, block=0, observed=b"\x00" * 8,
            admissible="committed v1",
        )]
        return result

    def test_checker_violation_exits_nonzero(self, capsys, monkeypatch):
        import repro.faults as faults_module

        # The CLI resolves run_chaos through the package namespace.
        monkeypatch.setattr(
            faults_module, "run_chaos",
            lambda config, tracer=None: self._violating_result(),
        )
        code = main(["chaos", "--scheme", "mcv", "--operations", "40"])
        out = capsys.readouterr().out
        assert code == 1
        assert "VIOLATION" in out
        assert "CONSISTENCY CHECK FAILED" in out

    def test_escaping_protocol_error_exits_nonzero(
        self, capsys, monkeypatch
    ):
        import repro.faults as faults_module
        from repro.errors import ProtocolError

        def boom(config, tracer=None):
            raise ProtocolError("chaos run imploded")

        monkeypatch.setattr(faults_module, "run_chaos", boom)
        code = main(["chaos", "--scheme", "mcv", "--operations", "40"])
        out = capsys.readouterr().out
        assert code == 1
        assert "RUN FAILED" in out
        assert "chaos run imploded" in out

    def test_clean_run_exits_zero(self, capsys):
        code = main([
            "chaos", "--scheme", "mcv", "--operations", "60",
        ])
        assert code == 0
        assert "all checks passed" in capsys.readouterr().out
