"""Command-line interface."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main


class TestListCpus:
    def test_lists_all_three(self, capsys):
        assert main(["list-cpus"]) == 0
        out = capsys.readouterr().out
        for codename in ("Sky Lake", "Kaby Lake R", "Comet Lake"):
            assert codename in out


#: ``repro list-cpus`` output, byte for byte.
LIST_CPUS_STDOUT = "\n".join([
    "codename     model                                      microcode  frequency range",
    "----------------------------------------------------------------------------------",
    "Sky Lake     Intel(R) Core(TM) i5-6500 CPU @ 3.20GHz    0xf0       0.8-3.6 GHz    ",
    "Kaby Lake R  Intel(R) Core(TM) i5-8250U CPU @ 1.60GHz   0xf4       0.4-3.4 GHz    ",
    "Comet Lake   Intel(R) Core(TM) i7-10510U CPU @ 1.80GHz  0xf4       0.4-4.9 GHz    ",
    "",
])

#: Packages a ``list-cpus`` or ``--help`` launch must not load: numpy,
#: the simulator and the campaign infrastructure.
HEAVY_MODULES = (
    "numpy",
    "repro.engine",
    "repro.registry",
    "repro.observe",
    "repro.serve",
    "repro.faults",
    "repro.core",
    "repro.testbench",
)

#: Packages the Fig. 2 launch ``REPRO_REGISTRY=0 repro characterize --cpu
#: "Sky Lake"`` must not load: it mounts no attack and records no run.
ATTACK_STACK_MODULES = (
    "repro.attacks",
    "repro.sgx",
    "repro.explore",
    "repro.serve",
    "repro.experiments",
    "repro.registry",
)

#: HTTP and TLS modules: only the coordinator and the remote client use
#: them, so only those load them.
HTTP_MODULES = ("http.server", "http.client", "ssl", "urllib.request")

#: Prefix for a probe script: report every loaded module on stderr at
#: exit, also when the command exits through ``SystemExit``.
REPORT_MODULES = (
    "import atexit, sys\n"
    "atexit.register(lambda: sys.stderr.write('\\n'.join(sorted(sys.modules))))\n"
)


class TestImportGraph:
    """CLI start-up imports only what the command uses."""

    @staticmethod
    def heavy(completed) -> set:
        # A package is in sys.modules whenever any of its submodules is.
        return set(HEAVY_MODULES) & set(completed.stderr.splitlines())

    def test_list_cpus(self, fresh_python):
        completed = fresh_python(
            REPORT_MODULES + "from repro.cli import main\nsys.exit(main(['list-cpus']))\n"
        )
        assert completed.stdout == LIST_CPUS_STDOUT
        assert self.heavy(completed) == set()

    def test_help(self, fresh_python):
        completed = fresh_python(
            REPORT_MODULES
            + "import runpy\nsys.argv = ['repro', '--help']\n"
            "runpy.run_module('repro', run_name='__main__', alter_sys=True)\n"
        )
        assert completed.stdout.startswith("usage: repro")
        assert self.heavy(completed) == set()

    def test_engine_session_loads_no_http(self, fresh_python):
        completed = fresh_python(REPORT_MODULES + "import repro.engine.session\n")
        loaded = set(completed.stderr.splitlines())
        assert loaded & set(HTTP_MODULES) == set()

    @pytest.mark.parametrize(
        "module",
        ["repro.engine", "repro.observe", "repro.registry.registry", "repro.telemetry"],
    )
    def test_package_loads_no_http(self, fresh_python, module):
        completed = fresh_python(REPORT_MODULES + f"import {module}\n")
        loaded = set(completed.stderr.splitlines())
        assert loaded & set(HTTP_MODULES) == set()

    def test_characterize_loads_no_attack_stack(self, fresh_python):
        # The Fig. 2 path characterizes only: no attacks, enclaves,
        # explorer, coordinator or experiment API, and with recording
        # off no run registry (CI's import-guard checks the same launch
        # with -X importtime).
        completed = fresh_python(
            REPORT_MODULES
            + "import os\nos.environ['REPRO_REGISTRY'] = '0'\n"
            "from repro.cli import main\n"
            "sys.exit(main(['characterize', '--cpu', 'Sky Lake']))\n"
        )
        assert "maximal safe state" in completed.stdout
        loaded = set(completed.stderr.splitlines())
        assert loaded & set(ATTACK_STACK_MODULES) == set()

    def test_coordinator_loads_http(self, fresh_python):
        # Control for the cases above: the probe does see HTTP modules
        # where they belong.
        completed = fresh_python(REPORT_MODULES + "import repro.serve.coordinator\n")
        loaded = set(completed.stderr.splitlines())
        assert {"http.server", "http.client"} <= loaded


class TestRetiredSurfaces:
    """The live-monitoring commands and options, the sweep-path flags,
    the ``observe replay`` duplicate of ``fuzz --replay``, the
    campaign's private checkpoint and report files, the
    ``reproduce --experiment`` copies of the artifact verbs, the registry
    side of ``trajectory`` and ``spans --json`` (bare ``spans`` prints
    that JSON) are gone from the parser."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["top", "--once"],
            ["metrics", "serve"],
            ["campaign", "--serve-port", "0"],
            ["characterize", "--batch"],
            ["characterize", "--no-batch"],
            ["campaign", "--batch"],
            ["campaign", "--no-batch"],
            ["observe", "replay", "dump.jsonl"],
            ["report", "run.json"],
            ["campaign", "--checkpoint", "d"],
            ["campaign", "--resume", "d"],
            ["campaign", "--report", "r.json"],
            ["reproduce", "--experiment", "fig2"],
            ["trajectory", "list"],
            ["trajectory", "record", "demo", "--value", "1", "--no-registry"],
            ["trajectory", "record", "demo", "--value", "1", "--registry", "d"],
            ["trajectory", "record", "demo", "--value", "1", "--run", "abc"],
            ["spans", "abc", "--json"],
        ],
        ids=[
            "top",
            "metrics-serve",
            "campaign-serve-port",
            "characterize-batch",
            "characterize-no-batch",
            "campaign-batch",
            "campaign-no-batch",
            "observe-replay",
            "report",
            "campaign-checkpoint",
            "campaign-resume",
            "campaign-report",
            "reproduce-experiment",
            "trajectory-list",
            "trajectory-record-no-registry",
            "trajectory-record-registry",
            "trajectory-record-run",
            "spans-json",
        ],
    )
    def test_rejected_as_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "usage: repro" in capsys.readouterr().err


class TestCharacterize:
    def test_adaptive_with_map(self, capsys):
        assert main(["characterize", "--cpu", "Sky Lake", "--adaptive", "--map"]) == 0
        out = capsys.readouterr().out
        assert "maximal safe state" in out
        assert "adaptive characterization" in out
        assert "safe '.'" in out

    def test_json_and_csv_export(self, tmp_path, capsys):
        json_path = tmp_path / "bundle.json"
        csv_path = tmp_path / "boundary.csv"
        code = main(
            [
                "characterize",
                "--cpu",
                "Sky Lake",
                "--adaptive",
                "--json",
                str(json_path),
                "--csv",
                str(csv_path),
            ]
        )
        assert code == 0
        payload = json.loads(json_path.read_text())
        assert payload["model"]["codename"] == "Sky Lake"
        assert csv_path.read_text().startswith("frequency_ghz,")

    def test_unknown_cpu_raises(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            main(["characterize", "--cpu", "Alder Lake"])


class TestAttack:
    """``repro attack`` runs the matching Sec. 4.3 campaign cell."""

    @pytest.mark.parametrize("protected", [False, True], ids=["open", "protected"])
    @pytest.mark.parametrize("attack", ["imul", "plundervolt", "v0ltpwn"])
    def test_equals_the_prevention_cell(self, attack, protected, capsys):
        from repro.cpu import COMET_LAKE
        from repro.engine import get_session
        from repro.experiments import attack_job, prevention_jobs

        (cell,) = [
            job
            for job in prevention_jobs()
            if job.codename == "Comet Lake"
            and job.attack == attack
            and job.protected == protected
        ]
        assert attack_job(COMET_LAKE, attack, protected=protected) == cell
        argv = ["attack", "--cpu", "Comet Lake", "--attack", attack]
        code = main(argv + (["--protect"] if protected else []))
        lines = capsys.readouterr().out.splitlines()
        outcome = get_session().run_job(cell)
        # Exit code 1 signals "the attack succeeded" (useful in scripts).
        assert code == (1 if outcome.succeeded else 0)
        assert outcome.succeeded is not protected
        if protected:
            assert lines.pop(0) == "polling countermeasure deployed"
        _assert_outcome_printed(lines, outcome)

    @pytest.mark.parametrize("protected", [False, True], ids=["open", "protected"])
    def test_voltjockey_finds_its_offset_by_reconnaissance(
        self, protected, capsys
    ):
        """VoltJockey is outside the prevention matrix; its cell carries
        no offset, so the attacker probes for a cross-frequency one."""
        from repro.cpu import COMET_LAKE
        from repro.engine import get_session
        from repro.experiments import attack_job

        job = attack_job(COMET_LAKE, "voltjockey", protected=protected)
        assert job.voltjockey_offset_mv is None
        argv = ["attack", "--cpu", "Comet Lake", "--attack", "voltjockey"]
        code = main(argv + (["--protect"] if protected else []))
        lines = capsys.readouterr().out.splitlines()
        outcome = get_session().run_job(job)
        assert code == (0 if protected else 1)
        assert outcome.succeeded is not protected
        assert outcome.crashes == 0
        if protected:
            assert lines.pop(0) == "polling countermeasure deployed"
            assert outcome.faults_observed == 0
            assert outcome.notes == [
                "reconnaissance found no cross-frequency offset"
            ]
        else:
            assert outcome.faults_observed > 0
            (note,) = outcome.notes
            assert note.startswith("cross-frequency offset: -")
        _assert_outcome_printed(lines, outcome)


def _assert_outcome_printed(lines, outcome):
    """The ``repro attack`` table row and notes show ``outcome``."""
    assert lines[2].split() == [
        outcome.attack,
        "yes" if outcome.succeeded else "no",
        str(outcome.faults_observed),
        str(outcome.attempts),
        str(outcome.crashes),
        str(outcome.writes_blocked),
    ]
    assert lines[3:] == [f"note: {note}" for note in outcome.notes]


def _json_cells(cells):
    """Prevention-matrix cells as ``repro campaign --json`` writes them."""
    return [
        {
            "codename": cell.codename,
            "protected": cell.protected,
            "attack": cell.outcome.attack,
            "faults_observed": cell.outcome.faults_observed,
            "crashes": cell.outcome.crashes,
            "succeeded": cell.outcome.succeeded,
        }
        for cell in cells
    ]


class TestCampaignMatrix:
    def test_json_cells_equal_the_prevention_matrix(self, tmp_path, capsys):
        from repro.experiments import prevention_matrix

        path = tmp_path / "matrix.json"
        assert main(["campaign", "--json", str(path)]) == 0
        capsys.readouterr()
        expected = _json_cells(prevention_matrix().cells)
        assert json.loads(path.read_text())["cells"] == expected

    def test_one_cpu_characterizes_only_that_cpu(self, tmp_path, capsys):
        from repro.engine import reset_session
        from repro.experiments import prevention_matrix

        expected = _json_cells(prevention_matrix().outcomes(codename="Sky Lake"))
        path = tmp_path / "sky-lake.json"
        # --executor builds a fresh session, so its cache starts cold.
        args = ["campaign", "--cpu", "Sky Lake", "--executor", "serial",
                "--json", str(path)]
        try:
            assert main(args) == 0
        finally:
            reset_session()
        out = capsys.readouterr().out
        payload = json.loads(path.read_text())
        assert payload["cells"] == expected
        # The Sky Lake cells plus its one characterization sweep.
        assert len(expected) == 6
        assert payload["counters"]["engine.cache_misses"] == 7
        assert "misses=7" in out

    def test_non_paper_cpu_is_a_usage_error(self, capsys):
        # Ice Lake is in the catalog but not in the paper's campaign: an
        # empty matrix must not print "protected-cell faults: 0".
        assert main(["campaign", "--cpu", "Ice Lake"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "Ice Lake" in captured.err
        for codename in ("Sky Lake", "Kaby Lake R", "Comet Lake"):
            assert codename in captured.err


class TestSpansWallNeedsItsMainTrace:
    """A wall-clock sidecar without the main trace is a usage error,
    reported before any work is done."""

    def test_campaign_spans_wall_without_spans(self, tmp_path, capsys):
        wall = tmp_path / "wall.json"
        assert main(["campaign", "--cpu", "Sky Lake", "--spans-wall", str(wall)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "--spans" in captured.err
        assert not wall.exists()

    def test_spans_wall_without_export(self, tmp_path, monkeypatch, capsys):
        from repro.engine import EngineSession, FuzzJob, SerialExecutor

        monkeypatch.setenv("REPRO_REGISTRY_DIR", str(tmp_path / "registry"))
        monkeypatch.delenv("REPRO_REGISTRY", raising=False)
        with EngineSession(executor=SerialExecutor()) as session:
            session.run_jobs(
                [FuzzJob(codename="Sky Lake", seed=5, case_index=0, num_actions=3)],
                cache=False,
            )
            run_id = session.record_run()
        assert run_id is not None
        capsys.readouterr()
        wall = tmp_path / "wall.json"
        assert main(["spans", run_id[:12], "--wall", str(wall)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "--export" in captured.err
        assert not wall.exists()


class TestMaximal:
    def test_prints_both_tables(self, capsys):
        from repro.experiments import maximal_safe_deployments

        assert main(["maximal"]) == 0
        out = capsys.readouterr().out
        per_cpu, deployments = out.split("\n\n")
        assert per_cpu.startswith("Sec. 5")
        assert per_cpu.count("mV") == 3
        assert deployments.startswith("Adaptive attack vs deployment depth")
        rows = deployments.splitlines()[3:]
        assert [row.split()[-2:] for row in rows] == [
            [str(d.outcome.faults_observed), str(d.outcome.writes_blocked)]
            for d in maximal_safe_deployments()
        ]


class TestSpec:
    def test_mean_equals_table2_overhead(self, tmp_path, capsys):
        from repro.experiments import table2_overhead

        csv_path = tmp_path / "table2.csv"
        assert main(["spec", "--csv", str(csv_path)]) == 0
        out = capsys.readouterr().out
        report = table2_overhead()
        assert (
            f"mean base overhead: {report.mean_base_overhead * 100:.2f}%" in out
        )
        assert len(csv_path.read_text().splitlines()) == 24  # header + 23

    def test_other_cpu_and_seed(self, capsys):
        from repro.cpu import SKY_LAKE
        from repro.experiments import table2_overhead

        assert main(["spec", "--cpu", "Sky Lake", "--seed", "4"]) == 0
        out = capsys.readouterr().out
        report = table2_overhead(model=SKY_LAKE, seed=4)
        assert "SPEC2017 polling overhead — Sky Lake" in out
        assert (
            f"mean base overhead: {report.mean_base_overhead * 100:.2f}%" in out
        )


class TestTrace:
    def test_trace_shows_interception(self, capsys):
        assert main(["trace", "--cpu", "Comet Lake", "--offset", "-250"]) == 0
        out = capsys.readouterr().out
        assert "applied(mV)" in out
        assert "attack target was -250 mV" in out
        # The deep target never applied.
        assert "deepest offset ever applied: -250" not in out


class TestEnergy:
    def test_energy_table(self, capsys):
        assert main(["energy", "--cpu", "Sky Lake"]) == 0
        out = capsys.readouterr().out
        assert "savings" in out
        assert "%" in out


class TestVerify:
    def test_verify_passes_on_protected_machine(self, capsys):
        assert main(["verify", "--cpu", "Comet Lake", "--samples", "6"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out


class TestArtifactVerbs:
    """The artifacts ``reproduce --experiment`` used to print, through
    the verbs that own them."""

    def test_maximal_prints_deployment_depth(self, capsys):
        assert main(["maximal"]) == 0
        assert "deployment depth" in capsys.readouterr().out

    def test_fig2_with_artifact(self, tmp_path, capsys):
        csv_path = tmp_path / "fig2.csv"
        argv = ["characterize", "--cpu", "Sky Lake", "--map", "--csv", str(csv_path)]
        assert main(argv) == 0
        assert "safe '.'" in capsys.readouterr().out
        assert csv_path.read_text().startswith("frequency_ghz,")

    def test_table2(self, capsys):
        assert main(["spec"]) == 0
        assert "mean base overhead" in capsys.readouterr().out


class TestExecutorPolicy:
    def test_fuzz_executor_honours_the_retry_environment(
        self, monkeypatch, capsys
    ):
        from repro.engine import EngineSession

        monkeypatch.setenv("REPRO_JOB_RETRIES", "7")
        attempts = []
        run_jobs = EngineSession.run_jobs

        def spy(self, jobs, **kwargs):
            attempts.append(self.executor.policy.max_attempts)
            return run_jobs(self, jobs, **kwargs)

        monkeypatch.setattr(EngineSession, "run_jobs", spy)
        argv = ["fuzz", "--cpu", "Sky Lake", "--budget", "1", "--actions", "2",
                "--no-module", "--executor", "serial"]
        assert main(argv) == 0
        capsys.readouterr()
        assert attempts == [7]


class TestStatus:
    def test_status_snapshot(self, capsys):
        assert main(["status", "--cpu", "Comet Lake"]) == 0
        out = capsys.readouterr().out
        assert "plug_your_volt" in out
        assert "processor\t: 0" in out

    def test_status_prints_polling_counters(self, capsys):
        # With the metrics endpoint gone, this is where the polling
        # module's counters are read from the command line.
        assert main(["status", "--cpu", "Sky Lake"]) == 0
        out = capsys.readouterr().out
        assert "countermeasure.polls" in out


class TestChaos:
    def test_chaos_and_baseline_artifacts_match(self, tmp_path, capsys):
        on_path = tmp_path / "on.json"
        off_path = tmp_path / "off.json"
        base = [
            "chaos", "--cpu", "Comet Lake", "--budget", "4",
            "--actions", "4", "--workers", "2",
        ]
        assert main(base + ["--out", str(on_path)]) == 0
        assert main(base + ["--off", "--out", str(off_path)]) == 0
        capsys.readouterr()
        assert on_path.read_bytes() == off_path.read_bytes()
        artifact = json.loads(on_path.read_text())
        assert artifact["jobs"] == 4
        assert len(artifact["results"]) == 4

    def test_chaos_reports_convergence(self, capsys):
        code = main(
            ["chaos", "--cpu", "Sky Lake", "--budget", "3",
             "--actions", "4", "--workers", "2"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "second pass byte-identical to first: yes" in out
        assert "result digest:" in out


class TestCampaignResume:
    def test_rerun_over_the_disk_cache_resumes(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.engine import reset_session

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "ckpt"))
        monkeypatch.setenv("REPRO_REGISTRY_DIR", str(tmp_path / "registry"))
        monkeypatch.delenv("REPRO_REGISTRY", raising=False)
        # --executor builds a fresh session (so a fresh cache following
        # REPRO_CACHE_DIR), as a new process would.
        args = ["campaign", "--cpu", "Comet Lake", "--no-aes",
                "--executor", "serial"]
        try:
            assert main(args) == 0
            first = capsys.readouterr().out
            assert list((tmp_path / "ckpt" / "objects").glob("*/*"))
            assert main(args) == 0
            second = capsys.readouterr().out
        finally:
            reset_session()
        assert "misses=0" in second
        # The resumed campaign renders the same prevention matrix.
        matrix = lambda text: [
            line for line in text.splitlines() if line.startswith("Comet Lake")
        ]
        assert matrix(first) == matrix(second)
        run_id = second.split("recorded as run ")[1].split()[0]
        assert main(["runs", "show", run_id]) == 0
        report = capsys.readouterr().out
        assert "# Campaign run report" in report
        assert "(hit rate 100%)" in report


class TestCampaignLogging:
    """A remediation is the module working as designed: it logs at INFO,
    so a default run's stderr stays clean and ``--log-level info`` shows
    every one."""

    @staticmethod
    def campaign_stderr(*flags: str) -> str:
        src = str(Path(repro.__file__).resolve().parents[1])
        # No disk cache and no registry: the jobs must really run.
        env = {
            name: value
            for name, value in os.environ.items()
            if name not in ("REPRO_CACHE_DIR", "REPRO_REGISTRY_DIR")
        }
        env.update(REPRO_REGISTRY="0", PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))
        ))
        completed = subprocess.run(
            [sys.executable, "-m", "repro", *flags, "campaign",
             "--cpu", "Sky Lake", "--no-aes", "--executor", "serial"],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        assert "Sky Lake" in completed.stdout
        return completed.stderr

    def test_default_run_logs_no_remediation(self):
        assert "unsafe state on core" not in self.campaign_stderr()

    def test_info_level_shows_remediations(self):
        assert "unsafe state on core" in self.campaign_stderr("--log-level", "info")
