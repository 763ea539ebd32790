"""Command-line interface.

Exposes the reproduction's main flows without writing Python::

    python -m repro list-cpus
    python -m repro characterize --cpu "Comet Lake" --map
    python -m repro characterize --cpu "Sky Lake" --json skylake.json
    python -m repro attack --cpu "Comet Lake" --attack plundervolt
    python -m repro attack --cpu "Comet Lake" --attack imul --protect
    python -m repro campaign --workers 4
    REPRO_CACHE_DIR=ckpt python -m repro campaign   # killable; rerun resumes
    python -m repro chaos --budget 60 --out chaos.json
    python -m repro spec
    python -m repro maximal
    python -m repro profile --out profile.speedscope.json
    python -m repro runs list --cpu "Comet Lake"
    python -m repro runs show <run-id>
    python -m repro reproduce <run-id>          # byte-identity re-execution
    python -m repro diff <run-a> <run-b>
    python -m repro trajectory record engine_campaign --from bench.json \\
        --metric serial_seconds   # appends to benchmarks/trajectories/
    python -m repro trajectory check engine_campaign --value 1.9
    python -m repro status --registry
    python -m repro campaign --workers 2 --spans trace.json
    python -m repro spans <run-id> --export trace.json

Each paper artifact has one implementation, and its verb calls it:
Figs. 2-4 are ``characterize --map``, the Sec. 4.3 matrix and its cells
are ``campaign`` and ``attack`` (:func:`repro.experiments.prevention_jobs`
and :func:`~repro.experiments.attack_job`), Table 2 is ``spec``
(:func:`~repro.experiments.table2_overhead`) and Sec. 5 is ``maximal``.
Every heavy flow goes through the campaign engine (:mod:`repro.engine`),
so it is cached per content hash and recorded in the run registry;
``repro campaign`` can shard the matrix across a process pool
(``--executor process --workers N``, or the ``REPRO_EXECUTOR`` /
``REPRO_WORKERS`` environment variables).  Without ``--seed``, ``attack``,
``campaign``, ``spec`` and ``maximal`` run their library functions'
default seeds and every other verb runs seed 5; a given ``--seed`` is
passed on as is.  The CLI's own machines draw their seeds from named
streams under it rather than ad-hoc ``seed + N`` offsets.

``runs show`` is the one rendering of a recorded run, its span latency
included; ``spans`` prints the stored timeline as JSON or exports it as
a trace.  ``trajectory`` appends to and gates against the committed
``benchmarks/trajectories/BENCH_<bench>.json`` files only.
"""

from __future__ import annotations

import argparse
import json as _json
import logging
import os
import sys
from pathlib import Path
from typing import List, Optional

# Handlers import the repro modules they use locally, so a launch loads
# only its own command's dependencies: ``repro list-cpus`` loads no numpy
# and no engine (tests/test_cli.py::TestImportGraph checks it).


def _characterize(model, seed: int):
    """The cached Algo 2 sweep for ``model`` via the engine session."""
    from repro.engine import get_session

    return get_session().characterize(model, seed=seed)


#: The seed of every verb that does not call a library function with a
#: default seed of its own.
_DEFAULT_SEED = 5

#: Verbs whose default seed is that of the library functions they call.
_LIBRARY_SEEDED = frozenset({"attack", "campaign", "spec", "maximal"})


def _seed_kwargs(args) -> dict:
    """``seed=`` for a library call: ``--seed`` when given, else nothing."""
    return {} if args.seed is None else {"seed": args.seed}


def _protected_machine(args, command: str, **build):
    """Characterize ``--cpu``, build the command's machine and load the
    polling module; returns the machine and the unsafe set it guards.

    The machine seed is drawn from the named stream
    ``("cli", command, codename)`` under ``--seed``.
    """
    from repro.core.polling_module import PollingCountermeasure
    from repro.cpu.models import model_by_codename
    from repro.engine import seed_stream
    from repro.testbench import Machine

    model = model_by_codename(args.cpu)
    unsafe = _characterize(model, args.seed).unsafe_states
    seed = seed_stream(args.seed, "cli", command, model.codename).integer()
    machine = Machine.build(model, seed=seed, **build)
    machine.modules.insmod(PollingCountermeasure(machine, unsafe))
    return machine, unsafe


def _executor(args):
    """The executor ``--executor``/``--workers`` (or campaign's
    ``--remote``) select, or ``None`` when none is given.

    Each is supervised by the environment's retry policy
    (``REPRO_JOB_RETRIES`` / ``REPRO_JOB_TIMEOUT`` / ``REPRO_RETRY_BACKOFF``).
    """
    from repro.engine import RetryPolicy, make_executor

    policy = RetryPolicy.from_env()
    remote = getattr(args, "remote", None)
    if remote is not None or args.executor == "remote":
        from repro.serve import RemoteExecutor

        url = remote or os.environ.get("REPRO_COORDINATOR")
        if not url:
            print(f"{args.command}: --executor remote needs --remote URL "
                  "(or REPRO_COORDINATOR)", file=sys.stderr)
            raise SystemExit(2)
        return RemoteExecutor(url, policy=policy, max_wait_s=args.remote_wait)
    if args.executor is None and args.workers is None:
        return None
    return make_executor(
        args.executor or "process", workers=args.workers, policy=policy
    )


def _session(args):
    """The default engine session, or a fresh one on the selected executor."""
    from repro.engine import EngineSession, get_session, set_session

    executor = _executor(args)
    if executor is None:
        return get_session()
    return set_session(EngineSession(executor=executor))


def _fuzz_jobs(args, *, characterize: bool):
    """The selected CPUs and ``--budget`` fuzz cases split across them.

    The first ``budget % len(cpus)`` CPUs take one case more.  With
    ``characterize`` each case carries its CPU's unsafe set, so its
    schedule can load the polling module.
    """
    from repro.cpu.models import PAPER_MODEL_TUPLE, model_by_codename
    from repro.engine import FuzzJob

    models = (
        [model_by_codename(args.cpu)] if args.cpu else list(PAPER_MODEL_TUPLE)
    )
    jobs = []
    for index, model in enumerate(models):
        unsafe_json = None
        if characterize:
            unsafe_json = _json.dumps(
                _characterize(model, args.seed).unsafe_states.to_dict(),
                sort_keys=True,
            )
        count = args.budget // len(models) + (
            1 if index < args.budget % len(models) else 0
        )
        jobs.extend(
            FuzzJob(
                codename=model.codename,
                seed=args.seed,
                case_index=case,
                num_actions=args.actions,
                unsafe_json=unsafe_json,
            )
            for case in range(count)
        )
    return models, jobs


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Plug Your Volt (DAC 2024) reproduction toolkit",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="deterministic seed (default 5; attack, campaign, spec and "
        "maximal default to their library functions' seeds)",
    )
    parser.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error", "critical"),
        default=None,
        help="configure logging for the repro.* loggers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-cpus", help="list the simulated CPU models")

    characterize = sub.add_parser(
        "characterize", help="run Algorithm 2 and print the safe/unsafe boundary"
    )
    characterize.add_argument("--cpu", default="Comet Lake", help="CPU codename")
    characterize.add_argument(
        "--adaptive", action="store_true", help="bisection instead of the full grid"
    )
    characterize.add_argument("--map", action="store_true", help="print the ASCII map")
    characterize.add_argument("--json", metavar="PATH", help="export bundle as JSON")
    characterize.add_argument("--csv", metavar="PATH", help="export boundary as CSV")

    attack = sub.add_parser("attack", help="mount an attack campaign")
    attack.add_argument("--cpu", default="Comet Lake", help="CPU codename")
    attack.add_argument(
        "--attack",
        choices=("imul", "plundervolt", "v0ltpwn", "voltjockey", "aes-dfa"),
        default="imul",
    )
    attack.add_argument(
        "--protect", action="store_true", help="deploy the polling module first"
    )

    campaign = sub.add_parser(
        "campaign",
        help="run the Sec. 4.3 prevention matrix through the campaign engine",
    )
    campaign.add_argument(
        "--cpu", default=None, help="restrict to one CPU codename (default: all three)"
    )
    campaign.add_argument(
        "--executor",
        choices=("serial", "process", "remote"),
        default=None,
        help="engine executor (default: REPRO_EXECUTOR or serial)",
    )
    campaign.add_argument(
        "--workers",
        type=int,
        default=None,
        help="process-pool size (implies --executor process)",
    )
    campaign.add_argument(
        "--remote",
        metavar="URL",
        default=None,
        help="shard the campaign through a coordinator (repro serve) at "
        "this URL (implies --executor remote); degrades to local "
        "execution if it stays unreachable",
    )
    campaign.add_argument(
        "--remote-wait",
        type=float,
        metavar="SECONDS",
        default=None,
        help="give up on remote results after this long without "
        "completion and finish the batch locally (default: wait)",
    )
    campaign.add_argument(
        "--no-aes", action="store_true", help="skip the AES-DFA campaign"
    )
    campaign.add_argument(
        "--json", metavar="PATH", help="write matrix + engine stats as JSON"
    )
    campaign.add_argument(
        "--spans",
        metavar="PATH",
        default=None,
        help="export the merged fleet span timeline as a Chrome trace "
        "(sim-time fields; byte-identical across executors)",
    )
    campaign.add_argument(
        "--spans-wall",
        metavar="PATH",
        default=None,
        help="also export the wall-clock span sidecar (non-deterministic)",
    )

    explore = sub.add_parser(
        "explore",
        help="exhaustively map the RSA-CRT fault space (ARMORY-style)",
    )
    explore_sub = explore.add_subparsers(dest="explore_command", required=True)
    e_run = explore_sub.add_parser(
        "run", help="enumerate, prune and simulate one explore plan"
    )
    e_run.add_argument("--cpu", default="Sky Lake", help="CPU codename")
    e_run.add_argument(
        "--protect",
        action="store_true",
        help="characterize first and load the polling countermeasure",
    )
    e_run.add_argument(
        "--key-bits", type=int, default=128, help="RSA key size (default 128)"
    )
    e_run.add_argument(
        "--frequencies",
        metavar="GHZ[,GHZ...]",
        default=None,
        help="comma-separated frequency list (default: every 6th table entry)",
    )
    e_run.add_argument(
        "--offsets",
        metavar="MV[,MV...]",
        default=None,
        help="comma-separated undervolt offsets (default: -40..-280 step 40)",
    )
    e_run.add_argument(
        "--models",
        metavar="NAME[,NAME...]",
        default=None,
        help="fault models (default: flip:0,flip:63,trunc64,zero)",
    )
    e_run.add_argument(
        "--rows-per-job",
        type=int,
        default=8,
        help="fault-space elements per engine job shard (pure scheduling)",
    )
    e_run.add_argument(
        "--executor",
        choices=("serial", "process"),
        default=None,
        help="engine executor (default: REPRO_EXECUTOR or serial)",
    )
    e_run.add_argument(
        "--workers",
        type=int,
        default=None,
        help="process-pool size (implies --executor process)",
    )
    e_run.add_argument(
        "--json", metavar="PATH", default=None, help="write the canonical map here"
    )
    e_report = explore_sub.add_parser(
        "report",
        help="render a coverage report from one or two exploitability maps "
        "(with two, nonzero exit unless the defended map's exploitable "
        "set is exactly empty)",
    )
    e_report.add_argument("open_map", metavar="OPEN_JSON", help="undefended map")
    e_report.add_argument(
        "protected_map",
        metavar="PROTECTED_JSON",
        nargs="?",
        default=None,
        help="defended map to diff against",
    )

    fuzz = sub.add_parser(
        "fuzz",
        help="fuzz adversarial DVFS schedules under the runtime invariant checker",
    )
    fuzz.add_argument(
        "--cpu", default=None, help="restrict to one CPU codename (default: all three)"
    )
    fuzz.add_argument(
        "--budget", type=int, default=200,
        help="total fuzz cases, split across the selected CPUs",
    )
    fuzz.add_argument(
        "--actions", type=int, default=12, help="actions per fuzzed schedule"
    )
    fuzz.add_argument(
        "--executor",
        choices=("serial", "process"),
        default=None,
        help="engine executor (default: REPRO_EXECUTOR or serial)",
    )
    fuzz.add_argument(
        "--workers",
        type=int,
        default=None,
        help="process-pool size (implies --executor process)",
    )
    fuzz.add_argument(
        "--no-module",
        action="store_true",
        help="skip characterization; module load/unload actions become no-ops",
    )
    fuzz.add_argument(
        "--out",
        metavar="PATH",
        default="fuzz-repro.flight.jsonl",
        help="shrunk-repro flight dump path (written only on a violation)",
    )
    fuzz.add_argument(
        "--replay",
        metavar="PATH",
        default=None,
        help="replay a flight dump, or the first recorded dump with a "
        "schedule of a registry run id, under the checker instead of "
        "fuzzing",
    )
    fuzz.add_argument(
        "--registry",
        metavar="DIR",
        default=None,
        help="registry that resolves a --replay run id",
    )

    chaos = sub.add_parser(
        "chaos",
        help="fault-injection harness: run a campaign twice under seeded "
        "worker kills / errors / stalls / torn cache writes and prove the "
        "results converge byte-for-byte",
    )
    chaos.add_argument(
        "--cpu", default=None, help="restrict to one CPU codename (default: all three)"
    )
    chaos.add_argument(
        "--budget", type=int, default=60,
        help="total fuzz-case jobs, split across the selected CPUs",
    )
    chaos.add_argument(
        "--actions", type=int, default=8, help="actions per fuzz-case job"
    )
    chaos.add_argument(
        "--workers", type=int, default=None, help="process-pool size"
    )
    chaos.add_argument(
        "--chaos-seed",
        type=int,
        default=None,
        help="seed of the chaos decision stream (default: --seed)",
    )
    chaos.add_argument(
        "--kill-rate", type=float, default=0.05,
        help="probability a first attempt os._exit()s its worker",
    )
    chaos.add_argument(
        "--error-rate", type=float, default=0.10,
        help="probability a first attempt raises an injected ChaosError",
    )
    chaos.add_argument(
        "--stall-rate", type=float, default=0.05,
        help="probability a first attempt stalls past the job timeout",
    )
    chaos.add_argument(
        "--torn-rate", type=float, default=0.10,
        help="probability a result's cache entry is torn after the write",
    )
    chaos.add_argument(
        "--stall-s", type=float, default=0.75, help="injected stall length (s)"
    )
    chaos.add_argument(
        "--timeout", type=float, default=0.35,
        help="per-attempt wall-clock timeout (s)",
    )
    chaos.add_argument(
        "--retries", type=int, default=3, help="max attempts per job"
    )
    chaos.add_argument(
        "--off",
        action="store_true",
        help="disable all injection: the clean baseline whose --out "
        "artifact a chaos run must match byte-for-byte",
    )
    chaos.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="back the result cache with this directory so torn writes "
        "hit real files (and leave .corrupt quarantines behind)",
    )
    chaos.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="write the canonical campaign results as JSON (identical "
        "bytes for chaos-on and --off runs of the same seed)",
    )

    spec = sub.add_parser("spec", help="reproduce Table 2 (SPEC2017 overhead)")
    spec.add_argument("--cpu", default="Comet Lake", help="CPU codename")
    spec.add_argument("--csv", metavar="PATH", help="export rows as CSV")

    maximal = sub.add_parser(
        "maximal",
        help="print each CPU's maximal safe state and the adaptive attack "
        "vs deployment depth (Sec. 5)",
    )

    # These verbs also take --seed after their name (repro fuzz --seed 0).
    for verb in (attack, campaign, fuzz, chaos, spec, maximal):
        verb.add_argument(
            "--seed",
            type=int,
            default=argparse.SUPPRESS,
            help="deterministic seed (same as the global --seed)",
        )

    trace = sub.add_parser(
        "trace", help="watch the countermeasure intercept one attack write"
    )
    trace.add_argument("--cpu", default="Comet Lake", help="CPU codename")
    trace.add_argument("--offset", type=int, default=-250, help="attack offset (mV)")
    trace.add_argument(
        "--export",
        choices=("jsonl", "chrome"),
        default=None,
        help="also export the structured telemetry trace of the run",
    )
    trace.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="trace output path (default: trace.jsonl / trace.json; "
        "implies --export chrome when given alone)",
    )

    energy = sub.add_parser(
        "energy", help="power saved by safe-band undervolting per frequency"
    )
    energy.add_argument("--cpu", default="Comet Lake", help="CPU codename")

    verify = sub.add_parser(
        "verify", help="deploy the module and run the acceptance test"
    )
    verify.add_argument("--cpu", default="Comet Lake", help="CPU codename")
    verify.add_argument("--samples", type=int, default=10, help="unsafe cells to probe")

    reproduce = sub.add_parser(
        "reproduce",
        help="re-execute a recorded registry run and assert byte-identity "
        "of every result",
    )
    reproduce.add_argument(
        "run_id",
        metavar="RUN_ID",
        help="registry run id (or unique prefix): re-execute every "
        "recorded job under the recorded environment and fail with a "
        "per-job diff unless every payload reproduces byte-for-byte",
    )
    reproduce.add_argument(
        "--registry",
        metavar="DIR",
        default=None,
        help="registry directory (default: REPRO_REGISTRY_DIR or ~/.repro/registry)",
    )
    reproduce.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="write the per-job reproduction report as JSON (RUN_ID mode)",
    )

    runs = sub.add_parser("runs", help="query the local run registry")
    runs_sub = runs.add_subparsers(dest="runs_command", required=True)
    runs_list = runs_sub.add_parser("list", help="list recorded runs, newest first")
    runs_list.add_argument("--cpu", default=None, help="filter by CPU codename")
    runs_list.add_argument(
        "--status",
        choices=("complete", "quarantined"),
        default=None,
        help="filter by run status",
    )
    runs_list.add_argument(
        "--since",
        metavar="ISO_DATE",
        default=None,
        help="only runs recorded at or after this UTC date/time",
    )
    runs_list.add_argument(
        "--spec",
        metavar="FINGERPRINT",
        default=None,
        help="only runs containing a job whose spec fingerprint starts with this",
    )
    runs_list.add_argument(
        "--limit", type=int, default=None, help="show at most N runs"
    )
    runs_list.add_argument(
        "--porcelain",
        action="store_true",
        help="print full run ids only, one per line (for scripts)",
    )
    runs_list.add_argument("--registry", metavar="DIR", default=None)
    runs_show = runs_sub.add_parser(
        "show", help="everything recorded about one run"
    )
    runs_show.add_argument("run_id", metavar="RUN_ID", help="run id or unique prefix")
    runs_show.add_argument("--registry", metavar="DIR", default=None)

    diff = sub.add_parser(
        "diff",
        help="attribute the drift between two recorded runs "
        "(code vs environment vs spec vs results)",
    )
    diff.add_argument("run_a", metavar="RUN_A", help="run id or unique prefix")
    diff.add_argument("run_b", metavar="RUN_B", help="run id or unique prefix")
    diff.add_argument("--registry", metavar="DIR", default=None)
    diff.add_argument(
        "--json", action="store_true", help="emit the structured diff as JSON"
    )

    spans = sub.add_parser(
        "spans",
        help="inspect or export the span timeline recorded with a run",
    )
    spans.add_argument("run_id", metavar="RUN_ID", help="run id or unique prefix")
    spans.add_argument(
        "--export",
        metavar="PATH",
        default=None,
        help="write the sim-time timeline as a trace file instead of "
        "printing the stored document as JSON",
    )
    spans.add_argument(
        "--fmt",
        choices=("chrome", "jsonl"),
        default="chrome",
        help="trace format for --export (chrome opens in ui.perfetto.dev)",
    )
    spans.add_argument(
        "--wall",
        metavar="PATH",
        default=None,
        help="also write the wall-clock sidecar trace (non-deterministic)",
    )
    spans.add_argument("--registry", metavar="DIR", default=None)

    serve = sub.add_parser(
        "serve",
        help="run a campaign coordinator: lease jobs to repro work agents, "
        "dedup results fleet-wide, serve /v1/status",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port",
        type=int,
        default=0,
        help="port to bind (default 0: pick a free ephemeral port and "
        "print it)",
    )
    serve.add_argument(
        "--store",
        metavar="DIR",
        default=None,
        help="result-store directory (default: a fresh temp directory)",
    )
    serve.add_argument(
        "--lease-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="heartbeat deadline after which a worker's lease expires and "
        "its jobs are re-leased (default: 15)",
    )
    serve.add_argument(
        "--duration",
        type=float,
        default=None,
        metavar="SECONDS",
        help="serve for this long then exit (default: until interrupted)",
    )

    work = sub.add_parser(
        "work",
        help="run a worker agent: lease jobs from a coordinator, execute, "
        "publish results",
    )
    work.add_argument(
        "--coordinator",
        metavar="URL",
        required=True,
        help="coordinator base URL (printed by repro serve)",
    )
    work.add_argument(
        "--capacity",
        type=int,
        default=None,
        help="jobs to lease per batch (default: 2)",
    )
    work.add_argument(
        "--worker-id",
        default=None,
        help="stable worker name for leases and spans (default: host-pid)",
    )
    work.add_argument(
        "--max-idle",
        type=float,
        default=None,
        metavar="SECONDS",
        help="exit after this long with no work (default: poll forever)",
    )

    trajectory = sub.add_parser(
        "trajectory",
        help="append and gate perf-trajectory points (BENCH_<name>.json)",
    )
    trajectory_sub = trajectory.add_subparsers(
        dest="trajectory_command", required=True
    )
    t_record = trajectory_sub.add_parser(
        "record", help="append one canonical point to a bench trajectory"
    )
    t_record.add_argument("bench", metavar="BENCH", help="bench name")
    t_record.add_argument(
        "--value", type=float, default=None, help="the metric value itself"
    )
    t_record.add_argument(
        "--from",
        dest="artifact",
        metavar="JSON",
        default=None,
        help="pull the value out of this benchmark artifact instead",
    )
    t_record.add_argument(
        "--metric", default="value", help="metric name (key in --from artifacts)"
    )
    t_record.add_argument("--unit", default="s", help="metric unit (default: s)")
    t_record.add_argument(
        "--higher-better",
        action="store_true",
        help="larger values are better (default: lower is better)",
    )
    t_record.add_argument(
        "--file",
        metavar="PATH",
        default=None,
        help="trajectory file to append to "
        "(default: benchmarks/trajectories/BENCH_<bench>.json)",
    )
    t_check = trajectory_sub.add_parser(
        "check",
        help="gate a candidate point against a committed baseline "
        "trajectory (nonzero exit on regression)",
    )
    t_check.add_argument("bench", metavar="BENCH", help="bench name")
    t_check.add_argument("--value", type=float, default=None)
    t_check.add_argument("--from", dest="artifact", metavar="JSON", default=None)
    t_check.add_argument("--metric", default="value")
    t_check.add_argument(
        "--higher-better",
        action="store_true",
        help="larger values are better (default: lower is better)",
    )
    t_check.add_argument(
        "--baseline",
        metavar="PATH",
        default=None,
        help="baseline trajectory file "
        "(default: benchmarks/trajectories/BENCH_<bench>.json)",
    )
    t_check.add_argument(
        "--max-regress",
        type=float,
        default=None,
        help="allowed regression ratio (default: 0.25 = 25%%)",
    )

    status = sub.add_parser(
        "status", help="render a /proc/cpuinfo-style snapshot of a protected machine"
    )
    status.add_argument("--cpu", default="Comet Lake", help="CPU codename")
    status.add_argument(
        "--registry",
        metavar="DIR",
        nargs="?",
        const="auto",
        default=None,
        help="show run-registry status instead (runs, store size, dedup "
        "hit-rate); optional DIR overrides REPRO_REGISTRY_DIR",
    )

    profile = sub.add_parser(
        "profile",
        help="profile the dispatch loop of a protected attack run "
        "(deterministic flamegraph artifacts)",
    )
    profile.add_argument("--cpu", default="Comet Lake", help="CPU codename")
    profile.add_argument(
        "--iterations",
        type=int,
        default=200_000,
        help="imul iterations per campaign sweep point",
    )
    profile.add_argument(
        "--out",
        metavar="PATH",
        default="profile.speedscope.json",
        help="speedscope profile path (open in https://www.speedscope.app)",
    )
    profile.add_argument(
        "--collapsed",
        metavar="PATH",
        default=None,
        help="also write a collapsed-stack file for flamegraph.pl/inferno",
    )
    profile.add_argument(
        "--wall",
        metavar="PATH",
        default=None,
        help="also write the wall-clock sidecar (non-deterministic) as JSON",
    )

    return parser


def _cmd_list_cpus(args) -> int:
    from repro.analysis.report import render_table
    from repro.cpu.models import PAPER_MODEL_TUPLE

    rows = [
        (
            model.codename,
            model.name,
            f"0x{model.microcode:x}",
            f"{model.frequency_table.min_ghz}-{model.frequency_table.max_ghz} GHz",
        )
        for model in PAPER_MODEL_TUPLE
    ]
    print(render_table(["codename", "model", "microcode", "frequency range"], rows))
    return 0


def _cmd_characterize(args) -> int:
    from repro.analysis.export import (
        boundary_to_csv,
        characterization_to_json,
        write_text,
    )
    from repro.analysis.regions import summarize
    from repro.analysis.report import (
        render_boundary_series,
        render_characterization_map,
    )
    from repro.core.adaptive import AdaptiveCharacterization
    from repro.cpu.models import model_by_codename

    model = model_by_codename(args.cpu)
    if args.adaptive:
        outcome = AdaptiveCharacterization(model, seed=args.seed).run()
        result = outcome.result
        print(f"adaptive characterization: {outcome.probes} probes, "
              f"{outcome.crashes} crashes")
    else:
        result = _characterize(model, args.seed)
        print(f"full sweep: {len(result.cells)} cells, {result.crashes} crashes")
    print(render_boundary_series(result))
    summary = summarize(result)
    print(f"\nmaximal safe state: {summary.maximal_safe_mv:.0f} mV")
    if args.map:
        print()
        print(render_characterization_map(result))
    if args.json:
        path = write_text(args.json, characterization_to_json(result))
        print(f"JSON bundle written to {path}")
    if args.csv:
        path = write_text(args.csv, boundary_to_csv(result))
        print(f"boundary CSV written to {path}")
    return 0


def _cmd_attack(args) -> int:
    from repro import experiments
    from repro.analysis.report import render_table
    from repro.cpu.models import model_by_codename
    from repro.engine import Quarantined, get_session

    job = experiments.attack_job(
        model_by_codename(args.cpu),
        args.attack,
        protected=args.protect,
        **_seed_kwargs(args),
    )
    if args.protect:
        print("polling countermeasure deployed")
    outcome = get_session().run_job(job)
    if isinstance(outcome, Quarantined):
        print(f"attack: the cell failed {outcome.attempts} attempt(s): "
              f"{outcome.error_type}: {outcome.error_message}", file=sys.stderr)
        return 2
    print(render_table(
        ["attack", "succeeded", "faults", "attempts", "crashes", "writes blocked"],
        [(
            outcome.attack,
            "yes" if outcome.succeeded else "no",
            outcome.faults_observed,
            outcome.attempts,
            outcome.crashes,
            outcome.writes_blocked,
        )],
    ))
    for note in outcome.notes:
        print(f"note: {note}")
    return 0 if not outcome.succeeded else 1


def _cmd_explore(args) -> int:
    from repro.analysis.export import write_text
    from repro.analysis.report import render_table
    from repro.cpu.models import model_by_codename
    from repro.explore import (
        DEFAULT_FAULT_MODELS,
        ExplorePlan,
        canonical_json,
        coverage_holds,
        load_map,
        render_report,
    )

    if args.explore_command == "report":
        open_map = load_map(args.open_map)
        protected_map = (
            load_map(args.protected_map) if args.protected_map else None
        )
        print(render_report(open_map, protected_map))
        if protected_map is None:
            return 0
        return 0 if coverage_holds(open_map, protected_map) else 1

    model = model_by_codename(args.cpu)
    session = _session(args)
    table = model.frequency_table
    frequencies = (
        tuple(float(raw) for raw in args.frequencies.split(","))
        if args.frequencies
        else tuple(list(table.frequencies_ghz())[::6])
    )
    offsets = (
        tuple(int(raw) for raw in args.offsets.split(","))
        if args.offsets
        else tuple(range(-40, -281, -40))
    )
    models = (
        tuple(args.models.split(",")) if args.models else DEFAULT_FAULT_MODELS
    )
    unsafe_json = None
    if args.protect:
        result = _characterize(model, args.seed)
        unsafe_json = _json.dumps(result.unsafe_states.to_dict(), sort_keys=True)
        print("polling countermeasure deployed per probed machine")
    plan = ExplorePlan(
        codename=model.codename,
        frequencies_ghz=frequencies,
        offsets_mv=offsets,
        fault_models=models,
        key_bits=args.key_bits,
        protect=args.protect,
        unsafe_json=unsafe_json,
        seed=args.seed,
    )
    document = session.explore(plan, rows_per_job=args.rows_per_job)
    stats, summary = document["stats"], document["summary"]
    print(render_table(
        ["axis", "enumerated", "pruned", "simulated"],
        [
            (
                "points",
                stats["points_enumerated"],
                stats["points_pruned_safe"],
                stats["points_probed"],
            ),
            (
                "injections",
                stats["injections_enumerated"],
                stats["injections_pruned_masked"],
                stats["injections_simulated"],
            ),
        ],
        title=f"Fault-space exploration: {model.codename} "
        f"({'protected' if args.protect else 'open'})",
    ))
    print(
        f"feasible points: {summary['feasible_points']}  "
        f"crash points: {summary['crash_points']}  "
        f"exploitable pairs: {summary['exploitable_pairs']}  "
        f"exploitable points: {summary['exploitable_points']}"
    )
    run_id = session.record_run()
    if run_id:
        print(f"recorded as run {run_id[:12]}")
    if args.json:
        write_text(Path(args.json), canonical_json(document))
        print(f"map written to {args.json}")
    return 0


def _cmd_campaign(args) -> int:
    from repro import experiments
    from repro.analysis.export import write_text
    from repro.analysis.report import render_table
    from repro.cpu.models import model_by_codename
    from repro.engine import Quarantined
    from repro.errors import ConfigurationError

    if args.spans_wall and not args.spans:
        print("repro campaign: --spans-wall needs --spans PATH for the main "
              "timeline", file=sys.stderr)
        return 2
    session = _session(args)
    try:
        jobs = experiments.prevention_jobs(
            include_aes=not args.no_aes,
            codename=model_by_codename(args.cpu).codename if args.cpu else None,
            **_seed_kwargs(args),
        )
    except ConfigurationError as exc:
        print(f"repro campaign: {exc}", file=sys.stderr)
        return 2
    outcomes = session.run_jobs(jobs)
    rows = []
    quarantined = 0
    for job, outcome in zip(jobs, outcomes):
        defense = "polling" if job.protected else "none"
        if isinstance(outcome, Quarantined):
            quarantined += 1
            rows.append(
                (job.codename, defense, outcome.kind, "-", "-", "QUARANTINED")
            )
            continue
        rows.append(
            (
                job.codename,
                defense,
                outcome.attack,
                outcome.faults_observed,
                outcome.crashes,
                "yes" if outcome.succeeded else "no",
            )
        )
    print(render_table(
        ["CPU", "defense", "attack", "faults", "crashes", "succeeded"],
        rows,
        title="Attack campaigns vs the polling countermeasure (Sec. 4.3)",
    ))
    protected_faults = sum(
        outcome.faults_observed
        for job, outcome in zip(jobs, outcomes)
        if job.protected and not isinstance(outcome, Quarantined)
    )
    engine = session.describe()
    print(f"\nprotected-cell faults: {protected_faults} (claim: 0)")
    print(
        f"engine: executor={engine['executor']} workers={engine['workers']} "
        f"cache hits={engine['cache']['hits']} misses={engine['cache']['misses']}"
    )
    if quarantined:
        print(f"WARNING: {quarantined} campaign cell(s) quarantined after "
              "repeated failures; see the quarantine list in repro runs show")
    if args.json:
        cells = []
        for job, outcome in zip(jobs, outcomes):
            cell = {"codename": job.codename, "protected": job.protected}
            if isinstance(outcome, Quarantined):
                cell["quarantined"] = outcome.as_dict()
            else:
                cell.update(
                    attack=outcome.attack,
                    faults_observed=outcome.faults_observed,
                    crashes=outcome.crashes,
                    succeeded=outcome.succeeded,
                )
            cells.append(cell)
        payload = {
            "engine": engine,
            "counters": session.counters(),
            "cells": cells,
        }
        path = write_text(args.json, _json.dumps(payload, indent=2, sort_keys=True))
        print(f"JSON artifact written to {path}")
    if args.spans:
        path = session.export_spans(args.spans, wall_path=args.spans_wall)
        print(f"span timeline written to {path} "
              "(open in https://ui.perfetto.dev)")
        if args.spans_wall:
            print(f"wall-clock span sidecar (non-deterministic) written "
                  f"to {args.spans_wall}")
    run_id = session.record_run()
    if run_id:
        print(f"recorded as run {run_id[:12]} "
              f"(inspect: repro runs show {run_id[:12]}; "
              f"re-execute: repro reproduce {run_id[:12]})")
    return 0 if protected_faults == 0 and quarantined == 0 else 1


def _cmd_fuzz(args) -> int:
    if args.replay:
        return _fuzz_replay(args.replay, args.registry)

    import hashlib

    from repro.analysis.report import render_table
    from repro.engine import EngineSession, executor_from_env
    from repro.observe.flight import write_flight_dump
    from repro.verify import InvariantChecker, run_schedule, shrink_schedule

    models, jobs = _fuzz_jobs(args, characterize=not args.no_module)
    executor = _executor(args)
    if executor is None:
        executor = executor_from_env()
    # Fuzz cases always re-execute (cache=False): the byte-identity
    # guarantee is about recomputation, not about replaying cached runs.
    with EngineSession(executor=executor, verifier=InvariantChecker()) as session:
        summaries = session.run_jobs(jobs, cache=False)
    rows = []
    for model in models:
        cases = [s for s in summaries if s["codename"] == model.codename]
        rows.append(
            (
                model.codename,
                len(cases),
                sum(s["checks"] for s in cases),
                sum(len(s["expected_errors"]) for s in cases),
                sum(s["crashes"] for s in cases),
                sum(1 for s in cases if s["violation"] is not None),
            )
        )
    print(render_table(
        ["CPU", "cases", "checks", "expected errors", "crashes", "violations"],
        rows,
        title=f"Adversarial-schedule fuzzing — seed {args.seed}, "
        f"{args.actions} actions/case",
    ))
    digest = hashlib.sha256(
        _json.dumps(summaries, sort_keys=True, separators=(",", ":")).encode("utf-8")
    ).hexdigest()
    print(f"\nresult digest: {digest}")
    for job, summary in zip(jobs, summaries):
        if summary["violation"] is None:
            continue
        violation = summary["violation"]
        print(f"\nINVARIANT VIOLATION [{violation['invariant']}] "
              f"{violation['message']}")
        print(f"  case: {job.codename} #{job.case_index} "
              f"(action {violation['action_index']})")
        shrunk = shrink_schedule(job.schedule())
        path = write_flight_dump(
            args.out,
            "invariant-violation",
            violation=run_schedule(shrunk)["violation"],
            context={"schedule": shrunk.to_dict()},
        )
        print(f"  shrunk to {len(shrunk.actions)} action(s); "
              f"replayable flight dump written to {path}")
        print(f"  replay with: repro fuzz --replay {path}")
        return 1
    print("no invariant violations")
    return 0


def _cmd_chaos(args) -> int:
    import hashlib

    from repro.analysis.export import write_text
    from repro.analysis.report import render_table
    from repro.engine import (
        ChaosPolicy,
        EngineSession,
        ParallelExecutor,
        Quarantined,
        ResultCache,
        RetryPolicy,
    )

    models, jobs = _fuzz_jobs(args, characterize=False)
    chaos = None
    if not args.off:
        chaos = ChaosPolicy(
            seed=args.chaos_seed if args.chaos_seed is not None else args.seed,
            kill_rate=args.kill_rate,
            error_rate=args.error_rate,
            stall_rate=args.stall_rate,
            torn_write_rate=args.torn_rate,
            stall_s=args.stall_s,
        )
    # A generous respawn budget: every injected kill costs one pool, and
    # degrading to inline execution would quietly turn chaos off.
    policy = RetryPolicy(
        max_attempts=args.retries,
        timeout_s=args.timeout,
        backoff_s=0.01,
        max_pool_respawns=10,
    )
    executor = ParallelExecutor(args.workers, policy=policy, chaos=chaos)
    cache = (
        ResultCache(directory=args.cache_dir) if args.cache_dir else ResultCache()
    )
    mode = "chaos OFF (clean baseline)" if args.off else "chaos ON"
    print(f"{mode}: {len(jobs)} job(s) across {len(models)} CPU(s), "
          f"retries={policy.max_attempts}, timeout={policy.timeout_s:g}s")
    with EngineSession(executor=executor, cache=cache, chaos=chaos) as session:
        # Two passes: the first executes everything under injection, the
        # second must re-serve every payload — recomputing any result
        # whose cache entry chaos tore — without changing a byte.
        first = session.run_jobs(jobs)
        second = session.run_jobs(jobs)
        supervision = session.executor.stats.as_dict()
        cache_stats = session.cache.stats.as_dict()
    poisoned = sum(
        1 for payload in first + second if isinstance(payload, Quarantined)
    )
    if poisoned:
        print(f"\nERROR: {poisoned} job(s) quarantined — the retry budget "
              f"({args.retries} attempts) must outlast the faulted attempts")
        return 1
    stats_rows = [(name, value) for name, value in sorted(supervision.items())]
    stats_rows += [
        ("cache corrupt entries quarantined", cache_stats["corrupt"]),
        ("cache hits / misses",
         f"{cache_stats['hits']} / {cache_stats['misses']}"),
    ]
    print()
    print(render_table(
        ["supervision", "value"], stats_rows, title="What the chaos did"
    ))
    canonical = _json.dumps(first, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    converged = first == second
    print(f"\nresult digest: {digest}")
    print("second pass byte-identical to first: "
          + ("yes" if converged else "NO — determinism violated"))
    if args.out:
        artifact = {"jobs": len(jobs), "digest": digest, "results": first}
        path = write_text(
            args.out, _json.dumps(artifact, indent=2, sort_keys=True)
        )
        print(f"canonical results written to {path} "
              "(diffable against a --off run)")
    return 0 if converged else 1


def _cmd_spec(args) -> int:
    from repro import experiments
    from repro.analysis.export import overhead_to_csv, write_text
    from repro.analysis.report import render_table
    from repro.cpu.models import model_by_codename
    from repro.errors import ReproError

    model = model_by_codename(args.cpu)
    try:
        report = experiments.table2_overhead(model=model, **_seed_kwargs(args))
    except ReproError as error:
        print(f"spec: {error}", file=sys.stderr)
        return 2
    rows = [
        (
            row.name,
            f"{row.base_without:.2f}",
            f"{row.base_with:.2f}",
            f"{row.base_slowdown * 100:+.2f}%",
            f"{row.peak_slowdown * 100:+.2f}%",
        )
        for row in report.rows
    ]
    print(render_table(
        ["benchmark", "base w/o", "base with", "base slowdown", "peak slowdown"],
        rows,
        title=f"SPEC2017 polling overhead — {model.codename}",
    ))
    print(f"\nmean base overhead: {report.mean_base_overhead * 100:.2f}% "
          "(paper headline: 0.28%)")
    if args.csv:
        path = write_text(args.csv, overhead_to_csv(report))
        print(f"CSV written to {path}")
    return 0


def _cmd_maximal(args) -> int:
    from repro import experiments
    from repro.analysis.report import render_table
    from repro.cpu.models import PAPER_MODEL_TUPLE

    rows = []
    for model in PAPER_MODEL_TUPLE:
        result = experiments.characterization(model, **_seed_kwargs(args))
        rows.append((model.codename, f"{result.maximal_safe_offset_mv():.0f} mV"))
    print(render_table(["CPU", "maximal safe state"], rows, title="Sec. 5"))
    print()
    print(render_table(
        ["deployment", "window faults", "writes blocked"],
        [
            (d.deployment, d.outcome.faults_observed, d.outcome.writes_blocked)
            for d in experiments.maximal_safe_deployments(**_seed_kwargs(args))
        ],
        title="Adaptive attack vs deployment depth (Sec. 5)",
    ))
    return 0


def _cmd_trace(args) -> int:
    from repro.analysis.timeline import VoltageTracer
    from repro.telemetry import Telemetry

    if args.out and not args.export:
        args.export = "chrome"  # --out alone still means "give me a trace file"
    telemetry = Telemetry(max_events=None if args.export else 0)
    machine, _ = _protected_machine(args, "trace", telemetry=telemetry)
    tracer = VoltageTracer(machine, sample_period_s=100e-6)
    tracer.start()
    machine.write_voltage_offset(args.offset)
    machine.advance(2.5e-3)
    tracer.stop()
    print(tracer.render())
    print(f"\ndeepest offset ever applied: "
          f"{tracer.deepest_applied_offset_mv():.0f} mV "
          f"(attack target was {args.offset} mV)")
    if args.export:
        default_name = "trace.jsonl" if args.export == "jsonl" else "trace.json"
        path = telemetry.export(args.out or default_name, fmt=args.export)
        print(f"{len(telemetry.tracer.events)} telemetry events exported to {path} "
              f"({args.export}" +
              ("; open in https://ui.perfetto.dev)" if args.export == "chrome" else ")"))
    return 0


def _cmd_energy(args) -> int:
    from repro.analysis.report import render_table
    from repro.cpu.models import model_by_codename
    from repro.cpu.power import CorePowerModel

    model = model_by_codename(args.cpu)
    unsafe = _characterize(model, args.seed).unsafe_states
    power = CorePowerModel(model)
    rows = []
    for frequency in model.frequency_table.frequencies_ghz()[::4]:
        offset = unsafe.safe_offset_mv(frequency)
        savings = power.undervolt_savings(frequency, offset)
        rows.append(
            (
                f"{frequency:.1f}",
                f"{offset:.0f}",
                f"{power.power_at_offset_w(frequency, 0.0):.2f}",
                f"{power.power_at_offset_w(frequency, offset):.2f}",
                f"{savings * 100:.1f}%",
            )
        )
    print(render_table(
        ["freq (GHz)", "safe offset (mV)", "stock W", "undervolted W", "savings"],
        rows,
        title=f"Safe-band undervolting savings — {model.codename}",
    ))
    return 0


def _cmd_verify(args) -> int:
    from repro.analysis.report import render_table
    from repro.core.verification import verify_deployment

    machine, unsafe = _protected_machine(args, "verify")
    report = verify_deployment(machine, unsafe, samples=args.samples)
    print(render_table(
        ["freq (GHz)", "offset (mV)", "faults", "crashed", "detected"],
        [
            (f"{p.frequency_ghz:.1f}", p.offset_mv, p.faults, p.crashed, p.detected)
            for p in report.probes
        ],
        title="Deployment verification probes",
    ))
    print(f"\n{report.summary()}")
    return 0 if report.passed else 1


def _open_registry(directory=None, *, required: bool = True):
    """The registry named by ``--registry``/the environment, or ``None``."""
    from repro.registry import RunRegistry

    if directory:
        return RunRegistry(directory)
    registry = RunRegistry.from_env()
    if registry is None and required:
        print(
            "run registry disabled (REPRO_REGISTRY=0); pass --registry DIR "
            "or unset REPRO_REGISTRY",
            file=sys.stderr,
        )
    return registry


def _cmd_runs(args) -> int:
    from repro.analysis.report import render_table

    registry = _open_registry(args.registry)
    if registry is None:
        return 2
    if args.runs_command == "list":
        rows = registry.runs(
            codename=args.cpu,
            status=args.status,
            since=args.since,
            fingerprint=args.spec,
            limit=args.limit,
        )
        if args.porcelain:
            for row in rows:
                print(row["run_id"])
            return 0
        if not rows:
            print(f"no recorded runs in {registry.directory}")
            return 0
        print(render_table(
            ["run id", "recorded (UTC)", "status", "jobs", "executed",
             "cached", "CPUs"],
            [
                (
                    row["run_id"][:12],
                    row["created_at"],
                    row["status"],
                    row["jobs_total"],
                    row["jobs_executed"],
                    row["jobs_cached"],
                    ", ".join(row["codenames"]) or "-",
                )
                for row in rows
            ],
            title=f"Recorded runs — {registry.directory}",
        ))
        return 0

    from repro.observe import render_markdown

    run = registry.get_run(args.run_id)
    print(render_markdown(registry.manifest(run["run_id"])))
    print(f"recorded {run['created_at']} (status: {run['status']}; "
          f"CPUs: {', '.join(run['codenames']) or '-'}; "
          f"manifest object {run['manifest_sha'][:12]})")
    results = registry.results_for(run["run_id"])
    if results:
        print()
        print(render_table(
            ["kind", "seed path", "fingerprint", "source", "payload"],
            [
                (
                    row["kind"],
                    "/".join(str(p) for p in row["seed_path"]),
                    row["fingerprint"][:12],
                    row["source"],
                    (row["payload_sha"] or "")[:12] or "-",
                )
                for row in results
            ],
        ))
    flights = registry.flights_for(run["run_id"])
    if flights:
        print("\nflight dumps:")
        for flight in flights:
            print(f"  {flight['path']}  sha256={flight['sha256'][:12]} "
                  f"({flight['reason']})")
        print("replay one with: repro fuzz --replay "
              f"{run['run_id'][:12]}")
    return 0


def _cmd_diff(args) -> int:
    from repro.registry.diff import diff_runs

    registry = _open_registry(args.registry)
    if registry is None:
        return 2
    diff = diff_runs(registry, args.run_a, args.run_b)
    if args.json:
        print(_json.dumps(diff.as_dict(), indent=2, sort_keys=True))
    else:
        print(diff.render())
    return 0 if diff.identical else 1


def _cmd_spans(args) -> int:
    if args.wall and not args.export:
        print("repro spans: --wall needs --export PATH for the main trace",
              file=sys.stderr)
        return 2
    registry = _open_registry(args.registry)
    if registry is None:
        return 2
    run_id = registry.resolve(args.run_id)
    document = registry.spans_for(run_id)
    if document is None:
        print(f"run {run_id[:12]} has no recorded span timeline "
              "(recorded before spans existed)",
              file=sys.stderr)
        return 2
    if args.export:
        from repro.observe import FleetTimeline
        from repro.telemetry.export import write_trace

        timeline = FleetTimeline.from_dict(document)
        path = write_trace(args.export, timeline.to_events(), fmt=args.fmt)
        print(f"span timeline for run {run_id[:12]} written to {path}"
              + (" (open in https://ui.perfetto.dev)"
                 if args.fmt == "chrome" else ""))
        if args.wall:
            write_trace(args.wall, timeline.wall_events(), fmt=args.fmt)
            print(f"wall-clock sidecar (non-deterministic) written to "
                  f"{args.wall}")
        return 0
    print(_json.dumps(document, indent=2, sort_keys=True))
    return 0


def _trajectory_value(args) -> float:
    from repro.registry.trajectory import extract_metric

    if (args.value is None) == (args.artifact is None):
        raise SystemExit(
            "trajectory: pass exactly one of --value or --from JSON"
        )
    if args.value is not None:
        return float(args.value)
    return extract_metric(args.artifact, args.metric)


def _cmd_trajectory(args) -> int:
    from repro.registry.trajectory import (
        DEFAULT_MAX_REGRESS,
        check_point,
        load_trajectory,
        make_point,
        record_point,
        trajectory_filename,
    )

    default_file = str(
        Path("benchmarks") / "trajectories" / trajectory_filename(args.bench)
    )
    value = _trajectory_value(args)
    if args.trajectory_command == "record":
        point = make_point(
            args.bench,
            args.metric,
            value,
            unit=args.unit,
            lower_is_better=not args.higher_better,
        )
        file = args.file or default_file
        record_point(point, file=file)
        print(f"recorded {args.bench}/{args.metric} = {value:.6g} → {file}")
        return 0

    baseline_path = args.baseline or default_file
    baseline = load_trajectory(baseline_path)
    if not baseline:
        print(f"baseline trajectory {baseline_path} is missing or empty; "
              f"seed it with: repro trajectory record {args.bench} "
              f"--value … --file {baseline_path}", file=sys.stderr)
        return 2
    metric = args.metric
    if metric == "value" and not any(
        point.get("metric") == "value" for point in baseline
    ):
        # Bare --value checks inherit the baseline's metric when it is
        # unambiguous, so `trajectory check BENCH --value X` just works.
        metrics = {point.get("metric") for point in baseline}
        if len(metrics) == 1:
            metric = metrics.pop()
    candidate = make_point(
        args.bench,
        metric,
        value,
        lower_is_better=not args.higher_better,
    )
    max_regress = (
        args.max_regress if args.max_regress is not None else DEFAULT_MAX_REGRESS
    )
    check = check_point(baseline, candidate, max_regress=max_regress)
    print(check.render())
    return 0 if check.ok else 1


def _cmd_reproduce(args) -> int:
    from repro.analysis.export import write_text
    from repro.registry.reproduce import reproduce_run

    registry = _open_registry(args.registry)
    if registry is None:
        return 2
    report = reproduce_run(registry, args.run_id)
    print(report.render())
    if args.json:
        path = write_text(
            args.json, _json.dumps(report.as_dict(), indent=2, sort_keys=True)
        )
        print(f"reproduction report written to {path}")
    return 0 if report.ok else 1


def _cmd_status(args) -> int:
    if args.registry is not None:
        from repro.analysis.report import render_table

        registry = _open_registry(
            None if args.registry == "auto" else args.registry
        )
        if registry is None:
            return 2
        info = registry.describe()
        jobs = info["jobs"]
        rows = [
            ("directory", info["directory"]),
            ("recorded runs", info["runs"]),
            ("jobs", f"{jobs['total']} ({jobs['executed']} executed, "
                     f"{jobs['cached']} cached, "
                     f"{jobs['quarantined']} quarantined)"),
            ("dedup hit-rate", f"{info['dedup_hit_rate']:.0%}"),
            ("dedup by origin",
             f"{info['dedup_hits']['local']} local / "
             f"{info['dedup_hits']['remote']} remote"),
            ("objects", info["objects"]),
            ("store size", f"{info['store_bytes'] / 1024:.1f} KiB"),
            ("flight dumps", info["flights"]),
        ]
        print(render_table(
            ["registry", "value"], rows, title="Run registry status"
        ))
        return 0

    from repro.kernel import render_system_status

    machine, _ = _protected_machine(args, "status")
    machine.advance(5e-3)
    print(render_system_status(machine))
    print("\ntelemetry counters\n------------------")
    print(machine.telemetry.render_metrics())
    return 0


def _cmd_profile(args) -> int:
    from repro.analysis.export import write_text
    from repro.analysis.report import render_table
    from repro.attacks import ImulCampaign
    from repro.observe import SimProfiler

    machine, _ = _protected_machine(args, "profile")
    model = machine.model
    profiler = SimProfiler().install(machine)
    campaign = ImulCampaign(
        machine,
        frequency_ghz=model.frequency_table.base_ghz,
        offsets_mv=tuple(range(-60, -301, -10)),
        iterations_per_point=args.iterations,
    )
    outcome = campaign.mount()
    profiler.uninstall()
    rows = [
        (
            bucket.component,
            bucket.site,
            bucket.events,
            f"{bucket.sim_time_s * 1e3:.3f}",
        )
        for bucket in profiler.buckets()
    ]
    print(render_table(
        ["component", "site", "events", "sim ms"],
        rows,
        title=f"Dispatch-loop profile — {model.codename}, protected imul "
        f"campaign ({profiler.total_events} events, "
        f"attack {'succeeded' if outcome.succeeded else 'defeated'})",
    ))
    path = profiler.write_speedscope(args.out)
    print(f"\nspeedscope profile written to {path} "
          "(open in https://www.speedscope.app)")
    if args.collapsed:
        path = profiler.write_collapsed(args.collapsed)
        print(f"collapsed stacks written to {path}")
    if args.wall:
        path = write_text(
            args.wall, _json.dumps(profiler.wall_snapshot(), indent=2, sort_keys=True)
        )
        print(f"wall-clock sidecar (non-deterministic) written to {path}")
    return 0


def _cmd_serve(args) -> int:
    import tempfile
    import time

    from repro.errors import ObserveError, ServeError
    from repro.serve import Coordinator
    from repro.serve.coordinator import DEFAULT_LEASE_TIMEOUT_S

    store = args.store or tempfile.mkdtemp(prefix="repro-serve-")
    coordinator = Coordinator(
        store,
        host=args.host,
        port=args.port,
        lease_timeout_s=(
            args.lease_timeout
            if args.lease_timeout is not None
            else DEFAULT_LEASE_TIMEOUT_S
        ),
    )
    try:
        coordinator.start()
    except (ObserveError, ServeError) as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 2
    # coordinator.port, not args.port: --port 0 binds an ephemeral port
    # and this line is how workers and clients learn the address.
    print(f"coordinator serving at {coordinator.url} "
          f"(store: {store}; status at {coordinator.url}/v1/status)",
          flush=True)
    print(f"attach workers with: repro work --coordinator {coordinator.url}",
          flush=True)
    deadline = (
        time.monotonic() + args.duration if args.duration is not None else None
    )
    try:
        while deadline is None or time.monotonic() < deadline:
            time.sleep(0.2)
    except KeyboardInterrupt:
        pass
    finally:
        coordinator.stop()
    print("coordinator stopped")
    return 0


def _cmd_work(args) -> int:
    from repro.errors import CoordinatorUnreachableError, ServeError
    from repro.serve import WorkerAgent
    from repro.serve.worker import DEFAULT_CAPACITY

    agent = WorkerAgent(
        args.coordinator,
        worker_id=args.worker_id,
        capacity=args.capacity if args.capacity is not None else DEFAULT_CAPACITY,
        max_idle_s=args.max_idle,
    )
    print(f"worker {agent.worker_id} polling {args.coordinator}", flush=True)
    try:
        executed = agent.run()
    except KeyboardInterrupt:
        executed = agent.executed
    except (CoordinatorUnreachableError, ServeError) as exc:
        print(f"work: {exc}", file=sys.stderr)
        return 2
    print(f"worker {agent.worker_id} done ({executed} job(s) executed)")
    return 0


def _fuzz_replay(source: str, registry_dir: Optional[str]) -> int:
    """``repro fuzz --replay``: re-run a recorded schedule under the checker.

    ``source`` is a flight dump (a ``repro fuzz --out`` artifact or a
    job's dump), or a registry run id whose first recorded dump on disk
    that carries a schedule is replayed.  Exit 1 when the violation
    reproduces, 0 when the replay runs clean, 2 when there is nothing to
    replay or the dump is malformed.
    """
    from repro.errors import ObserveError
    from repro.observe import load_flight_dump
    from repro.verify import FuzzSchedule, run_schedule

    if Path(source).exists():
        try:
            dump = load_flight_dump(source)
        except ObserveError as error:
            print(f"{source}: {error}", file=sys.stderr)
            return 2
    else:
        # Not a file — maybe a registry run id whose dumps were recorded.
        registry = _open_registry(registry_dir, required=False)
        flights = []
        if registry is not None:
            from repro.errors import RegistryError

            try:
                run_id = registry.resolve(source)
                flights = registry.flights_for(run_id)
            except RegistryError:
                flights = []
        if not flights:
            print(f"{source}: neither a flight dump nor a recorded run "
                  "with flight dumps", file=sys.stderr)
            return 2
        print(f"run {run_id[:12]}: {len(flights)} recorded flight dump(s)")
        for flight in flights:
            print(f"  {flight['path']}  sha256={flight['sha256'][:12]} "
                  f"({flight['reason']})")
        dump = None
        for flight in flights:
            try:
                candidate = load_flight_dump(flight["path"])
            except ObserveError:
                continue
            if candidate.schedule is not None:
                dump = candidate
                print(f"replaying {flight['path']}\n")
                break
        if dump is None:
            print("no recorded dump on disk carries a schedule; nothing to "
                  "replay", file=sys.stderr)
            return 2

    header = dump.header
    print(f"flight dump: reason={dump.reason} "
          f"sim_time={header.get('sim_time_s', 0.0):g}s "
          f"events={len(dump.events)}")
    machine = header.get("machine")
    if machine:
        print(f"machine: {machine.get('codename')} seed={machine.get('seed')} "
              f"spec={str(machine.get('sha256', ''))[:12]}")
    if header.get("violation"):
        violation = header["violation"]
        print(f"recorded violation: [{violation['invariant']}] "
              f"{violation['message']}")
    if dump.schedule is None:
        print("dump carries no schedule; nothing to replay "
              "(inspect the trace tail with repro.observe.load_flight_dump)")
        return 2
    summary = run_schedule(FuzzSchedule.from_dict(dump.schedule))
    print(_json.dumps(summary, indent=2, sort_keys=True))
    if summary["violation"] is not None:
        print(f"\nreplay reproduced: [{summary['violation']['invariant']}] "
              f"{summary['violation']['message']}")
        return 1
    print("\nreplay ran clean (violation not reproduced)")
    return 0


def _configure_logging(level_name: Optional[str]) -> None:
    """Apply the ``--log-level`` flag to the ``repro`` logger tree."""
    if level_name is None:
        return
    level = getattr(logging, level_name.upper())
    logging.basicConfig(level=level)
    logging.getLogger("repro").setLevel(level)


#: Subcommand -> handler; every handler takes the parsed args and
#: returns the exit code.
_COMMANDS = {
    "list-cpus": _cmd_list_cpus,
    "characterize": _cmd_characterize,
    "attack": _cmd_attack,
    "campaign": _cmd_campaign,
    "explore": _cmd_explore,
    "fuzz": _cmd_fuzz,
    "chaos": _cmd_chaos,
    "spec": _cmd_spec,
    "maximal": _cmd_maximal,
    "trace": _cmd_trace,
    "energy": _cmd_energy,
    "verify": _cmd_verify,
    "reproduce": _cmd_reproduce,
    "runs": _cmd_runs,
    "diff": _cmd_diff,
    "trajectory": _cmd_trajectory,
    "spans": _cmd_spans,
    "status": _cmd_status,
    "serve": _cmd_serve,
    "work": _cmd_work,
    "profile": _cmd_profile,
}

#: Registry verbs fail with a one-line message, not a traceback: a
#: missing run id or empty baseline is a usage error, not a bug.
_REGISTRY_COMMANDS = frozenset({"reproduce", "runs", "diff", "trajectory", "spans"})


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    if args.seed is None and args.command not in _LIBRARY_SEEDED:
        args.seed = _DEFAULT_SEED
    _configure_logging(args.log_level)
    handler = _COMMANDS.get(args.command)
    if handler is None:
        raise AssertionError(f"unhandled command {args.command}")
    if args.command not in _REGISTRY_COMMANDS:
        return handler(args)
    from repro.errors import RegistryError

    try:
        return handler(args)
    except RegistryError as exc:
        print(f"repro {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
