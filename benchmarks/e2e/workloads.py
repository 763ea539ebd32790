"""The six end-to-end workloads: set-up, one measured unit, correctness.

Each workload is a class with ``setup()`` (everything before the clock
starts), ``prepare()`` (untimed, before each unit), ``unit()`` (one
closed-loop unit of work, timed by the caller) and ``close()``.
``unit()`` returns a :class:`Unit`: how much work it
did (the numerator of ``work_per_s``), its raw outputs (digested once
the clock has stopped), and the engine sessions it used (the traced run
reads their counters).  A unit that breaks one of the paper's claims
raises :class:`CheckFailed`.

``repro`` is imported inside ``setup()``, never at module import, so the
``cli-cold`` child process does not pay for it and every other child
pays for it inside its measured set-up.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List

#: Campaign seed of every attack campaign (the ``prevention_matrix``
#: default).  The open cells of the Sec. 4.3 matrix stop at the first
#: exploitable fault, so their work is geometric in the campaign seed
#: (0.24-0.63 s across seeds 0-29), and some seeds (2, for one) drive the
#: AES-DFA campaign to its two-million-encryption budget.  ``--seed``
#: therefore varies every other experiment, never the attack randomness,
#: and attack-matrix (whose jobs carry the seed-5 characterizations of
#: ``prevention_jobs``) runs the same jobs at every ``--seed``.
CAMPAIGN_SEED = 11

#: The operating-point grid of ``benchmarks/test_bench_explore.py``.
EXPLORE_FREQUENCIES = (0.8, 2.0, 3.2)
EXPLORE_OFFSETS = tuple(range(-40, -281, -40))

#: The three CPUs the paper characterizes.
PAPER_CPUS = ("Sky Lake", "Kaby Lake R", "Comet Lake")

#: Table 2 claim: the polling module's mean base overhead stays below
#: 1% (the paper measures 0.28%).
TABLE2_BUDGET = 0.01
PAPER_TABLE2_OVERHEAD = 0.0028


class CheckFailed(Exception):
    """A unit's output broke a paper claim or a consistency check."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclasses.dataclass
class Unit:
    """What one unit did.

    ``outputs`` holds raw results; the caller digests them after the
    clock has stopped, so hashing is never counted as the program's time.
    """

    work: float
    outputs: Dict[str, Any]
    sessions: List[Any] = dataclasses.field(default_factory=list)
    #: Summed explore-map ``stats`` (explore workloads only).
    explore_stats: Dict[str, int] = dataclasses.field(default_factory=dict)
    #: Claim values printed next to the metrics.
    claims: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: Digests some outputs must have, known before the unit ran.
    expected: Dict[str, str] = dataclasses.field(default_factory=dict)
    #: Wall time of the reference launch made just before the unit
    #: (:class:`CLICold` only).
    reference_s: float = 0.0

    def digests(self) -> Dict[str, str]:
        found = {name: digest(value) for name, value in self.outputs.items()}
        for name, value in self.expected.items():
            check(found[name] == value, f"{name} differs from what was recorded")
        return found


def canonical(value: Any) -> Any:
    """Reduce a payload to JSON primitives with a stable order.

    Digests are taken over this form rather than over pickles: pickle
    bytes change with the numpy version and with set iteration order,
    neither of which is an output of the simulation.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return [type(value).__name__, canonical(vars(value))]
    if isinstance(value, dict):
        return {str(key): canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted((canonical(item) for item in value), key=repr)
    if isinstance(value, enum.Enum):
        return canonical(value.value)
    if isinstance(value, bytes):
        return value.hex()
    if hasattr(value, "tolist"):  # numpy scalars and arrays
        return value.tolist()
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return [type(value).__name__, canonical(vars(value))]


def digest(value: Any) -> str:
    """sha256 of a text output as it is, or of any other value's canonical
    JSON (for an explore map that is exactly ``repro.explore.canonical_json``
    without its trailing newline)."""
    if not isinstance(value, str):
        value = json.dumps(canonical(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(value.encode("utf-8")).hexdigest()


def characterization_output(result) -> list:
    return [result.cells, result.unsafe_states.to_dict()]


def unsafe_json(result) -> str:
    """The characterized unsafe set as the canonical JSON jobs carry."""
    return json.dumps(result.unsafe_states.to_dict(), sort_keys=True)


def serial_session(**kwargs):
    """A serial engine session with a cold in-memory cache."""
    from repro.engine import EngineSession, ResultCache, SerialExecutor

    kwargs.setdefault("cache", ResultCache())
    return EngineSession(executor=SerialExecutor(), **kwargs)


def explore_pair(session, *, seed: int, key_bits: int, protected_unsafe: str):
    """The Sky Lake open + protected explore maps; checks coverage."""
    from repro.explore import ExplorePlan, coverage_holds, run_explore

    maps = []
    for protect in (False, True):
        plan = ExplorePlan(
            codename="Sky Lake",
            frequencies_ghz=EXPLORE_FREQUENCIES,
            offsets_mv=EXPLORE_OFFSETS,
            key_bits=key_bits,
            protect=protect,
            unsafe_json=protected_unsafe if protect else None,
            seed=seed,
        )
        maps.append(run_explore(plan, session=session))
    check(
        coverage_holds(*maps),
        "explore coverage broken: open map "
        f"{maps[0]['summary']['exploitable_points']} exploitable points, "
        f"protected map {maps[1]['summary']['exploitable_points']} (must be 0)",
    )
    return maps


def explore_stats(maps) -> Dict[str, int]:
    totals: Dict[str, int] = {}
    for document in maps:
        for key, value in document["stats"].items():
            totals[key] = totals.get(key, 0) + value
    return totals


def reproduce_paper(session, seed: int) -> Unit:
    """The whole paper reproduction through ``repro.experiments``.

    ``session`` becomes the process-default session for the duration
    (the experiment API resolves it through ``get_session``) and is
    recorded into its run registry at the end.
    """
    from repro import experiments
    from repro.cpu import PAPER_MODEL_TUPLE
    from repro.engine import reset_session, set_session

    set_session(session)
    try:
        characterizations = {
            model.codename: experiments.characterization(model, seed=seed)
            for model in PAPER_MODEL_TUPLE
        }
        matrix = experiments.prevention_matrix(seed=CAMPAIGN_SEED)
        table2 = experiments.table2_overhead(seed=seed)
        deployments = experiments.maximal_safe_deployments(seed=seed)
        comparison = experiments.defense_comparison(seed=seed)
        maps = explore_pair(
            session,
            seed=seed,
            key_bits=128,
            protected_unsafe=unsafe_json(characterizations["Sky Lake"]),
        )
        run_id = session.record_run()
    finally:
        reset_session()
    check(
        matrix.protected_faults == 0,
        f"{matrix.protected_faults} faults in protected prevention cells (must be 0)",
    )
    overhead = table2.mean_base_overhead
    check(
        overhead < TABLE2_BUDGET,
        f"Table 2 mean base overhead {overhead:.4%} is not below {TABLE2_BUDGET:.0%}",
    )
    check(run_id is not None, "the run was not recorded in the registry")
    outputs = {
        f"characterization.{codename}": characterization_output(result)
        for codename, result in characterizations.items()
    }
    outputs.update(
        {
            "prevention": [(c.codename, c.protected, c.outcome) for c in matrix.cells],
            "table2": table2,
            "maximal_safe": deployments,
            "defense_comparison": comparison,
            "explore.open": maps[0],
            "explore.protected": maps[1],
        }
    )
    return Unit(
        work=sum(len(batch["jobs"]) for batch in session.history),
        outputs=outputs,
        sessions=[session],
        explore_stats=explore_stats(maps),
        claims={"table2_mean_base_overhead": overhead},
    )


class Workload:
    """Base class: ``name``, the work item ``work_per_s`` counts, and
    the per-process lifecycle."""

    name = ""
    item = ""
    #: Whether units run in child processes, whose peak memory then
    #: counts toward ``peak_rss_mb`` and which the host-speed probe of
    #: ``child.py`` must not compete with.
    spawns_processes = False
    #: Whether host speed is measured by a reference launch rather than
    #: the host-speed probe, and the latest reference launch's wall time:
    #: set-up ends with one, and ``prepare()`` makes one before each unit.
    reference_launch = False
    reference_s = 0.0

    def __init__(self, seed: int, workdir: Path, root: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.root = root

    def setup(self) -> None:
        pass

    def prepare(self) -> None:
        pass

    def unit(self) -> Unit:
        raise NotImplementedError

    def close(self) -> None:
        pass


class PaperE2E(Workload):
    """The full reproduction in a fresh session: every layer does some
    work, and it holds the write side of the run registry."""

    name = "paper-e2e"
    item = "engine jobs"

    def setup(self) -> None:
        # Modules the experiments import lazily; loaded here so that the
        # first unit does not pay for them.
        import repro.defenses  # noqa: F401
        import repro.experiments  # noqa: F401
        import repro.explore  # noqa: F401
        import repro.sgx  # noqa: F401
        from repro.registry.registry import code_fingerprint

        code_fingerprint()
        self.registries = 0

    def prepare(self) -> None:
        from repro.registry.registry import RunRegistry

        # An empty registry per unit: the object store skips blobs it
        # already holds, so a shared one would leave every unit after the
        # first on the dedup path instead of the write path.
        self.registry = RunRegistry(self.workdir / f"registry-{self.registries}")
        self.registries += 1

    def unit(self) -> Unit:
        return reproduce_paper(serial_session(registry=self.registry), self.seed)


class AttackMatrix(Workload):
    """The Sec. 4.3 prevention matrix with the cache bypassed: attacks,
    faults, cpu and the kernel model do most of the work."""

    name = "attack-matrix"
    item = "fault windows"

    def setup(self) -> None:
        from repro import experiments
        from repro.engine import set_session

        # prevention_jobs characterizes the three CPUs through the
        # process-default session; registry=None keeps set-up off disk.
        set_session(serial_session(registry=None))
        self.jobs = experiments.prevention_jobs(seed=CAMPAIGN_SEED)

    def unit(self) -> Unit:
        from repro.engine import Quarantined

        session = serial_session(registry=None)
        outcomes = session.run_jobs(self.jobs, cache=False)
        check(
            not any(isinstance(outcome, Quarantined) for outcome in outcomes),
            "an attack campaign job was quarantined",
        )
        protected_faults = sum(
            outcome.faults_observed
            for job, outcome in zip(self.jobs, outcomes)
            if job.protected
        )
        check(
            protected_faults == 0,
            f"{protected_faults} faults in protected cells (must be 0)",
        )
        return Unit(
            work=session.counters().get("faults.windows", 0),
            outputs={"outcomes": outcomes},
            sessions=[session],
        )


class ExploreRSA256(Workload):
    """Exhaustive 256-bit RSA-CRT fault-space exploration: big-integer
    replay over ~200 shard jobs plus per-job key generation."""

    name = "explore-rsa256"
    item = "injections simulated"

    def setup(self) -> None:
        from repro import experiments
        from repro.cpu import SKY_LAKE
        from repro.engine import set_session

        set_session(serial_session(registry=None))
        self.protected_unsafe = unsafe_json(
            experiments.characterization(SKY_LAKE, seed=self.seed)
        )

    def unit(self) -> Unit:
        session = serial_session(registry=None)
        maps = explore_pair(
            session,
            seed=self.seed,
            key_bits=256,
            protected_unsafe=self.protected_unsafe,
        )
        stats = explore_stats(maps)
        return Unit(
            work=stats["injections_simulated"],
            outputs={"explore.open": maps[0], "explore.protected": maps[1]},
            sessions=[session],
            explore_stats=stats,
        )


class SweepPool(Workload):
    """The three-CPU characterization with three repetitions per cell,
    sharded over a two-worker process pool: vector kernels plus executor
    dispatch and pickling over many small shards."""

    name = "sweep-pool"
    item = "cells"
    spawns_processes = True
    workers = 2

    def setup(self) -> None:
        from repro.core.characterization import CharacterizationConfig
        from repro.engine import ParallelExecutor

        self.config = CharacterizationConfig(repetitions=3)
        self.executor = ParallelExecutor(self.workers)
        # One untimed unit forks both workers and fills every lazy cache.
        self.unit()

    def _sweep(self, session) -> Unit:
        from repro.cpu import PAPER_MODEL_TUPLE

        results = [
            session.characterize(model, seed=self.seed, config=self.config)
            for model in PAPER_MODEL_TUPLE
        ]
        for result in results:
            check(
                result.unsafe_cells() and result.safe_cells(),
                f"{result.model.codename}: characterization found no "
                "safe/unsafe boundary",
            )
        return Unit(
            work=sum(len(result.cells) for result in results),
            outputs={
                f"characterization.{result.model.codename}": characterization_output(result)
                for result in results
            },
            sessions=[session],
        )

    def unit(self) -> Unit:
        from repro.engine import EngineSession, ResultCache

        # A fresh session per unit: the result cache starts empty while
        # the warmed pool is kept.  The session is never closed, since
        # closing it would shut the shared pool down.
        return self._sweep(
            EngineSession(executor=self.executor, cache=ResultCache(), registry=None)
        )

    def serial_copy(self) -> Unit:
        """The same unit run in-process, so traced job bodies are visible."""
        return self._sweep(serial_session(registry=None))

    def close(self) -> None:
        self.executor.close()


class ReplayWarm(Workload):
    """A fresh session over the disk cache and registry that the
    paper-e2e job set left warm: the read side of the same stores."""

    name = "replay-warm"
    item = "engine jobs"

    def setup(self) -> None:
        from repro.engine import ResultCache
        from repro.registry.registry import RunRegistry

        self.cache_dir = self.workdir / "replay-cache"
        self.registry_dir = self.workdir / "replay-registry"
        warm = serial_session(
            cache=ResultCache(directory=self.cache_dir),
            registry=RunRegistry(self.registry_dir),
        )
        reproduce_paper(warm, self.seed)
        run_id = warm.record_run()
        registry = RunRegistry(self.registry_dir)
        on_disk = ResultCache(directory=self.cache_dir)
        # Characterization row shards run uncached (only the folded sweep
        # is cached), so only the jobs whose payloads the disk cache holds
        # are replayed.
        rows = [
            row for row in registry.results_for(run_id) if row["fingerprint"] in on_disk
        ]
        self.jobs = [registry.store.get(row["spec_sha"]) for row in rows]
        self.expected = digest([registry.store.get(row["payload_sha"]) for row in rows])

    def unit(self) -> Unit:
        from repro.engine import ResultCache
        from repro.registry.registry import RunRegistry

        session = serial_session(
            cache=ResultCache(directory=self.cache_dir),
            registry=RunRegistry(self.registry_dir),
        )
        payloads = session.run_jobs(self.jobs)
        run_id = session.record_run()
        counters = session.counters()
        check(
            counters.get("engine.cache_hits", 0) == len(self.jobs)
            and counters.get("engine.jobs_executed", 0) == 0,
            f"replay executed {counters.get('engine.jobs_executed', 0)} of "
            f"{len(self.jobs)} jobs instead of serving them from the cache",
        )
        check(run_id is not None, "the replay was not recorded in the registry")
        return Unit(
            work=len(self.jobs),
            outputs={"payloads": payloads},
            sessions=[session],
            expected={"payloads": self.expected},
        )


class CLICold(Workload):
    """``python -m repro list-cpus`` in a fresh interpreter: the start-up
    and import cost every CLI user pays.

    Set-up ends with, and each measured launch follows, an untimed
    reference launch of the same interpreter in the same environment
    that does nothing (``python -c pass``).  On a shared host fresh
    processes slow down together, by a quarter for tens of seconds at a
    time, in phases an in-process loop does not see; the launch's ratio
    to the reference launch next to it stays within a few percent.
    """

    name = "cli-cold"
    item = "launches"
    spawns_processes = True
    reference_launch = True
    command = ("-m", "repro", "list-cpus")
    reference = ("-c", "pass")

    def launch(self, *flags: str, command=None) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, *flags, *(command or self.command)],
            cwd=self.root,
            capture_output=True,
            text=True,
            timeout=120,
        )

    def setup(self) -> None:
        # Writes the bytecode cache, so every measured launch reads it.
        self.launch()
        self.prepare()

    def prepare(self) -> None:
        start = perf_counter()
        completed = self.launch(command=self.reference)
        self.reference_s = perf_counter() - start
        check(completed.returncode == 0, f"python -c pass exited {completed.returncode}")

    def checked(self, completed: subprocess.CompletedProcess) -> Unit:
        check(
            completed.returncode == 0,
            f"repro list-cpus exited {completed.returncode}: {completed.stderr[-500:]}",
        )
        missing = [cpu for cpu in PAPER_CPUS if cpu not in completed.stdout]
        check(not missing, f"repro list-cpus does not list {missing}")
        return Unit(
            work=1, outputs={"stdout": completed.stdout}, reference_s=self.reference_s
        )

    def unit(self) -> Unit:
        return self.checked(self.launch())


WORKLOADS = {
    cls.name: cls
    for cls in (PaperE2E, AttackMatrix, ExploreRSA256, SweepPool, ReplayWarm, CLICold)
}
