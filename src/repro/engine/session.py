"""The engine session: one executor + one cache + one telemetry registry.

:class:`EngineSession` is the front door every experiment path goes
through: ``repro.experiments``, the CLI (including ``repro campaign``),
the test and benchmark conftests.  It

* turns characterization requests into per-frequency row jobs, runs them
  through the configured executor, folds the rows back together and
  caches the folded result under the sweep's content hash;
* submits attack-campaign and overhead jobs, consulting the same cache;
* merges the telemetry counter increments every worker reports back into
  its own registry, so ``session.telemetry`` reflects the whole campaign
  regardless of which process did the work.

A process-global default session (shared by the experiment API, both
conftests and the CLI) is reachable via :func:`get_session`; tests that
need isolation construct their own.
"""

from __future__ import annotations

import atexit
import functools
import json
import logging
import os
import threading
from pathlib import Path
from time import perf_counter
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Sequence, Union

from repro.core.characterization import (
    CharacterizationConfig,
    CharacterizationResult,
)
from repro.cpu.models import CPUModel, EXTENDED_MODELS, model_by_codename
from repro.engine.cache import ResultCache
from repro.engine.executors import Executor, executor_from_env
from repro.engine.jobs import (
    CharacterizationJob,
    JobResult,
    JobSpec,
    environment_fingerprint,
    execute_job,
)
from repro.engine.resilience import (
    ChaosPolicy, Quarantined, SupervisionStats, refuse_partial,
)
from repro.engine.seeds import SeedStream, seed_stream
from repro.observe.spans import FleetTimeline
from repro.telemetry import Telemetry
from repro.telemetry.registry import Registry

if TYPE_CHECKING:
    from repro.registry.registry import RunRegistry

#: Root seed of the canonical paper reproduction (matches the benchmarks
#: and the historical ``experiments.CANONICAL_SEED``).
DEFAULT_SEED = 5

logger = logging.getLogger(__name__)


def _normalize_config(
    config: Optional[CharacterizationConfig],
) -> CharacterizationConfig:
    """Default + freeze the sweep config so job specs stay hashable."""
    config = config or CharacterizationConfig()
    if config.frequencies_ghz is not None and not isinstance(
        config.frequencies_ghz, tuple
    ):
        import dataclasses

        config = dataclasses.replace(
            config, frequencies_ghz=tuple(config.frequencies_ghz)
        )
    return config


class EngineSession:
    """One campaign-engine context: executor, cache, telemetry."""

    def __init__(
        self,
        *,
        executor: Optional[Executor] = None,
        cache: Optional[ResultCache] = None,
        telemetry: Optional[Telemetry] = None,
        verifier: Optional[Any] = None,
        chaos: Optional[ChaosPolicy] = None,
        registry: Union[None, str, "RunRegistry"] = "auto",
    ) -> None:
        self.executor = executor or executor_from_env()
        # `cache if ... is not None`, not `cache or ...`: ResultCache has
        # __len__, so a freshly built (empty) cache is falsy and a bare
        # `or` would silently swap in the environment default.
        self.cache = cache if cache is not None else ResultCache.from_env()
        self.telemetry = telemetry or Telemetry()
        #: Optional session-side chaos (torn cache writes).  Worker-side
        #: chaos (kills/errors/stalls) travels on the executor instead.
        self.chaos = chaos
        #: Quarantine records for poison jobs this session gave up on
        #: (the campaign continued without them; see the run report).
        self.quarantined: List[Dict[str, Any]] = []
        #: Optional invariant checker; when set, every executed batch is
        #: audited for counter conservation (worker-reported increments
        #: must merge into the session registry without loss, whichever
        #: executor ran them).  ``None`` costs nothing.
        self.verifier = verifier
        self._jobs_counter = self.telemetry.registry.counter("engine.jobs_executed")
        self._cache_hit_counter = self.telemetry.registry.counter("engine.cache_hits")
        self._cache_miss_counter = self.telemetry.registry.counter("engine.cache_misses")
        # Supervision counters, fed from the executor's cumulative
        # SupervisionStats deltas after every batch.
        self._retries_counter = self.telemetry.registry.counter("engine.retries")
        self._requeues_counter = self.telemetry.registry.counter("engine.requeues")
        self._quarantined_counter = self.telemetry.registry.counter(
            "engine.quarantined"
        )
        self._timeouts_counter = self.telemetry.registry.counter("engine.timeouts")
        self._respawns_counter = self.telemetry.registry.counter(
            "engine.pool_respawns"
        )
        #: The fleet-wide span timeline: every executed batch opens a
        #: batch span whose context is propagated to workers, and their
        #: buffers merge back here.
        self.timeline = FleetTimeline()
        #: Wall-clock latency instruments (queue wait / execute time per
        #: job kind).  Deliberately a *separate* registry:
        #: ``self.telemetry`` stays fully deterministic.
        self.wall_registry = Registry()
        #: Per-batch provenance records feeding :meth:`run_manifest` —
        #: which jobs ran, which came from cache, and each batch's wall
        #: time (the manifest's only non-deterministic field).
        self.history: List[Dict[str, Any]] = []
        #: Optional run registry (:mod:`repro.registry`): every batch's
        #: job specs and payloads are staged into its content-addressed
        #: blob store as they land, and :meth:`record_run` commits the
        #: run to the sqlite index.  ``"auto"`` follows the environment
        #: (``REPRO_REGISTRY=0`` opts out, ``REPRO_REGISTRY_DIR`` points
        #: elsewhere); pass ``None`` to disable outright.  The opt-out is
        #: read before :mod:`repro.registry` is imported, so a session
        #: that records nothing never loads it.
        if registry == "auto":
            registry = None
            if os.environ.get("REPRO_REGISTRY", "").strip() != "0":
                try:
                    from repro.registry.registry import RunRegistry

                    registry = RunRegistry.from_env()
                except Exception:
                    # A broken registry directory must never take the
                    # campaign down; run unrecorded instead.
                    registry = None
        self.registry: Optional["RunRegistry"] = registry
        #: Pending result rows for :meth:`record_run`, keyed by job
        #: fingerprint (first occurrence wins; identical fingerprints
        #: carry identical payloads by construction).
        self._registry_rows: Dict[str, Dict[str, Any]] = {}
        #: (batch count, run id) of the last :meth:`record_run` commit,
        #: so closing an already-recorded session does not re-commit.
        self._recorded: Optional[tuple] = None

    # -- seed streams ------------------------------------------------------------

    def seed_stream(self, root: int, *names: str) -> SeedStream:
        """A named stream under ``root`` (convenience re-export)."""
        return seed_stream(root, *names)

    # -- generic submission ------------------------------------------------------

    def _merge_telemetry(self, results: Iterable[JobResult]) -> None:
        """Fold worker-marshalled telemetry into the session registry.

        Counters add and histogram snapshots merge exactly (aggregates
        are commutative, the raw-sample window extends in input order),
        so the merged state is byte-identical whichever executor ran the
        batch.
        """
        registry = self.telemetry.registry
        for result in results:
            for name, value in result.counters.items():
                registry.counter(name).inc(value)
            for name, snapshot in getattr(result, "histograms", {}).items():
                registry.histogram(name).merge(snapshot)

    def _note_progress(self, _done: int, result: JobResult, *, cache: bool) -> None:
        """Executor per-job callback: one more job finished.

        A cache-aware batch writes each result to the cache *here*, as it
        lands, not at batch end — so a SIGKILLed campaign rerun over the
        same disk cache serves every job that had finished.
        """
        if not cache or isinstance(result.payload, Quarantined):
            return
        self.cache.put(result.fingerprint, result.payload)
        if self.chaos is not None and self.chaos.should_tear_cache(
            result.fingerprint
        ):
            self.chaos.tear(self.cache, result.fingerprint)

    def _sync_supervision(self, before: SupervisionStats) -> None:
        """Fold the executor's supervision deltas into session counters."""
        delta = self.executor.stats.delta(before)
        self._retries_counter.inc(delta.retries)
        self._requeues_counter.inc(delta.requeues)
        self._quarantined_counter.inc(delta.quarantined)
        self._timeouts_counter.inc(delta.timeouts)
        self._respawns_counter.inc(delta.respawns)

    def _execute_batch(
        self, jobs: Sequence[JobSpec], *, cache: bool
    ) -> List[JobResult]:
        """Run one batch through the executor with full bookkeeping."""
        before = self.counters() if self.verifier is not None else None
        supervision_before = self.executor.stats.copy()
        context = self.timeline.begin_batch([job.fingerprint() for job in jobs])
        started = perf_counter()
        try:
            results = self.executor.run_jobs(
                jobs,
                progress=functools.partial(self._note_progress, cache=cache),
                span_context=context,
            )
        finally:
            self._sync_supervision(supervision_before)
        self._merge_telemetry(results)
        # An attempt span per failure on each result; a remote batch hands
        # one result back for every copy of a fingerprint, spanned once.
        failures = {
            (id(result), index): dict(
                failure, fingerprint=job.fingerprint(), kind=job.kind
            )
            for job, result in zip(jobs, results)
            for index, failure in enumerate(result.failures)
        }
        self.timeline.end_batch(
            context,
            results,
            failures=failures.values(),
            wall_s=perf_counter() - started,
        )
        self._observe_wall_latency(results)
        if self.verifier is not None:
            self.verifier.check_counter_conservation(
                before, self.counters(), results
            )
        self._jobs_counter.inc(len(results))
        return results

    def _observe_wall_latency(self, results: Iterable[JobResult]) -> None:
        """Feed per-kind queue-wait/exec histograms from landed spans.

        Wall-clock only, into :attr:`wall_registry` — never the
        deterministic session telemetry.
        """
        for result in results:
            for record in getattr(result, "spans", ()):
                if record.get("kind") != "job":
                    continue
                entry = result.span_wall.get(record["span_id"])
                if entry:
                    kind = record["name"]
                    if "duration_s" in entry:
                        self.wall_registry.histogram(
                            f"engine.wall.exec.{kind}"
                        ).observe(entry["duration_s"])
                    if "queue_wait_s" in entry:
                        self.wall_registry.histogram(
                            f"engine.wall.queue_wait.{kind}"
                        ).observe(entry["queue_wait_s"])
                break

    def _record_batch(
        self, jobs: Sequence[JobSpec], sources: Sequence[str], wall_s: float
    ) -> None:
        """Append one provenance record to :attr:`history`.

        ``sources`` names where each payload came from: ``cache``,
        ``executed``, ``quarantined``, or on a remote executor ``remote``
        and ``remote-cache``.
        """
        self.history.append(
            {
                "wall_s": wall_s,
                "jobs": [
                    {
                        "kind": job.kind,
                        "fingerprint": job.fingerprint(),
                        "seed_path": list(job.seed_path()),
                        "cached": source == "cache",
                        "source": source,
                    }
                    for job, source in zip(jobs, sources)
                ],
            }
        )

    def _stage_registry(self, job: JobSpec, payload: Any, source: str) -> None:
        """Stage one job's spec + payload blobs for :meth:`record_run`.

        Blob publishes are atomic and content-deduplicated, so staging
        as results land (rather than at record time) costs one pickle
        per new payload and makes a SIGKILL mid-campaign lose nothing
        already staged.  Registry trouble never fails the campaign: the
        session drops to unrecorded operation instead.
        """
        if self.registry is None:
            return
        fingerprint = job.fingerprint()
        if fingerprint in self._registry_rows:
            return
        from repro.registry.store import encode_object

        quarantined = isinstance(payload, Quarantined)
        try:
            row = self.registry.stage_result(
                kind=job.kind,
                fingerprint=fingerprint,
                seed_path=job.seed_path(),
                source=source,
                identity=job.identity(),
                spec_bytes=encode_object(job),
                payload_bytes=None if quarantined else encode_object(payload),
            )
        except Exception:
            logger.warning(
                "run registry at %s failed while staging %s; disabling "
                "recording for this session",
                getattr(self.registry, "directory", "?"),
                fingerprint[:12],
                exc_info=True,
            )
            self.registry = None
            return
        self._registry_rows[fingerprint] = row

    def run_jobs(
        self, jobs: Sequence[JobSpec], *, cache: bool = True
    ) -> List[Any]:
        """Execute jobs (cache-aware) and return payloads in input order.

        Cached jobs are served without touching the executor — with a
        disk cache that includes results a previous (possibly killed)
        run of the same campaign completed; the remaining misses are
        sharded through the executor in one batch, each result cached as
        it lands, and their worker counters merged into the session
        registry.  A poison job the supervised executor
        quarantined yields its :class:`Quarantined` marker as the
        payload — the rest of the batch is unaffected.
        """
        jobs = list(jobs)
        payloads: List[Any] = [None] * len(jobs)
        sources: List[str] = ["executed"] * len(jobs)
        pending: List[int] = []
        started = perf_counter()
        for index, job in enumerate(jobs):
            fingerprint = job.fingerprint()
            if cache:
                hit = self.cache.get(fingerprint, default=_MISS)
                if hit is not _MISS:
                    self._cache_hit_counter.inc()
                    payloads[index] = hit
                    sources[index] = "cache"
                    continue
                self._cache_miss_counter.inc()
            pending.append(index)
        if pending:
            results = self._execute_batch([jobs[i] for i in pending], cache=cache)
            for index, result in zip(pending, results):
                payloads[index] = result.payload
                if isinstance(result.payload, Quarantined):
                    sources[index] = "quarantined"
                    self.quarantined.append(result.payload.as_dict())
                    continue
                # A remote executor tags where each payload actually
                # came from ("remote" = executed by the fleet,
                # "remote-cache" = served from the coordinator's dedup
                # store).  Origins never enter run ids — compute_run_id
                # folds only job identities — so provenance cannot
                # perturb byte-identity.
                origin = getattr(result, "origin", None)
                if origin is not None:
                    sources[index] = origin
        if self.registry is not None:
            for job, payload, source in zip(jobs, payloads, sources):
                self._stage_registry(job, payload, source)
        self._record_batch(jobs, sources, perf_counter() - started)
        return payloads

    def run_job(self, job: JobSpec, *, cache: bool = True) -> Any:
        """Single-job convenience wrapper around :meth:`run_jobs`."""
        return self.run_jobs([job], cache=cache)[0]

    # -- characterization --------------------------------------------------------

    def characterize(
        self,
        model: Union[CPUModel, str],
        *,
        seed: int = DEFAULT_SEED,
        config: Optional[CharacterizationConfig] = None,
    ) -> CharacterizationResult:
        """The full Algo 2 sweep for a model, sharded into vectorized
        :class:`BatchCharacterizationJob` shards of ``ROWS_PER_BATCH`` rows.

        The folded :class:`CharacterizationResult` is cached under the
        sweep's content hash; repeated in-process calls return the same
        object (the identity the experiment API has always promised).
        """
        if isinstance(model, str):
            model = model_by_codename(model)
        config = _normalize_config(config)
        job = CharacterizationJob(
            codename=model.codename, config=config, seed=int(seed)
        )
        fingerprint = job.fingerprint()
        cached = self.cache.get(fingerprint, default=_MISS)
        if cached is not _MISS:
            self._cache_hit_counter.inc()
            return cached
        self._cache_miss_counter.inc()
        if model.codename in EXTENDED_MODELS:
            # Batch jobs go through run_jobs (cache=False: only the
            # folded sweep is cached) so they are supervised, traced and
            # recorded like any other job.
            payloads = self.run_jobs(job.batch_jobs(), cache=False)
            refuse_partial(
                payloads, f"characterization sweep for {model.codename}", "batch job"
            )
            # Each batch payload is a chunk of rows, in frequency order.
            result = job.fold([row for payload in payloads for row in payload])
        else:
            # Models outside the catalog cannot be rebuilt by codename in
            # a worker process; run their sweep inline instead.
            from repro.core.characterization import CharacterizationFramework

            result = CharacterizationFramework(
                model, config=config, seed=int(seed)
            ).run()
        self.cache.put(fingerprint, result)
        return result

    # -- fault-space exploration -------------------------------------------------

    def explore(self, plan, *, rows_per_job: int = 8) -> dict:
        """Run an :class:`repro.explore.ExplorePlan` through this session.

        Thin delegate to :func:`repro.explore.runner.run_explore`: the
        plan is pruned, the surviving fault-space shards run as
        cache-aware, resumable, registry-recorded jobs like any
        other campaign, and the canonical exploitability map comes back.
        ``rows_per_job`` is pure scheduling — the map is byte-identical
        whatever the chunking or executor.
        """
        from repro.explore.runner import run_explore

        return run_explore(plan, session=self, rows_per_job=rows_per_job)

    # -- lifecycle ---------------------------------------------------------------

    def clear_cache(self) -> None:
        """Drop every cached result (memory and disk)."""
        self.cache.clear()

    def counters(self) -> dict:
        """Name → value snapshot of the merged session counters."""
        return {c.name: c.value for c in self.telemetry.registry.counters()}

    def export_spans(self, path, *, fmt: str = "chrome", wall_path=None) -> Path:
        """Write the merged span timeline as a trace file; returns it.

        The main export contains only sim-time/identity fields, so it is
        byte-identical across executors for the same campaign.
        ``wall_path`` (optional) additionally writes the labelled
        non-deterministic wall-clock lane layout.
        """
        from repro.telemetry.export import write_trace

        target = write_trace(path, self.timeline.to_events(), fmt=fmt)
        if wall_path is not None:
            write_trace(wall_path, self.timeline.wall_events(), fmt=fmt)
        return target

    def describe(self) -> dict:
        """JSON-safe session summary for CLI output and bench artifacts."""
        workers = getattr(self.executor, "workers", 1)
        description = {
            "executor": self.executor.name,
            "workers": workers,
            "cache": self.cache.stats.as_dict(),
            "cached_entries": len(self.cache),
            "supervision": self.executor.stats.as_dict(),
        }
        if self.registry is not None:
            description["registry"] = {
                "directory": str(self.registry.directory),
                "staged": len(self._registry_rows),
            }
        return description

    # -- run reports -------------------------------------------------------------

    def run_manifest(self) -> dict:
        """The provenance manifest for this session so far.

        Records what actually happened — per-batch job fingerprints and
        seed-stream paths, cache versus execution, the ``REPRO_*``
        environment in force, and a registry snapshot.  Everything is
        deterministic for a given seed except the clearly labelled
        ``wall_s`` batch durations.  Renderable with
        :func:`repro.observe.render_markdown` / ``repro runs show``.
        """
        all_jobs = [job for batch in self.history for job in batch["jobs"]]
        by_source = {
            source: sum(
                1 for job in all_jobs if job.get("source", "executed") == source
            )
            for source in (
                "cache",
                "executed",
                "quarantined",
                "remote",
                "remote-cache",
            )
        }
        env = {
            name: value
            for name, value in sorted(os.environ.items())
            if name.startswith("REPRO_")
        }
        from repro.registry.registry import code_fingerprint, compute_run_id

        # Schema 3 (the registry schema) additionally pins the resolved
        # result-affecting environment — including *unset* variables,
        # which the REPRO_* scan above cannot see — so reproduction can
        # re-establish it and the run id can fold it in.
        env["result_affecting"] = environment_fingerprint()
        manifest = {
            "kind": "run-report",
            "schema": 3,
            "code": code_fingerprint(),
            "engine": self.describe(),
            "env": env,
            "jobs": {
                "total": len(all_jobs),
                "cached": by_source["cache"],
                "executed": by_source["executed"],
                "quarantined": by_source["quarantined"],
                "remote": by_source["remote"],
                "remote_cached": by_source["remote-cache"],
            },
            "quarantined": list(self.quarantined),
            "batches": self.history,
            "metrics": self.telemetry.registry.snapshot(),
        }
        if len(self.timeline):
            # Everything in the summary except its "wall" key is
            # deterministic; compute_run_id folds neither in.
            manifest["spans"] = self.timeline.summary()
        manifest["run_id"] = compute_run_id(manifest)
        return manifest

    def _collect_flights(self) -> List[Dict[str, Any]]:
        """Flight dumps belonging to this session's jobs, with hashes.

        Dump filenames embed ``fingerprint[:12]`` (see
        :func:`repro.observe.flight.job_dump_name`), so the session's own
        dumps can be picked out of a shared ``REPRO_FLIGHT_DIR`` by
        matching staged fingerprints, quarantine dumps included.  Each
        row's reason is the one in its dump's header.
        """
        from repro.observe.flight import flight_dir_from_env
        from repro.registry.store import sha256_hex

        directory = flight_dir_from_env()
        if directory is None or not directory.exists():
            return []
        prefixes = {fp[:12] for fp in self._registry_rows}
        records = []
        for path in sorted(directory.glob("*.flight.jsonl")):
            if not any(prefix in path.name for prefix in prefixes):
                continue
            try:
                blob = path.read_bytes()
            except OSError:
                continue
            try:
                reason = json.loads(blob.partition(b"\n")[0])["reason"]
            except (ValueError, TypeError, KeyError):
                reason = "unknown"
            records.append(
                {"path": str(path), "sha256": sha256_hex(blob), "reason": reason}
            )
        return records

    def record_run(self) -> Optional[str]:
        """Commit this session's run to the registry; returns the run id.

        Idempotent per batch count: recording again without new batches
        returns the already-committed id without touching the index.
        Called automatically from :meth:`close`; safe to call earlier
        (e.g. right after a campaign) to learn the run id.  Returns
        ``None`` when recording is disabled or nothing ran.
        """
        if self.registry is None or not self.history:
            return None
        progress = len(self.history)
        if self._recorded is not None and self._recorded[0] == progress:
            return self._recorded[1]
        manifest = self.run_manifest()
        try:
            run_id = self.registry.record_run(
                manifest,
                list(self._registry_rows.values()),
                flights=self._collect_flights(),
            )
        except Exception:
            logger.warning(
                "run registry at %s failed to commit; run not recorded",
                getattr(self.registry, "directory", "?"),
                exc_info=True,
            )
            return None
        if len(self.timeline):
            try:
                self.registry.record_spans(run_id, self.timeline.to_dict())
            except Exception:
                logger.warning(
                    "failed to record span timeline for run %s",
                    run_id,
                    exc_info=True,
                )
        self._recorded = (progress, run_id)
        return run_id

    def close(self) -> None:
        """Record the run, then shut down the executor's workers.

        Cache contents survive; registry commit failures are logged and
        swallowed (closing a session must never raise over bookkeeping).
        """
        try:
            self.record_run()
        except Exception:
            logger.warning("run registry commit failed on close", exc_info=True)
        self.executor.close()

    def __enter__(self) -> "EngineSession":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


_MISS = object()

_session_lock = threading.Lock()
_session: Optional[EngineSession] = None


def get_session() -> EngineSession:
    """The process-global default session (created on first use)."""
    global _session
    with _session_lock:
        if _session is None:
            _session = EngineSession()
        return _session


def set_session(session: EngineSession) -> EngineSession:
    """Install ``session`` as the process-global default."""
    global _session
    with _session_lock:
        previous, _session = _session, session
    if previous is not None and previous is not session:
        previous.close()
    return session


def reset_session() -> None:
    """Drop the default session (next :func:`get_session` builds anew)."""
    global _session
    with _session_lock:
        previous, _session = _session, None
    if previous is not None:
        previous.close()


def clear_session_cache() -> None:
    """Clear the default session's result cache (if one exists)."""
    with _session_lock:
        session = _session
    if session is not None:
        session.cache.clear()


def _close_default_session() -> None:
    """Shut the default session's worker pool down before interpreter exit.

    Without this a process-pool session that is still alive at shutdown
    gets torn down by garbage collection mid-finalization, which spews a
    spurious traceback from concurrent.futures.
    """
    with _session_lock:
        session = _session
    if session is not None:
        session.close()


atexit.register(_close_default_session)
