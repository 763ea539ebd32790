"""Campaign run reports: Markdown rendering of a run manifest.

The engine session records what actually happened during a run — which
jobs executed versus hit the cache, their fingerprints and seed-stream
paths, batch wall times, the environment knobs in force, and a final
metric snapshot — into a manifest
(:meth:`repro.engine.EngineSession.run_manifest`) that the run registry
stores (:meth:`repro.registry.RunRegistry.manifest`).  This module turns
that manifest into the human-facing Markdown ``repro runs show`` prints:
the provenance page of one recorded campaign.

Wall-clock durations appear here (a report is about one concrete run),
but they are clearly labelled and everything else in the manifest is
deterministic, so two same-seed runs differ only in the ``wall_s``
fields.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.errors import ObserveError

#: Manifest schema tag (see ``EngineSession.run_manifest``): the
#: registry schema, with per-job payload sources, the quarantine list,
#: the supervision stats, the content-addressed ``run_id``, the ``code``
#: fingerprint (version + git-describe) and the resolved
#: result-affecting environment.
REPORT_SCHEMA_VERSION = 3

#: Manifest discriminator.
REPORT_KIND = "run-report"


def load_manifest(manifest: Dict[str, Any]) -> Dict[str, Any]:
    """Validate a run manifest; returns it unchanged."""
    if not isinstance(manifest, dict) or manifest.get("kind") != REPORT_KIND:
        raise ObserveError("not a run-report manifest")
    if manifest.get("schema") != REPORT_SCHEMA_VERSION:
        raise ObserveError(
            f"run-report schema {manifest.get('schema')!r} != "
            f"{REPORT_SCHEMA_VERSION}"
        )
    return manifest


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def render_markdown(manifest: Dict[str, Any]) -> str:
    """The Markdown report for one run manifest."""
    manifest = load_manifest(manifest)
    lines: List[str] = ["# Campaign run report", ""]

    # Provenance header: the registry run id and the code that recorded it.
    run_id = manifest.get("run_id")
    code = manifest.get("code") or {}
    if run_id or code:
        lines += ["## Provenance", ""]
        if run_id:
            lines.append(f"- run id: `{run_id}`")
        if code:
            describe = code.get("describe") or "unknown checkout"
            lines.append(
                f"- code: repro {code.get('version', '?')} ({describe})"
            )
        lines.append("")

    engine = manifest.get("engine", {})
    cache = engine.get("cache", {})
    jobs = manifest.get("jobs", {})
    total = jobs.get("total", 0)
    # The registry's conservation law: a fleet-executed job is executed,
    # a fleet dedup hit is cached.
    executed = jobs.get("executed", 0) + jobs.get("remote", 0)
    cached = jobs.get("cached", 0) + jobs.get("remote_cached", 0)
    hit_rate = (cached / total) if total else 0.0
    lines += [
        "## Engine",
        "",
        f"- executor: `{engine.get('executor', '?')}` "
        f"({engine.get('workers', 1)} worker(s))",
        f"- jobs: {total} total, {executed} executed, {cached} served from "
        f"cache (hit rate {hit_rate:.0%})",
        f"- result cache: {cache.get('hits', 0)} hits / "
        f"{cache.get('misses', 0)} misses, "
        f"{engine.get('cached_entries', 0)} entries",
        "",
    ]

    supervision = engine.get("supervision") or {}
    quarantined = manifest.get("quarantined", [])
    if quarantined or any(supervision.values()):
        lines += [
            "## Resilience",
            "",
            f"- retries: {supervision.get('retries', 0)}, "
            f"timeouts: {supervision.get('timeouts', 0)}, "
            f"requeues after pool loss: {supervision.get('requeues', 0)}",
            f"- pool respawns: {supervision.get('respawns', 0)}, "
            f"jobs degraded to inline execution: "
            f"{supervision.get('degraded', 0)}",
            f"- quarantined jobs: {supervision.get('quarantined', 0)}",
            "",
        ]
        if quarantined:
            lines += [
                "| quarantined job | fingerprint | attempts | error |",
                "|-----------------|-------------|----------|-------|",
            ]
            for record in quarantined:
                lines.append(
                    f"| {record.get('kind', '?')} | "
                    f"`{str(record.get('fingerprint', ''))[:12]}` | "
                    f"{record.get('attempts', '?')} | "
                    f"{record.get('error_type', '?')}: "
                    f"{record.get('error_message', '')} |"
                )
            lines.append("")

    env = dict(manifest.get("env", {}))
    result_affecting = env.pop("result_affecting", None)
    if env:
        lines += ["## Environment", ""]
        lines += [f"- `{name}={value}`" for name, value in sorted(env.items())]
        lines.append("")
    if result_affecting:
        lines += [
            "## Result-affecting environment (resolved)",
            "",
        ]
        lines += [
            f"- `{name}`: `{value}`" if value else f"- `{name}`: unset"
            for name, value in sorted(result_affecting.items())
        ]
        lines.append("")

    batches = manifest.get("batches", [])
    if batches:
        lines += [
            "## Batches",
            "",
            "| # | jobs | executed | cached | wall s (non-deterministic) |",
            "|---|------|----------|--------|----------------------------|",
        ]
        for index, batch in enumerate(batches):
            sources = [job.get("source") for job in batch.get("jobs", [])]
            batch_executed = sum(s in ("executed", "remote") for s in sources)
            batch_cached = sum(s in ("cache", "remote-cache") for s in sources)
            lines.append(
                f"| {index} | {len(sources)} | {batch_executed} | "
                f"{batch_cached} | {_fmt(batch.get('wall_s', 0.0))} |"
            )
        lines.append("")

        lines += [
            "## Jobs",
            "",
            "| kind | seed path | fingerprint | source |",
            "|------|-----------|-------------|--------|",
        ]
        for batch in batches:
            for job in batch.get("jobs", []):
                path = "/".join(str(p) for p in job.get("seed_path", ()))
                lines.append(
                    f"| {job.get('kind', '?')} | `{path}` | "
                    f"`{str(job.get('fingerprint', ''))[:12]}` | "
                    f"{job.get('source', '?')} |"
                )
        lines.append("")

    spans = manifest.get("spans") or {}
    if spans:
        lines += [
            "## Latency attribution (spans)",
            "",
            f"- trace id: `{spans.get('trace_id', '?')}` "
            f"({spans.get('spans', 0)} spans across "
            f"{spans.get('batches', 0)} batch(es))",
            "",
        ]
        by_kind = spans.get("by_kind") or {}
        if by_kind:
            lines += [
                "| span kind | spans | sim time s (deterministic) |",
                "|-----------|-------|----------------------------|",
            ]
            for kind, stats in sorted(by_kind.items()):
                lines.append(
                    f"| {kind} | {stats.get('spans', 0)} | "
                    f"{_fmt(stats.get('sim_s', 0.0))} |"
                )
            lines.append("")
        wall = spans.get("wall") or {}
        if wall:
            lines += [
                "| job kind | jobs | queue p50 | queue p95 | exec p50 | "
                "exec p95 (wall s, non-deterministic) |",
                "|----------|------|-----------|-----------|----------|"
                "-------------------------------------|",
            ]
            for kind, stats in sorted(wall.items()):
                queue = stats.get("queue_wait_s", {})
                execute = stats.get("exec_s", {})
                lines.append(
                    f"| {kind} | {stats.get('jobs', 0)} | "
                    f"{_fmt(queue.get('p50', 0.0))} | "
                    f"{_fmt(queue.get('p95', 0.0))} | "
                    f"{_fmt(execute.get('p50', 0.0))} | "
                    f"{_fmt(execute.get('p95', 0.0))} |"
                )
            lines.append("")
        attempts = spans.get("attempts") or {}
        if any(
            counts.get("retried") or counts.get("abandoned")
            for counts in attempts.values()
        ):
            lines += [
                "| job kind | failed attempts | abandoned (timeout) |",
                "|----------|-----------------|---------------------|",
            ]
            for kind, counts in sorted(attempts.items()):
                lines.append(
                    f"| {kind} | {counts.get('retried', 0)} | "
                    f"{counts.get('abandoned', 0)} |"
                )
            lines.append("")

    metrics = manifest.get("metrics", {})
    counters = metrics.get("counters", {})
    if counters:
        lines += [
            "## Counters",
            "",
            "| counter | value |",
            "|---------|-------|",
        ]
        lines += [
            f"| `{name}` | {value} |" for name, value in sorted(counters.items())
        ]
        lines.append("")
    histograms = metrics.get("histograms", {})
    if histograms:
        lines += [
            "## Histograms",
            "",
            "| histogram | count | mean | stddev | min | max |",
            "|-----------|-------|------|--------|-----|-----|",
        ]
        for name, stats in sorted(histograms.items()):
            lines.append(
                f"| `{name}` | {stats.get('count', 0)} | "
                f"{_fmt(stats.get('mean', 0.0))} | "
                f"{_fmt(stats.get('stddev', 0.0))} | "
                f"{_fmt(stats.get('min'))} | {_fmt(stats.get('max'))} |"
            )
        lines.append("")

    return "\n".join(lines).rstrip() + "\n"
