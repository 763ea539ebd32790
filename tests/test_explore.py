"""The fault-space explorer: trace fidelity, pruning soundness, identity.

Three contracts matter here:

* the traced victim addresses the attack ALU's multiplication sequence
  one for one (region boundaries derived from the exponent structure);
* every pruned fault-space element is *provably* uninteresting — the
  brute-force tests below re-simulate pruned elements and demand the
  pruned verdict;
* the exploitability map is byte-identical across shardings and
  executors, reports a non-empty exploitable set on the undefended
  Sky Lake machine, and an exactly empty one with the polling
  countermeasure loaded.
"""

from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks.rsa_crt import RSAKey, bellcore_extract
from repro.engine import (
    EngineSession,
    ExploreInjectionJob,
    ExplorePointJob,
    ParallelExecutor,
    SerialExecutor,
)
from repro.engine.cache import ResultCache
from repro.errors import ConfigurationError, ReproError
from repro.faults.alu import BigIntALU
from repro.explore import (
    DEFAULT_FAULT_MODELS,
    ExplorePlan,
    canonical_json,
    corrupt,
    corruptor,
    coverage_holds,
    enumerate_injections,
    modexp_op_count,
    prune_points,
    replay_op_by_op,
    replay_with_fault,
    run_explore,
    trace_victim,
)
from repro.telemetry import Telemetry

KEY = RSAKey.generate(128, seed=42)
MESSAGE = 0xDEADBEEF

#: A small but non-trivial plan: spans safe, feasible and crash offsets.
PLAN = ExplorePlan(
    codename="Sky Lake",
    frequencies_ghz=(2.0, 3.2),
    offsets_mv=(-40, -120, -200, -280),
)


@pytest.fixture(scope="module")
def trace():
    return trace_victim(KEY, MESSAGE)


@pytest.fixture(scope="module")
def open_map():
    session = EngineSession(executor=SerialExecutor(), cache=ResultCache(), registry=None)
    return run_explore(PLAN, session=session, rows_per_job=8)


class TestVictimTrace:
    def test_op_count_matches_exponent_structure(self, trace):
        expected = modexp_op_count(KEY.dp) + modexp_op_count(KEY.dq) + 2
        assert trace.op_count == expected

    def test_regions_partition_the_trace(self, trace):
        sizes = trace.region_sizes()
        assert sizes["sp"] == modexp_op_count(KEY.dp)
        assert sizes["sq"] == modexp_op_count(KEY.dq)
        assert sizes["recombine-h"] == 1
        assert sizes["recombine-mul"] == 1
        regions = [op.region for op in trace.ops]
        # Regions appear in order, contiguously.
        assert regions == sorted(regions, key=("sp", "sq", "recombine-h", "recombine-mul").index)

    def test_golden_signature_is_correct(self, trace):
        assert trace.golden_signature == pow(MESSAGE % KEY.n, KEY.d, KEY.n)

    def test_identity_replay_reproduces_golden(self, trace):
        for op_index in range(trace.op_count):
            signature = replay_with_fault(trace, op_index, lambda value: value)
            assert signature == trace.golden_signature, op_index

    def test_replay_ops_match_traced_ops(self, trace):
        # The op-by-op oracle issues exactly the traced ops, and an index
        # outside them corrupts nothing on either side.
        signature, op_count = oracle_replay(KEY, -1, "zero")
        assert op_count == trace.op_count
        assert signature == trace.golden_signature
        for op_index in (-1, trace.op_count):
            assert oracle_replay(KEY, op_index, "zero")[0] == signature
            assert replay_with_fault(trace, op_index, corruptor("zero")) == signature

    def test_sp_fault_is_bellcore_exploitable(self, trace):
        faulty = replay_with_fault(trace, 0, corruptor("flip:0"))
        result = bellcore_extract(KEY.n, KEY.e, MESSAGE, faulty)
        assert result is not None
        assert result.factors() == tuple(sorted((KEY.p, KEY.q)))

    def test_shared_trace_is_immutable(self, trace):
        with pytest.raises(dataclasses.FrozenInstanceError):
            trace.ops[0].region = "sq"
        with pytest.raises(dataclasses.FrozenInstanceError):
            trace.ops[-1].reduce_mod = KEY.n
        assert trace_victim(KEY, MESSAGE) is trace


def oracle_replay(key, op_index, model):
    return replay_op_by_op(key, MESSAGE, op_index, corruptor(model))


class TestReplayEquivalence:
    """The closed-form ``replay_with_fault`` must agree with the op-by-op
    oracle on every single-fault replay."""

    @pytest.mark.parametrize(
        "key",
        [
            KEY,
            RSAKey.generate(256, seed=42),
            # RSA's CRT exponents are odd; even ones open each
            # exponentiation with squarings before any multiply.
            dataclasses.replace(KEY, dp=KEY.dp * 4, dq=KEY.dq * 2),
        ],
        ids=["128", "256", "even-exponents"],
    )
    def test_every_default_injection_matches_the_oracle(self, key):
        trace = trace_victim(key, MESSAGE)
        expected = {
            (op_index, model): oracle_replay(key, op_index, model)[0]
            for op_index in range(trace.op_count)
            for model in DEFAULT_FAULT_MODELS
        }
        # Cold: a fresh copy of the trace per replay, so no op's tail
        # power is memoized yet.
        for (op_index, model), signature in expected.items():
            cold = dataclasses.replace(trace)
            assert (
                replay_with_fault(cold, op_index, corruptor(model)) == signature
            ), ("cold", op_index, model)
        # Warm: one copy replays everything twice, models in reverse the
        # second time, so every multiply's tail is read back from the memo
        # by a model other than the one that computed it.
        warm = dataclasses.replace(trace)
        for models in (DEFAULT_FAULT_MODELS, DEFAULT_FAULT_MODELS[::-1]):
            for op_index in range(trace.op_count):
                for model in models:
                    assert (
                        replay_with_fault(warm, op_index, corruptor(model))
                        == expected[op_index, model]
                    ), ("warm", op_index, model)

    def test_multiply_tail_is_computed_once_per_op(self, monkeypatch):
        import builtins

        import repro.explore.victim as victim

        trace = dataclasses.replace(trace_victim(KEY, MESSAGE))
        calls = []

        def counting_pow(*args):
            calls.append(args)
            return builtins.pow(*args)

        monkeypatch.setattr(victim, "pow", counting_pow, raising=False)
        multiplies = [
            half.start + position
            for half in trace._halves.values()
            for position, square in enumerate(half.squares)
            if not square
        ]
        assert multiplies
        for model in DEFAULT_FAULT_MODELS:
            for op_index in multiplies:
                replay_with_fault(trace, op_index, corruptor(model))
        assert len(calls) == len(multiplies)

    @settings(max_examples=60, deadline=None)
    @given(bits=st.sampled_from([64, 128, 256, 512]),
           key_seed=st.integers(min_value=0, max_value=3),
           position=st.integers(min_value=-2, max_value=10_000),
           bit=st.integers(min_value=0, max_value=1100))
    def test_bit_flips_match_the_oracle(self, bits, key_seed, position, bit):
        key = RSAKey.generate(bits, seed=key_seed)
        trace = trace_victim(key, MESSAGE)
        # Two indices past the trace are drawn too: they corrupt nothing.
        op_index = position if position < 0 else position % (trace.op_count + 2)
        model = f"flip:{bit}"
        expected, _ = oracle_replay(key, op_index, model)
        assert replay_with_fault(trace, op_index, corruptor(model)) == expected

    def test_replay_runs_no_alu_arithmetic(self, trace, monkeypatch):
        expected = [oracle_replay(KEY, op_index, "flip:0")[0]
                    for op_index in range(trace.op_count)]

        def forbidden(*args):
            raise AssertionError("replay ran BigIntALU arithmetic")

        monkeypatch.setattr(BigIntALU, "modexp", forbidden)
        monkeypatch.setattr(BigIntALU, "modmul", forbidden)
        for op_index in range(trace.op_count):
            assert replay_with_fault(trace, op_index, corruptor("flip:0")) == (
                expected[op_index]
            )


class TestFaultModels:
    def test_catalog(self):
        assert corrupt("flip:3", 0b1) == 0b1001
        assert corrupt("zero", 12345) == 0
        assert corrupt("trunc64", (1 << 100) | 7) == 7

    def test_malformed_models_rejected(self):
        for name in ("flip:x", "flip:-1", "mystery"):
            with pytest.raises(ConfigurationError):
                corruptor(name)

    def test_plan_rejects_duplicates_and_empty(self):
        with pytest.raises(ConfigurationError):
            ExplorePlan("Sky Lake", (2.0,), (-100,), fault_models=("zero", "zero"))
        with pytest.raises(ConfigurationError):
            ExplorePlan("Sky Lake", (2.0,), (-100,), fault_models=())

    def test_protected_plan_requires_unsafe_json(self):
        with pytest.raises(ConfigurationError):
            ExplorePlan("Sky Lake", (2.0,), (-100,), protect=True)


class TestPruningSoundness:
    """Brute-force the small plan unpruned: every prune must be provable."""

    def test_masked_pairs_cannot_reach_the_signature(self, trace):
        plan = enumerate_injections(trace, DEFAULT_FAULT_MODELS)
        assert plan.enumerated == trace.op_count * len(DEFAULT_FAULT_MODELS)
        golden = trace.golden_signature
        for op_index, model in plan.masked:
            assert replay_with_fault(trace, op_index, corruptor(model)) == golden

    def test_grid_safe_points_probe_safe_on_a_live_machine(self):
        point_plan = prune_points(PLAN, ("imul",))
        pruned = [
            point
            for point, status in zip(point_plan.points, point_plan.predicted)
            if status == "safe"
        ]
        assert pruned  # the plan's -40 mV column is inside the safe region
        job = ExplorePointJob(
            codename=PLAN.codename,
            points=tuple(pruned),
            protect=False,
            seed=PLAN.seed,
        )
        for record in job.run(Telemetry(max_events=0)):
            assert record["status"] == "safe"

    def test_pruning_stats_account_for_everything(self, open_map):
        stats = open_map["stats"]
        assert stats["points_enumerated"] == (
            stats["points_pruned_safe"] + stats["points_probed"]
        )
        assert stats["injections_enumerated"] == (
            stats["injections_pruned_masked"] + stats["injections_simulated"]
        )
        assert stats["injections_pruned_equivalent"] == 0


class TestMapIdentity:
    def test_byte_identical_across_shardings(self, open_map):
        reference = canonical_json(open_map)
        for rows_per_job in (1, 3, 1000):
            session = EngineSession(
                executor=SerialExecutor(), cache=ResultCache(), registry=None
            )
            document = run_explore(PLAN, session=session, rows_per_job=rows_per_job)
            assert canonical_json(document) == reference

    def test_byte_identical_serial_vs_parallel(self, open_map):
        session = EngineSession(
            executor=ParallelExecutor(2), cache=ResultCache(), registry=None
        )
        try:
            document = session.explore(PLAN, rows_per_job=3)
        finally:
            session.close()
        assert canonical_json(document) == canonical_json(open_map)

    def test_map_round_trips_through_json(self, open_map):
        assert json.loads(canonical_json(open_map)) == open_map


class TestCoverage:
    def test_undefended_sky_lake_has_exploitable_points(self, open_map):
        assert open_map["summary"]["feasible_points"] > 0
        assert open_map["summary"]["exploitable_pairs"] > 0
        assert open_map["summary"]["exploitable_points"] > 0

    def test_countermeasure_drives_exploitable_set_to_zero(
        self, open_map, skylake_characterization
    ):
        unsafe_json = json.dumps(
            skylake_characterization.unsafe_states.to_dict(), sort_keys=True
        )
        protected_plan = ExplorePlan(
            codename=PLAN.codename,
            frequencies_ghz=PLAN.frequencies_ghz,
            offsets_mv=PLAN.offsets_mv,
            protect=True,
            unsafe_json=unsafe_json,
        )
        session = EngineSession(
            executor=SerialExecutor(), cache=ResultCache(), registry=None
        )
        protected_map = run_explore(protected_plan, session=session)
        assert protected_map["summary"]["feasible_points"] == 0
        assert protected_map["summary"]["exploitable_points"] == 0
        assert coverage_holds(open_map, protected_map)

    def test_injection_verdicts_by_region(self, open_map):
        # Faults in either exponentiation *and* in the recombination
        # leave one CRT residue intact, so Bellcore factoring works;
        # only masked corruptions escape.
        by_verdict = {}
        for entry in open_map["injections"]:
            by_verdict.setdefault(entry["verdict"], 0)
            by_verdict[entry["verdict"]] += 1
        assert by_verdict.get("exploitable", 0) > 0
        assert (
            sum(by_verdict.values())
            == open_map["stats"]["injections_enumerated"]
        )


class TestJobSpecs:
    def test_point_job_fingerprint_is_stable(self):
        job = ExplorePointJob(
            codename="Sky Lake", points=((2.0, -120),), protect=False, seed=5
        )
        clone = ExplorePointJob(
            codename="Sky Lake", points=((2.0, -120),), protect=False, seed=5
        )
        assert job.fingerprint() == clone.fingerprint()
        other = ExplorePointJob(
            codename="Sky Lake", points=((2.0, -121),), protect=False, seed=5
        )
        assert job.fingerprint() != other.fingerprint()

    def test_protected_point_job_requires_unsafe_json(self):
        with pytest.raises(ConfigurationError):
            ExplorePointJob(
                codename="Sky Lake", points=((2.0, -120),), protect=True, seed=5
            )

    def test_serial_explore_derives_the_victim_once(self):
        # A key seed no other test uses, so the memo starts cold for it.
        plan = dataclasses.replace(PLAN, key_seed=4242)
        keys_before = RSAKey.generate.cache_info()
        traces_before = trace_victim.cache_info()
        session = EngineSession(executor=SerialExecutor(), cache=ResultCache(), registry=None)
        document = run_explore(plan, session=session, rows_per_job=8)
        keys = RSAKey.generate.cache_info()
        traces = trace_victim.cache_info()
        assert keys.misses - keys_before.misses == 1
        assert traces.misses - traces_before.misses == 1
        # Every injection shard asked for both again and hit the memo.
        shards = -(-document["stats"]["injections_simulated"] // 8)
        assert shards > 0
        assert keys.hits - keys_before.hits == shards
        assert traces.hits - traces_before.hits == shards

    def test_explore_pair_replays_each_injection_shard_once(
        self, skylake_characterization
    ):
        # A 256-bit pair stores ~200 results: the default cache must hold
        # them all, so the protected map replays nothing the open map did.
        unsafe_json = json.dumps(
            skylake_characterization.unsafe_states.to_dict(), sort_keys=True
        )
        cache = ResultCache()
        session = EngineSession(
            executor=SerialExecutor(), cache=cache, registry=None
        )
        plans = [
            ExplorePlan(
                codename=PLAN.codename,
                frequencies_ghz=PLAN.frequencies_ghz,
                offsets_mv=PLAN.offsets_mv,
                key_bits=256,
                protect=protect,
                unsafe_json=unsafe_json if protect else None,
            )
            for protect in (False, True)
        ]
        run_explore(plans[0], session=session, rows_per_job=8)
        after_open = dataclasses.replace(cache.stats)
        document = run_explore(plans[1], session=session, rows_per_job=8)
        injection_shards = -(-document["stats"]["injections_simulated"] // 8)
        point_shards = -(-document["stats"]["points_probed"] // 8)
        assert injection_shards > 128
        assert cache.stats.hits - after_open.hits == injection_shards
        assert cache.stats.misses - after_open.misses == point_shards
        assert cache.stats.evictions == 0
        assert cache.stats.stores == after_open.stores + point_shards

    def test_point_job_parses_its_inputs_once(
        self, monkeypatch, skylake_characterization
    ):
        import repro.faults.margin as margin
        from repro.core.unsafe_states import UnsafeStateSet

        unsafe_json = json.dumps(
            skylake_characterization.unsafe_states.to_dict(), sort_keys=True
        )
        points = ((2.0, -120), (3.2, -200), (0.8, -40))

        def job(chunk):
            return ExplorePointJob(
                codename="Sky Lake",
                points=chunk,
                protect=True,
                seed=5,
                unsafe_json=unsafe_json,
            )

        singles = [
            record
            for point in points
            for record in job((point,)).run(Telemetry(max_events=0))
        ]
        parses, builds = [], []
        from_dict = UnsafeStateSet.from_dict.__func__
        monkeypatch.setattr(
            UnsafeStateSet,
            "from_dict",
            classmethod(lambda cls, data: parses.append(1) or from_dict(cls, data)),
        )

        class CountingFaultModel(margin.FaultModel):
            def __post_init__(self):
                builds.append(1)
                super().__post_init__()

        # The job's classifier, not the machines' own fault models.
        monkeypatch.setattr(margin, "FaultModel", CountingFaultModel)
        shared = job(points).run(Telemetry(max_events=0))
        assert (len(parses), len(builds)) == (1, 1)
        assert json.dumps(shared, sort_keys=True) == json.dumps(
            singles, sort_keys=True
        )

    def test_victim_memos_are_bounded(self):
        assert RSAKey.generate.cache_parameters()["maxsize"] is not None
        assert trace_victim.cache_parameters()["maxsize"] is not None

    def test_injection_job_regenerates_identical_verdicts(self):
        job = ExploreInjectionJob(
            key_bits=128, key_seed=42, message=MESSAGE, reps=((0, "flip:0"),)
        )
        first = job.run(Telemetry(max_events=0))
        second = job.run(Telemetry(max_events=0))
        assert first == second
        assert first[0]["verdict"] == "exploitable"


def test_quarantined_shard_fails_the_map(monkeypatch):
    """A map folded without one shard would understate the exploitable
    set, so a quarantined shard raises the quarantine error."""
    from repro.engine import RetryPolicy

    healthy = ExploreInjectionJob.run
    poisoned = []

    def run(self, telemetry):
        if not poisoned or poisoned[0] == self:
            poisoned.append(self)
            raise RuntimeError("poisoned shard")
        return healthy(self, telemetry)

    monkeypatch.setattr(ExploreInjectionJob, "run", run)
    session = EngineSession(
        executor=SerialExecutor(policy=RetryPolicy(max_attempts=1, backoff_s=0.0)),
        cache=ResultCache(),
        registry=None,
    )
    with pytest.raises(ReproError, match="explore plan lost 1 job shard"):
        run_explore(PLAN, session=session)
    assert len(poisoned) == 1
