"""Imul loop (EXECUTE thread) and the faultable ALU."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, MachineCheckError
from repro.cpu.models import COMET_LAKE
from repro.explore.victim import modexp_op_count
from repro.attacks.rsa_crt import RSAKey
from repro.faults.alu import PLAN_MEMO_SIZE, BigIntALU, FaultableALU, _golden_plan
from repro.faults.imul import DEFAULT_ITERATIONS, ImulLoop
from repro.faults.injector import FaultInjector
from repro.faults.margin import FaultModel, OperatingConditions
from repro.kernel.sim import SimObserver, Simulator
from repro.telemetry import Telemetry
from repro.testbench import Machine
from repro.faults.workloads import (
    IMUL_LOOP,
    VECTOR_MULTIPLY,
    WORKLOAD_CATALOG,
    InstructionWorkload,
)

_MASK64 = (1 << 64) - 1


@pytest.fixture
def fault_model() -> FaultModel:
    return FaultModel(COMET_LAKE)


@pytest.fixture
def injector(fault_model) -> FaultInjector:
    return FaultInjector(fault_model, np.random.default_rng(3))


class TestImulLoop:
    def test_default_is_one_million(self):
        assert ImulLoop().iterations == DEFAULT_ITERATIONS == 1_000_000

    def test_nonpositive_iterations_rejected(self):
        with pytest.raises(ConfigurationError):
            ImulLoop(0)

    def test_duration_scales_with_frequency(self):
        loop = ImulLoop(1_000_000)
        assert loop.duration_s(2.0) == pytest.approx(loop.duration_s(4.0) * 2)

    def test_safe_run_has_no_faults(self, injector, fault_model):
        report = ImulLoop(1_000_000).run(
            injector, fault_model.conditions_for_offset(2.0, 0.0)
        )
        assert not report.faulted
        assert report.fault_count == 0
        assert report.faults == ()

    def test_unsafe_run_reports_concrete_faults(self, injector, fault_model):
        vcrit = fault_model.critical_voltage(2.0)
        conditions = fault_model.conditions_for_offset(2.0, 0.0)
        conditions = type(conditions)(2.0, vcrit, -999)
        report = ImulLoop(1_000_000).run(injector, conditions)
        assert report.faulted
        for fault in report.faults:
            # The observed product differs from lhs*rhs in exactly one bit.
            assert fault.observed != fault.expected
            assert fault.expected == (fault.lhs * fault.rhs) & _MASK64
            assert bin(fault.observed ^ fault.expected).count("1") == 1

    def test_every_recorded_fault_carries_seeded_operands(self, injector, fault_model):
        vcrit = fault_model.critical_voltage(2.0)
        conditions = OperatingConditions(2.0, vcrit, -999)
        report = ImulLoop(1_000_000).run(injector, conditions)
        assert len(report.faults) == min(report.fault_count, 16) > 0
        # Operands are drawn from a generator seeded by the window's
        # length and offset, two per recorded fault, in event order.
        rng = np.random.default_rng(abs(hash((1_000_000, -999))) % (2**32))
        for fault in report.faults:
            assert fault.lhs == int(rng.integers(0, 1 << 62)) | 1
            assert fault.rhs == int(rng.integers(0, 1 << 62)) | 1


class TestWorkloadCatalog:
    def test_catalog_contents(self):
        assert "imul loop" in WORKLOAD_CATALOG
        assert IMUL_LOOP.instruction == "imul"
        assert VECTOR_MULTIPLY.instruction == "vmulpd"

    def test_unknown_instruction_rejected(self):
        with pytest.raises(ConfigurationError):
            InstructionWorkload(name="bad", instruction="fdiv")

    def test_nonpositive_cpi_rejected(self):
        with pytest.raises(ConfigurationError):
            InstructionWorkload(name="bad", instruction="imul", cycles_per_op=0.0)

    def test_duration(self):
        assert IMUL_LOOP.duration_s(2_000_000, 2.0) == pytest.approx(1e-3)

    def test_execute_safe(self, injector, fault_model):
        outcome = IMUL_LOOP.execute(
            injector, fault_model.conditions_for_offset(1.8, 0.0), 100_000
        )
        assert outcome.fault_count == 0


class TestFaultableALU:
    def make_alu(self, injector, fault_model, offset_mv: float) -> FaultableALU:
        conditions = fault_model.conditions_for_offset(2.0, offset_mv)
        return FaultableALU(injector=injector, conditions_source=lambda: conditions)

    def test_imul64_correct_when_safe(self, injector, fault_model):
        alu = self.make_alu(injector, fault_model, 0.0)
        assert alu.imul64(3, 5) == 15
        assert alu.imul64(1 << 63, 2) == 0  # wraps mod 2^64
        assert alu.stats.imul_count == 2
        assert alu.stats.fault_count == 0

    def test_bigmul_exact_when_safe(self, injector, fault_model):
        alu = self.make_alu(injector, fault_model, 0.0)
        a = 123456789012345678901234567890
        b = 987654321098765432109876543210
        assert alu.bigmul(a, b) == a * b

    def test_bigmul_rejects_negative(self, injector, fault_model):
        alu = self.make_alu(injector, fault_model, 0.0)
        with pytest.raises(ConfigurationError):
            alu.bigmul(-1, 2)

    def test_modexp_matches_pow_when_safe(self, injector, fault_model):
        alu = self.make_alu(injector, fault_model, 0.0)
        assert alu.modexp(7, 131, 1009) == pow(7, 131, 1009)

    def test_modexp_validates(self, injector, fault_model):
        alu = self.make_alu(injector, fault_model, 0.0)
        with pytest.raises(ConfigurationError):
            alu.modexp(2, -1, 5)
        with pytest.raises(ConfigurationError):
            alu.modmul(2, 3, 0)

    def test_bigmul_faults_flip_single_bit(self, fault_model):
        vcrit = fault_model.critical_voltage(2.0)
        conditions = type(fault_model.conditions_for_offset(2.0, 0.0))(
            2.0, vcrit - 0.005, -999
        )
        injector = FaultInjector(fault_model, np.random.default_rng(5))
        alu = FaultableALU(injector=injector, conditions_source=lambda: conditions)
        a = (1 << 512) - 12345
        b = (1 << 512) - 67891
        faulted = 0
        for _ in range(2000):
            result = alu.bigmul(a, b)
            if result != a * b:
                faulted += 1
                assert bin(result ^ (a * b)).count("1") == 1
        assert faulted > 0
        assert alu.stats.fault_count == faulted

    def test_conditions_source_called_live(self, injector, fault_model):
        calls = []

        def source():
            calls.append(1)
            return fault_model.conditions_for_offset(2.0, 0.0)

        alu = FaultableALU(injector=injector, conditions_source=source)
        alu.imul64(2, 3)
        alu.imul64(4, 5)
        assert len(calls) == 2


def _operating_points() -> dict:
    """Named Comet Lake points at 2.0 GHz, one per fault regime."""
    model = FaultModel(COMET_LAKE)
    vcrit = model.critical_voltage(2.0)
    # Onset: the highest voltage with a non-zero fault probability.
    low, high = vcrit - 0.005, vcrit + 0.05
    for _ in range(60):
        middle = (low + high) / 2
        if model.fault_probability(2.0, middle) > 0.0:
            low = middle
        else:
            high = middle
    points = {
        "safe": OperatingConditions(2.0, vcrit + 0.05, -50),
        "onset": OperatingConditions(2.0, low, -90),
        "faulting": OperatingConditions(2.0, vcrit - 0.007, -100),
        "crash": OperatingConditions(2.0, vcrit - 0.05, -150),
    }
    assert model.fault_probability(2.0, points["safe"].voltage_volts) == 0.0
    assert 0.0 < model.fault_probability(2.0, low) < 1e-5
    assert not model.is_crash(2.0, points["faulting"].voltage_volts)
    assert model.is_crash(2.0, points["crash"].voltage_volts)
    return points


POINTS = _operating_points()


class _FaultLog(SimObserver):
    """Records every ``on_fault_window`` notification's arguments."""

    def __init__(self) -> None:
        self.calls = []

    def on_fault_window(self, *args) -> None:
        self.calls.append(args)


def _run_modexp(
    modexp, seed, conditions, base, exponent, modulus, *, tracer, observer,
    fault_model=None,
):
    """One exponentiation on a fresh machine; everything it left behind.

    ``observer`` is ``"none"``, ``"recorder"`` (a fault-window log
    attached to the simulator) or ``"invariants"`` (the log behind an
    installed :class:`~repro.verify.InvariantChecker`).  A
    ``fault_model`` replaces the machine with a bare injector over that
    model on a simulator of its own.
    """
    telemetry = Telemetry(max_events=None if tracer else 0)
    if fault_model is None:
        machine = Machine.build(
            COMET_LAKE, seed=seed, telemetry=telemetry, verify=observer == "invariants"
        )
        injector, simulator = machine.injector, machine.simulator
    else:
        simulator = Simulator()
        injector = FaultInjector(
            fault_model,
            np.random.default_rng(seed),
            telemetry=telemetry,
            simulator=simulator,
        )
    log = _FaultLog()
    if observer != "none":
        simulator.attach(log)
    alu = FaultableALU(injector=injector, conditions_source=lambda: conditions)
    try:
        result = modexp(alu, base, exponent, modulus)
    except MachineCheckError as error:
        result = ("machine check", str(error))
    counters = {
        name: telemetry.registry.counter(name).value
        for name in ("faults.windows", "faults.injected", "faults.crashes")
    }
    return {
        "result": result,
        "stats": alu.stats,
        "counters": counters,
        "events": telemetry.tracer.events if tracer else (),
        "observer": log.calls,
        "rng": injector.rng.bit_generator.state,
    }


class _FixedRateModel:
    """A fault model that never crashes and faults each instruction with
    a fixed probability."""

    def __init__(self, probability: float) -> None:
        self.probability = probability

    def is_crash(self, frequency_ghz, voltage_volts) -> bool:
        return False

    def fault_probability(self, frequency_ghz, voltage_volts, *, instruction="imul"):
        return self.probability


#: Seed whose stream puts exactly two faults into the exponentiation of
#: ``test_two_faults_in_one_exponentiation``.
TWO_FAULT_SEED = 4


#: Integers of an exact drawn bit length up to 512.  Hypothesis favours
#: small draws, so the width is drawn as ``512 - k``: most examples run
#: hundreds of multiplies on full-width operands.
WIDE_INTS = st.integers(0, 511).flatmap(
    lambda k: st.integers(1 << (511 - k), (1 << (512 - k)) - 1)
)


class TestBulkModexpIdentity:
    """``FaultableALU.modexp`` (bulk windows) against ``BigIntALU.modexp``
    (one ``bigmul`` window per multiply) on twin machines."""

    @settings(max_examples=100, deadline=None)
    @given(
        base=st.integers(0, (1 << 512) - 1),
        exponent=WIDE_INTS,
        modulus=WIDE_INTS,
        point=st.sampled_from(sorted(POINTS)),
        seed=st.integers(0, 2**32 - 1),
        tracer=st.booleans(),
        observer=st.sampled_from(["none", "recorder", "invariants"]),
    )
    def test_bulk_matches_op_by_op(
        self, base, exponent, modulus, point, seed, tracer, observer
    ):
        args = (seed, POINTS[point], base, exponent, modulus)
        bulk = _run_modexp(FaultableALU.modexp, *args, tracer=tracer, observer=observer)
        oracle = _run_modexp(BigIntALU.modexp, *args, tracer=tracer, observer=observer)
        assert bulk == oracle

    def test_two_faults_in_one_exponentiation(self):
        # A 512-bit exponentiation at the faulting point whose seeded
        # stream faults twice: the bulk path resumes from the faulted
        # intermediate after the first fault and must meet the second.
        base, exponent, modulus = (1 << 511) + 12345, (1 << 512) - 3, (1 << 512) - 569
        args = (TWO_FAULT_SEED, POINTS["faulting"], base, exponent, modulus)
        bulk = _run_modexp(FaultableALU.modexp, *args, tracer=True, observer="invariants")
        oracle = _run_modexp(BigIntALU.modexp, *args, tracer=True, observer="invariants")
        assert oracle["stats"].fault_count == 2
        assert len(oracle["events"]) == 2
        assert bulk == oracle

    @pytest.mark.parametrize("probability", [1e-4, 1e-3, 0.05])
    def test_bulk_matches_op_by_op_at_high_fault_rates(self, probability):
        # Real fault rates stop near 4e-5 per imul; a synthetic rate puts
        # dozens of faults, and as many plan-again-and-resume steps, into
        # one exponentiation.
        model = _FixedRateModel(probability)
        args = (11, POINTS["faulting"], (1 << 511) + 99, (1 << 512) - 5, (1 << 512) - 569)
        kwargs = dict(tracer=True, observer="recorder", fault_model=model)
        bulk = _run_modexp(FaultableALU.modexp, *args, **kwargs)
        oracle = _run_modexp(BigIntALU.modexp, *args, **kwargs)
        assert oracle["stats"].fault_count >= 2
        assert bulk == oracle

    def test_crash_raises_on_the_first_window(self):
        args = (7, POINTS["crash"], 3, 65537, (1 << 256) - 189)
        bulk = _run_modexp(FaultableALU.modexp, *args, tracer=True, observer="recorder")
        assert bulk["result"][0] == "machine check"
        assert bulk["counters"] == {
            "faults.windows": 1, "faults.injected": 0, "faults.crashes": 1,
        }
        assert [event.name for event in bulk["events"]] == ["fault.crash"]
        assert bulk == _run_modexp(
            BigIntALU.modexp, *args, tracer=True, observer="recorder"
        )

    def test_conditions_read_once_per_exponentiation(self):
        calls = []

        def source():
            calls.append(1)
            return POINTS["faulting"]

        injector = FaultInjector(FaultModel(COMET_LAKE), np.random.default_rng(1))
        alu = FaultableALU(injector=injector, conditions_source=source)
        alu.modexp(5, (1 << 256) - 1, (1 << 256) - 189)
        assert len(calls) == 1
        assert alu.modexp(5, 0, 7) == 1
        assert len(calls) == 1  # no multiply, no operating point read


def _run_sequence(modexp, seed, conditions, calls, **kwargs):
    """:func:`_run_modexp` over several exponentiations on one ALU."""
    return _run_modexp(
        lambda alu, *_: [modexp(alu, *call) for call in calls],
        seed, conditions, None, None, None, **kwargs,
    )


#: The CRT halves the RSA-CRT victim of the prevention matrix signs with.
VICTIM_KEY = RSAKey.generate(512, seed=42)
VICTIM_MESSAGE = 0xDEADBEEF
VICTIM_HALVES = (
    (VICTIM_MESSAGE % VICTIM_KEY.p, VICTIM_KEY.dp, VICTIM_KEY.p),
    (VICTIM_MESSAGE % VICTIM_KEY.q, VICTIM_KEY.dq, VICTIM_KEY.q),
)


class TestGoldenPlanMemo:
    """``FaultableALU.modexp`` on a warm plan memo against the op-by-op
    ``BigIntALU.modexp``: results, stats, counters, trace, observer calls
    and generator state."""

    @pytest.mark.parametrize("seed", [0, 2, 17])
    def test_warm_memo_matches_op_by_op(self, seed):
        _golden_plan.cache_clear()
        calls = VICTIM_HALVES * 4
        kwargs = dict(tracer=True, observer="invariants")
        bulk = _run_sequence(FaultableALU.modexp, seed, POINTS["faulting"], calls, **kwargs)
        # Two plans, planned once each; every later signature reuses them.
        info = _golden_plan.cache_info()
        assert (info.misses, info.hits) == (2, len(calls) - 2)
        oracle = _run_sequence(BigIntALU.modexp, seed, POINTS["faulting"], calls, **kwargs)
        # The seed faults some exponentiation part-way, so the bulk path
        # re-planned from a faulted intermediate on the warm memo.
        assert oracle["stats"].fault_count >= 1
        assert any(result != pow(*call) for result, call in zip(oracle["result"], calls))
        assert bulk == oracle

    def test_memo_key_covers_modulus_and_base_residue(self):
        # Same exponent and base under two moduli, and a base that is only
        # congruent: each must run its own plan (or share one exactly
        # when the residue matches).
        _golden_plan.cache_clear()
        (base, exponent, modulus), (_, _, other) = VICTIM_HALVES
        calls = [
            (base, exponent, modulus),
            (base, exponent, other),
            (base + modulus, exponent, modulus),
            (base + 1, exponent, modulus),
            (base, exponent, other),
        ]
        kwargs = dict(tracer=True, observer="recorder", fault_model=_FixedRateModel(1e-4))
        bulk = _run_sequence(FaultableALU.modexp, 3, POINTS["faulting"], calls, **kwargs)
        assert _golden_plan.cache_info().misses == 3
        oracle = _run_sequence(BigIntALU.modexp, 3, POINTS["faulting"], calls, **kwargs)
        assert oracle["stats"].fault_count >= 1
        assert bulk == oracle

    def test_memo_is_bounded_and_plans_are_read_only(self):
        assert _golden_plan.cache_info().maxsize == PLAN_MEMO_SIZE
        squares, plan = _golden_plan(VICTIM_KEY.dp, VICTIM_KEY.p, 7)
        assert len(plan.states) == len(squares) + 1 == len(plan.spent)
        assert len(plan.trials) == len(squares)
        assert plan.spent[-1] == int(plan.trials.sum())
        assert all(type(spent) is int for spent in plan.spent)
        with pytest.raises(ValueError):
            plan.trials[0] = 0


class TestBulkWindowGuards:
    """Fail loudly if the bulk path's premises drift."""

    @pytest.mark.parametrize("probability", [1e-9, 1e-6, 1e-3, 0.3])
    def test_array_binomial_matches_scalar_sequence(self, probability):
        # FaultInjector.run_clean_windows draws a whole exponentiation's
        # windows with one array call where run_window draws them one by
        # one; a numpy release that breaks this equivalence would
        # silently re-seed every RSA-CRT payload.
        trials = np.random.default_rng(99).integers(1, 65, size=1400).astype(np.int64)
        bulk_rng = np.random.default_rng(2024)
        scalar_rng = np.random.default_rng(2024)
        bulk = bulk_rng.binomial(trials, probability)
        scalar = [int(scalar_rng.binomial(int(n), probability)) for n in trials]
        assert bulk.tolist() == scalar
        assert bulk_rng.bit_generator.state == scalar_rng.bit_generator.state

    @pytest.mark.parametrize("point", ["safe", "onset"])
    def test_fault_free_modexp_opens_no_single_window(self, monkeypatch, point):
        calls = []
        run_window = FaultInjector.run_window

        def counting(self, *args, **kwargs):
            calls.append(1)
            return run_window(self, *args, **kwargs)

        monkeypatch.setattr(FaultInjector, "run_window", counting)
        telemetry = Telemetry()
        injector = FaultInjector(
            FaultModel(COMET_LAKE), np.random.default_rng(4), telemetry=telemetry
        )
        conditions = POINTS[point]
        alu = FaultableALU(injector=injector, conditions_source=lambda: conditions)
        base, exponent, modulus = (1 << 511) + 1, (1 << 512) - 1, (1 << 512) - 569
        assert alu.modexp(base, exponent, modulus) == pow(base, exponent, modulus)
        assert alu.stats.fault_count == 0
        assert calls == []
        assert telemetry.registry.counter("faults.windows").value == modexp_op_count(exponent)
