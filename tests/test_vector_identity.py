"""Scalar-vs-vector byte-identity: the contract of the batch fast path.

The vectorized sweep evaluator (:mod:`repro.vector`) is only admissible
because it is *bit-identical* to the scalar oracle — same cells, same
telemetry counters, same trace events, same random-stream consumption.
This suite is the executable proof: full ``run_row`` vs
``run_row_batch`` sweeps per paper model (including ``repetitions > 1``),
the scalar fold against both production sweep paths (``.run()`` and
``EngineSession.characterize``), and pins on the numpy ``Generator``
equivalences the batch draw loop relies on.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core.characterization import CharacterizationConfig, CharacterizationFramework
from repro.cpu import COMET_LAKE, KABY_LAKE_R, PAPER_MODEL_TUPLE, SKY_LAKE
from repro.engine import EngineSession, ResultCache, SerialExecutor
from repro.faults.margin import FaultModel
from repro.telemetry import Telemetry
from repro.vector import characterization as vector_characterization
from repro.vector.characterization import (
    MAX_RECORDED_EVENTS,
    _RawWindowDraws,
    _window_draw,
)

#: Coarse sweep: full physics coverage (safe band, fault band, crash) at
#: a fraction of the default grid's cells.
COARSE = CharacterizationConfig(
    offset_start_mv=-10, offset_stop_mv=-250, offset_step_mv=10
)


def _row_identity(model, config, frequency_ghz):
    """Assert scalar and batch rows agree cell-for-cell and in telemetry."""
    scalar_telemetry = Telemetry()
    batch_telemetry = Telemetry()
    scalar = CharacterizationFramework(model, config=config, seed=2024).run_row(
        frequency_ghz, telemetry=scalar_telemetry
    )
    batch = CharacterizationFramework(model, config=config, seed=2024).run_row_batch(
        frequency_ghz, telemetry=batch_telemetry
    )
    assert scalar == batch
    assert pickle.dumps(scalar) == pickle.dumps(batch)
    scalar_counters = {
        c.name: int(c.value) for c in scalar_telemetry.registry.counters() if c.value
    }
    batch_counters = {
        c.name: int(c.value) for c in batch_telemetry.registry.counters() if c.value
    }
    assert scalar_counters == batch_counters


class TestRowIdentity:
    @pytest.mark.parametrize("model", PAPER_MODEL_TUPLE, ids=lambda m: m.codename)
    def test_coarse_row_identity_per_model(self, model):
        base = model.frequency_table.base_ghz
        _row_identity(model, COARSE, base)

    @pytest.mark.parametrize("model", PAPER_MODEL_TUPLE, ids=lambda m: m.codename)
    def test_fine_row_identity_at_base_frequency(self, model):
        _row_identity(model, CharacterizationConfig(), model.frequency_table.base_ghz)

    def test_row_identity_with_repetitions(self):
        """repetitions > 1 multiplies the per-cell draw sequence; the
        batch replay must track every window's binomial/choice/integers."""
        config = CharacterizationConfig(
            offset_start_mv=-10, offset_stop_mv=-250, offset_step_mv=10, repetitions=3
        )
        _row_identity(COMET_LAKE, config, COMET_LAKE.frequency_table.base_ghz)

    @pytest.mark.parametrize("model", PAPER_MODEL_TUPLE, ids=lambda m: m.codename)
    @pytest.mark.parametrize("end", ("min", "max"))
    def test_sweep_pool_row_identity(self, model, end):
        """The e2e sweep-pool configuration (full grid, three windows per
        cell) at each CPU's lowest and highest frequency: about 30
        faulting cells, so up to about 90 merged window draws, per row."""
        config = CharacterizationConfig(repetitions=3)
        frequencies = config.frequency_list(model)
        _row_identity(model, config, frequencies[0 if end == "min" else -1])

    def test_row_identity_without_stop_after_crash(self):
        """stop_after_crash=False probes past the crash wall — the batch
        loop must keep counting windows without consuming draws there."""
        config = CharacterizationConfig(
            offset_start_mv=-10,
            offset_stop_mv=-250,
            offset_step_mv=10,
            stop_after_crash=False,
        )
        _row_identity(SKY_LAKE, config, SKY_LAKE.frequency_table.base_ghz)

    def test_trace_events_identical(self):
        """The batch path emits the same fault.injection / fault.crash
        instants (same order, same args) as the scalar injector."""
        base = KABY_LAKE_R.frequency_table.base_ghz
        scalar_telemetry = Telemetry()
        batch_telemetry = Telemetry()
        CharacterizationFramework(KABY_LAKE_R, config=COARSE, seed=2024).run_row(
            base, telemetry=scalar_telemetry
        )
        CharacterizationFramework(KABY_LAKE_R, config=COARSE, seed=2024).run_row_batch(
            base, telemetry=batch_telemetry
        )
        scalar_events = [
            (e.name, e.category, e.args)
            for e in scalar_telemetry.tracer.events
            if e.name.startswith("fault.")
        ]
        batch_events = [
            (e.name, e.category, e.args)
            for e in batch_telemetry.tracer.events
            if e.name.startswith("fault.")
        ]
        assert scalar_events == batch_events
        assert scalar_events  # the fault band must actually be exercised


def _scalar_sweep(model, config, seed):
    """The scalar oracle: every ``run_row`` folded in frequency order."""
    framework = CharacterizationFramework(model, config=config, seed=seed)
    result = framework.empty_result()
    for frequency in config.frequency_list(model):
        framework.fold_row(result, framework.run_row(frequency))
    return result


class TestSweepIdentity:
    @pytest.mark.parametrize("model", PAPER_MODEL_TUPLE, ids=lambda m: m.codename)
    def test_full_coarse_sweep_identity(self, model):
        """The scalar fold equals both production paths: the library
        ``.run()`` and the engine's batch shards."""
        scalar = _scalar_sweep(model, COARSE, seed=2024)
        library = CharacterizationFramework(model, config=COARSE, seed=2024).run()
        engine = EngineSession(
            executor=SerialExecutor(), cache=ResultCache()
        ).characterize(model, seed=2024, config=COARSE)
        for vector in (library, engine):
            assert scalar.cells == vector.cells
            assert scalar.crashes == vector.crashes
            assert scalar.unsafe_states.to_dict() == vector.unsafe_states.to_dict()
            assert pickle.dumps(scalar.cells) == pickle.dumps(vector.cells)

    def test_boundary_profile_identity(self):
        scalar = _scalar_sweep(COMET_LAKE, COARSE, seed=2024)
        vector = CharacterizationFramework(COMET_LAKE, config=COARSE, seed=2024).run()
        assert scalar.boundary_profile() == vector.boundary_profile()
        assert scalar.maximal_safe_offset_mv() == vector.maximal_safe_offset_mv()


#: ``iterations`` values the merged-draw pin covers: tiny populations
#: (where ``k`` reaches ``iterations`` and Floyd's first bound is 1),
#: both sides of ``choice``'s 10,000-element tail-shuffle threshold, the
#: paper's one million, and the edges of the 32-bit Lemire range.
MERGED_DRAW_ITERATIONS = (
    1, 2, 3, 5, 16, 17, 799, 800, 801, 10_000, 10_001, 65_536,
    1_000_000, 2**31, 2**32 - 1,
)

#: Every Floyd bound just above 2**31: its Lemire threshold
#: ``(2**32 - B) % B`` is nearly 2**31, so about half its draws reject.
REJECTING = 2**31 + MAX_RECORDED_EVENTS


def _choice_from_draws(iterations, recorded, draws):
    """``choice(iterations, size=recorded, replace=False)`` rebuilt from
    its bounded draws: Floyd's ``recorded`` picks, then the shuffle's
    ``recorded - 1`` swap targets."""
    floyd, swaps = draws[:recorded], draws[recorded:2 * recorded - 1]
    positions, seen = [], set()
    for j, value in zip(range(iterations - recorded, iterations), floyd):
        value = j if value in seen else value
        seen.add(value)
        positions.append(value)
    for i, j in zip(range(recorded - 1, 0, -1), swaps):
        positions[i], positions[j] = positions[j], positions[i]
    return positions


def _count_redraws(monkeypatch):
    """Count the rows whose deferred pass found a rejection: a one-item
    list the patched ``_draw_band`` increments."""
    redraws = [0]
    draw_band = vector_characterization._draw_band

    def counting(*args, exact, **kwargs):
        drawn = draw_band(*args, exact=exact, **kwargs)
        if not exact and drawn is None:
            redraws[0] += 1
        return drawn

    monkeypatch.setattr(vector_characterization, "_draw_band", counting)
    return redraws


class TestGeneratorEquivalencePins:
    """The numpy Generator facts the batch draw loop is built on.

    If a numpy upgrade ever changes these, the identity suite above fails
    too — these pins exist to point at the *cause* immediately.
    """

    def test_bounded_integers_array_equals_scalar_sequence(self):
        """integers(0, 64, size=k) consumes bit-generator state exactly
        like k scalar integers(0, 64) calls — including the 32-bit
        half-word carry buffer that odd counts leave behind."""
        for seed in range(20):
            for size in (1, 2, 3, 7, 16):
                a = np.random.default_rng(seed)
                b = np.random.default_rng(seed)
                array = a.integers(0, 64, size=size)
                scalars = [int(b.integers(0, 64)) for _ in range(size)]
                assert array.tolist() == scalars
                # Same internal state afterwards: the next draws agree.
                assert int(a.integers(0, 2**62)) == int(b.integers(0, 2**62))

    @pytest.mark.parametrize("iterations", MERGED_DRAW_ITERATIONS)
    def test_merged_window_draw_equals_choice_and_bit_picks(self, iterations):
        """One integers(0, bounds) call leaves the generator exactly where
        the scalar injector's choice(iterations, size=k, replace=False)
        plus integers(0, 64, size=k) leave it, for every recorded count
        k and with or without a pending 32-bit half-word.  Its values
        rebuild the real positions and bit picks, so a wrongly ordered
        segment fails here even where rejection-free draws would leave
        the state unchanged."""
        for recorded in range(1, MAX_RECORDED_EVENTS + 1):
            if recorded > iterations:
                break
            bounds = _window_draw(iterations, recorded).bounds
            assert not bounds.flags.writeable
            for seed in (7, 2024):
                for carry in (False, True):
                    scalar = np.random.default_rng(seed)
                    merged = np.random.default_rng(seed)
                    if carry:
                        scalar.integers(0, 64)
                        merged.integers(0, 64)
                    positions = scalar.choice(iterations, size=recorded, replace=False)
                    bits = scalar.integers(0, 64, size=recorded)
                    draws = merged.integers(0, bounds).tolist()
                    case = (iterations, recorded, seed, carry)
                    assert (
                        merged.bit_generator.state == scalar.bit_generator.state
                    ), case
                    # Not only the same consumption: the same draws, in
                    # the same order, as the real positions and bits show.
                    assert _choice_from_draws(
                        iterations, recorded, draws
                    ) == positions.tolist(), case
                    assert draws[2 * recorded - 1:] == bits.tolist(), case

    def test_choice_consumption_depends_on_carry_buffer(self):
        """choice(n, size=k, replace=False) draws through the buffered
        32-bit path when its bounds fit in 32 bits, so it consumes a
        pending half-word.  A bare advance() or a count of raw 64-bit
        words cannot stand in for it; raw words can once the pending
        half-word is tracked alongside them, which is what the deferred
        pass does (see the raw-word pins below)."""
        fresh = np.random.default_rng(99)
        fresh.choice(1_000_000, size=4, replace=False)
        fresh_state = fresh.bit_generator.state["has_uint32"]

        carrying = np.random.default_rng(99)
        carrying.integers(0, 64)  # leaves a 32-bit half-word pending
        carrying.choice(1_000_000, size=4, replace=False)
        carrying_state = carrying.bit_generator.state["has_uint32"]

        assert fresh_state != carrying_state

    @pytest.mark.parametrize("iterations", MERGED_DRAW_ITERATIONS + (REJECTING,))
    def test_raw_window_draws_equal_bounded_integers(self, iterations):
        """Raw words drawn for a window leave PCG64 where
        integers(0, _window_draw(ops, k).bounds) leaves it (128-bit state
        and pending half-word) exactly when the row-end check finds no
        rejection, for every k, with and without a half-word carried in,
        across interleaved binomial calls; the half-words give back
        integers' own values.  At ``REJECTING`` about half the Floyd
        draws reject, so both answers of the check are pinned."""
        outcomes = set()
        for recorded in range(1, MAX_RECORDED_EVENTS + 1):
            if recorded > iterations:
                break
            window = _window_draw(iterations, recorded)
            # A lead window shifts the window under test: k=1 takes two
            # half-words and leaves none pending, k=2 takes five and
            # leaves one.
            for lead in (None, 1, 2):
                if lead is not None and lead > iterations:
                    continue
                for seed in (7, 2024):
                    exact = np.random.default_rng(seed)
                    deferred = np.random.default_rng(seed)
                    raw = _RawWindowDraws(deferred.bit_generator)
                    for rng in (exact, deferred):
                        rng.binomial(1_000_000, 3e-5)
                    if lead is not None:
                        exact.integers(0, _window_draw(iterations, lead).bounds)
                        raw.draw(_window_draw(iterations, lead))
                        if raw.rejected():
                            # The streams part here; binomial's own
                            # rejection loop could even rejoin them.
                            continue
                        for rng in (exact, deferred):
                            rng.binomial(iterations, 0.25)
                    start = raw.halfwords
                    values = exact.integers(0, window.bounds)
                    raw.draw(window)
                    exact_state = exact.bit_generator.state
                    deferred_state = deferred.bit_generator.state
                    assert deferred_state["has_uint32"] == 0
                    halves = raw.halves()
                    same = (
                        exact_state["state"] == deferred_state["state"]
                        and exact_state["has_uint32"] == raw.carry
                        and (
                            not raw.carry
                            or exact_state["uinteger"] == int(halves[raw.halfwords])
                        )
                    )
                    case = (iterations, recorded, lead, seed)
                    rejected = raw.rejected()
                    assert same is not rejected, case
                    outcomes.add(rejected)
                    if not rejected:
                        drawn = window.bounds[window.bounds > 1].astype(np.uint64)
                        x = halves[start:start + window.halfwords].astype(np.uint64)
                        lemire = ((x * drawn) >> np.uint64(32)).tolist()
                        assert lemire == values[window.bounds > 1].tolist(), case
        assert False in outcomes
        if iterations == REJECTING:
            assert True in outcomes

    def test_binomial_leaves_carried_half_word_alone(self):
        """binomial consumes whole 64-bit words: it advances PCG64 but
        never touches has_uint32/uinteger, so the deferred pass can draw
        binomials between windows that carry a half-word."""
        for seed in range(10):
            rng = np.random.default_rng(seed)
            rng.integers(0, 64)  # leaves a 32-bit half-word pending
            before = rng.bit_generator.state
            assert before["has_uint32"] == 1
            for ops, p in ((10**6, 3e-6), (10**6, 0.02), (2**31, 0.4), (5, 0.5)):
                rng.binomial(ops, p)
            after = rng.bit_generator.state
            assert after["state"] != before["state"]
            assert after["has_uint32"] == before["has_uint32"]
            assert after["uinteger"] == before["uinteger"]

    def test_forced_rejection_row_is_redrawn_exactly(self, monkeypatch):
        """At ``REJECTING`` iterations about half the Floyd draws reject, so
        the deferred pass must hand the row to the exact redraw — and the
        row, counters included, still equals the scalar oracle and the
        exact pass alone."""
        config = CharacterizationConfig(
            offset_start_mv=-10, offset_stop_mv=-250, offset_step_mv=10,
            iterations=REJECTING,
        )
        base = COMET_LAKE.frequency_table.base_ghz

        def row(method):
            telemetry = Telemetry(max_events=0)
            framework = CharacterizationFramework(COMET_LAKE, config=config, seed=2024)
            cells = getattr(framework, method)(base, telemetry=telemetry)
            counters = {c.name: int(c.value) for c in telemetry.registry.counters()}
            return pickle.dumps(cells), counters

        redraws = _count_redraws(monkeypatch)
        batch = row("run_row_batch")
        assert redraws == [1]
        assert batch == row("run_row")
        monkeypatch.setattr(vector_characterization, "_HALFWORD_VIEW", False)
        assert row("run_row_batch") == batch
        assert redraws == [1]

    @pytest.mark.parametrize("seed", (1, 5, 7, 11, 2024))
    def test_sweeps_equal_the_exact_pass(self, seed, monkeypatch):
        """The three-CPU repetitions=3 sweep (the sweep-pool grid) is the
        same with the deferred pass as on the exact pass alone, redraws
        included (``_HALFWORD_VIEW = False`` is the big-endian route)."""
        config = CharacterizationConfig(repetitions=3)

        def sweeps():
            telemetry = Telemetry(max_events=0)
            cells = []
            for model in PAPER_MODEL_TUPLE:
                framework = CharacterizationFramework(model, config=config, seed=seed)
                for frequency in config.frequency_list(model):
                    cells.append(
                        framework.run_row_batch(frequency, telemetry=telemetry)
                    )
            counters = {c.name: int(c.value) for c in telemetry.registry.counters()}
            return pickle.dumps(cells), counters

        redraws = _count_redraws(monkeypatch)
        deferred = sweeps()
        assert redraws[0] >= 1
        monkeypatch.setattr(vector_characterization, "_HALFWORD_VIEW", False)
        assert sweeps() == deferred

    def test_tracer_takes_the_exact_pass_once(self, monkeypatch):
        """With a tracer attached the row is drawn once, exactly, so its
        fault.* events are emitted once."""
        passes = []
        draw_band = vector_characterization._draw_band

        def recording(*args, exact, **kwargs):
            passes.append(exact)
            return draw_band(*args, exact=exact, **kwargs)

        monkeypatch.setattr(vector_characterization, "_draw_band", recording)
        base = KABY_LAKE_R.frequency_table.base_ghz
        CharacterizationFramework(KABY_LAKE_R, config=COARSE, seed=2024).run_row_batch(
            base, telemetry=Telemetry()
        )
        assert passes == [True]
        CharacterizationFramework(KABY_LAKE_R, config=COARSE, seed=2024).run_row_batch(
            base, telemetry=Telemetry(max_events=0)
        )
        assert passes[1] is False

    def test_shared_fault_model_does_not_change_rows(self):
        """run_row_batch caches one FaultModel per framework; the cache is
        pure, so a fresh framework (cold cache) and a reused one (warm
        cache) produce identical rows."""
        framework = CharacterizationFramework(COMET_LAKE, config=COARSE, seed=2024)
        base = COMET_LAKE.frequency_table.base_ghz
        warm_first = framework.run_row_batch(base)
        warm_second = framework.run_row_batch(base)
        cold = CharacterizationFramework(
            COMET_LAKE, config=COARSE, seed=2024
        ).run_row_batch(base)
        assert warm_first == warm_second == cold
        assert isinstance(framework._vector_fault_model, FaultModel)
