"""Shared fixtures.

Characterizations are expensive enough (a few tenths of a second per CPU
model) that the suite shares them through the engine's cached session —
the same cache the experiment API and the CLI use, so a sweep computed
by any of them is computed only once per process.  Machines are cheap
and always built fresh per test to keep state isolated.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.core.characterization import (
    CharacterizationConfig,
    CharacterizationResult,
)
from repro.cpu import COMET_LAKE, KABY_LAKE_R, SKY_LAKE
from repro.engine import get_session
from repro.testbench import Machine


@pytest.fixture(scope="session", autouse=True)
def _hermetic_registry(tmp_path_factory) -> None:
    """Point the run registry at a per-run temp dir for the whole suite.

    Engine sessions record runs automatically; without this the test
    suite would pollute the developer's ``~/.repro/registry``.  An
    explicitly exported ``REPRO_REGISTRY(_DIR)`` wins (CI sets one to
    keep the registry as an artifact).
    """
    if "REPRO_REGISTRY" not in os.environ and "REPRO_REGISTRY_DIR" not in os.environ:
        os.environ["REPRO_REGISTRY_DIR"] = str(
            tmp_path_factory.mktemp("registry")
        )


@pytest.fixture(scope="session")
def comet_characterization() -> CharacterizationResult:
    """Full Algo 2 sweep for Comet Lake (the paper's Table 2 machine)."""
    return get_session().characterize(COMET_LAKE, seed=5)


@pytest.fixture(scope="session")
def skylake_characterization() -> CharacterizationResult:
    """Full Algo 2 sweep for Sky Lake."""
    return get_session().characterize(SKY_LAKE, seed=5)


@pytest.fixture(scope="session")
def kabylake_characterization() -> CharacterizationResult:
    """Full Algo 2 sweep for Kaby Lake R."""
    return get_session().characterize(KABY_LAKE_R, seed=5)


@pytest.fixture(scope="session")
def coarse_config() -> CharacterizationConfig:
    """A cheap sweep configuration for tests that re-run Algo 2."""
    return CharacterizationConfig(
        offset_start_mv=-10, offset_stop_mv=-250, offset_step_mv=10
    )


@pytest.fixture
def comet_machine() -> Machine:
    """A fresh Comet Lake machine."""
    return Machine.build(COMET_LAKE, seed=2024)


@pytest.fixture
def skylake_machine() -> Machine:
    """A fresh Sky Lake machine."""
    return Machine.build(SKY_LAKE, seed=2024)


@pytest.fixture(scope="session")
def fresh_python():
    """Run Python source in a fresh interpreter that imports this ``repro``.

    For checks on what an import or a CLI launch loads: the test process
    itself has every module in ``sys.modules`` already.
    """
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))
    ))

    def run(code: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )

    return run
