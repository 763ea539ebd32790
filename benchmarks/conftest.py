"""Shared fixtures and helpers for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures.  The
timed body is the actual experiment (characterization sweep, attack
campaign, SPEC measurement); the rendered artefact is written to
``benchmarks/results/`` so the reproduced rows/series survive the run,
and shape assertions encode what "reproduced" means.
"""

from __future__ import annotations

import os

from pathlib import Path

import pytest

from repro.core.characterization import CharacterizationResult
from repro.cpu import COMET_LAKE, KABY_LAKE_R, SKY_LAKE, CPUModel
from repro.engine import get_session

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session", autouse=True)
def _hermetic_registry(tmp_path_factory) -> None:
    """Run-registry isolation: temp dir unless the environment chose one.

    CI exports ``REPRO_REGISTRY_DIR`` so the recorded runs become a
    build artifact; a developer's ad-hoc bench run must not write to
    their ``~/.repro/registry`` by surprise.
    """
    if "REPRO_REGISTRY" not in os.environ and "REPRO_REGISTRY_DIR" not in os.environ:
        os.environ["REPRO_REGISTRY_DIR"] = str(
            tmp_path_factory.mktemp("registry")
        )


@pytest.fixture(scope="session")
def results_dir() -> Path:
    """Directory the reproduced artefacts are written to."""
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def write_artifact(name: str, content: str) -> Path:
    """Persist one reproduced table/figure."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / name
    path.write_text(content + "\n")
    return path


def characterize(model: CPUModel, seed: int = 5) -> CharacterizationResult:
    """Engine-cached full Algo 2 sweep for a model.

    Goes through the shared :func:`repro.engine.get_session` cache — the
    same one the experiment API uses — so a sweep is computed once per
    process no matter which layer asks first.
    """
    return get_session().characterize(model, seed=seed)


@pytest.fixture(scope="session")
def comet_characterization() -> CharacterizationResult:
    return characterize(COMET_LAKE)


@pytest.fixture(scope="session")
def skylake_characterization() -> CharacterizationResult:
    return characterize(SKY_LAKE)


@pytest.fixture(scope="session")
def kabylake_characterization() -> CharacterizationResult:
    return characterize(KABY_LAKE_R)
