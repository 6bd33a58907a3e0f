"""Shared fixtures: one excitation run, trained surrogates, and a closed-loop episode.

Everything heavy is session-scoped so the acceptance tests and the per-module
tests reuse the same artifacts.  Seeds are fixed; every fixture is
deterministic end to end.
"""

from __future__ import annotations

import hashlib
import json
import socket
from pathlib import Path

import pytest

from xmpc.hub import Episode, run_episode
from xmpc.surrogate import FX_SCHEMA, FY_SCHEMA, SurrogateModel, TrainConfig, train
from xmpc.testbed import ExcitationData, TestbedConfig, generate_dr_calendar, run_excitation

EXCITATION_DAYS = 31
EXCITATION_SEED = 42
EPISODE_DAYS = 31
EPISODE_SEED = 7
CALENDAR_SEED = 7

# The library defaults (2000 epochs at 1e-3) train f_y to roughly its accuracy
# gate; these settings land it with a comfortable margin while staying a few
# seconds per model.
TRAIN_EPOCHS = 4000
TRAIN_LR = 3e-3


@pytest.fixture(scope="session")
def testbed_cfg() -> TestbedConfig:
    return TestbedConfig()


@pytest.fixture(scope="session")
def excitation(testbed_cfg: TestbedConfig) -> ExcitationData:
    return run_excitation(EXCITATION_DAYS, testbed_cfg, seed=EXCITATION_SEED)


@pytest.fixture(scope="session")
def train_cfg() -> TrainConfig:
    return TrainConfig(epochs=TRAIN_EPOCHS, learning_rate=TRAIN_LR)


@pytest.fixture(scope="session")
def fx_model(excitation: ExcitationData, train_cfg: TrainConfig) -> SurrogateModel:
    return train(excitation, FX_SCHEMA, train_cfg)


@pytest.fixture(scope="session")
def fy_model(excitation: ExcitationData, train_cfg: TrainConfig) -> SurrogateModel:
    return train(excitation, FY_SCHEMA, train_cfg)


@pytest.fixture(scope="session")
def dr_calendar() -> dict[int, float]:
    return generate_dr_calendar(EPISODE_DAYS, 1.0, seed=CALENDAR_SEED)


@pytest.fixture(scope="session")
def episode(
    testbed_cfg: TestbedConfig,
    fx_model: SurrogateModel,
    fy_model: SurrogateModel,
    dr_calendar: dict[int, float],
) -> Episode:
    """Month-long closed loop with an event every day; 744 records."""
    return run_episode(
        EPISODE_DAYS, testbed_cfg, fx_model, fy_model, dr_calendar, seed=EPISODE_SEED
    )


@pytest.fixture(scope="session")
def mini_models(testbed_cfg: TestbedConfig) -> tuple[SurrogateModel, SurrogateModel]:
    """Cheap, inaccurate surrogates for plumbing tests that do not need accuracy."""
    data = run_excitation(4, testbed_cfg, seed=3)
    cfg = TrainConfig(epochs=120, background_rows=32)
    return train(data, FX_SCHEMA, cfg), train(data, FY_SCHEMA, cfg)


@pytest.fixture(scope="session")
def mini_episode(
    testbed_cfg: TestbedConfig, mini_models: tuple[SurrogateModel, SurrogateModel]
) -> Episode:
    fx, fy = mini_models
    calendar = generate_dr_calendar(2, 1.0, seed=5)
    return run_episode(2, testbed_cfg, fx, fy, calendar, seed=5)


class _SocketBlocked(RuntimeError):
    pass


@pytest.fixture()
def no_network(monkeypatch: pytest.MonkeyPatch):
    """Fail loudly if anything under test tries to open a socket."""

    def _blocked(*args, **kwargs):
        raise _SocketBlocked("socket creation attempted during an offline test")

    monkeypatch.setattr(socket, "socket", _blocked)
    monkeypatch.setattr(socket, "create_connection", _blocked)
    return _SocketBlocked


@pytest.fixture()
def edit_digit():
    """Copy an episode file with one digit of record t's cooling rate changed.

    The edited line is still a valid record, so only the seal can catch it.
    """

    def copy_with_edit(src: Path, dst: Path, t: int) -> None:
        lines = Path(src).read_bytes().split(b"\n")
        key = b'"cooling_rate_w":'
        line = lines[t + 1]
        at = line.index(key) + len(key)
        lines[t + 1] = line[:at] + str(int(line[at:at + 1]) % 9 + 1).encode() + line[at + 1:]
        Path(dst).write_bytes(b"\n".join(lines))

    return copy_with_edit


@pytest.fixture()
def reseal():
    """Recompute an edited episode file's seal in place, as ``save_episode`` computes it.

    Behind a matching seal the loader's own checks are what must catch an edit.
    """

    def reseal_file(path: Path) -> None:
        head, _, body = Path(path).read_bytes().partition(b"\n")
        header = json.loads(head)
        header["records_sha256"] = "0" * 64
        seal = hashlib.sha256(json.dumps(header, separators=(",", ":")).encode() + b"\n" + body)
        header["records_sha256"] = seal.hexdigest()
        Path(path).write_bytes(json.dumps(header, separators=(",", ":")).encode() + b"\n" + body)

    return reseal_file
