"""Shared fixtures: one excitation run, trained surrogates, and a closed-loop episode.

Everything heavy is session-scoped so the acceptance tests and the per-module
tests reuse the same artifacts.  Seeds are fixed; every fixture is
deterministic end to end.
"""

from __future__ import annotations

import hashlib
import http.server
import json
import socket
import threading
from pathlib import Path

import pytest

from xmpc.cli import main
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


@pytest.fixture(scope="session")
def cli_workspace(tmp_path_factory):
    """excite -> train fx/fy -> run at desk size, shared by the CLI and fuzz tests."""
    root = tmp_path_factory.mktemp("cli")
    csv = root / "data.csv"
    assert main(["excite", "--days", "4", "--seed", "3", "--out", str(csv)]) == 0
    for target in ("fx", "fy"):
        rc = main([
            "train", "--data", str(csv), "--target", target,
            "--epochs", "150", "--seed", "0", "--out", str(root / f"{target}.json"),
        ])
        assert rc == 0
    rc = main([
        "run", "--days", "2", "--fx", str(root / "fx.json"), "--fy", str(root / "fy.json"),
        "--seed", "5", "--out", str(root / "episode.jsonl"),
    ])
    assert rc == 0
    return root


class _SocketBlocked(RuntimeError):
    pass


@pytest.fixture()
def no_network(monkeypatch: pytest.MonkeyPatch):
    """Fail loudly if anything under test tries to open a socket or look up a host."""

    def _blocked(*args, **kwargs):
        raise _SocketBlocked("network access attempted during an offline test")

    monkeypatch.setattr(socket, "socket", _blocked)
    monkeypatch.setattr(socket, "create_connection", _blocked)
    monkeypatch.setattr(socket, "getaddrinfo", _blocked)  # nor resolve a host name
    return _SocketBlocked


class _ChatHandler(http.server.BaseHTTPRequestHandler):
    """Answers each request with the server's next canned reply."""

    timeout = 5  # seconds a connection may stall before the server moves on

    def handle(self):
        self.server.connections += 1
        if self.request.recv(1, socket.MSG_PEEK) == b"\x16":  # a TLS handshake record
            self.request.recv(1 << 16)
            self.request.sendall(b"HTTP/1.0 400 Bad Request\r\n\r\n")  # plain text: TLS fails
        else:
            super().handle()

    def do_POST(self):
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        self.server.received.append((self.command, self.path, self.headers, body))
        replies = self.server.replies
        reply = replies[min(len(self.server.received), len(replies)) - 1]
        if reply is None:
            return  # the connection closes unanswered
        status, payload = reply
        payload = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
        self.send_response(status)
        if 300 <= status < 400:
            self.send_header("Location", self.path)  # back where it came from, without end
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    do_GET = do_POST  # a redirected POST comes back as a GET

    def log_message(self, format, *args):
        pass


@pytest.fixture()
def chat_server(monkeypatch):
    """A chat-completions service on 127.0.0.1 that answers from canned replies.

    Set ``replies`` to ``(status, body)`` pairs, used in turn with the last
    one repeated: a dict body is sent as JSON, bytes as they are, and
    ``None`` for a pair closes the connection unanswered.  A 3xx reply
    redirects to the path asked for.  ``received`` lists each request as
    ``(method, path, headers, body)``; ``connections`` counts every
    connection, a TLS handshake included, which is answered in plain text.
    ``url`` is the endpoint to configure.
    """
    monkeypatch.setenv("no_proxy", "127.0.0.1")
    server = http.server.HTTPServer(("127.0.0.1", 0), _ChatHandler)  # one request at a time
    server.replies, server.received, server.connections = [], [], 0
    server.url = f"http://127.0.0.1:{server.server_port}/v1"
    threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01}).start()
    yield server
    server.shutdown()
    server.server_close()


@pytest.fixture()
def closed_url():
    """An endpoint on a loopback port that refuses connections: bound, not listening."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        yield f"http://127.0.0.1:{sock.getsockname()[1]}/v1"


@pytest.fixture()
def silent_url():
    """An endpoint on a loopback port that accepts connections and never answers."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        sock.listen(8)
        yield f"http://127.0.0.1:{sock.getsockname()[1]}/v1"


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
