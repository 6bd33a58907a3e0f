"""Chat gateway: request shape, stub behavior, online retries, key hygiene."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import time

import numpy as np
import pytest

from xmpc import llm as llm_mod
from xmpc.errors import ConfigError, GatewayError, GatewayTimeoutError
from xmpc.explain import (
    build_qa_context,
    build_scenario_prompt,
    build_shap_prompt,
    classify,
    narrate_attribution,
    parse_scenario,
)
from xmpc.llm import (
    DEFAULT_MODEL,
    MAX_RETRIES,
    LlmConfig,
    answer_question,
    build_request,
    complete,
)
from xmpc.shapley import Attribution
from xmpc.surrogate import FY_SCHEMA

SYSTEM = "test system prompt"


def worked_attribution() -> Attribution:
    # The prediction is base + sum(phi), as the stub rebuilds it from the prompt.
    phis = np.array([680.369781, 33.052102, 18.838554, -113.826475, -98.523013])
    base = 1544.673602
    return Attribution(
        feature_names=("oa_temp", "oa_radiation", "zone_temp", "zone_clg_tstat", "zone_occ"),
        feature_values=np.array([32.7, 513.0, 23.5, 25.0, 3.0]),
        shapley_values=phis,
        base_value=base,
        prediction=base + float(np.sum(phis)),
    )


def ok_payload(content="hello from the service"):
    return {
        "choices": [{"message": {"content": content}}],
        "model": "remote-model",
        "usage": {"total_tokens": 42},
    }


@pytest.fixture()
def online_cfg(monkeypatch, chat_server):
    monkeypatch.setenv("LLM_API_KEY", "sk-test-secret-123")
    monkeypatch.setattr(llm_mod, "BACKOFF_SECONDS", 0.01)
    return LlmConfig(mode="online", endpoint=chat_server.url)


def logged_complete(cfg, tmp_path, user_prompt):
    """The reply to one completion and the JSON line it appended to a fresh log."""
    cfg.log_path = str(tmp_path / "exchanges.jsonl")
    reply = complete(cfg, SYSTEM, user_prompt)
    [line] = (tmp_path / "exchanges.jsonl").read_text().splitlines()
    return reply, json.loads(line)


def online_failure(cfg, error=GatewayError, match=None) -> GatewayError:
    """The error one online completion raises, checked to hold no trace of the key."""
    with pytest.raises(error, match=match) as info:
        complete(cfg, SYSTEM, "user")
    assert "sk-test-secret-123" not in str(info.value)
    return info.value


class TestConfigAndRequest:
    def test_request_shape(self, monkeypatch):
        monkeypatch.setattr(llm_mod, "MAX_TOKENS", 64)
        cfg = LlmConfig(temperature=0.7)
        body = build_request(cfg, "sys", "user")
        assert body["model"] == DEFAULT_MODEL
        assert body["temperature"] == 0.7
        assert body["max_tokens"] == 64
        assert body["messages"] == [
            {"role": "system", "content": "sys"},
            {"role": "user", "content": "user"},
        ]

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError):
            LlmConfig(mode="telepathy")

    @pytest.mark.parametrize("field, value", [
        ("temperature", math.nan), ("temperature", math.inf), ("temperature", -3.0),
    ])
    def test_bad_settings_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            LlmConfig(**{field: value})

    def test_boundary_settings_accepted(self):
        cfg = LlmConfig(temperature=0.0)
        assert build_request(cfg, "sys", "user")["temperature"] == 0.0


class TestStub:
    def test_runs_fully_offline(self, no_network, tmp_path):
        reply, entry = logged_complete(LlmConfig(), tmp_path, "hello")
        assert entry["mode"] == "stub"
        assert entry["model"] == f"stub/{DEFAULT_MODEL}"
        assert reply.startswith("Stub response ")

    def test_narration_matches_deterministic_narrator(self, no_network):
        # Schema names, so the narration reads descriptions from the prompt's dictionary.
        attr = dataclasses.replace(worked_attribution(), feature_names=FY_SCHEMA.feature_names)
        prompt = build_shap_prompt(attr, "the cooling power P(t+1)")
        reply = complete(LlmConfig(), SYSTEM, prompt)
        expected = narrate_attribution(attr, target_desc="the cooling power P(t+1)")
        assert "zone temperature setpoint" in expected
        assert reply == expected

    def test_narration_matches_just_above_a_rounding_boundary(self, no_network):
        # 359.6500004 narrates as 359.7; a prompt that rounds it first to 359.65
        # would narrate 359.6.  Radiation takes the largest phi so it is narrated.
        attr = worked_attribution()
        attr = dataclasses.replace(
            attr,
            feature_names=FY_SCHEMA.feature_names,
            feature_values=np.array([32.7, 359.6500004, 23.5, 25.0, 3.0]),
            shapley_values=attr.shapley_values[[1, 0, 2, 3, 4]],
        )
        prompt = build_shap_prompt(attr, "the cooling power P(t+1)")
        expected = narrate_attribution(attr, target_desc="the cooling power P(t+1)")
        assert "= 359.7)" in expected
        assert complete(LlmConfig(), SYSTEM, prompt) == expected

    def test_scenario_judgment_agrees_with_rubric(self, no_network, mini_episode):
        cfg = LlmConfig()
        for record in mini_episode.records[::5]:
            prompt = build_scenario_prompt(record)
            reply = complete(cfg, SYSTEM, prompt)
            assert parse_scenario(reply) == classify(record), f"t={record.t}"

    def test_answer_mentions_limit_and_penalty(self, no_network, mini_episode):
        context = build_qa_context(mini_episode.records[13], "What is the penalty risk?")
        answer = answer_question(LlmConfig(), context)
        record = mini_episode.records[13]
        assert f"P_limit(t+2) = {record.p_limit_t2_w:.1f}W" in answer
        assert "quadratic penalty" in answer

    def test_usage_and_latency_recorded(self, no_network, tmp_path):
        reply, entry = logged_complete(LlmConfig(), tmp_path, "ping")
        assert entry["usage"] == {"prompt_chars": len(SYSTEM) + len("ping"),
                                  "completion_chars": len(reply)}
        assert entry["latency_seconds"] >= 0.0


class TestOnline:
    """The online gateway on the wire, against loopback endpoints."""

    def test_success_first_try(self, online_cfg, chat_server, tmp_path):
        chat_server.replies = [(200, ok_payload())]
        reply, entry = logged_complete(online_cfg, tmp_path, "user text")
        assert reply == "hello from the service"
        assert entry["mode"] == "online"
        assert entry["model"] == "remote-model"
        assert entry["usage"] == {"total_tokens": 42}
        [(method, path, headers, body)] = chat_server.received
        assert (method, path) == ("POST", "/v1/chat/completions")
        assert headers["Authorization"] == "Bearer sk-test-secret-123"
        assert headers["Content-Type"] == "application/json"
        assert json.loads(body) == build_request(online_cfg, SYSTEM, "user text")

    def test_retries_then_succeeds_with_backoff(self, online_cfg, chat_server, monkeypatch):
        # Twice the connection closes with no answer.
        chat_server.replies = [None, None, (200, ok_payload("third time lucky"))]
        sleeps = []
        monkeypatch.setattr(time, "sleep", lambda s: sleeps.append(s))
        assert complete(online_cfg, SYSTEM, "user") == "third time lucky"
        assert len(chat_server.received) == 3
        assert sleeps == [0.01, 0.02]  # exponential backoff

    def test_refused_connection_retried(self, online_cfg, closed_url, monkeypatch):
        sleeps = []
        monkeypatch.setattr(time, "sleep", lambda s: sleeps.append(s))
        online_cfg.endpoint = closed_url
        error = online_failure(online_cfg, match=f"no response after {MAX_RETRIES} attempts")
        assert not isinstance(error, GatewayTimeoutError)
        assert sleeps == [0.01, 0.02]

    def test_timeout_budget_exhausted(self, online_cfg, silent_url, monkeypatch):
        monkeypatch.setattr(llm_mod, "TIMEOUT_SECONDS", 0.2)
        monkeypatch.setattr(time, "sleep", lambda s: None)
        online_cfg.endpoint = silent_url
        online_failure(online_cfg, GatewayTimeoutError, f"no response after {MAX_RETRIES} attempts")

    def test_server_errors_retried_then_raised(self, online_cfg, chat_server, monkeypatch):
        monkeypatch.setattr(time, "sleep", lambda s: None)
        for status in (429, 503):
            chat_server.received.clear()
            chat_server.replies = [(status, {"error": "busy"})]
            online_failure(online_cfg, match=str(status))
            assert len(chat_server.received) == MAX_RETRIES

    def test_client_error_not_retried(self, online_cfg, chat_server):
        # A success status other than 200 is refused too.
        for status in (400, 201):
            chat_server.received.clear()
            chat_server.replies = [(status, ok_payload())]
            online_failure(online_cfg, match=f"status {status}")
            assert len(chat_server.received) == 1

    def test_tls_failure_not_retried(self, online_cfg, chat_server, monkeypatch):
        # TLS to a plain-text port: the handshake fails, which no retry mends.
        sleeps = []
        monkeypatch.setattr(time, "sleep", lambda s: sleeps.append(s))
        online_cfg.endpoint = chat_server.url.replace("http://", "https://")
        error = online_failure(online_cfg, match="SSL")
        assert not isinstance(error, GatewayTimeoutError)
        assert "attempts" not in str(error)
        assert (chat_server.connections, chat_server.received, sleeps) == (1, [], [])

    def test_malformed_response(self, online_cfg, chat_server):
        # The last body is nested too deep for json: RecursionError, not ValueError.
        for body in ({"nope": True}, b"not json", b"[" * 100_000 + b"]" * 100_000):
            chat_server.replies = [(200, body)]
            online_failure(online_cfg, match="malformed")
        for content in (None, 42, ["text"]):
            chat_server.replies = [(200, ok_payload(content))]
            online_failure(online_cfg, match="malformed chat-completions response")

    def test_missing_endpoint_or_key(self, monkeypatch, no_network):
        monkeypatch.setenv("LLM_API_KEY", "sk-x")
        with pytest.raises(ConfigError, match="endpoint"):
            complete(LlmConfig(mode="online"), SYSTEM, "user")

        monkeypatch.delenv("LLM_API_KEY", raising=False)
        cfg = LlmConfig(mode="online", endpoint="https://gateway.example")
        with pytest.raises(ConfigError, match="LLM_API_KEY") as info:
            complete(cfg, SYSTEM, "user")
        assert "sk-" not in str(info.value)

    @pytest.mark.parametrize("key", ["sk-secret\n", "sk secret", "sk-sécret"])
    def test_key_unfit_for_a_header_refused_unquoted(self, monkeypatch, no_network, key):
        monkeypatch.setenv("LLM_API_KEY", key)
        cfg = LlmConfig(mode="online", endpoint="https://gateway.example")
        with pytest.raises(ConfigError, match="LLM_API_KEY") as info:
            complete(cfg, SYSTEM, "user")
        assert "secret" not in str(info.value)


class TestExchangeLog:
    def test_log_carries_digests_never_key(self, online_cfg, chat_server, tmp_path):
        online_cfg.log_path = str(tmp_path / "exchanges.jsonl")
        chat_server.replies = [(200, ok_payload())]
        complete(online_cfg, SYSTEM, "user prompt with sk-test-secret-123 accidentally pasted")

        raw = (tmp_path / "exchanges.jsonl").read_text()
        assert "sk-test-secret-123" not in raw
        entry = json.loads(raw.splitlines()[0])
        assert entry["mode"] == "online"
        assert len(entry["system_digest"]) == 64
        assert len(entry["user_digest"]) == 64
        assert len(entry["response_digest"]) == 64
        assert "user prompt" not in raw  # prompts stored as digests only

    def test_log_line_fields_in_order(self, no_network, tmp_path):
        cfg = LlmConfig(temperature=0.25)
        reply, entry = logged_complete(cfg, tmp_path, "hello")
        assert list(entry) == ["model", "mode", "temperature", "system_digest", "user_digest",
                               "response_digest", "latency_seconds", "usage"]
        assert entry["temperature"] == 0.25
        digests = [entry[f"{k}_digest"] for k in ("system", "user", "response")]
        assert digests == [hashlib.sha256(text.encode()).hexdigest()
                           for text in (SYSTEM, "hello", reply)]

    def test_stub_exchanges_logged_too(self, no_network, tmp_path):
        cfg = LlmConfig(log_path=str(tmp_path / "log.jsonl"))
        complete(cfg, SYSTEM, "first")
        complete(cfg, SYSTEM, "second")
        lines = (tmp_path / "log.jsonl").read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["mode"] == "stub"

    def test_no_log_by_default(self, no_network, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        complete(LlmConfig(), SYSTEM, "no log expected")
        assert list(tmp_path.iterdir()) == []

