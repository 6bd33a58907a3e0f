"""Chat-completions gateway with a deterministic offline stub.

Two modes share one ``complete()`` entry point, which returns the reply text:

* ``stub`` (default): no network at all.  The stub recognizes the three
  request shapes the explainer produces and answers from the numbers it
  parses back out of the prompt: a narration through the explainer's
  deterministic narrator, a question from the record quoted in it, and a
  scenario judgment by applying the rubric's rule to the threshold and
  ceiling the prompt states, never by calling the rubric, so a judgment
  that agrees with the rubric shows that the prompt states it correctly.
  Everything stays reproducible and the full pipeline runs with
  networking disabled.
* ``online``: POSTs an OpenAI-style ``/chat/completions`` request with the
  configured model and temperature, bearer-authenticated with a key read
  from the ``LLM_API_KEY`` environment variable, through the standard
  library's ``urllib.request``: the usual proxy variables apply, and TLS is
  checked against the system trust store (``SSL_CERT_FILE`` names another).
  Transient failures (refused or reset connections, timeouts, 429, 5xx)
  retry with exponential backoff; the API key is never logged, echoed into
  error messages or sent on a redirect.

With ``LlmConfig.log_path`` set (``--llm-log``), every exchange appends one
JSON line holding the rest: the model, mode and temperature, digests of both
prompts and of the reply, the latency and the usage, never raw key material.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import time
from dataclasses import dataclass
from pathlib import Path
from urllib.parse import urlsplit

import numpy as np

from .errors import ConfigError, GatewayError, GatewayTimeoutError

DEFAULT_MODEL = "gpt-3.5-turbo-0301"

# Online gateway constants.  Every retry is an attempt, the first one
# included; attempt k > 1 waits BACKOFF_SECONDS * 2^(k-2) first.
MAX_TOKENS = 512
TIMEOUT_SECONDS = 30.0
API_KEY_ENV = "LLM_API_KEY"
MAX_RETRIES = 3
BACKOFF_SECONDS = 0.5

QA_SYSTEM_PROMPT = (
    "You are assisting facility operators. Answer the question using only the "
    "explanation document provided in the request; cite its numbers."
)


@dataclass
class LlmConfig:
    mode: str = "stub"  # "stub" or "online"
    endpoint: str = ""
    model: str = DEFAULT_MODEL
    temperature: float = 0.5
    log_path: str | None = None

    def __post_init__(self):
        if self.mode not in ("stub", "online"):
            raise ConfigError(f"unknown gateway mode {self.mode!r}")
        # A NaN or infinite temperature would reach the service as invalid JSON.
        if not (math.isfinite(self.temperature) and self.temperature >= 0.0):
            raise ConfigError(f"temperature must be finite and >= 0, got {self.temperature}")


def build_request(cfg: LlmConfig, system_prompt: str, user_prompt: str) -> dict:
    """The wire-format request body (also used by tests, without sending)."""
    return {
        "model": cfg.model,
        "temperature": cfg.temperature,
        "max_tokens": MAX_TOKENS,
        "messages": [
            {"role": "system", "content": system_prompt},
            {"role": "user", "content": user_prompt},
        ],
    }


def complete(cfg: LlmConfig, system_prompt: str, user_prompt: str) -> str:
    """The reply text of one chat completion in the configured mode, logged if asked."""
    started = time.perf_counter()
    if cfg.mode == "stub":
        response = _stub_response(user_prompt)
        model = f"stub/{cfg.model}"
        usage = {
            "prompt_chars": len(system_prompt) + len(user_prompt),
            "completion_chars": len(response),
        }
    else:
        response, model, usage = _complete_online(cfg, system_prompt, user_prompt)
    if cfg.log_path:
        latency = time.perf_counter() - started
        entry = {
            "model": model,
            "mode": cfg.mode,
            "temperature": cfg.temperature,
            "system_digest": hashlib.sha256(system_prompt.encode()).hexdigest(),
            "user_digest": hashlib.sha256(user_prompt.encode()).hexdigest(),
            "response_digest": hashlib.sha256(response.encode()).hexdigest(),
            "latency_seconds": latency,
            "usage": usage,
        }
        with Path(cfg.log_path).open("a") as fh:
            fh.write(json.dumps(entry) + "\n")
    return response


def answer_question(cfg: LlmConfig, context: str) -> str:
    """The reply to an operator question over a QA context from the explainer."""
    return complete(cfg, QA_SYSTEM_PROMPT, context)


# ---------------------------------------------------------------------------
# Online path
# ---------------------------------------------------------------------------


def online_api_key(cfg: LlmConfig) -> str:
    """The API key for the online gateway; ConfigError if the endpoint or key is unusable."""
    if not cfg.endpoint:
        raise ConfigError("online mode requires a chat-completions endpoint URL (--endpoint)")
    try:
        url = urlsplit(cfg.endpoint)
        usable = url.scheme in ("http", "https") and url.hostname and url.port != 0
    except ValueError:  # a port that is not a number in range, or a broken IPv6 host
        usable = False
    if not (usable and re.fullmatch(r"[!-~]+", cfg.endpoint)):  # printable ASCII, no space
        raise ConfigError(f"--endpoint {cfg.endpoint!r} is not a usable URL: expected "
                          "http(s)://host[:port][/path] in printable ASCII")
    api_key = os.environ.get(API_KEY_ENV, "")
    if not re.fullmatch(r"[!-~]+", api_key):  # a header value; the key itself is never quoted
        raise ConfigError(f"online mode requires an API key in the {API_KEY_ENV} environment "
                          "variable, in printable ASCII")
    return api_key


def _complete_online(
    cfg: LlmConfig, system_prompt: str, user_prompt: str
) -> tuple[str, str, dict]:
    """The reply text, the model the service names and the usage it reports."""
    import http.client
    import ssl
    import urllib.error
    import urllib.request

    api_key = online_api_key(cfg)
    request = urllib.request.Request(
        cfg.endpoint.rstrip("/") + "/chat/completions",
        data=json.dumps(build_request(cfg, system_prompt, user_prompt)).encode(),
        headers={"Content-Type": "application/json"},
    )
    request.add_unredirected_header("Authorization", f"Bearer {api_key}")  # kept off redirects

    last_error: Exception | None = None
    timed_out = False
    for attempt in range(MAX_RETRIES):
        if attempt:
            time.sleep(BACKOFF_SECONDS * 2 ** (attempt - 1))
        try:
            with urllib.request.urlopen(request, timeout=TIMEOUT_SECONDS) as resp:
                status, raw = resp.status, resp.read()
        except urllib.error.HTTPError as exc:  # a status outside 2xx, or a redirect loop
            status = exc.code
            exc.close()
        except (OSError, http.client.HTTPException) as exc:  # URLError wraps a socket's error
            reason = exc.reason if isinstance(exc, urllib.error.URLError) else exc
            if isinstance(reason, ssl.SSLError):  # a certificate failure will not pass on retry
                raise GatewayError(f"request failed ({reason})") from None
            last_error, timed_out = reason, timed_out or isinstance(reason, TimeoutError)
            continue
        if status == 429 or status >= 500:
            last_error = GatewayError(f"service returned status {status}")
            continue
        if status != 200:
            raise GatewayError(f"service returned status {status}")
        try:
            data = json.loads(raw)
            content = data["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError, RecursionError) as exc:
            raise GatewayError(f"malformed chat-completions response ({exc})") from None
        if not isinstance(content, str):
            raise GatewayError(
                f"malformed chat-completions response (content is {type(content).__name__})"
            )
        return content, data.get("model", cfg.model), data.get("usage", {})
    if timed_out:
        raise GatewayTimeoutError(f"no response after {MAX_RETRIES} attempts (last error: timeout)")
    raise GatewayError(f"no response after {MAX_RETRIES} attempts (last error: {last_error})")


# ---------------------------------------------------------------------------
# Offline stub
# ---------------------------------------------------------------------------


def _stub_response(user_prompt: str) -> str:
    if "Shapley values:" in user_prompt and "descriptive paragraph" in user_prompt:
        return _stub_narration(user_prompt)
    if "judge what kind of scenario" in user_prompt:
        return _stub_scenario_judgment(user_prompt)
    if "Question:" in user_prompt:
        return _stub_answer(user_prompt)
    head = hashlib.sha256(user_prompt.encode()).hexdigest()[:12]
    return f"Stub response {head}: no specialized handler matched this request."


def _stub_narration(prompt: str) -> str:
    """Rebuild the attribution from the prompt and run the deterministic narrator."""
    from .explain import narrate_attribution
    from .shapley import Attribution

    shap_match = re.search(r"Shapley values: (.+?)\n\n", prompt, re.S)
    value_match = re.search(r"Variable values: (.+?)\n\n", prompt, re.S)
    target_match = re.search(r"impactful to (.+?)\.\n", prompt, re.S)
    if not (shap_match and value_match):
        return "Stub narration: could not locate Shapley and variable values in the request."

    phis: dict[str, float] = {}
    base = 0.0
    for item in shap_match.group(1).split("; "):
        name, _, number = item.rpartition(" ")
        if name == "expected_value":
            base = float(number)
        elif name:
            phis[name] = float(number)
    values: dict[str, float] = {}
    for item in value_match.group(1).split("; "):
        name, _, number = item.rpartition(" ")
        if name:
            values[name] = float(number)

    names = tuple(phis)
    attribution = Attribution(
        feature_names=names,
        feature_values=np.array([values.get(n, 0.0) for n in names]),
        shapley_values=np.array([phis[n] for n in names]),
        base_value=base,
        prediction=base + sum(phis.values()),
    )
    target = target_match.group(1) if target_match else None
    return narrate_attribution(attribution, target_desc=target)


def _stub_scenario_judgment(prompt: str) -> str:
    # The rules section also spells out "T_spt(t+1) = <ceiling>°C", so the
    # interval's own numbers must be read from the part after the instruction.
    head, _, tail = prompt.partition("judge what kind of scenario")
    tail = tail or prompt
    p2 = _first_float(r"P_limit\(t\+2\) = ([\d.]+)W", tail)
    u1 = _first_float(r"T_spt\(t\+1\) = ([\d.]+)°C", tail)
    threshold = _first_float(r"is below ([\d.]+)W", head or prompt)
    ceiling = _first_float(r"T_spt\(t\+1\) < ([\d.]+)°C", head or prompt)
    if None in (p2, u1, threshold, ceiling):
        return "Stub judgment: the scenario inputs could not be parsed from the request."
    if p2 < threshold and u1 < ceiling:
        n, why = 1, "the upcoming power limit is tightened and the building is pre-cooled"
    elif p2 < threshold:
        n, why = 3, "the upcoming power limit is tightened but the setpoint stays at the ceiling"
    else:
        n, why = 2, "no demand response event is expected in the hour after the next"
    return f"Scenario {n}: {why}."


def _stub_answer(prompt: str) -> str:
    from .explain import SCENARIO_NAMES, parse_scenario

    scenario = parse_scenario(prompt)
    p2 = _first_float(r"P_limit\(t\+2\) = ([\d.]+)W", prompt)
    u1 = _first_float(r"T_spt\(t\+1\) = ([\d.]+)°C", prompt)
    u2 = _first_float(r"T_spt\(t\+2\) = ([\d.]+)°C", prompt)
    y2 = _first_float(r"P\(t\+2\) = ([\d.]+)W", prompt)
    parts = []
    if scenario:
        parts.append(f"This interval is Scenario {scenario} ({SCENARIO_NAMES[scenario]}).")
    if u1 is not None and u2 is not None:
        parts.append(f"The controller set T_spt(t+1) = {u1}°C and T_spt(t+2) = {u2}°C.")
    if p2 is not None:
        parts.append(f"The power limit for the hour after the next is P_limit(t+2) = {p2}W.")
        if y2 is not None:
            relation = "stays under" if y2 <= p2 else "exceeds"
            parts.append(
                f"The predicted cooling power P(t+2) = {y2}W {relation} that limit; any power "
                "above the limit would incur a quadratic penalty in the controller's cost, "
                "which is the penalty risk the setpoints are chosen to manage."
            )
        else:
            parts.append(
                "Cooling power above that limit would incur a quadratic penalty in the "
                "controller's cost, which is the penalty risk the setpoints are chosen to manage."
            )
    if not parts:
        parts.append("The question context carries no recognizable control record.")
    return " ".join(parts)


def _first_float(pattern: str, text: str) -> float | None:
    match = re.search(pattern, text)
    return float(match.group(1)) if match else None

