"""Explanation documents and operator Q&A for one control episode.

Every timestep gets a Markdown document built from a scenario template
(Precool / Normal / EventNoPrecool), four Shapley attribution charts, and
template-free narration of the top contributors.  An optional chat gateway
can rewrite the narration or answer free-form questions; the offline stub
used here reproduces the deterministic narration and rubric exactly.

Run from the repository root:  python3 demos/05_explanations_and_qa.py
"""

import tempfile
from pathlib import Path

from xmpc.explain import (
    VARIABLE_DICTIONARY,
    build_qa_context,
    classify,
    narrate_attribution,
    scenario_census,
    write_documents,
)
from xmpc.hub import ATTRIBUTION_KEYS, run_episode
from xmpc.llm import LlmConfig, answer_question
from xmpc.surrogate import FX_SCHEMA, FY_SCHEMA, TrainConfig, train
from xmpc.testbed import TestbedConfig, generate_dr_calendar, run_excitation

cfg = TestbedConfig()
data = run_excitation(n_days=7, cfg=cfg, seed=42)
tcfg = TrainConfig(epochs=4000, learning_rate=3e-3)
fx = train(data, FX_SCHEMA, tcfg)
fy = train(data, FY_SCHEMA, tcfg)
calendar = generate_dr_calendar(n_days=7, event_probability=1.0, seed=7)
episode = run_episode(7, cfg, fx, fy, calendar, seed=7)
print(f"episode: {len(episode)} intervals, census {scenario_census(episode)}")

# Narration without any LLM: rank contributors by |phi|, translate names
# through the variable dictionary, and state push/pull direction.
record = next(r for r in episode.records if r.scenario == 1)
attr = record.attributions["fy_t1"]
print(f"\nnarrating the hour-1 cooling attribution at t={record.t}:")
print(narrate_attribution(attr, VARIABLE_DICTIONARY, "the cooling power P(t+1)"))

# Render the full document set for the precool day into a scratch directory.
out = Path(tempfile.gettempdir()) / "xmpc_docs"
day0 = (record.t // 24) * 24
written = write_documents(episode, out, timesteps=list(range(day0, day0 + 24)))
print(f"\nwrote {len(written)} files to {out} "
      f"({sum(1 for p in written if p.suffix == '.md')} documents, "
      f"{sum(1 for p in written if p.suffix == '.svg')} charts)")

doc = (out / f"ts_{record.t}.md").read_text()
print(f"\n--- ts_{record.t}.md (first 12 lines) ---")
for line in doc.splitlines()[:12]:
    print(line)
print("--- ... ---")

# The stub gateway answers operator questions from the same records.  It is
# fully offline and deterministic; pointing LlmConfig at a chat-completions
# endpoint swaps in a hosted model without changing any calling code.
stub = LlmConfig()  # mode="stub"
for question in (
    "Why did the controller lower the setpoint this hour?",
    "What happens if the cooling power exceeds the limit?",
):
    context = build_qa_context(episode, record.t, question)
    exchange = answer_question(stub, context)
    print(f"\nQ: {question}")
    print(f"A: {exchange.response}")

# The stub's scenario judgment agrees with the deterministic rubric on every
# step, which the acceptance suite checks across a full month.
agree = sum(classify(r) == r.scenario for r in episode.records)
print(f"\nrubric self-consistency over the week: {agree}/{len(episode)}")
print(f"attribution slots per record: {list(ATTRIBUTION_KEYS)}")
