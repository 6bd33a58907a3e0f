"""Template-driven explanation documents for closed-loop episodes.

Every control interval gets one Markdown document describing what the
controller saw, what it chose, and why, plus four SVG bar charts showing the
Shapley attribution of each horizon prediction.  ``render_document``
returns the document as its Markdown text, which ``write_documents`` writes
and ``build_qa_context`` quotes.  The narrative is the scenario's template,
``TEMPLATES``, read once from the package's ``templates/scenario<n>.txt``
with ``{name}`` placeholders; the attribution paragraphs are produced either
by the deterministic narrator here or, in llm mode, by a chat model prompted
with the same numbers.  A question about one interval is asked over that
whole document (``build_qa_context``).  A cooling prediction is quoted as
the controller costed it, clamped at zero; where the surrogate's output was
negative the summary adds it, as in "P(t+1) = 0.0W (the surrogate's -281.6W,
clamped at zero)", because that raw output is what the attribution explains.

The scenario rubric, ``classify``, lives in ``hub`` next to the record it
reads (see that module's docstring); every document is rendered under the
rubric's label.  In llm mode the chat model is also asked to judge the
scenario from the same inputs; its answer is compared against the rubric,
and the rubric's label always wins in the document while the agreement is
noted in the footer.
"""

from __future__ import annotations

import re
from pathlib import Path

from .charts import attribution_chart_svg, fmt_mean, fmt_phi, fmt_value, ranking_order
from .errors import InvalidInputError, RenderError
from .hub import ATTRIBUTION_KEYS, COMFORT_CEILING_C, Episode, TimestepRecord, classify
from .mpc import clamp_power
from .shapley import Attribution
from .testbed import NORMAL_POWER_LIMIT_W, SETPOINT_GRID_C

SCENARIO_NAMES = {1: "Precool", 2: "Normal", 3: "EventNoPrecool"}

# Each scenario's narrative with the ``{name}`` placeholders ``render_document`` fills.
TEMPLATES = {
    s: (Path(__file__).parent / "templates" / f"scenario{s}.txt").read_text(encoding="utf-8")
    for s in SCENARIO_NAMES
}

# Plain-language descriptions for the feature names the surrogates expose.
VARIABLE_DICTIONARY = {
    "setpoint_t": "zone temperature setpoint",
    "zone_temp_t": "zone air temperature",
    "zone_temp_tminus1": "zone air temperature entering the hour",
    "oa_temp_t": "outdoor air dry-bulb temperature",
    "oa_temp_tminus1": "outdoor air dry-bulb temperature entering the hour",
    "oa_radiation_t": "direct solar radiation rate per area",
    "oa_radiation_tminus1": "direct solar radiation rate per area entering the hour",
    "occupancy_t": "occupancy",
    "occupancy_tminus1": "occupancy entering the hour",
    "zone_temp": "zone air temperature",
    "cooling_rate": "zone cooling rate",
}

# What each attribution key explains, phrased for narration and prompts.
ATTRIBUTION_TARGETS = {
    "fx_t1": "the zone air temperature in the next hour, T_z(t+1)",
    "fy_t1": "the cooling power in the next hour, P(t+1)",
    "fx_t2": "the zone air temperature in the second hour, T_z(t+2)",
    "fy_t2": "the cooling power in the second hour, P(t+2)",
}

MPC_FORMULATION_SUMMARY = (
    "Controller background: every hour a model predictive controller picks cooling "
    f"setpoints for the next two hours from the 1 K grid between {SETPOINT_GRID_C[0]:g}°C and "
    f"{COMFORT_CEILING_C:g}°C by exhaustively costing all {len(SETPOINT_GRID_C) ** 2} pairs. Two "
    "small neural network surrogates trained on simulated building data supply the "
    "predictions: one maps (setpoint, zone temperature, outdoor temperature, solar radiation, "
    "occupancy) to the next hour's zone temperature, the other to that hour's average cooling "
    "power. A candidate's cost is the predicted cooling power of both hours plus a quadratic "
    "penalty on any power above that hour's demand-response limit, so tightened limits make "
    "the controller pre-cool: it buys cheaper cooling early to hold the limited hour under "
    "its cap. Only the first setpoint is applied before the optimization repeats."
)


# ---------------------------------------------------------------------------
# Scenario census
# ---------------------------------------------------------------------------


def scenario_census(episode: Episode) -> dict[int, int]:
    """Count of records per scenario label; keys 1, 2, 3 always present."""
    counts = {1: 0, 2: 0, 3: 0}
    for record in episode.records:
        counts[record.scenario] += 1
    return counts


# ---------------------------------------------------------------------------
# Deterministic narration and prompt building
# ---------------------------------------------------------------------------


def narrate_attribution(attribution: Attribution, target_desc: str | None = None) -> str:
    """One deterministic paragraph: top-3 features by |phi| with directions.

    Ties in |phi| resolve by schema order.  The base (expected) value is
    always mentioned so the reader can reconstruct the prediction from the
    listed contributions.  Feature names are described through
    ``VARIABLE_DICTIONARY``; a name it lacks is shown as is.
    """
    target = target_desc or "the model output"
    order = ranking_order(attribution)
    top = order[:3]
    sentences = [
        f"The model predicts {target} at {fmt_mean(attribution.prediction)}, against "
        f"an expected value of {fmt_mean(attribution.base_value)} over the background data."
    ]
    for i in top:
        name = attribution.feature_names[i]
        desc = VARIABLE_DICTIONARY.get(name, name)
        phi = float(attribution.shapley_values[i])
        if phi > 0:
            direction = "pushing the prediction above the expected value"
        elif phi < 0:
            direction = "pulling the prediction below the expected value"
        else:
            direction = "leaving the prediction at the expected value"
        sentences.append(
            f"The {desc} ({name} = {fmt_value(float(attribution.feature_values[i]))}) "
            f"carries a Shapley value of {fmt_phi(phi)}, {direction}."
        )
    return " ".join(sentences)


def build_shap_prompt(attribution: Attribution, target_desc: str | None = None) -> str:
    """The narration request sent to the chat model in llm mode.

    Numbers are written with ``!r``, so the stub reads back the exact attribution.
    """
    target = target_desc or "the model output"
    shap_items = "; ".join(
        f"{name} {float(phi)!r}"
        for name, phi in zip(attribution.feature_names, attribution.shapley_values)
    )
    value_items = "; ".join(
        f"{name} {float(v)!r}"
        for name, v in zip(attribution.feature_names, attribution.feature_values)
    )
    dict_items = ", ".join(f"{k}: {v}" for k, v in VARIABLE_DICTIONARY.items())
    return (
        "Based on the Shapley values and variable values, please help me generate a "
        "descriptive paragraph:\n\n"
        f"Shapley values: {shap_items}; expected_value {float(attribution.base_value)!r}\n\n"
        f"Variable values: {value_items}\n\n"
        "Only introduce the largest 3 impactful features plus the expected value. "
        f"Also, explain the potential reason why these features are impactful to {target}.\n\n"
        f"The variable dictionary is listed as follows: {{{dict_items}}}"
    )


def build_scenario_prompt(record: TimestepRecord) -> str:
    """The scenario-judgment request sent to the chat model in llm mode."""
    threshold = fmt_value(NORMAL_POWER_LIMIT_W)
    ceiling = fmt_value(COMFORT_CEILING_C)
    return (
        "A model predictive controller chooses the cooling setpoints for the next two "
        "hours. Scenario 1: the power limit in the hour after the next is below "
        f"{threshold}W and the building is pre-cooled, T_spt(t+1) < {ceiling}°C. "
        "Scenario 2: the power limit in the hour after the next is not tightened. "
        "Scenario 3: the power limit in the hour after the next is below "
        f"{threshold}W but the building is not pre-cooled, "
        f"T_spt(t+1) = {ceiling}°C.\n\n"
        "Based on the following inputs, judge what kind of scenario it is and answer "
        "with the scenario number first:\n"
        f"P_limit(t+1) = {fmt_value(record.p_limit_t1_w)}W; "
        f"P_limit(t+2) = {fmt_value(record.p_limit_t2_w)}W; "
        f"T_spt(t+1) = {fmt_value(record.setpoint_c)}°C; "
        f"T_spt(t+2) = {fmt_value(record.decision.u2_c)}°C"
    )


def parse_scenario(text: str) -> int | None:
    """Extract the first scenario number from a model response."""
    match = re.search(r"[Ss]cenario\s*([123])", text)
    return int(match.group(1)) if match else None


# ---------------------------------------------------------------------------
# Document rendering
# ---------------------------------------------------------------------------


def figure_name(t: int, k: int) -> str:
    return f"ts_{t}_attr{k}.svg"


def _power(raw: float) -> str:
    """A cooling prediction as the controller costed it, naming a surrogate output it clamped."""
    costed = f"{fmt_value(clamp_power(raw))}W"
    if raw >= 0.0:
        return costed
    return f"{costed} (the surrogate's {fmt_value(raw)}W, clamped at zero)"


def _header_block(record: TimestepRecord) -> str:
    day, hod = divmod(record.t, 24)
    d, w = record.decision, record.disturbance
    return (
        f"In timestep {record.t} (day {day}, {hod:02d}:00):\n\n"
        f"Future power limits: P_limit(t+1) = {fmt_value(record.p_limit_t1_w)}W, "
        f"P_limit(t+2) = {fmt_value(record.p_limit_t2_w)}W, "
        f"P_limit(threshold) = {fmt_value(NORMAL_POWER_LIMIT_W)}W.\n\n"
        "State, boundary conditions, and decisions: "
        f"T_z(t) = {fmt_value(record.zone_temp_c)}°C, "
        f"OAT(t) = {fmt_value(w.oa_temp_c)}°C, "
        f"Radiation_direct(t) = {fmt_value(w.oa_radiation_wm2)}W/m2, "
        f"OCC(t) = {fmt_value(w.occupancy)}, "
        f"T_spt(t+1) = {fmt_value(d.u1_c)}°C, "
        f"T_spt(t+2) = {fmt_value(d.u2_c)}°C.\n\n"
        "Model predictions: "
        f"T_z(t+1) = {fmt_value(d.x1_c)}°C, P(t+1) = {_power(d.y1_w)}, "
        f"T_z(t+2) = {fmt_value(d.x2_c)}°C, P(t+2) = {_power(d.y2_w)}. "
        f"Realized cooling this hour: {fmt_value(record.cooling_rate_w)}W."
    )


def _comparative(value: float, limit: float) -> str:
    if value < limit:
        return "less than"
    if value > limit:
        return "greater than"
    return "equal to"


def _rationale(record: TimestepRecord, scenario: int) -> str:
    d = record.decision
    if scenario == 1:
        hold_cost = fmt_value(d.candidate_cost(COMFORT_CEILING_C, COMFORT_CEILING_C))
        return (
            "Rationale: pre-cooling ahead of the event was the cheapest plan in the "
            f"candidate table (cost {fmt_value(d.cost)} against {hold_cost} for holding "
            "the ceiling)."
        )
    if scenario == 3:
        return (
            "Rationale: the event is visible but pre-cooling offered no cost advantage, "
            "so the comfort ceiling is kept."
        )
    return (
        "Rationale: no demand response event is visible in the lookahead, so the "
        "controller follows the lowest predicted cooling power."
    )


def render_document(record: TimestepRecord, llm_config=None) -> str:
    """One interval's Markdown document, in llm mode when given an ``LlmConfig``.

    Without one, the deterministic narrator writes the four attribution
    paragraphs.  With one, they and a scenario judgment come from the chat
    gateway (which may itself be its offline stub); the deterministic rubric
    still decides the displayed scenario.  A narration that still holds a
    ``[placeholder]`` token is a ``RenderError``.
    """
    scenario = classify(record)
    d, attributions = record.decision, record.attributions

    if llm_config is None:
        narrations = {key: narrate_attribution(attributions[key], ATTRIBUTION_TARGETS[key])
                      for key in ATTRIBUTION_KEYS}
        footer = "Rendering mode: deterministic."
    else:
        from .llm import complete  # at call time, where a traced run wraps it

        narrations = {
            key: complete(llm_config, NARRATOR_SYSTEM_PROMPT,
                          build_shap_prompt(attributions[key], ATTRIBUTION_TARGETS[key])).strip()
            for key in ATTRIBUTION_KEYS
        }
        judgment = complete(llm_config, NARRATOR_SYSTEM_PROMPT, build_scenario_prompt(record))
        footer = "Rendering mode: llm. The language model's scenario judgment " + (
            "agrees with the rubric." if parse_scenario(judgment) == scenario
            else "disagrees with the rubric; the rubric label is shown."
        )

    mapping = {
        "P_limit_t1": fmt_value(record.p_limit_t1_w),
        "P_limit_t2": fmt_value(record.p_limit_t2_w),
        "P_limit_threshold": fmt_value(NORMAL_POWER_LIMIT_W),
        "comfort_ceiling": fmt_value(COMFORT_CEILING_C),
        "T_spt_t1": fmt_value(d.u1_c),
        "T_spt_t2": fmt_value(d.u2_c),
        "T_z_t1": fmt_value(d.x1_c),
        "T_z_t2": fmt_value(d.x2_c),
        "P_t1": fmt_value(clamp_power(d.y1_w)),
        "P_t2": fmt_value(clamp_power(d.y2_w)),
        "P_t2_vs_limit": _comparative(d.y2_w, record.p_limit_t2_w),
        "penalty_outcome": (
            "which avoids the penalty from the demand response event."
            if d.y2_w <= record.p_limit_t2_w
            else "which still exceeds the limit, so the penalty is reduced rather than avoided."
        ),
        "shap_para_fx1": narrations["fx_t1"],
        "shap_para_fy1": narrations["fy_t1"],
        "shap_para_fx2": narrations["fx_t2"],
        "shap_para_fy2": narrations["fy_t2"],
    }
    for k in range(1, 5):
        mapping[f"fig_ref_{k}"] = f"[attribution chart {k}]({figure_name(record.t, k)})"

    paragraph = TEMPLATES[scenario].format(**mapping).strip()
    if "[placeholder]" in paragraph:
        raise RenderError(f"unfilled placeholder token survived in scenario {scenario} template")

    return (
        f"# Timestep {record.t}: Scenario {scenario} ({SCENARIO_NAMES[scenario]})\n\n"
        f"{_header_block(record)}\n\n{paragraph}\n\n{_rationale(record, scenario)}\n\n"
        f"{footer}\n"
    )


def write_documents(
    records: list[TimestepRecord], out_dir: str | Path, llm_config=None
) -> list[Path]:
    """Render documents and charts for the given records, in llm mode given an ``LlmConfig``.

    Emits ``ts_<t>.md`` plus ``ts_<t>_attr<k>.svg`` for k in 1..4 and
    returns every path written.
    """
    out_dir = Path(out_dir)
    written: list[Path] = []
    for record in records:
        text = render_document(record, llm_config)
        if not written:  # only once a document has rendered, so a failed first one leaves no dir
            out_dir.mkdir(parents=True, exist_ok=True)
        md_path = out_dir / f"ts_{record.t}.md"
        md_path.write_text(text)
        written.append(md_path)
        for k, (key, attribution) in enumerate(record.attributions.items(), start=1):
            svg_path = out_dir / figure_name(record.t, k)
            title = f"Shapley attribution: {ATTRIBUTION_TARGETS[key]}"
            svg_path.write_text(attribution_chart_svg(attribution, title))
            written.append(svg_path)
    return written


# ---------------------------------------------------------------------------
# Question answering context
# ---------------------------------------------------------------------------


def build_qa_context(record: TimestepRecord, question: str) -> str:
    """The QA prompt about one record: formulation summary, whole document, question.

    The record's deterministic document is included whole, every
    attribution paragraph with it.
    """
    if not question or not question.strip():
        raise InvalidInputError("question must be a non-empty string")
    doc_text = render_document(record)
    return f"{MPC_FORMULATION_SUMMARY}\n\n{doc_text}\nQuestion: {question.strip()}\n"


NARRATOR_SYSTEM_PROMPT = (
    "You are a building control engineer explaining a model predictive controller's "
    "decisions to facility operators. Be concise and factual; use only the numbers "
    "provided in the request.\n\n" + MPC_FORMULATION_SUMMARY
)
