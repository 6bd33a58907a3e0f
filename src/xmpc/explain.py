"""Template-driven explanation documents for closed-loop episodes.

Every control interval gets one Markdown document describing what the
controller saw, what it chose, and why, plus four SVG bar charts showing the
Shapley attribution of each horizon prediction.  The narrative skeleton
comes from per-scenario template files with ``{name}`` placeholders; the
attribution paragraphs are produced either by the deterministic narrator
here or, in llm mode, by a chat model prompted with the same numbers.

Scenario rubric (deterministic, evaluated per record):

* Scenario 1, "Precool": the power limit two reporting ticks ahead is below
  the normal 5000 W ceiling and the chosen first-hour setpoint is below the
  26 degC comfort ceiling.
* Scenario 3, "EventNoPrecool": the limit is tightened but the setpoint
  stays at the ceiling.
* Scenario 2, "Normal": everything else.

In llm mode the chat model is also asked to judge the scenario from the same
inputs; its answer is compared against this rubric, and the rubric's label
always wins in the document while the agreement is noted in the footer.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass, field
from pathlib import Path

from .charts import attribution_chart_svg, ranking_order
from .errors import ConfigError, InvalidInputError, RenderError
from .hub import ATTRIBUTION_KEYS, Episode, TimestepRecord
from .shapley import Attribution
from .testbed import NORMAL_POWER_LIMIT_W

COMFORT_CEILING_C = 26.0

SCENARIO_NAMES = {1: "Precool", 2: "Normal", 3: "EventNoPrecool"}

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
    "setpoints for the next two hours from the 1 K grid between 22°C and 26°C by "
    "exhaustively costing all 25 pairs. Two small neural network surrogates trained on "
    "simulated building data supply the predictions: one maps (setpoint, zone "
    "temperature, outdoor temperature, solar radiation, occupancy) to the next hour's "
    "zone temperature, the other to that hour's average cooling power. A candidate's "
    "cost is the predicted cooling power of both hours plus a quadratic penalty on any "
    "power above that hour's demand-response limit, so tightened limits make the "
    "controller pre-cool: it buys cheaper cooling early to hold the limited hour under "
    "its cap. Only the first setpoint is applied before the optimization repeats."
)


# ---------------------------------------------------------------------------
# Scenario rubric
# ---------------------------------------------------------------------------


def classify(
    record: TimestepRecord,
    threshold_w: float = NORMAL_POWER_LIMIT_W,
    comfort_ceiling_c: float = COMFORT_CEILING_C,
) -> int:
    """Deterministic scenario label for one record (see module docstring)."""
    event_ahead = record.p_limit_t2_w < threshold_w
    if event_ahead and record.setpoint_c < comfort_ceiling_c:
        return 1
    if event_ahead:
        return 3
    return 2


def scenario_census(episode: Episode) -> dict[int, int]:
    """Count of records per scenario label; keys 1, 2, 3 always present.

    A record counts under its stored label; only unlabelled records are
    classified here.
    """
    counts = {1: 0, 2: 0, 3: 0}
    for record in episode.records:
        label = record.scenario
        counts[classify(record) if label is None else label] += 1
    return counts


# ---------------------------------------------------------------------------
# Number formatting
# ---------------------------------------------------------------------------
# The faithfulness contract is that every numeral in a document can be traced
# back to a record or attribution value, so all rendering funnels through
# these helpers and the tests reuse them to build the expected value set.


def fmt_temp(v: float) -> str:
    return f"{v:.1f}"


def fmt_power(v: float) -> str:
    return f"{v:.1f}"


def fmt_value(v: float) -> str:
    return f"{v:.1f}"


def fmt_mean(v: float) -> str:
    return f"{v:.2f}"


def fmt_phi(v: float) -> str:
    return f"{v:+.2f}"


# ---------------------------------------------------------------------------
# Deterministic narration and prompt building
# ---------------------------------------------------------------------------


def narrate_attribution(
    attribution: Attribution,
    dictionary: dict[str, str] | None = None,
    target_desc: str | None = None,
) -> str:
    """One deterministic paragraph: top-3 features by |phi| with directions.

    Ties in |phi| resolve by schema order.  The base (expected) value is
    always mentioned so the reader can reconstruct the prediction from the
    listed contributions.
    """
    dictionary = dictionary if dictionary is not None else VARIABLE_DICTIONARY
    target = target_desc or "the model output"
    order = ranking_order(attribution)
    top = order[:3]
    sentences = [
        f"The model predicts {target} at {fmt_mean(attribution.prediction)}, against "
        f"an expected value of {fmt_mean(attribution.base_value)} over the background data."
    ]
    for i in top:
        name = attribution.feature_names[i]
        desc = dictionary.get(name, name)
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


def build_shap_prompt(
    attribution: Attribution,
    dictionary: dict[str, str] | None = None,
    target_desc: str | None = None,
) -> str:
    """The narration request sent to the chat model in llm mode."""
    dictionary = dictionary if dictionary is not None else VARIABLE_DICTIONARY
    target = target_desc or "the model output"
    shap_items = "; ".join(
        f"{name} {float(phi):.6f}"
        for name, phi in zip(attribution.feature_names, attribution.shapley_values)
    )
    value_items = "; ".join(
        f"{name} {float(v):g}"
        for name, v in zip(attribution.feature_names, attribution.feature_values)
    )
    dict_items = ", ".join(f"{k}: {v}" for k, v in dictionary.items())
    return (
        "Based on the Shapley values and variable values, please help me generate a "
        "descriptive paragraph:\n\n"
        f"Shapley values: {shap_items}; expected_value {attribution.base_value:.6f}\n\n"
        f"Variable values: {value_items}\n\n"
        "Only introduce the largest 3 impactful features plus the expected value. "
        f"Also, explain the potential reason why these features are impactful to {target}.\n\n"
        f"The variable dictionary is listed as follows: {{{dict_items}}}"
    )


def build_scenario_prompt(record: TimestepRecord, threshold_w: float = NORMAL_POWER_LIMIT_W) -> str:
    """The scenario-judgment request sent to the chat model in llm mode."""
    ceiling = fmt_temp(COMFORT_CEILING_C)
    return (
        "A model predictive controller chooses the cooling setpoints for the next two "
        "hours. Scenario 1: the power limit in the hour after the next is below "
        f"{fmt_power(threshold_w)}W and the building is pre-cooled, T_spt(t+1) < {ceiling}°C. "
        "Scenario 2: the power limit in the hour after the next is not tightened. "
        "Scenario 3: the power limit in the hour after the next is below "
        f"{fmt_power(threshold_w)}W but the building is not pre-cooled, "
        f"T_spt(t+1) = {ceiling}°C.\n\n"
        "Based on the following inputs, judge what kind of scenario it is and answer "
        "with the scenario number first:\n"
        f"P_limit(t+1) = {fmt_power(record.p_limit_t1_w)}W; "
        f"P_limit(t+2) = {fmt_power(record.p_limit_t2_w)}W; "
        f"T_spt(t+1) = {fmt_temp(record.setpoint_c)}°C; "
        f"T_spt(t+2) = {fmt_temp(record.decision.u2_c)}°C"
    )


def parse_scenario(text: str) -> int | None:
    """Extract the first scenario number from a model response."""
    match = re.search(r"[Ss]cenario\s*([123])", text)
    return int(match.group(1)) if match else None


# ---------------------------------------------------------------------------
# Templates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PromptTemplate:
    """One scenario's narrative skeleton with ``{name}`` placeholders."""

    scenario: int
    text: str

    @property
    def placeholders(self) -> tuple[str, ...]:
        names = []
        for _, name, _, _ in string.Formatter().parse(self.text):
            if name and name not in names:
                names.append(name)
        return tuple(names)

    def render(self, mapping: dict[str, str]) -> str:
        missing = [name for name in self.placeholders if name not in mapping]
        if missing:
            raise RenderError(
                f"scenario {self.scenario} template is missing values for {missing}"
            )
        return self.text.format(**mapping).strip()


def default_template_dir() -> Path:
    return Path(__file__).parent / "templates"


def load_templates(directory: str | Path | None = None) -> dict[int, PromptTemplate]:
    """Load scenario1.txt .. scenario3.txt; a missing file is a startup error."""
    directory = Path(directory) if directory is not None else default_template_dir()
    templates = {}
    for scenario in (1, 2, 3):
        path = directory / f"scenario{scenario}.txt"
        if not path.is_file():
            raise ConfigError(f"missing template file {path}")
        templates[scenario] = PromptTemplate(scenario=scenario, text=path.read_text())
    return templates


# ---------------------------------------------------------------------------
# Document rendering
# ---------------------------------------------------------------------------


@dataclass
class ExplanationDoc:
    """One interval's rendered explanation and its chart file names."""

    t: int
    scenario: int
    mode: str
    header_block: str
    scenario_paragraph: str
    attribution_paragraphs: list[str]
    rationale: str
    llm_agreement: bool | None = None
    figure_names: list[str] = field(default_factory=list)

    def markdown(self) -> str:
        footer = f"Rendering mode: {self.mode}."
        if self.llm_agreement is True:
            footer += " The language model's scenario judgment agrees with the rubric."
        elif self.llm_agreement is False:
            footer += (
                " The language model's scenario judgment disagrees with the rubric; "
                "the rubric label is shown."
            )
        return (
            f"# Timestep {self.t}: Scenario {self.scenario} ({SCENARIO_NAMES[self.scenario]})\n\n"
            f"{self.header_block}\n\n"
            f"{self.scenario_paragraph}\n\n"
            f"{self.rationale}\n\n"
            f"{footer}\n"
        )


def figure_name(t: int, k: int) -> str:
    return f"ts_{t}_attr{k}.svg"


def _header_block(record: TimestepRecord, threshold_w: float) -> str:
    day, hod = divmod(record.t, 24)
    d = record.decision
    return (
        f"In timestep {record.t} (day {day}, {hod:02d}:00):\n\n"
        f"Future power limits: P_limit(t+1) = {fmt_power(record.p_limit_t1_w)}W, "
        f"P_limit(t+2) = {fmt_power(record.p_limit_t2_w)}W, "
        f"P_limit(threshold) = {fmt_power(threshold_w)}W.\n\n"
        "State, boundary conditions, and decisions: "
        f"T_z(t) = {fmt_temp(record.zone_temp_c)}°C, "
        f"OAT(t) = {fmt_temp(record.oa_temp_c)}°C, "
        f"Radiation_direct(t) = {fmt_value(record.oa_radiation_wm2)}W/m2, "
        f"OCC(t) = {fmt_value(record.occupancy)}, "
        f"T_spt(t+1) = {fmt_temp(d.u1_c)}°C, "
        f"T_spt(t+2) = {fmt_temp(d.u2_c)}°C.\n\n"
        "Model predictions: "
        f"T_z(t+1) = {fmt_temp(d.x1_c)}°C, P(t+1) = {fmt_power(d.y1_w)}W, "
        f"T_z(t+2) = {fmt_temp(d.x2_c)}°C, P(t+2) = {fmt_power(d.y2_w)}W. "
        f"Realized cooling this hour: {fmt_power(record.cooling_rate_w)}W."
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
        try:
            hold_cost = d.candidate_cost(COMFORT_CEILING_C, COMFORT_CEILING_C)
            hold = f" (cost {d.cost:.1f} against {hold_cost:.1f} for holding the ceiling)"
        except KeyError:
            hold = ""
        return (
            "Rationale: pre-cooling ahead of the event was the cheapest plan in the "
            f"candidate table{hold}."
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


def render_document(
    record: TimestepRecord,
    templates: dict[int, PromptTemplate] | None = None,
    mode: str = "deterministic",
    llm_config=None,
    threshold_w: float = NORMAL_POWER_LIMIT_W,
) -> ExplanationDoc:
    """Render one interval's document in deterministic or llm mode.

    In llm mode the four narration paragraphs and the scenario judgment come
    from the chat gateway (which may itself be its offline stub); the
    deterministic rubric still decides the displayed scenario.
    """
    if mode not in ("deterministic", "llm"):
        raise ConfigError(f"unknown rendering mode {mode!r}")
    templates = templates if templates is not None else load_templates()
    scenario = classify(record, threshold_w)
    d = record.decision

    narrations: dict[str, str] = {}
    agreement: bool | None = None
    if mode == "llm":
        from .llm import LlmConfig, complete

        cfg = llm_config if llm_config is not None else LlmConfig()
        for key in ATTRIBUTION_KEYS:
            prompt = build_shap_prompt(
                record.attributions[key], target_desc=ATTRIBUTION_TARGETS[key]
            )
            narrations[key] = complete(cfg, NARRATOR_SYSTEM_PROMPT, prompt).response.strip()
        judgment = complete(cfg, NARRATOR_SYSTEM_PROMPT, build_scenario_prompt(record, threshold_w))
        agreement = parse_scenario(judgment.response) == scenario
    else:
        for key in ATTRIBUTION_KEYS:
            narrations[key] = narrate_attribution(
                record.attributions[key], target_desc=ATTRIBUTION_TARGETS[key]
            )

    mapping = {
        "P_limit_t1": fmt_power(record.p_limit_t1_w),
        "P_limit_t2": fmt_power(record.p_limit_t2_w),
        "P_limit_threshold": fmt_power(threshold_w),
        "comfort_ceiling": fmt_temp(COMFORT_CEILING_C),
        "T_spt_t1": fmt_temp(d.u1_c),
        "T_spt_t2": fmt_temp(d.u2_c),
        "T_z_t1": fmt_temp(d.x1_c),
        "T_z_t2": fmt_temp(d.x2_c),
        "P_t1": fmt_power(d.y1_w),
        "P_t2": fmt_power(d.y2_w),
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

    paragraph = templates[scenario].render(mapping)
    if "[placeholder]" in paragraph:
        raise RenderError(f"unfilled placeholder token survived in scenario {scenario} template")

    return ExplanationDoc(
        t=record.t,
        scenario=scenario,
        mode=mode,
        header_block=_header_block(record, threshold_w),
        scenario_paragraph=paragraph,
        attribution_paragraphs=[narrations[key] for key in ATTRIBUTION_KEYS],
        rationale=_rationale(record, scenario),
        llm_agreement=agreement,
        figure_names=[figure_name(record.t, k) for k in range(1, 5)],
    )


def _records_at(episode: Episode, timesteps: list[int]) -> list[TimestepRecord]:
    """The episode's records for the given hour indices, in the order asked."""
    by_t = {record.t: record for record in episode.records}
    if not by_t:
        raise InvalidInputError("episode has no records")
    unknown = [t for t in timesteps if t not in by_t]
    if unknown:
        raise InvalidInputError(f"timesteps {unknown} not in episode (valid range 0..{max(by_t)})")
    return [by_t[t] for t in timesteps]


def write_documents(
    episode: Episode,
    out_dir: str | Path,
    mode: str = "deterministic",
    llm_config=None,
    timesteps: list[int] | None = None,
    templates: dict[int, PromptTemplate] | None = None,
) -> list[Path]:
    """Render documents and charts for the chosen timesteps (default: all).

    Emits ``ts_<t>.md`` plus ``ts_<t>_attr<k>.svg`` for k in 1..4 and
    returns every path written.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    templates = templates if templates is not None else load_templates()
    records = episode.records if timesteps is None else _records_at(episode, timesteps)

    written: list[Path] = []
    for record in records:
        doc = render_document(record, templates, mode=mode, llm_config=llm_config)
        md_path = out_dir / f"ts_{record.t}.md"
        md_path.write_text(doc.markdown())
        written.append(md_path)
        for k, key in enumerate(ATTRIBUTION_KEYS, start=1):
            svg_path = out_dir / figure_name(record.t, k)
            title = f"Shapley attribution: {ATTRIBUTION_TARGETS[key]}"
            svg_path.write_text(attribution_chart_svg(record.attributions[key], title))
            written.append(svg_path)
    return written


# ---------------------------------------------------------------------------
# Question answering context
# ---------------------------------------------------------------------------


def build_qa_context(
    episode: Episode,
    t: int,
    question: str,
    budget_chars: int = 12000,
    templates: dict[int, PromptTemplate] | None = None,
) -> str:
    """Assemble the QA prompt: formulation summary, document, question.

    If the assembled context exceeds the budget, attribution paragraphs are
    dropped from the document text last-first until it fits; the decision
    numbers and scenario logic always survive.
    """
    if not question or not question.strip():
        raise InvalidInputError("question must be a non-empty string")
    [record] = _records_at(episode, [t])
    doc = render_document(record, templates, mode="deterministic")

    doc_text = doc.markdown()
    context = f"{MPC_FORMULATION_SUMMARY}\n\n{doc_text}\nQuestion: {question.strip()}\n"
    for paragraph in reversed(doc.attribution_paragraphs):
        if len(context) <= budget_chars:
            break
        doc_text = doc_text.replace(paragraph, "", 1)
        context = f"{MPC_FORMULATION_SUMMARY}\n\n{doc_text}\nQuestion: {question.strip()}\n"
    return context


NARRATOR_SYSTEM_PROMPT = (
    "You are a building control engineer explaining a model predictive controller's "
    "decisions to facility operators. Be concise and factual; use only the numbers "
    "provided in the request.\n\n" + MPC_FORMULATION_SUMMARY
)
