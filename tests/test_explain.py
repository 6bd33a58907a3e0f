"""Scenario rubric, narration, templates, document rendering, QA context."""

from __future__ import annotations

import re

import numpy as np
import pytest

from xmpc.errors import ConfigError, InvalidInputError, RenderError
from xmpc.explain import (
    ATTRIBUTION_TARGETS,
    COMFORT_CEILING_C,
    MPC_FORMULATION_SUMMARY,
    SCENARIO_NAMES,
    VARIABLE_DICTIONARY,
    PromptTemplate,
    build_qa_context,
    build_scenario_prompt,
    build_shap_prompt,
    classify,
    default_template_dir,
    figure_name,
    fmt_mean,
    fmt_phi,
    fmt_power,
    fmt_temp,
    fmt_value,
    load_templates,
    narrate_attribution,
    parse_scenario,
    render_document,
    scenario_census,
    write_documents,
)
from xmpc.hub import ATTRIBUTION_KEYS, Episode, TimestepRecord
from xmpc.mpc import MpcDecision
from xmpc.shapley import Attribution

WORKED_ATTR = Attribution(
    feature_names=("oa_temp", "oa_radiation", "zone_temp", "zone_clg_tstat", "zone_occ"),
    feature_values=np.array([32.7, 513.0, 23.5, 25.0, 3.0]),
    shapley_values=np.array([680.369781, 33.052102, 18.838554, -113.826475, -98.523013]),
    base_value=1544.673602,
    prediction=2064.584551,
    background_size=256,
    method="exact",
)

WORKED_DICTIONARY = {
    "oa_temp": "outdoor air dry-bulb temperature",
    "oa_radiation": "direct solar radiation rate per area",
    "zone_temp": "zone air temperature",
    "zone_clg_tstat": "zone temperature setpoint",
    "zone_occ": "occupancy",
}


def fake_record(p_limit_t2: float, u1: float, t: int = 0) -> TimestepRecord:
    decision = MpcDecision(
        u1_c=u1, u2_c=26.0, x1_c=24.0, x2_c=24.5, y1_w=1000.0, y2_w=900.0,
        v1=0.0, v2=0.0, cost=1900.0,
    )
    return TimestepRecord(
        t=t, zone_temp_c=25.0, oa_temp_c=33.0, oa_radiation_wm2=400.0, occupancy=3.0,
        setpoint_c=u1, cooling_rate_w=1100.0, p_limit_t1_w=5000.0, p_limit_t2_w=p_limit_t2,
        decision=decision, attributions={},
    )


def first_of(episode, scenario: int) -> TimestepRecord:
    return next(r for r in episode.records if r.scenario == scenario)


def expected_numerals(record: TimestepRecord, threshold_w: float = 5000.0) -> set[str]:
    """Every numeral a rendered document may cite, from the record alone.

    Built with the same fmt helpers the renderer documents as its contract,
    so any numeral outside this set cannot trace back to the record.  Tokens
    are stored unsigned because the extraction regex never captures a minus
    sign (negative cooling predictions render as e.g. "-99.04").
    """
    d = record.decision
    day, hod = divmod(record.t, 24)
    signed = {
        str(record.t), str(day), f"{hod:02d}", str(hod), "00",
        "1", "2", "3", "4",  # scenario labels and figure indices
        fmt_power(record.p_limit_t1_w), fmt_power(record.p_limit_t2_w),
        fmt_power(threshold_w),
        fmt_temp(record.zone_temp_c), fmt_temp(record.oa_temp_c),
        fmt_value(record.oa_radiation_wm2), fmt_value(record.occupancy),
        fmt_temp(d.u1_c), fmt_temp(d.u2_c), fmt_temp(d.x1_c), fmt_temp(d.x2_c),
        fmt_power(d.y1_w), fmt_power(d.y2_w),
        fmt_power(record.cooling_rate_w),
        fmt_temp(COMFORT_CEILING_C),
        f"{d.cost:.1f}",
    }
    try:
        signed.add(f"{d.candidate_cost(26.0, 26.0):.1f}")
    except KeyError:
        pass
    for key in ATTRIBUTION_KEYS:
        attr = record.attributions[key]
        signed.add(fmt_mean(attr.prediction))
        signed.add(fmt_mean(attr.base_value))
        for v in attr.feature_values:
            signed.add(fmt_value(float(v)))
        for phi in attr.shapley_values:
            signed.add(f"{abs(float(phi)):.2f}")
    return {token.lstrip("-") for token in signed}


class TestClassify:
    def test_rubric_corners(self):
        assert classify(fake_record(1500.0, 24.0)) == 1
        assert classify(fake_record(1500.0, 26.0)) == 3
        assert classify(fake_record(5000.0, 26.0)) == 2
        # An untightened limit never yields scenario 1, whatever the setpoint.
        assert classify(fake_record(5000.0, 22.0)) == 2

    def test_threshold_boundary(self):
        assert classify(fake_record(4999.99, 26.0)) == 3
        assert classify(fake_record(5000.0, 26.0)) == 2

    def test_scenario_names(self):
        assert SCENARIO_NAMES == {1: "Precool", 2: "Normal", 3: "EventNoPrecool"}

    def test_census_partitions_episode(self, episode):
        census = scenario_census(episode)
        assert set(census) == {1, 2, 3}
        assert sum(census.values()) == len(episode)
        # Stability: the stored labels are exactly what reclassification gives.
        for record in episode.records:
            assert record.scenario == classify(record)
        assert census == scenario_census(episode)

    def test_census_counts_stored_labels(self):
        # Both records classify as 2; the census must follow what was stored.
        records = [fake_record(5000.0, 24.0, t=0), fake_record(5000.0, 24.0, t=1)]
        records[0].scenario = 3
        episode = Episode(seeds={}, model_digests={}, config={}, records=records)
        assert scenario_census(episode) == {1: 0, 2: 1, 3: 1}

    def test_events_daily_counts(self, episode):
        # One event per day, each visible in exactly one step's t+2 lookahead,
        # so event-labeled steps (precool or not) must number exactly 31.
        census = scenario_census(episode)
        assert census[1] + census[3] == 31
        assert census[2] == len(episode) - 31


class TestNarration:
    def test_worked_example_top3(self):
        text = narrate_attribution(WORKED_ATTR, WORKED_DICTIONARY, "the cooling power")
        i_oa = text.index("outdoor air dry-bulb temperature")
        i_tstat = text.index("zone temperature setpoint")
        i_occ = text.index("occupancy")
        assert i_oa < i_tstat < i_occ
        assert "direct solar radiation" not in text  # rank 4 by |phi|, not narrated
        assert fmt_phi(680.369781) in text  # +680.37
        assert fmt_phi(-113.826475) in text  # -113.83
        assert fmt_mean(1544.673602) in text  # expected value 1544.67
        assert "pushing the prediction above the expected value" in text
        assert "pulling the prediction below the expected value" in text

    def test_zero_phi_degenerate(self):
        attr = Attribution(
            feature_names=("a", "b", "c", "d"),
            feature_values=np.zeros(4),
            shapley_values=np.zeros(4),
            base_value=2.0,
            prediction=2.0,
            background_size=4,
            method="exact",
        )
        text = narrate_attribution(attr, {})
        # Top-3 fall back to schema order and the flat wording is used.
        assert text.index("a = ") < text.index("b = ") < text.index("c = ")
        assert "d = " not in text
        assert "leaving the prediction at the expected value" in text

    def test_tied_magnitudes_follow_schema_order(self):
        attr = Attribution(
            feature_names=("first", "second", "third"),
            feature_values=np.array([1.0, 2.0, 3.0]),
            shapley_values=np.array([-1.5, 1.5, 0.5]),
            base_value=0.0,
            prediction=0.5,
            background_size=1,
            method="exact",
        )
        text = narrate_attribution(attr, {})
        assert text.index("first") < text.index("second") < text.index("third")

    def test_unknown_name_falls_back_to_raw(self):
        text = narrate_attribution(WORKED_ATTR, {}, "the cooling power")
        assert "The oa_temp (oa_temp = " in text

    def test_default_dictionary_covers_schema_names(self, mini_episode):
        attr = mini_episode.records[0].attributions["fy_t1"]
        assert all(name in VARIABLE_DICTIONARY for name in attr.feature_names)
        text = narrate_attribution(attr)
        assert "zone" in text or "outdoor" in text or "setpoint" in text


class TestPrompts:
    def test_shap_prompt_structure(self):
        prompt = build_shap_prompt(WORKED_ATTR, WORKED_DICTIONARY, "the cooling power P(t+1)")
        assert "Only introduce the largest 3 impactful features plus the expected value." in prompt
        assert "Shapley values: oa_temp 680.369781; " in prompt
        assert "expected_value 1544.673602" in prompt
        assert "Variable values: oa_temp 32.7; " in prompt
        assert "The variable dictionary is listed as follows: {" in prompt
        assert "zone_clg_tstat: zone temperature setpoint" in prompt
        assert "the cooling power P(t+1)" in prompt

    def test_scenario_prompt_structure(self):
        record = fake_record(1500.0, 24.0, t=14)
        prompt = build_scenario_prompt(record)
        assert "judge what kind of scenario" in prompt
        assert "Scenario 1" in prompt and "Scenario 2" in prompt and "Scenario 3" in prompt
        assert "P_limit(t+2) = 1500.0W" in prompt
        assert "T_spt(t+1) = 24.0°C" in prompt

    def test_parse_scenario(self):
        assert parse_scenario("Scenario 2: the limit is not tightened") == 2
        assert parse_scenario("this is scenario3") == 3
        assert parse_scenario("I cannot tell") is None


class TestTemplates:
    def test_default_templates_load(self):
        templates = load_templates()
        assert set(templates) == {1, 2, 3}
        assert "pre-cooled to T_spt(t+1) = {T_spt_t1}°C" in templates[1].text
        assert "{shap_para_fy2}" in templates[2].text

    def test_missing_file_is_config_error(self, tmp_path):
        (tmp_path / "scenario1.txt").write_text("one {P_limit_t2}")
        (tmp_path / "scenario3.txt").write_text("three")
        with pytest.raises(ConfigError, match="scenario2"):
            load_templates(tmp_path)

    def test_placeholder_listing(self):
        template = PromptTemplate(1, "{a} then {b} then {a}")
        assert template.placeholders == ("a", "b")

    def test_missing_placeholder_value(self):
        template = PromptTemplate(2, "needs {bogus_name}")
        with pytest.raises(RenderError, match="bogus_name"):
            template.render({"other": "x"})

    def test_custom_template_directory(self, tmp_path, mini_episode):
        for k in (1, 2, 3):
            (tmp_path / f"scenario{k}.txt").write_text(f"Scenario {k}: limit {{P_limit_t2}}W.")
        templates = load_templates(tmp_path)
        record = mini_episode.records[0]
        doc = render_document(record, templates)
        assert doc.scenario_paragraph == (
            f"Scenario {doc.scenario}: limit {fmt_power(record.p_limit_t2_w)}W."
        )


class TestRenderDocument:
    def test_scenario1_document(self, episode):
        record = first_of(episode, 1)
        doc = render_document(record)
        assert doc.scenario == 1
        text = doc.markdown()
        d = record.decision
        assert text.startswith(f"# Timestep {record.t}: Scenario 1 (Precool)")
        assert f"pre-cooled to T_spt(t+1) = {fmt_temp(d.u1_c)}°C" in text
        assert f"which is lower than the comfort ceiling of {fmt_temp(COMFORT_CEILING_C)}°C" in text
        assert "[placeholder]" not in text
        for k in range(1, 5):
            assert figure_name(record.t, k) in text
        assert doc.figure_names == [figure_name(record.t, k) for k in range(1, 5)]
        assert "Rationale: pre-cooling ahead of the event was the cheapest plan" in doc.rationale
        assert f"{d.cost:.1f}" in doc.rationale

    def test_scenario2_document(self, episode):
        record = first_of(episode, 2)
        doc = render_document(record)
        text = doc.markdown()
        assert "Scenario 2 criteria" in text
        assert "no demand response event is expected" in text
        assert "[placeholder]" not in text

    def test_scenario3_document(self, episode):
        record = first_of(episode, 3)
        doc = render_document(record)
        text = doc.markdown()
        assert "Scenario 3 criteria" in text
        assert "pre-cooling is not engaged" in text
        assert f"T_spt(t+1) = {fmt_temp(26.0)}°C" in text
        assert "[placeholder]" not in text

    def test_header_block_content(self, episode):
        record = episode.records[40]
        doc = render_document(record)
        day, hod = divmod(record.t, 24)
        assert f"In timestep {record.t} (day {day}, {hod:02d}:00)" in doc.header_block
        assert f"P_limit(t+2) = {fmt_power(record.p_limit_t2_w)}W" in doc.header_block
        assert f"T_z(t) = {fmt_temp(record.zone_temp_c)}°C" in doc.header_block
        assert f"Realized cooling this hour: {fmt_power(record.cooling_rate_w)}W" in doc.header_block

    def test_unknown_mode(self, mini_episode):
        with pytest.raises(ConfigError, match="mode"):
            render_document(mini_episode.records[0], mode="interpretive_dance")

    def test_rendering_is_deterministic(self, episode):
        record = first_of(episode, 1)
        assert render_document(record).markdown() == render_document(record).markdown()


class TestNumeralFaithfulness:
    """Every numeral in a rendered document must trace to a record value."""

    @pytest.mark.parametrize("scenario", [1, 2, 3])
    def test_documents_only_use_record_numbers(self, episode, scenario):
        record = first_of(episode, scenario)
        text = render_document(record).markdown()
        allowed = expected_numerals(record)
        for numeral in re.findall(r"\d+(?:\.\d+)?", text):
            assert numeral in allowed, f"untraceable numeral {numeral!r} in scenario {scenario}"


class TestLlmModeRendering:
    def test_stub_narrations_and_agreement(self, episode, no_network):
        record = first_of(episode, 1)
        doc = render_document(record, mode="llm")  # default gateway config is the stub
        assert doc.mode == "llm"
        assert doc.llm_agreement is True
        assert "agrees with the rubric" in doc.markdown()
        assert len(doc.attribution_paragraphs) == 4
        for paragraph in doc.attribution_paragraphs:
            assert "Shapley value" in paragraph

    def test_stub_agreement_across_scenarios(self, episode, no_network):
        for scenario in (1, 2, 3):
            doc = render_document(first_of(episode, scenario), mode="llm")
            assert doc.llm_agreement is True, f"scenario {scenario}"


class TestWriteDocuments:
    def test_files_written(self, mini_episode, tmp_path):
        out = tmp_path / "docs"
        written = write_documents(mini_episode, out, timesteps=[0, 7])
        assert len(written) == 10  # md + 4 svg per timestep
        assert (out / "ts_0.md").is_file()
        for k in range(1, 5):
            assert (out / f"ts_7_attr{k}.svg").is_file()

    def test_byte_identical_reruns(self, mini_episode, tmp_path):
        out1, out2 = tmp_path / "one", tmp_path / "two"
        write_documents(mini_episode, out1, timesteps=[3])
        write_documents(mini_episode, out2, timesteps=[3])
        for name in ("ts_3.md", "ts_3_attr1.svg", "ts_3_attr4.svg"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_unknown_timestep(self, mini_episode, tmp_path):
        with pytest.raises(InvalidInputError, match="999"):
            write_documents(mini_episode, tmp_path, timesteps=[999])


class TestQaContext:
    def test_contains_summary_document_question(self, mini_episode):
        context = build_qa_context(mini_episode, 5, "Why this setpoint?")
        assert MPC_FORMULATION_SUMMARY in context
        assert "# Timestep 5" in context
        assert context.rstrip().endswith("Question: Why this setpoint?")

    def test_budget_drops_attribution_paragraphs_last_first(self, mini_episode):
        record = mini_episode.records[5]
        doc = render_document(record)
        full = build_qa_context(mini_episode, 5, "Why?")
        trimmed = build_qa_context(mini_episode, 5, "Why?", budget_chars=len(full) - 1)
        assert doc.attribution_paragraphs[3] not in trimmed  # second-hour cooling dropped first
        assert doc.attribution_paragraphs[0] in trimmed
        assert len(trimmed) < len(full)

        tiny = build_qa_context(mini_episode, 5, "Why?", budget_chars=200)
        for paragraph in doc.attribution_paragraphs:
            assert paragraph not in tiny
        assert MPC_FORMULATION_SUMMARY in tiny  # the summary always survives
        assert "Question: Why?" in tiny

    def test_invalid_inputs(self, mini_episode):
        with pytest.raises(InvalidInputError, match="timestep"):
            build_qa_context(mini_episode, 999, "Why?")
        with pytest.raises(InvalidInputError, match="question"):
            build_qa_context(mini_episode, 5, "   ")

    def test_targets_cover_attribution_keys(self):
        assert set(ATTRIBUTION_TARGETS) == set(ATTRIBUTION_KEYS)
        assert default_template_dir().is_dir()
