"""Command-line interface for the full workflow.

Subcommands mirror the package pipeline:

* ``excite``: simulate the testbed under a random setpoint schedule and
  write the excitation dataset CSV (plus a config sidecar).
* ``train``: fit one surrogate (``fx`` or ``fy``) from the CSV and write the
  model JSON.
* ``run``: closed-loop episode with the MPC and per-step attributions,
  written as JSON lines.
* ``explain``: render per-timestep Markdown documents and SVG charts.
* ``ask``: answer an operator question about one timestep, one-shot or REPL.

Exit codes: 0 success, 2 usage or configuration problems, 3 runtime
failures.  Every command is deterministic given identical flags and seeds;
``run --no-timing`` writes the canonical episode form (no wall-clock
fields), which reruns reproduce byte for byte.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import (
    ConfigError,
    DeserializationError,
    EpisodeIntegrityError,
    GatewayError,
    InvalidInputError,
    OptimizationFailedError,
    RenderError,
    SchemaError,
    SimulationDivergedError,
    TrainingDivergedError,
)
from . import explain as explain_mod
from . import hub as hub_mod
from . import llm as llm_mod
from . import surrogate as surrogate_mod
from . import testbed as testbed_mod

_USAGE_ERRORS = (
    ConfigError,
    DeserializationError,
    EpisodeIntegrityError,
    InvalidInputError,
    RenderError,
    SchemaError,
    FileNotFoundError,
)
_RUNTIME_ERRORS = (
    GatewayError,
    OptimizationFailedError,
    SimulationDivergedError,
    TrainingDivergedError,
)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def cmd_excite(args) -> int:
    cfg = (testbed_mod.load_config(args.config, rng_seed=args.seed) if args.config
           else testbed_mod.TestbedConfig(rng_seed=args.seed))
    data = testbed_mod.run_excitation(args.days, cfg, seed=args.seed)
    out = Path(args.out)
    data.to_csv(out)
    config_path = Path(str(out) + ".config.json")
    testbed_mod.save_config(cfg, config_path)
    print(f"wrote {len(data)} rows to {out} (config: {config_path})")
    return 0


def cmd_train(args) -> int:
    data = testbed_mod.ExcitationData.from_csv(args.data)
    schema = surrogate_mod.SCHEMAS[args.target]
    cfg = surrogate_mod.TrainConfig(
        epochs=args.epochs, learning_rate=args.lr, rng_seed=args.seed
    )
    model = surrogate_mod.train(data, schema, cfg)
    surrogate_mod.save(model, args.out)
    val_rmse = (model.meta["final_val_mse"] ** 0.5) * model.norm.target_std
    print(
        f"trained {args.target} on {model.meta['n_train']} rows for {cfg.epochs} epochs: "
        f"validation RMSE {val_rmse:.4f} {model.schema.target.unit} -> {args.out}"
    )
    return 0


def cmd_run(args) -> int:
    fx_model = surrogate_mod.load(args.fx)
    fy_model = surrogate_mod.load(args.fy)
    cfg = (testbed_mod.load_config(args.config, rng_seed=args.seed) if args.config
           else testbed_mod.TestbedConfig(rng_seed=args.seed))
    calendar = testbed_mod.generate_dr_calendar(args.days, args.dr_prob, seed=args.seed)
    episode = hub_mod.run_episode(
        args.days, cfg, fx_model, fy_model, calendar, seed=args.seed
    )
    hub_mod.save_episode(episode, args.out, include_timing=not args.no_timing)
    print(f"wrote {len(episode)} records to {args.out}")
    print(str(hub_mod.timing_report(episode)))
    census = explain_mod.scenario_census(episode)
    names = explain_mod.SCENARIO_NAMES
    print(
        "scenario census: "
        + ", ".join(f"{names[s]} = {census[s]}" for s in sorted(census))
    )
    return 0


def _llm_config(args) -> llm_mod.LlmConfig:
    return llm_mod.LlmConfig(
        mode=args.gateway,
        endpoint=args.endpoint or "",
        model=args.model,
        temperature=args.temperature,
    )


def cmd_explain(args) -> int:
    episode = hub_mod.load_episode(args.episode)
    templates = explain_mod.load_templates(args.templates)
    if args.t == "all":
        timesteps = None
    else:
        try:
            timesteps = [int(args.t)]
        except ValueError:
            raise InvalidInputError(f"--t must be an hour index or 'all', got {args.t!r}") from None
    llm_config = _llm_config(args) if args.mode == "llm" else None
    if llm_config is not None and llm_config.mode == "online":
        # Fail before rendering anything if the online gateway cannot run.
        import os

        if not llm_config.endpoint:
            raise ConfigError("llm mode with the online gateway requires --endpoint")
        if not os.environ.get(llm_config.api_key_env, ""):
            raise ConfigError(
                f"llm mode requires an API key in the {llm_config.api_key_env} "
                "environment variable (or use --gateway stub)"
            )
    written = explain_mod.write_documents(
        episode,
        args.out,
        mode=args.mode,
        llm_config=llm_config,
        timesteps=timesteps,
        templates=templates,
    )
    docs = sum(1 for p in written if p.suffix == ".md")
    print(f"wrote {docs} documents ({len(written)} files) to {args.out}")
    return 0


def cmd_ask(args) -> int:
    if not args.question and not args.repl:
        raise InvalidInputError("provide --question or --repl")
    episode = hub_mod.load_episode(args.episode)
    cfg = llm_mod.LlmConfig(
        mode=args.mode,
        endpoint=args.endpoint or "",
        model=args.model,
        temperature=args.temperature,
    )

    def answer(question: str) -> None:
        context = explain_mod.build_qa_context(
            episode, args.t, question, budget_chars=args.context_budget
        )
        exchange = llm_mod.answer_question(cfg, context)
        print(exchange.response)

    if args.question:
        answer(args.question)
    if args.repl:
        print(f"asking about timestep {args.t}; empty line to re-prompt, Ctrl-D or 'quit' to leave")
        while True:
            try:
                line = input("? ")
            except EOFError:
                print()
                break
            line = line.strip()
            if not line:
                continue
            if line.lower() in ("quit", "exit"):
                break
            answer(line)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xmpc",
        description="surrogate MPC for building demand response, with Shapley explanations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("excite", help="generate the excitation dataset")
    p.add_argument("--days", type=_positive_int, default=31)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="data.csv")
    p.add_argument("--config", help="JSON file with testbed config overrides")
    p.set_defaults(func=cmd_excite)

    p = sub.add_parser("train", help="train one surrogate from the excitation CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--target", choices=("fx", "fy"), required=True)
    p.add_argument("--epochs", type=_positive_int, default=2000)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("run", help="closed-loop episode with MPC and attributions")
    p.add_argument("--days", type=_positive_int, default=31)
    p.add_argument("--fx", required=True, help="temperature surrogate model JSON")
    p.add_argument("--fy", required=True, help="cooling surrogate model JSON")
    p.add_argument("--dr-prob", type=float, default=1.0, help="per-day event probability")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="episode.jsonl")
    p.add_argument("--no-timing", action="store_true", help="canonical form: omit wall-clock fields")
    p.add_argument("--config", help="JSON file with testbed config overrides")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("explain", help="render explanation documents from an episode")
    p.add_argument("--episode", required=True)
    p.add_argument("--t", default="all", help="hour index or 'all'")
    p.add_argument("--mode", choices=("deterministic", "llm"), default="deterministic")
    p.add_argument("--gateway", choices=("online", "stub"), default="online",
                   help="chat gateway used in llm mode")
    p.add_argument("--endpoint", help="chat-completions endpoint for the online gateway")
    p.add_argument("--model", default=llm_mod.DEFAULT_MODEL)
    p.add_argument("--temperature", type=float, default=0.5)
    p.add_argument("--templates", help="directory with scenario templates")
    p.add_argument("--out", default="docs")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("ask", help="answer questions about one timestep")
    p.add_argument("--episode", required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--question")
    p.add_argument("--repl", action="store_true")
    p.add_argument("--mode", choices=("stub", "online"), default="stub")
    p.add_argument("--endpoint")
    p.add_argument("--model", default=llm_mod.DEFAULT_MODEL)
    p.add_argument("--temperature", type=float, default=0.5)
    p.add_argument("--context-budget", type=_positive_int, default=12000)
    p.set_defaults(func=cmd_ask)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _RUNTIME_ERRORS as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
