"""Command-line interface for the full workflow.

Subcommands mirror the package pipeline:

* ``excite``: simulate the testbed under a random setpoint schedule and
  write the excitation dataset CSV.
* ``train``: fit one surrogate (``fx`` or ``fy``) from the CSV and write the
  model JSON.
* ``run``: closed-loop episode with the MPC and per-step attributions,
  written as JSON lines.
* ``explain``: render per-timestep Markdown documents and SVG charts.
* ``ask``: answer an operator question about one timestep, one-shot or REPL.
  ``ask --mode`` picks the chat gateway, as ``explain --gateway`` does for
  ``explain --mode llm``; both take ``--llm-log PATH`` to append one JSON
  line per LLM exchange.

``COMMANDS`` lists each subcommand's help, argument adder and function.
``build_parser()`` builds the parser with all five on its first call in a
process, never at import, and every later call, ``main``'s too, reuses it;
help wraps at the terminal width in force when it prints.

Exit codes: 0 success, 2 for a bad input or file (an ``errors.UsageError``
or an ``OSError``), 3 for a runtime failure (an ``errors.FailureError``);
``main`` reads the code off the error's base class.  Every command is
deterministic given identical flags and seeds; ``run --no-timing`` writes
the canonical episode form (no wall-clock fields), which reruns reproduce
byte for byte.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import time

import numpy as np

from .errors import AttributionError, ConfigError, FailureError, InvalidInputError, UsageError
from . import explain as explain_mod
from . import hub as hub_mod
from . import llm as llm_mod
from . import surrogate as surrogate_mod
from . import testbed as testbed_mod
from .shapley import ADDITIVITY_TOLERANCE, verify_additivity


def _int_at_least(low: int, kind: str):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"expected a {kind} integer, got {value}")
        return value

    return parse


_positive_int = _int_at_least(1, "positive")
_non_negative_int = _int_at_least(0, "non-negative")


def cmd_excite(args) -> int:
    cfg = (testbed_mod.load_config(args.config, rng_seed=args.seed) if args.config
           else testbed_mod.TestbedConfig(rng_seed=args.seed))
    data = testbed_mod.run_excitation(args.days, cfg, seed=args.seed)
    data.to_csv(args.out)
    print(f"wrote {len(data)} rows to {args.out}")
    return 0


def cmd_train(args) -> int:
    data = testbed_mod.ExcitationData.from_csv(args.data)
    schema = surrogate_mod.SCHEMAS[args.target]
    cfg = surrogate_mod.TrainConfig(
        epochs=args.epochs, learning_rate=args.lr, rng_seed=args.seed
    )
    started = time.perf_counter()
    model = surrogate_mod.train(data, schema, cfg)
    seconds = time.perf_counter() - started
    surrogate_mod.save(model, args.out)
    val_rmse = (model.meta["final_val_mse"] ** 0.5) * model.norm.target_std
    print(
        f"trained {args.target} on {model.meta['n_train']} rows for {cfg.epochs} epochs "
        f"in {seconds:.2f} s ({cfg.epochs / seconds:.0f} epochs/s): "
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
    # A record at a time, as each access to its attributions builds all four.
    passed, worst = True, 0.0
    for record in episode.records:
        for a in record.attributions.values():
            ok, residual = verify_additivity(a)
            passed = passed and ok
            worst = max(worst, residual / max(1.0, abs(a.prediction)),
                        key=lambda r: math.inf if math.isnan(r) else r)
    additivity = (f"worst residual {worst:.1e} of max(1, |prediction|) "
                  f"(tolerance {ADDITIVITY_TOLERANCE:.0e})")
    # The loader's own check: an episode that fails it is not written.
    if not passed:
        raise AttributionError(f"additivity: {additivity}; {args.out} not written")
    hub_mod.save_episode(episode, args.out, include_timing=not args.no_timing)
    print(f"wrote {len(episode)} records to {args.out}")
    print(str(hub_mod.timing_report(episode)))
    print(f"additivity: {additivity}")
    census = explain_mod.scenario_census(episode)
    names = explain_mod.SCENARIO_NAMES
    print(
        "scenario census: "
        + ", ".join(f"{names[s]} = {census[s]}" for s in sorted(census))
    )
    return 0


def _llm_config(args) -> llm_mod.LlmConfig:
    cfg = llm_mod.LlmConfig(
        mode=args.gateway,
        endpoint=args.endpoint or "",
        model=args.model,
        temperature=args.temperature,
        log_path=args.llm_log,
    )
    if cfg.mode == "online":
        llm_mod.online_api_key(cfg)
    if cfg.log_path:  # refused before any exchange, which may be a paid request
        try:
            open(cfg.log_path, "a").close()
        except OSError as exc:
            raise ConfigError(f"--llm-log {cfg.log_path!r} cannot be appended to: {exc.strerror}")
    return cfg


def cmd_explain(args) -> int:
    llm_config = _llm_config(args) if args.mode == "llm" else None
    if args.t == "all":
        hour = None
    else:
        try:
            hour = int(args.t)
        except ValueError:
            raise InvalidInputError(f"--t must be an hour index or 'all', got {args.t!r}") from None
    episode = hub_mod.load_episode(args.episode, hour)
    written = explain_mod.write_documents(episode.records, args.out, llm_config)
    docs = sum(1 for p in written if p.suffix == ".md")
    print(f"wrote {docs} documents ({len(written)} files) to {args.out}")
    return 0


def cmd_ask(args) -> int:
    if not args.question and not args.repl:
        raise InvalidInputError("provide --question or --repl")
    cfg = _llm_config(args)
    [record] = hub_mod.load_episode(args.episode, args.t).records

    def answer(question: str) -> None:
        print(llm_mod.answer_question(cfg, explain_mod.build_qa_context(record, question)))

    if args.question:
        answer(args.question)
    if args.repl:
        print(f"asking about timestep {args.t}; empty line to re-prompt, Ctrl-D or 'quit' to leave")
        while True:
            try:
                line = input("? ")
            except (EOFError, KeyboardInterrupt):
                print()
                break
            line = line.strip()
            if not line:
                continue
            if line.lower() in ("quit", "exit"):
                break
            answer(line)
    return 0


def _gateway_arguments(p: argparse.ArgumentParser) -> None:
    """The settings ``explain`` and ``ask`` share for the chat gateway."""
    p.add_argument("--endpoint", help="chat-completions endpoint for the online gateway")
    p.add_argument("--model", default=llm_mod.DEFAULT_MODEL)
    p.add_argument("--temperature", type=float, default=0.5)
    p.add_argument("--llm-log", metavar="PATH",
                   help="append one JSON line per LLM exchange (digests, latency, usage) to PATH")


def _excite_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--days", type=_positive_int, default=31)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--out", default="data.csv")
    p.add_argument("--config", help="JSON file holding the weather seed, rng_seed")


def _train_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True)
    p.add_argument("--target", choices=("fx", "fy"), required=True)
    p.add_argument("--epochs", type=_positive_int, default=2000)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--out", required=True)


def _run_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--days", type=_positive_int, default=31)
    p.add_argument("--fx", required=True, help="temperature surrogate model JSON")
    p.add_argument("--fy", required=True, help="cooling surrogate model JSON")
    p.add_argument("--dr-prob", type=float, default=1.0, help="per-day event probability")
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--out", default="episode.jsonl")
    p.add_argument("--no-timing", action="store_true", help="canonical form: omit wall-clock fields")
    p.add_argument("--config", help="JSON file holding the weather seed, rng_seed")


def _explain_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--episode", required=True)
    p.add_argument("--t", default="all", help="hour index or 'all'")
    p.add_argument("--mode", choices=("deterministic", "llm"), default="deterministic")
    p.add_argument("--gateway", choices=("online", "stub"), default="online",
                   help="chat gateway used in llm mode")
    _gateway_arguments(p)
    p.add_argument("--out", default="docs")


def _ask_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--episode", required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--question")
    p.add_argument("--repl", action="store_true")
    p.add_argument("--mode", dest="gateway", choices=("stub", "online"), default="stub",
                   help="chat gateway")
    _gateway_arguments(p)


# name -> (help, argument adder, command function), in the order help lists them
COMMANDS = {
    "excite": ("generate the excitation dataset", _excite_arguments, cmd_excite),
    "train": ("train one surrogate from the excitation CSV", _train_arguments, cmd_train),
    "run": ("closed-loop episode with MPC and attributions", _run_arguments, cmd_run),
    "explain": ("render explanation documents from an episode", _explain_arguments, cmd_explain),
    "ask": ("answer questions about one timestep", _ask_arguments, cmd_ask),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``xmpc`` parser with every subcommand, built once and shared: change none of it."""
    parser = argparse.ArgumentParser(
        prog="xmpc",
        description="surrogate MPC for building demand response, with Shapley explanations",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments, _) in COMMANDS.items():
        add_arguments(sub.add_parser(name, help=help_text))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # A non-finite result is the checks' to report, as one line, not numpy's.
        with np.errstate(all="ignore"):
            return COMMANDS[args.command][2](args)
    except (UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FailureError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
