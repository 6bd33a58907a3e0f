"""Seeded fuzz: a one-field edit of any input file exits 0, 2 or 3, never with a traceback.

Each example swaps the type of one field of the desk CSV, a config, a model or a (resealed)
episode line, sets it to +-1e308, 5e-324 or 10**30, or deletes it, and runs each command that
reads the file through ``main``.  The seed and each input's example budget are fixed.
"""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, seed, settings, strategies as st

from xmpc.cli import main

EDITS = ["swap", 1e308, -1e308, 5e-324, 10**30, "delete"]
RUN = ["run", "--days", "1", "--out", "{tmp}/e.jsonl"]
EPISODE = ["--episode", "{edited}", "--t", "{t}"]
# input -> (example budget, the commands that read it as {edited})
COMMANDS = {
    "data.csv": (40, [["train", "--data", "{edited}", "--target", target, "--epochs", "5",
                       "--out", "{tmp}/m.json"] for target in ("fx", "fy")]),
    "config.json": (10, [["excite", "--days", "1", "--config", "{edited}", "--out", "{tmp}/c"]]),
    "fx.json": (12, [RUN + ["--fx", "{edited}", "--fy", "{ws}/fy.json"]]),
    "fy.json": (12, [RUN + ["--fx", "{ws}/fx.json", "--fy", "{edited}"]]),
    "episode.jsonl": (120, [["ask", *EPISODE, "--question", "Why?"],
                            ["explain", *EPISODE, "--out", "{tmp}/docs"]]),
}


def paths(node, path=()):
    """The key path to every value below the root of a parsed JSON document."""
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield path + (key,)
        yield from paths(child, path + (key,))


def apply(document, path, edit) -> None:
    """Swap the type of, replace or delete the value at ``path`` in place."""
    *parents, last = path
    for key in parents:
        document = document[key]
    if edit == "delete":
        del document[last]
    elif edit == "swap":
        value = document[last]
        document[last] = [value] if isinstance(value, str) else str(value)
    else:
        document[last] = edit


@pytest.mark.parametrize("name", COMMANDS)
def test_one_field_edit_exits_0_2_or_3(cli_workspace, reseal, name):
    examples, commands = COMMANDS[name]
    text = '{"rng_seed": 3}' if name == "config.json" else (cli_workspace / name).read_text()
    lines = [text] if name.endswith(".json") else text.splitlines()
    csv = name.endswith(".csv")

    @seed(0)
    @settings(max_examples=examples, deadline=None, database=None)
    @given(st.data())
    def check(data):
        i = data.draw(st.integers(0, len(lines) - 1), label="line")
        document = lines[i].split(",") if csv else json.loads(lines[i])
        apply(document, data.draw(st.sampled_from(list(paths(document))), label="field"),
              data.draw(st.sampled_from(EDITS), label="edit"))
        edited = ",".join(map(str, document)) if csv else json.dumps(document)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, name)
            path.write_text("\n".join(lines[:i] + [edited] + lines[i + 1:]) + "\n")
            if name.endswith(".jsonl"):
                reseal(path)
            fields = {"edited": path, "tmp": tmp, "ws": cli_workspace, "t": max(i - 1, 0)}
            for argv in commands:
                assert main([arg.format(**fields) for arg in argv]) in (0, 2, 3)

    check()
