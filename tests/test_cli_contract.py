"""Characterization of the command line: one pinned digest per parser.

The CLI's contract is its flags, not the code that declares them.  For
every parser ``build_parser()`` produces — the root, the three group
parsers and the 13 leaf commands — the table below hashes

* every action's ``(class, option_strings, dest, type, choices, default,
  required, nargs, metavar)``, sorted by flag so the order flags are
  *declared* in (and hence listed by ``--help``) is not part of the
  contract, and
* for leaf commands, ``vars(parse_args(minimal argv))`` minus ``func`` —
  what a command actually receives when the operator types nothing
  optional.

The table was recorded on the single-file ``cli.py`` with its 169
``add_argument`` calls and must not change when the declarations are
regrouped: a moved digest means a flag was added, removed, renamed,
re-typed or re-defaulted.

Help *wording* is pinned separately as plain text in
``tests/data/cli_help.txt`` (one ``command<TAB>flag<TAB>help`` line per
flag, one ``command<TAB>(command)<TAB>help`` line per command), so a
reviewer sees a wording change as a one-line diff instead of a digest.

Regenerate on purpose with
``PYTHONPATH=src python tests/test_cli_contract.py`` (prints the table
and rewrites the help file).
"""

from __future__ import annotations

import argparse
from pathlib import Path

import pytest

from repro.cli import build_parser
from repro.utils import canonical_digest

HELP_FILE = Path(__file__).parent / "data" / "cli_help.txt"

# The shortest argv each leaf command accepts (required flags only).
MINIMAL_ARGV = {
    "train": [],
    "factorize": [],
    "simulate": [],
    "profile": ["quickstart"],
    "serve": [],
    "gateway serve": [],
    "gateway loadtest": ["--port", "1"],
    "cluster place": [],
    "cluster autoscale": [],
    "cluster canary": [],
    "lifecycle run": [],
    "lifecycle promote": ["--run", "run.json", "--registry-dir", "registry"],
    "lifecycle deploy": ["--registry-dir", "registry", "--name", "vgg11"],
}
GROUPS = ("gateway", "cluster", "lifecycle")

PINNED = {
    "": "1a84d78537f2a33d",
    "cluster": "928f4d45fa46e2e2",
    "cluster autoscale": "f5256a518bcfe3cd",
    "cluster canary": "db11917629e39fee",
    "cluster place": "52ab0a8ee8803dc9",
    "factorize": "e7d55ce46275b14c",
    "gateway": "cfdaf1cb74bd37e6",
    "gateway loadtest": "0a962b05099dee67",
    "gateway serve": "f2690324cb9d67d0",
    "lifecycle": "660031dcb6b1e338",
    "lifecycle deploy": "95f088461795cda1",
    "lifecycle promote": "e246d6ba74583121",
    "lifecycle run": "a71fac9151383658",
    "profile": "fc968b2b854f7658",
    "serve": "45c5e309a0fe3834",
    "simulate": "03519edd8a218a4d",
    "train": "029ce4445ee35025",
}


def _subparsers(parser):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action
    return None


def walk(parser=None, prefix=""):
    """``{command path: parser}`` for the root and everything under it."""
    parser = parser or build_parser()
    out = {prefix: parser}
    sub = _subparsers(parser)
    if sub is not None:
        for name, child in sub.choices.items():
            out.update(walk(child, f"{prefix} {name}".strip()))
    return out


def _describe_action(action) -> list:
    choices = action.choices
    if choices is not None:
        choices = list(choices)  # a subparsers action keeps a name -> parser dict
    return [
        type(action).__name__,
        list(action.option_strings),
        action.dest,
        getattr(action.type, "__name__", action.type),
        choices,
        action.default,
        action.required,
        action.nargs,
        action.metavar,
    ]


def describe(name: str, parser) -> dict:
    actions = sorted(
        (_describe_action(a) for a in parser._actions), key=lambda d: (d[1], d[2])
    )
    namespace = None
    if name in MINIMAL_ARGV:
        namespace = vars(build_parser().parse_args(name.split() + MINIMAL_ARGV[name]))
        namespace.pop("func")
    return {"actions": actions, "namespace": namespace}


def help_lines() -> list[str]:
    """``command<TAB>flag<TAB>help`` for every flag and every command."""
    lines = []
    for name, parser in sorted(walk().items()):
        for action in parser._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            if isinstance(action, argparse._SubParsersAction):
                for choice in action._choices_actions:
                    child = f"{name} {choice.dest}".strip()
                    lines.append(f"{child}\t(command)\t{choice.help or ''}")
                continue
            flag = action.option_strings[0] if action.option_strings else action.dest
            lines.append(f"{name}\t{flag}\t{action.help or ''}")
    return sorted(lines)


def test_thirteen_leaf_commands_under_three_groups():
    parsers = walk()
    assert set(parsers) == {""} | set(GROUPS) | set(MINIMAL_ARGV)
    assert set(PINNED) == set(parsers)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_parser_matches_pinned_digest(name):
    got = canonical_digest(describe(name, walk()[name]))
    assert got == PINNED[name], (
        f"`repro {name}` changed its flags (names, dests, types, choices, "
        f"defaults, required-ness, metavars) or its default namespace"
    )


def test_help_wording_matches_pinned_text():
    assert help_lines() == HELP_FILE.read_text().splitlines()


if __name__ == "__main__":
    print("PINNED = {")
    for name, parser in sorted(walk().items()):
        print(f'    "{name}": "{canonical_digest(describe(name, parser))}",')
    print("}")
    HELP_FILE.parent.mkdir(exist_ok=True)
    HELP_FILE.write_text("\n".join(help_lines()) + "\n")
    print(f"help wording written to {HELP_FILE}")
