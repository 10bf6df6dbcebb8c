"""The command line's contract, checked over argv built from its real option names.

Whatever its arguments, ``lindcg`` exits 0, 1 or 2 and raises nothing
else, writes less than 2 KiB to stderr, and writes nothing to stdout when
it exits 2.
"""

import argparse
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

import lindcg.cli
from helpers import run_main

DATA = Path(__file__).parent / "data"


def _option_names() -> tuple[list[str], dict[str, list[str]]]:
    """The top parser's option strings, and each subcommand's, read off the parser
    that ``main`` builds."""
    parser = lindcg.cli._parser()
    (commands,) = (action for action in parser._actions
                   if isinstance(action, argparse._SubParsersAction))
    return (sorted(name for action in parser._actions for name in action.option_strings),
            {command: sorted(name for action in subparser._actions
                             for name in action.option_strings)
             for command, subparser in commands.choices.items()})


TOP_OPTIONS, OPTIONS = _option_names()
VALUES = st.sampled_from([
    "", "0", "2", "-1", "9" * 5000, "-" + "9" * 5000, "z" * 100_000,
    str(DATA), str(DATA / "missing.tsv"), *sorted(map(str, DATA.iterdir())),
])


def _arguments(options: list[str]):
    """Up to four parts, each an option and a value, as two arguments or as
    ``--opt=V``, an option alone, or a value alone."""
    option = st.sampled_from(options)
    part = st.one_of(
        st.tuples(option, VALUES).map(list),
        st.tuples(option, VALUES).map(lambda pair: ["=".join(pair)]),
        option.map(lambda name: [name]),
        VALUES.map(lambda value: [value]),
    )
    return st.lists(part, max_size=4).map(lambda parts: [arg for p in parts for arg in p])


ARGVS = st.one_of(
    _arguments(TOP_OPTIONS),  # no subcommand, or a value in its place
    *(_arguments(options).map(lambda args, command=command: [command, *args])
      for command, options in OPTIONS.items()),
)


def test_the_argv_are_built_from_every_subcommand_and_its_options():
    assert set(OPTIONS) == {"metrics", "verify", "oracle"}
    assert {"--input", "--format", "--scores", "--num-grades", "--output"} < set(
        OPTIONS["metrics"])
    assert "--help" in TOP_OPTIONS


@settings(max_examples=200, deadline=None)
@given(ARGVS)
@example(["--help=" + "z" * 100_000])
@example(["metrics", "--input", str(DATA / "metrics_fine.tsv"), "--format=svmlight"])
@example(["verify", "--trials", "2", "--max-grades", "-" + "9" * 5000])
def test_every_command_line_exits_0_1_or_2_with_a_short_stderr(argv):
    code, stdout, stderr = run_main(argv)
    assert code in (0, 1, 2)
    assert len(stderr.encode()) < 2048
    if code == 2:
        assert stdout == ""
