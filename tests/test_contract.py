"""The command line's contract, checked over argv built from its real option
names and over input bytes built from the pieces that readers trip on.

Whatever its arguments and its input, ``lindcg`` exits 0, 1 or 2 and
raises nothing else, writes less than 2 KiB to stderr, and writes nothing
to stdout when it exits 2.
"""

import argparse
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lindcg.cli
import lindcg.io
from helpers import run_main, unix_socket

DATA = Path(__file__).parent / "data"
SOCKET = "<socket>"  # stands for the path of the module's UNIX socket


@pytest.fixture(scope="module")
def socket_path(tmp_path_factory):
    with unix_socket(tmp_path_factory.mktemp("socket") / "in.sock") as path:
        yield path


def _assert_the_contract(code, stdout, stderr):
    assert code in (0, 1, 2)
    assert len(stderr.encode()) < 2048
    if code == 2:
        assert stdout == ""


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
    str(DATA), str(DATA / "missing.tsv"), SOCKET, *sorted(map(str, DATA.iterdir())),
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
@example(["metrics", "--input", SOCKET])
def test_every_command_line_exits_0_1_or_2_with_a_short_stderr(socket_path, argv):
    _assert_the_contract(*run_main([arg.replace(SOCKET, socket_path) for arg in argv]))


# What a reader may trip on: numbers that ``int`` or ``float`` reads but the
# grammar refuses, numbers out of range, odd characters, line breaks and bytes
# that are not UTF-8.
_PIECES = [piece.encode() for piece in [
    "-1", "31", "9" * 60, "1_0", "\u0661", "\uff13", "1e400", "1e-400", "nan", "inf",
    "-inf", "", "\x00", "\ufeff", "#", " ", "\t", "\xa0", "qid:", "score=",
    "\n", "\r\n", "\r", "\x0b", "\x85", "\u2028",
]] + [b"\xff", b"\xc3", b"\x80", b"\xed\xa0\x80"]


@st.composite
def _inputs(draw):
    """(format, data bytes, score-file bytes or None): well-formed rows, after
    an optional byte-order mark, in which up to three parts of a row are
    replaced by a piece or have one appended."""
    fmt, scored = draw(st.sampled_from([("tsv", False), ("svmlight", False), ("svmlight", True)]))
    rows = draw(st.lists(st.tuples(
        st.sampled_from([b"q", b"a", "\u00e9".encode()]), st.sampled_from([b"0", b"1", b"2"]),
        st.sampled_from([b"0.5", b"1", b"-2.5", b"3e-2"]), st.just(b"\n")).map(list),
        min_size=1, max_size=8))
    for _ in range(draw(st.integers(0, 3))):
        row, part = draw(st.sampled_from(rows)), draw(st.integers(0, 3))
        piece = draw(st.sampled_from(_PIECES))
        row[part] = draw(st.sampled_from([piece, row[part] + piece]))
    head = draw(st.sampled_from([b"", "\ufeff".encode()]))
    if fmt == "tsv":
        return fmt, head + b"".join(b"%s\t%s\t%s%s" % tuple(row) for row in rows), None
    if scored:
        return (fmt, head + b"".join(b"%s qid:%s 1:0.5%s" % (g, q, end) for q, g, _, end in rows),
                head + b"".join(score + end for _, _, score, end in rows))
    return fmt, head + b"".join(b"%s qid:%s 1:0.5 # score=%s%s" % (g, q, s, end)
                                for q, g, s, end in rows), None


@pytest.fixture(scope="module")
def input_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("inputs")


@settings(max_examples=150, deadline=None)
@given(case=_inputs(), block_chars=st.integers(1, 8),
       output=st.sampled_from(["json", "text", "csv"]))
def test_every_input_exits_0_1_or_2_alike_at_any_block_size(input_dir, case, block_chars, output):
    """The same run at the default block size and at a small one: the same
    exit code, stdout and stderr, within the contract."""
    fmt, data, scores = case
    (input_dir / "data").write_bytes(data)
    argv = ["metrics", "--input", str(input_dir / "data"), "--format", fmt, "--output", output]
    if scores is not None:
        (input_dir / "scores").write_bytes(scores)
        argv += ["--scores", str(input_dir / "scores")]
    run = run_main(argv)
    _assert_the_contract(*run)
    with mock.patch.object(lindcg.io, "_BLOCK_CHARS", block_chars):
        assert run_main(argv) == run
