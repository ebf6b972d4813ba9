"""The command-table reader builds argparse's namespace or declines.

`cli._read` reads a well-formed argv straight from `COMMANDS`; every argv
it declines goes to `cli._parse`, the argparse subparsers.  Over a token
grammar of every command, option and value, and of the shapes the reader
must decline, each argv the reader accepts must give exactly the
namespace argparse gives.
"""

import contextlib
import importlib.util
import io
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgshell import cli

CORPUS = Path(__file__).resolve().parent.parent / "perfbench" / "corpus.py"

OPTIONS = {flag: kwargs for name in cli.COMMANDS
           for flag, kwargs in cli._arguments(name) if flag.startswith("-")}

WORDS = ["f.ideal", "V", "W", "rnc", "points-rnc", "3", "5", "", "a=b", "x y", *cli.COMMANDS]

# values a valued option may meet: its choices, one that is not, and
# integers argparse reads but the reader declines (signed, non-ASCII,
# underscored, padded, past the int-conversion limit)
VALUES = ["chain", "oracle", "both", "fast", "0", "5", "007", "-3", "+5", "٣",
          "5_0", " 5", "9" * 5000]

ODD = ["--", "-", "-h", "--help", "--bogus", "-x", "--js", "--se", "--me", "--ma",
       "--str", "--field", "--s", "--json=1", "--seed=5", "--method=oracle",
       "--max=3", "frobnicate"]


TOKENS = st.sampled_from(ODD) | st.sampled_from(WORDS + VALUES + list(OPTIONS))


def namespace(argv):
    """vars() of argparse's namespace, or None when argparse exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli._parse(argv))
        except SystemExit:
            return None


@st.composite
def command_lines(draw, plain):
    """An argv of one command built from its declaration: plain, or with
    any valued option given a value from VALUES, any option (required
    ones too) left out, and one to three tokens inserted, dropped or
    replaced."""
    command = draw(st.sampled_from(sorted(cli.COMMANDS)))
    argv, options = [command], []
    for name, kwargs in cli._arguments(command):
        if not name.startswith("-"):
            count = draw(st.integers(0, 3)) if kwargs.get("nargs") == "*" else 1
            argv += draw(st.lists(st.sampled_from(WORDS), min_size=count, max_size=count))
            continue
        if "action" in kwargs:
            options.append([name])
        else:
            values = (st.sampled_from(kwargs["choices"]) if "choices" in kwargs
                      else st.integers(0, 10**6).map(str))
            if not plain:
                values |= st.sampled_from(VALUES)
            options.append([name, draw(values)])
        if (not plain or not kwargs.get("required")) and draw(st.booleans()):
            options.pop()
    # an option may be given twice: the last one counts, for both readers
    options += draw(st.lists(st.sampled_from(options), max_size=2)) if options else []
    for option in draw(st.permutations(options)):
        argv += option
    for _ in range(0 if plain else draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(argv)))
        edit = draw(st.sampled_from(("insert", "drop", "replace")))
        if edit == "insert":
            argv.insert(i, draw(TOKENS))
        elif i < len(argv):
            if edit == "drop":
                del argv[i]
            else:
                argv[i] = draw(TOKENS)
    return argv


@settings(max_examples=150)
@given(command_lines(plain=True))
def test_reader_reads_every_plain_argv_as_argparse_does(argv):
    read = cli._read(argv)
    assert read is not None, argv
    assert vars(read) == namespace(argv)


@settings(max_examples=400)
@given(command_lines(plain=False))
def test_reader_accepts_only_what_argparse_reads_the_same(argv):
    read = cli._read(argv)
    if read is not None:
        assert vars(read) == namespace(argv)


# besides those that tests/test_cli.py runs end to end
@pytest.mark.parametrize("argv", [
    [], ["gb"], ["gb", "f", "V", "--help"], ["gb", "f", "--json", "V"],
    ["catalog", "--json", "rnc"], ["gb", "f", "V", "--seed", "+3"],
    ["gb", "f", "V", "--seed", "٣"], ["gb", "f", "V", "--seed", "9" * 5000],
    ["gb", "f", "V", "--seed"], ["gb", "f", "-"], ["gb", "f", "V", "W"], ["hilbert", "f", "V"],
    ["pgshell", "f", "V", "W", "--method", "fast"], ["catalog", "ci", "2", "-1"],
])
def test_reader_declines(argv):
    assert cli._read(argv) is None


def test_reader_reads_every_benchmark_command_line(tmp_path):
    spec = importlib.util.spec_from_file_location("perfbench_corpus", CORPUS)
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    for workload in corpus.WORKLOADS:
        (tmp_path / workload).mkdir()
        for op in corpus.build(workload, 1, str(tmp_path / workload)):
            read = cli._read(op["argv"])
            assert read is not None, op["argv"]
            assert vars(read) == namespace(op["argv"])
