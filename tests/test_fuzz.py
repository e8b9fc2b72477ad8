"""The 0/1/2 exit contract under hostile graph JSON (skipped when
hypothesis is not installed).

Each example takes a builtin graph's JSON tree and applies one mutation:
a value replaced by one of another type or by a huge integer, a value
nested inside a list or object, a key deleted, or a key duplicated with
its own value.  Every command that reads a graph must then either refuse
it with exit 2, empty stdout and exactly one `error:` line, or, for the
duplicated key, which changes nothing, give the unmutated graph's
output.  main runs in process, so a traceback would fail the test.
"""

import contextlib
import copy
import io
import json
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from adinkra import builtin, to_json_obj
from adinkra.cli import main

BASES = ("bow-tie", "diamond", "cube", "rd", "tesseract")
COMMANDS = (("check",), ("garden",), ("matrices",), ("dashings",), ("export-dot",))
HUGE = (10**400, -(10**400), 2**63, -(2**63) - 1, 2**31)

# Any value of a JSON type; each mutation draws one of another type.
ANY_VALUE = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(),
    st.text(max_size=3),
    st.lists(st.integers(-1, 1), max_size=2),
    st.dictionaries(st.sampled_from("bfcsx"), st.integers(-1, 1), max_size=2),
)


class Pairs(list):
    """A JSON object written from (key, value) pairs, so keys may repeat."""


def dump(x) -> str:
    if isinstance(x, dict):
        x = Pairs(x.items())
    if isinstance(x, Pairs):
        return "{" + ", ".join(f"{json.dumps(k)}: {dump(v)}" for k, v in x) + "}"
    if isinstance(x, list):
        return "[" + ", ".join(dump(v) for v in x) + "]"
    return json.dumps(x)


def paths(tree, here=()):
    yield here
    if isinstance(tree, (dict, list)):
        for k, v in (tree.items() if isinstance(tree, dict) else enumerate(tree)):
            yield from paths(v, here + (k,))


def replaced(tree, path, value):
    if not path:
        return value
    out = copy.deepcopy(tree)
    node = out
    for k in path[:-1]:
        node = node[k]
    node[path[-1]] = value
    return out


def lookup(tree, path):
    for k in path:
        tree = tree[k]
    return tree


def run(argv, text):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(text)), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def command(cmd):
    return cmd + ("-", "-") if cmd == ("export-dot",) else cmd + ("-",)


@st.composite
def mutations(draw):
    """A builtin's name and its JSON text after one mutation, and whether
    the mutation leaves the graph unchanged."""
    name = draw(st.sampled_from(BASES))
    tree = to_json_obj(builtin(name))
    kind = draw(st.sampled_from(("retype", "huge", "nest", "delete", "duplicate")))
    if kind in ("delete", "duplicate"):
        objects = [p for p in paths(tree) if isinstance(lookup(tree, p), dict)]
        path = draw(st.sampled_from(objects))
        obj = lookup(tree, path)
        key = draw(st.sampled_from(sorted(obj)))
        if kind == "delete":
            new = {k: v for k, v in obj.items() if k != key}
        else:
            new = Pairs(list(obj.items()) + [(key, obj[key])])
        return name, dump(replaced(tree, path, new)), kind == "duplicate"
    path = draw(st.sampled_from(list(paths(tree))))
    old = lookup(tree, path)
    if kind == "retype":
        new = draw(ANY_VALUE.filter(lambda v: type(v) is not type(old)))
    elif kind == "huge":
        new = draw(st.sampled_from(HUGE))
    else:
        new = draw(st.sampled_from(([old], {"x": old}, [[[old]]])))
    return name, dump(replaced(tree, path, new)), False


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(mutations())
def test_hostile_json_exits_2_with_one_error_line(mutation):
    name, text, unchanged = mutation
    for cmd in COMMANDS:
        code, out, err = run(command(cmd), text)
        if unchanged:
            base = json.dumps(to_json_obj(builtin(name)))
            assert (code, out, err) == run(command(cmd), base), cmd
        else:
            assert (code, out) == (2, ""), (cmd, err)
            assert err.startswith("error: ") and err.count("\n") == 1, (cmd, err)
