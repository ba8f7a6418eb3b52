"""The one-scan tokenizer against the position-counting loop it replaced.

The oracle below is the earlier ``frontend._tokenize``, kept unchanged with
its own copy of the token pattern (which had no catch-all alternative): it
matched at a position and counted lines and columns itself. On sources
built from token fragments, whitespace, comments and stray characters,
and on single-character mutations of the bundled models, the tokenizer
must give the same tokens or the same ``unexpected character`` diagnostic.
"""

from __future__ import annotations

import re

from hypothesis import HealthCheck, given, settings, strategies as st

from smm import ModelError
from smm.errors import Diagnostic
from smm.frontend import _line_col, _line_ends, _tokenize

from conftest import MODELS_DIR

_ORACLE_RE = re.compile(r"""
    (?P<ws>[ \t\r]+)
  | (?P<comment>\#[^\n]*)
  | (?P<nl>\n)
  | (?P<arrow>->)
  | (?P<int>-?[0-9]+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<punct>[{}()\[\]:;,.=])
""", re.VERBOSE)


def oracle_tokenize(text):
    toks = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _ORACLE_RE.match(text, pos)
        if m is None:
            raise ModelError([Diagnostic(f"unexpected character {text[pos]!r}",
                                         line, col)])
        kind = m.lastgroup
        value = m.group()
        if kind == "nl":
            line += 1
            col = 1
        else:
            if kind not in ("ws", "comment"):
                toks.append((kind, value, line, col))
            col += len(value)
        pos = m.end()
    toks.append(("eof", "", line, col))
    return toks


def tokenize(text):
    line_ends = _line_ends(text)
    return [(kind, tok_text, *_line_col(line_ends, offset))
            for kind, tok_text, offset in _tokenize(text)]


def outcome(tokenizer, text):
    """The ``(kind, text, line, col)`` tokens, or the located diagnostic."""
    try:
        return tokenizer(text)
    except ModelError as err:
        return [(d.line, d.column, d.message) for d in err.diagnostics]


FRAGMENTS = [
    "class", "op", "extends", "attr", "x_1", "_", "A", "0", "42", "-7",
    "->", "{", "}", "(", ")", "[", "]", ":", ";", ",", ".", "=",
    " ", "  ", "\t", "\r", "\n", "\r\n", "# a comment", "#",
    "$", "é", '"', "-", ">",
]

MODELS = [path.read_text(encoding="utf-8")
          for path in sorted(MODELS_DIR.glob("*.smm"))]

ORACLE = settings(max_examples=500, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])


@ORACLE
@given(st.lists(st.sampled_from(FRAGMENTS), max_size=40).map("".join))
def test_fragments_tokenize_as_the_oracle_does(text):
    assert outcome(tokenize, text) == outcome(oracle_tokenize, text)


@ORACLE
@given(st.sampled_from(MODELS), st.data())
def test_mutated_models_tokenize_as_the_oracle_does(model, data):
    pos = data.draw(st.integers(0, len(model)))
    char = data.draw(st.sampled_from(["", "$", "é", '"', "-", ">", "#", " ",
                                      "\t", "\r", "\n", "0", "a", "{"]))
    # Replace the character at ``pos``, or insert before it.
    keep = pos + 1 if data.draw(st.booleans()) else pos
    text = model[:pos] + char + model[keep:]
    assert outcome(tokenize, text) == outcome(oracle_tokenize, text)


def test_a_stray_character_is_located():
    text = "class A { }\n  attr $"
    assert outcome(tokenize, text) == [(2, 8, "unexpected character '$'")]
    assert outcome(oracle_tokenize, text) == outcome(tokenize, text)
