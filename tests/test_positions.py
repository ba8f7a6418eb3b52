"""Source positions, worked out from token offsets only when asked.

A token is ``(kind, text, offset)``; its line and column come from
``frontend._line_col`` over the offsets of the line ends. Every token the
parser records for a model element must resolve to the position the
position-counting oracle tokenizer gives the token at the same index;
end-of-file diagnostics keep their positions; and input that is mostly
whitespace, comments or diagnostics is handled in linear time.
"""

from __future__ import annotations

import random
import time

import pytest

from smm import ModelError, load_model, parse_model, print_model
from smm.frontend import _Parser, _line_col, _line_ends, _tokenize

from conftest import MODELS_DIR
from modelgen import random_model
from test_tokenizer_oracle import oracle_tokenize

SOURCES = (
    [path.read_text(encoding="utf-8")
     for path in sorted(MODELS_DIR.glob("*.smm"))]
    + [print_model(random_model(random.Random(seed), supers=supers))
       for supers in (1, 3) for seed in range(50)])


@pytest.mark.parametrize("text", SOURCES)
def test_every_recorded_location_resolves_as_the_oracle_tokens_do(text):
    parser = _Parser(text)
    parser.parse()
    index = {tok[2]: i for i, tok in enumerate(parser.toks)}
    expected = oracle_tokenize(text)
    assert parser.locs
    recorded = [*parser.locs.values()]
    for raw in parser.ops.values():
        assert len(raw.toks) == len(raw.body)
        recorded += [raw.tok, *raw.toks]
    for tok in recorded:
        kind, tok_text, offset = tok
        assert (kind, tok_text, *parser.position(tok)) == \
            expected[index[offset]]


def diagnostics(text):
    with pytest.raises(ModelError) as err:
        parse_model(text)
    return [(d.line, d.column, d.message) for d in err.value.diagnostics]


@pytest.mark.parametrize("text", ["", "  \n\t", "# only a comment"])
def test_a_model_of_no_tokens_is_empty(text):
    [(kind, tok_text, offset)] = _tokenize(text)
    assert [(kind, tok_text, *_line_col(_line_ends(text), offset))] == \
        oracle_tokenize(text)
    assert parse_model(text).classes == {}


@pytest.mark.parametrize("text,expected", [
    # No trailing line end.
    ("op A.f(): Void {", (1, 17, "unterminated method body")),
    ("class A", (1, 8, "expected '{', found 'end of file'")),
    # A trailing line end.
    ("class A {\n", (2, 1, "expected 'attr', found 'end of file'")),
    ("op A.f(): Void {\n  return\n",
     (3, 1, "expected a literal, found 'end of file'")),
    # Ending in a comment, with and without a line end before it.
    ("op A.f(): Void {\n  let x: Int = 0;\n# a comment",
     (3, 12, "unterminated method body")),
    ("class A { }\nop A.f(): Void {\n  let x: Int = 0;   # tail",
     (3, 27, "unterminated method body")),
    ("class A { } setup {  # open",
     (1, 28, "expected an object name, found 'end of file'")),
])
def test_end_of_file_diagnostics_keep_their_positions(text, expected):
    assert diagnostics(text) == [expected]


@pytest.mark.parametrize("data,expected", [
    (b"op A.f(): Void {\r\n  let x: Int = 0;\r\n",
     (3, 1, "unterminated method body")),
    (b"class A {\r\n  attr a: Int = 1;\r\n# c\r\n",
     (4, 1, "expected 'attr', found 'end of file'")),
    (b"class A {\r\n  attr a: Int = 1;\r\n# c",
     (3, 4, "expected 'attr', found 'end of file'")),
])
def test_end_of_file_diagnostics_of_crlf_files(tmp_path, data, expected):
    path = tmp_path / "model.smm"
    path.write_bytes(data)
    with pytest.raises(ModelError) as err:
        load_model(path)
    assert [(d.line, d.column, d.message)
            for d in err.value.diagnostics] == [expected]


# Seconds within which linear work ends with a wide margin; quadratic work
# on these sizes takes many times as long.
LINEAR_BOUND_S = 5.0
MB = 1_000_000


@pytest.mark.parametrize("unit", ["\n", "# a comment line\n", " \t  \t\t"],
                         ids=["blank-lines", "comment-lines", "tab-space"])
def test_a_megabyte_of_no_tokens_tokenizes_in_linear_time(unit):
    text = unit * (MB // len(unit))
    start = time.perf_counter()
    assert _tokenize(text) == [("eof", "", len(text))]
    with pytest.raises(ModelError) as err:
        _tokenize(text + "$")
    assert time.perf_counter() - start < LINEAR_BOUND_S
    [diag] = err.value.diagnostics
    assert (diag.line, diag.column, diag.message) == (
        text.count("\n") + 1, len(text) - text.rfind("\n"),
        "unexpected character '$'")


def test_forty_thousand_diagnostics_are_located_in_linear_time():
    # Each duplicate label sits on its own line, after a long comment:
    # counting the line ends before each one anew would scan the 8 MB text
    # 40,000 times, well over a minute even at the speed of ``str.count``.
    labels = 40_000
    text = ("class A { }\nop A.f(): Void {\n"
            + f"L:  # {'x' * 200}\n" * (labels + 1) + "  return void;\n}\n")
    assert len(text) > 8 * MB
    start = time.perf_counter()
    found = diagnostics(text)
    assert time.perf_counter() - start < LINEAR_BOUND_S
    assert found == [(line, 1, "duplicate label 'L'")
                     for line in range(4, labels + 4)]
