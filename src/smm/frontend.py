"""Textual model language: parser, printer, and output rendering.

A model file declares classes, method bodies, an initial object network and
default strategy choices:

    class Buffer { attr data: Int = -1; }

    op Buffer.put(p: Int): Void {
      let d: Int = 0;
      loadparam d p;
      setattr data d;
      return void;
    }

    setup {
      b: Buffer passive;
      w: Worker active work prio 1 links [b];
    }

    config { runnables: rtc; scheduler: rr; dispatch: single; medium: reliable; }

Statements are keyword-led and semicolon-terminated; ``L3:`` labels name
jump targets (``goto L3``, ``ifnot c goto L3``), and labels compile away
into plain body indices; ``#`` starts a comment that runs to the end of
its line. ``parse_model`` yields a validated ``ModelDef`` or raises
``ModelError`` with located diagnostics; ``print_model`` renders the
canonical source for a ``ModelDef``, and parsing that text reproduces the
value exactly.

The tokenizer makes one regular-expression match per token, which also
consumes the whitespace, line ends and comments before it, and yields
plain ``(kind, text, offset)`` tuples. No token carries its line and
column: a diagnostic, or a reader of the tokens the parser records for
model elements, works them out from the offset by bisecting the offsets
of the line ends, which are found once per parse, on the first ask. Each
parsed method is one record holding the token naming it and one token
per action, indexed by pc; the tokens naming classes, superclasses,
attributes and setup entries are kept by their ``Problem.where`` keys,
and ``_Parser.loc`` finds the token for any such key.

The parser checks only what needs its tokens: syntax, duplicate classes and
methods (which the tables would swallow), labels, call-site and start
operation resolution, config keys, and attribute references (which need
the setup's links). A load builds one ``universe.Hierarchy``, which walks
only the chains asked for, and every check reads it: ``validate_model``,
``smm.vm.check_setup`` and the parser's start-operation and attribute
reference checks. Attribute references are checked per name, from its
index of the classes declaring each name, or per class where one class
reads many names. So loading is linear in the depth of a chain, except
that the redeclaration check is still O(N²) on a chain where every class
redeclares one name. Every other rule has one home, ``validate_model``
for the model and ``smm.vm.check_setup`` for the setup; the parser places
each of their problems at the token it recorded for the element the
problem names, and reports everything it found in one pass, in source
order.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Iterable

from . import actions as A
from .errors import Diagnostic, ExecError, ModelError
from .state import SimState
from .universe import (
    AttrDef, BASE_TYPES, BoolVal, ClassDef, ClassTable, ClassType, Hierarchy,
    INT_RANGE, IntVal, MethMap, MethodDef, NULL_OID, NullOid, OidVal, OpSig,
    SubclassRel, TypeRef, VOID, VOID_VAL, Value, VoidVal, validate_model,
    value_class,
)
# perfbench's tracer counts chain walks by rebinding this name here.
from .universe import super_chain  # noqa: F401
from .variation import Config, complete_choices, config_of, strategy
from .vm import (
    Active, AllDone, Blocked, OKind, Passive, RunResult, Setup, SetupEntry,
    StepLimit, check_setup, run_main,
)


@dataclass
class ModelDef:
    """A parsed and validated model: tables, setup and ``config``, the
    config block's strategy name, or else the default, for every point."""

    classes: ClassTable
    subclass_rel: SubclassRel
    meth_map: MethMap
    setup: Setup
    config: dict[str, str] = field(default_factory=complete_choices)


@value_class
class TraceRecord:
    step: int
    oid: int
    tid: int
    pc: int
    action: str


# --- tokenizer ----------------------------------------------------------------

# A match is one token and the whitespace, line ends and comments before
# it. "eof" matches at the end of the text; "bad", a character that starts
# no token, takes the rest of the text, so the scan ends there.
_TOKEN_RE = re.compile(r"""
    (?:[ \t\r\n]+|\#[^\n]*)*
    (?:
        (?P<arrow>->)
      | (?P<int>-?[0-9]+)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<punct>[{}()\[\]:;,.=])
      | (?P<eof>\Z)
      | (?P<bad>(?s:.+))
    )
""", re.VERBOSE)

# A token: its kind ("int", "ident", "punct", "arrow" or "eof"), its text
# and the offset of its first character.
_Token = tuple[str, str, int]


def _tokenize(text: str) -> list[_Token]:
    """The tokens of ``text``, ending in one "eof": one match per token,
    and no line or column, which ``_line_col`` works out from an offset
    only when a diagnostic or a reader of the recorded tokens asks."""
    toks = [((kind := m.lastgroup), m[kind], m.start(kind))
            for m in _TOKEN_RE.finditer(text)]
    # A match that is not empty and ends at the end of the text is
    # followed by an empty "eof" match there: after the last token, after
    # "bad", or after an "eof" that took trailing whitespace or comments,
    # whose second "eof" is dropped.
    if len(toks) > 1:
        kind, rest, offset = toks[-2]
        if kind == "bad":
            raise ModelError([Diagnostic(f"unexpected character {rest[0]!r}",
                                         *_line_col(_line_ends(text), offset))])
        if kind == "eof":
            toks.pop()
    return toks


def _line_ends(text: str) -> list[int]:
    """The offsets of the line ends in ``text``, in ascending order."""
    return [m.start() for m in re.finditer("\n", text)]


def _line_col(line_ends: list[int], offset: int) -> tuple[int, int]:
    """The 1-based line and column of ``offset`` into a text whose line
    ends are at ``line_ends``."""
    line = bisect_left(line_ends, offset)
    return line + 1, offset - (line_ends[line - 1] if line else -1)


# --- parser ---------------------------------------------------------------------

_STMT_KEYWORDS = {
    "let", "loadparam", "loadattr", "set", "setattr", "goto", "ifnot", "new",
    "call", "send", "return", *A.BIN_OPS,
}

# The keyword literals and the values they spell.
_LITERALS = {"true": BoolVal(True), "false": BoolVal(False), "void": VOID_VAL,
             "null": NULL_OID}


class _ParseAbort(Exception):
    pass


@dataclass
class _RawOp:
    """A method whose body awaits call-site resolution, with the token
    naming it and the token of each action, indexed by pc."""

    class_name: str
    sig: OpSig
    params: list[tuple[str, TypeRef]]
    tok: _Token
    body: list
    toks: list[_Token]


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.pos = 0
        self.diags: list[Diagnostic] = []
        self.classes: dict[str, ClassDef] = {}
        self.scl: SubclassRel = {}
        self.ops: dict[tuple[str, OpSig], _RawOp] = {}  # by (class, sig)
        # Call/send sites awaiting their operation: (body, index, token of
        # the operation name, arity, the action's builder from its operation).
        self.sites: list[tuple] = []
        self.setup: list[SetupEntry] = []
        # A class, superclass, attribute or setup element (a
        # ``Problem.where`` key) -> the token naming it; see ``loc``.
        self.locs: dict[tuple, _Token] = {}
        self.setup_active: list[tuple[int, str, _Token]] = []
        self.config = complete_choices()

    # token plumbing

    def peek(self) -> _Token:
        return self.toks[self.pos]

    @cached_property
    def line_ends(self) -> list[int]:
        return _line_ends(self.text)

    def position(self, tok: _Token) -> tuple[int, int]:
        """The line and column of ``tok``."""
        return _line_col(self.line_ends, tok[2])

    def loc(self, where: tuple) -> _Token:
        """The token naming the model element ``where``, a ``Problem.where``
        key: a method's and an action's are kept in its ``_RawOp``."""
        match where:
            case ("op", cls, sig):
                return self.ops[cls, sig].tok
            case ("action", cls, sig, pc):
                return self.ops[cls, sig].toks[pc]
        return self.locs[where]

    def fail(self, msg: str, tok: _Token | None = None):
        self.note(msg, tok or self.peek())
        raise _ParseAbort

    def note(self, msg: str, tok: _Token):
        self.diags.append(Diagnostic(msg, *self.position(tok)))

    def expect(self, kind: str, text: str | None = None) -> _Token:
        tok = self.toks[self.pos]
        if tok[0] != kind or (text is not None and tok[1] != text):
            self.fail(f"expected {text if text is not None else kind!r}, "
                      f"found {tok[1] or 'end of file'!r}")
        self.pos += 1
        return tok

    def ident(self, what: str) -> _Token:
        tok = self.toks[self.pos]
        if tok[0] != "ident":
            self.fail(f"expected {what}, found {tok[1] or 'end of file'!r}")
        self.pos += 1
        return tok

    def items(self, read, brackets: str = "") -> list:
        """``read()`` for each item of a comma-separated list; inside
        ``brackets`` ("()" or "[]"), when given, the list may be empty."""
        if brackets:
            self.expect("punct", brackets[0])
        found = [] if brackets and self.peek()[1] == brackets[1] else [read()]
        while found and self.peek()[1] == ",":
            self.pos += 1
            found.append(read())
        if brackets:
            self.expect("punct", brackets[1])
        return found

    # grammar

    def parse(self) -> ModelDef:
        sections = {"class": self.parse_class, "op": self.parse_op,
                    "setup": self.parse_setup, "config": self.parse_config}
        while (tok := self.peek())[0] != "eof":
            if tok[0] != "ident":
                self.fail("expected 'class', 'op', 'setup' or 'config'")
            if tok[1] not in sections:
                self.fail(f"expected 'class', 'op', 'setup' or 'config', "
                          f"found {tok[1]!r}")
            sections[tok[1]]()
        return self.finish()

    def parse_type(self) -> TypeRef:
        tok = self.ident("a type name")
        return BASE_TYPES.get(tok[1]) or ClassType(tok[1])

    def integer(self) -> int:
        """The next token, which must be an integer, as its value."""
        tok = self.expect("int")
        try:
            value = int(tok[1])
        except ValueError:  # more digits than ``int`` converts from text
            self.fail(f"integer of {len(tok[1].lstrip('-'))} digits is "
                      f"too long", tok)
        if value not in INT_RANGE:
            self.fail("integer outside the signed 64-bit range", tok)
        return value

    def parse_literal(self) -> Value:
        tok = self.peek()
        if tok[0] == "int":
            return IntVal(self.integer())
        if tok[0] == "ident" and tok[1] in _LITERALS:
            self.pos += 1
            return _LITERALS[tok[1]]
        self.fail(f"expected a literal, found {tok[1] or 'end of file'!r}")

    def parse_class(self):
        self.expect("ident", "class")
        name_tok = self.ident("a class name")
        name = name_tok[1]
        if name in self.classes:
            self.note(f"duplicate class {name!r}", name_tok)
        self.locs[("class", name)] = name_tok
        supers: list[str] = []
        if self.peek()[1] == "extends":
            self.pos += 1
            for sup_tok in self.items(lambda: self.ident("a superclass name")):
                supers.append(sup_tok[1])
                self.locs[("extends", name, sup_tok[1])] = sup_tok
        self.expect("punct", "{")
        attrs: list[AttrDef] = []
        while self.peek()[1] != "}":
            self.expect("ident", "attr")
            attr_tok = self.ident("an attribute name")
            self.expect("punct", ":")
            attr_type = self.parse_type()
            self.expect("punct", "=")
            init = self.parse_literal()
            self.expect("punct", ";")
            self.locs[("attr", name, len(attrs))] = attr_tok
            attrs.append(AttrDef(attr_tok[1], attr_type, init))
        self.expect("punct", "}")
        self.classes[name] = ClassDef(name, tuple(attrs))
        if supers:
            self.scl[name] = tuple(supers)

    def parse_op(self):
        self.expect("ident", "op")
        cls_tok = self.ident("a class name")
        self.expect("punct", ".")
        op_tok = self.ident("an operation name")

        def param() -> tuple[str, TypeRef]:
            p_tok = self.ident("a parameter name")
            self.expect("punct", ":")
            return p_tok[1], self.parse_type()

        params = self.items(param, "()")
        self.expect("punct", ":")
        sig = OpSig(op_tok[1], tuple(t for _, t in params), self.parse_type())
        key = cls_tok[1], sig
        if key in self.ops:
            self.note(f"duplicate method {cls_tok[1]}.{op_tok[1]}",
                      cls_tok)
        raw = _RawOp(cls_tok[1], sig, params, cls_tok, [], [])
        self.parse_body(raw)
        self.ops[key] = raw

    def parse_body(self, raw: _RawOp):
        self.expect("punct", "{")
        labels: dict[str, int] = {}
        # (index, label, loc, the builder of the jump from its target)
        pending: list[tuple[int, str, _Token, Callable]] = []

        while (tok := self.toks[self.pos])[1] != "}":
            if tok[0] == "eof":
                self.fail("unterminated method body")
            # Optional "NAME:" label prefix.
            if tok[0] == "ident" and tok[1] not in _STMT_KEYWORDS and \
                    self.toks[self.pos + 1][1] == ":":
                self.pos += 2
                if tok[1] in labels:
                    self.note(f"duplicate label {tok[1]!r}", tok)
                labels[tok[1]] = len(raw.body)
                continue
            self.parse_stmt(raw, pending)

        self.expect("punct", "}")
        for index, label, loc, build in pending:
            if label not in labels:
                self.note(f"unknown label {label!r}", loc)
                continue
            raw.body[index] = build(labels[label])

    def parse_jump(self, pending, index: int, build: Callable) -> A.Action:
        """``build(target)`` for a label reference or a raw body index;
        labels resolve later, when the jump is built again.

        A label's placeholder target is 0, which is always in range, so an
        unknown label is reported once, as unknown, and not also as a jump
        out of the body.
        """
        if self.peek()[0] == "int":
            return build(self.integer())
        lbl = self.ident("a label or body index")
        pending.append((index, lbl[1], lbl, build))
        return build(0)

    def parse_stmt(self, raw: _RawOp, pending):
        tok = self.ident("a statement keyword")
        kw = tok[1]
        body = raw.body
        index = len(body)

        if kw == "let":
            name = self.ident("a local name")[1]
            self.expect("punct", ":")
            t = self.parse_type()
            self.expect("punct", "=")
            body.append(A.NewLocal(name, t, self.parse_literal()))
        elif kw == "loadparam":
            local = self.ident("a local name")[1]
            param = self.ident("a parameter name")[1]
            body.append(A.LocalFromParam(local, param))
        elif kw == "loadattr":
            local = self.ident("a local name")[1]
            attr = self.ident("an attribute name")[1]
            body.append(A.LocalFromAttr(local, attr))
        elif kw == "set":
            local = self.ident("a local name")[1]
            body.append(A.LocalConst(local, self.parse_literal()))
        elif kw == "setattr":
            attr = self.ident("an attribute name")[1]
            local = self.ident("a local name")[1]
            body.append(A.SetAttr(attr, local))
        elif kw in A.BIN_OPS:
            dst = self.ident("a destination local")[1]
            lhs = self.ident("a left operand local")[1]
            rhs = self.ident("a right operand local")[1]
            body.append(A.BinOp(kw, dst, lhs, rhs))
        elif kw == "goto":
            body.append(self.parse_jump(pending, index, A.Jump))
        elif kw == "ifnot":
            cond = self.ident("a condition local")[1]
            self.expect("ident", "goto")
            body.append(self.parse_jump(pending, index,
                                        partial(A.BranchIfFalse, cond)))
        elif kw == "new":
            dst = self.ident("a destination local")[1]
            cls = self.ident("a class name")[1]
            body.append(A.NewObject(dst, cls))
        elif kw in ("call", "send"):
            target = self.ident("a target local")[1]
            self.expect("punct", ".")
            op_tok = self.ident("an operation name")
            args = tuple(self.items(
                lambda: self.ident("an argument local")[1], "()"))
            if kw == "call":
                self.expect("arrow")
                build = partial(A.Call, target, args=args,
                                result_local=self.ident("a result local")[1])
            else:
                self.expect("ident", "prio")
                build = partial(A.SendSignal, target, args=args,
                                prio=self.integer())
            body.append(build(_UNRESOLVED))
            self.sites.append((body, index, op_tok, len(args), build))
        elif kw == "return":
            nxt = self.peek()
            if nxt[0] == "ident" and nxt[1] not in _LITERALS:
                self.pos += 1
                body.append(A.ReturnLocal(nxt[1]))
            else:
                body.append(A.ReturnConst(self.parse_literal()))
        else:
            self.fail(f"unknown statement {kw!r}", tok)

        self.expect("punct", ";")
        raw.toks.append(tok)

    def parse_setup(self):
        self.expect("ident", "setup")
        self.expect("punct", "{")
        while self.peek()[1] != "}":
            name_tok = self.ident("an object name")
            self.expect("punct", ":")
            cls = self.ident("a class name")[1]
            kind_tok = self.ident("'passive' or 'active'")
            kind: OKind
            if kind_tok[1] == "passive":
                kind = Passive()
            elif kind_tok[1] == "active":
                op_tok = self.ident("an operation name")
                self.expect("ident", "prio")
                kind = Active(_UNRESOLVED, self.integer())
                self.setup_active.append((len(self.setup), op_tok[1], op_tok))
            else:
                self.fail("expected 'passive' or 'active'", kind_tok)
            links: list[str] = []
            if self.peek()[1] == "links":
                self.pos += 1
                links = self.items(
                    lambda: self.ident("a linked object name")[1], "[]")
            self.expect("punct", ";")
            self.locs[("setup", len(self.setup))] = name_tok
            self.setup.append(SetupEntry(name_tok[1], cls, kind, tuple(links)))
        self.expect("punct", "}")

    def parse_config(self):
        self.expect("ident", "config")
        self.expect("punct", "{")
        while self.peek()[1] != "}":
            key_tok = self.ident("a config key")
            if key_tok[1] not in self.config:  # it holds every point
                self.fail(f"unknown config key {key_tok[1]!r}; expected one "
                          f"of {sorted(self.config)}", key_tok)
            self.expect("punct", ":")
            val_tok = self.ident("a strategy name")
            try:
                strategy(key_tok[1], val_tok[1])
            except ExecError as err:
                self.note(err.message, val_tok)
            self.expect("punct", ";")
            self.config[key_tok[1]] = val_tok[1]
        self.expect("punct", "}")

    # resolution and validation

    def finish(self) -> ModelDef:
        sigs_by_name: dict[str, list[OpSig]] = {}
        for raw in self.ops.values():
            sigs_by_name.setdefault(raw.sig.name, []).append(raw.sig)

        found: dict[tuple[str, int], list[OpSig]] = {}  # (name, arity)
        for body, index, tok, arity, build in self.sites:
            name = tok[1]
            key = name, arity
            if key not in found:
                # The same signature may be implemented by several classes.
                found[key] = sorted({sig for sig in sigs_by_name.get(name, [])
                                     if len(sig.param_types) == arity},
                                    key=str)
            sigs = found[key]
            if not sigs:
                self.note(f"no operation {name!r} taking {arity} argument(s) "
                          f"is declared", tok)
            elif len(sigs) > 1:
                self.note(f"operation {name!r} with {arity} argument(s) is "
                          f"ambiguous", tok)
            else:
                body[index] = build(sigs[0])

        meth_map: MethMap = {}
        for raw in self.ops.values():
            meth_map.setdefault(raw.class_name, {})[raw.sig] = MethodDef(
                raw.sig, tuple(raw.params), tuple(raw.body))

        hierarchy = Hierarchy(self.classes, self.scl)
        for where, message in (validate_model(hierarchy, meth_map)
                               + check_setup(hierarchy, self.setup)):
            self.note(message, self.loc(where))
        self._check_attr_refs(hierarchy)
        self._resolve_start_ops(meth_map, hierarchy)

        if self.diags:
            raise ModelError(sorted(self.diags,
                                    key=lambda d: (d.line, d.column)))
        return ModelDef(self.classes, self.scl, meth_map, tuple(self.setup),
                        self.config)

    def _check_attr_refs(self, hierarchy: Hierarchy):
        """Each attribute an action reads or writes must be one an instance
        running that code may have: in the layout of the class or of a
        subclass, or set up as a link. So a class may touch a name when it
        is above a class below one of the name's declarers. A reference is
        answered from the names its class may touch or the classes its name
        may be touched by, whichever side answers more references, each
        built once; so many classes reading one name load as fast as one
        reading many."""
        links = {link for entry in self.setup for link in entry.links}
        # A class's own attributes and the links need no walk; an unknown
        # class or one on a cycle is reported already.
        refs = [(cls_name, act.attr, tok)
                for raw in self.ops.values()
                if (cls_name := raw.class_name) in self.classes
                and cls_name not in hierarchy.cycles
                for act, tok in zip(raw.body, raw.toks)
                if isinstance(act, (A.LocalFromAttr, A.SetAttr))
                and act.attr not in links
                and cls_name not in hierarchy.declarers.get(act.attr, ())]
        per_class = Counter(ref[0] for ref in refs)
        per_name = Counter(ref[1] for ref in refs)

        def related(classes: Iterable[str]) -> set[str]:
            return hierarchy.above(hierarchy.below(classes))

        names: dict[str, set[str]] = {}  # class -> names it may touch
        touching: dict[str, set[str]] = {}  # name -> classes touching it
        for cls_name, attr, tok in refs:
            if cls_name not in names and attr not in touching:
                if per_name[attr] >= per_class[cls_name]:
                    touching[attr] = related(hierarchy.declarers.get(attr,
                                                                     ()))
                else:
                    names[cls_name] = {
                        a.name for c in related([cls_name])
                        if c in self.classes
                        for a in self.classes[c].attributes}
            if not (cls_name in touching[attr] if attr in touching
                    else attr in names[cls_name]):
                self.note(f"unknown attribute {attr!r} for class "
                          f"{cls_name!r}", tok)

    def _resolve_start_ops(self, meth_map: MethMap, hierarchy: Hierarchy):
        for index, op_name, loc in self.setup_active:
            entry = self.setup[index]
            chain = hierarchy.chain(entry.class_name)
            if chain is None:  # unknown class or a cycle, reported already
                continue
            named = {sig for cls in chain for sig in meth_map.get(cls, {})
                     if sig.name == op_name}
            candidates = sorted((sig for sig in named if not sig.param_types),
                                key=str)
            if not candidates:
                if named:
                    self.note(f"start operation {op_name!r} must take no "
                              f"parameters", loc)
                else:
                    self.note(f"class {entry.class_name!r} does not implement "
                              f"{op_name!r}", loc)
                continue
            if len(candidates) > 1:
                self.note(f"start operation {op_name!r} is ambiguous for "
                          f"class {entry.class_name!r}", loc)
                continue
            self.setup[index] = SetupEntry(
                entry.name, entry.class_name,
                Active(candidates[0], entry.kind.prio), entry.links)


# Placeholder signature for unresolved call/send sites; replaced during
# resolution and never present in a returned ModelDef.
_UNRESOLVED = OpSig("<unresolved>", (), VOID)


def parse_model(text: str) -> ModelDef:
    """Parse and validate model source; raise ModelError with located
    diagnostics on any syntax or consistency problem."""
    parser = _Parser(text)
    try:
        return parser.parse()
    except _ParseAbort:
        raise ModelError(parser.diags) from None


def _universal_newlines(text: str) -> str:
    """``text`` with line ends read as text mode reads them."""
    return text.replace("\r\n", "\n").replace("\r", "\n")


def load_model(path) -> ModelDef:
    """Parse and validate the model file at ``path``, which must be UTF-8:
    its first byte that is not is a located ``ModelError``. One leading
    byte order mark is skipped."""
    with open(path, "rb") as fh:
        data = fh.read().removeprefix(b"\xef\xbb\xbf")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        head = _universal_newlines(data[:err.start].decode("utf-8"))
        raise ModelError([Diagnostic(
            f"byte 0x{data[err.start]:02x} is not UTF-8 ({err.reason})",
            *_line_col(_line_ends(head), len(head)))]) from None
    return parse_model(_universal_newlines(text))


# --- printing -------------------------------------------------------------------

def _int_value(v: IntVal, form: str) -> int:
    """The value of ``v``, which has no ``form`` form outside ``Int`` (only
    a built model can hold such a value, and ``str`` may not convert it)."""
    if v.value not in INT_RANGE:
        raise ModelError(f"integer of {v.value.bit_length()} bits has no "
                         f"{form} form")
    return v.value


def _print_literal(v: Value) -> str:
    if isinstance(v, IntVal):
        return str(_int_value(v, "source"))
    for text, literal in _LITERALS.items():
        if v == literal:
            return text
    raise ModelError(f"value {v!r} has no source form")


def render_action(act: A.Action, labels: dict[int, str] | None = None) -> str:
    """One action in source syntax; jump targets use ``labels`` when given."""

    def target(pc: int) -> str:
        return labels[pc] if labels and pc in labels else str(pc)

    if isinstance(act, A.NewLocal):
        return f"let {act.name}: {act.type} = {_print_literal(act.init)}"
    if isinstance(act, A.LocalFromParam):
        return f"loadparam {act.local} {act.param}"
    if isinstance(act, A.LocalFromAttr):
        return f"loadattr {act.local} {act.attr}"
    if isinstance(act, A.LocalConst):
        return f"set {act.local} {_print_literal(act.value)}"
    if isinstance(act, A.SetAttr):
        return f"setattr {act.attr} {act.local}"
    if isinstance(act, A.BinOp):
        return f"{act.op} {act.dst} {act.lhs} {act.rhs}"
    if isinstance(act, A.Jump):
        return f"goto {target(act.target)}"
    if isinstance(act, A.BranchIfFalse):
        return f"ifnot {act.cond} goto {target(act.target)}"
    if isinstance(act, A.NewObject):
        return f"new {act.dst} {act.class_name}"
    if isinstance(act, A.Call):
        return f"call {act.target}.{act.op.name}({', '.join(act.args)}) -> " \
               f"{act.result_local}"
    if isinstance(act, A.SendSignal):
        return f"send {act.target}.{act.op.name}({', '.join(act.args)}) " \
               f"prio {act.prio}"
    if isinstance(act, A.ReturnConst):
        return f"return {_print_literal(act.value)}"
    if isinstance(act, A.ReturnLocal):
        return f"return {act.name}"
    raise ModelError(f"action {act!r} has no source form")


def print_model(m: ModelDef) -> str:
    """Canonical source text for a model; parsing it reproduces ``m``."""
    out: list[str] = []
    for cls in m.classes.values():
        supers = m.subclass_rel.get(cls.name, ())
        ext = f" extends {', '.join(supers)}" if supers else ""
        out.append(f"class {cls.name}{ext} {{")
        for a in cls.attributes:
            out.append(f"  attr {a.name}: {a.type} = {_print_literal(a.init)};")
        out.append("}")
        out.append("")
    for cls_name, ops in m.meth_map.items():
        for sig, meth in ops.items():
            params = ", ".join(f"{n}: {t}" for n, t in meth.params)
            out.append(f"op {cls_name}.{sig.name}({params}): "
                       f"{sig.return_type} {{")
            targets = sorted({act.target for act in meth.body
                              if isinstance(act, (A.Jump, A.BranchIfFalse))})
            labels = {pc: f"L{pc}" for pc in targets}
            for pc, act in enumerate(meth.body):
                if pc in labels:
                    out.append(f"{labels[pc]}:")
                out.append(f"  {render_action(act, labels)};")
            out.append("}")
            out.append("")
    if m.setup:
        out.append("setup {")
        for entry in m.setup:
            if isinstance(entry.kind, Active):
                kind = f"active {entry.kind.op.name} prio {entry.kind.prio}"
            else:
                kind = "passive"
            links = f" links [{', '.join(entry.links)}]" if entry.links else ""
            out.append(f"  {entry.name}: {entry.class_name} {kind}{links};")
        out.append("}")
        out.append("")
    out.append("config {")
    out += [f"  {point}: {name};" for point, name in m.config.items()]
    out.append("}")
    return "\n".join(out) + "\n"


# --- rendering results ------------------------------------------------------------

def _render_value(v: Value) -> str:
    if isinstance(v, IntVal):
        return f"VInt {_int_value(v, 'output')}"
    if isinstance(v, BoolVal):
        return f"VBool {'true' if v.value else 'false'}"
    if isinstance(v, VoidVal):
        return "VVoid"
    if isinstance(v, OidVal):
        return f"XOID {v.oid}"
    if isinstance(v, NullOid):
        return "XNULL"
    raise ModelError(f"value {v!r} has no output form")


def _value_json(v: Value):
    if isinstance(v, IntVal):
        return {"kind": "int", "value": _int_value(v, "output")}
    if isinstance(v, BoolVal):
        return {"kind": "bool", "value": v.value}
    if isinstance(v, VoidVal):
        return {"kind": "void"}
    if isinstance(v, OidVal):
        return {"kind": "oid", "value": v.oid}
    if isinstance(v, NullOid):
        return {"kind": "null"}
    raise ModelError(f"value {v!r} has no output form")


def _halt_name(result: RunResult) -> str:
    if isinstance(result.halt, AllDone):
        return "all-done"
    if isinstance(result.halt, Blocked):
        return "blocked"
    if isinstance(result.halt, StepLimit):
        return "step-limit"
    return "unknown"


def render_final_state(result: RunResult, fmt: str = "text") -> str:
    """The final data store and step count, in console or structured form.

    The text form lists one line per object in ascending id:
    ``Class(id N): [("attr",VInt 1),...]`` followed by ``time: T``. The
    structured form is JSON carrying the same data plus the halt reason,
    with stable ordering for byte-for-byte comparison of runs.
    """
    s: SimState = result.final
    if fmt == "text":
        lines = ["attributes:"]
        for oid in sorted(s.ds):
            obj = s.ds[oid]
            attrs = ",".join(f'("{n}",{_render_value(v)})'
                             for n, v in obj.attrs.fields)
            lines.append(f"{obj.class_name}(id {oid}): [{attrs}]")
        lines.append(f"time: {result.time}")
        return "\n".join(lines)
    if fmt == "structured":
        doc = {
            "objects": [
                {"id": oid,
                 "class": s.ds[oid].class_name,
                 "attrs": [[n, _value_json(v)]
                           for n, v in s.ds[oid].attrs.fields]}
                for oid in sorted(s.ds)
            ],
            "time": result.time,
            "halt": _halt_name(result),
            "waiting": [list(w) for w in result.halt.waiting]
            if isinstance(result.halt, Blocked) else [],
        }
        return json.dumps(doc, indent=2)
    raise ModelError(f"unknown output format {fmt!r}")


def trace_recorder(records: list[TraceRecord]):
    """A step hook that appends one TraceRecord per executed step.

    A run executes the same few action objects again and again, so each
    is rendered once per hook. The cache is keyed by ``id`` and holds the
    action too, and a hit counts only for that very object, so a recycled
    id can never return another action's text."""
    rendered: dict[int, tuple[A.Action, str]] = {}

    def hook(t: int, oid: int, tid: int, pc: int, action: A.Action):
        hit = rendered.get(id(action))
        if hit is None or hit[0] is not action:
            hit = rendered[id(action)] = action, render_action(action)
        records.append(TraceRecord(t, oid, tid, pc, hit[1]))

    return hook


def render_trace(records: list[TraceRecord]) -> str:
    lines = [f"[{r.step:>5}] obj={r.oid} tid={r.tid} pc={r.pc} {r.action}"
             for r in records]
    return "\n".join(lines)


# --- running models ------------------------------------------------------------

def build_config(m: ModelDef, **choices: str | None) -> Config:
    """The model's strategy choices, with the overrides that are not None
    applied; ``complete_choices`` rejects a key that is no point, even a
    None."""
    names = m.config
    if choices:
        names = complete_choices(**{**names, **{
            point: name for point, name in choices.items()
            if name is not None or point not in names}})
    return config_of(names, m.classes, m.subclass_rel, m.meth_map)


def run_model(m: ModelDef, *, max_steps: int | None = None, on_step=None,
              **choices: str | None) -> RunResult:
    cfg = build_config(m, **choices)
    return run_main(cfg, m.setup, max_steps=max_steps, on_step=on_step)
