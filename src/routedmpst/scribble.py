"""Scribble-style frontend: parse protocol modules and elaborate `do` calls
(including role-permuting self-calls) into recursive global types.

Grammar accepted here:

    module       = { typeDecl | protocolDecl }*
    typeDecl     = "type" "<" Ident ">" String "from" String "as" Ident ";"
    protocolDecl = ["aux"] "global" "protocol" Ident "(" roleList ")" "{" stmt* "}"
    roleList     = [ "role" Ident { "," "role" Ident } ]
    stmt         = msg | choice | doCall
    msg          = Ident "(" sortList? ")" "from" Ident "to" Ident ";"
    choice       = "choice" "at" Ident block { "or" block }
    block        = "{" stmt* "}"
    doCall       = "do" Ident "(" identList ")" ";"

Comments run from `//` to the end of the line.  An alias is declared at most
once per module, and a protocol must follow its declaration.  A `do` or a
`choice` must be the last statement of its block; general continuations
after them have no counterpart in the type grammar and are rejected.
"""

from __future__ import annotations

import re
from collections import namedtuple

from .core import (
    Field, GComm, GEnd, GRec, GVar, GlobalType, MsgLabel, Role, record,
    validate,
)


@record
class SourceSpan:
    """Where a construct starts."""

    file: str
    start_line: int
    start_col: int

    def __str__(self) -> str:
        return f"{self.file}:{self.start_line}:{self.start_col}"


class ScribbleError(Exception):
    def __init__(self, message: str, span: SourceSpan | None = None):
        self.span = span
        self.message = message
        super().__init__(f"{span}: {message}" if span else message)


class SyntaxProblem(ScribbleError):
    def __init__(self, span: SourceSpan, expected: set[str], found: str):
        self.expected = frozenset(expected)
        self.found = found
        want = ", ".join(sorted(expected))
        super().__init__(f"expected {want}, found {found}", span)


class DuplicateRole(ScribbleError):
    pass


class DuplicateAlias(ScribbleError):
    pass


class UnknownRole(ScribbleError):
    pass


class UnknownProtocol(ScribbleError):
    pass


class ArityMismatch(ScribbleError):
    pass


class NonTailCall(ScribbleError):
    """A `do` (or a `choice`) followed by further statements."""


class UnboundedCall(ScribbleError):
    """A protocol whose calls loop back to it without a message."""


# --------------------------------------------------------------------------
# AST
# --------------------------------------------------------------------------


@record
class MsgStmt:
    label: str
    payload_sorts: tuple[str, ...]
    sender: str
    receiver: str
    span: SourceSpan = Field(compare=False)


@record
class ChoiceStmt:
    at: str
    blocks: tuple[tuple["Stmt", ...], ...]
    span: SourceSpan = Field(compare=False)


@record
class DoStmt:
    protocol: str
    args: tuple[str, ...]
    span: SourceSpan = Field(compare=False)


Stmt = MsgStmt | ChoiceStmt | DoStmt


@record
class TypeAlias:
    alias: str
    language: str
    remote_name: str
    source: str
    span: SourceSpan = Field(compare=False)


@record
class ProtocolDecl:
    name: str
    role_params: tuple[str, ...]
    is_aux: bool
    body: tuple[Stmt, ...]
    type_aliases: tuple[TypeAlias, ...]
    span: SourceSpan = Field(compare=False)

    def roles(self) -> tuple[Role, ...]:
        return tuple(Role(r) for r in self.role_params)


# --------------------------------------------------------------------------
# Lexer
# --------------------------------------------------------------------------

_KEYWORDS = {"global", "protocol", "role", "from", "to", "choice", "at", "or",
             "do", "aux", "type", "as"}

# One alternative per token kind, tried in order.  A string may not span
# lines; an opening quote that no alternative closes is `open_string`.
_TOKEN = re.compile(r"""
    (?P<ident>\w+)
  | (?P<space>[ \t\r]+)
  | (?P<punct>[(){},;<>])
  | (?P<newline>\n)
  | (?P<comment>//[^\n]*)
  | (?P<string>"[^"\n]*")
  | (?P<open_string>")
  | (?P<error>.)
""", re.VERBOSE)


# `kind` is "ident", "string", "punct" or "eof".
_Token = namedtuple("_Token", "kind text line col")


def _tokenize(text: str, filename: str) -> list[_Token]:
    tokens = []
    line, line_start, eof = 1, 0, len(text)
    for m in _TOKEN.finditer(text):
        kind, start = m.lastgroup, m.start()
        col = start - line_start + 1
        if kind == "ident" and (text[start].isalpha() or text[start] == "_") \
                or kind == "punct":
            tokens.append(_Token(kind, m.group(), line, col))
        elif kind == "newline":
            line, line_start = line + 1, m.end()
        elif kind == "comment":
            if m.end() == len(text):  # a comment does not move the column
                eof = start
        elif kind == "string":
            tokens.append(_Token(kind, m.group()[1:-1], line, col))
        elif kind == "open_string":
            found = "newline" if "\n" in text[start:] else "end of input"
            raise SyntaxProblem(SourceSpan(filename, line, col), {"closing quote"}, found)
        elif kind != "space":  # an error, or a word that starts with no letter or `_`
            raise SyntaxProblem(SourceSpan(filename, line, col),
                                {"identifier", "punctuation"}, repr(text[start]))
    tokens.append(_Token("eof", "", line, eof - line_start + 1))
    return tokens


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str, filename: str):
        self.filename = filename
        self.tokens = _tokenize(text, filename)
        self.pos = 0
        self.roles: set[str] = set()  # declared by the protocol being read
        # The first role its body names but does not declare, raised after
        # its closing `}`, so that a syntax error later in the body wins.
        self.unknown_role: UnknownRole | None = None
        self.calls: list[DoStmt] = []  # every `do` of the module, in source order

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def span(self, tok: _Token | None = None) -> SourceSpan:
        """The span of `tok`, by default of the next token."""
        tok = tok or self.peek()
        return SourceSpan(self.filename, tok.line, tok.col)

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.peek()
        if tok.text != text or tok.kind == "string":
            raise SyntaxProblem(self.span(), {repr(text)},
                                repr(tok.text) if tok.text else "end of input")
        return self.take()

    def expect_ident(self, what: str = "identifier") -> str:
        tok = self.peek()
        if tok.kind != "ident" or tok.text in _KEYWORDS:
            raise SyntaxProblem(self.span(), {what},
                                repr(tok.text) if tok.text else "end of input")
        return self.take().text

    def expect_string(self) -> str:
        tok = self.peek()
        if tok.kind != "string":
            raise SyntaxProblem(self.span(), {"string literal"}, repr(tok.text))
        return self.take().text

    def at(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind != "string" and tok.text == text

    def role_ref(self, start: _Token) -> str:
        """A role name in the statement that begins at `start`."""
        role = self.expect_ident("role name")
        if role not in self.roles and self.unknown_role is None:
            self.unknown_role = UnknownRole(f"role {role} not declared", self.span(start))
        return role

    def comma_list(self, item) -> tuple:
        """`"(" [ item { "," item } ] ")"`"""
        self.expect("(")
        items = []
        if not self.at(")"):
            items.append(item())
            while self.at(","):
                self.take()
                items.append(item())
        self.expect(")")
        return tuple(items)

    # module = { typeDecl | protocolDecl }*
    def module(self) -> list[ProtocolDecl]:
        aliases: list[TypeAlias] = []
        decls: list[ProtocolDecl] = []
        while self.peek().kind != "eof":
            if self.at("type"):
                alias = self.type_decl()
                if any(a.alias == alias.alias for a in aliases):
                    raise DuplicateAlias(f"type {alias.alias} declared twice", alias.span)
                aliases.append(alias)
            elif self.at("aux") or self.at("global"):
                decls.append(self.protocol_decl(tuple(aliases)))
            else:
                raise SyntaxProblem(self.span(), {"'type'", "'global'", "'aux'"},
                                    repr(self.peek().text))
        # A protocol carries every alias declared before it.
        covered = len(decls[-1].type_aliases) if decls else 0
        if len(aliases) > covered:
            first = aliases[covered]
            raise ScribbleError(f"type {first.alias} is not followed by a protocol",
                                first.span)
        return decls

    def type_decl(self) -> TypeAlias:
        start = self.expect("type")
        self.expect("<")
        lang = self.expect_ident("host language")
        self.expect(">")
        remote = self.expect_string()
        self.expect("from")
        source = self.expect_string()
        self.expect("as")
        alias = self.expect_ident("alias name")
        self.expect(";")
        return TypeAlias(alias, lang, remote, source, self.span(start))

    def protocol_decl(self, aliases: tuple[TypeAlias, ...]) -> ProtocolDecl:
        start = self.peek()
        is_aux = self.at("aux")
        if is_aux:
            self.take()
        self.expect("global")
        self.expect("protocol")
        name = self.expect_ident("protocol name")
        self.roles = set()

        def role() -> str:
            self.expect("role")
            span = self.span()
            param = self.expect_ident("role name")
            if param in self.roles:
                raise DuplicateRole(f"role {param} declared twice", span)
            self.roles.add(param)
            return param

        roles = self.comma_list(role)
        self.expect("{")
        body = self.statements()
        self.expect("}")
        if self.unknown_role is not None:
            raise self.unknown_role
        return ProtocolDecl(name, roles, is_aux, body, aliases, self.span(start))

    def statements(self) -> tuple[Stmt, ...]:
        out: list[Stmt] = []
        while not self.at("}"):
            stmt = self.statement()
            if out and isinstance(out[-1], (DoStmt, ChoiceStmt)):
                kind = "do" if isinstance(out[-1], DoStmt) else "choice"
                raise NonTailCall(f"statements after a tail {kind!r} are not supported",
                                  out[-1].span)
            out.append(stmt)
        return tuple(out)

    def statement(self) -> Stmt:
        if self.at("choice"):
            return self.choice_stmt()
        if self.at("do"):
            return self.do_stmt()
        return self.msg_stmt()

    def msg_stmt(self) -> MsgStmt:
        start = self.peek()
        label = self.expect_ident("message label")
        sorts = self.comma_list(lambda: self.expect_ident("payload sort"))
        self.expect("from")
        sender = self.role_ref(start)
        self.expect("to")
        receiver = self.role_ref(start)
        self.expect(";")
        return MsgStmt(label, sorts, sender, receiver, self.span(start))

    def choice_stmt(self) -> ChoiceStmt:
        start = self.expect("choice")
        self.expect("at")
        at = self.role_ref(start)
        blocks = [self.block()]
        while self.at("or"):
            self.take()
            blocks.append(self.block())
        return ChoiceStmt(at, tuple(blocks), self.span(start))

    def block(self) -> tuple[Stmt, ...]:
        self.expect("{")
        stmts = self.statements()
        self.expect("}")
        return stmts

    def do_stmt(self) -> DoStmt:
        start = self.expect("do")
        name = self.expect_ident("protocol name")
        args = self.comma_list(lambda: self.role_ref(start))
        self.expect(";")
        self.calls.append(DoStmt(name, args, self.span(start)))
        return self.calls[-1]


def parse_module(text: str, filename: str = "<string>") -> list[ProtocolDecl]:
    """Parse a protocol module; `do` targets are resolved against the module."""
    parser = _Parser(text, filename)
    decls = parser.module()
    by_name = {d.name: d for d in decls}
    for call in parser.calls:
        target = by_name.get(call.protocol)
        if target is None:
            raise UnknownProtocol(f"protocol {call.protocol} not defined", call.span)
        if len(call.args) != len(target.role_params):
            raise ArityMismatch(
                f"{call.protocol} takes {len(target.role_params)} roles, "
                f"got {len(call.args)}", call.span)
    return decls


# The recursive walkers below are module-level functions rather than nested
# closures: a closure that calls itself is a reference cycle, which every
# call would leave behind for the cyclic garbage collector.


# --------------------------------------------------------------------------
# Pretty printing (round-trips through parse_module)
# --------------------------------------------------------------------------


def pretty_module(decls: list[ProtocolDecl]) -> str:
    out: list[str] = []
    seen_aliases: set[tuple] = set()
    for decl in decls:
        for alias in decl.type_aliases:
            key = (alias.alias, alias.language, alias.remote_name, alias.source)
            if key in seen_aliases:
                continue
            seen_aliases.add(key)
            out.append(f'type <{alias.language}> "{alias.remote_name}" '
                       f'from "{alias.source}" as {alias.alias};')
        header = "aux global protocol" if decl.is_aux else "global protocol"
        params = ", ".join(f"role {r}" for r in decl.role_params)
        out.append(f"{header} {decl.name}({params}) {{")
        out.extend(_pretty_stmts(decl.body, 1))
        out.append("}")
    return "\n".join(out) + "\n"


def _pretty_stmts(stmts, depth: int) -> list[str]:
    pad = "  " * depth
    out = []
    for stmt in stmts:
        if isinstance(stmt, MsgStmt):
            sorts = ", ".join(stmt.payload_sorts)
            out.append(f"{pad}{stmt.label}({sorts}) from {stmt.sender} to {stmt.receiver};")
        elif isinstance(stmt, DoStmt):
            out.append(f"{pad}do {stmt.protocol}({', '.join(stmt.args)});")
        elif isinstance(stmt, ChoiceStmt):
            out.append(f"{pad}choice at {stmt.at} {{")
            first = True
            for blk in stmt.blocks:
                if not first:
                    out.append(f"{pad}}} or {{")
                first = False
                out.extend(_pretty_stmts(blk, depth + 1))
            out.append(f"{pad}}}")
    return out


# --------------------------------------------------------------------------
# Elaboration
# --------------------------------------------------------------------------


def elaborate(decls: list[ProtocolDecl], entry: str) -> GlobalType:
    """Expand `do` calls into recursion and produce a closed global type.

    Expansion is memoised on (protocol, concrete role tuple): revisiting a key
    emits a back-edge to the binder introduced at its first expansion, so
    role-permuting self-calls close after at most one cycle of the
    permutation.  UnboundedCall, at the `do` that closes the loop, if a
    protocol's calls come back to it with no message between.
    """
    by_name = {d.name: d for d in decls}
    if entry not in by_name:
        raise UnknownProtocol(f"protocol {entry} not defined")
    root = by_name[entry]
    if root.is_aux:
        raise UnknownProtocol(f"protocol {entry} is aux-only and cannot be an entry point")
    st = _Elaboration(by_name, {a.alias: a.remote_name for a in root.type_aliases})
    result = _expand(st, root, root.roles(), is_entry=True)
    validate(result)
    return result


class _Elaboration:
    """The state of one `elaborate` call, passed to `_expand` and `_seq`."""

    def __init__(self, by_name: dict[str, ProtocolDecl], alias_map: dict[str, str]) -> None:
        self.by_name = by_name
        self.alias_map = alias_map
        # The binder of each (protocol, role tuple) being expanded.
        self.binders: dict[tuple[str, tuple[Role, ...]], str] = {}
        # Each binder a back-edge names, and the `do` of its last one.
        self.used_binders: dict[str, SourceSpan] = {}
        self.counter = 0

    def label(self, stmt: MsgStmt) -> MsgLabel:
        return MsgLabel(stmt.label,
                        tuple(self.alias_map.get(s, s) for s in stmt.payload_sorts))


def _expand(st: _Elaboration, decl: ProtocolDecl, actuals: tuple[Role, ...],
            is_entry: bool = False) -> GlobalType:
    key = (decl.name, actuals)
    binder = f"t{st.counter}"
    st.counter += 1
    st.binders[key] = binder
    env = dict(zip(decl.role_params, actuals))
    body = _seq(st, decl.body, env)
    del st.binders[key]
    if body == GVar(binder):  # the calls came back here through `do`s alone
        raise UnboundedCall(f"protocol {decl.name} loops without a message",
                            st.used_binders[binder])
    # Call expansions are always binder-wrapped; the entry protocol only
    # when its own key is revisited.  Unused binders vanish under
    # canonicalisation.  Wrapping a bare end would be vacuous, and a
    # variable, bound further out, passes through.
    if (binder in st.used_binders or not is_entry) \
            and not isinstance(body, (GEnd, GVar)):
        return GRec(binder, body)
    return body


def _seq(st: _Elaboration, stmts, env) -> GlobalType:
    if not stmts:
        return GEnd()
    head, rest = stmts[0], stmts[1:]
    if isinstance(head, MsgStmt):
        if env[head.sender] == env[head.receiver]:
            raise ScribbleError("message sender and receiver coincide", head.span)
        return GComm(env[head.sender], env[head.receiver],
                     ((st.label(head), _seq(st, rest, env)),))
    if isinstance(head, DoStmt):
        # Tail position is guaranteed by the parser.
        target = st.by_name[head.protocol]
        actuals = tuple(env[a] for a in head.args)
        key = (head.protocol, actuals)
        if key in st.binders:
            st.used_binders[st.binders[key]] = head.span
            return GVar(st.binders[key])
        return _expand(st, target, actuals)
    if isinstance(head, ChoiceStmt):
        chooser = env[head.at]
        receiver = None
        branches = []
        for blk in head.blocks:
            if not blk or not isinstance(blk[0], MsgStmt):
                raise ScribbleError(
                    "every choice branch must start with a message from the "
                    "deciding role", head.span)
            first = blk[0]
            if env[first.sender] != chooser:
                raise ScribbleError(
                    f"branch starts with a message from {first.sender}, "
                    f"but the choice is at {head.at}", first.span)
            if receiver is None:
                receiver = env[first.receiver]
            elif env[first.receiver] != receiver:
                raise ScribbleError(
                    "all branches of a choice must first message the same role",
                    first.span)
            if env[first.sender] == env[first.receiver]:
                raise ScribbleError("message sender and receiver coincide", first.span)
            lbl = st.label(first)
            if any(lbl.name == b[0].name for b in branches):
                raise ScribbleError(f"duplicate branch label {lbl.name}", first.span)
            # The parser guarantees nothing follows a choice, so the
            # branch continuation is just the rest of its own block.
            branches.append((lbl, _seq(st, tuple(blk[1:]), env)))
        return GComm(chooser, receiver, tuple(branches))
    raise TypeError(type(head).__name__)
