import pytest

from routedmpst.core import (
    GComm, GEnd, GRec, GVar, MsgLabel, Role, canonicalize, free_vars,
)
from routedmpst.scribble import (
    ArityMismatch, ChoiceStmt, DoStmt, DuplicateAlias, DuplicateRole, NonTailCall,
    ScribbleError, SyntaxProblem, UnboundedCall, UnknownProtocol, UnknownRole, elaborate,
    parse_module, pretty_module,
)

from corpus import G_TRAVEL, PROTOCOL_DIR, load


def read(name):
    return (PROTOCOL_DIR / f"{name}.scr").read_text()


def test_parse_travel_agency_shape():
    decls = parse_module(read("TravelAgency"), "TravelAgency.scr")
    assert len(decls) == 1
    decl = decls[0]
    assert decl.name == "TravelAgency"
    assert decl.role_params == ("A", "B", "S")
    choice = decl.body[-1]
    assert isinstance(choice, ChoiceStmt) and choice.at == "S"
    first_labels = {blk[0].label for blk in choice.blocks}
    assert first_labels == {"Available", "Full"}
    tail = choice.blocks[0][-1]
    assert isinstance(tail, DoStmt)
    assert tail.protocol == "TravelAgency" and tail.args == ("A", "B", "S")


def test_parse_empty_protocol():
    decls = parse_module("global protocol P(role A, role B) { }")
    assert len(decls) == 1 and decls[0].body == ()
    assert elaborate(decls, "P") == GEnd()


def test_parse_game_shape():
    decls = parse_module(read("Game"), "Game.scr")
    game = decls[0]
    choice = game.body[-1]
    assert isinstance(choice, ChoiceStmt) and choice.at == "Svr"
    assert len(choice.blocks) == 3
    swap = choice.blocks[-1][-1]
    assert isinstance(swap, DoStmt) and swap.args == ("Svr", "P2", "P1")


def test_parse_type_aliases():
    decls = parse_module(read("Battleships"), "Battleships.scr")
    aliases = {a.alias: a.remote_name for a in decls[0].type_aliases}
    assert aliases == {"Config": "Config", "Loc": "Location"}


def test_travel_agency_elaborates_to_reference_term():
    assert canonicalize(load("TravelAgency")) == canonicalize(G_TRAVEL)


def test_game_elaboration_has_two_nested_binders_and_is_closed():
    g = load("Game")
    assert not free_vars(g)

    def rec_count(u):
        if isinstance(u, GRec):
            return 1 + rec_count(u.body)
        if isinstance(u, (GEnd, GVar)):
            return 0
        return sum(rec_count(c) for _, c in u.branches)

    assert rec_count(g) == 2

    # Hand expansion of the two-element role cycle.
    Svr, P1, P2 = Role("Svr"), Role("P1"), Role("P2")
    Pos, Lose, Win, Draw, Update = (MsgLabel(n, ("Pt",)) for n in
                                    ("Pos", "Lose", "Win", "Draw", "Update"))

    def round_of(attacker, defender, cont):
        return GComm(attacker, Svr, ((Pos, GComm(Svr, defender, (
            (Lose, GComm(Svr, attacker, ((Win, GEnd()),))),
            (Draw, GComm(Svr, attacker, ((Draw, GEnd()),))),
            (Update, GComm(Svr, attacker, ((Update, cont),))),
        ))),))

    expected = GRec("a", round_of(P1, P2, GRec("b", round_of(P2, P1, GVar("a")))))
    assert canonicalize(g) == canonicalize(expected)


def test_elaborate_with_explicit_role_arguments():
    # An entry protocol starts Game with the players' seats swapped.
    text = read("Game") + (
        "global protocol Swapped(role Svr, role P1, role P2) { do Game(Svr, P2, P1); }\n")
    decls = parse_module(text, "Game.scr")
    P2 = Role("P2")
    swapped = elaborate(decls, "Swapped")
    default = elaborate(decls, "Game")
    assert not free_vars(swapped)
    # Starting from the swapped seating is the same protocol with the
    # players' names exchanged, not the same term.
    assert canonicalize(swapped) != canonicalize(default)
    first = swapped
    while isinstance(first, GRec):
        first = first.body
    assert first.sender == P2


def test_no_do_leaves_body_unchanged():
    src = "global protocol Pair(role X, role Y) { Ping() from X to Y; Pong() from Y to X; }"
    g = elaborate(parse_module(src), "Pair")
    X, Y = Role("X"), Role("Y")
    assert g == GComm(X, Y, ((MsgLabel("Ping"), GComm(Y, X, ((MsgLabel("Pong"), GEnd()),))),))


def test_elaborate_battleships_uses_aux():
    g = load("Battleships")
    assert not free_vars(g)
    with pytest.raises(UnknownProtocol):
        decls = parse_module(read("Battleships"), "b.scr")
        elaborate(decls, "Game")  # aux protocols are not entry points


def test_duplicate_role_rejected():
    with pytest.raises(DuplicateRole):
        parse_module("global protocol P(role A, role A) { }")


ALIAS = 'type <j> "x" from "y" as Z;'


def test_alias_declared_twice_is_rejected_at_the_second_declaration():
    for between in ("\n", "\nglobal protocol P(role A) { }\n"):
        with pytest.raises(DuplicateAlias) as err:
            parse_module(ALIAS + between + ALIAS + "\nglobal protocol Q(role A) { }", "f")
        line = between.count("\n") + 1
        assert str(err.value) == f"f:{line}:1: type Z declared twice"


@pytest.mark.parametrize("text, message", [
    (ALIAS, "f:1:1: type Z is not followed by a protocol"),
    ("global protocol P(role A) { }\n" + ALIAS, "f:2:1: type Z is not followed by a protocol"),
    # The first alias no protocol sees is reported.
    (ALIAS + "\nglobal protocol P(role A) { }\n" + ALIAS.replace("Z", "Y") + "\n"
     + ALIAS.replace("Z", "W"), "f:3:1: type Y is not followed by a protocol"),
])
def test_alias_with_no_protocol_after_it_is_rejected(text, message):
    # A protocol's aliases are printed before it, so an alias that no
    # protocol sees would be lost in a round trip through `pretty_module`.
    with pytest.raises(ScribbleError) as err:
        parse_module(text, "f")
    assert str(err.value) == message


def test_distinct_aliases_round_trip():
    text = ALIAS + "\nglobal protocol P(role A) { }\n" + ALIAS.replace("Z", "Y") + \
        "\nglobal protocol Q(role A) { }"
    decls = parse_module(text)
    assert [a.alias for a in decls[1].type_aliases] == ["Z", "Y"]
    assert parse_module(pretty_module(decls)) == decls


def test_unknown_role_rejected():
    with pytest.raises(UnknownRole):
        parse_module("global protocol P(role A, role B) { M() from A to Z; }")


def test_unknown_protocol_rejected():
    with pytest.raises(UnknownProtocol):
        parse_module("global protocol P(role A, role B) { do Q(A, B); }")


def test_arity_mismatch_rejected():
    src = """
    global protocol P(role A, role B) { do P(A); }
    """
    with pytest.raises(ArityMismatch):
        parse_module(src)


def test_calls_that_only_call_each_other_leave_an_unbound_variable():
    # P's body is Q's, which is a bare back-edge to P: nothing to wrap.
    decls = parse_module("global protocol P(role A, role B) { do Q(A, B); }\n"
                         "global protocol Q(role A, role B) { do P(A, B); }\n")
    with pytest.raises(UnboundedCall) as raised:
        elaborate(decls, "P")
    assert str(raised.value) == "<string>:2:37: protocol P loops without a message"


def test_a_protocol_that_only_calls_itself_is_named_at_its_call():
    """Q, called after a message, loops without one: the error names Q, not
    an internal binder, at the `do` that closes its loop."""
    decls = parse_module("global protocol P(role A, role B) { m() from A to B; do Q(A, B); }\n"
                         "global protocol Q(role A, role B) { do Q(A, B); }\n")
    with pytest.raises(UnboundedCall) as raised:
        elaborate(decls, "P")
    assert str(raised.value) == "<string>:2:37: protocol Q loops without a message"


def test_non_tail_do_rejected():
    src = "global protocol P(role A, role B) { do P(A, B); M() from A to B; }"
    with pytest.raises(NonTailCall):
        parse_module(src)


def test_statements_after_choice_rejected():
    src = """
    global protocol P(role A, role B) {
      choice at A { L() from A to B; } or { R() from A to B; }
      M() from A to B;
    }
    """
    with pytest.raises(NonTailCall):
        parse_module(src)


_CALLS = ("global protocol P(role A, role B) {{ M() from A to B; }}\n"
          "global protocol Q(role A, role B) {{\n"
          "  choice at A {{ M() from A to B; {} }} or {{ N() from A to B; {} }}\n}}")


@pytest.mark.parametrize("text, error, message", [
    # An undeclared role is reported after the protocol's closing brace, so
    # a syntax error later in the same body wins.
    ("global protocol P(role A, role B) {\n  M() from A to Z;\n  N() from A B;\n}",
     SyntaxProblem, "p.scr:3:14: expected 'to', found 'B'"),
    ("global protocol P(role A, role B) {\n  choice at Z { M() from A to B; }\n}",
     UnknownRole, "p.scr:2:3: role Z not declared"),
    ("global protocol P(role A, role B) {\n  M() from A to B;\n  do P(B, Z);\n}",
     UnknownRole, "p.scr:3:3: role Z not declared"),
    # The first undeclared role in source order is the one reported.
    ("global protocol P(role A, role B) {\n  M() from Y to B;\n  do P(B, Z);\n}",
     UnknownRole, "p.scr:2:3: role Y not declared"),
    # A statement after a tail `do` is rejected before its roles are.
    ("global protocol P(role A, role B) {\n  do P(A, B);\n  M() from A to Z;\n}",
     NonTailCall, "p.scr:2:3: statements after a tail 'do' are not supported"),
    # An undeclared role in one protocol wins over a syntax error in the next.
    ("global protocol P(role A) { M() from A to B; }\nglobal protocol Q(",
     UnknownRole, "p.scr:1:29: role B not declared"),
    # Calls are checked once the module is read, in source order.
    (_CALLS.format("do P(A);", "do S(A, B);"),
     ArityMismatch, "p.scr:3:34: P takes 2 roles, got 1"),
    (_CALLS.format("do S(A, B);", "do P(A);"),
     UnknownProtocol, "p.scr:3:34: protocol S not defined"),
], ids=["syntax-after-role", "choice-at", "do-args", "first-role", "after-tail-do",
        "role-before-next-protocol", "arity-first", "target-first"])
def test_error_precedence(text, error, message):
    with pytest.raises(ScribbleError) as raised:
        parse_module(text, "p.scr")
    assert type(raised.value) is error
    assert str(raised.value) == message


def test_syntax_error_reports_span_and_expectation():
    with pytest.raises(SyntaxProblem) as err:
        parse_module("global protocol P(role A role B) { }", "bad.scr")
    assert err.value.span.file == "bad.scr"
    assert err.value.span.start_line == 1


def test_choice_branches_must_share_recipient():
    src = """
    global protocol P(role A, role B, role C) {
      choice at A { L() from A to B; } or { R() from A to C; }
    }
    """
    with pytest.raises(ScribbleError):
        elaborate(parse_module(src), "P")


def test_round_trip_all_corpus_modules():
    for name in ("TravelAgency", "PingPong", "Game", "Battleships"):
        decls = parse_module(read(name), f"{name}.scr")
        again = parse_module(pretty_module(decls), "pp.scr")
        assert again == decls


def test_self_message_rejected():
    with pytest.raises(ScribbleError):
        elaborate(parse_module("global protocol P(role A, role B) { M() from A to A; }"), "P")


def _syntax_error(text):
    with pytest.raises(SyntaxProblem) as err:
        parse_module(text, "f")
    return str(err.value), (err.value.span.start_line, err.value.span.start_col)


@pytest.mark.parametrize("text, message", [
    # An identifier starts with a letter (`str.isalpha`) or `_`; a digit,
    # even one `\w` accepts such as `²`, is an error at that character.
    ("global protocol P(role A) { 1a", "f:1:29: expected identifier, punctuation, found '1'"),
    ("global protocol P(role ²x) { }", "f:1:24: expected identifier, punctuation, found '²'"),
    ("global protocol P(role A) {\xa0}", "f:1:28: expected identifier, punctuation, found '\\xa0'"),
    ("global protocol P(role A) {\n\t// c\n}  $", "f:3:4: expected identifier, punctuation, found '$'"),
])
def test_lexer_rejects_characters_outside_the_token_grammar(text, message):
    assert _syntax_error(text)[0] == message


def test_identifiers_continue_with_any_word_character():
    decls = parse_module("global protocol P(role é) {\r M(a²) from é to é; }")
    assert decls[0].role_params == ("é",)
    assert decls[0].body[0].payload_sorts == ("a²",)


@pytest.mark.parametrize("text, message", [
    ('type <j> "x\nfrom "y" as Z;', "f:1:10: expected closing quote, found newline"),
    ('type <j> "x', "f:1:10: expected closing quote, found end of input"),
    # `"x from "` is a string; the quote after `y` opens another.
    ('type <j> "x from "y" as Z;', "f:1:20: expected closing quote, found end of input"),
])
def test_unterminated_string_is_reported_at_its_opening_quote(text, message):
    assert _syntax_error(text)[0] == message


def test_comment_does_not_move_the_column():
    # End of input after a trailing comment is reported where it starts.
    assert _syntax_error("global protocol P(role A) { // c") == \
        ("f:1:29: expected message label, found end of input", (1, 29))
    assert _syntax_error("global protocol P(role A) { // c\n") == \
        ("f:2:1: expected message label, found end of input", (2, 1))
