"""Fuzzing the Scribble frontend: mutated corpus text and random token
strings may be rejected only with a ScribbleError (exit 1), never with a
traceback, and every module accepted round-trips through `pretty_module`."""

import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
import hypothesis.strategies as st

from routedmpst.cli import main
from routedmpst.core import InvalidType
from routedmpst.scribble import ScribbleError, elaborate, parse_module, pretty_module

from corpus import PROTOCOL_DIR

CORPUS = [path.read_text() for path in sorted(PROTOCOL_DIR.glob("*.scr"))]

# Text the token grammar treats specially: a comment or a quote with nothing
# after it, words that start with a digit, and characters that are neither
# whitespace nor a token.
ODD = ["//", '"', "1a", "²", "é", "\t", "\r", "\f", "\xa0", "$"]

TOKENS = ODD + ["(", ")", "{", "}", ",", ";", "<", ">", "\n", "global", "aux",
                "protocol", "role", "type", "from", "to", "as", "choice", "at",
                "or", "do", "A", "B", "P", "M", "int", '"s"',
                'type <j> "x" from "y" as Z;']

FUZZ = settings(max_examples=300, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])


@st.composite
def spliced_corpus(draw):
    """Corpus text with a few spans deleted or copied in from the corpus."""
    text = draw(st.sampled_from(CORPUS))
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 40)))
        if draw(st.booleans()):
            text = text[:i] + text[j:]
        else:
            donor = draw(st.sampled_from(CORPUS))
            k = draw(st.integers(0, len(donor)))
            text = text[:i] + donor[k:k + j - i] + text[i:]
    return text


@st.composite
def corpus_with_odd_tokens(draw):
    """Corpus text with odd tokens inserted, or cut off by one."""
    text = draw(st.sampled_from(CORPUS))
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(text)))
        tail = "" if draw(st.booleans()) else text[i:]
        text = text[:i] + draw(st.sampled_from(ODD)) + tail
    return text


token_strings = st.lists(st.sampled_from(TOKENS), max_size=40).map(" ".join)

SOURCES = st.one_of(spliced_corpus(), corpus_with_odd_tokens(), token_strings)


@FUZZ
@given(SOURCES)
def test_frontend_fails_only_with_domain_errors(text):
    try:
        decls = parse_module(text, "fuzz.scr")
    except ScribbleError:
        decls = None
    if decls is not None:
        assert parse_module(pretty_module(decls)) == decls
        for decl in decls:
            try:
                elaborate(decls, decl.name)
            except (ScribbleError, InvalidType):
                pass
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.scr"
        path.write_text(text, encoding="utf-8")
        assert main(["parse", str(path)]) in (0, 1)
