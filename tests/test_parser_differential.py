"""The column-walking parsers against the Token-walking ones they replaced.

Both parsers read random texts built from token pieces, and texts made from
valid inputs by changing one token. For Feather the ASTs and the errors, as
(message, line, column) and after resynchronizing, must be equal; for TVL the
parse results or the error texts, apart from the quoted numbers of a value
that does not match its type. In both languages a declaration that declares
one attribute twice, which the reference accepted, is the parser's error. The token streams must also keep the contract the
benchmark's trace relies on. A declarations file is lexed with phrases, a
whole constraint or feature head as one token, and a TVL text too, an int
attribute declaration or an allof group's member list as one token. The references
never read phrases; they must change no outcome, and each TVL phrase must
stand for exactly the plain tokens of its span.
"""

import random
import re
import time

import pytest

from feather import parser, tokens, tvl
from feather.model import STRUCTURAL
from feather.parser import parse_commands, parse_declarations, parse_script
from feather.tokens import DECLARATIONS, KEYWORDS, SYMBOLS, TVL_KEYWORDS, lex, tokenize

from conftest import (
    PLAIN_TVL_LEXICON,
    SERVICES,
    ReferenceTvlParser,
    reference_parse,
    reference_tokenize,
    reference_tvl_tokenize,
)
from test_tvl import random_tvl

COMMANDS = """\
add feature "New" with attributes (_parent = "Package 1", _decomp = optional,
  price = numeric: 3 * (2 + 1), flag = boolean: not true and 1 < 2);
add feature "Alt" with attributes (_decomp = alternative to "3D Racing",
  _parent = V._name) where V._name = "Package 2";
update feature "Package 1" set _name = "P1",
  price = numeric: -"Package 1".price / 2 % 3, stype = string: "basic";
update feature V set _parent = "Package 3", _decomp = W._decomp to W,
  stype = inherited: W.stype where V.stype = "fun" and W.extracost >= 8;
updateall feature V set price = numeric: V.price + 1.5
  where V.price <> 12.5 or V._decomp = or;
remove feature "Bull Market";
removeall feature V where not (V.stype = "utility");
add constraint V requires "Infrastructure" where V.extracost > 5;
update constraint "Video Chat" requires "High Speed Connection Protocol"
  set leftfeature = "Dating Club", constrainttype = excludes;
updateall constraint V excludes W set rightfeature = V._name
  where V._decompID = W._decompID;
remove constraint "Highway Jam" excludes "All Sideways";
removeall constraint V requires W where V._parent = W._parent;
"""

TVL_MODEL = """\
enum string in { "a", "b c" };
root R {
  int n is 3;
  real r is -1.25;
  bool b is true;
  string s is "a";
  group allof { A, opt B }
  group oneof { C, D }
  A requires B;
}
A { group someof { E, F } C excludes D; }
B { }
C { int m is +2; real q is 1.50; }
D { bool f is false; }
E { }
F { }
"""

# pieces of random texts; none holds a non-ASCII digit or an over-long
# integer, on which the reference lexer differs (tests/test_lexer.py)
FEATHER_PIECES = (sorted(KEYWORDS | STRUCTURAL.keys()) + list(SYMBOLS)
                  + ['"A"', '"Package 1"', '"x y"', "1", "2.5", "007", "V", "W",
                     "price", "stype", " ", " ", "\n", "\t"])
FEATHER_BAD = ['"', '""', "_bogus", "#", "1.", "é"]
TVL_PIECES = (sorted(TVL_KEYWORDS) + ["{", "}", ",", ";", "R", "A", "B", "x", "n",
                                      "-3", "+2", "2.5", "1.50", '"s"', " ", " ", "\n"])
TVL_BAD = ['"', "_", "#", "<", "é"]

MODES = [(parse_script, True, True), (parse_declarations, True, False),
         (parse_commands, False, True)]


def random_text(rng, pieces, bad):
    return "".join(rng.choice(bad if rng.random() < 0.03 else pieces)
                   for _ in range(rng.randint(0, 30)))


def spans(stream) -> list:
    """(start, end) of each token but EOF in the stream's source."""
    return [(start, start + len(t.text) + (2 if t.kind == "STRING" else 0))
            for start, t in zip(stream.starts, stream) if t.kind != "EOF"]


def one_token_per_line(text: str, lexer) -> str:
    return "\n".join(text[start:end] for start, end in spans(lexer(text)))


def mutate(rng, text, token_spans, pieces):
    """`text` with one token deleted, doubled, replaced by a piece, or
    preceded by one."""
    start, end = rng.choice(token_spans)
    source, piece = text[start:end], rng.choice(pieces)
    new = rng.choice(["", f"{source} {source}", piece, f"{piece} {source}"])
    return text[:start] + new + text[end:]


def feather_outcome(ast, errors):
    return ast, [(e.message, e.line, e.col) for e in errors]


def test_the_valid_inputs_parse():
    assert not parse_script(SERVICES + COMMANDS)[1]
    assert len(parse_commands(COMMANDS)[0].commands) == 12
    assert tvl.import_tvl(TVL_MODEL).tvl_string_enum == ["a", "b c"]


PHRASES = {"FEATURE", "CONSTRAINT"}


def test_feather_parser_equals_the_reference(monkeypatch):
    phrased = []  # per declarations text lexed, whether it held a phrase

    def lexing(text, lexicon):
        stream = tokenize(text, lexicon)
        if lexicon is DECLARATIONS:
            phrased.append(not PHRASES.isdisjoint(stream.kinds))
        return stream
    monkeypatch.setattr(parser, "tokenize", lexing)
    rng = random.Random(2019)
    valid = [SERVICES, COMMANDS, SERVICES + COMMANDS,
             one_token_per_line(SERVICES + COMMANDS, tokenize)]
    valid_spans = [spans(tokenize(text)) for text in valid]
    failed = resynced = clean = 0
    for case in range(3_000):
        if case % 2:
            k = rng.randrange(len(valid))
            text = mutate(rng, valid[k], valid_spans[k], FEATHER_PIECES + FEATHER_BAD)
        else:
            text = random_text(rng, FEATHER_PIECES, FEATHER_BAD)
        parse, declarations, commands = rng.choice(MODES)
        got = feather_outcome(*parse(text))
        assert_same_feather_outcome(got, text, declarations, commands)
        if parse is parse_script:  # the text as a declarations file too, lexed with phrases
            assert_same_feather_outcome(feather_outcome(*parse_declarations(text)), text,
                                        True, False)
        failed += bool(got[1])
        resynced += len(got[1]) > 1
        clean += case % 2 and not got[1]
    assert failed >= 1_500 and resynced >= 150 and clean >= 15
    assert sum(phrased) >= 500


# (parse mode, text, phrase tokens in the text): texts on which a phrase
# could differ from the tokens it replaces
PHRASE_TEXTS = {
    "no blanks": (parse_declarations, 'root "R";feature"A""R"mandatory;constraint"A"requires"A";'
                  'feature"B""R"or to"B"attribute x 1;', 3),
    "over lines": (parse_declarations, 'root "R";\nfeature\n"A"\r\n\t"R"  alternative\n to\n'
                   '"A"\nattribute x 1;\nconstraint\n "A"\n excludes "A"\n;\nfeature "B"\n'
                   '"A" or to "B";', 3),
    "alternativeto": (parse_declarations, 'root "R";\nfeature "A" "R" alternativeto "A";', 0),
    "orto": (parse_declarations, 'root "R";\nfeature "A" "R" orto "A";', 0),
    "mandatoryx": (parse_declarations, 'root "R";\nfeature "A" "R" mandatoryx;', 0),
    "requiresx": (parse_declarations, 'root "R";\nconstraint "R" requiresx "R";', 0),
    "mandatory to": (parse_declarations, 'root "R";\nfeature "A" "R" mandatory to "A";', 1),
    "alternative without to": (parse_declarations, 'root "R";\nfeature "A" "R" alternative;', 1),
    "no root": (parse_declarations, 'constraint "A" requires "B";\nfeature "A" "R" optional;', 2),
    "error before a constraint": (parse_declarations, 'root "R";\nfeature "A" "R" optional '
                                  'attribute x\nconstraint "A" requires "B";\n'
                                  'feature "B" "R" or;', 3),
    "error before a feature": (parse_declarations, 'root "R" attribute\nfeature "A" "R" optional;'
                               '\nconstraint "A" requires "B" attribute;', 1),
    "phrase then end": (parse_declarations, 'root "R";\nfeature "A" "R" optional', 1),
    "constraint without ;": (parse_declarations, 'root "R";\nconstraint "A" requires "B"', 0),
    "after a command": (parse_declarations, 'root "R";\nadd constraint "A" requires "B";', 1),
    "command": (parse_commands, 'add constraint "A" requires "B";\n'
                'remove feature "A" "B" mandatory;', 0),
    "script": (parse_script, 'root "R";\nfeature "A" "R" optional;\nconstraint "A" requires "R";\n'
               'add constraint "A" requires "R";', 0),
}


@pytest.mark.parametrize("parse, text, phrases", PHRASE_TEXTS.values(), ids=PHRASE_TEXTS)
def test_phrases_change_no_outcome(parse, text, phrases):
    lexicon = DECLARATIONS if parse is parse_declarations else tokens.LEXICON
    assert sum(kind in PHRASES for kind in tokenize(text, lexicon).kinds) == phrases
    declarations, commands = next(mode[1:] for mode in MODES if mode[0] is parse)
    assert feather_outcome(*parse(text)) == feather_outcome(
        *reference_parse(text, declarations, commands))


def random_declarations(rng) -> str:
    """Declarations on which a phrase may or may not match: random blanks
    between their tokens, strings the lexer refuses, near-keywords, a
    missing or doubled ';'."""
    def joined(words):
        return "".join(word + rng.choice(["", " ", "\n", "\t", "\r\n", "\r"]) for word in words)

    def name():
        return rng.choice(['"A"', '"B c"', '"x;y"', "A"] * 6 + ['""', '"é"'])
    pieces = [rng.choice(['root "R";', ""])]
    for _ in range(rng.randint(1, 6)):
        if rng.random() < 0.5:
            words = ["feature", name(), name(),
                     rng.choice(["mandatory", "or", "alternativeto", "mandatoryx", "to"])]
            words += ["to", name()] if rng.random() < 0.4 else []
            words += ["attribute", "x", rng.choice(["1", "-2", '"s"'])] if rng.random() < 0.3 else []
        else:
            words = ["constraint", name(), rng.choice(["requires", "excludes", "requiresx"]), name()]
        pieces.append(joined(words + [rng.choice([";", "", ";;"])]))
    return joined(pieces)


def test_random_declarations_equal_the_reference():
    rng = random.Random(2023)
    phrased = 0
    for _ in range(2_000):
        text = random_declarations(rng)
        assert_same_feather_outcome(feather_outcome(*parse_declarations(text)), text, True, False)
        try:
            phrased += not PHRASES.isdisjoint(tokenize(text, DECLARATIONS).kinds)
        except tokens.LexError:
            pass
    assert phrased >= 500


def repeat_one(rng, text: str, declaration: str) -> str:
    """`text` with one match of `declaration`, an attribute declaration
    whose groups are the text before the name, the name and the rest, right
    after it declaring its name again as the next match declares its own."""
    found = list(re.finditer(declaration, text))
    k = rng.randrange(len(found))
    m, other = found[k], found[(k + 1) % len(found)]
    return f"{text[:m.end()]} {other[1]}{m[2]}{other[3]}{text[m.end():]}"


def test_a_repeated_feather_attribute_reaches_the_repeat_mapping():
    rng = random.Random(2021)
    valid = [SERVICES, SERVICES + COMMANDS, one_token_per_line(SERVICES, tokenize)]
    repeated = 0
    for _ in range(200):
        text = repeat_one(rng, rng.choice(valid), r'(attribute\s+)(\w+)(\s+(?:"[^"]*"|[\d.]+))')
        if rng.random() < 0.5:
            text = mutate(rng, text, spans(tokenize(text)), FEATHER_PIECES)
        parse, declarations, commands = rng.choice(MODES[:2])
        got = feather_outcome(*parse(text))
        assert_same_feather_outcome(got, text, declarations, commands)
        repeated += any(FEATHER_REPEAT.fullmatch(message) for message, _, _ in got[1])
    assert repeated >= 50


COMMAND_IN_DECLARATIONS = "commands are not allowed in a declarations file"
FEATHER_REPEAT = re.compile(r'duplicate attribute "(\w+)" in feature "([^"]*)"')


def offset(text: str, line: int, col: int) -> int:
    """The offset of a (line, column) position, both from 1."""
    return sum(len(s) + 1 for s in text.split("\n")[:line - 1]) + col - 1


def repeats_feather_attribute(text: str, message: str, line: int, col: int) -> bool:
    """Whether `message` is a duplicate-attribute error that holds for
    `text` at (line, col): there `attribute` declares the named attribute
    again, in the declaration of the named feature, which declared it
    before. Read from the reference's tokens."""
    m = FEATHER_REPEAT.fullmatch(message)
    if m is None:
        return False
    toks = reference_tokenize(text)
    at = next((i for i, t in enumerate(toks) if (t.line, t.col) == (line, col)), None)
    if at is None or toks[at].kind != "attribute" or toks[at + 1].value != m[1]:
        return False
    start = at
    while start > 0 and toks[start].kind not in ("root", "feature", ";"):
        start -= 1
    return (toks[start].kind in ("root", "feature") and toks[start + 1].value == m[2]
            and m[1] in [toks[i + 1].value for i in range(start, at)
                         if toks[i].kind == "attribute"])


def assert_same_feather_outcome(got, text: str, declarations: bool, commands: bool) -> None:
    """The parser's outcome is the reference's, but where the reference
    accepted a declaration that declares an attribute twice: the parser's
    error must hold for the text, and the rest of its outcome is the
    reference's where the second declaration's `attribute` is a `)`, a
    parse error at the same place. Where the reference reports a command in
    a declarations file alone, the parser reports it after the reference's
    errors on the text cut before the command."""
    repeats = {(line, col): message for message, line, col in got[1]
               if FEATHER_REPEAT.fullmatch(message)}
    for (line, col), message in repeats.items():
        assert repeats_feather_attribute(text, message, line, col), (message, text)
        at = offset(text, line, col)
        text = text[:at] + ")" + " " * (len("attribute") - 1) + text[at + len("attribute"):]
    ast, errors = feather_outcome(*reference_parse(text, declarations, commands))
    if [message for message, _, _ in errors] == [COMMAND_IN_DECLARATIONS]:
        cut = text[:offset(text, *errors[0][1:])]
        earlier = feather_outcome(*reference_parse(cut, declarations, commands))[1]
        errors = earlier + errors
    assert got == (ast, [(repeats.get((line, col), message), line, col)
                         for message, line, col in errors]), text


@pytest.mark.parametrize("text", [
    'root "R" attribute v 1 attribute v 2;',
    'root "R" attribute v 1 attribute w 2 attribute v 3;\nfeature "A" "R" optional;',
    SERVICES.replace('attribute price 24.99', 'attribute stype 24.99'),
    # the reference's error after the repeat gives way to the repeat
    SERVICES.replace('attribute extracost 4;', 'attribute extracost 4 attribute stype ;'),
], ids=["root", "root then feature", "feature", "error after the repeat"])
def test_a_repeated_feather_attribute_is_the_one_change_from_the_reference(text):
    got = feather_outcome(*parse_declarations(text))
    assert len(got[1]) == 1 and FEATHER_REPEAT.fullmatch(got[1][0][0])
    assert got != feather_outcome(*reference_parse(text, True, False))
    assert_same_feather_outcome(got, text, True, False)


@pytest.mark.parametrize("message, line, col", [
    ('duplicate attribute "v" in feature "R"', 1, 10),
    ('duplicate attribute "v" in feature "S"', 1, 24),
    ('duplicate attribute "w" in feature "R"', 1, 24),
    ("expected ';', found ')'", 1, 24),
], ids=["first declaration", "other feature", "other attribute", "other error"])
def test_a_feather_message_the_text_does_not_bear_out_is_no_repeat(message, line, col):
    assert not repeats_feather_attribute('root "R" attribute v 1 attribute v 2;',
                                         message, line, col)


def unquote_number(message: str) -> str:
    """A value mismatch or unexpected token message with the number written
    as the reference wrote it: the number's value, unquoted."""
    m = re.fullmatch(r"(line \d+: (?:value |expected '[^']+', found ))"
                     r"'([-+]?[0-9]+(\.[0-9]+)?)'( .*|)", message)
    if m is None:
        return message
    return f"{m[1]}{float(m[2]) if m[3] else int(m[2])!r}{m[4]}"


def tvl_outcome(parser_class, text):
    try:
        return parser_class(text).parse()
    except tvl.TvlError as e:
        return unquote_number(str(e))


DUPLICATE_ATTRIBUTE = re.compile(r'line (\d+): duplicate attribute "(\w+)" in feature "(\w+)"')


def repeats_attribute(text: str, message: str) -> bool:
    """Whether `message` is a duplicate-attribute error that holds for
    `text`: one block named as the message says declares the attribute
    twice, the second time on the message's line. Read from the reference's
    tokens of a text that the reference parses."""
    m = DUPLICATE_ATTRIBUTE.fullmatch(message)
    if m is None:
        return False
    toks = reference_tvl_tokenize(text)
    depth, block, lines = 0, None, []
    for i, t in enumerate(toks):
        if depth == 0 and t.kind == "ID" and toks[i + 1].kind == "{":
            block, lines = t.value, []
        elif t.kind in "{}":
            depth += 1 if t.kind == "{" else -1
        elif (depth == 1 and block == m[3] and t.kind in ("int", "real", "bool", "string")
              and toks[i + 1].value == m[2] and toks[i + 2].kind == "is"):
            lines.append(t.line)
            if len(lines) == 2:
                return t.line == int(m[1])
    return False


def assert_same_tvl_outcome(got, want, text: str) -> None:
    """The parser's outcome is the reference's, but where the reference
    accepted a block that declares an attribute twice: the parser's error
    must then name that block, that attribute and the second declaration's
    line."""
    if isinstance(got, str) and not isinstance(want, str):
        assert repeats_attribute(text, got), (got, text)
    else:
        assert got == want, text


@pytest.mark.parametrize("text, line", [
    ("root A { int v is 1; real v is 2.5; }", 1),
    (TVL_MODEL.replace("real r is", "real n is"), 4),
    (TVL_MODEL.replace("bool f is false;", "bool f is false;\n string f is \"a\";"), 15),
    ("root A {\n real v is 2.5;\n int v is 1;\n}", 3),
    ("root A {\n int v is 1;\n int w is 2;\n int v is 3; }", 4),
], ids=["one line", "root block", "later line", "second a phrase", "both phrases"])
def test_a_repeated_attribute_is_the_one_change_from_the_reference(text, line):
    got = tvl_outcome(tvl._TvlParser, text)
    assert isinstance(tvl_outcome(ReferenceTvlParser, text), tuple)
    assert got.startswith(f"line {line}: duplicate attribute ")
    assert_same_tvl_outcome(got, tvl_outcome(ReferenceTvlParser, text), text)


@pytest.mark.parametrize("text, message", [
    ("root A { int v is 1; real v is 2.5; }", 'line 1: duplicate attribute "v" in feature "B"'),
    ("root A { int v is 1; real v is 2.5; }", 'line 2: duplicate attribute "v" in feature "A"'),
    ("root A { int v is 1; group allof { B } }\nB { real v is 2.5; }",
     'line 2: duplicate attribute "v" in feature "B"'),
    ("root A { int v is 1; }", "line 1: expected 'ID', found '}'"),
], ids=["other block", "other line", "two blocks", "other error"])
def test_a_message_the_text_does_not_bear_out_is_no_repeat(text, message):
    assert not repeats_attribute(text, message)


def test_a_repeated_tvl_attribute_reaches_the_repeat_mapping():
    rng = random.Random(2022)
    valid = [TVL_MODEL, one_token_per_line(TVL_MODEL, lambda text: lex(text, PLAIN_TVL_LEXICON))]
    repeated = 0
    for _ in range(200):  # no other change: the mapping holds for texts the reference parses
        text = repeat_one(rng, rng.choice(valid),
                          r"((?:int|real|bool|string)\s+)(\w+)(\s+is\s+[^;]*;)")
        got, want = tvl_outcome(tvl._TvlParser, text), tvl_outcome(ReferenceTvlParser, text)
        assert_same_tvl_outcome(got, want, text)
        repeated += isinstance(got, str) and not isinstance(want, str)
    assert repeated >= 50


def test_tvl_parser_equals_the_reference():
    rng = random.Random(2020)
    def tvl_lex(text):
        return lex(text, PLAIN_TVL_LEXICON)
    valid = [TVL_MODEL, one_token_per_line(TVL_MODEL, tvl_lex)]
    valid_spans = [spans(tvl_lex(text)) for text in valid]
    failed = parsed = phrased = 0
    for case in range(3_000):
        if case % 2:
            k = rng.randrange(len(valid))
            text = mutate(rng, valid[k], valid_spans[k], TVL_PIECES + TVL_BAD)
        else:
            text = "root R {" + random_text(rng, TVL_PIECES, TVL_BAD)
        got = tvl_outcome(tvl._TvlParser, text)
        assert_same_tvl_outcome(got, tvl_outcome(ReferenceTvlParser, text), text)
        failed += isinstance(got, str)
        parsed += not isinstance(got, str)
        phrased += bool(tvl_phrases(text))
    assert failed >= 1_500 and parsed >= 40
    assert phrased >= 500


TVL_PHRASES = {"INT_ATTRIBUTE", "GROUP"}


def tvl_phrases(text: str) -> int:
    """The phrase tokens of `text` as `tvl.LEXICON` lexes it, after checking
    that they and the other tokens cover exactly the plain tokens of the
    text: same kinds, values and starts, the digits and the member text as
    written. A text that fails to lex must fail with either lexicon alike."""
    try:
        plain = lex(text, PLAIN_TVL_LEXICON)
    except tokens.LexError as e:
        with pytest.raises(tokens.LexError) as phrased:
            lex(text, tvl.LEXICON)
        assert str(phrased.value) == str(e), text
        return 0
    stream, j = lex(text, tvl.LEXICON), 0
    for kind, value, start in zip(stream.kinds, stream.values, stream.starts):
        if kind == "INT_ATTRIBUTE":
            want = [("int", "int"), ("ID", value[0]), ("is", "is"), ("INT", int(value[1])),
                    (";", ";")]
        elif kind == "GROUP":
            members = lex(value[1], PLAIN_TVL_LEXICON)
            want = [("group", "group"), (value[0], value[0]), ("{", "{"),
                    *zip(members.kinds[:-1], members.values[:-1]), ("}", "}")]
        else:
            want = [(kind, value)]
        assert plain.starts[j] == start, text
        assert list(zip(plain.kinds[j:j + len(want)], plain.values[j:j + len(want)])) == want, text
        if kind == "INT_ATTRIBUTE":
            assert plain.text(j + 3) == value[1], text
        elif kind == "GROUP":  # the member text from its first token on, blanks and all
            first = plain.starts[j + 3]
            assert text.startswith(value[1], first), text
            assert [s - first for s in plain.starts[j + 3:j + len(want) - 1]] == (
                members.starts[:-1]), text
        j += len(want)
    assert j == len(plain)
    return sum(kind in TVL_PHRASES for kind in stream.kinds)


# text: phrase tokens in it, or None where it does not lex; texts on which a
# TVL phrase could differ from the tokens it replaces
TVL_PHRASE_TEXTS = {
    "no blanks": ("root R{int n is-3;int m is+2;group allof{A,opt B}group oneof{C,D}}"
                  "A{}B{}C{}D{}", 3),
    "over lines": ("root R\n{\nint\nn\nis\n1\n;\ngroup\nallof\n{\nopt\nA\n,\nB\n}\n}\n"
                   "A\n{\n}\nB { }\n", 2),
    "crlf": ("root R {\r\n  int n is 1;\r\n  group allof { A,\r\n B }\r\n}\r\nA { }\r\n"
             "B { int n is 2 ; int m is 3;\r\n}\r\n", 4),
    "intx": ("root R { intx is 1; }", 0),
    "is4": ("root R { int n is4; }", 0),
    "attribute is": ("root R { int is is 1; }", 0),
    "attribute opt": ("root R { int opt is 1; }", 0),
    "capital attribute": ("root R { int X is 1; }", 0),
    "non-ASCII attribute": ("root R { int é is 1; }", 0),
    "real value": ("root R { int n is 4.5; }", 0),
    "plus": ("root R { int n is +4; }", 1),
    "minus zero": ("root R { int n is -0; }", 1),
    "18 digits": ("root R { int n is -999999999999999999; }", 1),
    "19 digits": ("root R { int n is 1234567890123456789; }", 0),
    "4,301 digits": (f"root R {{\n int n is {'1' * 4_301};\n}}", None),
    "other types between": ('root R {\n int a is 1;\n real b is 2.5;\n int c is 3;\n'
                            ' bool d is true;\n string e is "x y";\n int f is 4;\n}', 3),
    "repeat, the first a phrase": ("root R {\n int v is 1;\n real v is 2.5;\n}", 1),
    "repeat, the second a phrase": ("root R {\n real v is 2.5;\n int v is 1;\n}", 1),
    "repeat, both phrases": ("root R {\n int v is 1;\n int w is 2;\n int v is 3; }", 3),
    "opt in oneof": ("root R { group oneof { opt A } }\nA { }", 0),
    "opt alone": ("root R { group allof { opt } }", 0),
    "opt opt": ("root R { group allof { opt opt A } }\nA { }", 0),
    "trailing comma": ("root R { group allof { A, } }\nA { }", 0),
    "no comma": ("root R { group allof { A B } }\nA { }\nB { }", 0),
    "digit-led member": ("root R { group allof { 1A } }", 0),
    "keyword member": ("root R { group someof { in } }", 0),
    "lowercase member": ("root R { group allof { a, B } }\na { }\nB { }", 0),
    "oneof group": ("root R { group oneof { A, B } }\nA { }\nB { }", 0),
    "empty list": ("root R { group allof { } }", 0),
    "attribute after a group": ("root R { group allof { A }\n int x is 1; }\nA { }", 2),
    "group after a constraint": ("root R { R requires R;\n group allof { A } }\nA { }", 1),
    "phrase at the end": ("root R {\n int x is 1;", 1),
    "group at the end": ("root R {\n group allof { A }", 1),
    "enum header": ('enum string in { "a", "b" };\nroot R { int n is 1; string s is "a"; }', 1),
}


@pytest.mark.parametrize("text, phrases", TVL_PHRASE_TEXTS.values(), ids=TVL_PHRASE_TEXTS)
def test_tvl_phrases_change_no_outcome(text, phrases):
    if phrases is None:
        with pytest.raises(tokens.LexError):
            lex(text, tvl.LEXICON)
    assert tvl_phrases(text) == (phrases or 0)
    assert_same_tvl_outcome(tvl_outcome(tvl._TvlParser, text),
                            tvl_outcome(ReferenceTvlParser, text), text)


def test_tvl_phrases_on_random_models_change_no_outcome():
    rng = random.Random(2027)
    phrased = 0
    for _ in range(600):
        text = random_tvl(rng)
        phrased += bool(tvl_phrases(text))
        assert_same_tvl_outcome(tvl_outcome(tvl._TvlParser, text),
                                tvl_outcome(ReferenceTvlParser, text), text)
    assert phrased >= 500


def test_a_computer_like_model_lexes_in_few_tokens():
    """1,000 leaf blocks of one or two int attributes under 40 allof groups:
    with phrases, at most 40 % of the plain tokens, so that a phrase that
    silently stops matching fails."""
    rng = random.Random(1227)
    leaves = [f"Part{i:04d}" for i in range(1_000)]
    parents = [f"VP{i:02d}" for i in range(40)]
    lines = ["root Computer {", f"  group allof {{ {', '.join(parents)} }}", "}"]
    for k, parent in enumerate(parents):
        lines += [f"{parent} {{", "  group allof { "
                  + ", ".join(f"opt {leaf}" for leaf in leaves[k::40]) + " }", "}"]
    for leaf in leaves:
        lines += [f"{leaf} {{", f"  int priceCat is {rng.randint(1, 5)};"]
        lines += [f"  int rating is {rng.randrange(20, 200, 40)};"] * (rng.random() < 0.5)
        lines.append("}")
    text = "\n".join(lines) + "\n"
    assert tvl_phrases(text) > 1_000
    assert len(lex(text, tvl.LEXICON)) <= 0.4 * len(lex(text, PLAIN_TVL_LEXICON))
    assert tvl_outcome(tvl._TvlParser, text) == tvl_outcome(ReferenceTvlParser, text)


@pytest.mark.parametrize("message, reference", [
    ("line 1: value '1.5' does not match type int", "line 1: value 1.5 does not match type int"),
    ("line 2: value '+2' does not match type real", "line 2: value 2 does not match type real"),
    ("line 1: value '1.50' does not match type bool", "line 1: value 1.5 does not match type bool"),
    ("line 1: value 's' does not match type int", "line 1: value 's' does not match type int"),
    ("line 1: expected 'ID', found '1.50'", "line 1: expected 'ID', found 1.5"),
    ("line 3: expected '}', found '-3'", "line 3: expected '}', found -3"),
    ("line 1: expected 'ID', found 'is'", "line 1: expected 'ID', found 'is'"),
])
def test_number_quotes_are_the_only_message_change(message, reference):
    assert unquote_number(message) == reference


# -- the token stream's contract ------------------------------------------------


@pytest.mark.parametrize("text", ["", "  \n", SERVICES, COMMANDS, 'x\n 1.50 "a b" <='])
def test_length_counts_the_tokens_with_eof(text):
    stream = tokenize(text)
    assert len(stream) == len(list(stream)) == len(reference_tokenize(text))
    # positions read backwards equal those read forwards and the reference's
    backwards = [stream[i] for i in reversed(range(len(stream)))]
    assert backwards[::-1] == list(stream)
    assert [(t.line, t.col) for t in stream] == [(t.line, t.col)
                                                 for t in reference_tokenize(text)]
    assert stream[-1].kind == "EOF" and stream[len(stream) - 1] == stream[-1]
    with pytest.raises(IndexError):
        stream[len(stream)]


@pytest.mark.parametrize("text", ["", "root R { }", TVL_MODEL])
def test_tvl_length_counts_the_tokens_with_eof(text):
    stream = lex(text, PLAIN_TVL_LEXICON)
    assert len(stream) == len(list(stream)) == len(reference_tvl_tokenize(text))
    assert [t.kind for t in stream] == [t.kind for t in reference_tvl_tokenize(text)]


@pytest.mark.parametrize("lexicon", [tokens.LEXICON, tvl.LEXICON], ids=["feather", "tvl"])
def test_trailing_blanks_lex_in_linear_time(lexicon):
    """A master regex that needs a token after the blanks retries from each
    trailing blank: 20,000 of them took 45 s on a 2-vCPU VM (Python 3.11)."""
    start = time.perf_counter()
    assert len(lex("x" + " \t\r" * 7_000, lexicon)) == 2
    assert time.perf_counter() - start < 1


def test_a_parse_tokenizes_once_through_the_module_global(monkeypatch):
    """perfbench/traced.py counts tokens by wrapping parser.tokenize."""
    calls = []

    def counting(text, lexicon):
        calls.append(text)
        return tokenize(text, lexicon)
    monkeypatch.setattr(parser, "tokenize", counting)
    parse_declarations(SERVICES)
    parse_commands(COMMANDS)
    parse_script(SERVICES + COMMANDS)
    assert calls == [SERVICES, COMMANDS, SERVICES + COMMANDS]


def test_input_without_errors_builds_no_token(monkeypatch):
    def no_token(*args):
        raise AssertionError("a Token was built")
    monkeypatch.setattr(tokens, "Token", no_token)
    assert not parse_script(SERVICES + COMMANDS)[1]
    assert len(tvl.import_tvl(TVL_MODEL).features) == 7
    with pytest.raises(AssertionError, match="a Token was built"):
        tokenize("x")[0]
