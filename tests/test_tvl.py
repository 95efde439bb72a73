import random
import re

import pytest

from feather.model import DecompKind
from feather.tvl import TvlError, import_tvl
from feather.tvl_export import TvlExportError, export_tvl

from conftest import (
    build,
    isomorphic,
    model_state,
    random_model,
    reference_import_tvl,
    validate,
)

SAMPLE = """\
enum string in { "low", "high" };
root Computer {
  int price is 100;
  group allof { CPU, opt GPU }
  GPU requires Fast;
}
CPU {
  group oneof { Fast, Slow }
}
GPU { real weight is 0.5; }
Fast { string rating is "high"; }
Slow { }
"""


def test_import_group_mapping():
    m = import_tvl(SAMPLE)
    assert m.root == "Computer"
    assert m.features["CPU"].decomp is DecompKind.MANDATORY
    assert m.features["GPU"].decomp is DecompKind.OPTIONAL
    assert m.features["Fast"].decomp is DecompKind.ALTERNATIVE
    assert m.features["Fast"].group_id == m.features["Slow"].group_id > 0
    assert m.features["GPU"].attributes == {"weight": 0.5}
    assert len(m.constraints) == 1
    assert validate(m) == []


def test_import_someof_is_or_group():
    m = import_tvl("root R { group someof { A, B } }\nA { }\nB { }\n")
    assert m.features["A"].decomp is DecompKind.OR
    assert m.features["A"].group_id == m.features["B"].group_id > 0


def test_string_enum_header_is_decorative():
    m = import_tvl(SAMPLE)
    assert m.tvl_string_enum == ["low", "high"]
    # values outside the enumeration are accepted anyway
    t = SAMPLE.replace('"high";', '"unlisted";', 1)
    import_tvl(t.replace('string rating is "high"', 'string rating is "other"'))


def test_header_survives_round_trip():
    text = export_tvl(import_tvl(SAMPLE))
    assert text.startswith('enum string in { "low", "high" };')
    assert import_tvl(text).tvl_string_enum == ["low", "high"]


def test_export_writes_blocks_in_preorder():
    # each block is followed by its children's subtrees, in listing order
    assert export_tvl(import_tvl(SAMPLE)) == """\
enum string in { "low", "high" };
root Computer {
  int price is 100;
  group allof { CPU, opt GPU }
  GPU requires Fast;
}
CPU {
  group oneof { Fast, Slow }
}
Fast {
  string rating is "high";
}
Slow {
}
GPU {
  real weight is 0.5;
}
"""


def test_import_export_import_isomorphic():
    a = import_tvl(SAMPLE)
    b = import_tvl(export_tvl(a))
    assert isomorphic(a, b)
    assert export_tvl(a) == export_tvl(b)


def test_import_rejects_unattached_block():
    with pytest.raises(TvlError, match='^line 2: feature "Orphan" is not attached to any group$'):
        import_tvl("root R { }\nOrphan { }\n")


def test_import_rejects_unknown_group_member():
    with pytest.raises(TvlError, match='^line 2: group under "A" names unknown feature "Ghost"$'):
        import_tvl("root R { group allof { A } }\nA { group allof { Ghost } }\n")


def test_import_rejects_a_duplicate_block():
    with pytest.raises(TvlError, match='^line 3: duplicate feature "A"$'):
        import_tvl("root R { group allof { A } }\nA { }\nA { }\n")


def test_import_rejects_duplicate_placement():
    with pytest.raises(TvlError):
        import_tvl("root R { group allof { A } group allof { A } }\nA { }\n")


def test_import_rejects_unknown_constraint_end():
    with pytest.raises(TvlError):
        import_tvl("root R { R requires Ghost; }\n")


def test_import_rejects_type_mismatch():
    with pytest.raises(TvlError):
        import_tvl('root R { int x is 1.5; }\n')
    with pytest.raises(TvlError):
        import_tvl('root R { real x is 3; }\n')


@pytest.mark.parametrize("text, message", [
    ("root R {\n", "line 2: expected '}', found 'end of input'"),
    ("root R { int x is\n", "line 2: value 'end of input' does not match type int"),
    ("root R { int x is 1.5; }\n", "line 1: value '1.5' does not match type int"),
    ("root R { } }\n", "line 1: expected 'EOF', found '}'"),
])
def test_import_error_names_the_end_of_input(text, message):
    with pytest.raises(TvlError) as e:
        import_tvl(text)
    assert str(e.value) == message


@pytest.mark.parametrize("text, line", [
    ("root A { int v is 1; real v is 2.5; }\n", 1),
    ("root R { group allof { A } }\nA {\n  int v is 1;\n  int w is 2;\n  real v is 2.5;\n}\n", 5),
])
def test_import_rejects_an_attribute_declared_twice(text, line):
    # as Feather declarations do; the second declaration's line is named
    with pytest.raises(TvlError) as e:
        import_tvl(text)
    assert str(e.value) == f'line {line}: duplicate attribute "v" in feature "A"'


@pytest.mark.parametrize("number", ["1.5", "-3"])
def test_unexpected_number_is_quoted_as_written(number):
    with pytest.raises(TvlError) as e:
        import_tvl(f"root R {{ group allof {{ {number} }} }}\n")
    assert str(e.value) == f"line 1: expected 'ID', found '{number}'"


def test_import_signed_numbers():
    m = import_tvl("root R { int a is -4; real b is -1.25; }\n")
    assert m.features["R"].attributes == {"a": -4, "b": -1.25}


def test_export_rejects_unrepresentable_names():
    m = build('root "Has Spaces";')
    with pytest.raises(TvlExportError):
        export_tvl(m)


def test_feather_model_exports_and_reimports():
    m = build('root "Computer" attribute price 100;\n'
              'feature "CPU" "Computer" mandatory;\n'
              'feature "Fast" "CPU" alternative to "Fast" attribute ok true;\n'
              'feature "Slow" "CPU" alternative to "Fast";\n'
              'constraint "Fast" excludes "Slow";\n')
    assert isomorphic(m, import_tvl(export_tvl(m)))


def test_random_models_round_trip():
    rng = random.Random(7)
    for _ in range(25):
        m = random_model(rng, max_features=15)
        again = import_tvl(export_tvl(m))
        assert isomorphic(m, again)
        assert export_tvl(again) == export_tvl(m)


@pytest.mark.parametrize("text, message", [
    ("root R { group allof { A } }\nA { }\nB { group allof { C } }\n"
     "C { group allof { B } }\n",
     'line 3: parent declarations form a cycle through "C"'),
    # the walk of parents from the first row the root does not reach
    ("root R { }\nA { group allof { A, D } }\nD { group oneof { E } }\nE { }\n",
     'line 2: parent declarations form a cycle through "A"'),
], ids=["cycle", "tree off a cycle"])
def test_blocks_the_root_never_reaches_lie_on_a_cycle(text, message):
    with pytest.raises(TvlError) as e:
        import_tvl(text)
    assert str(e.value) == message


def _tvl_values(rng, count: int, again: bool) -> list:
    """`count` declarations of distinct attributes; with `again`, one more
    that declares the first of them again, as a string."""
    values = {"n": f"int n is {rng.randint(-3, 9)};", "r": "real r is 2.5;",
              "b": f"bool b is {rng.choice(['true', 'false'])};", "s": 'string s is "red";'}
    names = rng.sample(sorted(values), count)
    repeated = names[:1] if again else []
    return [values[n] for n in names] + [f'string {n} is "red";' for n in repeated]


def random_tvl(rng) -> str:
    """A TVL text over a random tree of blocks; often broken: blocks on a
    cycle of groups with trees hanging off them, a duplicate or orphan
    block, a group member that is unknown or placed twice, a constraint
    with an unknown end, an attribute declared twice in the root block."""
    names = [f"B{i}" for i in range(rng.randint(1, 8))]
    groups = {n: [] for n in names}  # block -> [(cardinality, [member])]

    def place(child, parent):
        open_groups = groups[parent]
        if open_groups and rng.random() < 0.5:
            rng.choice(open_groups)[1].append(child)
        else:
            open_groups.append((rng.choice(["allof", "oneof", "someof"]), [child]))

    for i, n in enumerate(names[1:], 1):
        place(n, rng.choice(names[:i]))
    if rng.random() < 0.4:  # a cycle of one to three blocks, trees off it
        cycle = [f"C{i}" for i in range(rng.randint(1, 3))]
        groups.update((c, []) for c in cycle)
        for c, d in zip(cycle, cycle[1:] + cycle[:1]):
            place(d, c)
        for i in range(rng.randint(0, 3)):
            groups[f"H{i}"] = []
            place(f"H{i}", rng.choice(cycle + [f"H{j}" for j in range(i)]))
    defect = rng.random()
    every = list(groups)
    if defect < 0.05:  # a block in no group
        groups["Orphan"] = []
        every.append("Orphan")
    elif defect < 0.1:
        place(rng.choice(["Ghost", names[0]]), rng.choice(every))
    elif defect < 0.15 and len(every) > 1:
        place(rng.choice(every[1:]), rng.choice(every))
    constraints = [(rng.choice(every), rng.choice(["requires", "excludes"]),
                    rng.choice(every + ["Ghost"] * (defect < 0.2)))
                   for _ in range(rng.randint(0, 3))]
    order = every[:1] + rng.sample(every[1:], len(every) - 1)
    if defect > 0.95:
        order.append(rng.choice(order))
    lines = ['enum string in { "red" };'] if rng.random() < 0.2 else []
    for i, n in enumerate(order):
        again = i == 0 and 0.9 < defect <= 0.95
        lines.append(("root " if i == 0 else "") + n + " {")
        lines += ["  " + v for v in _tvl_values(rng, rng.randint(again, 2), again)]
        for card, members in groups[n] if n not in order[:i] else ():
            opt = "opt " if card == "allof" and rng.random() < 0.5 else ""
            lines.append(f"  group {card} {{ {', '.join(opt + m for m in members)} }}")
        lines += [f"  {a} {k} {b};" for a, k, b in constraints if i == 0]
        lines.append("}")
    return "\n".join(lines) + "\n"


def import_outcome(importer, text):
    try:
        m = importer(text)
    except TvlError as e:
        return str(e)
    return model_state(m), m.tvl_string_enum


def listing_lines(text: str) -> dict:
    """Each block of a `random_tvl` text to the lines of the blocks whose
    groups list it, in text order; the root under "root" too, with the line
    of its own block."""
    lines, block = {}, 0
    for number, line in enumerate(text.splitlines(), 1):
        if line.endswith("{"):  # a block opens
            block = number
            if line.startswith("root "):
                lines["root"] = [number]
                lines[line.split()[1]] = [number]  # the root's own declaration
        elif line.startswith("  group "):
            for member in re.findall(r"\w+", line.split("{")[1]):
                if member != "opt":
                    lines.setdefault(member, []).append(block)
    return lines


def block_lines(text: str) -> dict:
    """Each block name of a `random_tvl` text to the lines its blocks open on."""
    lines = {}
    for number, line in enumerate(text.splitlines(), 1):
        if line.endswith("{"):
            lines.setdefault(line.split()[-2], []).append(number)
    return lines


def with_line(message: str, text: str) -> str:
    """The reference's message with the line the importer names: the block
    that lists a feature the second time, or that holds a constraint (the
    root block in `random_tvl`), or that lists a feature on a cycle; the
    second block of a duplicate, the block whose group lists an unknown
    feature, or a block in no group."""
    m = re.fullmatch(r'feature "(\w+)" is declared twice|constraint .*'
                     r'|parent declarations form a cycle through "(\w+)"'
                     r'|duplicate feature "(\w+)"|group under "(\w+)" names unknown feature .*'
                     r'|feature "(\w+)" is not attached to any group', message)
    if m is None:
        return message
    lines, blocks = listing_lines(text), block_lines(text)
    line = (lines[m[1]][1] if m[1] else lines[m[2]][0] if m[2] else blocks[m[3]][1] if m[3]
            else blocks[m[4] or m[5]][0] if m[4] or m[5] else lines["root"][0])
    return f"line {line}: {message}"


def test_import_equals_the_reference_with_validate():
    # the importer hands rows to the one model builder where the reference
    # validated the whole model; both give one model or one message. Three
    # texts changed on purpose: a block placed twice is "declared twice", a
    # cycle is named by one of the blocks the reference listed, and an error
    # of the builder or of the importer names the line of the block at fault
    rng = random.Random(20261019)
    kinds = {"model": 0, "cycle": 0, "other": 0}
    for case in range(600):
        text = random_tvl(rng)
        got = import_outcome(import_tvl, text)
        want = import_outcome(reference_import_tvl, text)
        if isinstance(want, str) and want.startswith("tree: cycle"):
            listed = re.findall(r"tree: cycle through '(\w+)'", want)
            assert got in [with_line(f'parent declarations form a cycle through "{name}"', text)
                           for name in listed], f"case {case}:\n{text}"
            kinds["cycle"] += 1
            continue
        if isinstance(want, str):
            want = with_line(want.replace("appears in two groups", "is declared twice"), text)
        assert got == want, f"case {case}:\n{text}"
        kinds["model" if isinstance(got, tuple) else "other"] += 1
    assert min(kinds.values()) >= 60, kinds
