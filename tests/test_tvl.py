import random

import pytest

from feather.model import DecompKind
from feather.tvl import TvlError, TvlExportError, export_tvl, import_tvl

from conftest import build, isomorphic, random_model

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
    assert m.validate() == []


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
    with pytest.raises(TvlError):
        import_tvl("root R { }\nOrphan { }\n")


def test_import_rejects_unknown_group_member():
    with pytest.raises(TvlError):
        import_tvl("root R { group allof { Ghost } }\n")


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
