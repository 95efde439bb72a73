"""The `-x` intermediate code dump on commands that set a new constraint end."""

import random

from feather.cli import main
from feather.dump import dump_intermediate
from feather.parser import ScriptAst

from conftest import random_command, random_model

NEW_ENDS_SCRIPT = """\
root "R";
feature "A" "R" optional;
feature "B" "R" optional;
feature "C" "R" optional;
constraint "A" requires "B";
update constraint "A" requires "B" set leftfeature = "C";
update constraint "C" requires "B" set rightfeature = X._name where X._name = "A";
"""


def test_dump_shows_new_constraint_ends(tmp_path):
    src, dump = tmp_path / "input.feaf", tmp_path / "input.eil"
    src.write_text(NEW_ENDS_SCRIPT)
    assert main(["-f", str(src), "-x", str(dump)]) == 0
    lines = dump.read_text().splitlines()
    assert '  leftfeature "C"' in lines
    assert "  rightfeature X._name" in lines


def test_dump_lists_the_root_attributes(tmp_path):
    src, dump = tmp_path / "input.fd", tmp_path / "input.eil"
    src.write_text('root "R" attribute price 5 attribute ok true;\nfeature "A" "R" optional;\n')
    assert main(["-d", str(src), "-x", str(dump)]) == 0
    assert dump.read_text().splitlines()[:4] == [
        'root "R"', "  attr price 5", "  attr ok true", 'feature "A" "R" optional']


DECLARATIONS_TEXT = """\
root "R" attribute size 3 attribute name "r" attribute fast false;
feature "B" "R" alternative to "C" attribute weight 1.5 attribute cost -2;
feature "C" "R" alternative to "B";
feature "D" "B" optional attribute tag "d" attribute ok true attribute alpha 7;
constraint "C" requires "D";
constraint "D" excludes "B";
"""


def test_dump_lists_the_declarations_as_written(tmp_path):
    # -d lexes with the declaration phrases, -f with plain tokens
    src = tmp_path / "input.fd"
    src.write_text(DECLARATIONS_TEXT)
    dumps = []
    for flag in ("-d", "-f"):
        dump = tmp_path / f"input{flag}.eil"
        assert main([flag, str(src), "-x", str(dump)]) == 0
        dumps.append(dump.read_text())
    assert dumps[0].splitlines() == [
        'root "R"', "  attr size 3", '  attr name "r"', "  attr fast false",
        'feature "B" "R" alternative to "C"', "  attr weight 1.5", "  attr cost -2",
        'feature "C" "R" alternative to "B"',
        'feature "D" "B" optional', '  attr tag "d"', "  attr ok true", "  attr alpha 7",
        'constraint "C" requires "D"', 'constraint "D" excludes "B"']
    assert dumps[0] == dumps[1]


def test_dump_takes_every_random_command():
    rng = random.Random(1313)
    commands = []
    while len(commands) < 3000:
        model = random_model(rng, max_features=12, max_attrs=3)
        commands += [random_command(rng, model) for _ in range(30)]
    dump = dump_intermediate(ScriptAst(commands=commands))
    assert sum(line.startswith("cmd ") for line in dump.splitlines()) == 3000
