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


def test_dump_takes_every_random_command():
    rng = random.Random(1313)
    commands = []
    while len(commands) < 3000:
        model = random_model(rng, max_features=12, max_attrs=3)
        commands += [random_command(rng, model) for _ in range(30)]
    dump = dump_intermediate(ScriptAst(commands=commands))
    assert sum(line.startswith("cmd ") for line in dump.splitlines()) == 3000
