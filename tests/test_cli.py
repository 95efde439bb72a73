import contextlib
import gc
import io
import os
import re
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import feather
from feather import cli
from feather.build import build_model
from feather.cli import USAGE, main
from feather.commands import RunMode, run_script
from feather.dump import dump_intermediate, postfix_text
from feather.parser import MAX_EXPR_DEPTH, parse_commands, parse_script
from feather.tvl import import_tvl

from conftest import SERVICES, build, isomorphic, parse_expr

CLEAN_SCRIPT = SERVICES + 'update feature "Dating Club" set extracost = numeric: 5;\n'

NOISY_SCRIPT = SERVICES + """\
remove constraint "Bull Market" requires "Stock Wizard";
remove feature "Web Services";
update feature "Dating Club" set extracost = numeric: 5;
"""


def test_clean_run_transcript(tmp_path, capsys):
    src = tmp_path / "input.feaf"
    out = tmp_path / "output.fm"
    src.write_text(CLEAN_SCRIPT)
    code = main(["-f", str(src), "-o", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == (
        "*****\n"
        "Feather 1.0 Parser\n"
        "-----\n"
        f"Parsing [{src}]... OK\n"
        f"Generating intermediate language code file [{src}.eil]... OK\n"
        "DONE!\n"
        "*****\n"
        "Executing the commands... DONE!\n"
        "Saving the transformed model... DONE!\n")
    saved = build(out.read_text())
    assert saved.features["Dating Club"].attributes["extracost"] == 5


def test_diagnostics_section_and_exit_code(tmp_path, capsys):
    src = tmp_path / "noisy.feaf"
    out = tmp_path / "out.fm"
    src.write_text(NOISY_SCRIPT)
    code = main(["-i", "-f", str(src), "-o", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    body = captured.out
    assert "-----\nErrors & Warnings\n=====\n" in body
    assert ("cmd #1 (rmc) : No constraints match the remove command" in body)
    assert ("cmd #2 (rmf) : The root feature cannot be removed" in body)
    # the model is saved despite the diagnostics
    saved = build(out.read_text())
    assert saved.features["Dating Club"].attributes["extracost"] == 5


def test_stop_on_error_halts_but_saves(tmp_path, capsys):
    src = tmp_path / "noisy.feaf"
    out = tmp_path / "out.fm"
    src.write_text(NOISY_SCRIPT)
    code = main(["-e", "-f", str(src), "-o", str(out)])
    capsys.readouterr()
    assert code == 1
    saved = build(out.read_text())
    # the run halted before the final update
    assert saved.features["Dating Club"].attributes["extracost"] == 8


def test_mode_prefix_monotonicity(tmp_path, capsys):
    src = tmp_path / "noisy.feaf"
    src.write_text(NOISY_SCRIPT)

    def diag_lines(flag):
        main([flag, "-f", str(src)])
        body = capsys.readouterr().out
        if "=====" not in body:
            return []
        return [l for l in body.split("=====\n", 1)[1].splitlines()
                if l.startswith("cmd #")]

    w, e, i = diag_lines("-w"), diag_lines("-e"), diag_lines("-i")
    assert i[:len(e)] == e
    assert e[:len(w)] == w


@pytest.mark.parametrize("flag, code", [("-e", 0), ("-i", 0), ("-w", 1)])
def test_warnings_alone_exit_1_only_when_they_halt(tmp_path, capsys, flag, code):
    src = tmp_path / "warn.feaf"
    src.write_text(SERVICES + 'remove constraint "Bull Market" requires "Stock Wizard";\n'
                   'update feature "Dating Club" set extracost = numeric: 5;\n')
    assert main([flag, "-f", str(src)]) == code
    assert "cmd #1 (rmc) : No constraints match the remove command" in capsys.readouterr().out


def test_split_inputs(tmp_path, capsys):
    decls = tmp_path / "model.fd"
    cmds = tmp_path / "script.fc"
    out = tmp_path / "out.fm"
    decls.write_text(SERVICES)
    cmds.write_text('remove feature "Package 3";\n')
    code = main(["-d", str(decls), "-c", str(cmds), "-o", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert f"Parsing [{decls}]... OK" in captured.out
    assert f"Parsing [{cmds}]... OK" in captured.out
    assert "Package 3" not in build(out.read_text()).features


def test_tvl_input_and_output(tmp_path, capsys):
    tvl_in = tmp_path / "in.tvl"
    tvl_out = tmp_path / "out.tvl"
    tvl_in.write_text("root R {\n  group allof { A, opt B }\n}\nA { }\nB { }\n")
    code = main(["-t", str(tvl_in), "-ot", str(tvl_out)])
    capsys.readouterr()
    assert code == 0
    assert isomorphic(import_tvl(tvl_in.read_text()),
                      import_tvl(tvl_out.read_text()))


def test_tvl_export_error(tmp_path, capsys):
    src = tmp_path / "in.feaf"
    src.write_text('root "Has Spaces";\n')
    code = main(["-f", str(src), "-ot", str(tmp_path / "out.tvl")])
    captured = capsys.readouterr()
    assert code == 2
    assert "not a valid TVL identifier" in captured.err


def test_tvl_export_error_writes_neither_output(tmp_path, capsys):
    (tmp_path / "m.fd").write_text('root "My Root";\nfeature "A" "My Root" optional;\n')
    (tmp_path / "c.feaf").write_text('remove feature "A";\n')
    out, tvl = tmp_path / "o.fd", tmp_path / "o.tvl"
    code = main(["-d", str(tmp_path / "m.fd"), "-c", str(tmp_path / "c.feaf"),
                 "-o", str(out), "-ot", str(tvl)])
    captured = capsys.readouterr()
    assert code == 2
    assert "not a valid TVL identifier" in captured.err
    assert not out.exists() and not tvl.exists()


# the root's _parent is the empty string, which no reader takes
EMPTY_VALUE = 'root "R" attribute s "x";\nupdate feature "R" set s = inherited: "R"._parent;\n'


@pytest.mark.parametrize("flag, text, input_name, writers, message", [
    ("-d", 'root "R" attribute is 1;\nfeature "group" "R" optional attribute opt true;\n',
     "m.fd", ("-o", "-ot"), 'attribute name "is" of feature "R" is not a valid TVL attribute id'),
    ("-d", 'root "R" attribute 中 1;\n', "m.fd", ("-o", "-ot"),
     'attribute name "中" of feature "R" is not a valid TVL attribute id'),
    ("-t", "root Café { group allof { B } }\nB { }\n", "m.tvl", ("-o", "-ot"),
     'feature name "Café" is not a valid Feather string'),
    ("-t", "root R { int where is 1; }\n", "m.tvl", ("-o", "-ot"),
     'attribute name "where" of feature "R" is not a valid Feather identifier'),
    ("-f", EMPTY_VALUE, "m.feaf", ("-o", "-ot"),
     'value "" of attribute "s" of feature "R" is not a valid Feather string'),
    ("-f", EMPTY_VALUE, "m.feaf", ("-ot",),
     'value "" of attribute "s" of feature "R" is not a valid TVL string'),
], ids=["tvl keyword", "tvl attribute without a lowercase letter", "non-ascii feature name",
        "feather keyword", "empty feather string value", "empty tvl string value"])
def test_an_output_its_reader_refuses_is_an_error_and_writes_neither(
        tmp_path, capsys, flag, text, input_name, writers, message):
    (tmp_path / input_name).write_text(text)
    outputs = {"-o": tmp_path / "o.fd", "-ot": tmp_path / "o.tvl"}
    code = main([flag, str(tmp_path / input_name),
                 *(arg for w in writers for arg in (w, str(outputs[w])))])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not any(p.exists() for p in outputs.values())


@pytest.mark.parametrize("writer, language", [("-o", "Feather"), ("-ot", "TVL")])
def test_a_removed_tvl_name_kept_as_a_value_is_refused(tmp_path, capsys, writer, language):
    (tmp_path / "m.tvl").write_text('root R { group allof { Café, B } }\nCafé { }\n'
                                    'B { string s is "x"; }\n')
    (tmp_path / "c.feaf").write_text(
        'update feature "B" set s = inherited: V._name where V._parent = "R" and V._name <> "B";\n'
        'remove feature V where V._parent = "R" and V._name <> "B";\n')
    out = tmp_path / "out"
    code = main(["-t", str(tmp_path / "m.tvl"), "-c", str(tmp_path / "c.feaf"), writer, str(out)])
    assert code == 2
    assert capsys.readouterr().err == (
        f'error: value "Café" of attribute "s" of feature "B" is not a valid {language} string\n')
    assert not out.exists()


def test_every_name_the_tvl_reader_takes_is_written_back(tmp_path):
    names = ["Café", "Ωmega", "Über", "ǅx", "A٣"]
    text = f"root {names[0]} {{ group allof {{ {', '.join(names[1:])} }} }}\n" + "".join(
        f"{n} {{ }}\n" for n in names[1:])
    first, second = tmp_path / "u.tvl", tmp_path / "u2.tvl"
    first.write_text(text)
    assert main(["-t", str(first), "-ot", str(second)]) == 0
    assert isomorphic(import_tvl(second.read_text()), import_tvl(text))
    assert set(import_tvl(second.read_text()).features) == set(names)


def test_a_declarations_file_reports_the_errors_before_a_command(tmp_path, capsys):
    (tmp_path / "m.fd").write_text('root "R";\nfeature "A" "R" bogus;\nremove feature "A";\n')
    assert main(["-d", str(tmp_path / "m.fd")]) == 2
    assert capsys.readouterr().err == (
        "error: line 2, column 17: expected a decomposition kind, found 'bogus'\n"
        "error: line 3, column 1: commands are not allowed in a declarations file\n")


def test_parse_failure_exit_2(tmp_path, capsys):
    src = tmp_path / "bad.feaf"
    src.write_text('root "R" feature ;\n')
    code = main(["-f", str(src)])
    captured = capsys.readouterr()
    assert code == 2
    assert f"Parsing [{src}]... FAILED" in captured.out
    assert "error:" in captured.err


@pytest.mark.parametrize("args, message", [
    (["-d", "m.fd", "-o"], "flag -o needs a file argument"),
    (["-d", "m.fd", "-d", "n.fd"], "flag -d given twice"),
    (["-d", "m.fd", "-t", "m.tvl"], "-d and -t are mutually exclusive"),
    (["-c", "c.feaf", "-o", "o.fd"], "an input file is required (-f, -d, or -t)"),
    (["-d", "m.fd", "-o", "X", "-ot", "X"], "-o, -ot and -x must name different files"),
    (["-d", "m.fd", "-x", "X", "-o", "X"], "-o, -ot and -x must name different files"),
    (["-d", "m.fd", "-ot", "X", "-x", "./X"], "-o, -ot and -x must name different files"),
    (["-f", "s.feaf", "-x", "out/../X", "-o", "o.fd", "-ot", "X"],
     "-o, -ot and -x must name different files"),
])
def test_flags_that_cannot_run_are_usage_errors(capsys, args, message):
    assert main(args) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n{USAGE}\n")


def test_outputs_that_share_a_file_write_nothing(tmp_path, capsys):
    # refused before anything is read or written; an output may still name
    # an input, which is read before the outputs are written
    src = tmp_path / "m.fd"
    src.write_text('root "R";\n')
    shared = tmp_path / "X"
    assert main(["-d", str(src), "-o", str(shared), "-ot", str(shared)]) == 2
    assert not shared.exists()
    assert capsys.readouterr().out == ""
    assert main(["-d", str(src), "-o", str(src), "-ot", str(shared)]) == 0
    assert src.read_text() == 'root "R";\n' and shared.exists()


def test_usage_errors(tmp_path, capsys):
    assert main(["-q"]) == 2
    assert USAGE in capsys.readouterr().err
    assert main(["-f", "a.feaf", "-d", "b.fd"]) == 2
    capsys.readouterr()
    assert main(["-f", str(tmp_path / "missing.feaf")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("flags", [["-f", "bad"], ["-d", "bad"], ["-t", "bad"],
                                   ["-d", "ok.fd", "-c", "bad"]])
def test_input_that_is_not_utf8_is_a_usage_error(tmp_path, capsys, flags):
    (tmp_path / "bad").write_bytes(b'root "R";\xff\n')
    (tmp_path / "ok.fd").write_text('root "R";\n')
    outputs = [tmp_path / "out.fd", tmp_path / "out.eil"]
    code = main([str(tmp_path / f) if f[0] != "-" else f for f in flags]
                + ["-o", str(outputs[0]), "-x", str(outputs[1])])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: cannot read {tmp_path / 'bad'}: byte 9 is not UTF-8\n")
    assert not any(p.exists() for p in outputs)


def test_missing_input_file_is_reported_without_the_usage(tmp_path, capsys):
    missing = tmp_path / "nonexistent.feaf"
    assert main(["-f", str(missing)]) == 2
    assert capsys.readouterr().err == (
        f"error: cannot read {missing}: No such file or directory\n")


def test_unwritable_dump_is_reported_without_the_usage(tmp_path, capsys):
    src, dump = tmp_path / "input.feaf", tmp_path / "no such dir" / "input.eil"
    src.write_text(CLEAN_SCRIPT)
    assert main(["-f", str(src), "-x", str(dump)]) == 2
    assert capsys.readouterr().err == (
        f"error: cannot write {dump}: No such file or directory\n")


def test_help(capsys):
    assert main(["-h"]) == 0
    out = capsys.readouterr().out
    assert "-i : Running Mode - Ignore all errors & warnings" in out
    assert "-ot <tvl-declarations-file> : Output TVL declarations file" in out


def test_output_determinism(tmp_path, capsys):
    src = tmp_path / "input.feaf"
    out1 = tmp_path / "a.fm"
    out2 = tmp_path / "b.fm"
    src.write_text(CLEAN_SCRIPT)
    main(["-f", str(src), "-o", str(out1)])
    t1 = capsys.readouterr().out
    main(["-f", str(src), "-o", str(out2)])
    t2 = capsys.readouterr().out
    assert out1.read_text() == out2.read_text()
    assert t1.replace("a.fm", "b.fm") == t2


# -- the process entry ------------------------------------------------------

PACKAGE_ROOT = str(Path(feather.__file__).parents[1])

# 1,500 warnings, then an error that halts the run under -e: a transcript
# of more than 64 KiB
LONG_HALT = ('remove constraint "Bull Market" requires "Video Chat";\n' * 1500
             + 'remove feature "Ghost";\nupdate feature "Dating Club" set extracost = numeric: 5;\n')

# name -> (files, arguments, exit status)
ENTRY_CASES = {
    "success": ({"in.feaf": CLEAN_SCRIPT}, ["-f", "in.feaf", "-o", "out.fd", "-x", "in.eil"], 0),
    "halted": ({"m.fd": SERVICES, "c.feaf": LONG_HALT}, ["-d", "m.fd", "-c", "c.feaf", "-o", "out.fd"], 1),
    "parse failure": ({"in.feaf": SERVICES + "remove feature;\n"}, ["-f", "in.feaf", "-o", "out.fd"], 2),
    "wrong flags": ({}, ["-f", "in.feaf", "-q"], 2),
}


def feather_process(args, cwd, stdout=subprocess.PIPE, env=None):
    """`python -m feather args` run in a child process in `cwd`."""
    env = dict(os.environ if env is None else env, PYTHONPATH=PACKAGE_ROOT)
    return subprocess.run([sys.executable, "-m", "feather", *args], cwd=cwd, env=env,
                          stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=60)


def files_in(directory: Path) -> dict:
    return {p.name: p.read_text() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("case", ENTRY_CASES)
def test_the_process_entry_gives_what_main_gives(tmp_path, monkeypatch, capsys, case):
    files, args, status = ENTRY_CASES[case]
    for where in ("child", "library"):
        (tmp_path / where).mkdir()
        for name, text in files.items():
            (tmp_path / where / name).write_text(text)
    proc = feather_process(args, tmp_path / "child")
    monkeypatch.chdir(tmp_path / "library")
    code = main(args)
    captured = capsys.readouterr()
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, captured.out, captured.err)
    assert code == status
    assert files_in(tmp_path / "child") == files_in(tmp_path / "library")
    if case == "halted":  # standard output arrives whole through a pipe
        assert len(proc.stdout) > 64 * 1024
        assert proc.stdout.endswith("cmd #1501 (rmf) : The specified feature (i.e., "
                                    '"Ghost") does not exist\n-----\n'
                                    "Saving the transformed model... DONE!\n")


# all ten commands over a model whose names TVL takes
TEN_COMMANDS = """\
root "Shop" attribute budget 100;
feature "Pay" "Shop" mandatory attribute fee 2.5 attribute kind "core";
feature "Card" "Pay" alternative to "Card" attribute fee 1 attribute kind "card";
feature "Cash" "Pay" alternative to "Card" attribute fee 0 attribute kind "cash";
feature "Ship" "Shop" optional attribute kind "core" attribute fast true;
feature "Air" "Ship" or to "Air" attribute cost 9 attribute kind "fast";
feature "Sea" "Ship" or to "Air" attribute cost 3 attribute kind "slow";
feature "Rail" "Ship" or to "Air" attribute cost 5 attribute kind "slow";
feature "Promo" "Shop" optional attribute rate 0.1;
constraint "Air" requires "Card";
constraint "Sea" excludes "Cash";
constraint "Promo" requires "Rail";
add feature "Drone" with attributes (_parent = P._name, _decomp = or to S,
    cost = numeric: 12, kind = string: "fast")
  where P._name = "Ship" and S._parent = P._name and S.cost > 8;
update feature "Promo" set rate = numeric: 0.2;
updateall feature F set cost = numeric: F.cost + 1 where F.kind = "slow" and F.cost < 5;
updateall feature F set _parent = "Pay", _decomp = optional where F.kind = "slow" and F.cost > 4;
add constraint X requires Y where X.cost > 8 and Y._parent = X._parent and Y.cost < X.cost;
update constraint "Promo" requires "Rail" set rightfeature = "Sea";
updateall constraint V requires "Card" set rightfeature = "Cash";
remove constraint "Sea" excludes "Cash";
removeall constraint V requires W where V.cost > 10;
remove feature "Promo";
removeall feature F where F.kind = "cash";
"""


def test_a_run_does_not_depend_on_the_hash_seed(tmp_path):
    # sets of names iterate in an order that the seed of str hashing sets
    runs = []
    for seed in ("0", "1"):
        (tmp_path / seed).mkdir()
        (tmp_path / seed / "in.feaf").write_text(TEN_COMMANDS)
        proc = feather_process(["-f", "in.feaf", "-o", "out.fd", "-ot", "out.tvl",
                                "-x", "in.eil"], tmp_path / seed,
                               env=dict(os.environ, PYTHONHASHSEED=seed))
        runs.append((proc.returncode, proc.stdout, proc.stderr, files_in(tmp_path / seed)))
    assert runs[0] == runs[1]
    code, out, _, files = runs[0]
    assert code == 0 and "Errors & Warnings" not in out
    assert set(re.findall(r"^cmd \d+ (\w+)$", files["in.eil"], re.M)) == {
        "addf", "upf", "upmf", "rmf", "rmmf", "addc", "upc", "upmc", "rmc", "rmmc"}


@pytest.mark.parametrize("args, unbuffered", [
    (["-i", "-d", "m.fd", "-c", "c.feaf", "-o", "out.fd"], True),
    (["-i", "-d", "m.fd", "-c", "c.feaf", "-o", "out.fd"], False),
    (["-h"], False),
], ids=["unbuffered run", "buffered run", "help"])
def test_a_closed_standard_output_is_one_error_line(tmp_path, args, unbuffered):
    # unbuffered, the run's first line fails; buffered, a flush in the run
    # fails, or for -h the flush after it
    (tmp_path / "m.fd").write_text(SERVICES)
    (tmp_path / "c.feaf").write_text(LONG_HALT)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)  # before the child writes anything
    try:
        proc = feather_process(args, tmp_path, stdout=write_end, env=env)
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr == "error: cannot write standard output: Broken pipe\n"


def test_running_out_of_memory_is_one_error_line(tmp_path):
    # three variables over 200 features: 8 M resolution tuples, far more
    # than the child's 100 MB of address space holds (the interpreter with
    # feather imported takes about 20 MB); the limit is set in the child only
    lines = ['root "R";'] + [f'feature "F{i}" "R" optional attribute w {i};' for i in range(200)]
    (tmp_path / "in.feaf").write_text("\n".join(lines) + "\n"
                                      "removeall feature X where X.w + Y.w + Z.w > -1;\n")
    code = ("import resource, runpy\n"
            "resource.setrlimit(resource.RLIMIT_AS, (100 << 20, 100 << 20))\n"
            "runpy.run_module('feather', run_name='__main__')\n")
    proc = subprocess.run([sys.executable, "-c", code, "-f", "in.feaf", "-o", "out.fd"],
                          cwd=tmp_path, env=dict(os.environ, PYTHONPATH=PACKAGE_ROOT),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr == "error: out of memory\n"
    assert proc.stdout.endswith("Executing the commands... ")
    assert not (tmp_path / "out.fd").exists()


def test_the_process_entry_freezes_the_heap_before_and_after_the_run():
    code = textwrap.dedent("""\
        import gc, sys
        from feather import cli
        run = cli.main
        def main(argv=None):
            global frozen_in_run, kept
            frozen_in_run = gc.get_freeze_count()
            kept = [[] for _ in range(100)]
            return run(argv)
        cli.main = main
        sys.argv[1:] = ["-h"]
        status = cli.entry()
        print(status, frozen_in_run, gc.get_freeze_count() - frozen_in_run, gc.isenabled())
    """)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=PACKAGE_ROOT), timeout=60)
    assert proc.returncode == 0, proc.stderr
    status, frozen_in_run, frozen_after, enabled = proc.stdout.splitlines()[-1].split()
    assert status == "0" and enabled == "True"
    assert int(frozen_in_run) > 1000  # the import-time heap
    assert int(frozen_after) >= 100   # what the run made and kept


@pytest.mark.parametrize("case", ["success", "halted", "parse failure"])
def test_main_leaves_the_collector_alone_and_closes_every_file(tmp_path, monkeypatch,
                                                                capsys, case):
    files, args, status = ENTRY_CASES[case]
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    opened = []

    def tracked_open(*a, **kw):
        opened.append(open(*a, **kw))
        return opened[-1]
    monkeypatch.setattr(cli, "open", tracked_open, raising=False)
    monkeypatch.chdir(tmp_path)
    before = gc.isenabled(), gc.get_freeze_count()
    assert main(args) == status
    assert (gc.isenabled(), gc.get_freeze_count()) == before
    # the heap may be frozen after main: no output can wait for a finalizer
    assert opened and all(fh.closed for fh in opened)
    capsys.readouterr()


def test_run_script_leaves_the_collector_alone():
    ast, errors = parse_script(NOISY_SCRIPT)
    assert errors == []
    before = gc.isenabled(), gc.get_freeze_count()
    run_script(build_model(ast), ast.commands, RunMode.IGNORE_ALL)
    assert (gc.isenabled(), gc.get_freeze_count()) == before


# -- postfix dump -----------------------------------------------------------


def test_postfix_expression_order():
    assert postfix_text(parse_expr("1 + 2 * 3")) == "1 2 3 * +"
    assert postfix_text(parse_expr("(1 + 2) * 3")) == "1 2 + 3 *"
    assert postfix_text(parse_expr("not V.a and V.b < 4 / 2")) == \
        "V.a not V.b 4 2 / < and"


def test_dump_lists_declarations_and_commands():
    ast, errors = parse_script(CLEAN_SCRIPT)
    assert errors == []
    dump = dump_intermediate(ast)
    assert 'root "Web Services"' in dump
    assert 'cmd 1 upf' in dump
    assert '  attr numeric extracost 5' in dump


def test_dump_declarations_only_has_no_commands():
    ast, errors = parse_script(SERVICES)
    assert errors == []
    assert "cmd " not in dump_intermediate(ast)


def test_dump_file_written(tmp_path, capsys):
    src = tmp_path / "input.feaf"
    dump = tmp_path / "input.eil"
    src.write_text(CLEAN_SCRIPT)
    code = main(["-f", str(src), "-x", str(dump)])
    captured = capsys.readouterr()
    assert code == 0
    assert f"Generating intermediate language code file [{dump}]... OK" in captured.out
    assert "cmd 1 upf" in dump.read_text()


# -- numbers out of range ---------------------------------------------------

# an integer attribute too large to convert to a real
HUGE_DECLS = (f'root "R";\nfeature "A" "R" optional attribute w {"1" + "0" * 399};\n'
              'feature "B" "R" optional attribute w 2.5;\n')


def feather_cli(tmp_path, decls: str, cmds: str, model_flag: str = "-d", extra=()):
    """Run the command line in a child process; returns (exit, stdout, stderr, out).

    `decls` is the model, read with `-d`, or with `-t` as TVL; `extra` are
    further arguments.
    """
    (tmp_path / "m.fd").write_text(decls)
    (tmp_path / "c.feaf").write_text(cmds)
    proc = feather_process([model_flag, "m.fd", "-c", "c.feaf", "-o", "out.fd", *extra],
                           tmp_path)
    assert "Traceback" not in proc.stderr
    out = tmp_path / "out.fd"
    return proc.returncode, proc.stdout, proc.stderr, out.read_text() if out.exists() else None


def test_integer_too_large_for_a_real_is_not_satisfied(tmp_path):
    code, _, _, out = feather_cli(
        tmp_path, HUGE_DECLS, "updateall feature F set w = numeric: 1 where F.w = 2.5;\n")
    assert code == 0
    assert out == HUGE_DECLS.replace("2.5", "1")


def test_integer_too_large_for_a_real_is_an_error_in_a_slot(tmp_path):
    code, stdout, _, out = feather_cli(
        tmp_path, HUGE_DECLS, "updateall feature F set w = numeric: F.w / 3 where F.w > 0;\n")
    assert code == 1
    assert "cmd #1 (upmf) : number out of range" in stdout
    assert out == HUGE_DECLS


@pytest.mark.parametrize("decls, cmds", [
    ('root "R" attribute w 1.0;\n',
     f'update feature "R" set w = numeric: {"9" * 309}.0;\n'),
    (f'root "R" attribute w {"9" * 309}.0;\n', ""),
])
def test_real_literal_out_of_range_is_a_parse_error(tmp_path, decls, cmds):
    code, _, stderr, out = feather_cli(tmp_path, decls, cmds)
    assert code == 2
    assert "real literal out of range" in stderr
    assert out is None


@pytest.mark.parametrize("flag, model, message", [
    ("-d", 'root "R" attribute w \u00b2;\n', "line 1, column 22: unexpected character '\u00b2'"),
    ("-d", 'root "R" attribute w \u0663;\n', "line 1, column 22: unexpected character '\u0663'"),
    ("-d", f'root "R" attribute w {"1" * 5000};\n',
     "line 1, column 22: integer literal out of range"),
    ("-t", "root R {\n  int w is \u00b2;\n}\n", "line 2: unexpected character '\u00b2'"),
    ("-t", "root R {\n  int w is \u0663;\n}\n", "line 2: unexpected character '\u0663'"),
    ("-t", f"root R {{\n  int w is {'1' * 5000};\n}}\n",
     "line 2: integer literal out of range"),
], ids=["fd-superscript", "fd-arabic-indic", "fd-5000-digits",
        "tvl-superscript", "tvl-arabic-indic", "tvl-5000-digits"])
def test_unreadable_number_is_a_parse_error(tmp_path, flag, model, message):
    code, _, stderr, out = feather_cli(tmp_path, model, "", model_flag=flag)
    assert code == 2
    assert message in stderr
    assert out is None


# an integer whose square has more digits than int-to-str conversion allows
WIDE_DECLS = (f'root "R";\nfeature "A" "R" optional attribute w {"9" * 2200};\n'
              'feature "B" "R" optional attribute w 3;\n')


def test_integer_result_past_the_digit_limit_is_an_error_in_a_slot(tmp_path):
    code, stdout, _, out = feather_cli(
        tmp_path, WIDE_DECLS, 'update feature "A" set w = numeric: "A".w * "A".w;\n')
    assert code == 1
    assert "cmd #1 (upf) : number out of range" in stdout
    assert out == WIDE_DECLS


def test_integer_result_past_the_digit_limit_is_not_satisfied(tmp_path):
    code, _, _, out = feather_cli(
        tmp_path, WIDE_DECLS, "updateall feature F set w = numeric: 1 where F.w * F.w > 0;\n")
    assert code == 0
    assert out == WIDE_DECLS.replace("w 3", "w 1")


def test_deep_chain_round_trips_through_tvl(tmp_path):
    # 3,000 levels is past the default recursion limit of the interpreter
    chain = 'root "R";\nfeature "F1" "R" mandatory;\n' + "".join(
        f'feature "F{i}" "F{i - 1}" mandatory;\n' for i in range(2, 3001))
    to_tvl, back = tmp_path / "to_tvl", tmp_path / "back"
    to_tvl.mkdir()
    back.mkdir()
    code, _, stderr, out = feather_cli(to_tvl, chain, "", extra=("-ot", "out.tvl"))
    assert (code, out) == (0, chain)
    assert "Traceback" not in stderr
    code, _, stderr, out = feather_cli(back, (to_tvl / "out.tvl").read_text(), "",
                                       model_flag="-t")
    assert (code, out) == (0, chain)
    assert "Traceback" not in stderr


# -- expression nesting limit ---------------------------------------------------

NEST_DECLS = ('root "R";\nfeature "F" "R" optional attribute a 2;\n'
              'feature "G" "R" optional attribute a -5;\n')
WITHOUT_F = NEST_DECLS.replace('feature "F" "R" optional attribute a 2;\n', "")


def nested_parens(n: int) -> str:  # n parentheses, two levels each
    return 'update feature "F" set a = numeric: ' + "(" * n + "1" + ")" * n + ";\n"


def negated_parens(n: int) -> str:  # one level more than nested_parens(n)
    return nested_parens(n).replace("numeric: (", "numeric: -(", 1)


# the chains nest `n` levels deep
def plus_chain(n: int) -> str:  # n - 1 additions under one comparison
    return "removeall feature X where " + " + ".join(["X.a"] * n) + " > 0;\n"


def and_chain(n: int) -> str:  # n - 1 conjunctions over comparisons
    return "removeall feature X where " + " and ".join(["X.a > 0"] * n) + ";\n"


@pytest.mark.parametrize("shape, levels", [
    (nested_parens, 1000), (plus_chain, 2000), (and_chain, 3000),
    (nested_parens, MAX_EXPR_DEPTH // 2 + 1), (negated_parens, MAX_EXPR_DEPTH // 2),
    (plus_chain, MAX_EXPR_DEPTH + 1), (and_chain, MAX_EXPR_DEPTH + 1),
], ids=["parens-1000", "plus-2000", "and-3000", "parens-over", "negated-parens-over",
        "plus-over", "and-over"])
def test_expression_nested_too_deeply_is_a_parse_error(tmp_path, shape, levels):
    code, stdout, stderr, out = feather_cli(tmp_path, NEST_DECLS, "\n" + shape(levels))
    assert code == 2
    assert re.search(r"error: line 2, column \d+: expression nested too deeply", stderr)
    assert "Parsing [c.feaf]... FAILED" in stdout
    assert out is None


@pytest.mark.parametrize("shape, levels, expected", [
    (nested_parens, MAX_EXPR_DEPTH // 2, NEST_DECLS.replace("a 2", "a 1")),
    (plus_chain, MAX_EXPR_DEPTH, WITHOUT_F),
    (and_chain, MAX_EXPR_DEPTH, WITHOUT_F),
], ids=["parens", "plus", "and"])
def test_expression_at_the_nesting_limit_runs(tmp_path, shape, levels, expected):
    code, stdout, _, out = feather_cli(tmp_path, NEST_DECLS, shape(levels),
                                       extra=("-x", "c.eil"))
    assert code == 0
    assert "Errors & Warnings" not in stdout
    assert out == expected
    assert (tmp_path / "c.eil").read_text().startswith('root "R"')


# ways to wrap an expression text in one more level, two for `(`, three for `or`
WRAPPERS = {
    "(": "({})",
    "-": "- {}",
    "not": "not {}",
    "+": "{} + X.a",
    "*": "2 * {}",
    "and": "{} and X.a > 0",
    "or": "X.a < 0 or ({})",
}
DEPTHS = (st.integers(0, MAX_EXPR_DEPTH // 2)
          | st.sampled_from([MAX_EXPR_DEPTH - 1, MAX_EXPR_DEPTH, MAX_EXPR_DEPTH + 1, 1500]))


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(segments=st.lists(st.tuples(st.sampled_from(sorted(WRAPPERS)), DEPTHS),
                         min_size=1, max_size=3),
       template=st.sampled_from([
           "removeall feature X where {};",
           "updateall feature X set a = numeric: {} where X.a > 0;",
           'update feature "F" set a = numeric: {};',
       ]))
def test_pathological_nesting_never_crashes(segments, template):
    expr = "X.a"
    for kind, count in segments:
        for _ in range(count):
            expr = WRAPPERS[kind].format(expr)
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        (d / "m.fd").write_text(NEST_DECLS)
        (d / "c.feaf").write_text(template.format(expr) + "\n")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["-d", str(d / "m.fd"), "-c", str(d / "c.feaf"),
                         "-x", str(d / "c.eil"), "-o", str(d / "out.fd")])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


# -- arbitrary bytes ----------------------------------------------------------


@pytest.mark.parametrize("flags", [["-f"], ["-d", "-c"], ["-t"]])
@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(data=st.data())
def test_arbitrary_input_bytes_never_crash(flags, data):
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        args = []
        for i, flag in enumerate(flags):
            (d / f"in{i}").write_bytes(data.draw(st.binary(), label=flag))
            args += [flag, str(d / f"in{i}")]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(args + ["-o", str(d / "out.fd"), "-ot", str(d / "out.tvl")])
    assert code in (0, 1, 2)
