from feather.cli import USAGE, dump_intermediate, main, postfix_text
from feather.parser import parse_commands, parse_script
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


def test_parse_failure_exit_2(tmp_path, capsys):
    src = tmp_path / "bad.feaf"
    src.write_text('root "R" feature ;\n')
    code = main(["-f", str(src)])
    captured = capsys.readouterr()
    assert code == 2
    assert f"Parsing [{src}]... FAILED" in captured.out
    assert "error:" in captured.err


def test_usage_errors(tmp_path, capsys):
    assert main(["-q"]) == 2
    assert USAGE in capsys.readouterr().err
    assert main(["-f", "a.feaf", "-d", "b.fd"]) == 2
    capsys.readouterr()
    assert main(["-f", str(tmp_path / "missing.feaf")]) == 2
    capsys.readouterr()


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
