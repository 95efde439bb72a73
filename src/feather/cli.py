"""Command-line entry point.

Orchestrates the whole pipeline: read the input files, parse, build the
starting model, execute the commands under the selected running mode, print
the transcript, and save the transformed model to the requested outputs.
Exit codes: 0 on full success, 1 when execution halted or produced an error
diagnostic, 2 on a usage, file, parse or export failure, when standard
output is closed before the run ends, or when the run runs out of memory.

`main(argv)` is the entry for library callers and leaves the interpreter's
state alone; `entry()` is the process entry (`python -m feather` and the
`feather` script), which also keeps the cyclic collector off the heap that
lives until the process exits.
"""

from __future__ import annotations

import gc
import os
import sys
from types import SimpleNamespace

from .build import BuildError, build_model
from .commands import RunMode, run_script
from .parser import ScriptAst, parse_commands, parse_declarations, parse_script, validate_static
from .serializer import serialize_declarations

USAGE = """\
-i : Running Mode - Ignore all errors & warnings
-e : Running Mode - Stop on first error (ignore warnings)
-w : Running Mode - Stop on first warning
-f <feather-file> : Input Feather file (declarations + commands)
-d <feather-declarations-file> : Input Feather declarations file
-t <tvl-declarations-file> : Input TVL declarations file
-c <feather-commands-file> : Input Feather commands file
-o <feather-declarations-file> : Output Feather declarations file
-ot <tvl-declarations-file> : Output TVL declarations file
-x <intermediate-file> : Output intermediate (postfix) code file
-h : Display this help message"""


class UsageError(Exception):
    """Wrong flags: reported with the usage text."""


class FileError(Exception):
    """An input or output that fails: reported alone."""


# the flags that name a file, each with the setting it fills
FILE_FLAGS = {"-f": "script", "-d": "declarations", "-t": "tvl_in", "-c": "commands",
              "-o": "out", "-ot": "tvl_out", "-x": "dump"}
MODE_FLAGS = {"-i": RunMode.IGNORE_ALL, "-e": RunMode.STOP_ON_ERROR,
              "-w": RunMode.STOP_ON_WARNING}


def parse_args(args: list) -> SimpleNamespace:
    cfg = SimpleNamespace(mode=RunMode.STOP_ON_ERROR, help=False,
                          **dict.fromkeys(FILE_FLAGS.values()))
    i = 0
    while i < len(args):
        flag = args[i]
        if flag == "-h":
            cfg.help = True
        elif flag in MODE_FLAGS:
            cfg.mode = MODE_FLAGS[flag]
        elif flag in FILE_FLAGS:
            if i + 1 >= len(args):
                raise UsageError(f"flag {flag} needs a file argument")
            if getattr(cfg, FILE_FLAGS[flag]) is not None:
                raise UsageError(f"flag {flag} given twice")
            setattr(cfg, FILE_FLAGS[flag], args[i + 1])
            i += 1
        else:
            raise UsageError(f"unknown flag {flag!r}")
        i += 1
    if cfg.help:
        return cfg
    if cfg.script and (cfg.declarations or cfg.tvl_in or cfg.commands):
        raise UsageError("-f cannot be combined with -d, -t, or -c")
    if cfg.declarations and cfg.tvl_in:
        raise UsageError("-d and -t are mutually exclusive")
    if not (cfg.script or cfg.declarations or cfg.tvl_in):
        raise UsageError("an input file is required (-f, -d, or -t)")
    return cfg


# -- orchestration ----------------------------------------------------------


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise FileError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise FileError(f"cannot read {path}: byte {exc.start} is not UTF-8") from None


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise FileError(f"cannot write {path}: {exc.strerror}") from None


def _parse_phase(cfg: SimpleNamespace, out):
    """Parse all inputs; returns (model, commands) or None on failure."""
    primary = cfg.script or cfg.declarations or cfg.tvl_in
    model, ast, errors = None, ScriptAst(), []
    if cfg.script or cfg.declarations:
        parse = parse_script if cfg.script else parse_declarations
        ast, errors = parse(_read(primary))
    else:
        from .tvl import TvlError, import_tvl
        try:
            model = import_tvl(_read(cfg.tvl_in))
        except TvlError as exc:
            errors.append(exc)

    if cfg.commands:
        cmd_ast, errs = parse_commands(_read(cfg.commands))
        errors.extend(errs)
        ast.commands = cmd_ast.commands

    if not errors:
        if model is None:
            try:
                model = build_model(ast)
            except BuildError as exc:
                errors.append(exc)
        errors.extend(validate_static(ast))

    names = [p for p in (primary, cfg.commands) if p]
    status = "OK" if not errors else "FAILED"
    for name in names:
        print(f"Parsing [{name}]... {status}", file=out)
    if errors:
        for e in errors:
            print(f"error: {e}", file=sys.stderr)
        return None

    dump_name = cfg.dump or f"{primary}.eil"
    if cfg.dump:
        from .dump import dump_intermediate
        _write(cfg.dump, dump_intermediate(ast))
    print(f"Generating intermediate language code file [{dump_name}]... OK",
          file=out)
    return model, ast.commands


def main(argv=None) -> int:
    out = sys.stdout
    args = sys.argv[1:] if argv is None else list(argv)
    try:
        cfg = parse_args(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(USAGE, file=sys.stderr)
        return 2
    if cfg.help:
        print(USAGE, file=out)
        return 0

    print("*****", file=out)
    print("Feather 1.0 Parser", file=out)
    print("-----", file=out)
    try:
        parsed = _parse_phase(cfg, out)
    except FileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if parsed is None:
        return 2
    print("DONE!", file=out)
    print("*****", file=out)

    model, commands = parsed
    print("Executing the commands... ", file=out, end="")
    model, diagnostics, halted_at = run_script(model, commands, cfg.mode)
    print("DONE!", file=out)

    if diagnostics:
        print("-----", file=out)
        print("Errors & Warnings", file=out)
        print("=====", file=out)
        for d in diagnostics:
            print(d.render(), file=out)
        print("-----", file=out)

    if cfg.out or cfg.tvl_out:
        try:
            # render both texts first: a model TVL cannot express writes neither
            outputs = []
            if cfg.out:
                outputs.append((cfg.out, serialize_declarations(model)))
            if cfg.tvl_out:
                from .tvl_export import TvlExportError, export_tvl
                try:
                    outputs.append((cfg.tvl_out, export_tvl(model)))
                except TvlExportError as exc:
                    raise FileError(str(exc)) from None
            for path, text in outputs:
                _write(path, text)
        except FileError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print("Saving the transformed model... DONE!", file=out)

    if halted_at is not None or any(d.severity == "error" for d in diagnostics):
        return 1
    return 0


def entry() -> int:
    """Run `main` as the whole process and return its exit status.

    Nothing imported or built before the run ends becomes garbage before the
    process exits, so the heap is frozen twice: once the imports are done,
    so that no collection during the run walks the import-time objects
    again, and after the run, so that the collections at shutdown walk
    nothing. Cyclic garbage the run itself makes is still collected during
    the run. A frozen object's finalizer never runs, so no output may rely
    on one: every file is closed by `with`, and standard output is flushed
    here, before the second freeze.
    """
    gc.freeze()
    try:
        status = main()
        if sys.stdout is not None:
            sys.stdout.flush()
    except BrokenPipeError:
        status = _closed_stdout()
    except MemoryError:
        status = None  # reported below, once the frames the error holds are freed
    if status is None:
        print("error: out of memory", file=sys.stderr)
        status = 2
    gc.freeze()
    return status


def _closed_stdout() -> int:
    """Report that standard output was closed, once and without a traceback;
    silent when standard error is closed too."""
    _discard(sys.stdout)
    if sys.stderr is not None:
        try:
            print("error: cannot write standard output: Broken pipe", file=sys.stderr)
        except OSError:
            _discard(sys.stderr)
    return 2


def _discard(stream) -> None:
    """Point the descriptor under `stream` at the null device, so that the
    interpreter's flush at exit writes what is still buffered nowhere."""
    if stream is None:
        return
    null = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(null, stream.fileno())
    finally:
        os.close(null)


if __name__ == "__main__":
    sys.exit(entry())
