"""Command-line entry point.

Orchestrates the whole pipeline: read the input files, parse, build the
starting model, execute the commands under the selected running mode, print
the transcript, and save the transformed model to the requested outputs.
Exit codes: 0 on full success, 1 when execution halted or produced an error
diagnostic, 2 on a usage or parse failure.
"""

from __future__ import annotations

import sys

from .build import BuildError, build_model
from .commands import RunMode, run_script
from .expressions import AttrRef, Binary, FeatureRef, Lit, Unary, VarRef
from .model import DecompKind
from .parser import (
    AddFeature,
    ConstraintCommand,
    RemoveAllFeatures,
    RemoveFeature,
    UpdateAllFeatures,
    UpdateConstraint,
    UpdateFeature,
    parse_commands,
    parse_declarations,
    parse_script,
    validate_static,
)
from .serializer import format_value, serialize_declarations
from .tvl import TvlError, TvlExportError, export_tvl, import_tvl

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
    pass


class CliConfig:
    def __init__(self):
        self.mode = RunMode.STOP_ON_ERROR
        self.script = None       # -f
        self.declarations = None  # -d
        self.tvl_in = None       # -t
        self.commands = None     # -c
        self.out = None          # -o
        self.tvl_out = None      # -ot
        self.dump = None         # -x
        self.help = False


def parse_args(args: list) -> CliConfig:
    cfg = CliConfig()
    takes_value = {
        "-f": "script", "-d": "declarations", "-t": "tvl_in",
        "-c": "commands", "-o": "out", "-ot": "tvl_out", "-x": "dump",
    }
    modes = {"-i": RunMode.IGNORE_ALL, "-e": RunMode.STOP_ON_ERROR,
             "-w": RunMode.STOP_ON_WARNING}
    i = 0
    while i < len(args):
        flag = args[i]
        if flag == "-h":
            cfg.help = True
        elif flag in modes:
            cfg.mode = modes[flag]
        elif flag in takes_value:
            if i + 1 >= len(args):
                raise UsageError(f"flag {flag} needs a file argument")
            if getattr(cfg, takes_value[flag]) is not None:
                raise UsageError(f"flag {flag} given twice")
            setattr(cfg, takes_value[flag], args[i + 1])
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


# -- postfix dump -----------------------------------------------------------


def _postfix(expr) -> list:
    if isinstance(expr, FeatureRef):
        return [f'"{expr.name}"']
    if isinstance(expr, VarRef):
        return [expr.name]
    if isinstance(expr, Lit):
        if isinstance(expr.value, DecompKind):
            return [str(expr.value)]
        return [format_value(expr.value)]
    if isinstance(expr, AttrRef):
        subject = _postfix(expr.subject)[0]
        return [f"{subject}.{expr.attr}"]
    if isinstance(expr, Unary):
        return _postfix(expr.operand) + [expr.op]
    if isinstance(expr, Binary):
        return _postfix(expr.left) + _postfix(expr.right) + [expr.op]
    raise TypeError(f"not an expression: {expr!r}")


def postfix_text(expr) -> str:
    return " ".join(_postfix(expr))


def _dump_fdesc(desc) -> str:
    return f'"{desc.name}"' if isinstance(desc, FeatureRef) else desc.name


def _dump_decomp(spec) -> str:
    text = postfix_text(spec.kind)
    if spec.sibling is not None:
        text += f" to {_dump_fdesc(spec.sibling)}"
    return text


def dump_intermediate(ast) -> str:
    """A line-oriented dump of the script with expressions in postfix."""
    lines = []
    if ast.root is not None:
        lines.append(f'root "{ast.root.name}"')
        for ident, value in ast.root.attributes:
            lines.append(f"  attr {ident} {format_value(value)}")
    for f in ast.features:
        decomp = str(f.decomp)
        if f.sibling is not None:
            decomp += f' to "{f.sibling}"'
        lines.append(f'feature "{f.name}" "{f.parent}" {decomp}')
        for ident, value in f.attributes:
            lines.append(f"  attr {ident} {format_value(value)}")
    for c in ast.constraints:
        lines.append(f'constraint "{c.left}" {c.kind} "{c.right}"')
    for i, cmd in enumerate(ast.commands, 1):
        lines.append(f"cmd {i} {cmd.code}")
        if isinstance(cmd, AddFeature):
            lines.append(f'  name "{cmd.name}"')
        if isinstance(cmd, (UpdateFeature, RemoveFeature)):
            lines.append(f"  target {_dump_fdesc(cmd.target)}")
        if isinstance(cmd, (UpdateAllFeatures, RemoveAllFeatures)):
            lines.append(f"  target {cmd.var}")
        if isinstance(cmd, UpdateFeature) and cmd.new_name is not None:
            lines.append(f'  name "{cmd.new_name}"')
        if isinstance(cmd, (AddFeature, UpdateFeature, UpdateAllFeatures)):
            if cmd.parent is not None:
                lines.append(f"  parent {postfix_text(cmd.parent)}")
            if cmd.decomp is not None:
                lines.append(f"  decomp {_dump_decomp(cmd.decomp)}")
            for a in cmd.attrs:
                lines.append(f"  attr {a.tag} {a.name} {postfix_text(a.value)}")
        if isinstance(cmd, ConstraintCommand):
            lines.append(
                f"  constraint {_dump_fdesc(cmd.left)} {cmd.kind} "
                f"{_dump_fdesc(cmd.right)}")
        if isinstance(cmd, UpdateConstraint):
            if cmd.new_left is not None:
                lines.append(f"  leftfeature {_dump_fdesc(cmd.new_left)}")
            if cmd.new_kind is not None:
                lines.append(f"  constrainttype {cmd.new_kind}")
            if cmd.new_right is not None:
                lines.append(f"  rightfeature {_dump_fdesc(cmd.new_right)}")
        if cmd.where is not None:
            lines.append(f"  where {postfix_text(cmd.where)}")
    return "\n".join(lines) + "\n"


# -- orchestration ----------------------------------------------------------


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror}") from None


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror}") from None


def _parse_phase(cfg: CliConfig, out):
    """Parse all inputs; returns (model, commands) or None on failure."""
    from .parser import ScriptAst

    errors = []
    ast = ScriptAst()
    primary = cfg.script or cfg.declarations or cfg.tvl_in
    model = None

    if cfg.script:
        text = _read(cfg.script)
        ast, errs = parse_script(text)
        errors.extend(errs)
    elif cfg.declarations:
        text = _read(cfg.declarations)
        ast, errs = parse_declarations(text)
        errors.extend(errs)
    else:
        text = _read(cfg.tvl_in)
        try:
            model = import_tvl(text)
        except TvlError as exc:
            errors.append(exc)

    cmd_ast = None
    if cfg.commands:
        cmd_text = _read(cfg.commands)
        cmd_ast, errs = parse_commands(cmd_text)
        errors.extend(errs)
        ast.commands = cmd_ast.commands

    if not errors:
        errors.extend(validate_static(ast))
    if not errors and model is None:
        try:
            model = build_model(ast)
        except BuildError as exc:
            errors.append(exc)

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
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(USAGE, file=sys.stderr)
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
                outputs.append((cfg.tvl_out, export_tvl(model)))
            for path, text in outputs:
                _write(path, text)
        except (UsageError, TvlExportError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print("Saving the transformed model... DONE!", file=out)

    if halted_at is not None or any(d.severity == "error" for d in diagnostics):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
