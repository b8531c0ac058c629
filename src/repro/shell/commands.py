"""The DPFS shell commands (§7).

"Like traditional UNIX file system, DPFS also provides a user interface
... these commands include cp, mkdir, rm, ls, pwd and so on.  DPFS also
allows data transfer between sequential files and DPFS."

Each command takes the shell state and an argv list and returns output
text.  :data:`COMMANDS` maps names to handlers; ``help`` renders it.
"""

from __future__ import annotations

import posixpath
import shlex
from typing import TYPE_CHECKING, Callable

from ..core.hints import Hint
from ..core.striping import FileLevel
from ..core.transfer import copy_within, export_file, import_file
from ..errors import DPFSError
from ..util import format_bytes, parse_size

if TYPE_CHECKING:  # pragma: no cover
    from .interpreter import ShellState

__all__ = ["COMMANDS", "CommandError", "run_command"]


class CommandError(DPFSError):
    """User-facing command failure (bad arguments, missing file...)."""


CommandHandler = Callable[["ShellState", list[str]], str]
COMMANDS: dict[str, tuple[CommandHandler, str]] = {}


def command(name: str, usage: str):
    def register(fn: CommandHandler) -> CommandHandler:
        COMMANDS[name] = (fn, usage)
        return fn

    return register


def run_command(state: "ShellState", line: str) -> str:
    """Parse and run one shell line; returns its output text."""
    argv = shlex.split(line, comments=True)
    if not argv:
        return ""
    name, args = argv[0], argv[1:]
    entry = COMMANDS.get(name)
    if entry is None:
        raise CommandError(f"{name}: unknown command (try 'help')")
    handler, _usage = entry
    return handler(state, args)


def _hint_from_flags(args: list[str]) -> tuple[Hint | None, list[str]]:
    """Extract --level/--brick-size/--shape/--brick-shape/--pattern flags."""
    level: str | None = None
    brick_size: int | None = None
    shape: tuple[int, ...] | None = None
    brick_shape: tuple[int, ...] | None = None
    pattern: str | None = None
    element_size = 8
    nprocs: int | None = None
    placement = "round_robin"
    rest: list[str] = []
    it = iter(range(len(args)))
    i = 0

    def need_value(flag: str) -> str:
        nonlocal i
        i += 1
        if i >= len(args):
            raise CommandError(f"{flag} needs a value")
        return args[i]

    while i < len(args):
        arg = args[i]
        if arg == "--level":
            level = need_value(arg)
        elif arg == "--brick-size":
            brick_size = parse_size(need_value(arg))
        elif arg == "--shape":
            shape = tuple(int(x) for x in need_value(arg).split("x"))
        elif arg == "--brick-shape":
            brick_shape = tuple(int(x) for x in need_value(arg).split("x"))
        elif arg == "--pattern":
            pattern = need_value(arg)
        elif arg == "--element-size":
            element_size = int(need_value(arg))
        elif arg == "--nprocs":
            nprocs = int(need_value(arg))
        elif arg == "--placement":
            placement = need_value(arg)
        else:
            rest.append(arg)
        i += 1

    if level is None:
        return None, rest
    try:
        file_level = FileLevel(level)
    except ValueError:
        raise CommandError(
            f"--level must be linear/multidim/array, got {level!r}"
        ) from None
    if file_level is FileLevel.LINEAR:
        hint = Hint.linear(
            brick_size=brick_size or Hint().brick_size, placement=placement
        )
    elif file_level is FileLevel.MULTIDIM:
        if shape is None or brick_shape is None:
            raise CommandError("--level multidim needs --shape and --brick-shape")
        hint = Hint.multidim(
            shape, element_size, brick_shape, placement=placement
        )
    else:
        if shape is None or pattern is None or nprocs is None:
            raise CommandError(
                "--level array needs --shape, --pattern and --nprocs"
            )
        hint = Hint.array(
            shape, element_size, pattern, nprocs, placement=placement
        )
    return hint, rest


# ---------------------------------------------------------------------------
# navigation
# ---------------------------------------------------------------------------

@command("pwd", "pwd — print the working directory")
def cmd_pwd(state: "ShellState", args: list[str]) -> str:
    return state.cwd


@command("cd", "cd [dir] — change the working directory")
def cmd_cd(state: "ShellState", args: list[str]) -> str:
    target = state.resolve(args[0]) if args else "/"
    if not state.fs.isdir(target):
        raise CommandError(f"cd: no such directory: {target}")
    state.cwd = target
    return ""


@command("ls", "ls [-l] [path] — list a directory (or stat a file)")
def cmd_ls(state: "ShellState", args: list[str]) -> str:
    long_format = "-l" in args
    paths = [a for a in args if not a.startswith("-")]
    path = state.resolve(paths[0]) if paths else state.cwd
    fs = state.fs
    if fs.isfile(path):
        entries = [path]
        base = posixpath.dirname(path)
    else:
        dirs, files = fs.listdir(path)
        if not long_format:
            return "  ".join([d + "/" for d in dirs] + files)
        entries = [posixpath.join(path, d) for d in dirs] + [
            posixpath.join(path, f) for f in files
        ]
        base = path
    del base
    lines = []
    for entry in entries:
        st = fs.stat(entry)
        if st.get("is_dir"):
            lines.append(f"d---------  {'-':>10}  {posixpath.basename(entry)}/")
        else:
            perm = st["permission"]
            level = st["filelevel"]
            lines.append(
                f"-{perm:03o}  {st['size']:>12}  {level:<9} "
                f"{st['owner']:<8}  {posixpath.basename(entry)}"
            )
    return "\n".join(lines)


@command("mkdir", "mkdir [-p] dir... — create directories")
def cmd_mkdir(state: "ShellState", args: list[str]) -> str:
    recursive = "-p" in args
    targets = [a for a in args if not a.startswith("-")]
    if not targets:
        raise CommandError("mkdir: missing operand")
    for target in targets:
        path = state.resolve(target)
        if recursive:
            state.fs.makedirs(path)
        else:
            state.fs.mkdir(path)
    return ""


@command("rmdir", "rmdir dir... — remove empty directories")
def cmd_rmdir(state: "ShellState", args: list[str]) -> str:
    if not args:
        raise CommandError("rmdir: missing operand")
    for target in args:
        state.fs.rmdir(state.resolve(target))
    return ""


@command("rm", "rm file... — remove files")
def cmd_rm(state: "ShellState", args: list[str]) -> str:
    if not args:
        raise CommandError("rm: missing operand")
    for target in args:
        state.fs.remove(state.resolve(target))
    return ""


@command("chmod", "chmod octal file — change permission bits")
def cmd_chmod(state: "ShellState", args: list[str]) -> str:
    if len(args) != 2:
        raise CommandError("chmod: usage: chmod 644 /path")
    try:
        bits = int(args[0], 8)
    except ValueError:
        raise CommandError(f"chmod: bad mode {args[0]!r}") from None
    state.fs.chmod(state.resolve(args[1]), bits)
    return ""


# ---------------------------------------------------------------------------
# data movement
# ---------------------------------------------------------------------------

@command(
    "cp",
    "cp [striping flags] src dst — copy inside DPFS "
    "(flags: --level linear|multidim|array --brick-size 64K "
    "--shape RxC --brick-shape RxC --pattern '(BLOCK,*)' --nprocs N)",
)
def cmd_cp(state: "ShellState", args: list[str]) -> str:
    hint, rest = _hint_from_flags(args)
    if len(rest) != 2:
        raise CommandError("cp: usage: cp [flags] src dst")
    src, dst = (state.resolve(p) for p in rest)
    nbytes = copy_within(state.fs, src, dst, hint=hint)
    return f"copied {format_bytes(nbytes)}"


@command("put", "put [striping flags] local-file dpfs-path — import a host file")
def cmd_put(state: "ShellState", args: list[str]) -> str:
    hint, rest = _hint_from_flags(args)
    if len(rest) != 2:
        raise CommandError("put: usage: put [flags] local-file dpfs-path")
    local, remote = rest[0], state.resolve(rest[1])
    nbytes = import_file(state.fs, local, remote, hint=hint)
    return f"imported {format_bytes(nbytes)}"


@command("get", "get dpfs-path local-file — export to a sequential host file")
def cmd_get(state: "ShellState", args: list[str]) -> str:
    if len(args) != 2:
        raise CommandError("get: usage: get dpfs-path local-file")
    nbytes = export_file(state.fs, state.resolve(args[0]), args[1])
    return f"exported {format_bytes(nbytes)}"


@command("mv", "mv src dst — rename a file")
def cmd_mv(state: "ShellState", args: list[str]) -> str:
    if len(args) != 2:
        raise CommandError("mv: usage: mv src dst")
    state.fs.rename(state.resolve(args[0]), state.resolve(args[1]))
    return ""


@command("du", "du [path] — total bytes under a path")
def cmd_du(state: "ShellState", args: list[str]) -> str:
    path = state.resolve(args[0]) if args else state.cwd
    total = state.fs.du(path)
    return f"{total}\t{format_bytes(total)}\t{path}"


@command("cat", "cat file — print a (small, textual) file")
def cmd_cat(state: "ShellState", args: list[str]) -> str:
    if len(args) != 1:
        raise CommandError("cat: usage: cat file")
    data = state.fs.read_file(state.resolve(args[0]))
    return data.decode("utf-8", errors="replace")


# ---------------------------------------------------------------------------
# inspection
# ---------------------------------------------------------------------------

@command("stat", "stat path — full attributes incl. striping geometry")
def cmd_stat(state: "ShellState", args: list[str]) -> str:
    if len(args) != 1:
        raise CommandError("stat: usage: stat path")
    st = state.fs.stat(state.resolve(args[0]))
    if st.get("is_dir"):
        return f"{st['filename']}: directory"
    geometry = st["geometry"]
    lines = [
        f"file:       {st['filename']}",
        f"owner:      {st['owner']}   permission: {st['permission']:03o}",
        f"size:       {st['size']} ({format_bytes(st['size'])})",
        f"level:      {st['filelevel']}   element size: {st['element_size']}",
        f"placement:  {st['placement']}",
    ]
    if geometry.get("array_shape"):
        lines.append(f"array:      {'x'.join(map(str, geometry['array_shape']))}")
    if geometry.get("brick_shape"):
        lines.append(f"brick:      {'x'.join(map(str, geometry['brick_shape']))}")
    if geometry.get("pattern"):
        lines.append(
            f"pattern:    {geometry['pattern']}   nprocs: {geometry.get('nprocs')}"
        )
    lines.append(f"bricks:     {len(geometry['brick_sizes'])}")
    return "\n".join(lines)


@command("df", "df — show the DPFS-SERVER table with usage (I/O nodes)")
def cmd_df(state: "ShellState", args: list[str]) -> str:
    rows = state.fs.df()
    lines = [
        f"{'id':>3}  {'server':<28} {'capacity':>10} {'used':>10} "
        f"{'avail':>10}  {'perf':>5}"
    ]
    for row in rows:
        lines.append(
            f"{row['server_id']:>3}  {row['server_name']:<28} "
            f"{format_bytes(row['capacity']):>10} {format_bytes(row['used']):>10} "
            f"{format_bytes(row['available']):>10}  {row['performance']:>5.1f}"
        )
    return "\n".join(lines)


@command("bricks", "bricks file — per-server bricklists (DPFS-FILE-DISTRIBUTION)")
def cmd_bricks(state: "ShellState", args: list[str]) -> str:
    if len(args) != 1:
        raise CommandError("bricks: usage: bricks file")
    path = state.resolve(args[0])
    _record, brick_map = state.fs.meta.load_file(path)
    lines = []
    for server, bricklist in enumerate(brick_map.to_lists()):
        preview = ",".join(map(str, bricklist[:12]))
        if len(bricklist) > 12:
            preview += ",..."
        lines.append(f"server {server}: {len(bricklist):>5} bricks  [{preview}]")
    return "\n".join(lines)


@command("fsck", "fsck [--repair] — check metadata/storage consistency")
def cmd_fsck(state: "ShellState", args: list[str]) -> str:
    from ..core.fsck import fsck

    repair = "--repair" in args
    report = fsck(state.fs, repair=repair)
    return str(report)


@command("help", "help [command] — this text")
def cmd_help(state: "ShellState", args: list[str]) -> str:
    if args:
        entry = COMMANDS.get(args[0])
        if entry is None:
            raise CommandError(f"help: unknown command {args[0]!r}")
        return entry[1]
    lines = ["DPFS shell commands:"]
    for name in sorted(COMMANDS):
        lines.append(f"  {COMMANDS[name][1]}")
    return "\n".join(lines)
