"""Command-line entry points: ``dpfs shell | server | bench | figures``.

``dpfs shell --root DIR``          interactive shell on a local-directory DPFS
``dpfs server --root DIR --port P`` run one storage server (§2)
``dpfs bench fig11|fig12|fig13|fig14|all``  regenerate the §8 figures
``dpfs fsck --root DIR [--repair] [--json]`` check metadata/storage consistency
``dpfs scrub --root DIR [--repair] [--json]`` checksum-verify every brick copy
``dpfs recover --root DIR [--json]`` finish operations a crashed client left
``dpfs stats``                      Prometheus metrics after a demo roundtrip
``dpfs trace``                      span trees + server-side span log

``stats`` and ``trace`` run a small write/read workload over the real
TCP transport — against ``--connect host:port`` servers, or against
ephemeral local servers in a temporary directory — and print what the
observability layer recorded.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpfs",
        description="DPFS — Distributed Parallel File System (ICPP 2001 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    shell_p = sub.add_parser("shell", help="interactive DPFS shell (§7)")
    shell_p.add_argument(
        "--root", default="./dpfs-data", help="directory holding the server dirs"
    )
    shell_p.add_argument("--servers", type=int, default=4, help="number of I/O nodes")
    shell_p.add_argument(
        "-c", dest="command_line", default=None, help="run one command and exit"
    )

    server_p = sub.add_parser("server", help="run one DPFS storage server (§2)")
    server_p.add_argument("--root", required=True, help="storage directory")
    server_p.add_argument("--host", default="127.0.0.1")
    server_p.add_argument("--port", type=int, default=7001)
    server_p.add_argument("--performance", type=float, default=1.0)
    server_p.add_argument("--capacity", type=int, default=1 << 30)

    bench_p = sub.add_parser("bench", help="regenerate the §8 figures")
    bench_p.add_argument(
        "figure",
        choices=["fig11", "fig12", "fig13", "fig14", "all"],
        help="which figure to regenerate",
    )
    bench_p.add_argument(
        "--rows", type=int, default=2048, help="array rows (elements)"
    )
    bench_p.add_argument(
        "--cols", type=int, default=8192, help="array cols (elements)"
    )

    fsck_p = sub.add_parser("fsck", help="metadata/storage consistency check")
    fsck_p.add_argument("--root", required=True, help="DPFS root directory")
    fsck_p.add_argument("--servers", type=int, default=4)
    fsck_p.add_argument(
        "--repair", action="store_true", help="fix what can be fixed"
    )
    fsck_p.add_argument(
        "--json", action="store_true", help="machine-readable report on stdout"
    )

    scrub_p = sub.add_parser(
        "scrub", help="checksum-verify every brick copy; repair from replicas"
    )
    scrub_p.add_argument("--root", required=True, help="DPFS root directory")
    scrub_p.add_argument("--servers", type=int, default=4)
    scrub_p.add_argument(
        "--repair",
        action="store_true",
        help="rewrite bad copies from good ones and refresh stale checksums",
    )
    scrub_p.add_argument(
        "--json", action="store_true", help="machine-readable report on stdout"
    )

    recover_p = sub.add_parser(
        "recover",
        help="finish the removes and replica refills a crashed client "
        "left in the intent journal",
    )
    recover_p.add_argument("--root", required=True, help="DPFS root directory")
    recover_p.add_argument("--servers", type=int, default=4)
    recover_p.add_argument(
        "--json", action="store_true", help="machine-readable report on stdout"
    )

    for name, help_text in (
        ("stats", "run a demo roundtrip, print Prometheus metrics"),
        ("trace", "run a traced roundtrip, print client + server spans"),
    ):
        obs_p = sub.add_parser(name, help=help_text)
        obs_p.add_argument(
            "--connect",
            nargs="+",
            metavar="HOST:PORT",
            default=None,
            help="existing dpfs servers (default: ephemeral local ones)",
        )
        obs_p.add_argument(
            "--servers",
            type=int,
            default=2,
            help="ephemeral servers to start when --connect is absent",
        )
        obs_p.add_argument(
            "--size",
            type=int,
            default=256 * 1024,
            help="bytes written+read by the demo workload",
        )
        obs_p.add_argument(
            "--cache-kib",
            type=int,
            default=1024,
            help="client brick cache size (0 disables)",
        )
        obs_p.add_argument(
            "--pool-size",
            type=int,
            default=4,
            help="TCP connections kept per server",
        )
        obs_p.add_argument(
            "--ping-interval",
            type=float,
            default=None,
            help="background health-probe interval in seconds (default off)",
        )
    return parser


def _cmd_shell(args: argparse.Namespace) -> int:
    from .core.filesystem import DPFS
    from .errors import DPFSError
    from .shell import Shell

    fs = DPFS.local(args.root, n_servers=args.servers)
    shell = Shell(fs)
    if args.command_line is not None:
        try:
            output = shell.run_line(args.command_line)
        except DPFSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        if output:
            print(output)
        return 0
    shell.repl()
    return 0


def _cmd_server(args: argparse.Namespace) -> int:
    import signal
    import time

    from .net.server import DPFSServer

    server = DPFSServer(
        args.root,
        host=args.host,
        port=args.port,
        capacity=args.capacity,
        performance=args.performance,
    )
    server.start()
    host, port = server.address
    try:
        # SIGTERM stops the server the way Ctrl-C does: through stop(),
        # which lets a write in service finish with its sidecar stamps
        signal.signal(signal.SIGTERM, signal.default_int_handler)
        # flushed: a supervisor reading a pipe needs the port now
        print(
            f"dpfs server on {host}:{port}, storage at {args.root} — Ctrl-C stops",
            flush=True,
        )
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .perf import (
        figure11,
        figure12,
        figure13,
        figure14,
        render_file_level,
        render_placement,
    )

    shape = (args.rows, args.cols)
    wanted = (
        ["fig11", "fig12", "fig13", "fig14"]
        if args.figure == "all"
        else [args.figure]
    )
    for fig in wanted:
        if fig == "fig11":
            print(render_file_level(figure11(shape), "Figure 11 — file levels"))
        elif fig == "fig12":
            print(render_file_level(figure12(shape), "Figure 12 — file levels"))
        elif fig == "fig13":
            print(render_placement(figure13(shape), "Figure 13 — placement"))
        else:
            print(render_placement(figure14(shape), "Figure 14 — placement"))
        print()
    return 0


def _cmd_fsck(args: argparse.Namespace) -> int:
    import json

    from .core import fsck
    from .core.filesystem import DPFS

    # auto_recover stays off: a checker that silently recovered on mount
    # would report a clean tree without ever showing what was wrong
    fs = DPFS.local(args.root, n_servers=args.servers, auto_recover=False)
    report = fsck(fs, repair=args.repair)
    if args.json:
        print(
            json.dumps(
                {
                    "tool": "fsck",
                    "clean": report.clean,
                    "files_checked": report.files_checked,
                    "findings": [
                        {
                            "kind": f.kind,
                            "path": f.path,
                            "detail": f.detail,
                            "repaired": f.repaired,
                        }
                        for f in report.findings
                    ],
                },
                indent=2,
            )
        )
    else:
        print(report)
    fs.close()
    # nonzero whenever findings remain after this run: a --repair pass
    # that could not fix everything must not report success
    return 0 if all(f.repaired for f in report.findings) else 1


def _cmd_scrub(args: argparse.Namespace) -> int:
    import json

    from .core import scrub
    from .core.filesystem import DPFS

    fs = DPFS.local(args.root, n_servers=args.servers, auto_recover=False)
    report = scrub(fs, repair=args.repair)
    if args.json:
        print(
            json.dumps(
                {
                    "tool": "scrub",
                    "clean": report.clean,
                    "files_checked": report.files_checked,
                    "bricks_checked": report.bricks_checked,
                    "copies_checked": report.copies_checked,
                    "findings": [
                        {
                            "kind": f.kind,
                            "path": f.path,
                            "brick_id": f.brick_id,
                            "server": f.server,
                            "detail": f.detail,
                            "repaired": f.repaired,
                        }
                        for f in report.findings
                    ],
                },
                indent=2,
            )
        )
    else:
        print(report)
    fs.close()
    return 0 if not report.unrepaired else 1


def _cmd_recover(args: argparse.Namespace) -> int:
    import json

    from .core.filesystem import DPFS

    fs = DPFS.local(args.root, n_servers=args.servers, auto_recover=False)
    report = fs.recover()
    if args.json:
        print(
            json.dumps(
                {
                    "tool": "recover",
                    "clean": report.clean,
                    "pending": len(report.actions),
                    "recovered": len(report.recovered),
                    "stuck": len(report.stuck),
                    "actions": [
                        {
                            "intent_id": a.intent_id,
                            "op": a.op,
                            "path": a.path,
                            "ok": a.ok,
                            "detail": a.detail,
                        }
                        for a in report.actions
                    ],
                },
                indent=2,
            )
        )
    else:
        print(report)
    fs.close()
    return 0 if report.clean else 1


def _obs_session(args: argparse.Namespace, *, tracing: bool):
    """(fs, exit-stack) — a DPFS over the TCP backend, per CLI options.

    Without ``--connect`` this starts ``--servers`` ephemeral
    :class:`~repro.net.server.DPFSServer` instances in a temporary
    directory, so the command demonstrates the full client/server wire
    path out of the box.
    """
    import contextlib
    import tempfile
    from pathlib import Path

    from .core.filesystem import DPFS
    from .net.server import DPFSServer

    stack = contextlib.ExitStack()
    try:
        if args.connect:
            addresses = []
            for spec in args.connect:
                host, _, port = spec.rpartition(":")
                addresses.append((host or "127.0.0.1", int(port)))
        else:
            root = Path(
                stack.enter_context(
                    tempfile.TemporaryDirectory(prefix="dpfs-obs-")
                )
            )
            servers = [
                stack.enter_context(DPFSServer(root / f"server{i}", port=0))
                for i in range(max(1, args.servers))
            ]
            addresses = [s.address for s in servers]
        fs = DPFS.remote(
            addresses,
            pool_size=args.pool_size,
            ping_interval_s=args.ping_interval,
            cache_bytes=args.cache_kib << 10,
            tracing=tracing,
        )
        stack.callback(fs.close)
    except BaseException:
        stack.close()
        raise
    return fs, stack


def _demo_roundtrip(fs, nbytes: int) -> None:
    """Write then read ``nbytes`` twice (second read exercises the cache)."""
    from .core.hints import Hint

    data = bytes(range(256)) * (nbytes // 256 + 1)
    data = data[:nbytes]
    hint = Hint(file_size=nbytes, brick_size=max(4096, nbytes // 8))
    if fs.exists("/obs-demo"):
        fs.remove("/obs-demo")
    with fs.open("/obs-demo", "w", hint) as handle:
        handle.write(0, data)
    with fs.open("/obs-demo") as handle:
        for _ in range(2):
            back = handle.read(0, nbytes)
            if bytes(back) != data:
                raise RuntimeError("demo roundtrip corrupted data")


def _cmd_stats(args: argparse.Namespace) -> int:
    fs, stack = _obs_session(args, tracing=False)
    with stack:
        _demo_roundtrip(fs, args.size)
        print("# == client metrics ==")
        print(fs.metrics.render(), end="")
        print("# == server health ==")
        print(
            "# server  address                health    fails  pool(open/idle)"
            "  reconnects  discarded"
        )
        for row in fs.backend.health():
            addr = f"{row['host']}:{row['port']}"
            print(
                f"# {row['server']:<7} {addr:<22} {row['health']:<9} "
                f"{row['consecutive_failures']:<6} "
                f"{row['open']}/{row['idle']:<14} "
                f"{row['reconnects']:<11} {row['discarded']}"
            )
        for entry in fs.backend.server_stats():
            print(f"# == server {entry['name']} ==")
            print(entry["metrics"], end="")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    fs, stack = _obs_session(args, tracing=True)
    with stack:
        _demo_roundtrip(fs, args.size)
        rids = set()
        for tr in fs.tracer.traces():
            rids.add(tr.trace_id)
            print(tr.render())
            print()
        print("# server span log (rid-matched)")
        for entry in fs.backend.server_stats():
            for rec in entry["spans"]:
                if rec.get("rid") in rids:
                    print(
                        f"{entry['name']}  rid={rec['rid']}  {rec['name']}  "
                        f"{rec['duration_s'] * 1000:.2f} ms  "
                        f"nbytes={rec.get('nbytes', 0)}"
                    )
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "shell":
        return _cmd_shell(args)
    if args.command == "server":
        return _cmd_server(args)
    if args.command == "fsck":
        return _cmd_fsck(args)
    if args.command == "scrub":
        return _cmd_scrub(args)
    if args.command == "recover":
        return _cmd_recover(args)
    if args.command == "stats":
        return _cmd_stats(args)
    if args.command == "trace":
        return _cmd_trace(args)
    return _cmd_bench(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
