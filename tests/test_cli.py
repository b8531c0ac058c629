"""CLI entry-point tests."""

import pytest

from repro.cli import build_parser, main


def test_parser_subcommands():
    parser = build_parser()
    args = parser.parse_args(["shell", "--root", "/tmp/x", "-c", "pwd"])
    assert args.command == "shell"
    args = parser.parse_args(["server", "--root", "/tmp/x", "--port", "0"])
    assert args.command == "server"
    args = parser.parse_args(["bench", "fig11", "--rows", "128"])
    assert args.figure == "fig11" and args.rows == 128


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_shell_one_shot_command(tmp_path, capsys):
    root = tmp_path / "dpfs"
    rc = main(["shell", "--root", str(root), "-c", "mkdir /made"])
    assert rc == 0
    rc = main(["shell", "--root", str(root), "-c", "ls /"])
    assert rc == 0
    assert "made/" in capsys.readouterr().out


def test_shell_one_shot_error(tmp_path, capsys):
    rc = main(["shell", "--root", str(tmp_path / "d"), "-c", "rm /ghost"])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_bench_small_fig13(capsys):
    rc = main(["bench", "fig13", "--rows", "256", "--cols", "1024"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Figure 13" in out
    assert "greedy" in out and "round_robin" in out


def test_bench_small_fig11(capsys):
    rc = main(["bench", "fig11", "--rows", "256", "--cols", "2048"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Combined Multi-dim" in out
    assert "Class 1" in out and "Class 3" in out


def test_stats_subcommand(capsys):
    rc = main(["stats", "--size", "32768", "--servers", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    # Prometheus text populated by a real roundtrip over the TCP backend
    assert "# == client metrics ==" in out
    assert "# TYPE dpfs_dispatch_requests_total counter" in out
    assert 'dpfs_net_requests_total{op="write"}' in out
    assert "dpfs_cache_hits_total 8" in out  # second read hits all 8 bricks
    # both ephemeral servers report their own registries
    assert out.count("# == server dpfs://") == 2
    assert "dpfs_server_requests_total" in out


def test_trace_subcommand(capsys):
    rc = main(["trace", "--size", "32768", "--servers", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "handle.write" in out
    assert "handle.read" in out
    for phase in ("combine.plan", "dispatch.batch", "dispatch.request",
                  "net.rpc", "cache.lookup"):
        assert phase in out, f"missing span {phase}"
    assert "queue_wait_s=" in out and "service_s=" in out
    # server span log lines carry rids that appear in the client traces
    assert "# server span log (rid-matched)" in out
    log_lines = [ln for ln in out.splitlines() if "rid=" in ln and "server." in ln]
    assert log_lines, "no rid-matched server spans printed"
    for line in log_lines:
        rid = line.split("rid=")[1].split()[0]
        assert f"trace {rid}" in out


def test_parser_stats_trace_options():
    parser = build_parser()
    args = parser.parse_args(["stats", "--connect", "h1:7001", "h2:7002"])
    assert args.command == "stats"
    assert args.connect == ["h1:7001", "h2:7002"]
    args = parser.parse_args(["trace", "--size", "1024", "--cache-kib", "0"])
    assert args.command == "trace" and args.size == 1024


def test_fsck_subcommand(tmp_path, capsys):
    root = tmp_path / "dpfs"
    assert main(["shell", "--root", str(root), "-c", "mkdir /d"]) == 0
    capsys.readouterr()
    assert main(["fsck", "--root", str(root)]) == 0
    assert "0 finding(s)" in capsys.readouterr().out
    # introduce an orphan subfile, fsck non-zero, repair fixes it
    (root / "server_0" / "stray").write_bytes(b"junk")
    assert main(["fsck", "--root", str(root)]) == 1
    capsys.readouterr()
    assert main(["fsck", "--root", str(root), "--repair"]) == 0
    assert main(["fsck", "--root", str(root)]) == 0


def _make_replicated(root, data):
    from repro.core import DPFS, Hint

    fs = DPFS.local(root, n_servers=4)
    fs.write_file(
        "/f", data, Hint.linear(file_size=len(data), brick_size=4096, replicas=2)
    )
    fs.close()


def test_scrub_subcommand(tmp_path, capsys):
    from repro.backends.local import escape_subfile_name
    from repro.core import DPFS
    from repro.core.brick import subfile_names

    root = tmp_path / "dpfs"
    data = bytes(range(256)) * 64  # 4 bricks
    _make_replicated(root, data)
    assert main(["scrub", "--root", str(root)]) == 0
    assert "0 finding(s)" in capsys.readouterr().out

    # garble one whole replica subfile: findings remain -> nonzero;
    # --repair rewrites every bad copy from the primaries -> zero
    with DPFS.local(root, n_servers=4) as fs:
        file_id = fs.meta.load_file("/f")[0].file_id
    rname = escape_subfile_name(subfile_names(file_id)[1])
    victim = next(
        p
        for i in range(4)
        for p in [(root / f"server_{i}" / rname)]
        if p.exists() and p.stat().st_size > 0
    )
    victim.write_bytes(b"\xaa" * victim.stat().st_size)
    assert main(["scrub", "--root", str(root)]) == 1
    capsys.readouterr()
    assert main(["scrub", "--root", str(root), "--repair"]) == 0
    assert "checksum-mismatch" in capsys.readouterr().out
    assert main(["scrub", "--root", str(root)]) == 0
    assert main(["fsck", "--root", str(root)]) == 0


def _crash_mid_remove(root):
    """Leave a removed file's subfiles + pending intent behind, like a
    dead client would."""
    from repro.core import DPFS, Hint
    from repro.crashpoints import SimulatedCrash, arm, disarm

    data = bytes(range(256)) * 16
    fs = DPFS.local(root, n_servers=4, io_workers=1)
    fs.write_file(
        "/f", data, Hint.linear(file_size=len(data), brick_size=1024)
    )
    arm("filesystem.remove.after_metadata")
    try:
        try:
            fs.remove("/f")
        except SimulatedCrash:
            pass
        else:  # pragma: no cover - arming failed
            raise AssertionError("crash point never fired")
    finally:
        disarm()
        fs.db.close()
        fs.dispatcher.shutdown()
    return data


def test_recover_subcommand_and_json_reports(tmp_path, capsys):
    import json

    root = tmp_path / "dpfs"
    _crash_mid_remove(root)

    # fsck --json surfaces the pending intent and exits nonzero
    assert main(["fsck", "--root", str(root), "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["tool"] == "fsck" and not report["clean"]
    assert any(f["kind"] == "pending-intent" for f in report["findings"])

    # scrub --json reports it too (report-only)
    assert main(["scrub", "--root", str(root), "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert any(f["kind"] == "pending-intent" for f in report["findings"])

    # recover rolls the remove forward and exits zero
    assert main(["recover", "--root", str(root), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["tool"] == "recover" and report["clean"]
    (action,) = report["actions"]
    assert action["op"] == "remove" and action["path"] == "/f"
    assert action["ok"]

    # everything is clean afterwards, and no subfile is left
    assert main(["fsck", "--root", str(root), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["clean"]
    assert main(["scrub", "--root", str(root)]) == 0
    capsys.readouterr()

    from repro.core import DPFS

    fs = DPFS.local(root, n_servers=4)
    assert not fs.exists("/f")
    assert [fs.backend.list_subfiles(s) for s in range(4)] == [[]] * 4
    fs.close()


def test_recover_subcommand_plain_output_when_idle(tmp_path, capsys):
    root = tmp_path / "dpfs"
    assert main(["shell", "--root", str(root), "-c", "mkdir /d"]) == 0
    capsys.readouterr()
    assert main(["recover", "--root", str(root)]) == 0
    assert "0 pending intent(s)" in capsys.readouterr().out


def test_fsck_repair_exits_nonzero_when_findings_remain(tmp_path, capsys):
    from repro.metadb import Database

    root = tmp_path / "dpfs"
    data = bytes(range(256)) * 64
    _make_replicated(root, data)
    # break the brick map beyond repair: drop one distribution row
    db = Database(root / "dpfs.meta")
    db.execute(
        "DELETE FROM dpfs_file_distribution WHERE rowid ="
        " (SELECT rowid FROM dpfs_file_distribution LIMIT 1)"
    )
    db.close()
    assert main(["fsck", "--root", str(root)]) == 1
    capsys.readouterr()
    # --repair cannot fix a bad brick map; the exit code must say so
    assert main(["fsck", "--root", str(root), "--repair"]) == 1
    assert "bad-brick-map" in capsys.readouterr().out
