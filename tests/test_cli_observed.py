"""The observability flags of every observed command.

``--telemetry``, ``--ledger``, ``--heartbeat`` and ``--metrics-port``
are opened and closed by one wrapper in :mod:`repro.cli`.  They must
never change what a command prints or returns, and every exit must
leave the heartbeat and the ``/metrics`` server in a final state.
"""

import json
import socket

import pytest

from repro.cli import main
from repro.errors import InvalidParameterError
from repro.obs.ledger import RunLedger
from repro.verify.report import CheckResult, Discrepancy, VerifyReport

# (command argv, observability flags the command accepts)
CASES = {
    "simulate-engine": (
        ["simulate", "--protocol", "uniform", "--n", "6", "--window", "256",
         "--fastpath", "off"],
        ("telemetry", "ledger"),
    ),
    "simulate-kernel": (
        ["simulate", "--protocol", "uniform", "--n", "6", "--window", "256"],
        ("ledger",),
    ),
    "sweep": (
        ["sweep", "--protocol", "uniform", "--param", "n", "--values", "2,4",
         "--window", "128", "--seeds", "2"],
        ("telemetry", "ledger", "heartbeat"),
    ),
    "compare": (
        ["compare", "--workload", "single-class", "--n", "6", "--seeds", "1"],
        ("telemetry", "ledger"),
    ),
    "certify": (
        ["certify", "--protocols", "uniform", "--families", "jam",
         "--seeds", "4", "--tol", "0.2", "--n", "4", "--window", "256"],
        ("telemetry", "ledger", "heartbeat"),
    ),
    "frontier": (
        ["frontier", "--n", "4", "--window", "256", "--seeds", "2",
         "--protocols", "uniform,beb", "--budgets", "0,0.25"],
        ("telemetry",),
    ),
    "stream": (
        ["stream", "--rho", "0.2", "--windows", "16,64", "--max-jobs", "300"],
        ("ledger", "heartbeat"),
    ),
    "verify": (
        ["verify", "--cases", "fastpath-uniform-clean"],
        ("ledger",),
    ),
}


def _run(capsys, argv):
    rc = main(argv)
    return rc, capsys.readouterr().out


def _free_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


@pytest.mark.parametrize("name", sorted(CASES))
def test_flags_never_change_stdout(name, tmp_path, capsys):
    argv, flags = CASES[name]
    sinks = {
        "telemetry": tmp_path / "run.jsonl",
        "ledger": tmp_path / "ledger.jsonl",
        "heartbeat": tmp_path / "run.heartbeat.json",
    }
    extra = []
    for flag in flags:
        extra += [f"--{flag}", str(sinks[flag])]

    rc_plain, out_plain = _run(capsys, argv)
    rc_obs, out_obs = _run(capsys, argv + extra)

    kept = [
        line for line in out_obs.splitlines()
        if not line.startswith("wrote telemetry to ")
    ]
    assert kept == out_plain.splitlines()
    assert rc_obs == rc_plain
    if "telemetry" in flags:
        assert f"wrote telemetry to {sinks['telemetry']}" in out_obs
        assert sinks["telemetry"].stat().st_size > 0
    if "ledger" in flags:
        records = RunLedger(sinks["ledger"]).read()
        assert records and all(r.status == "ok" for r in records)
    if "heartbeat" in flags:
        snap = json.loads(sinks["heartbeat"].read_text())
        assert snap["status"] == "done"


def test_sweep_setup_failure_marks_heartbeat_and_stops_server(tmp_path):
    """A sweep that fails while building its Sweep still finishes its
    heartbeat as failed and closes its /metrics port."""
    hb = tmp_path / "sweep.heartbeat.json"
    port = _free_port()
    with pytest.raises(InvalidParameterError, match="p_jam must be in"):
        main([
            "sweep", "--protocol", "uniform", "--param", "n",
            "--values", "2,4", "--window", "128", "--jam", "1.5",
            "--heartbeat", str(hb), "--metrics-port", str(port),
        ])
    assert json.loads(hb.read_text())["status"] == "failed"
    with pytest.raises(ConnectionRefusedError):
        socket.create_connection(("127.0.0.1", port), timeout=2).close()


def test_stream_argument_error_leaves_failed_heartbeat(tmp_path):
    hb = tmp_path / "stream.heartbeat.json"
    ledger = tmp_path / "ledger.jsonl"
    with pytest.raises(SystemExit, match="--resume requires --checkpoint"):
        main([
            "stream", "--rho", "0.2", "--max-jobs", "100", "--resume",
            "--heartbeat", str(hb), "--ledger", str(ledger),
        ])
    assert json.loads(hb.read_text())["status"] == "failed"
    (rec,) = RunLedger(ledger).read()
    assert rec.kind == "stream" and rec.status == "failed"


def test_failing_verify_battery_is_recorded_as_failed(
    tmp_path, capsys, monkeypatch
):
    import repro.verify

    bad = Discrepancy(
        case="c", seed=0, check="x", quantity="q", expected="1", actual="2"
    )
    report = VerifyReport([CheckResult("c", "x", (0,), (bad,))])
    monkeypatch.setattr(
        repro.verify, "run_verification", lambda **kwargs: report
    )
    ledger = tmp_path / "ledger.jsonl"
    rc = main(["verify", "--cases", "c", "--ledger", str(ledger)])
    assert rc == 1
    assert "VERIFY FAILURE" in capsys.readouterr().out
    (rec,) = RunLedger(ledger).read()
    assert rec.kind == "verify"
    assert rec.status == "failed"
    assert rec.counters["failures"] == 1
