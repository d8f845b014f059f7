"""End-to-end CLI behavior: exit codes, files, determinism."""

import json
import os

from jsalg.cli import main


def run(*argv):
    return main(list(argv))


def test_catalog_list(capsys):
    assert run("catalog", "list") == 0
    assert "GLplus" in capsys.readouterr().out


def test_verify_jordan_identity_exit_codes(capsys):
    assert run("verify", "jordan-identity", "--family", "Dt", "--t", "2") == 0
    assert run("verify", "jordan-identity", "--family", "Dt", "--t", "0") == 0
    assert run("verify", "simple", "--family", "Dt", "--t", "0") == 1
    assert run("verify", "simple", "--family", "Dt", "--t", "2") == 0
    capsys.readouterr()
    # bad family arguments are usage errors, not failed checks
    for argv in (("verify", "jordan-identity"),
                 ("build", "--family", "GLplus", "--m", "-1", "--n", "1"),
                 ("verify", "simple", "--family", "Dt", "--t", "1/0")):
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


def test_usage_errors(capsys):
    assert run("verify", "jordan-identity", "--family", "Nope") == 2
    assert run("verify", "short-gradings") == 2
    capsys.readouterr()


def test_short_gradings_cli(capsys):
    assert run("verify", "short-gradings", "--type", "sl", "--rank", "4") == 0
    # sl(1) has no candidate vertex: an empty report must not pass
    assert run("verify", "short-gradings", "--type", "sl", "--rank", "1") == 1
    capsys.readouterr()


def test_export_import_roundtrip(tmp_path, capsys):
    path = tmp_path / "falg.json"
    assert run("export", "--family", "Falg", "--out", str(path)) == 0
    assert run("import", "--in", str(path)) == 0
    out = capsys.readouterr().out
    assert "dim (6|4)" in out
    # byte-stable across repeated exports
    first = path.read_bytes()
    assert run("export", "--family", "Falg", "--out", str(path)) == 0
    assert path.read_bytes() == first
    # kalg has exactly 3 basis entries
    kp = tmp_path / "k.json"
    assert run("export", "--family", "Kalg", "--out", str(kp)) == 0
    assert len(json.loads(kp.read_text())["basis"]) == 3


def test_import_rejects_bad_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "basis": [{"label": "a", "parity": 0}, {"label": "x", "parity": 1}],
        "c": [[0, 0, 1, 1, 1]],
    }))
    assert run("import", "--in", str(path)) == 2
    capsys.readouterr()


def test_jck_export_is_a_usage_error(capsys):
    assert run("export", "--family", "JCK", "--deg", "1",
               "--out", os.devnull) == 2
    capsys.readouterr()


def test_worker_count_does_not_change_bytes(tmp_path, capsys):
    a = tmp_path / "w1.json"
    b = tmp_path / "w2.json"
    base = ["verify", "bracket-jacobi", "--kind", "k", "--n", "2",
            "--deg", "2", "--format", "json"]
    assert run(*base, "--workers", "1", "--out", str(a)) == 0
    assert run(*base, "--workers", "2", "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()
    capsys.readouterr()


def test_env_worker_fallback(tmp_path, capsys, monkeypatch):
    a = tmp_path / "env.json"
    monkeypatch.setenv("JSALG_WORKERS", "2")
    base = ["verify", "bracket-jacobi", "--kind", "h", "--k", "1",
            "--deg", "2", "--format", "json"]
    assert run(*base, "--out", str(a)) == 0
    monkeypatch.delenv("JSALG_WORKERS")
    b = tmp_path / "one.json"
    assert run(*base, "--workers", "1", "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()
    capsys.readouterr()


def test_tkk_emit_and_reimport(tmp_path, capsys):
    path = tmp_path / "lie.json"
    assert run("tkk", "--family", "Dt", "--t", "2", "--out", str(path)) == 0
    data = json.loads(path.read_text())
    assert "grading" in data and len(data["grading"]) == len(data["basis"])
    assert sorted(set(data["grading"])) == [-1, 0, 1]
    # the structure constants re-import as a valid table
    assert run("import", "--in", str(path)) == 0
    capsys.readouterr()


def test_verify_tkk_suite(capsys):
    assert run("verify", "tkk", "--family", "Dt", "--t", "2") == 0
    capsys.readouterr()


def test_verify_semidirect_kalg(capsys):
    assert run("verify", "semidirect", "--family", "Kalg") == 0
    capsys.readouterr()


def test_verify_hk_fragment(capsys):
    assert run("verify", "hk-fragment", "--kind", "h", "--k", "0", "--n", "4") == 0
    capsys.readouterr()


def test_verify_iso_suite(capsys):
    assert run("verify", "iso") == 0
    capsys.readouterr()
