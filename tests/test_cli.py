"""End-to-end CLI behavior: exit codes, files, determinism."""

import json

import pytest

from jsalg import acceptance, brackets, jordan, lieclass, report, schouten
from jsalg.cli import REPORT, SUITES, main
from jsalg.jordan import FAMILIES
from jsalg.report import MAX_WORKERS, resolve_workers


def run(*argv):
    return main(list(argv))


def assert_one_error_line(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_catalog_list(capsys):
    assert run("catalog", "list") == 0
    rows = capsys.readouterr().out.splitlines()[2:]
    assert [row.split()[0] for row in rows] == [tag for tag, _p, _b in FAMILIES]


VERIFY_FLAGS = sorted(set().union(*(flags for flags, _report in SUITES.values())))


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_each_suite_rejects_the_flags_it_does_not_read(suite, capsys):
    flags = SUITES[suite][0].keys() | REPORT.keys()
    unread = [f for f in VERIFY_FLAGS if f not in flags]
    assert unread
    for flag in unread:
        assert run("verify", suite, flag, "1") == 2, flag
        assert_one_error_line(capsys)


@pytest.mark.parametrize("argv", [(), ("verify",), ("verify", "nope"), ("catalog", "nope"),
                                  ("verify", "iso", "--family", "Dt"),
                                  ("verify", "simple", "--family", "Dt", "--t", "2",
                                   "--workers", "4"),
                                  ("build", "--family", "Dt", "--max-degree", "2")])
def test_parser_rejections_are_one_line(argv, capsys):
    assert run(*argv) == 2
    assert_one_error_line(capsys)


def test_verify_jordan_identity_exit_codes(capsys):
    assert run("verify", "jordan-identity", "--family", "Dt", "--t", "2") == 0
    assert run("verify", "jordan-identity", "--family", "Dt", "--t", "0") == 0
    assert run("verify", "simple", "--family", "Dt", "--t", "0") == 1
    assert run("verify", "simple", "--family", "Dt", "--t", "2") == 0
    capsys.readouterr()
    # bad family arguments are usage errors, not failed checks
    for argv in (("verify", "jordan-identity"),
                 ("build", "--family", "GLplus", "--m", "-1", "--n", "1"),
                 ("verify", "simple", "--family", "Dt", "--t", "1/0"),
                 ("verify", "jordan-identity", "--family", "JP", "--m", "1",
                  "--n", "1", "--deg", "-1"),
                 # the matrix families have an empty basis at dimension 0
                 ("verify", "jordan-identity", "--family", "GLplus", "--m", "0", "--n", "0"),
                 ("verify", "jordan-identity", "--family", "OSPplus", "--m", "0", "--n", "0"),
                 ("verify", "jordan-identity", "--family", "Pplus", "--n", "0"),
                 ("verify", "jordan-identity", "--family", "Qplus", "--n", "0")):
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


def test_negative_rational_t_parses(capsys):
    # argparse reads "-3/7" as an option unless it is glued to --t
    for argv in (("--t", "-3/7"), ("--t=-3/7",)):
        assert run("verify", "simple", "--family", "Dt", *argv, "--format", "json") == 0
        assert json.loads(capsys.readouterr().out)["params"]["algebra"] == "D_t(-3/7)"
    assert run("build", "--family", "Dt", "--t", "-1") == 0
    assert "D_t(-1)" in capsys.readouterr().out
    assert run("verify", "simple", "--family", "Dt", "--t", "-3/0") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_usage_errors(capsys):
    assert run("verify", "jordan-identity", "--family", "Nope") == 2
    assert run("verify", "short-gradings") == 2
    capsys.readouterr()


def test_build_takes_no_report_flags(capsys):
    # build prints a text summary only, so a --format flag would be ignored
    assert run("build", "--family", "Dt", "--t", "2", "--format", "json") == 2
    assert_one_error_line(capsys)


def test_short_gradings_cli(capsys):
    assert run("verify", "short-gradings", "--type", "sl", "--rank", "4") == 0
    assert run("verify", "short-gradings", "--type", "sl", "--rank", "2") == 0
    capsys.readouterr()
    # sl(1) is the zero algebra: a usage error, not a failed check
    assert run("verify", "short-gradings", "--type", "sl", "--rank", "1") == 2
    assert_one_error_line(capsys)
    # a negative rank is a usage error, not a failed check
    assert run("verify", "short-gradings", "--type", "sl", "--rank", "-1") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    # so(n) below n = 5 is outside the classical realizations
    assert run("verify", "short-gradings", "--type", "so", "--rank", "4") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    # a zero rank was given, so it is out of range, not missing
    assert run("verify", "short-gradings", "--type", "so", "--rank", "0") == 2
    assert capsys.readouterr().err == "error: --rank must be >= 1\n"
    assert run("verify", "short-gradings", "--type", "so") == 2
    assert capsys.readouterr().err == "error: short-gradings needs --type and --rank\n"


def test_bad_polynomial_parameters_are_usage_errors(capsys):
    for argv in (("bracket-jacobi", "--k", "-1", "--n", "1"),
                 ("bracket-kmc", "--kind", "k", "--k", "0", "--n", "-2"),
                 ("bracket-leibniz", "--k", "1", "--n", "1", "--deg", "-1"),
                 ("schouten", "--k", "-1", "--n", "2"),
                 ("hk-fragment", "--kind", "h", "--k", "0", "--n", "-1")):
        assert run("verify", *argv) == 2
        assert_one_error_line(capsys)


def test_size_flags_above_their_ceilings_are_usage_errors(capsys, monkeypatch):
    # every builder raises, so a value at its ceiling exits 3 at once and one
    # above it exits 2 before anything is built
    def refuse(*args, **kwargs):
        raise AssertionError("built")

    for owner, name in ((jordan, "build"), (brackets.BracketSpec, "h_type"),
                        (schouten, "pairing_h_pair"), (lieclass, "build_hk"),
                        (lieclass, "classical")):
        monkeypatch.setattr(owner, name, refuse)
    for argv, flag, hi in ((("verify", "bracket-jacobi"), "--deg", 8),
                           (("verify", "schouten"), "--k", 4),
                           (("build", "--family", "GLplus"), "--m", 8),
                           (("verify", "hk-fragment", "--k", "1"), "--n", 8),
                           (("verify", "short-gradings", "--type", "sl"), "--rank", 16)):
        assert run(*argv, flag, str(hi)) == 3
        assert "internal error: AssertionError: built" in capsys.readouterr().err
        assert run(*argv, flag, str(hi + 1)) == 2
        assert capsys.readouterr().err == (
            f"error: argument {flag}: must be an integer from 0 to {hi}, got '{hi + 1}'\n")


def test_t_is_a_plain_rational_of_at_most_32_characters(capsys, monkeypatch):
    # the builder raises, so an accepted --t exits 3 at once and a refused one
    # exits 2 before anything is built; Fraction alone would read 1e100000 as a
    # 100001-digit integer
    def refuse(*args, **kwargs):
        raise AssertionError("built")

    monkeypatch.setattr(jordan, "build", refuse)
    for t in ("2", "-3/7", "+4/6", "1/007", "0.5", "-.5", "1.", "9" * 32):
        assert run("verify", "simple", "--family", "Dt", f"--t={t}") == 3, t
        assert "internal error: AssertionError: built" in capsys.readouterr().err
    for t in ("1e100000", "1E3", "2.5e-1", "0x10", "1_000", " 2", "2 ", "nan", "inf",
              "1/2/3", "1/0", "-3/00", "", "9" * 33, "1" * 100000):
        assert run("verify", "simple", "--family", "Dt", f"--t={t}") == 2, t
        err = capsys.readouterr().err
        assert err.startswith("error: --t must be a rational number") and err.count("\n") == 1
        assert len(err) < 200


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


def test_import_rejects_malformed_files(tmp_path, capsys):
    basis = [{"label": "a", "parity": 0}, {"label": "b", "parity": 0}]
    for name, data in (
        ("c index out of range", {"basis": basis, "c": [[0, 0, 2, 1, 1]]}),
        ("zero denominator", {"basis": basis, "c": [[0, 0, 0, 1, 0]]}),
        ("top-level list", [basis]),
        ("outOfSpan pair out of range", {"basis": basis, "outOfSpan": [[0, 5]]}),
        ("fractional parity", {"basis": [{"label": "a", "parity": 1.5}]}),
        ("string parity", {"basis": [{"label": "a", "parity": "1"}]}),
        ("boolean parity", {"basis": [{"label": "a", "parity": True}]}),
        ("list label", {"basis": [{"label": ["x"], "parity": 0}]}),
        ("integer name", {"basis": basis, "name": 5}),
        ("duplicate labels", {"basis": [basis[0], basis[0]]}),
        ("no parity", {"basis": [basis[0], {"label": "b"}]}),
        ("no label", {"basis": [{"parity": 0}]}),
    ):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert run("import", "--in", str(path)) == 2, name
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, name


def test_import_counts_no_stored_zero(tmp_path, capsys):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"basis": [{"label": "a", "parity": 0}],
                                "c": [[0, 0, 0, 0, 1]]}))
    assert run("import", "--in", str(path)) == 0
    assert "0 nonzero products" in capsys.readouterr().out


def test_jck_export_import_roundtrip(tmp_path, capsys):
    path = tmp_path / "jck.json"
    assert run("export", "--family", "JCK", "--deg", "1", "--out", str(path)) == 0
    assert run("import", "--in", str(path)) == 0
    assert "dim (8|8)" in capsys.readouterr().out


def test_bad_worker_counts_are_usage_errors(capsys, monkeypatch):
    # rejected before any check runs, so no pool is started
    base = ("verify", "jordan-identity", "--family", "Dt", "--t", "2")
    for workers in ("0", "-3"):
        assert run(*base, "--workers", workers) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
    # so is a JSALG_WORKERS that is not an integer >= 1
    for env in ("abc", "-4", "0"):
        monkeypatch.setenv("JSALG_WORKERS", env)
        assert run(*base) == 2
        err = capsys.readouterr().err
        assert err == f"error: JSALG_WORKERS must be an integer >= 1, got '{env}'\n"
        with pytest.raises(ValueError, match="JSALG_WORKERS"):
            resolve_workers()
    # an explicit count wins over the variable
    assert run(*base, "--workers", "1") == 0


def test_worker_counts_above_the_ceiling_are_usage_errors(capsys, monkeypatch):
    # refused before any pool starts: here starting one raises
    def no_pool(*_):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(report, "get_context", no_pool)
    base = ("verify", "jordan-identity", "--family", "Dt", "--t", "2")
    assert run(*base, "--workers", "100000") == 2
    assert capsys.readouterr().err == f"error: workers must be at most {MAX_WORKERS}, got 100000\n"
    monkeypatch.setenv("JSALG_WORKERS", "100000")
    assert run(*base) == 2
    assert capsys.readouterr().err == (
        f"error: JSALG_WORKERS must be at most {MAX_WORKERS}, got '100000'\n")
    assert resolve_workers(MAX_WORKERS) == MAX_WORKERS
    with pytest.raises(ValueError, match="at most"):
        resolve_workers(MAX_WORKERS + 1)


def test_worker_count_does_not_change_bytes(tmp_path, capsys):
    a = tmp_path / "w1.json"
    b = tmp_path / "w2.json"
    jp = ["--family", "JP", "--m", "1", "--n", "1", "--deg", "2"]
    for base in (["verify", "bracket-jacobi", "--kind", "k", "--n", "2", "--deg", "2"],
                 ["verify", "relation10", *jp], ["verify", "jordan-identity", *jp]):
        assert run(*base, "--format", "json", "--workers", "1", "--out", str(a)) == 0
        assert run(*base, "--format", "json", "--workers", "2", "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes(), base
    capsys.readouterr()


def crashing_worker(args):
    raise RuntimeError("worker crashed")


@pytest.mark.parametrize("workers", ["1", "2"])
def test_an_internal_error_exits_3_with_one_line(workers, capsys, monkeypatch):
    # a crash is not a failed check (exit 1) and not a usage error (exit 2)
    from jsalg import jordan

    monkeypatch.setattr(jordan, "_relation10_scan", crashing_worker)
    assert run("verify", "relation10", "--family", "JP", "--m", "1", "--n", "1",
               "--deg", "2", "--workers", workers) == 3
    err = capsys.readouterr().err
    assert err == "internal error: RuntimeError: worker crashed\n"


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


def test_verify_semidirect_on_unital_j_is_a_usage_error(capsys):
    assert run("verify", "semidirect", "--family", "Dt", "--t", "2") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_tkk_on_nonunital_j_is_a_usage_error(capsys):
    # no unit means no canonical triple: a precondition, not a failed check
    assert run("verify", "tkk", "--family", "Kalg") == 2
    assert_one_error_line(capsys)


def test_verify_hk_fragment(capsys):
    assert run("verify", "hk-fragment", "--kind", "h", "--k", "0", "--n", "4") == 0
    capsys.readouterr()


@pytest.mark.parametrize("kind, k, deg", [("k", "0", "0"), ("k", "0", "1"),
                                          ("h", "1", "0"), ("h", "1", "1")])
def test_hk_fragment_below_degree_two_is_a_usage_error(kind, k, deg, capsys):
    # the triple's quadratic monomials leave a degree-<= 1 span
    assert run("verify", "hk-fragment", "--kind", kind, "--k", k, "--n", "3",
               "--deg", deg) == 2
    assert_one_error_line(capsys)


def test_verify_iso_suite(capsys):
    assert run("verify", "iso") == 0
    capsys.readouterr()


def test_verify_all_json_goes_to_stdout(tmp_path, capsys, monkeypatch):
    # two fast criteria stand in for the whole battery
    monkeypatch.setattr(acceptance, "CRITERIA",
                        [c for c in acceptance.CRITERIA if c[0][0] in "79"])
    assert run("verify", "all", "--format", "json") == 0
    captured = capsys.readouterr()
    reports = json.loads(captured.out)
    assert [r["suite"] for r in reports] == ["criterion-7-isomorphisms",
                                             "criterion-9-determinism"]
    assert [line.split(" (")[0] for line in captured.err.splitlines()] == [
        "[PASS] criterion 7 isomorphisms", "[PASS] criterion 9 determinism"]
    # --out keeps the lines on stdout and writes the same JSON to the file
    path = tmp_path / "battery.json"
    assert run("verify", "all", "--format", "json", "--out", str(path)) == 0
    captured = capsys.readouterr()
    assert json.loads(path.read_text()) == reports
    assert captured.out.count("[PASS]") == 2 and captured.err == ""
    # text output is the lines alone
    assert run("verify", "all") == 0
    captured = capsys.readouterr()
    assert captured.out.count("[PASS]") == 2 and "{" not in captured.out
