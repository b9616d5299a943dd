import json

import pytest

from taumt import fixtures
from taumt.boundary import phi9_symbol
from taumt.cli import FAMILIES, FAMILY_FLAGS, main


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_tau_stream(capsys):
    code, out = run(capsys, "tau", "--n", "5")
    assert code == 0
    assert out.splitlines() == ["1", "-24", "252", "-1472", "4830"]


def test_tau_with_modulus(capsys):
    code, out = run(capsys, "tau", "--n", "3", "--mod", "7")
    assert code == 0
    assert out.splitlines() == ["1", "4", "0"]


def test_tau_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["tau", "--n", "0"])
    assert err.value.code == 2


def test_unknown_subcommand_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def test_mt_eis_level1(capsys):
    code, out = run(capsys, "mt", "--source", "eis", "--p", "5", "--n", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["lambda"] == 4
    assert payload["mu"] == 0
    assert payload["coeffs_group_basis"] == [3, 3, 3, 3, 3]
    assert payload["precision_ok"] is True
    assert payload["unit"] is None


def test_mt_phi9(capsys):
    code, out = run(capsys, "mt", "--source", "phi9", "--p", "3", "--n", "1", "--m", "2")
    assert code == 0
    payload = json.loads(out)
    assert all(c % 3 == 0 for c in payload["coeffs_group_basis"])
    assert payload["mu"] == 1 and payload["lambda"] == 1


def test_verify_rejects_unsupported_prime():
    for argv in (["verify", "B", "--p", "11"],
                 ["verify", "congmodsymb", "--p", "3"],
                 ["verify", "A", "--bound", "1"]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2


def test_mt_rejects_unsupported_prime():
    with pytest.raises(SystemExit) as err:
        main(["mt", "--source", "delta", "--p", "2", "--n", "1"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["mt", "--source", "phi9", "--p", "5", "--n", "1"])
    assert err.value.code == 2


@pytest.mark.parametrize("argv, message", [
    (["tau", "--n", "3", "--mod", "0"], "--mod must be at least 1"),
    (["tau", "--n", "3", "--mod", "-7"], "--mod must be at least 1"),
    (["mt", "--source", "eis", "--p", "9", "--a", "2", "--n", "1"], "needs a prime --p"),
    (["mt", "--source", "phi9", "--p", "3", "--n", "1", "--m", "3"], "--m at most 2"),
    # at --nmax 8 the D tower takes seconds, so a late check would show
    (["verify", "D", "--p", "5", "--nmax", "8"], "supports --p in {3}"),
    (["verify", "appendix", "--p", "5"], "does not take --p"),
    (["verify", "serre", "--p", "7", "--nmax", "3", "--bound", "100"], "does not take --p"),
    (["verify", "A", "--nmax", "9", "--bound", "50", "--p", "5"], "does not take --nmax"),
    (["verify", "congmodsymb", "--nmax", "4", "--samples", "5"], "does not take --nmax"),
    (["verify", "A", "--p", "5", "--p", "5", "--bound", "50"], "--p names the same prime twice"),
    (["verify", "congmodsymb", "--samples", "-3"], "--samples must be at least 1"),
    (["verify", "appendix", "--fixtures", "/nonexistent"], "is not a directory"),
    # a leading NAME=value sets that variable; {tmp} is an empty directory
    (["verify", "appendix", "--fixtures", "{tmp}"], "appendix_table1.csv"),
    (["TAUMT_FIXTURES=/nonexistent", "verify", "serre", "--bound", "50"],
     "no such file or directory: /nonexistent/serre_congruences.csv"),
    (["TAUMT_FIXTURES=/nonexistent", "mt", "--source", "phi9", "--p", "3", "--n", "1"],
     "no such file or directory: /nonexistent/phi9_orbits.csv"),
    (["tau", "--n", "5", "--out", "/nonexistent/x.txt"], "no such file or directory: /nonexistent/x.txt"),
    (["mt", "--source", "eis", "--p", "7", "--n", "12"], "level 7^12 is above"),
    (["mt", "--source", "eis", "--p", "7", "--n", "7"], "level 7^7 is above"),
    (["mt", "--source", "delta", "--p", "3", "--n", str(10**12)], "is above the largest supported level"),
    (["verify", "B", "--nmax", "6"], "level 7^6 is above"),
    (["verify", "C", "--p", "5", "--nmax", "7"], "level 5^7 is above"),
    (["verify", "D", "--nmax", "10"], "level 3^10 is above"),
])
def test_bad_input_is_a_one_line_usage_error(capsys, monkeypatch, tmp_path, argv, message):
    # cmd_verify exports --fixtures; setting the variable here lets
    # monkeypatch restore it afterwards (an empty value means unset)
    monkeypatch.setenv(fixtures.ENV_VAR, "")
    # the cached phi9 table would hide a missing fixture file
    monkeypatch.setattr("taumt.cli.phi9_symbol", phi9_symbol.__wrapped__)
    while "=" in argv[0]:
        name, value = argv[0].split("=", 1)
        monkeypatch.setenv(name, value)
        argv = argv[1:]
    argv = [str(tmp_path) if a == "{tmp}" else a for a in argv]
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].startswith("taumt: error: ")
    assert message in captured.err.splitlines()[-1]


@pytest.mark.parametrize("family, flag", [
    (family, flag) for family, (_, takes) in FAMILIES.items() for flag in FAMILY_FLAGS if flag not in takes
])
def test_verify_family_refuses_a_flag_it_does_not_take(capsys, monkeypatch, family, flag):
    def must_not_run(args):
        raise AssertionError(f"verify {family} ran despite --{flag}")

    monkeypatch.setitem(FAMILIES, family, (must_not_run, FAMILIES[family][1]))
    with pytest.raises(SystemExit) as err:
        main(["verify", family, f"--{flag}", "5"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == f"taumt: error: verify {family} does not take --{flag}"


@pytest.mark.parametrize("argv", [
    ["verify", "B", "--p", "5", "--nmax", "6"],
    ["verify", "C", "--p", "7", "--nmax", "5"],
    ["verify", "D", "--nmax", "9"],
])
def test_levels_up_to_the_bound_are_accepted(capsys, monkeypatch, argv):
    family = argv[1]
    monkeypatch.setitem(FAMILIES, family, (lambda args: ([], None), FAMILIES[family][1]))
    assert main(argv) == 0


def test_mt_csv_format(capsys):
    code, out = run(capsys, "mt", "--source", "eis", "--p", "5", "--n", "1", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "index,group_basis,T_basis"
    assert lines[1] == "0,3,0"
    assert lines[-1] == "lambda,4,"


def test_verify_serre_small(capsys):
    code, out = run(capsys, "verify", "serre", "--bound", "200")
    assert code == 0
    records = json.loads(out)
    assert len(records) == 3
    assert all(r["pass"] for r in records)


def test_verify_B_reports_lambda(capsys):
    code, out = run(capsys, "verify", "B", "--p", "7", "--nmax", "3")
    assert code == 0
    records = json.loads(out)
    assert [r["computed"][1] for r in records] == [6, 48, 342]


def test_theorem_B_closed_form(capsys):
    code, out = run(capsys, "verify", "B", "--nmax", "2")
    assert code == 0
    assert all(r["pass"] for r in json.loads(out))


def test_theorem_C_delta_route_and_transfer(capsys):
    code, out = run(capsys, "verify", "C", "--nmax", "1")
    assert code == 0
    assert all(r["pass"] for r in json.loads(out))


def test_theorem_D_both_routes(capsys):
    code, out = run(capsys, "verify", "D", "--nmax", "2")
    assert code == 0
    assert all(r["pass"] for r in json.loads(out))


def test_verify_congmodsymb_deterministic(capsys):
    _, first = run(capsys, "verify", "congmodsymb", "--samples", "50", "--seed", "3")
    _, second = run(capsys, "verify", "congmodsymb", "--samples", "50", "--seed", "3")
    assert first == second
    assert all(r["pass"] for r in json.loads(first))


def test_verify_appendix_csv_mirrors_the_table(capsys):
    import csv as csvmod
    import io as iomod
    from taumt import fixtures

    code, out = run(capsys, "verify", "appendix", "--format", "csv")
    assert code == 0
    rows = list(csvmod.reader(iomod.StringIO(out)))
    assert rows[0] == ["divisor", "alpha", "phi9"]
    fixture_rows = fixtures.load_table1()
    assert len(rows) - 1 == len(fixture_rows) == 55
    for (div, a, ph), (r, s, fa, fp) in zip(rows[1:], fixture_rows):
        assert div == f"{{{r}}} - {{{s}}}"
        assert int(a) == fa and int(ph) == fp


def test_verify_is_deterministic(capsys):
    _, first = run(capsys, "verify", "serre", "--bound", "100", "--format", "csv")
    _, second = run(capsys, "verify", "serre", "--bound", "100", "--format", "csv")
    assert first == second


def test_verify_failure_exits_1(capsys, tmp_path, monkeypatch):
    # a corrupted fixture table must drive the appendix check to exit 1
    import shutil
    from taumt import fixtures as fixmod
    from importlib import resources

    src = resources.files("taumt").joinpath("fixtures")
    for name in ("appendix_table1.csv", "phi9_orbits.csv"):
        shutil.copy(str(src.joinpath(name)), tmp_path / name)
    rows = (tmp_path / "appendix_table1.csv").read_text().splitlines()
    rows[-1] = rows[-1].rsplit(",", 1)[0] + ",4"  # phi9 column of the last row
    (tmp_path / "appendix_table1.csv").write_text("\n".join(rows) + "\n")
    monkeypatch.setenv(fixmod.ENV_VAR, str(tmp_path))
    code = main(["verify", "appendix"])
    assert code == 1


def test_out_file(capsys, tmp_path):
    target = tmp_path / "tau.txt"
    code, out = run(capsys, "tau", "--n", "2", "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text() == "1\n-24\n"
