import gc
import json
import subprocess
import sys
import warnings

from posetforge import SizeLimitExceeded, antichain_ideal_poset, poset_from_dict
from posetforge.checks import check_defaults
from posetforge.cli import _read_poset, main, to_dot

TINY = {"a": 1, "b": 1, "n": 1, "m": 0, "max_size": 2}

BOWTIE = {
    "elements": ["a", "b", "c", "d", "e"],
    "relations": [["a", "c"], ["b", "c"], ["c", "d"], ["c", "e"]],
}


def run_main(argv, stdin_text="", monkeypatch=None, capsys=None):
    import io

    if monkeypatch is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_build_roundtrip_is_canonical(monkeypatch, capsys):
    code, out, _ = run_main(["build"], json.dumps(BOWTIE), monkeypatch, capsys)
    assert code == 0
    first = json.loads(out)
    code, out, _ = run_main(["build"], json.dumps(first), monkeypatch, capsys)
    assert code == 0
    assert json.loads(out) == first
    assert poset_from_dict(first).covers() == [
        ("a", "c"),
        ("b", "c"),
        ("c", "d"),
        ("c", "e"),
    ]


def test_build_malformed_json_exits_2(monkeypatch, capsys):
    code, _, err = run_main(["build"], "{not json", monkeypatch, capsys)
    assert code == 2
    assert "stdin:1:" in err


def test_build_semantic_error_exits_2(monkeypatch, capsys):
    bad = {"elements": ["a"], "relations": [["a", "z"]]}
    code, _, err = run_main(["build"], json.dumps(bad), monkeypatch, capsys)
    assert code == 2
    assert "z" in err


def test_minuscule_grid(capsys):
    code = main(["minuscule", "grid", "2", "2"])
    out, _ = capsys.readouterr()
    assert code == 0
    data = json.loads(out)
    assert len(data["elements"]) == 4


def test_minuscule_e7(capsys):
    code = main(["minuscule", "e7"])
    out, _ = capsys.readouterr()
    assert code == 0 and len(json.loads(out)["elements"]) == 27


def test_minuscule_bad_params(capsys):
    assert main(["minuscule", "grid", "2"]) == 2


def test_ak_orders_differ_on_bowtie(monkeypatch, capsys):
    code, out, _ = run_main(
        ["ak", "2", "--order", "k"], json.dumps(BOWTIE), monkeypatch, capsys
    )
    assert code == 0
    assert json.loads(out)["relations"] == []
    code, out, _ = run_main(
        ["ak", "2", "--order", "j"], json.dumps(BOWTIE), monkeypatch, capsys
    )
    assert code == 0
    assert json.loads(out)["relations"] == [["{a,b}", "{d,e}"]]


def test_ak_negative_size_is_a_usage_error(monkeypatch, capsys):
    for order in ("k", "j"):
        code, out, err = run_main(
            ["ak", "-1", "--order", order], json.dumps(BOWTIE), monkeypatch, capsys
        )
        assert code == 2 and out == ""
        assert "-1" in err
        # the empty antichain is the one antichain of size 0
        code, out, _ = run_main(
            ["ak", "0", "--order", order], json.dumps(BOWTIE), monkeypatch, capsys
        )
        assert code == 0
        assert json.loads(out) == {"elements": ["{}"], "relations": []}


def test_check_lattice_verdicts(monkeypatch, capsys):
    chain = {"elements": ["1", "2"], "relations": [["1", "2"]]}
    code, out, _ = run_main(["check", "lattice"], json.dumps(chain), monkeypatch, capsys)
    assert code == 0 and "yes" in out
    two = {"elements": ["1", "2"], "relations": []}
    code, out, _ = run_main(["check", "lattice"], json.dumps(two), monkeypatch, capsys)
    assert code == 1 and "no" in out


def test_check_lattice_json_emits_tables(monkeypatch, capsys):
    chain = {"elements": ["1", "2"], "relations": [["1", "2"]]}
    code, out, _ = run_main(
        ["check", "lattice", "--json"], json.dumps(chain), monkeypatch, capsys
    )
    assert code == 0
    data = json.loads(out)
    assert data["meet"] == [["1", "1"], ["1", "2"]]
    assert data["join"] == [["1", "2"], ["2", "2"]]
    two = {"elements": ["1", "2"], "relations": []}
    code, out, _ = run_main(
        ["check", "lattice", "--json"], json.dumps(two), monkeypatch, capsys
    )
    assert code == 1
    data = json.loads(out)
    assert data["meet"][0][1] is None
    assert data["missing_bound_for"] == ["1", "2"]


def test_check_distributive_json_certificate(monkeypatch, capsys):
    chain = {"elements": ["1", "2", "3"], "relations": [["1", "2"], ["2", "3"]]}
    code, out, _ = run_main(
        ["check", "distributive", "--json"], json.dumps(chain), monkeypatch, capsys
    )
    assert code == 0
    data = json.loads(out)
    assert data["distributive"] and "witness" in data


def test_check_distributive_json_counterexample(monkeypatch, capsys):
    diamond = {
        "elements": ["0", "a", "b", "c", "1"],
        "relations": [["0", "a"], ["0", "b"], ["0", "c"], ["a", "1"], ["b", "1"], ["c", "1"]],
    }
    code, out, _ = run_main(
        ["check", "distributive", "--json"], json.dumps(diamond), monkeypatch, capsys
    )
    assert code == 1
    data = json.loads(out)
    assert not data["distributive"] and data["is_lattice"]
    assert "triple" in data["failure"]


def test_iso_command(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps({"elements": ["x", "y"], "relations": [["x", "y"]]}))
    b.write_text(json.dumps({"elements": ["u", "v"], "relations": [["v", "u"]]}))
    code = main(["iso", str(a), str(b)])
    out, _ = capsys.readouterr()
    assert code == 0
    assert "x -> v" in out and "y -> u" in out
    c = tmp_path / "c.json"
    c.write_text(json.dumps({"elements": ["u", "v"], "relations": []}))
    assert main(["iso", str(a), str(c)]) == 1


def test_read_poset_closes_the_file(tmp_path):
    path = tmp_path / "bowtie.json"
    path.write_text(json.dumps(BOWTIE))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        P = _read_poset(str(path))
        gc.collect()
    assert P.n == 5
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_size_cap_exits_3(tmp_path, capsys):
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"elements": [f"e{i}" for i in range(201)], "relations": []}))
    assert main(["iso", str(big), str(big)]) == 3
    assert "capped at 200" in capsys.readouterr()[1]


def test_durfee_command(capsys):
    assert main(["durfee", "3,2,1"]) == 0
    out, _ = capsys.readouterr()
    assert out.strip() == "2"
    assert main(["durfee", "3,2,1", "--json"]) == 0
    out, _ = capsys.readouterr()
    data = json.loads(out)
    assert data["durfee"] == 2
    assert data["above_square"] == ["(1,1)"]
    assert data["right_of_square"] == ["(1,1)"]


def test_durfee_json_is_pinned(capsys):
    # pinned byte for byte, point labels sorted as strings
    pinned = {
        "4,3,1": {
            "heights": [4, 3, 1],
            "durfee": 2,
            "above_square": ["(1,1)"],
            "right_of_square": ["(1,1)", "(1,2)", "(2,1)"],
        },
        "3,3,3": {"heights": [3, 3, 3], "durfee": 3, "above_square": [], "right_of_square": []},
        "": {"heights": [], "durfee": 0, "above_square": [], "right_of_square": []},
    }
    for partition, expected in pinned.items():
        assert main(["durfee", partition, "--json"]) == 0
        out, _ = capsys.readouterr()
        assert out == json.dumps(expected, indent=2) + "\n", partition


def test_durfee_rejects_rubbish(capsys):
    assert main(["durfee", "3,x,1"]) == 2


def test_narayana_command(capsys):
    assert main(["narayana", "3"]) == 0
    out, _ = capsys.readouterr()
    assert out.strip() == "1 3 1"


def test_star_command(capsys):
    assert main(["star", "3", "[1,2]"]) == 0
    out, _ = capsys.readouterr()
    assert out.strip() == "[2,3]"
    assert main(["star", "3", "[1,2],[2,3]"]) == 0
    out, _ = capsys.readouterr()
    assert out.strip() == "{}"
    assert main(["star", "3", ""]) == 0
    out, _ = capsys.readouterr()
    assert out.strip() == "[1,2],[2,3]"


def test_export_dot(monkeypatch, capsys):
    code, out, _ = run_main(["export-dot"], json.dumps(BOWTIE), monkeypatch, capsys)
    assert code == 0
    assert "rankdir=BT" in out
    assert '"a" -> "c";' in out
    assert "rank=same" in out


def test_ak_piped_into_export_dot(monkeypatch, capsys):
    code, order, _ = run_main(["ak", "2", "--order", "j"], json.dumps(BOWTIE), monkeypatch, capsys)
    assert code == 0
    code, out, _ = run_main(["export-dot"], order, monkeypatch, capsys)
    assert code == 0
    assert out.startswith("digraph poset {")
    assert '"{a,b}" -> "{d,e}";' in out
    # the JSON between the stages keeps labels and covers, so the DOT is that of the order itself
    assert out == to_dot(antichain_ideal_poset(poset_from_dict(BOWTIE), 2))


def test_to_dot_escapes_quotes():
    from posetforge import build_poset

    P = build_poset(['say "hi"'], [])
    assert '\\"hi\\"' in to_dot(P)


def test_verify_single_check(capsys):
    code = main(["verify", "five-element-example"])
    out, _ = capsys.readouterr()
    assert code == 0
    assert "pass" in out and "1/1 checks passed" in out


def test_verify_unknown_check(capsys):
    assert main(["verify", "does-not-exist"]) == 2


def test_verify_bad_param(capsys):
    assert main(["verify", "gale-rank-covers", "--param", "bogus=1"]) == 2
    assert main(["verify", "gale-rank-covers", "--param", "n=zz"]) == 2


def test_verify_all_rejects_param_no_check_takes(capsys):
    assert main(["verify", "all", "--param", "max_sise=8", "--param", "n=1"]) == 2
    err = capsys.readouterr().err
    assert "'max_sise'" in err and "'n'" not in err
    # each known key reaches only the checks that take it
    assert main(["verify", "all", "--json", *[f"--param={k}={v}" for k, v in TINY.items()]]) == 0
    reports = json.loads(capsys.readouterr().out)
    assert len(reports) == 20 and all(r["verdict"] == "pass" for r in reports)
    for r in reports:
        defaults = check_defaults(r["check_id"])
        assert r["parameters"] == {**defaults, **{k: v for k, v in TINY.items() if k in defaults}}


def test_verify_json_reports_parameters(capsys):
    code = main(["verify", "gale-rank-covers", "--param", "n=3", "--json"])
    out, _ = capsys.readouterr()
    assert code == 0
    reports = json.loads(out)
    assert reports[0]["parameters"] == {"n": 3}
    assert reports[0]["verdict"] == "pass"


def test_verify_list(capsys):
    code = main(["verify", "all", "--list"])
    out, _ = capsys.readouterr()
    assert code == 0
    assert "e7-self-map" in out


def test_caps_come_only_from_param(monkeypatch, capsys):
    # the retired POSETFORGE_CAPS variable is read by nothing
    monkeypatch.setenv("POSETFORGE_CAPS", "n=3,bogus~")
    assert main(["verify", "gale-rank-covers", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)[0]["parameters"] == check_defaults("gale-rank-covers")


def test_self_identification_workflow(tmp_path):
    env_cmd = [sys.executable, "-m", "posetforge"]
    base = subprocess.run(env_cmd + ["minuscule", "e7"], capture_output=True, text=True)
    assert base.returncode == 0
    antichains = subprocess.run(
        env_cmd + ["ak", "2"], input=base.stdout, capture_output=True, text=True
    )
    assert antichains.returncode == 0
    a = tmp_path / "base.json"
    b = tmp_path / "antichains.json"
    a.write_text(base.stdout)
    b.write_text(antichains.stdout)
    witness = subprocess.run(
        env_cmd + ["iso", str(a), str(b), "--json"], capture_output=True, text=True
    )
    assert witness.returncode == 0
    data = json.loads(witness.stdout)
    assert data["isomorphic"] and len(data["forward"]) == 27


def test_pipeline_through_real_processes():
    env_cmd = [sys.executable, "-m", "posetforge"]
    p1 = subprocess.run(
        env_cmd + ["minuscule", "grid", "3", "3"], capture_output=True, text=True
    )
    assert p1.returncode == 0
    p2 = subprocess.run(
        env_cmd + ["ak", "2", "--order", "k"],
        input=p1.stdout,
        capture_output=True,
        text=True,
    )
    assert p2.returncode == 0
    p3 = subprocess.run(
        env_cmd + ["check", "distributive"],
        input=p2.stdout,
        capture_output=True,
        text=True,
    )
    assert p3.returncode == 0, p3.stdout + p3.stderr
    assert "yes" in p3.stdout


NUMPY_FREE_SCRIPT = """
import contextlib, io, json, pathlib, sys
from posetforge.cli import main

tmp = pathlib.Path(sys.argv[1])


def run(*argv, stdin="", expect=0):
    sys.stdin, out = io.StringIO(stdin), io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    assert code == expect, (argv, code)
    return out.getvalue()


pentagon = '{"elements": ["0", "a", "c", "b", "1"], '
pentagon += '"relations": [["0", "a"], ["a", "c"], ["c", "1"], ["0", "b"], ["b", "1"]]}'
two_tops = '{"elements": ["0", "a", "b"], "relations": [["0", "a"], ["0", "b"]]}'


grid = run("minuscule", "grid", "5", "5")
e7 = run("minuscule", "e7")
exchange = run("ak", "2", stdin=grid)
assert run("check", "distributive", stdin=exchange).split() == ["distributive:", "yes"]
(tmp / "e7.json").write_text(e7)
(tmp / "e7k2.json").write_text(run("ak", "2", stdin=e7))
assert run("iso", str(tmp / "e7.json"), str(tmp / "e7k2.json"))
assert run("build", str(tmp / "e7.json")) == e7
assert run("export-dot", str(tmp / "e7.json")).startswith("digraph")
assert len(json.loads(run("verify", "all", "--json"))) == 20
assert json.loads(run("check", "lattice", "--json", stdin=two_tops, expect=1))["missing_bound_for"]
assert run("check", "distributive", stdin=pentagon, expect=1).split() == ["distributive:", "no"]
print("numpy" in sys.modules)
"""


def test_pipeline_commands_never_import_numpy(tmp_path):
    done = subprocess.run(
        [sys.executable, "-c", NUMPY_FREE_SCRIPT, str(tmp_path)], capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]


def test_verify_all_reports_every_check_when_one_hits_a_cap(capsys, raise_in_check):
    tiny = [f"--param={k}={v}" for k, v in TINY.items()]
    raise_in_check("durfee-product", SizeLimitExceeded("capped at 200"))
    assert main(["verify", "all", *tiny]) == 3
    out, _ = capsys.readouterr()
    lines = out.splitlines()
    assert len(lines) == 21 and lines[-1] == "19/20 checks passed"
    assert [l.split()[0] for l in lines[:-1]].count("pass") == 19
    assert "SizeLimitExceeded: capped at 200" in out
    assert main(["verify", "all", "--json", *tiny]) == 3
    reports = json.loads(capsys.readouterr()[0])
    errors = [r for r in reports if "error" in r]
    assert len(reports) == 20 and [r["verdict"] for r in errors] == ["error"]
    assert errors[0]["error"]["type"] == "SizeLimitExceeded"


def test_verify_exit_codes_for_check_errors(capsys, raise_in_check):
    raise_in_check("five-element-example", SizeLimitExceeded("capped"))
    assert main(["verify", "five-element-example"]) == 3
    raise_in_check("five-element-example", ValueError("broken"))
    assert main(["verify", "five-element-example"]) == 1
    assert "error  five-element-example" in capsys.readouterr()[0]
    # usage errors keep exit code 2
    assert main(["verify", "five-element-example", "--param", "n=1"]) == 2


def test_key_value_errors_name_their_source(capsys):
    assert main(["verify", "gale-rank-covers", "--param", "n~3"]) == 2
    assert "--param" in capsys.readouterr().err
    assert main(["verify", "gale-rank-covers", "--param", "n=zz"]) == 2
    assert "--param" in capsys.readouterr().err
