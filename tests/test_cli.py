import json

import pytest

from conics92.cli import cli_main
from conics92.harness import gen_planted_instance, reduce_instance


def test_verify_writes_the_count(tmp_path):
    out = tmp_path / "verify.json"
    assert cli_main(["verify", "--seed", "42", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert (report["count"], report["rank"], report["signature"]) == (92, 92, 0)


def test_removed_tolerance_flag_is_a_usage_error():
    assert cli_main(["solve", "--tol-residual", "1e-9"]) == 2
    assert cli_main(["bruteforce", "--p", "5", "--lines", "x.json", "--agreement"]) == 2
    assert cli_main(["solve", "--chart", "1,2"]) == 2


def test_bruteforce_reads_an_instance_over_q_or_reduced_mod_p(tmp_path):
    planted = gen_planted_instance(42, ensure_prime=5)
    planted.save(tmp_path / "q.json")
    reduce_instance(planted, 5).save(tmp_path / "f5.json")
    outputs = []
    for name in ("q.json", "f5.json"):
        out = tmp_path / f"bf-{name}"
        assert cli_main(["bruteforce", "--p", "5", "--lines", str(tmp_path / name), "--out", str(out)]) == 0
        outputs.append(json.loads(out.read_text()))
    assert outputs[0] == outputs[1] and outputs[0]["count"] == 25


def test_gw_expressions(tmp_path):
    out = tmp_path / "gw.json"
    assert cli_main(["gw", "46*H", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert (data["rank"], data["signature"]) == (92, 0)
    assert cli_main(["gw", "<1>+<-1>", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert (data["rank"], data["signature"]) == (2, 0)


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_solve_and_verify_reject_an_instance_over_fp(command, tmp_path, capsys):
    # the tracker works over C: an F_5 instance raised TypeError in the solver
    path = tmp_path / "f5.json"
    reduce_instance(gen_planted_instance(42, ensure_prime=5), 5).save(path)
    assert cli_main([command, "--lines", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "F5" in err


@pytest.mark.parametrize("field", ["F1", "F2", "F9"])
def test_gw_rejects_a_field_that_is_not_an_odd_prime(field, capsys):
    assert cli_main(["gw", "<1>+H", "--field", field]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "expression, field",
    [("<1/3>", "F3"), ("<1/0>", "R"), ("<1>+", "R")],
)
def test_gw_rejects_a_zero_denominator_and_a_trailing_operator(expression, field, capsys):
    assert cli_main(["gw", expression, "--field", field]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def _seven_lines():
    data = gen_planted_instance(42, ensure_prime=5).to_json()
    return dict(data, lines=data["lines"][:7])


def _floats_over_f5():
    data = reduce_instance(gen_planted_instance(42, ensure_prime=5), 5).to_json()
    lines = [{key: [float(v) for v in ln[key]] for key in "ps"} for ln in data["lines"]]
    return dict(data, lines=lines)


def _line_without_s():
    data = gen_planted_instance(42, ensure_prime=5).to_json()
    return dict(data, lines=[{"p": ln["p"]} for ln in data["lines"]])


def _no_lines():
    return {"field": "Q"}


def _null_coordinate():
    data = gen_planted_instance(42, ensure_prime=5).to_json()
    data["lines"][3]["s"][1] = None
    return data


def _top_level_list():
    return gen_planted_instance(42, ensure_prime=5).to_json()["lines"]


def _numeric_field():
    return dict(gen_planted_instance(42, ensure_prime=5).to_json(), field=5)


def _null_field():
    return dict(gen_planted_instance(42, ensure_prime=5).to_json(), field=None)


def _list_meta():
    return dict(gen_planted_instance(42, ensure_prime=5).to_json(), meta=[1, 2])


@pytest.mark.parametrize(
    "malformed",
    [
        _seven_lines,
        _floats_over_f5,
        _line_without_s,
        _no_lines,
        _null_coordinate,
        _top_level_list,
        _numeric_field,
        _null_field,
        _list_meta,
    ],
)
def test_bruteforce_rejects_a_malformed_instance_file(malformed, tmp_path, capsys):
    # a clear error, where 7 lines over Q raised IndexError, floats under
    # the tag F5 AttributeError, a missing key KeyError, a null
    # coordinate, a top-level list or a non-string field TypeError and a
    # non-object meta AttributeError
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(malformed()))
    assert cli_main(["bruteforce", "--p", "5", "--lines", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
