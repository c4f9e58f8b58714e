"""End-to-end command-line checks with golden outputs.

Each subcommand is exercised through main() with captured streams; the
DOT golden file freezes the documented dim-10 quadric run byte for byte.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from hopfmotives import catalog
from hopfmotives.algebra import GeneratorDecl, primitive_bialgebra
from hopfmotives.cli import main
from hopfmotives.comod import BasisComodule, comodule_to_dict

DATA = pathlib.Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_catalog_list_text(capsys):
    code, out, err = run(capsys, "catalog", "list")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert len(lines) == len(catalog.keys())
    assert lines[0].startswith("so5.mod2")
    assert "bialgebra" in lines[0]


def test_catalog_list_json(capsys):
    code, out, _ = run(capsys, "catalog", "list", "--format", "json")
    assert code == 0
    entries = json.loads(out)["entries"]
    assert [e["key"] for e in entries] == catalog.keys()
    kinds = {e["key"]: e["kind"] for e in entries}
    assert kinds["e7p7.mod2"] == "comodule"


def test_catalog_show_round_trips(capsys):
    from hopfmotives.algebra import bialgebra_from_dict

    code, out, _ = run(capsys, "catalog", "show", "e8.mod3",
                       "--format", "json")
    assert code == 0
    B = bialgebra_from_dict(json.loads(out))
    assert B == catalog.get("e8.mod3")


def test_catalog_show_text(capsys):
    code, out, _ = run(capsys, "catalog", "show", "so13.mod2")
    assert code == 0
    assert "key: so13.mod2" in out
    assert "rule: e_3^2 -> e_6" in out
    assert "generator e_1: degree 1, truncation 2, primitive" in out


def test_verify_catalog_key(capsys):
    code, out, err = run(capsys, "verify", "e8.mod2")
    assert (code, out, err) == (0, "pass\n", "")


def test_verify_file_round_trip(tmp_path, capsys):
    code, out, _ = run(capsys, "catalog", "show", "e8p8.mod3",
                       "--format", "json")
    path = tmp_path / "entry.json"
    path.write_text(out)
    code, out, err = run(capsys, "verify", str(path))
    assert (code, out) == (0, "pass\n")


def test_verify_reports_failures(tmp_path, capsys):
    code, out, _ = run(capsys, "catalog", "show", "e8.mod3",
                       "--format", "json")
    data = json.loads(out)
    data["coproducts"]["e_4"] = data["coproducts"]["e_4"][:1]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", str(path))
    assert code == 1
    assert out.startswith("fail")


def test_verify_checks_the_comodules_own_bialgebra(tmp_path, capsys):
    """Over F_2[t]/(t^3), t primitive, Delta(t^3) = t (x) t^2 + t^2 (x) t is
    not 0: the comodule laws hold, but H is no bialgebra."""
    H = primitive_bialgebra(2, (GeneratorDecl("t", 1, 3),))
    M = BasisComodule(H, ["a", "b"], {"a": 0, "b": 1},
                      {"a": [(1, (0,), "a")],
                       "b": [(1, (0,), "b"), (1, (1,), "a")]})
    path = tmp_path / "comodule.json"
    path.write_text(json.dumps(comodule_to_dict(M)))
    code, out, err = run(capsys, "verify", str(path))
    assert (code, err) == (1, "")
    assert out == ("fail:\n  coproduct does not respect t^3 -> 0 "
                   "(difference t⊗t^2 + t^2⊗t)\n")


def test_verify_json_format(capsys):
    code, out, _ = run(capsys, "verify", "k0.pgl3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True and payload["failures"] == []


def test_poincare_golden(capsys):
    code, out, err = run(capsys, "poincare", "e8.mod3", "--jtuple", "1,1")
    assert code == 0
    assert out == ("poincare: 1 + t^4 + t^8 + t^10 + t^14 + t^18 + t^20"
                   " + t^24 + t^28\nrank: 9\n")


def test_poincare_json_deterministic(capsys):
    code, first, _ = run(capsys, "poincare", "e7sc.mod2", "--jtuple", "1,1,1",
                         "--format", "json")
    code2, second, _ = run(capsys, "poincare", "e7sc.mod2", "--jtuple",
                           "1,1,1", "--format", "json")
    assert code == code2 == 0
    assert first == second
    assert json.loads(first)["rank"] == 8


def test_quotient_emits_a_loadable_bialgebra(capsys):
    from hopfmotives.algebra import bialgebra_from_dict

    code, out, _ = run(capsys, "quotient", "so13.mod2", "--jtuple", "1,0,0",
                       "--format", "json")
    assert code == 0
    B = bialgebra_from_dict(json.loads(out))
    assert B.dimension() == 2
    assert B.generators[0].name == "e_1"


def test_dual_text_and_alpha_shorthand(capsys):
    code, out, _ = run(capsys, "dual", "k2.e8.mod3.a1")
    assert code == 0
    assert out == "block 0: dim 1, label tate\nblock 1: dim 2, label dim:2\n" \
        "blocks: 2\n"
    code, out2, _ = run(capsys, "dual", "k2.e8.mod3", "--alpha", "1")
    assert code == 0 and out2 == out


def test_dual_with_quotient(capsys):
    code, out, _ = run(capsys, "dual", "e8.mod3", "--jtuple", "1,0",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["jtuple"] == [1, 0]
    assert sum(b["dim"] for b in payload["blocks"]) == 3


def test_quadric_blocks_text(capsys):
    code, out, _ = run(capsys, "quadric", "--n", "12", "--jset", "0,1,2,4,5",
                       "--extra-edges", str(DATA / "vishik_dim10.json"))
    assert code == 0
    assert out == ("block 0: 0 2 4 5 7 9\n"
                   "block 1: 1 3 5' 6 8 10\n"
                   "blocks: 2\n")


def test_quadric_dot_golden(capsys):
    code, out, err = run(capsys, "quadric", "--n", "12", "--jset",
                         "0,1,2,4,5", "--extra-edges",
                         str(DATA / "vishik_dim10.json"), "--dot")
    assert code == 0 and err == ""
    assert out == (DATA / "quadric12.dot").read_text()


def test_quadric_json(capsys):
    code, out, _ = run(capsys, "quadric", "--n", "7", "--jset", "none",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["jset"] == []
    assert payload["blocks"][0] == [0, 1, 2, 3, 4, 5]


def test_quadric_dot_json_carries_the_dot_source(capsys):
    argv = ("quadric", "--n", "12", "--jset", "0,1,2,4,5", "--extra-edges",
            str(DATA / "vishik_dim10.json"))
    _, dot, _ = run(capsys, *argv, "--dot")
    _, plain, _ = run(capsys, *argv, "--format", "json")
    code, out, err = run(capsys, *argv, "--dot", "--format", "json")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload.pop("dot") == dot
    assert payload == json.loads(plain)


def test_quadric_largest_ideal_beyond_the_basis_bound(capsys):
    code, out, _ = run(capsys, "quadric", "--n", "60", "--jset",
                       ",".join(map(str, range(30))))
    assert code == 0
    assert out.splitlines()[-1] == "blocks: 60"


def test_rpe_text(capsys):
    code, out, _ = run(capsys, "rpe", "e8p8.mod3", "--jtuple", "1,1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x_10^2*x_6^2 -> h^4"
    assert lines[-1] == "count: 22"


def test_rpe_empty(capsys):
    code, out, _ = run(capsys, "rpe", "e7p7.mod2", "--jtuple", "1,1,1",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["summands"] == []


def test_coinv_degree(capsys):
    code, out, _ = run(capsys, "coinv", "e7p7.mod2", "--degree", "9")
    assert code == 0
    assert out == "h^9\ncount: 1\n"


def test_coinv_restricted_count(capsys):
    code, out, _ = run(capsys, "coinv", "e7p7.mod2", "--jtuple", "1,0,0",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 32
    assert "h^12*x_5" in payload["coinvariants"]


def test_grouplikes_golden(capsys):
    code, out, _ = run(capsys, "grouplikes", "k0.pgl3")
    assert code == 0
    assert out == "1\n1 + x + x^2\n1 + 2*x\ncount: 3\n"


# -- failure modes -----------------------------------------------------------------

def test_unknown_key_is_a_usage_error(capsys):
    code, out, err = run(capsys, "poincare", "nope", "--jtuple", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: unknown catalog key")


def test_malformed_jtuple(capsys):
    code, _, err = run(capsys, "poincare", "e8.mod3", "--jtuple", "x,y")
    assert code == 2 and "--jtuple" in err


def test_wrong_object_kind(capsys):
    code, _, err = run(capsys, "dual", "e7p7.mod2")
    assert code == 2 and "needs a bialgebra" in err
    code, _, err = run(capsys, "rpe", "e8.mod3", "--jtuple", "1,1")
    assert code == 2 and "needs a comodule" in err


def test_non_bi_ideal_tuple_is_rejected(capsys):
    code, _, err = run(capsys, "quotient", "e8.mod2", "--jtuple", "3,2,1,0")
    assert code == 2 and "bi-ideal" in err


def test_bad_prime_fixture(capsys):
    code, _, err = run(capsys, "verify", str(DATA / "bad_prime.json"))
    assert code == 2
    assert "prime required" in err


def test_bad_rule_fixture_reports_the_rule_index(capsys):
    code, _, err = run(capsys, "verify", str(DATA / "bad_rule_degree.json"))
    assert code == 2
    assert "rule 0" in err and "degree" in err


def test_missing_file(capsys):
    code, _, err = run(capsys, "verify", "no/such/file.json")
    assert code == 2 and err.startswith("error:")


def test_invalid_jset(capsys):
    code, _, err = run(capsys, "quadric", "--n", "12", "--jset", "0,1")
    assert code == 2 and "1" in err


def test_bad_extra_edges_schema(tmp_path, capsys):
    path = tmp_path / "edges.json"
    path.write_text(json.dumps({"edges": [[1, 2, 3]]}))
    code, _, err = run(capsys, "quadric", "--n", "7", "--jset", "none",
                       "--extra-edges", str(path))
    assert code == 2 and "edges[0]" in err


def test_argparse_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["quotient", "e8.mod3"])      # --jtuple is required
    assert exc.value.code == 2
