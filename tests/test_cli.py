from __future__ import annotations

import json
import time

import pytest

from cycleframe import cli, serialize
from cycleframe.arcs import Params, build_arcs


def run(argv):
    return cli.main(argv)


def test_build_writes_verified_json(tmp_path, capsys):
    out = tmp_path / "out.json"
    code = run(["build", "--lambda", "2", "--k", "4", "--u", "5", "--g", "2",
                "-o", str(out)])
    assert code == 0
    obj = json.loads(out.read_text())
    assert obj["params"] == {"lambda": 2, "k": 4, "u": 5, "g": 2}
    assert len(obj["factors"]) == 5
    assert len(obj["provenance"]) == 5
    assert all(isinstance(f["hole"], int) for f in obj["factors"])


def test_build_exit_codes(tmp_path, capsys):
    assert run(["build", "--lambda", "1", "--k", "4", "--u", "5", "--g", "4",
                "-o", str(tmp_path / "x.json")]) == 2
    assert "even" in capsys.readouterr().err
    assert run(["build", "--lambda", "2", "--k", "4", "--u", "8", "--g", "4",
                "-o", str(tmp_path / "x.json")]) == 3
    assert "(2s,4t,8)" in capsys.readouterr().err
    assert run(["build", "--lambda", "2", "--k", "6", "--u", "4", "--g", "2",
                "-o", str(tmp_path / "x.json")]) == 4
    assert not (tmp_path / "x.json").exists()


def test_verify_roundtrip_and_corruption(tmp_path, capsys):
    out = tmp_path / "out.json"
    assert run(["build", "--lambda", "2", "--k", "4", "--u", "5", "--g", "2",
                "-o", str(out)]) == 0
    assert run(["verify", str(out)]) == 0
    obj = json.loads(out.read_text())
    obj["factors"][0]["hole"] = (obj["factors"][0]["hole"] + 1) % 5
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    assert run(["verify", str(bad)]) == 6
    assert "FAIL" in capsys.readouterr().err
    mangled = tmp_path / "mangled.json"
    mangled.write_text("{ not json")
    assert run(["verify", str(mangled)]) == 1


def _claim(tmp_path, lam, k, u, g, factors):
    path = tmp_path / "claim.json"
    path.write_text(json.dumps({"params": {"lambda": lam, "k": k, "u": u, "g": g},
                                "factors": factors}))
    return str(path)


def test_verify_rejects_oversized_declaration_quickly(tmp_path, capsys):
    # the host would have about 5e19 edges; the factor count alone decides
    path = _claim(tmp_path, 2, 4, 100_000, 100_000, [])
    started = time.perf_counter()
    assert run(["verify", path]) == 6
    assert time.perf_counter() - started < 1.0
    assert "factor count mismatch" in capsys.readouterr().err


def test_verify_empty_cycle_is_unreadable(tmp_path, capsys):
    assert run(["verify", _claim(tmp_path, 2, 4, 5, 2, [{"hole": 0, "cycles": [[]]}])]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read decomposition") and "Traceback" not in err


def test_verify_single_slot_declaration_fails_verification(tmp_path, capsys):
    assert run(["verify", _claim(tmp_path, 2, 4, 5, 1, [])]) == 6
    assert "u >= 2 and g >= 2" in capsys.readouterr().err


def test_json_roundtrip_identity(tmp_path):
    p = Params(2, 4, 5, 3)
    dec = build_arcs(p)
    obj = serialize.decomposition_to_obj(dec, p)
    params2, dec2 = serialize.decomposition_from_obj(
        json.loads(serialize.canonical_json_bytes(obj)))
    assert params2 == p
    assert dec2.factors == dec.factors
    assert dec2.provenance == dec.provenance


def test_check_output_format(capsys):
    assert run(["check", "--lambda", "1", "--k", "4", "--u", "5", "--g", "3"]) == 0
    assert capsys.readouterr().out.strip() == "Feasible (case a)"
    assert run(["check", "--lambda", "2", "--k", "6", "--u", "3", "--g", "6"]) == 0
    assert capsys.readouterr().out.strip() == "Feasible (case d)"
    assert run(["check", "--lambda", "2", "--k", "4", "--u", "8", "--g", "4"]) == 3
    assert capsys.readouterr().out.strip() == "OpenException ((2s,4t,8))"
    assert run(["check", "--lambda", "2", "--k", "4", "--u", "2", "--g", "4"]) == 2


def test_table_small_grid(tmp_path):
    out = tmp_path / "grid.csv"
    code = run(["table", "--lambdas", "1,2", "--ks", "4", "--max-u", "6",
                "--max-g", "4", "-o", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "lambda,k,u,g,verdict,factors,millis"
    assert len(lines) == 1 + 2 * 1 * 4 * 3
    feasible = [ln for ln in lines[1:] if ",Feasible," in ln]
    assert feasible, "expected at least one feasible cell"
    for ln in feasible:
        assert ln.split(",")[5].isdigit()


def test_table_default_grid(tmp_path):
    out = tmp_path / "default.csv"
    assert run(["table", "-o", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 1 + 2 * 3 * 11 * 7
    assert any(",Feasible," in ln for ln in lines)
    assert not any("FAILED" in ln for ln in lines)


def test_table_empty_range(tmp_path, capsys):
    out = tmp_path / "empty.csv"
    assert run(["table", "--lambdas", "", "--ks", "4", "-o", str(out)]) == 0
    assert out.read_text().strip() == "lambda,k,u,g,verdict,factors,millis"


@pytest.mark.parametrize("flag, value", [("--ks", "5"), ("--lambdas", "0"), ("--ks", "x")])
def test_table_bad_grid_exits_one(tmp_path, capsys, flag, value):
    out = tmp_path / "grid.csv"
    assert run(["table", flag, value, "--max-u", "5", "--max-g", "3", "-o", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_bad_arguments_exit_one(tmp_path, capsys):
    assert run(["build", "--lambda", "1", "--k", "5", "--u", "5", "--g", "3",
                "-o", str(tmp_path / "x.json")]) == 1
    assert run(["check", "--lambda", "0", "--k", "4", "--u", "5", "--g", "3"]) == 1
    capsys.readouterr()


def test_build_no_verify_flag(tmp_path):
    out = tmp_path / "fast.json"
    assert run(["build", "--lambda", "2", "--k", "4", "--u", "5", "--g", "2",
                "--no-verify", "-o", str(out)]) == 0
    assert run(["verify", str(out)]) == 0


def test_construction_bug_surfaces(tmp_path, monkeypatch):
    from cycleframe.graphs import ConstructionBugError

    def sabotaged(p, verify=True):
        raise ConstructionBugError("injected fault", factor_index=0)

    monkeypatch.setattr(cli, "build_arcs", sabotaged)
    assert run(["build", "--lambda", "2", "--k", "4", "--u", "5", "--g", "2",
                "-o", str(tmp_path / "x.json")]) == 5

    out = tmp_path / "bad.csv"
    assert run(["table", "--lambdas", "2", "--ks", "4", "--max-u", "5",
                "--max-g", "2", "-o", str(out)]) == 5
    flagged = [ln for ln in out.read_text().splitlines() if "FAILED" in ln]
    assert flagged and flagged[0].startswith("2,4,5,2,Feasible")


def test_build_determinism_with_warm_cache(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["build", "--lambda", "2", "--k", "4", "--u", "9", "--g", "2",
                "-o", str(a)]) == 0
    assert run(["build", "--lambda", "2", "--k", "4", "--u", "9", "--g", "2",
                "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def _swap_two_vertices(entry):
    obj = json.loads(entry.read_text())
    cycle = obj["factors"][0]["cycles"][0]
    cycle[0], cycle[1] = cycle[1], cycle[0]
    entry.write_text(json.dumps(obj))


def _truncate(entry):
    data = entry.read_bytes()
    entry.write_bytes(data[:len(data) // 2])


@pytest.mark.parametrize("cell,family,corrupt", [
    ((2, 4, 9, 2), "near_cycle_ku2", _swap_two_vertices),
    ((2, 4, 9, 2), "near_cycle_ku2", lambda entry: entry.write_text("[]")),
    ((1, 4, 17, 3), "partial_one_factor", _truncate),
], ids=["swapped-vertices", "empty-list", "truncated-matchings"])
def test_corrupt_cache_entry_is_rebuilt(tmp_path, monkeypatch, cell, family, corrupt):
    cache = tmp_path / "cache"
    monkeypatch.setenv("CYCLEFRAME_CACHE", str(cache))
    argv = ["build"] + [x for flag, v in zip(("--lambda", "--k", "--u", "--g"), cell)
                        for x in (flag, str(v))]
    assert run(argv + ["-o", str(tmp_path / "first.json")]) == 0
    [entry] = cache.glob(f"{family}-*.json")
    good = entry.read_bytes()
    corrupt(entry)
    assert run(argv + ["-o", str(tmp_path / "second.json")]) == 0
    assert entry.read_bytes() == good
    assert (tmp_path / "second.json").read_bytes() == (tmp_path / "first.json").read_bytes()
