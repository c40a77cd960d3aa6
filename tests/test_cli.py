from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import cycleframe
from cycleframe import arcs, cli, serialize
from cycleframe.arcs import Params, build_arcs
from cycleframe.verify import verify_arcs


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


def test_build_to_stdout_writes_only_the_json(tmp_path):
    env = dict(os.environ, CYCLEFRAME_CACHE=str(tmp_path / "cache"),
               PYTHONPATH=str(Path(cycleframe.__file__).resolve().parents[1]))
    argv = [sys.executable, "-m", "cycleframe.cli", "build",
            "--lambda", "2", "--k", "4", "--u", "5", "--g", "2"]
    proc = subprocess.run(argv, env=env, timeout=60, check=True, capture_output=True)
    params, dec = serialize.decomposition_from_obj(json.loads(proc.stdout))
    assert params == Params(2, 4, 5, 2)
    assert verify_arcs(dec, params)
    assert proc.stderr.decode().startswith("built 5 partial factors")


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


def _float_slot(obj):
    vertex = obj["factors"][0]["cycles"][0][0]
    vertex[1] = float(vertex[1])


def _bool_hole(obj):
    factor = next(f for f in obj["factors"] if f["hole"] == 1)
    factor["hole"] = True


def _str_lambda(obj):
    obj["params"]["lambda"] = str(obj["params"]["lambda"])


@pytest.mark.parametrize("edit", [_float_slot, _bool_hole, _str_lambda],
                         ids=["float-slot", "bool-hole", "str-lambda"])
def test_verify_rejects_non_integer_values(tmp_path, capsys, edit):
    # each edit keeps the value int() would give, so only the type is wrong
    out = tmp_path / "out.json"
    assert run(["build", "--lambda", "2", "--k", "4", "--u", "5", "--g", "2",
                "-o", str(out)]) == 0
    obj = json.loads(out.read_text())
    edit(obj)
    out.write_text(json.dumps(obj))
    capsys.readouterr()
    assert run(["verify", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot read decomposition") and "OK" not in captured.out


@pytest.fixture(scope="module")
def doc_2453():
    p = Params(2, 4, 5, 3)
    return serialize.canonical_json_bytes(serialize.decomposition_to_obj(build_arcs(p), p))


def _at_vertex(i, value):
    def edit(obj):
        cycle = obj["factors"][7]["cycles"][2]
        if i is None:
            cycle[3] = value
        else:
            cycle[3][i] = value
    return edit


def _empty_cycle_later(obj):
    obj["factors"][9]["cycles"].append([])


@pytest.mark.parametrize("edit, message", [
    (_at_vertex(0, True), "expected a vertex of two integers, got [True, 1]"),
    (_at_vertex(1, None), "expected a vertex of two integers, got [3, None]"),
    (_at_vertex(1, "1"), "expected a vertex of two integers, got [3, '1']"),
    (_at_vertex(0, 1.0), "expected a vertex of two integers, got [1.0, 1]"),
    (_at_vertex(None, [1, 1, 1]), "too many values to unpack (expected 2)"),
    (_at_vertex(None, 1), "cannot unpack non-iterable int object"),
    (_empty_cycle_later, "empty cycle"),
], ids=["bool-part", "null-slot", "str-slot", "float-part", "three-coordinates",
        "bare-int", "empty-cycle"])
def test_verify_refuses_a_bad_vertex_deep_in_the_file(tmp_path, capsys, doc_2453, edit,
                                                        message):
    # factor 7, cycle 2, vertex 3 of the (2,4,5,3) file is (1, 1); factor 9 is the last
    obj = json.loads(doc_2453)
    edit(obj)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(obj))
    assert run(["verify", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: cannot read decomposition: {message}\n"
    assert captured.out == ""


def test_verify_accepts_cycles_in_any_rotation_and_order(tmp_path, capsys, doc_2453):
    obj = json.loads(doc_2453)
    for factor in obj["factors"]:
        factor["cycles"] = [cyc[1:] + cyc[:1] for cyc in reversed(factor["cycles"])]
    path = tmp_path / "rotated.json"
    path.write_text(json.dumps(obj))
    assert run(["verify", str(path)]) == 0
    obj["factors"][0]["hole"] = (obj["factors"][0]["hole"] + 1) % 5
    path.write_text(json.dumps(obj))
    assert run(["verify", str(path)]) == 6
    assert "per-hole count mismatch" in capsys.readouterr().err


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


def test_verify_deeply_nested_json_is_unreadable(tmp_path, capsys):
    path = tmp_path / "nested.json"
    path.write_text('{"params": {"lambda": 2, "k": 4, "u": 5, "g": 2}, "factors": '
                    + "[" * 100_000)
    assert run(["verify", str(path)]) == 1
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
    ((2, 4, 9, 2), "near_cycle_ku2", lambda entry: entry.write_text("[" * 100_000)),
    ((2, 4, 9, 2), "near_cycle_ku2", _truncate),
], ids=["swapped-vertices", "empty-list", "deeply-nested", "truncated"])
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


@pytest.mark.parametrize("cell", [(2, 6, 31, 8), (2, 10, 31, 13), (2, 4, 29, 2),
                                  (3, 4, 29, 3), (2, 8, 12, 24), (2, 16, 33, 4),
                                  (2, 4, 49, 2), (1, 4, 49, 3), (2, 6, 48, 6),
                                  (2, 8, 4, 80)],
                         ids=lambda cell: "-".join(map(str, cell)))
def test_formerly_stalled_cell_builds_cold_in_bounded_time(tmp_path, cell):
    # Searching the doubled complete blocks or the linking matchings of these
    # cells takes minutes; the timeout turns a fall back to a search into a
    # failure, not a stall.
    env = dict(os.environ, CYCLEFRAME_CACHE=str(tmp_path / "cache"),
               PYTHONPATH=str(Path(cycleframe.__file__).resolve().parents[1]))
    out = tmp_path / "out.json"
    argv = [sys.executable, "-m", "cycleframe.cli", "build", "-o", str(out)]
    argv += [x for flag, v in zip(("--lambda", "--k", "--u", "--g"), cell) for x in (flag, str(v))]
    subprocess.run(argv, env=env, timeout=10, check=True, capture_output=True)
    params, dec = serialize.decomposition_from_obj(json.loads(out.read_text()))
    assert params == Params(*cell)
    assert verify_arcs(dec, params)


@pytest.mark.parametrize("cell", [(2, 14, 4, 28), (2, 18, 4, 36)],
                         ids=lambda cell: "-".join(map(str, cell)))
def test_case_f_with_k_2_mod_4_is_unsupported(tmp_path, capsys, cell):
    # K_{k,k} has no implemented C_k-factorization for k = 2 (mod 4), k >= 14,
    # and its edge search runs out of budget after minutes
    lam, k, u, g = cell
    flags = ["--lambda", str(lam), "--k", str(k), "--u", str(u), "--g", str(g)]
    detail = f"case f needs a C_{k}-factorization of K_{{{k},{k}}}"
    started = time.perf_counter()
    assert run(["check"] + flags) == 4
    assert capsys.readouterr().out.startswith(f"UnsupportedCase ({detail}")
    assert run(["build"] + flags + ["-o", str(tmp_path / "x.json")]) == 4
    assert capsys.readouterr().err.startswith(f"UnsupportedCase: {detail}")
    assert time.perf_counter() - started < 1.0
    assert not (tmp_path / "x.json").exists()


# The collector pause: spies on the names cli imports record whether the
# cyclic collector was on when they ran.

class _GcSpy:
    """Stands in for the gc module in cli and logs each switch."""

    def __init__(self, log):
        self.log = log

    def isenabled(self):
        return gc.isenabled()

    def disable(self):
        self.log.append("off")
        gc.disable()

    def enable(self):
        self.log.append("on")
        gc.enable()


def _recording(log, name, fn):
    def spy(*args, **kwargs):
        log.append((name, gc.isenabled()))
        return fn(*args, **kwargs)
    return spy


_CELL = ["--lambda", "2", "--k", "4", "--u", "5", "--g", "2"]


def test_parser_is_built_once():
    assert cli._parser() is cli._parser()


def test_a_command_rebound_after_the_first_call_is_the_one_run(monkeypatch, capsys):
    argv = ["check"] + _CELL
    assert run(argv) == 0
    calls = []
    monkeypatch.setattr(cli, "cmd_check", lambda args: calls.append(args.u) or 7)
    assert run(argv) == 7 and calls == [5]


def test_build_and_verify_run_with_the_collector_paused(tmp_path, monkeypatch, capsys):
    log = []
    monkeypatch.setattr(cli, "build_arcs", _recording(log, "build_arcs", cli.build_arcs))
    monkeypatch.setattr(arcs, "verify_arcs", _recording(log, "verify_arcs", arcs.verify_arcs))
    monkeypatch.setattr(cli, "verify_arcs", _recording(log, "verify_arcs", cli.verify_arcs))
    out = tmp_path / "out.json"
    assert gc.isenabled()
    assert run(["build"] + _CELL + ["-o", str(out)]) == 0
    assert log == [("build_arcs", False), ("verify_arcs", False)] and gc.isenabled()
    log.clear()
    assert run(["verify", str(out)]) == 0
    assert log == [("verify_arcs", False)] and gc.isenabled()


def test_table_resumes_the_collector_between_cells(tmp_path, monkeypatch):
    log = []
    monkeypatch.setattr(cli, "gc", _GcSpy(log))
    monkeypatch.setattr(cli, "check_feasibility",
                        _recording(log, "cell", cli.check_feasibility))
    out = tmp_path / "grid.csv"
    assert run(["table", "--lambdas", "2", "--ks", "4", "--max-u", "5",
                "--max-g", "3", "-o", str(out)]) == 0
    cells = len(out.read_text().splitlines()) - 1
    assert cells == 6 and log == ["off", ("cell", False), "on"] * cells
    assert gc.isenabled()


def _build(tmp_path):
    return ["build"] + _CELL + ["-o", str(tmp_path / "x.json")]


def _table(tmp_path):
    return ["table", "--lambdas", "2", "--ks", "4", "--max-u", "5", "--max-g", "2",
            "-o", str(tmp_path / "t.csv")]


def _unreadable(tmp_path):
    path = tmp_path / "mangled.json"
    path.write_text("{ not json")
    return ["verify", str(path)]


def _failing_file(tmp_path):
    return ["verify", _claim(tmp_path, 2, 4, 5, 2, [])]


def _construction_bug(p, verify=True):
    from cycleframe.graphs import ConstructionBugError
    raise ConstructionBugError("injected fault", factor_index=0)


@pytest.mark.parametrize("make_argv, sabotage, code", [
    (_build, False, 0), (_unreadable, False, 1), (_build, True, 5), (_failing_file, False, 6),
    (_table, False, 0), (_table, True, 5),
], ids=["build", "verify-unreadable", "build-construction-bug", "verify-failed",
        "table", "table-construction-bug"])
@pytest.mark.parametrize("enabled", [True, False], ids=["caller-enabled", "caller-disabled"])
def test_collector_state_is_restored_on_every_exit(tmp_path, monkeypatch, capsys,
                                                   make_argv, sabotage, code, enabled):
    if sabotage:
        monkeypatch.setattr(cli, "build_arcs", _construction_bug)
    argv = make_argv(tmp_path)
    if not enabled:
        gc.disable()
    try:
        assert run(argv) == code
        assert gc.isenabled() is enabled
    finally:
        gc.enable()
