import json
import random
import re
import time

import pytest

from floodit import dp2xn
from floodit.cli import main


def write(path, text):
    path.write_text(text)
    return str(path)


def test_gen_deterministic(capsys):
    assert main(["gen", "--n", "4", "--colours", "3", "--seed", "9"]) == 0
    first = capsys.readouterr().out
    assert main(["gen", "--n", "4", "--colours", "3", "--seed", "9"]) == 0
    second = capsys.readouterr().out
    assert first == second
    lines = first.strip().splitlines()
    assert lines[0] == "4" and len(lines) == 3


def test_gen_monochromatic_single_column(capsys):
    assert main(["gen", "--n", "1", "--colours", "1"]) == 0
    out = capsys.readouterr().out
    assert out == "1\na\na\n"


def test_gen_usage_errors(capsys):
    assert main(["gen", "--n", "0", "--colours", "2"]) == 1
    assert main(["gen", "--n", "2", "--colours", "0"]) == 1


def test_solve_monochromatic_both_methods(tmp_path, capsys):
    board = write(tmp_path / "b.txt", "3\na a a\na a a\n")
    for method in ("dp", "bfs", "auto"):
        assert main(["solve", board, "--method", method]) == 0
        assert "value 0" in capsys.readouterr().out


def test_solve_dp_and_bfs_agree(tmp_path, capsys):
    board = write(tmp_path / "b.txt", "2\na b\nb a\n")
    values = {}
    for method in ("dp", "bfs"):
        assert main(["solve", board, "--method", method, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        values[method] = payload["value"]
        assert payload["method"] == method
        assert set(payload) >= {"n", "colours", "method", "value", "millis", "stats"}
    assert values["dp"] == values["bfs"] == 2


def test_solve_emit_sequence_schema(tmp_path, capsys):
    board = write(tmp_path / "b.txt", "4\na b a b\nb a b a\n")
    assert main(["solve", board, "--method", "dp", "--emit-sequence", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["sequence"]) == payload["value"]
    for entry in payload["sequence"]:
        assert set(entry) == {"row", "col", "colour"}
        assert entry["colour"] in ("a", "b")


def test_solve_unknown_target_is_usage_error(tmp_path, capsys):
    board = write(tmp_path / "b.txt", "2\na b\nb a\n")
    assert main(["solve", board, "--target", "zz"]) == 1


def test_failed_dp_replay_is_a_failed_verification(tmp_path, monkeypatch, capsys):
    from floodit.errors import ReconstructionError

    def failing(table):
        raise ReconstructionError("reconstructed sequence failed replay validation")

    monkeypatch.setattr(dp2xn, "reconstruct", failing)
    board = write(tmp_path / "b.txt", "4\na b a b\nb a b a\n")
    assert main(["solve", board, "--method", "dp", "--emit-sequence"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: reconstructed sequence failed replay validation\n"
    assert captured.out == ""
    assert main(["verify", "--random", "2", "4", "3", "--seed", "3"]) == 1
    assert "FAIL random 2 boards 4x3: first failing board" in capsys.readouterr().out


def test_failed_search_witness_is_a_failed_verification(tmp_path, monkeypatch, capsys):
    import dataclasses

    from floodit import oracle
    min_moves = oracle.min_moves

    def one_move_short(graph, **kwargs):
        result = min_moves(graph, **kwargs)
        return dataclasses.replace(result, witness=result.witness[:-1])

    monkeypatch.setattr(oracle, "min_moves", one_move_short)
    board = write(tmp_path / "b.txt", "2\na b\nb a\n")
    assert main(["solve", board, "--method", "bfs", "--emit-sequence"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: search witness failed replay validation\n"
    assert captured.out == ""


def test_solve_target_token(tmp_path, capsys):
    board = write(tmp_path / "b.txt", "2\na b\nb a\n")
    assert main(["solve", board, "--target", "b", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] == 2


def test_solve_time_budget_exits_3_promptly(tmp_path, capsys):
    from floodit import gen
    from floodit.board import serialize_board

    text = serialize_board(gen.random_board(random.Random(41), 40, 4))
    board = write(tmp_path / "b.txt", text)
    start = time.monotonic()
    assert main(["solve", board, "--method", "dp", "--time-budget", "0.01"]) == 3
    assert time.monotonic() - start < 1.0
    assert "time budget exhausted" in capsys.readouterr().err
    assert main(["solve", board, "--time-budget", "0"]) == 1
    small = write(tmp_path / "s.txt", "2\na b\nb a\n")
    assert main(["solve", small, "--method", "dp", "--time-budget", "60"]) == 0
    assert "value 2" in capsys.readouterr().out


def test_solve_time_budget_reaches_the_search(tmp_path, capsys):
    from floodit import gen
    from floodit.board import serialize_board

    # 2x6 with 5 colours: auto searches (12 squares), and the search expands
    # 30 states, so the budget is read before it ends.
    text = serialize_board(gen.random_board(random.Random(0), 6, 5))
    board = write(tmp_path / "b.txt", text)
    for method in ("bfs", "auto"):
        assert main(["solve", board, "--method", method, "--time-budget", "1e-9"]) == 3
        assert "time budget exhausted" in capsys.readouterr().err
        assert main(["solve", board, "--method", method, "--time-budget", "60"]) == 0
        assert "value 5 (method bfs" in capsys.readouterr().out


def test_solve_bfs_out_of_state_budget_exits_3(tmp_path, monkeypatch, capsys):
    from floodit import oracle
    min_moves = oracle.min_moves

    def one_state(graph, **kwargs):
        kwargs["budget"] = oracle.SearchBudget(max_states=1)
        return min_moves(graph, **kwargs)

    monkeypatch.setattr(oracle, "min_moves", one_state)
    board = write(tmp_path / "b.txt", "2\na b\nb a\n")
    assert main(["solve", board, "--method", "bfs"]) == 3
    captured = capsys.readouterr()
    assert captured.err == "error: search budget exhausted (state budget exhausted)\n"
    assert captured.out == ""


def test_solve_parse_error_exit_2(tmp_path, capsys):
    board = write(tmp_path / "b.txt", "2\na b\nb\n")
    assert main(["solve", board]) == 2
    assert main(["solve", str(tmp_path / "missing.txt")]) == 2


def test_reduce_k2(tmp_path, capsys):
    graph = write(tmp_path / "g.txt", "0 1\n")
    out = tmp_path / "board.txt"
    meta = tmp_path / "meta.json"
    assert main(["reduce", graph, "-o", str(out), "--meta", str(meta)]) == 0
    text = out.read_text().splitlines()
    assert text[0] == "14"
    payload = json.loads(meta.read_text())
    assert set(payload) == {"m", "r", "n", "N", "islands", "legend"}
    assert payload["N"] == 5 and payload["n"] == 14


def test_reduce_p3_meta(tmp_path):
    graph = write(tmp_path / "g.txt", "0 1\n1 2\n")
    out = tmp_path / "board.txt"
    meta = tmp_path / "meta.json"
    assert main(["reduce", graph, "-o", str(out), "--meta", str(meta)]) == 0
    payload = json.loads(meta.read_text())
    assert payload["n"] == 40 and payload["N"] == 17


@pytest.mark.parametrize("flag", ["-o", "--meta"])
def test_reduce_unwritable_output_exits_2(flag, tmp_path, capsys):
    graph = write(tmp_path / "g.txt", "0 1\n")
    paths = {"-o": str(tmp_path / "board.txt"), "--meta": str(tmp_path / "meta.json")}
    paths[flag] = str(tmp_path / "missing" / "out")
    assert main(["reduce", graph, "-o", paths["-o"], "--meta", paths["--meta"]]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {paths[flag]}: ")
    assert "Traceback" not in err


def test_reduce_rejects_isolated_vertex(tmp_path, capsys):
    graph = write(tmp_path / "g.txt", "p 3\n0 1\n")
    assert main(["reduce", graph, "-o", str(tmp_path / "b.txt")]) == 2


def test_reduce_unreadable_or_malformed_graph_exits_2(tmp_path, capsys):
    out = str(tmp_path / "b.txt")
    missing = str(tmp_path / "missing.txt")
    assert main(["reduce", missing, "-o", out]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read {missing}: ")
    graph = write(tmp_path / "g.txt", "0 0\n")
    assert main(["reduce", graph, "-o", out]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {graph}: line 1: self-loop at vertex 0\n"
    assert captured.out == ""


def test_verify_reduction(capsys):
    assert main(["verify", "--reduction"]) == 0
    out = capsys.readouterr().out
    assert "PASS reduction K2 -> EQUAL" in out
    assert "PASS reduction P3 -> EQUAL" in out
    assert "PASS reduction K3 -> UNRESOLVED" in out


def test_verify_lemmas(monkeypatch, capsys):
    assert main(["verify", "--lemmas"]) == 0
    assert capsys.readouterr().out == (
        "PASS spanning-tree optimum equality (30 graphs)\n"
        "PASS no-leaf-moves optimum equality (30 trees)\n"
        "PASS cover subadditivity (30 graphs)\n"
    )
    from floodit import oracle

    monkeypatch.setattr(oracle, "check_no_leaf_moves", lambda tree: False)
    assert main(["verify", "--lemmas"]) == 1
    assert capsys.readouterr().out == (
        "PASS spanning-tree optimum equality (30 graphs)\n"
        "FAIL no-leaf-moves optimum equality (30 trees)\n"
        "PASS cover subadditivity (30 graphs)\n"
    )


def test_verify_random(capsys):
    assert main(["verify", "--random", "5", "4", "3", "--seed", "3"]) == 0
    assert "PASS random 5 boards" in capsys.readouterr().out


def test_verify_random_compares_the_worklist_table(monkeypatch, capsys):
    # A worklist table that differs only on unreached entries keeps every
    # board value, so only the table comparison can catch it.
    solve_buckets = dp2xn._solve_buckets

    def unreached_read_finite(best, *args):
        solve_buckets(best, *args)
        best[best == dp2xn._inf(best.dtype)] -= 1

    monkeypatch.setattr(dp2xn, "_solve_buckets", unreached_read_finite)
    assert main(["verify", "--random", "5", "4", "3", "--seed", "3"]) == 1
    # The first board fails; the FAIL line names it by its token rows.
    from floodit import gen
    from floodit.board import serialize_board

    _n, top, bottom = serialize_board(gen.random_board(random.Random(3), 4, 3)).splitlines()
    out = capsys.readouterr().out
    assert out == f"FAIL random 5 boards 4x3: first failing board {top} / {bottom}\n"


def test_verify_exhaustive_names_the_first_failing_board(monkeypatch, capsys):
    solve_buckets = dp2xn._solve_buckets

    def unreached_read_finite(best, *args):
        solve_buckets(best, *args)
        best[best == dp2xn._inf(best.dtype)] -= 1

    monkeypatch.setattr(dp2xn, "_solve_buckets", unreached_read_finite)
    assert main(["verify", "--exhaustive", "2", "2"]) == 1
    out = capsys.readouterr().out
    assert re.fullmatch(r"FAIL exhaustive 2 2: \d+ boards up to renaming, "
                        r"first failing board [ab] [ab] / [ab] [ab]\n", out), out


def test_verify_random_out_of_search_budget_exits_3(monkeypatch, capsys):
    # A search that gives up shows no value wrong: exit 3, not FAIL.
    from floodit import oracle
    min_moves = oracle.min_moves

    def one_state(graph, **kwargs):
        return min_moves(graph, budget=oracle.SearchBudget(max_states=1), **kwargs)

    monkeypatch.setattr(oracle, "min_moves", one_state)
    assert main(["verify", "--random", "2", "4", "3"]) == 3
    captured = capsys.readouterr()
    assert "error: search budget exhausted (state budget exhausted)" in captured.err
    assert "FAIL" not in captured.out


def test_verify_exhaustive_out_of_search_budget_exits_3(monkeypatch, capsys):
    # Free and per-target searches alike: a search that gives up shows no
    # value wrong, so exit 3, not FAIL.
    from floodit import oracle
    min_moves = oracle.min_moves

    def one_state(graph, **kwargs):
        return min_moves(graph, budget=oracle.SearchBudget(max_states=1), **kwargs)

    monkeypatch.setattr(oracle, "min_moves", one_state)
    assert main(["verify", "--exhaustive", "3", "2"]) == 3
    captured = capsys.readouterr()
    assert "error: search budget exhausted (state budget exhausted)" in captured.err
    assert "FAIL" not in captured.out


@pytest.mark.parametrize("args", [("2", "0", "3"), ("2", "3", "0"), ("-1", "3", "3"),
                                  ("0", "3", "3")])
def test_verify_random_rejects_counts_below_one(args, capsys):
    assert main(["verify", "--random", *args]) == 1
    captured = capsys.readouterr()
    assert "usage error: --random needs" in captured.err
    assert "PASS" not in captured.out


def test_verify_requires_a_suite(capsys):
    assert main(["verify"]) == 1


def test_verify_exhaustive_over_budget_exits_3(capsys):
    assert main(["verify", "--exhaustive", "5", "5"]) == 3


def test_verify_random_key_space_over_cap_exits_3(capsys):
    assert main(["verify", "--random", "1", "10", "20"]) == 3
    captured = capsys.readouterr()
    assert "key space too large" in captured.err
    assert "FAIL" not in captured.out


def test_verify_exhaustive_index_over_record_cap_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(dp2xn, "_RECORD_CAP", 0)
    monkeypatch.setattr(dp2xn, "_INDEX_CACHE", {})
    assert main(["verify", "--exhaustive", "2", "1"]) == 3
    assert "split records" in capsys.readouterr().err


def test_verify_exhaustive_counts_boards_up_to_renaming(capsys):
    # 2x2 boards with at most 4 colours: 15 up to renaming (Bell number B4).
    assert main(["verify", "--exhaustive", "2", "4"]) == 0
    assert "PASS exhaustive 2 4: 15 boards up to renaming" in capsys.readouterr().out


def test_bench_single_row(capsys):
    assert main(["bench", "--n-range", "3..3", "--colours", "2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["rows"]) == 1
    row = payload["rows"][0]
    assert row["n"] == 3 and "millis" in row and "keys" in row


def test_bench_range_and_usage(capsys):
    assert main(["bench", "--n-range", "2..4", "--colours", "2"]) == 0
    out = capsys.readouterr().out
    assert len(out.strip().splitlines()) == 4  # header + one row per n
    assert main(["bench", "--n-range", "4..2", "--colours", "2"]) == 1
    assert main(["bench", "--n-range", "x", "--colours", "2"]) == 1


def test_bench_large_palette_is_valid_input(capsys):
    # Only the table-entry cap limits a solve, not the palette size.
    assert main(["bench", "--n-range", "2..2", "--colours", "40", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["rows"][0]["n"] == 2


def test_bench_over_time_budget_emits_the_partial_table(monkeypatch, capsys):
    from floodit import cli
    solve = dp2xn.solve

    def budgeted_from_width_3(board, time_budget=None, **kwargs):
        return solve(board, time_budget=time_budget if board.n >= 3 else None, **kwargs)

    monkeypatch.setattr(cli, "BENCH_BUDGET_SECONDS", 1e-9)
    monkeypatch.setattr(dp2xn, "solve", budgeted_from_width_3)
    assert main(["bench", "--n-range", "1..4", "--colours", "2"]) == 3
    captured = capsys.readouterr()
    header, *rows = captured.out.splitlines()
    assert header.split() == ["n", "value", "millis", "keys", "sweeps"]
    assert [row.split()[0] for row in rows] == ["1", "2"]
    assert captured.err == "error: time budget exceeded; emitted partial table\n"


def test_bench_key_space_over_cap_reports_capacity(capsys):
    assert main(["bench", "--n-range", "10..10", "--colours", "20"]) == 3
    err = capsys.readouterr().err
    assert "key space too large" in err
    assert "time budget" not in err


def test_index_over_record_cap_exits_3(tmp_path, capsys, monkeypatch):
    from floodit import dp2xn

    monkeypatch.setattr(dp2xn, "_RECORD_CAP", 0)
    monkeypatch.setattr(dp2xn, "_INDEX_CACHE", {})
    board = write(tmp_path / "b.txt", "2\na b\nb a\n")
    assert main(["solve", board, "--method", "dp"]) == 3
    assert main(["bench", "--n-range", "2..2", "--colours", "2"]) == 3
    assert "split records" in capsys.readouterr().err


def test_usage_error_exit_1(capsys):
    assert main([]) == 1
    assert main(["solve"]) == 1
    assert main(["noesuchcommand"]) == 1
