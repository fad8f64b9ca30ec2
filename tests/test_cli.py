import json
import time

import pytest

from bicayley.cli import TRIALS_BUDGET, _read_graph, integer, main
from bicayley.errors import GraphParseError, ParameterError
from bicayley.graphs import Graph, graph6_encode, parse_edge_list
from bicayley.metacyclic import TABLE_BUDGET, PairGroup, make_group
from bicayley.permgroup import PermGroup
from bicayley.symmetry import classify
from bicayley import gamma_t


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_family_edges(capsys):
    code, out, _ = run_cli(capsys, "family", "--kind", "gamma", "--t", "1", "--format", "edges")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.strip()]
    assert len(lines) == 81
    for ln in lines:
        u, v = map(int, ln.split())
        assert u < v


def test_family_g6_matches_in_memory(capsys):
    code, out, _ = run_cli(capsys, "family", "--kind", "gamma", "--t", "1", "--format", "g6")
    assert code == 0
    assert out.strip() == graph6_encode(gamma_t(1).graph)


def test_family_json(capsys):
    code, out, _ = run_cli(capsys, "family", "--kind", "abelian", "--m", "3", "--n", "1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["vertex_count"] == 18 and doc["edge_count"] == 27


def test_analyze_round_trip(tmp_path, capsys):
    path = tmp_path / "gamma1.g6"
    code, _, _ = run_cli(capsys, "family", "--kind", "gamma", "--t", "1", "--format", "g6", "--out", str(path))
    assert code == 0
    code, out, _ = run_cli(capsys, "analyze", "--in", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["classification"] == "semisymmetric"
    assert doc == classify(gamma_t(1).graph).to_dict()


def test_export_round_trip(tmp_path, capsys):
    g6path = tmp_path / "g.g6"
    run_cli(capsys, "family", "--kind", "sigma", "--t", "1", "--format", "g6", "--out", str(g6path))
    code, out, _ = run_cli(capsys, "export", "--in", str(g6path), "--format", "edges")
    assert code == 0
    graph = parse_edge_list(out)
    assert graph.n == 162 and graph.valency() == 3


def test_verify_semisymmetric_target(capsys):
    code, out, _ = run_cli(capsys, "verify", "--target", "lemma51", "--t", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["classification"] == "semisymmetric"
    assert doc["passed"] is True


def test_verify_symmetric_target(capsys):
    code, out, _ = run_cli(capsys, "verify", "--target", "lemma52", "--t", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True and doc["arc_orbit_size"] == 486


def test_verify_arithmetic_target(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--target", "arithmetic",
        "--p", "3", "--m", "2", "--n", "1", "--r", "1",
        "--trials", "2000", "--seed", "0",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True and doc["failures"] == []
    assert doc["regular_representation_order"] == 27


def test_census_subcommand(capsys):
    code, out, _ = run_cli(capsys, "census", "--group", "3,3,1,2")
    assert code == 0
    doc = json.loads(out)
    assert doc["edge_transitive_classes"] == []
    assert doc["group"] == [3, 3, 1, 2]
    assert list(doc.keys()) == [
        "group",
        "connected_only",
        "pair_count",
        "generating_pair_count",
        "class_count",
        "classes",
        "edge_transitive_classes",
        "elapsed_seconds",
    ]


def test_census_lists_connected_graphs_only(capsys):
    # the census has no disconnected mode: the former flag is an unknown option
    code, out, err = run_cli(capsys, "census", "--group", "3,2,1,1", "--include-disconnected")
    assert code == 2 and out == ""
    assert err.startswith("error: unrecognized arguments: --include-disconnected") and err.count("\n") == 1
    code, out, _ = run_cli(capsys, "census", "--group", "3,2,1,1")
    assert code == 0 and json.loads(out)["connected_only"] is True


def run_module(*argv, timeout=60):
    """python -m bicayley in a subprocess, so an uncaught exception would show
    as a traceback."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import bicayley

    env = dict(os.environ)
    src = str(Path(bicayley.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "bicayley", *argv],
        capture_output=True, text=True, env=env, timeout=timeout,
    )


def test_census_over_budget_is_a_usage_error():
    proc = run_module("census", "--group", "5,3,2,2")  # order 3125 > TABLE_BUDGET = 2500
    assert proc.returncode == 2 and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    # sizes refused before a big power, trial division or a loop over Z_n;
    # each of these was still running after 6 s
    ("census", "--group", "1000000000000000000000007,2,1,1"),
    ("census", "--group", "3,3,30000000,2"),
    ("census", "--group", "9223372036854775783,2,1,1"),
    ("census", "--group", "2147483647,2,1,1"),  # p^2 < 2^63: over the table budget
    ("family", "--kind", "abelian", "--m", "1", "--n", "1000000000000000000"),
])
def test_oversized_parameters_exit_at_once(argv):
    proc = run_module(*argv, timeout=20)
    assert proc.returncode == 2 and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("group, field", [
    ("a,b,c,d", "p"), ("3.0,2,1,1", "p"), (",,,", "p"), ("3,2,x,1", "n"),
    # int() takes each of these: non-ASCII digits, a sign, an underscore, whitespace
    ("\u0969,2,1,1", "p"), ("3,2,1,\u0661", "r"), ("+3,2,1,1", "p"), ("3,2_0,1,1", "m"),
    (" 3,2,1,1", "p"), ("3,2,1,1\t", "r"), ("3,\u20032,1,1", "m"), ("9" * 5000 + ",2,1,1", "p"),
])
def test_non_integer_group_is_a_usage_error(group, field):
    proc = run_module("census", "--group", group)
    assert proc.returncode == 2 and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {field} must be an integer")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv, option", [
    # int() takes a non-ASCII digit and surrounding whitespace; every integer
    # option reads the same grammar as a --group field
    (("verify", "--target", "lemma51", "--t", "\uff13"), "--t"),
    (("verify", "--target", "arithmetic", "--p", "\uff13", "--m", "2", "--n", "1", "--r", "1"), "--p"),
    (("family", "--kind", "gamma", "--t", " 1"), "--t"),
])
def test_non_ascii_integer_option_is_a_usage_error(argv, option):
    proc = run_module(*argv)
    assert proc.returncode == 2 and proc.stdout == ""
    assert f"error: argument {option}: invalid integer value" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ("verify", "--p", "3"),  # --target missing
    ("verify", "--target", "lemma53"),  # not a choice
    ("verify", "--target", "lemma51", "--t", "\uff13"),  # a non-ASCII integer
    ("nonsense",),  # no such command
    ("family", "--kind", "gamma"),  # no --t: the library's error
    ("family", "--kind", "abelian", "--m", "3"),  # no --n
])
def test_argument_errors_print_one_error_line(argv):
    # argparse errors take the shape of library errors: no usage block
    proc = run_module(*argv)
    assert proc.returncode == 2 and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr


def test_help_still_prints_usage(capsys):
    code, out, err = run_cli(capsys, "verify", "--help")
    assert code == 0 and out.startswith("usage: bicayley verify") and err == ""


def test_negative_trial_count_is_a_usage_error():
    proc = run_module("verify", "--target", "arithmetic", "--trials", "-5")
    assert proc.returncode == 2 and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "--trials" in lines[0]
    assert "Traceback" not in proc.stderr


def test_trial_count_over_budget_is_a_usage_error():
    # 99999999999 trials was still running when a 20 s timeout killed it
    proc = run_module("verify", "--target", "arithmetic", "--trials", "99999999999", timeout=20)
    assert proc.returncode == 2 and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "--trials" in lines[0]
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("trials", [-1, TRIALS_BUDGET + 1])
def test_trial_count_outside_its_bounds_is_refused_in_process(capsys, trials):
    # the subprocess tests above cover the console; these run the checks in this process
    code, out, err = run_cli(capsys, "verify", "--target", "arithmetic", "--trials", str(trials))
    assert code == 2 and out == ""
    bound = "at least 0" if trials < 0 else f"at most {TRIALS_BUDGET}"
    assert err == f"error: --trials must be {bound}, got {trials}\n"


def test_integer_reads_ascii_digits_only():
    assert integer("-12") == -12 and integer("0") == 0
    for text in ("\u0969", "1\u0661", "\uff13", "+3", "1_0", " 1", ""):
        with pytest.raises(ParameterError, match="ASCII digits 0-9"):
            integer(text, "--t")
    # past int()'s digit limit (4300 by default): refused with its length
    with pytest.raises(ParameterError, match="got 5000 digits"):
        integer("9" * 5000, "p")


def test_read_graph_refuses_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "bad.g6"
    path.write_bytes(b"A_\xff\n")
    with pytest.raises(GraphParseError, match="byte 0xff is not UTF-8 text") as exc:
        _read_graph(str(path), "auto")
    assert exc.value.offset == 2
    path.write_bytes(b"A_\n")
    assert _read_graph(str(path), "auto") == Graph(2, [(0, 1)])


def test_trial_count_is_bounded_by_the_group_order(capsys):
    """trials * |H| is held to TRIALS_BUDGET * 3^6, so a count that would run
    for minutes at |H| = 3^9 is refused before any draw."""
    assert 37038 * 3**9 > TRIALS_BUDGET * 3**6 >= 37037 * 3**9
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", "--target", "arithmetic", "--p", "3", "--m", "5", "--n", "4",
                             "--r", "4", "--trials", "37038")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: --trials must be at most 37037 at |H| = 19683")


def test_family_parameter_values_are_checked_by_the_builder(capsys):
    code, out, err = run_cli(capsys, "family", "--kind", "sigma", "--t", "0")
    assert (code, out, err) == (2, "", "error: t must be a positive integer\n")
    code, out, err = run_cli(capsys, "family", "--kind", "abelian", "--m", "1", "--n", "1")
    assert (code, out, err) == (2, "", "error: abelian family needs m, n with n*m^2 >= 3\n")


def test_zero_trials_checks_rows_and_order(capsys):
    code, out, _ = run_cli(capsys, "verify", "--target", "arithmetic", "--trials", "0")
    report = json.loads(out)
    assert code == 0 and report["trials"] == 0 and report["passed"]
    assert report["failures"] == [] and report["order_matches"]


@pytest.mark.parametrize("params, message", [
    ((3, 6, 5, 5), "error: degree 177147 exceeds the budget 100000"),  # 3^11
    ((3, 7, 6, 6), "error: group order 1594323 exceeds enumeration budget"),  # 3^13
    ((3, 5, 5, 4), "error: the 3486784401 products of |H| = 59049 exceed the budget 729000000"),  # 3^10
])
def test_arithmetic_sizes_are_refused_before_any_element(monkeypatch, capsys, params, message):
    # 3^11 is within the enumeration budget but above the permutation-degree
    # one, and 3^10 within both but above the budget of the kernel check on
    # all |H|^2 pairs; all are checked before the elements are listed or any
    # scalar mul
    def refuse(*_):
        raise AssertionError("an element operation before the size checks")

    monkeypatch.setattr(PairGroup, "elements", refuse)
    monkeypatch.setattr(PairGroup, "mul", refuse)
    argv = [x for name, v in zip(("--p", "--m", "--n", "--r"), params) for x in (name, str(v))]
    code, out, err = run_cli(capsys, "verify", "--target", "arithmetic", "--trials", "0", *argv)
    assert code == 2 and out == "" and err == message + "\n"


def test_no_cli_command_builds_a_stabilizer_chain(monkeypatch, tmp_path, capsys):
    # Schreier-Sims serves the library API and the test oracles only
    def refuse(self):
        raise AssertionError("a CLI command built a stabilizer chain")

    monkeypatch.setattr(PermGroup, "_build_chain", refuse)
    g6 = str(tmp_path / "gamma2.g6")
    arithmetic = ("verify", "--target", "arithmetic", "--trials", "200")
    assert make_group(5, 3, 2, 2).order > TABLE_BUDGET
    for argv in (
        ("family", "--kind", "gamma", "--t", "2", "--format", "g6", "--out", g6),
        ("export", "--in", g6, "--format", "edges"),
        ("analyze", "--in", g6),
        ("verify", "--target", "lemma51", "--t", "1"),
        ("verify", "--target", "lemma52", "--t", "1"),
        arithmetic,  # (3,2,1,1)
        arithmetic + ("--p", "5", "--m", "3", "--n", "2", "--r", "2"),
        ("census", "--group", "3,2,1,1"),
    ):
        code, _, err = run_cli(capsys, *argv)
        assert code == 0 and err == "", argv


@pytest.mark.parametrize("content", ["Aé\n".encode("utf-8"), b"A\xe9\n"])
def test_non_ascii_graph_file_is_a_usage_error(tmp_path, content):
    path = tmp_path / "bad.g6"
    path.write_bytes(content)
    proc = run_module("analyze", "--in", str(path))
    assert proc.returncode == 2 and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "byte offset 1" in lines[0]


def test_non_decimal_edge_list_is_a_usage_error(tmp_path):
    path = tmp_path / "bad.edges"
    path.write_text("0 +2\n")
    # a line with inner whitespace is no graph6, so auto-detection reports the edge-list fault
    for fmt, message in (("edges", "non-decimal endpoint"), ("auto", "non-decimal endpoint")):
        proc = run_module("analyze", "--in", str(path), "--assume-format", fmt)
        assert proc.returncode == 2 and proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and message in lines[0]


def test_verify_json_key_order_stable(capsys):
    _, out1, _ = run_cli(capsys, "verify", "--target", "lemma51", "--t", "1")
    _, out2, _ = run_cli(capsys, "verify", "--target", "lemma51", "--t", "1")
    assert out1 == out2
    assert list(json.loads(out1).keys()) == [
        "family",
        "t",
        "group",
        "vertices",
        "rotation_images",
        "inversion_images_rejected",
        "swap_images_rejected",
        "spoke_rotation",
        "part_swap_excluded",
        "classification",
        "symmetry",
        "verified_by_full_aut",
        "passed",
    ]


def test_usage_errors(tmp_path, capsys):
    code, _, err = run_cli(capsys, "census", "--group", "3,2,1")
    assert code == 2 and "error" in err
    code, _, err = run_cli(capsys, "analyze", "--in", str(tmp_path / "missing.g6"))
    assert code == 2
    bad = tmp_path / "bad.g6"
    bad.write_text("B\x19\n")
    code, _, err = run_cli(capsys, "analyze", "--in", str(bad))
    assert code == 2 and "byte offset" in err
    code, _, _ = run_cli(capsys, "family", "--kind", "gamma")  # missing --t
    assert code == 2
    code, _, _ = run_cli(capsys, "nonsense")
    assert code == 2


def test_analyze_edge_list_with_leading_comment(tmp_path, capsys):
    from bicayley.graphs import format_edge_list

    text = format_edge_list(gamma_t(1).graph)
    plain = tmp_path / "plain.edges"
    plain.write_text(text)
    commented = tmp_path / "commented.edges"
    commented.write_text("# Gray graph\n\n# 54 vertices, 81 edges\n" + text)
    code, ref, _ = run_cli(capsys, "analyze", "--in", str(plain))
    assert code == 0
    code, out, err = run_cli(capsys, "analyze", "--in", str(commented))
    assert code == 0 and err == ""
    assert out == ref


def test_library_errors_map_to_usage_exit(monkeypatch, capsys):
    from bicayley import cli
    from bicayley.errors import GraphParseError, NotAutomorphism, UsageError

    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    walked = list(subclasses(UsageError))
    assert len(walked) >= 9  # the nine of bicayley.errors, and any added since
    for exc in [UsageError, *walked]:
        error = exc(f"{exc.__name__} raised", *([0] if issubclass(exc, GraphParseError) else []))

        def fail(args, error=error):
            raise error

        monkeypatch.setattr(cli, "_cmd_family", fail)
        code, out, err = run_cli(capsys, "family", "--kind", "gamma", "--t", "1")
        assert code == 2 and out == ""
        assert err == f"error: {error}\n"

    def fault(args):  # an internal fault is no usage error: it propagates
        raise NotAutomorphism("fault")

    monkeypatch.setattr(cli, "_cmd_family", fault)
    with pytest.raises(NotAutomorphism):
        main(["family", "--kind", "gamma", "--t", "1"])


def test_usage_errors_keep_their_builtin_bases():
    from bicayley import errors

    assert not issubclass(errors.NotAutomorphism, errors.UsageError)
    assert issubclass(errors.NotAutomorphism, RuntimeError)
    assert issubclass(errors.BudgetError, errors.UsageError) and issubclass(errors.BudgetError, RuntimeError)
    for exc in (errors.ParameterError, errors.SetConditionError, errors.InvalidMapError, errors.DegreeMismatch,
                errors.InvariantViolation, errors.NoLambdaError, errors.PreconditionError, errors.GraphParseError):
        assert issubclass(exc, errors.UsageError) and issubclass(exc, ValueError)


def test_export_keeps_isolated_vertices(tmp_path, capsys):
    src = tmp_path / "g.g6"
    src.write_text(graph6_encode(Graph(4, [(0, 1)])) + "\n")
    code, text, _ = run_cli(capsys, "export", "--in", str(src), "--format", "edges")
    assert code == 0 and text == "# n=4\n0 1\n"
    edges = tmp_path / "g.edges"
    edges.write_text(text)
    code, back, _ = run_cli(capsys, "export", "--in", str(edges), "--format", "g6")
    assert code == 0 and back == graph6_encode(Graph(4, [(0, 1)])) + "\n"


def test_edge_list_vertex_count_over_budget_is_a_usage_error(tmp_path):
    # refused before a graph of a million vertices is allocated
    for name, text in (("endpoint", "0 1000000\n"), ("header", "# n=1000000000\n")):
        path = tmp_path / f"{name}.edges"
        path.write_text(text)
        for argv in (("analyze",), ("export", "--format", "g6")):
            proc = run_module(*argv, "--in", str(path))
            assert proc.returncode == 2 and proc.stdout == ""
            lines = proc.stderr.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error:")
            assert "budget" in lines[0] and "Traceback" not in proc.stderr


def test_verify_defaults_use_the_full_group_where_it_fits(capsys):
    code, out, _ = run_cli(capsys, "verify", "--target", "lemma51", "--t", "3")
    doc = json.loads(out)
    assert code == 0 and doc["passed"] is True
    assert doc["verified_by_full_aut"] is True and doc["classification"] == "semisymmetric"
    code, out, _ = run_cli(capsys, "verify", "--target", "lemma52", "--t", "2")
    doc = json.loads(out)
    assert code == 0 and doc["passed"] is True
    assert doc["verified_by_full_aut"] is True and doc["classification"] == "arc-transitive"
    # sigma_3 (13122 vertices) is above the engine budget: graph checks only
    code, out, _ = run_cli(capsys, "verify", "--target", "lemma52", "--t", "3")
    doc = json.loads(out)
    assert code == 0 and doc["passed"] is True and doc["verified_by_full_aut"] is False
    assert doc["arc_orbit_size"] == doc["arc_count"] == 39366
