import json

import numpy as np
import pytest

from signed_dpp import cli, kernel, moments, pma, sampler
from signed_dpp.cli import main
from signed_dpp.errors import AmbiguousSignWarning


def test_gen_is_byte_identical(tmp_path):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert main(["gen", "--n", "6", "--lambda", "0.3", "--seed", "42", "--out", a]) == 0
    assert main(["gen", "--n", "6", "--lambda", "0.3", "--seed", "42", "--out", b]) == 0
    assert open(a, "rb").read() == open(b, "rb").read()


def test_gen_large_n(tmp_path):
    out = str(tmp_path / "k.json")
    assert main(["gen", "--n", "24", "--lambda", "0.3", "--seed", "1", "--out", out]) == 0
    assert kernel.read_kernel(out).n == 24


def test_gen_rejects_bad_lambda(tmp_path, capsys):
    out = str(tmp_path / "k.json")
    assert main(["gen", "--n", "6", "--lambda", "0.6", "--seed", "1", "--out", out]) == 1
    assert "lambda" in capsys.readouterr().err


def test_usage_error_exits_one(capsys):
    assert main(["gen", "--n", "6"]) == 1
    assert main(["frobnicate"]) == 1


def test_full_chain_round_trip(tmp_path):
    k_path = str(tmp_path / "k.json")
    m_path = str(tmp_path / "m.json")
    h_path = str(tmp_path / "h.json")
    assert main(["gen", "--n", "8", "--lambda", "0.3", "--seed", "5",
                 "--out", k_path]) == 0
    assert main(["minors", "--kernel", k_path, "--max-order", "4",
                 "--out", m_path]) == 0
    assert main(["pma", "--minors", m_path, "--out", h_path]) == 0
    assert main(["verify", "--kernel", h_path, "--minors", m_path,
                 "--tol", "1e-9"]) == 0
    # the reconstruction matches all orders, not just the inputs
    full = str(tmp_path / "full.json")
    assert main(["minors", "--kernel", k_path, "--max-order", "all",
                 "--out", full]) == 0
    assert main(["verify", "--kernel", h_path, "--minors", full,
                 "--tol", "1e-9"]) == 0


def test_verify_failure_exits_two(tmp_path, capsys):
    k_path = str(tmp_path / "k.json")
    m_path = str(tmp_path / "m.json")
    main(["gen", "--n", "5", "--lambda", "0.3", "--seed", "9", "--out", k_path])
    main(["minors", "--kernel", k_path, "--max-order", "2", "--out", m_path])
    spoiled = json.load(open(m_path))
    key = next(iter(spoiled["minors"]))
    spoiled["minors"][key] += 0.5
    json.dump(spoiled, open(m_path, "w"))
    assert main(["verify", "--kernel", k_path, "--minors", m_path]) == 2
    assert "FAIL" in capsys.readouterr().out


def test_verify_refuses_minors_of_another_size(tmp_path, capsys):
    k_path, m_path = str(tmp_path / "k.json"), str(tmp_path / "m.json")
    k = kernel.generate_admissible(5, 0.3, 1)
    kernel.write_kernel(k_path, k)
    moments.write_minors(m_path, moments.exact_minors(kernel.SignedKernel(k.mat[:4, :4]), "all"))
    assert main(["verify", "--kernel", k_path, "--minors", m_path]) == 2
    captured = capsys.readouterr()
    assert "PASS" not in captured.out
    assert "dimension mismatch: kernel N = 5, minor list N = 4" in captured.err


def test_verify_refuses_an_oversized_minor_order(tmp_path, capsys):
    # C(200, 4) subsets exceed what a minor list holds per order
    k_path, m_path = str(tmp_path / "k.json"), str(tmp_path / "m.json")
    kernel.write_kernel(k_path, kernel.SignedKernel(np.eye(200) * 0.5))
    with open(m_path, "w") as fh:
        json.dump({"n": 200, "minors": {"1": 0.5, "1,2,3,4": 0.0625}}, fh)
    assert main(["verify", "--kernel", k_path, "--minors", m_path]) == 2
    assert "order 4 of N=200" in capsys.readouterr().err


def test_sample_identity_kernel(tmp_path):
    k_path = str(tmp_path / "k.json")
    s_path = str(tmp_path / "s.txt")
    kernel.write_kernel(k_path, kernel.SignedKernel(np.eye(4)))
    assert main(["sample", "--kernel", k_path, "--count", "10", "--seed", "0",
                 "--out", s_path]) == 0
    assert open(s_path).read() == "1 2 3 4\n" * 10


def test_sample_methods_agree_with_library(tmp_path):
    k_path = str(tmp_path / "k.json")
    s_path = str(tmp_path / "s.txt")
    main(["gen", "--n", "5", "--lambda", "0.3", "--seed", "3", "--out", k_path])
    k = kernel.read_kernel(k_path)
    for method, reference in (
            ("exact", sampler.sample_enumerate(k, 30, 7)),
            ("sequential", sampler.sample_sequential_batch(k, 30, 7))):
        assert main(["sample", "--kernel", k_path, "--count", "30", "--seed", "7",
                     "--method", method, "--out", s_path]) == 0
        assert sampler.read_samples(s_path, 5) == reference


def test_sample_an_empty_kernel_by_either_method(tmp_path):
    k_path = str(tmp_path / "k.json")
    with open(k_path, "w") as fh:
        fh.write('{"n": 0, "rows": []}')
    for method in ("exact", "sequential"):
        s_path = str(tmp_path / f"{method}.txt")
        assert main(["sample", "--kernel", k_path, "--count", "3", "--seed", "1",
                     "--method", method, "--out", s_path]) == 0
        assert open(s_path).read() == "-\n" * 3


def test_sample_inadmissible_kernel_exits_two(tmp_path, capsys):
    k_path = str(tmp_path / "k.json")
    s_path = str(tmp_path / "s.txt")
    kernel.write_kernel(k_path, kernel.SignedKernel(np.diag([1.5, 0.5])))
    assert main(["sample", "--kernel", k_path, "--count", "5", "--seed", "0",
                 "--out", s_path]) == 2
    assert "error" in capsys.readouterr().err


def test_estimate_pipeline(tmp_path):
    k_path = str(tmp_path / "k.json")
    s_path = str(tmp_path / "s.txt")
    e_path = str(tmp_path / "est.json")
    m_path = str(tmp_path / "m.json")
    main(["gen", "--n", "6", "--lambda", "0.3", "--seed", "11", "--out", k_path])
    main(["sample", "--kernel", k_path, "--count", "20000", "--seed", "2",
          "--out", s_path])
    assert main(["estimate", "--samples", s_path, "--n", "6",
                 "--max-order", "3", "--out", e_path]) == 0
    main(["minors", "--kernel", k_path, "--max-order", "3", "--out", m_path])
    est = moments.read_minors(e_path)
    true = moments.read_minors(m_path)
    worst = max(abs(est.get(j) - true.get(j)) for j, _ in true.items())
    assert worst <= 0.03


def test_estimate_malformed_line_exits_one(tmp_path, capsys):
    bad = tmp_path / "s.txt"
    bad.write_text("1 2\n5 4\n")
    assert main(["estimate", "--samples", str(bad), "--n", "6",
                 "--max-order", "2", "--out", str(tmp_path / "e.json")]) == 1
    assert "line 2" in capsys.readouterr().err


def test_estimate_and_minors_flag_errors_exit_one(tmp_path, capsys):
    s_path, k_path, out = (str(tmp_path / name) for name in ("s.txt", "k.json", "o.json"))
    (tmp_path / "s.txt").write_text("-\n")
    main(["gen", "--n", "5", "--lambda", "0.3", "--seed", "1", "--out", k_path])
    for n, order in (("0", "2"), ("-3", "2"), ("5", "0"), ("5", "7")):
        assert main(["estimate", "--samples", s_path, "--n", n,
                     "--max-order", order, "--out", out]) == 1
    for order in ("0", "6"):
        assert main(["minors", "--kernel", k_path, "--max-order", order, "--out", out]) == 1
    assert capsys.readouterr().err.count("signed-dpp: error: --") == 6
    assert not (tmp_path / "o.json").exists()


def _tol_fixture(tmp_path):
    k_path, m_path = str(tmp_path / "k.json"), str(tmp_path / "m.json")
    main(["gen", "--n", "8", "--lambda", "0.3", "--seed", "1", "--out", k_path])
    main(["minors", "--kernel", k_path, "--max-order", "4", "--out", m_path])
    return k_path, m_path


def test_pma_tol_must_be_finite_and_nonnegative(tmp_path, capsys):
    _, m_path = _tol_fixture(tmp_path)
    h_path = str(tmp_path / "h.json")
    for tol in ("nan", "-1", "inf"):
        assert main(["pma", "--minors", m_path, "--out", h_path, "--tol", tol]) == 1
    assert capsys.readouterr().err.count("signed-dpp: error: --tol must be finite") == 3
    assert not (tmp_path / "h.json").exists()
    assert main(["pma", "--minors", m_path, "--out", h_path, "--tol", "0"]) == 0


def test_verify_tol_must_be_finite_and_nonnegative(tmp_path, capsys):
    k_path, m_path = _tol_fixture(tmp_path)
    for tol in ("nan", "-1", "inf"):
        assert main(["verify", "--kernel", k_path, "--minors", m_path, "--tol", tol]) == 1
    captured = capsys.readouterr()
    assert captured.err.count("signed-dpp: error: --tol must be finite") == 3
    assert "FAIL" not in captured.out
    assert main(["verify", "--kernel", k_path, "--minors", m_path, "--tol", "0"]) == 0


def test_missing_input_exits_one(tmp_path):
    assert main(["minors", "--kernel", str(tmp_path / "nope.json"),
                 "--max-order", "2", "--out", str(tmp_path / "m.json")]) == 1


def test_input_that_is_a_directory_exits_one(tmp_path, capsys):
    k_path = str(tmp_path / "k.json")
    assert main(["gen", "--n", "4", "--lambda", "0.3", "--seed", "1", "--out", k_path]) == 0
    assert main(["verify", "--kernel", str(tmp_path), "--minors", k_path]) == 1
    assert main(["sample", "--kernel", str(tmp_path), "--count", "3", "--seed", "1",
                 "--out", str(tmp_path / "s.txt")]) == 1
    err = capsys.readouterr().err
    assert err.count(f"signed-dpp: error: [Errno 21] Is a directory: {str(tmp_path)!r}") == 2
    assert "Traceback" not in err


def test_input_that_is_not_utf8_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad"
    bad.write_bytes(b'{"n": 1, "rows": [[0.5]]}\xff')
    k_path = str(tmp_path / "k.json")
    assert main(["gen", "--n", "4", "--lambda", "0.3", "--seed", "1", "--out", k_path]) == 0
    assert main(["verify", "--kernel", str(bad), "--minors", k_path]) == 1
    assert main(["pma", "--minors", str(bad), "--out", str(tmp_path / "h.json")]) == 1
    assert main(["estimate", "--samples", str(bad), "--n", "4", "--out", str(tmp_path / "e.json")]) == 1
    err = capsys.readouterr().err
    assert err.count("signed-dpp: error: an input file is not UTF-8 text: ") == 3
    assert "Traceback" not in err and not (tmp_path / "h.json").exists()


def test_verify_names_the_input_that_is_not_utf8(tmp_path, capsys):
    # verify reads two files: the message names the one that is not UTF-8
    k_path, m_path = _tol_fixture(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"n": 1, "rows": [[0.5]]}\xff')
    for argv in (["--kernel", str(bad), "--minors", m_path], ["--kernel", k_path, "--minors", str(bad)]):
        assert main(["verify", *argv]) == 1
        err = capsys.readouterr().err
        assert err == (f"signed-dpp: error: an input file is not UTF-8 text: {str(bad)!r} "
                       f"(invalid start byte at byte 25)\n")


def test_failed_write_names_the_out_path(tmp_path, capsys):
    # a directory in the way, and a directory that does not exist: the
    # message names --out, and no temporary file is left behind
    (tmp_path / "taken").mkdir()
    for out in (tmp_path / "taken", tmp_path / "missing" / "k.json"):
        assert main(["gen", "--n", "4", "--lambda", "0.3", "--seed", "1", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("signed-dpp: error: [Errno ") and err.endswith(f": {str(out)!r}\n")
        assert ".tmp-" not in err
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["taken"]


def test_kernel_entry_that_is_not_a_number_exits_one(tmp_path, capsys):
    k_path = str(tmp_path / "k.json")
    with open(k_path, "w") as fh:
        json.dump({"n": 2, "rows": [[True, 0.1], [0.1, 0.5]]}, fh)
    assert main(["minors", "--kernel", k_path, "--max-order", "2",
                 "--out", str(tmp_path / "m.json")]) == 1
    assert "entry (1,1) is not a number" in capsys.readouterr().err


def test_minors_value_beyond_the_float_range_exits_one(tmp_path, capsys):
    m_path = str(tmp_path / "m.json")
    with open(m_path, "w") as fh:
        fh.write('{"n": 1, "minors": {"1": 1%s}}' % ("0" * 400))
    assert main(["pma", "--minors", m_path, "--out", str(tmp_path / "h.json")]) == 1
    err = capsys.readouterr().err
    assert "value for '1' is beyond the float range" in err and "Traceback" not in err


def test_minors_key_beyond_int64_exits_one(tmp_path, capsys):
    m_path = str(tmp_path / "m.json")
    with open(m_path, "w") as fh:
        fh.write('{"n": 2, "minors": {"99999999999999999999": 0.5}}')
    assert main(["pma", "--minors", m_path, "--out", str(tmp_path / "h.json")]) == 1
    err = capsys.readouterr().err
    assert "signed-dpp: error: minors JSON: index 99999999999999999999 out of range 1..2" in err
    assert "Traceback" not in err


def test_minors_of_a_huge_ground_set_exit_two_before_any_ranking(tmp_path, capsys, monkeypatch):
    def no_ranking(*args):
        raise AssertionError("ranked a subset of an order that does not fit")

    monkeypatch.setattr(moments, "colex_rank", no_ranking)
    m_path = str(tmp_path / "m.json")
    for entries in ('{"1,2": 0.5}', '{}'):
        with open(m_path, "w") as fh:
            fh.write('{"n": 100000000000000000000, "minors": %s}' % entries)
        assert main(["pma", "--minors", m_path, "--out", str(tmp_path / "h.json")]) == 2
        assert "signed-dpp: error: order 1 of N=100000000000000000000" in capsys.readouterr().err


def test_main_builds_its_parser_once():
    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli.build_parser()


def test_main_calls_the_command_the_module_holds_now(monkeypatch):
    # the parser is built before the command is replaced
    cli._parser()
    seen = []
    monkeypatch.setattr(cli, "cmd_verify", lambda args: seen.append(args.minors) or 0)
    assert cli.main(["verify", "--kernel", "k.json", "--minors", "m.json"]) == 0
    assert seen == ["m.json"]


def test_pma_inconsistent_minors_exits_two(tmp_path, capsys):
    k_path = str(tmp_path / "k.json")
    m_path = str(tmp_path / "m.json")
    main(["gen", "--n", "5", "--lambda", "0.3", "--seed", "21", "--out", k_path])
    main(["minors", "--kernel", k_path, "--max-order", "4", "--out", m_path])
    doc = json.load(open(m_path))
    doc["minors"]["1,2,3"] += 0.3
    json.dump(doc, open(m_path, "w"))
    assert main(["pma", "--minors", m_path, "--out", str(tmp_path / "h.json")]) == 2
    err = capsys.readouterr().err
    assert "triangle" in err or "4-set" in err or "constraint" in err


def test_pma_solution_set_flag(tmp_path):
    k_path = str(tmp_path / "k.json")
    m_path = str(tmp_path / "m.json")
    h_path = str(tmp_path / "h.json")
    main(["gen", "--n", "4", "--lambda", "0.3", "--seed", "31", "--out", k_path])
    main(["minors", "--kernel", k_path, "--max-order", "4", "--out", m_path])
    assert main(["pma", "--minors", m_path, "--out", h_path,
                 "--solution-set"]) == 0
    sidecar = json.load(open(h_path + ".solutions.json"))
    assert sidecar["pairs"][0] == "1,2"
    members = json.load(open(h_path + ".set.json"))["kernels"]
    assert len(members) == 1 << len(sidecar["null_basis"])
    base = kernel.read_kernel(h_path)
    assert any(np.allclose(np.array(m["rows"]), base.mat, atol=0)
               for m in members)


def test_pma_solution_set_lists_kernel_json(tmp_path):
    k_path, m_path, h_path = (str(tmp_path / name) for name in ("k.json", "m.json", "h.json"))
    main(["gen", "--n", "5", "--lambda", "0.3", "--seed", "8", "--out", k_path])
    main(["minors", "--kernel", k_path, "--max-order", "4", "--out", m_path])
    assert main(["pma", "--minors", m_path, "--out", h_path, "--solution-set"]) == 0
    listed = json.load(open(h_path + ".set.json"))["kernels"]
    sol = pma.solve_pma(moments.read_minors(m_path))
    members = pma.describe_solution_set(sol)
    assert len(listed) == len(members) == 1 << sol.null_dimension
    assert listed == [json.loads(kernel.kernel_to_json(m)) for m in members]


def test_pma_solution_set_above_cap_writes_nothing(tmp_path, capsys):
    k_path, s_path, e_path, h_path = (str(tmp_path / name) for name in
                                      ("k.json", "s.txt", "e.json", "h.json"))
    assert main(["gen", "--n", "6", "--lambda", "0.3", "--seed", "5", "--out", k_path]) == 0
    assert main(["sample", "--kernel", k_path, "--count", "20000", "--seed", "3",
                 "--out", s_path]) == 0
    assert main(["estimate", "--samples", s_path, "--n", "6", "--out", e_path]) == 0
    with pytest.warns(AmbiguousSignWarning):
        assert main(["pma", "--minors", e_path, "--out", h_path, "--tol", "0.01",
                     "--solution-set"]) == 2
    assert "enumeration cap" in capsys.readouterr().err
    assert not any(p.name.startswith("h.json") for p in tmp_path.iterdir())


def test_batches_above_64_items_exit_two(tmp_path, capsys):
    k_path, s_path, e_path = (str(tmp_path / name) for name in ("k.json", "s.txt", "e.json"))
    (tmp_path / "s.txt").write_text("1 65\n")
    assert main(["estimate", "--samples", s_path, "--n", "65", "--out", e_path]) == 2
    assert main(["gen", "--n", "65", "--lambda", "0.3", "--seed", "1", "--out", k_path]) == 0
    assert main(["sample", "--kernel", k_path, "--count", "10", "--seed", "1",
                 "--method", "sequential", "--out", s_path]) == 2
    assert capsys.readouterr().err.count("capped at 64") == 2


def test_help_exits_zero():
    assert main(["--help"]) == 0
