import json

import numpy as np
import pytest

from signed_dpp import kernel, moments, pma, sampler
from signed_dpp.cli import main


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


def test_missing_input_exits_one(tmp_path):
    assert main(["minors", "--kernel", str(tmp_path / "nope.json"),
                 "--max-order", "2", "--out", str(tmp_path / "m.json")]) == 1


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


def test_help_exits_zero():
    assert main(["--help"]) == 0
