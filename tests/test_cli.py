"""Command-line driver: schemas, exit codes, determinism, formatting."""

import json
import math

import pytest

from gibbslab.cli import main


def write_cfg(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def invoke(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


STD_CHANNEL = {"d": 2, "k": 3, "p": ["1/2", "1/2"], "eps": "1/4"}


# --------------------------------------------------------------- happy path

def test_badconfig_csv_has_metadata_and_exact_fractions(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.json", {**STD_CHANNEL, "n_max": 4})
    code, out, err = invoke(capsys, ["bs-badconfig", "--config", cfg])
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0].startswith("# gibbslab=")
    assert "# subcommand=bs-badconfig" in lines
    assert "# mode=rational" in lines
    assert any(line.startswith("# config_hash=") for line in lines)
    assert "threads" not in out
    header = next(line for line in lines if not line.startswith("#"))
    assert header == "n,nu_0_2n,nu_2n,cond,n_times_cond"
    assert "1/256" in out  # nu([0,2]) lands in the n=1 row
    assert "1/80" in out


def test_badconfig_float_survives_underflowing_cylinders(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.json",
                    {"d": 2, "k": 3, "p": [0.5, 0.5], "eps": 0.25, "n_max": 700})
    code, out, err = invoke(capsys, ["bs-badconfig", "--config", cfg, "--mode", "float"])
    assert code == 0 and err == ""
    rows = [line.split(",") for line in out.splitlines()
            if line and not line.startswith("#")][1:]
    assert [int(r[0]) for r in rows] == list(range(1, 701))
    assert float(rows[-1][2]) == 0.0  # nu([2^700]) itself underflows
    conds = [float(r[3]) for r in rows]
    assert all(math.isfinite(c) and c > 0 for c in conds)


def test_out_file_matches_stdout(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.json", {**STD_CHANNEL, "n_max": 3})
    code, out, _ = invoke(capsys, ["bs-badconfig", "--config", cfg])
    assert code == 0
    dest = tmp_path / "table.csv"
    code2, stdout2, _ = invoke(capsys, ["bs-badconfig", "--config", cfg,
                                        "--out", str(dest)])
    assert code2 == 0 and stdout2 == ""
    assert dest.read_text() == out


def test_repeat_runs_are_byte_identical(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.json",
                    {**STD_CHANNEL, "experiment": "smb", "n": 40, "samples": 64})
    runs = []
    for threads in ("1", "4", "1"):
        code, out, _ = invoke(capsys, ["bs-entropy", "--config", cfg,
                                       "--mode", "float", "--seed", "11",
                                       "--threads", threads])
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1] == runs[2]


def test_seed_is_recorded_and_changes_sampled_output(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.json",
                    {**STD_CHANNEL, "experiment": "smb", "n": 30, "samples": 64})
    _, out_a, _ = invoke(capsys, ["bs-entropy", "--config", cfg,
                                  "--mode", "float", "--seed", "1"])
    _, out_b, _ = invoke(capsys, ["bs-entropy", "--config", cfg,
                                  "--mode", "float", "--seed", "2"])
    doc_a, doc_b = json.loads(out_a), json.loads(out_b)
    assert doc_a["meta"]["seed"] == 1 and doc_b["meta"]["seed"] == 2
    assert doc_a["result"]["mean_nats"] != doc_b["result"]["mean_nats"]


def test_probe_converges_to_a_fair_flip(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.json", {
        "experiment": "probe", "rho": "1/8", "m": 12, "omega": "0" * 12,
        "n_range": list(range(6, 13)), "tol": 1e-3, "stability_window": 3})
    code, out, _ = invoke(capsys, ["wg-converge", "--config", cfg])
    assert code == 0
    assert "# converged=true" in out.splitlines()
    assert "# limit=1/2" in out.splitlines()
    assert out.splitlines()[-1] == "12,1/2"


def test_badsets_frequency_reports_the_reference_bound(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.json",
                    {"experiment": "frequency", "k_list": [4, 6], "samples": 500})
    code, out, _ = invoke(capsys, ["wg-badsets", "--config", cfg, "--seed", "3"])
    assert code == 0
    header = next(l for l in out.splitlines() if not l.startswith("#"))
    assert header == "k,frequency,stderr,bound"
    assert out == invoke(capsys, ["wg-badsets", "--config", cfg, "--seed", "3"])[1]


def test_oracle_cylinder_agreement_over_the_wire(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.json",
                    {**STD_CHANNEL, "experiment": "channel_cylinder",
                     "y": [0, 2, 2]})
    code, out, _ = invoke(capsys, ["oracle", "--config", cfg])
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["agree"] is True
    assert doc["result"]["oracle"] == "1/2048"
    assert doc["result"]["fast"] == "1/2048"


def test_tv_identity_over_the_wire(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.json", {
        "experiment": "tv_identity",
        "nu": {"kind": "weak_gibbs", "rho": "1/2", "m": 6},
        "mu": {"kind": "fair_coin"},
        "lam": {"lo": 0, "hi": 0}, "delta": {"lo": 0, "hi": 6}})
    code, out, _ = invoke(capsys, ["relent", "--config", cfg])
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["exact"] is True
    assert doc["result"]["equal"] is True
    assert doc["result"]["lhs"] == doc["result"]["rhs"]


def test_provider_recursion_product_of_marginals(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.json", {
        "experiment": "window",
        "nu": {"kind": "bitshift", **STD_CHANNEL},
        "mu": {"kind": "product_of_marginals",
               "of": {"kind": "bitshift", **STD_CHANNEL}},
        "window": {"lo": 0, "hi": 2}})
    code, out, _ = invoke(capsys, ["relent", "--config", cfg])
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["value_nats"] > 0.0  # channel memory vs its marginals
    assert doc["result"]["infinite"] is False


def test_product_of_marginals_rejects_nonstationary_inner(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.json", {
        "experiment": "window",
        "nu": {"kind": "product_of_marginals",
               "of": {"kind": "weak_gibbs", "rho": "1/2", "m": 4}},
        "mu": {"kind": "fair_coin"},
        "window": {"lo": 0, "hi": 3}})
    rec = expect_error(capsys, ["relent", "--config", cfg], 1, "invalid-config")
    assert "stationary" in rec["message"]


def test_relent_rejects_measures_on_different_alphabets(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.json", {
        "experiment": "window",
        "nu": {"kind": "bitshift", **STD_CHANNEL},
        "mu": {"kind": "fair_coin"},
        "window": {"lo": 1, "hi": 1}})
    rec = expect_error(capsys, ["relent", "--config", cfg], 1, "invalid-config")
    assert "bitshift(d=2,k=3,eps=1/4) and fair-coin have different alphabets" in rec["message"]


def test_bernoulli_provider_with_fraction_strings(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.json", {
        "experiment": "density",
        "nu": {"kind": "bernoulli", "alphabet": [0, 1],
               "weights": ["1/4", "3/4"]},
        "mu": {"kind": "fair_coin"}, "n_max": 3})
    code, out, _ = invoke(capsys, ["relent", "--config", cfg])
    assert code == 0
    rows = [l for l in out.splitlines() if not l.startswith("#")][1:]
    assert len(rows) == 3


def test_precision_flag_trims_float_columns(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.json",
                    {**STD_CHANNEL, "experiment": "bounds", "n_max": 3})
    code, out, _ = invoke(capsys, ["bs-entropy", "--config", cfg,
                                   "--precision", "6"])
    assert code == 0
    data_rows = [l for l in out.splitlines() if not l.startswith("#")][1:]
    for row in data_rows:
        for cell in row.split(",")[1:]:
            assert len(cell) <= 12  # %.6g keeps cells short


def test_print_schema_lists_every_experiment(capsys):
    code, out, _ = invoke(capsys, ["bs-entropy", "--print-schema"])
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"levels", "bounds", "smb"}
    assert doc["smb"]["additionalProperties"] is False


# --------------------------------------------------------------- exit codes

def expect_error(capsys, argv, code, kind):
    got, out, err = invoke(capsys, argv)
    assert got == code
    record = json.loads(err)
    assert record["error"] == kind
    assert record["exit_code"] == code
    return record


def test_missing_subcommand_and_config(tmp_path, capsys):
    expect_error(capsys, [], 1, "invalid-config")
    expect_error(capsys, ["bs-badconfig"], 1, "invalid-config")
    expect_error(capsys, ["bogus-subcommand"], 1, "invalid-config")


def test_unreadable_and_malformed_config(tmp_path, capsys):
    expect_error(capsys, ["bs-badconfig", "--config",
                          str(tmp_path / "absent.json")], 1, "invalid-config")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    expect_error(capsys, ["bs-badconfig", "--config", str(bad)], 1,
                 "invalid-config")


def test_schema_rejections(tmp_path, capsys):
    extra = write_cfg(tmp_path, "a.json",
                      {**STD_CHANNEL, "n_max": 3, "bogus": 1})
    expect_error(capsys, ["bs-badconfig", "--config", extra], 1, "invalid-config")
    noexp = write_cfg(tmp_path, "b.json", {**STD_CHANNEL, "n_max": 3})
    rec = expect_error(capsys, ["bs-entropy", "--config", noexp], 1,
                       "invalid-config")
    assert "experiment" in rec["message"]
    badbits = write_cfg(tmp_path, "c.json", {
        "experiment": "probe", "rho": "1/2", "m": 4, "omega": "012",
        "n_range": [2, 3]})
    expect_error(capsys, ["wg-converge", "--config", badbits], 1,
                 "invalid-config")


def test_rational_mode_rejects_bare_floats(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.json",
                    {"d": 2, "k": 3, "p": [0.5, 0.5], "eps": 0.25, "n_max": 3})
    rec = expect_error(capsys, ["bs-badconfig", "--config", cfg], 1,
                       "invalid-config")
    assert "rational mode" in rec["message"]
    code, out, _ = invoke(capsys, ["bs-badconfig", "--config", cfg,
                                   "--mode", "float"])
    assert code == 0


def test_flag_validation(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.json", {**STD_CHANNEL, "n_max": 3})
    expect_error(capsys, ["bs-badconfig", "--config", cfg, "--threads", "0"],
                 1, "invalid-config")
    expect_error(capsys, ["bs-badconfig", "--config", cfg, "--precision", "18"],
                 1, "invalid-config")
    expect_error(capsys, ["bs-badconfig", "--config", cfg, "--precision", "0"],
                 1, "invalid-config")


def test_cap_exceeded_maps_to_exit_two(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.json",
                    {**STD_CHANNEL, "experiment": "levels", "n_max": 20})
    expect_error(capsys, ["bs-entropy", "--config", cfg], 2, "cap-exceeded")


def test_entropy_cap_can_be_lowered_but_not_raised(tmp_path, capsys):
    dest = tmp_path / "never.csv"
    for experiment in ("levels", "bounds"):
        high = write_cfg(tmp_path, "high.json", {**STD_CHANNEL, "experiment": experiment,
                                                 "n_max": 2, "cap": 13})
        rec = expect_error(capsys, ["bs-entropy", "--config", high, "--out", str(dest)],
                           1, "invalid-config")
        assert "13" in rec["message"]
        assert not dest.exists()
        low = write_cfg(tmp_path, "low.json", {**STD_CHANNEL, "experiment": experiment,
                                               "n_max": 3, "cap": 2})
        expect_error(capsys, ["bs-entropy", "--config", low], 2, "cap-exceeded")


def test_numeric_failure_maps_to_exit_three(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.json", {
        **STD_CHANNEL,
        "queries": [{"y": [2], "given": [0, 0]}]})
    expect_error(capsys, ["bs-cylinder", "--config", cfg], 3, "numeric-failure")


def test_failures_write_no_output_file(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.json",
                    {**STD_CHANNEL, "experiment": "levels", "n_max": 20})
    dest = tmp_path / "never.csv"
    code, _, _ = invoke(capsys, ["bs-entropy", "--config", cfg,
                                 "--out", str(dest)])
    assert code == 2
    assert not dest.exists()


def test_non_finite_weight_is_a_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.json", {
        **STD_CHANNEL, "p": [float("nan"), 0.5], "eps": 0.25,
        "queries": [{"y": [0, 2]}]})
    dest = tmp_path / "never.json"
    expect_error(capsys, ["bs-cylinder", "--config", cfg, "--mode", "float",
                          "--out", str(dest)], 1, "invalid-config")
    assert not dest.exists()


def test_non_finite_json_result_maps_to_exit_three(tmp_path, capsys, monkeypatch):
    import gibbslab.cli as cli
    monkeypatch.setitem(cli.RUNNERS, "bs-cylinder",
                        lambda cfg, mode, seed: ("json", {"result": float("nan")}))
    cfg = write_cfg(tmp_path, "c.json", {**STD_CHANNEL, "queries": [{"y": [0]}]})
    dest = tmp_path / "never.json"
    expect_error(capsys, ["bs-cylinder", "--config", cfg, "--out", str(dest)],
                 3, "numeric-failure")
    assert not dest.exists()
