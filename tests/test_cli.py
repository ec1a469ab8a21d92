"""Command-line driver: schemas, exit codes, determinism, formatting."""

import json
import math
import random
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from jsonschema import Draft202012Validator

from gibbslab import ChannelParams, Rng, entropy_levels
from gibbslab import weak_gibbs as wg
from gibbslab.cli import SCHEMAS, SUBCOMMANDS, _JSON_TYPES, _violation, build_parser, main
from gibbslab.core import DRAW_CAP


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


INFINITE_PAIR = {"nu": {"kind": "fair_coin"},
                 "mu": {"kind": "bernoulli", "alphabet": [0, 1], "weights": ["1", "0"]}}


@pytest.mark.parametrize("precision", [[], ["--precision", "3"]])
def test_infinite_density_prints_inf(tmp_path, capsys, precision):
    # mu gives the word 1 no mass, so nu's relative entropy to it is infinite
    cfg = write_cfg(tmp_path, "c.json", {"experiment": "density", **INFINITE_PAIR, "n_max": 1})
    code, out, _ = invoke(capsys, ["relent", "--config", cfg, *precision])
    assert code == 0
    assert out.splitlines()[-1] == "1,inf,inf"


def test_infinite_window_value_is_the_string_inf(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.json", {"experiment": "window", **INFINITE_PAIR,
                                         "window": {"lo": 0, "hi": 1}})
    code, out, _ = invoke(capsys, ["relent", "--config", cfg])
    assert code == 0
    result = json.loads(out)["result"]
    assert (result["value_nats"], result["infinite"]) == ("inf", True)


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


def test_flags_may_come_before_the_subcommand(tmp_path, capsys):
    smb = write_cfg(tmp_path, "smb.json", VALID["bs-entropy", "smb"])
    before = invoke(capsys, ["--mode", "float", "--seed", "5", "bs-entropy", "--config", smb])
    after = invoke(capsys, ["bs-entropy", "--config", smb, "--mode", "float", "--seed", "5"])
    assert before == after and before[0] == 0 and '"seed": 5' in before[1]


@pytest.mark.parametrize("argv", [[], ["--mode", "float"]])
def test_flags_without_a_subcommand_exit_one(capsys, argv):
    rec = expect_error(capsys, argv, 1, "invalid-config")
    assert "a subcommand is required" in rec["message"]


def test_unknown_subcommand_names_the_choices(capsys):
    rec = expect_error(capsys, ["bogus"], 1, "invalid-config")
    assert len(SUBCOMMANDS) == 8
    assert all(sub in rec["message"] for sub in SUBCOMMANDS)


@pytest.mark.parametrize("sub", SUBCOMMANDS)
def test_help_lists_every_flag(capsys, sub):
    with pytest.raises(SystemExit) as exit_:
        main([sub, "--help"])
    assert exit_.value.code == 0
    out = capsys.readouterr().out
    for flag in ("--config", "--out", "--mode", "--seed", "--threads", "--precision",
                 "--print-schema"):
        assert flag in out


@pytest.mark.parametrize("sub", SUBCOMMANDS)
def test_every_subcommand_parses_with_the_defaults(sub):
    args = build_parser().parse_args([sub])
    assert (args.subcommand, args.mode, args.seed, args.threads, args.precision) == (
        sub, "rational", 0, 1, None)


def test_unreadable_and_malformed_config(tmp_path, capsys):
    expect_error(capsys, ["bs-badconfig", "--config",
                          str(tmp_path / "absent.json")], 1, "invalid-config")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    expect_error(capsys, ["bs-badconfig", "--config", str(bad)], 1,
                 "invalid-config")


def test_config_that_is_not_an_object_exits_one(tmp_path, capsys):
    rec = expect_error(capsys, ["relent", "--config", write_cfg(tmp_path, "c.json", [])],
                       1, "invalid-config")
    assert rec["message"] == "config must be a JSON object"


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


@pytest.mark.parametrize("setting", [
    {"stability_window": 0}, {"tol": -0.001}, {"tol": float("nan")}, {"tol": float("inf")}])
def test_probe_settings_that_decide_nothing_exit_one(tmp_path, capsys, setting):
    # the schema rejects the first two; JSON's NaN and Infinity pass
    # "minimum": 0, and the probe rejects them
    cfg = write_cfg(tmp_path, "c.json", {**VALID["wg-converge", "probe"], **setting})
    rec = expect_error(capsys, ["wg-converge", "--config", cfg], 1, "invalid-config")
    assert next(iter(setting)) in rec["message"]


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


def test_capacity_grid_over_the_evaluation_cap_exits_two(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.json", {"d": 2, "k": 5, "eps": "1/4", "grid": 1000000})
    rec = expect_error(capsys, ["bs-capacity", "--config", cfg], 2, "cap-exceeded")
    assert "over cap" in rec["message"]


def test_an_allocation_numpy_refuses_exits_two(tmp_path, capsys, monkeypatch):
    # the draw cap stops every config-sized draw first, so numpy's refusal
    # of an allocation is raised here in its own words
    def refuse(k, samples, rng):
        raise MemoryError("Unable to allocate 3.55 PiB for an array with shape "
                          "(1, 500000000000001) and data type int64")

    monkeypatch.setattr(wg, "bad_set_frequency", refuse)
    dest = tmp_path / "never.csv"
    cfg = write_cfg(tmp_path, "c.json",
                    {"experiment": "frequency", "k_list": [4], "samples": 1})
    got, out, err = invoke(capsys, ["wg-badsets", "--config", cfg, "--out", str(dest)])
    assert (got, out, err.count("\n")) == (2, "", 1)
    record = json.loads(err)
    assert (record["error"], record["exit_code"]) == ("cap-exceeded", 2)
    assert record["message"].startswith("MemoryError: Unable to allocate")
    assert not dest.exists()


class _NoDraws:
    """A generator that fails the test on any draw."""

    def __getattr__(self, name):
        pytest.fail(f"drew with {name} past the draw cap")


@pytest.mark.parametrize("sub, payload, shape", [
    # B_k at k = 10^15 spans 5 * 10^14 + 1 sites: 3.55 PiB of draws
    ("wg-badsets", {"experiment": "frequency", "k_list": [10 ** 15], "samples": 1},
     (1, 5 * 10 ** 14 + 1)),
    # B_4 spans 3 sites, so 11,184,811 samples is the first count past 2^28 bytes
    ("wg-badsets", {"experiment": "frequency", "k_list": [4], "samples": 11_184_811},
     (11_184_811, 3)),
    ("wg-badsets", {"experiment": "correlation_hist", "samples": 4_194_305, "depth": 8},
     (4_194_305, 8)),
    # a batch of 2048 words of n = 16384 symbols draws 2048 x 16385 jitters
    ("bs-entropy", {**STD_CHANNEL, "experiment": "smb", "n": 16384, "samples": 4096},
     (2048, 16385)),
], ids=["frequency-huge", "frequency", "correlation_hist", "smb"])
def test_draw_arrays_over_the_byte_cap_exit_two_before_any_draw(
        tmp_path, capsys, monkeypatch, sub, payload, shape):
    monkeypatch.setattr(Rng, "generator", lambda self: _NoDraws())
    monkeypatch.setattr(Rng, "task_generator", lambda self, task: _NoDraws())
    dest = tmp_path / "never.csv"
    cfg = write_cfg(tmp_path, "c.json", payload)
    for mode in ("rational", "float"):
        rec = expect_error(capsys, [sub, "--config", cfg, "--mode", mode, "--out", str(dest)],
                           2, "cap-exceeded")
        rows, cols = shape
        assert rec["message"] == (f"{rows} x {cols} random draws need {8 * rows * cols} "
                                  f"bytes, over the cap of {DRAW_CAP}")
        assert not dest.exists()


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


@pytest.mark.parametrize("n", [429, 600])
def test_float_conditional_survives_underflow(tmp_path, capsys, n):
    # nu(0 | 2^n) is 1.13e-131 at n = 429 and 3.77e-183 at n = 600; nu([0, 2^n])
    # underflows a double at both, and nu([2^n]) at 600
    query = {"queries": [{"y": [0], "given": [2] * n}]}
    answers = []
    for mode, channel in (("float", {"d": 2, "k": 3, "p": [0.5, 0.5], "eps": 0.25}),
                          ("rational", STD_CHANNEL)):
        cfg = write_cfg(tmp_path, f"{mode}.json", {**channel, **query})
        code, out, err = invoke(capsys, ["bs-cylinder", "--config", cfg, "--mode", mode])
        assert code == 0 and err == ""
        answers.append(json.loads(out)["results"][0]["conditional"])
    got, want = Fraction(answers[0]), Fraction(answers[1])
    assert want > 0 and abs(got - want) <= Fraction(1, 10**12) * want


def test_float_conditional_is_the_rounded_quotient(tmp_path, capsys):
    # nu(0 | 2) is exactly 1/80, so the float conditional is the double 0.0125
    cfg = write_cfg(tmp_path, "c.json", {**STD_CHANNEL, "queries": [{"y": [0], "given": [2]}]})
    code, out, err = invoke(capsys, ["bs-cylinder", "--config", cfg, "--mode", "float"])
    assert code == 0 and err == ""
    assert json.loads(out)["results"][0]["conditional"] == 0.0125
    # a given with no mass still fails in float mode
    zero = write_cfg(tmp_path, "z.json", {**STD_CHANNEL, "queries": [{"y": [2], "given": [0, 0]}]})
    expect_error(capsys, ["bs-cylinder", "--config", zero, "--mode", "float"], 3,
                 "numeric-failure")


def _floats(v):
    """v with every int made a float (2 -> 2.0), bools and strings kept."""
    if isinstance(v, dict):
        return {k: _floats(x) for k, x in v.items()}
    if isinstance(v, list):
        return [_floats(x) for x in v]
    return float(v) if type(v) is int else v


def _unhashed(out):
    """A run's output without its config hash, which hashes the config as
    written (so 2.0 and 2 hash apart)."""
    return [line for line in out.splitlines() if "config_hash" not in line]


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_bs_cylinder_reads_integral_floats_as_ints(tmp_path, capsys, mode):
    # the schema calls 2.0 an integer; a float used to exit 1 with a TypeError
    # in bs-cylinder, bs-badconfig (n_max), wg-converge (m) and others
    runs = {}
    for (sub, exp), cfg in VALID.items():
        got = [invoke(capsys, [sub, "--config", write_cfg(tmp_path, name, c), "--mode", mode])
               for name, c in (("f.json", _floats(cfg)), ("i.json", cfg))]
        assert got[0][0] == got[1][0] and got[0][2] == got[1][2], (sub, exp)
        assert _unhashed(got[0][1]) == _unhashed(got[1][1]), (sub, exp)
        assert got[0][1] != got[1][1] or got[0][0] != 0  # hashed as written
        runs[sub, exp] = got[0]
    # n_max, m and a provider's d and k (behind a $ref) each used to fail
    assert runs["bs-badconfig", None][0] == runs["wg-converge", "probe"][0] == 0
    assert runs["relent", "window"][0] == 0
    code, out, err = runs["bs-cylinder", None]
    entry = json.loads(out)["results"][0]
    assert code == 0 and err == "" and all(type(v) is int for v in entry["y"] + entry["given"])


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


# --------------------------------------------------------------- config checking
# The CLI checks configs with its own walker over SCHEMAS; jsonschema is a
# test dependency only, and serves here as the walker's independent oracle.

KEYWORDS = {"type", "oneOf", "const", "enum", "pattern", "minLength", "minItems",
            "minimum", "maximum", "required", "properties", "additionalProperties",
            "patternProperties", "items", "$ref", "$defs"}

PAIR = {"kind": "product_of_marginals", "of": {"kind": "bitshift", **STD_CHANNEL}}
GIBBS = {"kind": "weak_gibbs", "rho": "1/2", "m": 6}

# one valid config per (subcommand, experiment), with its optional keys set;
# each runs in float mode, and in rational mode unless it is in INEXACT
VALID = {
    ("wg-converge", "probe"): {
        "experiment": "probe", "rho": "1/8", "m": 12, "omega": "0" * 12,
        "n_range": [6, 7], "target": 1, "tol": 1e-3, "stability_window": 3},
    ("wg-converge", "glued"): {
        "experiment": "glued", "rho": 0.5, "m": 6, "omega": "0101", "eta": "11",
        "n_list": [2, 3]},
    ("wg-badsets", "frequency"): {
        "experiment": "frequency", "k_list": [4, 6], "samples": 500},
    ("wg-badsets", "correlation_hist"): {
        "experiment": "correlation_hist", "samples": 10, "depth": 8},
    ("wg-badsets", "tail_fraction"): {
        "experiment": "tail_fraction", "rho": "1/2", "m": 6, "omega": "01",
        "eps": 0.03, "n_list": [2], "samples": 10, "tail_depth": 16},
    ("bs-cylinder", None): {**STD_CHANNEL, "queries": [{"y": [0, 2], "given": [2]}]},
    ("bs-badconfig", None): {**STD_CHANNEL, "n_max": 4},
    ("bs-entropy", "levels"): {**STD_CHANNEL, "experiment": "levels", "n_max": 3,
                               "cap": 12},
    ("bs-entropy", "bounds"): {**STD_CHANNEL, "experiment": "bounds", "n_max": 3,
                               "cap": 3},
    ("bs-entropy", "smb"): {**STD_CHANNEL, "experiment": "smb", "n": 40, "samples": 64},
    ("bs-capacity", None): {"d": 2, "k": 3, "eps": "1/4", "grid": 8, "refine": 0,
                            "n_eval": 5},
    ("relent", "window"): {"experiment": "window", "nu": {"kind": "bitshift", **STD_CHANNEL},
                           "mu": PAIR, "window": {"lo": 0, "hi": 2}},
    ("relent", "density"): {
        "experiment": "density", "n_max": 3, "lo": 1, "mu": {"kind": "fair_coin"},
        "nu": {"kind": "bernoulli", "alphabet": [0, 1], "weights": ["1/4", 0.75]}},
    ("relent", "tv_identity"): {"experiment": "tv_identity", "nu": GIBBS,
                                "mu": {"kind": "fair_coin"},
                                "lam": {"lo": 0, "hi": 0}, "delta": {"lo": 0, "hi": 6}},
    ("relent", "conditional_gap"): {
        "experiment": "conditional_gap", "nu": {"kind": "bitshift", **STD_CHANNEL},
        "lam": {"lo": 0, "hi": 1}, "n_max": 3, "mu": PAIR},
    ("oracle", "channel_cylinder"): {**STD_CHANNEL, "experiment": "channel_cylinder",
                                     "y": [0, 2, 2]},
    ("oracle", "channel_distribution"): {**STD_CHANNEL,
                                         "experiment": "channel_distribution", "n": 2},
    ("oracle", "gibbs_conditional"): {"experiment": "gibbs_conditional", "rho": "1/2",
                                      "m": 4, "fixed": {"0": 1, "3": 0}},
    ("oracle", "block_entropy"): {**STD_CHANNEL, "experiment": "block_entropy", "n": 3},
}


def subschemas(schema):
    """schema and every schema nested inside it."""
    yield schema
    for key, value in schema.items():
        if key in ("properties", "patternProperties", "$defs"):
            for sub in value.values():
                yield from subschemas(sub)
        elif key == "items":
            yield from subschemas(value)
        elif key == "oneOf":
            for sub in value:
                yield from subschemas(sub)


def parts(value):
    """value and every list item and object value nested inside it."""
    yield value
    if isinstance(value, dict):
        value = list(value.values())
    for sub in value if isinstance(value, list) else ():
        yield from parts(sub)


NAMES = sorted({name for schema in SCHEMAS.values() for sub in subschemas(schema)
                for name in sub.get("properties", {})}) + ["bogus", "0", "12", "x y"]
# swapped-in values: JSON edge cases, and every piece of the valid configs,
# which keeps a share of the mutated configs valid
EDGE_VALUES = [True, False, None, 0, 1, -1, 1.0, 2.5, 13, 1e300, "", "x", "1/2", "01",
               [], {}, [True], [1.0], {"lo": 0, "hi": True}, {"0": True}]
PIECES = [piece for cfg in VALID.values() for piece in parts(cfg)]


def random_value(rnd, depth=0):
    """An edge value or a piece of a valid config, or now and then a small
    list or object of them."""
    r = rnd.random()
    if depth < 2 and r < 0.1:
        return [random_value(rnd, depth + 1) for _ in range(rnd.randrange(3))]
    if depth < 2 and r < 0.2:
        return {rnd.choice(NAMES): random_value(rnd, depth + 1)
                for _ in range(rnd.randrange(3))}
    return rnd.choice(EDGE_VALUES if r < 0.6 else PIECES)


def mutated(rnd, node):
    """node after one random edit somewhere inside it: a dropped key or item,
    an added one, or a value swapped for another."""
    if isinstance(node, dict) and node and rnd.random() < 0.5:
        key = rnd.choice(sorted(node))
        return {**node, key: mutated(rnd, node[key])}
    if isinstance(node, list) and node and rnd.random() < 0.5:
        i = rnd.randrange(len(node))
        return node[:i] + [mutated(rnd, node[i])] + node[i + 1:]
    edit = rnd.choice(("drop", "add", "swap"))
    if edit == "drop" and isinstance(node, dict) and node:
        key = rnd.choice(sorted(node))
        return {k: v for k, v in node.items() if k != key}
    if edit == "drop" and isinstance(node, list) and node:
        i = rnd.randrange(len(node))
        return node[:i] + node[i + 1:]
    if edit == "add" and isinstance(node, dict):
        return {**node, rnd.choice(NAMES): random_value(rnd)}
    if edit == "add" and isinstance(node, list):
        return node + [random_value(rnd)]
    return random_value(rnd)


def test_every_schema_has_a_valid_example():
    assert set(VALID) == set(SCHEMAS)
    for key, cfg in VALID.items():
        assert _violation(SCHEMAS[key], cfg, SCHEMAS[key]) is None, key


# the two VALID configs that give a probability as a bare JSON float, which
# rational mode refuses
INEXACT = {("wg-converge", "glued"), ("relent", "density")}


@pytest.mark.parametrize("key", sorted(VALID, key=str))
def test_every_valid_config_runs(tmp_path, capsys, key):
    sub, _ = key
    cfg = write_cfg(tmp_path, "c.json", VALID[key])
    assert invoke(capsys, [sub, "--config", cfg, "--mode", "float"])[0] == 0
    code, _, err = invoke(capsys, [sub, "--config", cfg])
    if key in INEXACT:
        assert code == 1 and "rational mode needs exact numbers" in err
    else:
        assert code == 0, err


def test_schemas_are_valid_draft_2020_12():
    for schema in SCHEMAS.values():
        Draft202012Validator.check_schema(schema)


def test_schemas_use_only_the_checked_keywords():
    for schema in SCHEMAS.values():
        for sub in subschemas(schema):
            assert set(sub) <= KEYWORDS, set(sub) - KEYWORDS
            assert sub.get("type", "object") in _JSON_TYPES
            if "$ref" in sub:  # the walker resolves only a lone local $ref
                assert set(sub) == {"$ref"} and sub["$ref"].startswith("#/$defs/")
            assert not {"const", "enum"} <= set(sub)
            assert sub.get("additionalProperties", False) is False


# Draft 2020-12 semantics the walker must keep, including some that no
# mutation of SCHEMAS can tell apart: its oneOf forms and its anchored patterns
EDGE_CASES = [  # schema, value, valid
    ({"type": "integer"}, 1.0, True),
    ({"type": "integer"}, True, False),
    ({"type": "number"}, False, False),
    ({"enum": [0, 1]}, True, False),
    ({"enum": [0, 1]}, 1.0, True),
    ({"const": 1}, True, False),
    ({"oneOf": [{"type": "number"}, {"type": "integer"}]}, 1, False),
    ({"oneOf": [{"type": "number"}, {"type": "integer"}]}, 0.5, True),
    ({"pattern": "[01]"}, "x1y", True),
    ({"minimum": 1, "maximum": 12}, 1, True),
    ({"minimum": 1, "maximum": 12}, 12, True),
    ({"minimum": 1, "maximum": 12}, 13, False),
    ({"minimum": 1, "minLength": 1, "minItems": 1}, 0.5, False),
    ({"minimum": 1, "minLength": 1, "minItems": 1}, "0", True),
    ({"properties": {"a": {"type": "string"}},
      "patternProperties": {"^a$": {"minLength": 2}}}, {"a": "x"}, False),
    ({"$defs": {"n": {"type": "integer"}}, "items": {"$ref": "#/$defs/n"}}, [1, "2"], False),
]


@pytest.mark.parametrize("schema, value, valid", EDGE_CASES)
def test_checker_keeps_draft_2020_12_edge_cases(schema, value, valid):
    assert Draft202012Validator(schema).is_valid(value) is valid
    assert (_violation(schema, value, schema) is None) is valid


@pytest.mark.parametrize("key", list(VALID), ids=lambda key: f"{key[0]}-{key[1]}")
def test_checker_agrees_with_jsonschema_on_mutated_configs(key):
    schema = SCHEMAS[key]
    oracle = Draft202012Validator(schema)

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def check(seed):
        rnd = random.Random(seed)  # hypothesis draws the seed, not each edit
        for _ in range(10):
            cfg = VALID[key]
            for _ in range(rnd.choice((1, 1, 2, 3))):
                cfg = mutated(rnd, cfg)
            found = _violation(schema, cfg, schema)
            assert (found is None) == oracle.is_valid(cfg), (cfg, found)
    check()


def test_rejection_names_the_json_path(tmp_path, capsys):
    cases = [
        ("bs-cylinder", {**STD_CHANNEL, "queries": [{"y": [2]}, {"y": []}]},
         "$.queries[1].y", "[]"),
        ("bs-cylinder", {**STD_CHANNEL, "queries": [{"y": [0, 2.5]}]},
         "$.queries[0].y[1]", "2.5"),
        ("bs-badconfig", {**STD_CHANNEL, "p": ["1/2", True], "n_max": 3}, "$.p[1]", "True"),
        ("bs-badconfig", {**STD_CHANNEL, "n_max": 3, "bogus": 1}, "$.bogus", "bogus"),
        ("bs-badconfig", STD_CHANNEL, "$", "n_max"),
        ("relent", {**VALID[("relent", "window")], "window": {"lo": 0, "hi": "2"}},
         "$.window.hi", "'2'"),
        ("oracle", {**VALID[("oracle", "gibbs_conditional")], "fixed": {"0": 1, "2": 2}},
         '$.fixed["2"]', "2"),
    ]
    for subcommand, payload, path, shown in cases:
        cfg = write_cfg(tmp_path, "c.json", payload)
        rec = expect_error(capsys, [subcommand, "--config", cfg], 1, "invalid-config")
        assert rec["message"].startswith(f"config rejected at {path}: "), rec["message"]
        assert shown in rec["message"].split(": ", 1)[1]


def test_rejection_inside_a_provider_names_the_value(tmp_path, capsys):
    bad = {"kind": "bitshift", **STD_CHANNEL, "d": "x"}
    base = VALID[("relent", "window")]
    cases = [  # nu, JSON path, reason
        (bad, "$.nu.d", "'x' is not of type 'integer'"),
        ({"kind": "product_of_marginals", "of": bad}, "$.nu.of.d",
         "'x' is not of type 'integer'"),
        ({"kind": "fair_coin", "extra": 1}, "$.nu.extra", "unexpected property 'extra'"),
        # no form named by the value's kind: the count is all there is
        ({"kind": "nope"}, "$.nu", "matches 0 of the 5 allowed forms"),
        ({"d": 2}, "$.nu", "matches 0 of the 5 allowed forms"),
    ]
    for nu, path, reason in cases:
        cfg = write_cfg(tmp_path, "c.json", {**base, "nu": nu})
        rec = expect_error(capsys, ["relent", "--config", cfg], 1, "invalid-config")
        assert rec["message"].startswith(f"config rejected at {path}: "), rec["message"]
        assert rec["message"].endswith(reason), rec["message"]


STACK = ("jsonschema", "referencing", "rpds", "attrs", "jsonschema_specifications")


def test_cli_runs_without_jsonschema(tmp_path):
    good = write_cfg(tmp_path, "good.json", {**STD_CHANNEL, "n_max": 2})
    bad = write_cfg(tmp_path, "bad.json", {**STD_CHANNEL, "n_max": 0})
    out = str(tmp_path / "table.csv")
    script = textwrap.dedent(f"""
        import sys
        import gibbslab.cli as cli
        print(sorted(m for m in sys.modules if m.split(".")[0] in {STACK!r}))
        sys.modules["jsonschema"] = None  # any later import of it raises
        print(cli.main(["bs-badconfig", "--config", {good!r}, "--out", {out!r}]))
        print(cli.main(["bs-badconfig", "--config", {bad!r}]))
    """)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=60)
    assert proc.stdout.splitlines() == ["[]", "0", "1"], proc.stderr
    assert json.loads(proc.stderr)["message"].startswith("config rejected at $.n_max: 0 ")
    assert "n_times_cond" in (tmp_path / "table.csv").read_text()


def test_rational_work_loads_no_numpy(tmp_path):
    """Exact CLI jobs and library calls never import numpy; the first float
    sweep or random generator loads it and gets the in-process values."""
    jobs = [("wg-converge", VALID[("wg-converge", "probe")]),
            ("relent", {**VALID[("relent", "tv_identity")],
                        "mu": {"kind": "fair_coin"}}),
            ("bs-cylinder", VALID[("bs-cylinder", None)]),
            ("bs-badconfig", VALID[("bs-badconfig", None)])]
    argvs = [[sub, "--config", write_cfg(tmp_path, f"{i}.json", cfg),
              "--out", str(tmp_path / f"{i}.out")] for i, (sub, cfg) in enumerate(jobs)]
    script = textwrap.dedent(f"""
        import json, sys
        from fractions import Fraction
        import gibbslab, gibbslab.cli
        from gibbslab import (BINARY, ChannelParams, FiniteVolumeMeasure,
            InteractionParams, Rng, Window, binary_config, block_distribution,
            conditional_gap_probe, config, cylinder_prob, entropy_levels, fair_coin,
            regularity_probe, relative_entropy_density)
        from gibbslab.oracle import brute_channel_distribution
        print([gibbslab.cli.main(argv) for argv in {argvs!r}])
        std = ChannelParams(2, 3, (Fraction(1, 2), Fraction(1, 2)), Fraction(1, 4))
        nu = FiniteVolumeMeasure(InteractionParams(Fraction(1, 2), 8), "rational")
        cylinder_prob(std, [0, 2, 2])
        block_distribution(std, 3)
        regularity_probe(nu, config(BINARY, 0, [1]), binary_config([0] * 6), range(1, 5))
        relative_entropy_density(nu, fair_coin(), 3)
        conditional_gap_probe(nu, fair_coin(), Window(0, 0), 3)
        brute_channel_distribution(std, 2)
        print("numpy" in sys.modules)
        levels = entropy_levels(ChannelParams(2, 3, (0.5, 0.5), 0.25), 4)
        draws = Rng(1).generator().random(3)
        print("numpy" in sys.modules)
        print(json.dumps([levels.tolist(), draws.tolist()]))
    """)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=60)
    want = json.dumps([entropy_levels(ChannelParams(2, 3, (0.5, 0.5), 0.25), 4).tolist(),
                       Rng(1).generator().random(3).tolist()])
    assert proc.stdout.splitlines() == ["[0, 0, 0, 0]", "False", "True", want], proc.stderr
