"""Batch front-end: every experiment behind one subcommand, JSON config in,
CSV or JSON out.

Usage (the flags are one set shared by every subcommand, before or after it):
    gibbslab <subcommand> --config cfg.json [--out path] [--mode rational|float]
             [--seed N] [--threads N] [--precision D]
    gibbslab <subcommand> --print-schema

Exit codes: 0 ok, 1 invalid config, 2 enumeration cap exceeded, 3 numeric
failure (e.g. conditioning on a null event).  Failures leave a one-line JSON
record on stderr and write no output file.

Outputs embed a metadata block (version, subcommand, config hash, mode, seed)
so a table can be traced back to the exact run that made it.  Repeated runs of
the same config are byte-identical; --threads is accepted for interface
stability but execution is serial, so it cannot affect results and is kept out
of the metadata.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import re
import sys
from fractions import Fraction

from . import __version__
from .core import (
    BINARY,
    Alphabet,
    BernoulliMeasure,
    Configuration,
    EnumerationCapError,
    Rng,
    Window,
    ZeroProbabilityError,
    as_prob,
    binary_config,
    conditional_prob,
    config,
    fair_coin,
    format_prob,
    is_exact,
    regularity_probe,
)
from . import bitshift as bs
from . import oracle as orc
from . import relent as re_
from . import weak_gibbs as wg

PROG = "gibbslab"


class UsageError(Exception):
    """Bad invocation or bad config; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors, which collides with the
    # cap-exceeded code; route through the normal error path instead
    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------- schemas

_NUM = {"oneOf": [{"type": "number"}, {"type": "string", "minLength": 1}]}
_BITS = {"type": "string", "pattern": "^[01]+$"}
_WINDOW = {"type": "object",
           "properties": {"lo": {"type": "integer"}, "hi": {"type": "integer"}},
           "required": ["lo", "hi"], "additionalProperties": False}
_ILIST = {"type": "array", "items": {"type": "integer"}, "minItems": 1}

_PROVIDER = {"oneOf": [
    {"type": "object", "properties": {"kind": {"const": "fair_coin"}},
     "required": ["kind"], "additionalProperties": False},
    {"type": "object", "properties": {
        "kind": {"const": "bernoulli"},
        "alphabet": _ILIST, "weights": {"type": "array", "items": _NUM}},
     "required": ["kind", "alphabet", "weights"], "additionalProperties": False},
    {"type": "object", "properties": {
        "kind": {"const": "weak_gibbs"}, "rho": _NUM, "m": {"type": "integer"}},
     "required": ["kind", "rho", "m"], "additionalProperties": False},
    {"type": "object", "properties": {
        "kind": {"const": "bitshift"}, "d": {"type": "integer"},
        "k": {"type": "integer"}, "p": {"type": "array", "items": _NUM},
        "eps": _NUM},
     "required": ["kind", "d", "k", "p", "eps"], "additionalProperties": False},
    {"type": "object", "properties": {
        "kind": {"const": "product_of_marginals"},
        "of": {"$ref": "#/$defs/provider"}},
     "required": ["kind", "of"], "additionalProperties": False},
]}

_DEFS = {"num": _NUM, "bits": _BITS, "window": _WINDOW, "provider": _PROVIDER}

_CHANNEL_PROPS = {"d": {"type": "integer"}, "k": {"type": "integer"},
                  "p": {"type": "array", "items": _NUM}, "eps": _NUM}


def _schema(props: dict, required: list[str], experiment: str | None = None) -> dict:
    properties = dict(props)
    req = list(required)
    if experiment is not None:
        properties["experiment"] = {"const": experiment}
        req = ["experiment"] + req
    return {"$defs": _DEFS, "type": "object", "properties": properties,
            "required": req, "additionalProperties": False}


SCHEMAS: dict[tuple[str, str | None], dict] = {
    ("wg-converge", "probe"): _schema({
        "rho": _NUM, "m": {"type": "integer"}, "omega": _BITS,
        "n_range": _ILIST, "target": {"enum": [0, 1]},
        "tol": {"type": "number", "minimum": 0},
        "stability_window": {"type": "integer", "minimum": 1}},
        ["rho", "m", "omega", "n_range"], "probe"),
    ("wg-converge", "glued"): _schema({
        "rho": _NUM, "m": {"type": "integer"}, "omega": _BITS, "eta": _BITS,
        "n_list": _ILIST},
        ["rho", "m", "omega", "eta", "n_list"], "glued"),
    ("wg-badsets", "frequency"): _schema({
        "k_list": _ILIST, "samples": {"type": "integer", "minimum": 1}},
        ["k_list", "samples"], "frequency"),
    ("wg-badsets", "correlation_hist"): _schema({
        "samples": {"type": "integer", "minimum": 1},
        "depth": {"type": "integer", "minimum": 2}},
        ["samples", "depth"], "correlation_hist"),
    ("wg-badsets", "tail_fraction"): _schema({
        "rho": _NUM, "m": {"type": "integer"}, "omega": _BITS,
        "eps": {"type": "number"}, "n_list": _ILIST,
        "samples": {"type": "integer", "minimum": 1},
        "tail_depth": {"type": "integer", "minimum": 1}},
        ["rho", "m", "omega", "eps", "n_list", "samples"], "tail_fraction"),
    ("bs-cylinder", None): _schema({
        **_CHANNEL_PROPS,
        "queries": {"type": "array", "minItems": 1, "items": {
            "type": "object",
            "properties": {"y": _ILIST, "given": _ILIST},
            "required": ["y"], "additionalProperties": False}}},
        ["d", "k", "p", "eps", "queries"]),
    ("bs-badconfig", None): _schema({
        **_CHANNEL_PROPS, "n_max": {"type": "integer", "minimum": 1}},
        ["d", "k", "p", "eps", "n_max"]),
    ("bs-entropy", "levels"): _schema({
        **_CHANNEL_PROPS, "n_max": {"type": "integer", "minimum": 1},
        "cap": {"type": "integer", "minimum": 1, "maximum": bs.BLOCK_ENTROPY_CAP}},
        ["d", "k", "p", "eps", "n_max"], "levels"),
    ("bs-entropy", "bounds"): _schema({
        **_CHANNEL_PROPS, "n_max": {"type": "integer", "minimum": 1},
        "cap": {"type": "integer", "minimum": 1, "maximum": bs.BLOCK_ENTROPY_CAP}},
        ["d", "k", "p", "eps", "n_max"], "bounds"),
    ("bs-entropy", "smb"): _schema({
        **_CHANNEL_PROPS, "n": {"type": "integer", "minimum": 1},
        "samples": {"type": "integer", "minimum": 2}},
        ["d", "k", "p", "eps", "n", "samples"], "smb"),
    ("bs-capacity", None): _schema({
        "d": {"type": "integer"}, "k": {"type": "integer"}, "eps": _NUM,
        "grid": {"type": "integer", "minimum": 2},
        "refine": {"type": "integer", "minimum": 0},
        "n_eval": {"type": "integer", "minimum": 2}},
        ["d", "k", "eps"]),
    ("relent", "window"): _schema({
        "nu": _PROVIDER, "mu": _PROVIDER, "window": _WINDOW},
        ["nu", "mu", "window"], "window"),
    ("relent", "density"): _schema({
        "nu": _PROVIDER, "mu": _PROVIDER,
        "n_max": {"type": "integer", "minimum": 1}, "lo": {"type": "integer"}},
        ["nu", "mu", "n_max"], "density"),
    ("relent", "tv_identity"): _schema({
        "nu": _PROVIDER, "mu": _PROVIDER, "lam": _WINDOW, "delta": _WINDOW},
        ["nu", "mu", "lam", "delta"], "tv_identity"),
    ("relent", "conditional_gap"): _schema({
        "nu": _PROVIDER, "mu": _PROVIDER, "lam": _WINDOW,
        "n_max": {"type": "integer"}},
        ["nu", "mu", "lam", "n_max"], "conditional_gap"),
    ("oracle", "channel_cylinder"): _schema({
        **_CHANNEL_PROPS, "y": _ILIST},
        ["d", "k", "p", "eps", "y"], "channel_cylinder"),
    ("oracle", "channel_distribution"): _schema({
        **_CHANNEL_PROPS, "n": {"type": "integer", "minimum": 1}},
        ["d", "k", "p", "eps", "n"], "channel_distribution"),
    ("oracle", "gibbs_conditional"): _schema({
        "rho": _NUM, "m": {"type": "integer"},
        "fixed": {"type": "object",
                  "patternProperties": {"^[0-9]+$": {"enum": [0, 1]}},
                  "additionalProperties": False}},
        ["rho", "m", "fixed"], "gibbs_conditional"),
    ("oracle", "block_entropy"): _schema({
        **_CHANNEL_PROPS, "n": {"type": "integer", "minimum": 1}},
        ["d", "k", "p", "eps", "n"], "block_entropy"),
}

SUBCOMMANDS = sorted({sub for sub, _ in SCHEMAS})


# ---------------------------------------------------------------- checking

_JSON_TYPES = {"object": dict, "array": list, "string": str,
               "number": (int, float), "integer": (int, float)}


def _violation(schema: dict, v, root: dict, path: str = "$"):
    """First place where v breaks schema, as (JSON path, reason), or None.

    Implements the 16 keywords SCHEMAS uses, with their Draft 2020-12 meaning:
    a bool is no number and equals neither 0 nor 1, and 1.0 is an integer.
    tests/test_cli.py holds the verdict to jsonschema's on mutated configs.
    """
    if "$ref" in schema:  # always "#/$defs/<name>", and alone in its schema
        schema = root["$defs"][schema["$ref"].removeprefix("#/$defs/")]
    t = schema.get("type")
    if t and not (isinstance(v, _JSON_TYPES[t]) and not isinstance(v, bool) and (
            t != "integer" or isinstance(v, int) or v.is_integer())):
        return path, f"{v!r} is not of type {t!r}"
    if "const" in schema or "enum" in schema:
        allowed = schema.get("enum", [schema.get("const")])
        if not any(a == v and isinstance(a, bool) == isinstance(v, bool) for a in allowed):
            return path, f"{v!r} is not one of {allowed!r}"
    if "oneOf" in schema:
        found = [_violation(s, v, root, path) for s in schema["oneOf"]]
        hits = found.count(None)
        if hits == 0 and isinstance(v, dict) and "kind" in v:
            # report a value that fails every form inside the one form its
            # "kind" names, if exactly one does
            named = [f for s, f in zip(schema["oneOf"], found)
                     if s.get("properties", {}).get("kind") == {"const": v["kind"]}]
            if len(named) == 1:
                return named[0]
        if hits != 1:
            return path, f"{v!r} matches {hits} of the {len(found)} allowed forms"
    if isinstance(v, str) and len(v) < schema.get("minLength", 0):
        return path, f"{v!r} is shorter than {schema['minLength']}"
    if isinstance(v, str) and not re.search(schema.get("pattern", ""), v):
        return path, f"{v!r} does not match {schema['pattern']!r}"
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        if v < schema.get("minimum", v):
            return path, f"{v!r} is less than the minimum of {schema['minimum']}"
        if v > schema.get("maximum", v):
            return path, f"{v!r} is greater than the maximum of {schema['maximum']}"
    if isinstance(v, list) and len(v) < schema.get("minItems", 0):
        return path, f"{v!r} has fewer than {schema['minItems']} items"
    for i, x in enumerate(v if isinstance(v, list) and "items" in schema else ()):
        if found := _violation(schema["items"], x, root, f"{path}[{i}]"):
            return found
    if not isinstance(v, dict):
        return None
    for k in schema.get("required", ()):
        if k not in v:
            return path, f"{k!r} is a required property"
    for k, x in v.items():
        at = f"{path}.{k}" if k.isidentifier() else f"{path}[{json.dumps(k)}]"
        subs = [schema["properties"][k]] if k in schema.get("properties", {}) else []
        subs += [s for pat, s in schema.get("patternProperties", {}).items()
                 if re.search(pat, k)]
        if not subs and schema.get("additionalProperties") is False:
            return at, f"unexpected property {k!r}"
        for s in subs:
            if found := _violation(s, x, root, at):
                return found
    return None


def _integers(schema: dict, v, root: dict):
    """v with every value schema types as an integer made an int (1.0 is an
    integer to _violation, and 1 to the runners).  v must satisfy schema, so
    a oneOf follows its one matching form; the keywords that nest a value
    in SCHEMAS are $ref, oneOf, items and properties."""
    if "$ref" in schema:
        schema = root["$defs"][schema["$ref"].removeprefix("#/$defs/")]
    if "oneOf" in schema:
        form = next(s for s in schema["oneOf"] if _violation(s, v, root) is None)
        return _integers(form, v, root)
    if schema.get("type") == "integer":
        return int(v)
    if isinstance(v, list) and "items" in schema:
        return [_integers(schema["items"], x, root) for x in v]
    if isinstance(v, dict) and "properties" in schema:
        props = schema["properties"]
        return {k: _integers(props[k], x, root) if k in props else x for k, x in v.items()}
    return v


# ---------------------------------------------------------------- plumbing

def _coerce(x, mode: str):
    """Parse a config number under the run's numeric mode."""
    v = as_prob(x)
    if mode == "rational":
        if not is_exact(v):
            raise UsageError(
                f"rational mode needs exact numbers; got {x!r} "
                "(write fractions as strings, e.g. \"1/4\")")
        return v
    return float(v)


def _channel(cfg: dict, mode: str) -> bs.ChannelParams:
    return bs.ChannelParams(cfg["d"], cfg["k"],
                            tuple(_coerce(w, mode) for w in cfg["p"]),
                            _coerce(cfg["eps"], mode))


def _optional(cfg: dict, *keys: str) -> dict:
    """The optional keys the config sets, for a library call whose own
    signature holds their defaults."""
    return {k: cfg[k] for k in keys if k in cfg}


def _window(obj: dict) -> Window:
    return Window(obj["lo"], obj["hi"])


def _provider(obj: dict, mode: str):
    kind = obj["kind"]
    if kind == "fair_coin":
        return fair_coin()
    if kind == "bernoulli":
        return BernoulliMeasure(Alphabet(tuple(obj["alphabet"])),
                                [_coerce(w, mode) for w in obj["weights"]])
    if kind == "weak_gibbs":
        params = wg.InteractionParams(_coerce(obj["rho"], mode), obj["m"])
        return wg.FiniteVolumeMeasure(params, mode=mode)
    if kind == "bitshift":
        return bs.BitShiftMeasure(_channel(obj, mode))
    if kind == "product_of_marginals":
        inner = _provider(obj["of"], mode)
        if inner.support_window is not None:
            raise UsageError("product_of_marginals needs a stationary measure")
        site = inner.distribution(Window(0, 0))
        weights = [site[(s,)] for s in inner.alphabet.symbols]
        return BernoulliMeasure(inner.alphabet, weights,
                                label=f"marginals-of-{inner.label}")
    raise UsageError(f"unknown provider kind {kind!r}")


def _fmt(v, precision: int | None) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, Fraction):
        return format_prob(v)
    if isinstance(v, float):
        if math.isinf(v):
            return "inf"
        if precision is not None:
            return f"{v:.{precision}g}"
        return repr(v)
    return str(v)


def _jsonable(v, precision: int | None):
    if isinstance(v, bool):
        return v
    if isinstance(v, Fraction):
        return format_prob(v)
    if isinstance(v, float):
        if math.isinf(v):
            return "inf"
        return float(f"{v:.{precision}g}") if precision is not None else v
    if isinstance(v, (list, tuple)):
        return [_jsonable(x, precision) for x in v]
    if isinstance(v, dict):
        return {str(k): _jsonable(x, precision) for k, x in v.items()}
    return v


def _config_hash(subcommand: str, experiment: str | None, mode: str, seed: int,
                 precision: int | None, cfg: dict) -> str:
    blob = json.dumps({"subcommand": subcommand, "experiment": experiment,
                       "mode": mode, "seed": seed, "precision": precision,
                       "params": cfg},
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


def _write_csv(meta: dict, comments: list[str], columns: list[str],
               rows: list[tuple], precision: int | None) -> str:
    buf = io.StringIO()
    for k, v in meta.items():
        buf.write(f"# {k}={v}\n")
    for line in comments:
        buf.write(f"# {line}\n")
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(columns)
    for row in rows:
        w.writerow([_fmt(v, precision) for v in row])
    return buf.getvalue()


def _write_json(meta: dict, payload: dict, precision: int | None) -> str:
    doc = {"meta": meta, **_jsonable(payload, precision)}
    try:  # NaN is not JSON; a result that holds one is a numeric failure
        return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as e:
        raise FloatingPointError(f"result is not finite: {e}") from e


# ---------------------------------------------------------------- runners
# each returns ("csv", comments, columns, rows) or ("json", payload)

def _run_wg_converge(cfg, mode, seed):
    params = wg.InteractionParams(_coerce(cfg["rho"], mode), cfg["m"])
    omega = binary_config(cfg["omega"], lo=1)
    if cfg["experiment"] == "probe":
        provider = wg.FiniteVolumeMeasure(params, mode=mode)
        target = config(BINARY, 0, (cfg.get("target", 1),))
        res = regularity_probe(provider, target, omega, cfg["n_range"],
                               **_optional(cfg, "tol", "stability_window"))
        comments = [f"converged={str(res.converged).lower()}"]
        if res.limit is not None:
            comments.append(f"limit={_fmt(res.limit, None)}")
        rows = list(zip(res.ns, res.values))
        return "csv", comments, ["n", "conditional"], rows
    eta = binary_config(cfg["eta"], lo=1)
    table = wg.glued_convergence_table(params, omega, eta, cfg["n_list"])
    rows = [(r.n, r.sup_diff, r.radius) for r in table]
    return "csv", [], ["n", "sup_diff", "radius"], rows


def _run_wg_badsets(cfg, mode, seed):
    exp = cfg["experiment"]
    if exp == "frequency":
        rows = []
        for k in cfg["k_list"]:
            est = wg.bad_set_frequency(k, cfg["samples"], Rng(seed, stream=k))
            rows.append((k, est.value, est.stderr, 2.0 ** (-k / 2)))
        return "csv", [], ["k", "frequency", "stderr", "bound"], rows
    if exp == "correlation_hist":
        depth = cfg["depth"]
        counts: dict[int, int] = {}
        Rng.check_draws(cfg["samples"], depth)
        bits = Rng(seed).generator().integers(0, 2, size=(cfg["samples"], depth))
        for row in bits:
            kk = wg.correlation_length(
                config(BINARY, 1, tuple(int(b) for b in row), wg.Tail.ZERO_FILL))
            counts[kk] = counts.get(kk, 0) + 1
        rows = [(k, counts[k]) for k in sorted(counts)]
        return "csv", [], ["correlation_length", "count"], rows
    params = wg.InteractionParams(_coerce(cfg["rho"], mode), cfg["m"])
    omega = binary_config(cfg["omega"], lo=1)
    rows = []
    for n in cfg["n_list"]:
        est = wg.bad_tail_fraction(params, omega, cfg["eps"], n, cfg["samples"],
                                   Rng(seed, stream=n), **_optional(cfg, "tail_depth"))
        rows.append((n, est.value, est.stderr))
    return "csv", [], ["n", "fraction", "stderr"], rows


def _run_bs_cylinder(cfg, mode, seed):
    params = _channel(cfg, mode)
    nu = bs.BitShiftMeasure(params)
    results = []
    for query in cfg["queries"]:
        y = tuple(query["y"])
        entry: dict = {"y": list(y)}
        adm = bs.is_admissible(params, y)
        entry["admissible"] = adm.admissible
        if adm.admissible:
            entry["witness_x"] = list(adm.x)
            entry["witness_jitter"] = list(adm.omega)
        if "given" in query:
            given = tuple(query["given"])
            entry["given"] = list(given)
            entry["prob_given"] = bs.cylinder_prob(params, given)
            entry["prob_joint"] = bs.cylinder_prob(params, y + given)
            entry["conditional"] = conditional_prob(
                nu, config(nu.alphabet, 0, y), config(nu.alphabet, len(y), given))
        else:
            entry["prob"] = bs.cylinder_prob(params, y)
        results.append(entry)
    return "json", {"results": results}


def _run_bs_badconfig(cfg, mode, seed):
    params = _channel(cfg, mode)
    table = bs.bad_config_table(params, cfg["n_max"])
    rows = [(r.n, r.p_joint, r.p_run, r.conditional, r.scaled) for r in table]
    return "csv", [], ["n", "nu_0_2n", "nu_2n", "cond", "n_times_cond"], rows


def _run_bs_entropy(cfg, mode, seed):
    params = _channel(cfg, mode)
    exp = cfg["experiment"]
    if exp == "levels":
        levels = bs.entropy_levels(params, cfg["n_max"], **_optional(cfg, "cap"))
        rows = [(n + 1, float(h), float(h) / math.log(2))
                for n, h in enumerate(levels)]
        return "csv", [], ["n", "block_entropy_nats", "block_entropy_bits"], rows
    if exp == "bounds":
        table = bs.entropy_bound_table(params, cfg["n_max"], **_optional(cfg, "cap"))
        rows = [(r.n, r.lower, r.upper, r.upper - r.lower,
                 r.lower / math.log(2), r.upper / math.log(2)) for r in table]
        return "csv", [], ["n", "lower_nats", "upper_nats", "gap",
                           "lower_bits", "upper_bits"], rows
    est = bs.smb_estimate(params, cfg["n"], cfg["samples"], Rng(seed))
    return "json", {"result": {
        "mean_nats": est.mean, "stderr": est.stderr,
        "mean_bits": est.mean / math.log(2), "samples": est.samples,
        "word_length": est.word_length}}


def _run_bs_capacity(cfg, mode, seed):
    res = bs.capacity_search(cfg["d"], cfg["k"], _coerce(cfg["eps"], mode),
                             **_optional(cfg, "grid", "refine", "n_eval"))
    return "json", {"result": {
        "p": [format_prob(w) for w in res.p],
        "lower_nats": res.lower, "upper_nats": res.upper,
        "midpoint_nats": res.midpoint, "n_eval": res.n_eval,
        "grid": res.grid, "refine": res.refine, "note": res.note}}


def _run_relent(cfg, mode, seed):
    exp = cfg["experiment"]
    nu = _provider(cfg["nu"], mode)
    mu = _provider(cfg["mu"], mode)
    if exp == "window":
        rep = re_.window_relative_entropy(nu, mu, _window(cfg["window"]))
        return "json", {"result": {
            "lo": rep.window.lo, "hi": rep.window.hi,
            "value_nats": rep.value, "infinite": rep.infinite}}
    if exp == "density":
        rows = [(r.n, r.window_value, r.per_site)
                for r in re_.relative_entropy_density(nu, mu, cfg["n_max"],
                                                      **_optional(cfg, "lo"))]
        return "csv", [], ["n", "window_value_nats", "per_site_nats"], rows
    if exp == "tv_identity":
        res = re_.tv_identity_check(nu, mu, _window(cfg["lam"]),
                                    _window(cfg["delta"]))
        return "json", {"result": {
            "lhs": res.lhs, "rhs": res.rhs,
            "exact": res.exact, "equal": res.equal}}
    rows = [(r.n, r.mean_gap, r.max_gap, r.conditioned_on)
            for r in re_.conditional_gap_probe(nu, mu, _window(cfg["lam"]),
                                               cfg["n_max"])]
    return "csv", [], ["n", "mean_gap", "max_gap", "conditioned_on"], rows


def _run_oracle(cfg, mode, seed):
    exp = cfg["experiment"]
    if exp == "gibbs_conditional":
        params = wg.InteractionParams(_coerce(cfg["rho"], "rational"), cfg["m"])
        fixed = {int(i): v for i, v in cfg["fixed"].items()}
        slow = orc.brute_gibbs_conditional(params, fixed, cfg["m"])
        fast = wg.FiniteVolumeMeasure(params, mode="rational").event_prob(fixed)
        return "json", {"result": {"oracle": slow, "fast": fast,
                                   "agree": slow == fast}}
    params = _channel(cfg, mode)
    if exp == "channel_cylinder":
        y = tuple(cfg["y"])
        slow = orc.brute_channel_cylinder(params, y)
        fast = bs.cylinder_prob(params, y)
        return "json", {"result": {"y": list(y), "oracle": slow, "fast": fast,
                                   "agree": slow == fast}}
    if exp == "channel_distribution":
        slow = orc.brute_channel_distribution(params, cfg["n"])
        rows = []
        agree = True
        for word in sorted(slow):
            fast = bs.cylinder_prob(params, word)
            same = fast == slow[word]
            agree = agree and same
            rows.append(("-".join(str(v) for v in word), slow[word], fast, same))
        return "csv", [f"all_agree={str(agree).lower()}"], \
            ["word", "oracle", "fast", "agree"], rows
    slow = orc.brute_block_entropy(params, cfg["n"])
    fast = bs.block_entropy(params, cfg["n"])
    return "json", {"result": {"oracle_nats": slow, "fast_nats": fast,
                               "diff": abs(slow - fast)}}


RUNNERS = {
    "wg-converge": _run_wg_converge,
    "wg-badsets": _run_wg_badsets,
    "bs-cylinder": _run_bs_cylinder,
    "bs-badconfig": _run_bs_badconfig,
    "bs-entropy": _run_bs_entropy,
    "bs-capacity": _run_bs_capacity,
    "relent": _run_relent,
    "oracle": _run_oracle,
}


# ---------------------------------------------------------------- driver

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog=PROG, description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("subcommand", nargs="?", choices=SUBCOMMANDS)
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--out", help="output path (default: stdout)")
    parser.add_argument("--mode", choices=("rational", "float"), default="rational")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted for interface stability; execution is serial")
    parser.add_argument("--precision", type=int, default=None,
                        help="significant digits for float output (default: full)")
    parser.add_argument("--print-schema", action="store_true",
                        help="print this subcommand's config schema and exit")
    return parser


def _experiments_of(subcommand: str) -> list[str | None]:
    return [exp for (sub, exp) in SCHEMAS if sub == subcommand]


def _validate(subcommand: str, cfg) -> tuple[str | None, dict]:
    """(experiment, cfg as the runners read it, with _integers' ints), or
    UsageError naming the first violation of the subcommand's schema."""
    if not isinstance(cfg, dict):
        raise UsageError("config must be a JSON object")
    experiments = _experiments_of(subcommand)
    if experiments == [None]:
        exp = None
    else:
        exp = cfg.get("experiment")
        if exp not in experiments:
            raise UsageError(
                f"{subcommand} needs \"experiment\" set to one of "
                f"{sorted(e for e in experiments if e)}")
    schema = SCHEMAS[(subcommand, exp)]
    found = _violation(schema, cfg, schema)
    if found:
        raise UsageError("config rejected at {}: {}".format(*found))
    return exp, _integers(schema, cfg, schema)


def main(argv=None) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        if args.subcommand is None:
            raise UsageError("a subcommand is required (see --help)")
        if args.print_schema:
            doc = {exp or "-": SCHEMAS[(args.subcommand, exp)]
                   for exp in _experiments_of(args.subcommand)}
            sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
            return 0
        if args.config is None:
            raise UsageError("--config is required")
        if args.threads < 1:
            raise UsageError("--threads must be >= 1")
        if args.precision is not None and not 1 <= args.precision <= 17:
            raise UsageError("--precision must lie in 1..17")
        try:
            with open(args.config, "r", encoding="utf-8") as f:
                cfg = json.load(f)
        except OSError as e:
            raise UsageError(f"cannot read config: {e}") from e
        except json.JSONDecodeError as e:
            raise UsageError(f"config is not valid JSON: {e}") from e
        experiment, run_cfg = _validate(args.subcommand, cfg)
        meta = {
            "gibbslab": __version__,
            "subcommand": args.subcommand,
            "experiment": experiment or "-",
            "mode": args.mode,
            "seed": args.seed,
            "config_hash": _config_hash(args.subcommand, experiment, args.mode,
                                        args.seed, args.precision, cfg),
        }
        out = RUNNERS[args.subcommand](run_cfg, args.mode, args.seed)
        if out[0] == "csv":
            _, comments, columns, rows = out
            text = _write_csv(meta, comments, columns, rows, args.precision)
        else:
            text = _write_json(meta, out[1], args.precision)
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="") as f:
                f.write(text)
        else:
            sys.stdout.write(text)
        return 0
    except UsageError as e:
        return _fail(1, "invalid-config", str(e))
    except EnumerationCapError as e:
        return _fail(2, "cap-exceeded", str(e))
    except MemoryError as e:  # numpy refused an array too large to allocate
        return _fail(2, "cap-exceeded", f"MemoryError: {e}")
    except (ZeroProbabilityError, OverflowError, ZeroDivisionError, FloatingPointError) as e:
        return _fail(3, "numeric-failure", f"{type(e).__name__}: {e}")
    except (ValueError, TypeError, KeyError) as e:
        return _fail(1, "invalid-config", f"{type(e).__name__}: {e}")


def _fail(code: int, kind: str, message: str) -> int:
    sys.stderr.write(json.dumps(
        {"error": kind, "exit_code": code, "message": message}) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
