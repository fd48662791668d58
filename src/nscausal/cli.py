"""Command-line front end: simulate, fit, eval, bench, effects."""

import argparse
import json
import os
import sys
import time

import numpy as np

from . import __version__, io
from .bench import (GRAPH_MODELS, METHODS, NOISE_KINDS, RAW_FIELDS,
                    SUMMARY_FIELDS, known_keys, nscg, replicate,
                    run_scenario, scenario_data, score, spec_from_dict)
from .effects import EFFECT_FIELDS, effect_rows
from .graph import prune
from .optimizer import FitConfig
from .scm import LINKS


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(message)


def _log(message):
    print(message, file=sys.stderr)


def _meta(args, resolved: dict) -> dict:
    return {
        "command": args.command,
        "version": __version__,
        "resolved": resolved,
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def _load_fit_config(args) -> FitConfig:
    overrides = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            doc = json.load(fh)
        # only the 'fit' section is read, and a document must hold one:
        # settings at its root would otherwise run as the defaults
        if not isinstance(doc, dict) or "fit" not in doc:
            raise ValueError("a --config document must be a JSON object "
                             "with a 'fit' object")
        overrides = known_keys(doc["fit"], FitConfig.__dataclass_fields__,
                               "fit config")
        if "effect_kind" in overrides:
            raise ValueError("fit config key effect_kind is not read: --method "
                             "(or a bench spec's methods) chooses it")
    return FitConfig(**overrides)


def _scenario_from_args(args):
    # each noise parameter ``key`` comes from the flag whose dest is noise_<key>
    key = NOISE_KINDS[args.noise][0]
    noise = {"kind": args.noise, key: getattr(args, f"noise_{key}")}
    doc = {"id": args.scenario, "noise": noise, "link": args.link,
           "graph_model": args.model, "sample_sizes": [args.n],
           "replications": 1, "seed_base": args.seed}
    # a flag goes in only when given, so that a preset rejects a value other
    # than its own by name instead of ignoring it
    for name, value in (("p", args.p), ("expected_degree", args.degree)):
        if value is not None:
            doc[name] = value
    return spec_from_dict(doc)


def cmd_simulate(args):
    spec = _scenario_from_args(args)
    truth, data = scenario_data(spec, args.n, spec.seed_base)
    os.makedirs(args.out, exist_ok=True)
    io.write_graph_csv(truth, os.path.join(args.out, "truth.csv"))
    io.write_graph_csv(nscg(truth), os.path.join(args.out, "nscg.csv"))
    io.write_dataset_csv(data, os.path.join(args.out, "data.csv"))
    io.write_json(_meta(args, {"scenario": args.scenario, "n": args.n,
                               "seed": spec.seed_base, "p": spec.p,
                               "link": spec.link}),
                  os.path.join(args.out, "meta.json"))
    _log(f"wrote truth, nscg and {args.n} observations to {args.out}")


def cmd_fit(args):
    data = io.load_csv(args.data, args.outcome)
    [(_, result, _, error)] = replicate(data, (args.method,),
                                        _load_fit_config(args))
    if error is not None:
        raise error
    io.write_fit_dir(result, args.out,
                     _meta(args, {"data": args.data, "outcome": str(args.outcome),
                                  "method": args.method}))
    state = "converged" if result.converged else "stopped before tolerance"
    counts = result.counters()
    if counts["capped_solves"]:
        state += (f"; {counts['capped_solves']} of {counts['dual_steps']} "
                  "inner solves stopped at max_inner_iter")
    kept = int(np.sum(result.selected))
    _log(f"fit {state}; {kept} feature(s) selected; results in {args.out}")


def cmd_eval(args):
    estimated = io.read_graph_csv(args.estimated)
    truth = io.read_graph_csv(args.truth)
    row = score(prune(estimated, args.threshold), truth)
    io.write_rows_csv([row], tuple(row), args.out or None)
    if args.out:
        io.write_json(_meta(args, {"estimated": args.estimated,
                                   "truth": args.truth,
                                   "threshold": args.threshold}),
                      args.out + ".meta.json")


def cmd_bench(args):
    with open(args.spec) as fh:
        spec = spec_from_dict(json.load(fh))
    report = run_scenario(spec, _load_fit_config(args), threads=args.threads)
    os.makedirs(args.out, exist_ok=True)
    io.write_rows_csv(report.rows, RAW_FIELDS, os.path.join(args.out, "raw.csv"))
    io.write_rows_csv(report.summary, SUMMARY_FIELDS,
                      os.path.join(args.out, "summary.csv"))
    io.write_json(_meta(args, {"spec": args.spec, "threads": args.threads,
                               "scenario": spec.id,
                               "replications": spec.replications,
                               "sample_sizes": list(spec.sample_sizes),
                               "methods": list(spec.methods),
                               "seed_base": spec.seed_base}),
                  os.path.join(args.out, "meta.json"))
    _log(f"benchmark complete: {len(report.rows)} rows in {args.out}")


def cmd_effects(args):
    graph, selected = io.read_fit_dir(args.fit)
    rows = effect_rows(graph, selected)
    io.write_rows_csv(rows, EFFECT_FIELDS, args.out or None)
    if args.out:
        io.write_json(_meta(args, {"fit": args.fit}), args.out + ".meta.json")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="nscausal",
                     description="causal structure learning benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="emit a truth graph and sampled data")
    sim.add_argument("--scenario", default="s1")
    sim.add_argument("--n", type=int, required=True)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", required=True)
    sim.add_argument("--p", type=int,
                     help="nodes (custom scenario; default 10)")
    sim.add_argument("--model", choices=GRAPH_MODELS, default="er")
    sim.add_argument("--degree", type=float,
                     help="expected degree (custom scenario; default 2)")
    sim.add_argument("--link", choices=LINKS, default="linear")
    sim.add_argument("--noise", choices=tuple(NOISE_KINDS), default="bernoulli")
    sim.add_argument("--noise-p", type=float, default=0.5)
    sim.add_argument("--sigma", dest="noise_sigma", metavar="SIGMA",
                     type=float, default=1.0)
    sim.set_defaults(func=cmd_simulate)

    fit_p = sub.add_parser("fit", help="learn a graph from a data CSV")
    fit_p.add_argument("--data", required=True)
    fit_p.add_argument("--outcome", required=True,
                       help="outcome column label or index")
    fit_p.add_argument("--method", choices=tuple(METHODS), default="nscsl-te")
    fit_p.add_argument("--out", required=True)
    fit_p.add_argument("--config", help="JSON file with a 'fit' section")
    fit_p.set_defaults(func=cmd_fit)

    ev = sub.add_parser("eval", help="score an estimated graph against a truth")
    ev.add_argument("--estimated", required=True)
    ev.add_argument("--truth", required=True)
    ev.add_argument("--threshold", type=float, default=0.0)
    ev.add_argument("--out")
    ev.set_defaults(func=cmd_eval)

    bench_p = sub.add_parser("bench", help="run a scenario file end to end")
    bench_p.add_argument("--spec", required=True, help="scenario JSON file")
    bench_p.add_argument("--out", required=True)
    bench_p.add_argument("--threads", type=int, default=1)
    bench_p.add_argument("--config", help="JSON file with a 'fit' section")
    bench_p.set_defaults(func=cmd_bench)

    eff = sub.add_parser("effects", help="effect table from a fit directory")
    eff.add_argument("--fit", required=True)
    eff.add_argument("--out")
    eff.set_defaults(func=cmd_effects)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.func(args)
        return 0
    except SystemExit as exc:
        return int(exc.code or 0)
    except (FileNotFoundError, FileExistsError, IsADirectoryError,
            NotADirectoryError, PermissionError) as exc:
        # a path argument that cannot be opened is the caller's error
        _log(f"error: {exc.filename}: {exc.strerror}")
        return 1
    except ValueError as exc:
        _log(f"error: {exc}")
        return 1
    except Exception as exc:  # noqa: BLE001 - runtime failures exit 2
        _log(f"runtime failure: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
