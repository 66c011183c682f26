"""Command-line interface: one executable, eleven subcommands.

Data goes to stdout, diagnostics to stderr. Domain errors exit nonzero with
a one-line JSON object on stderr: {"error": <type>, "message": ...,
"subcommand": ...}. Every subcommand accepts --json for machine output and
--alphabet; generate and simulate take --seed, and simulate takes --threads.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import __version__
from .alpha_ml import fit_alpha
from .codec import CompressedContainer, compress, decompress
from .dependence import profile, select_k
from .fcm import HyperParams, bitrate, build_counts, generate
from .sequences import (
    Alphabet,
    SymbolSequence,
    read_sequence_file,
    write_sequence_file,
)
from .simharness import (
    ExperimentConfig,
    _csv_line,
    desk_config,
    emit_report,
    paper_config,
    run_exp1,
    run_exp2,
)
from .tuner import compare, grid_search, two_step_select

_MEASURE_NAMES = {"pami": "pami", "cramers": "cramers_v",
                  "kappa": "cohens_kappa"}


def _alphabet(args) -> Alphabet | None:
    """None means infer from file contents."""
    if args.alphabet == "infer":
        return None
    return Alphabet.from_string(args.alphabet)


def _read_seq(args) -> SymbolSequence:
    return read_sequence_file(args.input, _alphabet(args))


def _emit(obj: dict) -> None:
    print(json.dumps(obj, sort_keys=True))


def _profile_dict(prof) -> dict:
    return {"measure": prof.measure, "lags": [int(h) for h in prof.lags],
            "values": [float(v) for v in prof.values]}


def _selection_dict(sel) -> dict:
    out = {
        "method": sel.method,
        "k": sel.params.k,
        "alpha": sel.params.alpha,
        "bps": sel.bitrate.bits_per_symbol,
        "total_bits": sel.bitrate.total_bits,
        "floored_events": sel.bitrate.floored_events,
        "evaluations": sel.evaluations,
    }
    if sel.profile is not None:
        out["profile"] = _profile_dict(sel.profile)
    if sel.alpha_fit is not None:
        out["alpha_fit"] = dataclasses.asdict(sel.alpha_fit)
    return out


def _cmd_generate(args) -> int:
    alphabet = _alphabet(args)
    if alphabet is None:
        raise ValueError("generate needs an explicit --alphabet")
    seq = generate(HyperParams(args.k, args.alpha), args.length, args.seed,
                   alphabet)
    write_sequence_file(args.output, seq, wrap=args.wrap)
    if args.json:
        _emit({"output": args.output, "T": seq.T,
               "alphabet": "".join(alphabet.symbols)})
    return 0


def _cmd_profile(args) -> int:
    seq = _read_seq(args)
    prof = profile(seq, _MEASURE_NAMES[args.measure], args.hmax)
    if args.json:
        _emit(_profile_dict(prof))
        return 0
    print(_csv_line(("lag", "value")), end="")
    for lag, value in zip(prof.lags, prof.values):
        print(_csv_line((int(lag), float(value))), end="")
    return 0


def _cmd_select_k(args) -> int:
    seq = _read_seq(args)
    prof = profile(seq, "pami", args.hmax)
    _emit({"k_star": select_k(prof), "profile": _profile_dict(prof)})
    return 0


def _cmd_fit_alpha(args) -> int:
    seq = _read_seq(args)
    fit = fit_alpha(build_counts(seq, args.k))
    _emit(dataclasses.asdict(fit))
    return 0


def _cmd_tune(args) -> int:
    seq = _read_seq(args)
    _emit(_selection_dict(two_step_select(seq, args.hmax)))
    return 0


def _cmd_gridsearch(args) -> int:
    seq = _read_seq(args)
    k_grid = range(1, args.kmax + 1)
    steps = args.alpha_steps
    if steps < 2:
        raise ValueError("--alpha-steps must be at least 2: the alpha grid "
                         "runs from 0 to 1")
    alpha_grid = [round(i / (steps - 1), 10) for i in range(steps)]
    _emit(_selection_dict(grid_search(seq, k_grid, alpha_grid)))
    return 0


def _cmd_bitrate(args) -> int:
    seq = _read_seq(args)
    res = bitrate(seq, HyperParams(args.k, args.alpha))
    if args.json:
        _emit({"bps": res.bits_per_symbol, "total_bits": res.total_bits,
               "floored_events": res.floored_events})
    else:
        print(repr(res.bits_per_symbol))
    return 0


def _cmd_compress(args) -> int:
    seq = _read_seq(args)
    container = compress(seq, HyperParams(args.k, args.alpha))
    blob = container.to_bytes()
    with open(args.output, "wb") as fh:
        fh.write(blob)
    if args.json:
        _emit({"output": args.output, "bytes": len(blob),
               "payload_bits": container.payload_bits,
               "bps": container.payload_bits / seq.T if seq.T else 0.0})
    return 0


def _cmd_decompress(args) -> int:
    with open(args.input, "rb") as fh:
        container = CompressedContainer.from_bytes(fh.read())
    seq = decompress(container)
    write_sequence_file(args.output, seq, wrap=args.wrap)
    if args.json:
        _emit({"output": args.output, "T": seq.T, "k": container.k,
               "alpha": container.alpha})
    return 0


def _cmd_compare(args) -> int:
    seq = _read_seq(args)
    if (args.true_k is None) != (args.true_alpha is None):
        raise ValueError("--true-k and --true-alpha must be given together")
    true_params = (None if args.true_k is None
                   else HyperParams(args.true_k, args.true_alpha))
    rec = compare(seq, true_params, args.hmax)
    if args.json:
        _emit(dataclasses.asdict(rec))
        return 0
    k_match = None if rec.k_match is None else int(rec.k_match)
    print(_csv_line((rec.t, rec.true_k, rec.true_alpha, rec.k_star,
                     rec.alpha_star, rec.k_grid, rec.alpha_grid, rec.bps_true,
                     rec.bps_two_step, rec.bps_grid, k_match,
                     rec.evaluations_two_step, rec.evaluations_grid)), end="")
    return 0


def _cmd_simulate(args) -> int:
    configs = []
    if args.config:
        with open(args.config) as fh:
            cfg = ExperimentConfig.from_dict(json.load(fh))
        if args.seed is not None:
            cfg = dataclasses.replace(cfg, base_seed=args.seed)
        configs.append(cfg)
    else:
        preset = desk_config if args.preset == "desk" else paper_config
        seed = 0 if args.seed is None else args.seed
        wanted = (("exp1_profiles", "exp2_pipeline")
                  if args.experiment == "both" else
                  ("exp1_profiles",) if args.experiment == "exp1" else
                  ("exp2_pipeline",))
        configs = [preset(e, seed) for e in wanted]
    if args.threads:
        configs = [dataclasses.replace(c, workers=args.threads)
                   for c in configs]
    written = []
    for cfg in configs:
        if cfg.experiment == "exp1_profiles":
            written.extend(run_exp1(cfg, args.output))
        else:
            written.extend(emit_report(run_exp2(cfg), args.output))
    if args.json:
        _emit({"output": args.output, "written": written})
    else:
        for path in written:
            print(path)
    return 0


def _flag(*names, **kwargs) -> argparse.ArgumentParser:
    """A parent parser holding one flag that several subcommands share."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*names, **kwargs)
    return parent


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON on stdout")
    common.add_argument("--alphabet", default="ACGT",
                        help="alphabet symbols in index order, or 'infer' "
                             "(default: ACGT)")
    inp = _flag("-i", "--input", required=True)
    out = _flag("-o", "--output", required=True)
    hmax = _flag("--hmax", type=int, default=10)
    k = _flag("--k", type=int, required=True)
    alpha = _flag("--alpha", type=float, required=True)

    p = argparse.ArgumentParser(
        prog="fcmtune",
        description="Finite-context model toolkit: generation, dependence "
                    "profiles, two-step (k, alpha) selection, grid search, "
                    "bitrate, and entropy coding.")
    p.add_argument("--version", action="version",
                   version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="subcommand", required=True)

    def add(name, func, summary, *parents):
        sp = sub.add_parser(name, parents=[common, *parents], help=summary)
        sp.set_defaults(func=func)
        return sp

    sp = add("generate", _cmd_generate,
             "sample a sequence from an adaptive FCM", k, alpha, out)
    sp.add_argument("--length", type=int, required=True)
    sp.add_argument("--wrap", type=int, default=0,
                    help="wrap output lines at this width (0 = one line)")
    sp.add_argument("--seed", type=int, default=0,
                    help="RNG seed (default: 0)")

    sp = add("profile", _cmd_profile, "per-lag dependence measures as CSV",
             hmax, inp)
    sp.add_argument("--measure", choices=sorted(_MEASURE_NAMES), default="pami")

    add("select-k", _cmd_select_k, "argmax-pami context order as JSON",
        hmax, inp)
    add("fit-alpha", _cmd_fit_alpha, "maximum-likelihood alpha at fixed k",
        k, inp)
    add("tune", _cmd_tune, "two-step selection: k* then alpha*", hmax, inp)

    sp = add("gridsearch", _cmd_gridsearch,
             "exhaustive bitrate argmin over the lattice", inp)
    sp.add_argument("--kmax", type=int, default=10)
    sp.add_argument("--alpha-steps", type=int, default=101)

    add("bitrate", _cmd_bitrate, "theoretical bits per symbol of a model",
        k, alpha, inp)
    add("compress", _cmd_compress,
        "range-code a sequence into a container file", k, alpha, inp, out)

    sp = add("decompress", _cmd_decompress, "invert a container file",
             inp, out)
    sp.add_argument("--wrap", type=int, default=0)

    sp = add("compare", _cmd_compare, "two-step vs grid search on one sequence",
             hmax, inp)
    sp.add_argument("--true-k", type=int, default=None)
    sp.add_argument("--true-alpha", type=float, default=None)

    sp = add("simulate", _cmd_simulate, "run the simulation experiments")
    sp.add_argument("--experiment", choices=["exp1", "exp2", "both"],
                    default="both")
    sp.add_argument("--preset", choices=["desk", "paper"], default="desk")
    sp.add_argument("--config", default=None,
                    help="JSON file mirroring ExperimentConfig; overrides "
                         "--preset/--experiment")
    sp.add_argument("-o", "--output", default="simout")
    sp.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                    help="worker pool size (default: logical cores)")
    sp.add_argument("--seed", type=int, default=None,
                    help="base seed (default: the config's, 0 for presets)")

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 1
    except Exception as exc:
        err = {"error": type(exc).__name__, "message": str(exc),
               "subcommand": args.subcommand}
        print(json.dumps(err, sort_keys=True), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
