"""Benchmark of fcmtune: tune, compare and code generated sequences.

For every input of a workload the job is what a user does with the package:
generate a sequence, pick (k, alpha) by two-step selection, run the
1,010-point grid search as the exhaustive baseline, encode the rendered
text at the two-step pick and decode it again. Rounds of that job over all
inputs repeat while the next round is expected to end within
``--seconds``; the oracle checks run after the timed rounds.

    python3 bench/run.py --workload long_dense --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics. With ``--trace 1`` the rounds alternate: even
rounds run the job untraced, odd rounds call the pieces that
``two_step_select`` and ``grid_search`` are made of, with a span around
each call into the package; the last line then holds the per-layer metrics
and the spans are written to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import checks
import reference
from workloads import WORKLOADS, Input, plan

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"

OPS = ("generate", "select", "grid", "encode", "decode")
# share of the interpreted-loop kernel in the speed reference of each timing
# (reference.py); the rest is the numpy kernel. generate is a per-symbol
# Python loop, the codec nearly so; select, grid and the set-up are mostly
# numpy kernels and imports. The shares are those under which the scaled
# times moved least with the machine's speed (bench/README.md).
INTERP_SHARE = {"setup": 0.25, "generate": 1.0, "select": 0.25, "grid": 0.25,
                "encode": 0.75, "decode": 0.75}
MODULES = ("sequences", "fcm", "dependence", "alpha_ml", "tuner", "codec", "simharness")
# set-ups timed before the first round and after every round
SETUP_REPEATS_FIRST = 3
SETUP_REPEATS_BETWEEN = 2
WARM_UP = Input(2, 0.5, 2_000, 0)
READ_SPEED_EVERY_S = 0.25
# per-layer metrics reported by the traced run: span names get "_s"
SPAN_METRICS = (
    "fcm.generate", "dependence.profile", "fcm.build_counts", "alpha_ml.fit_alpha",
    "fcm.bitrate", "fcm.replay_occurrences", "fcm.prediction_bits",
    "sequences.parse", "codec.compress", "codec.to_bytes", "codec.from_bytes",
    "codec.decompress", "sequences.render",
)
COUNT_METRICS = {
    "alpha_ml.fit_iterations": "count",
    "fcm.contexts_at_kstar": "count",
    "codec.payload_bytes": "bytes",
}


class ProgramMissing(Exception):
    """The checkout holds no fcmtune package to measure."""


def load_program() -> SimpleNamespace:
    """Import fcmtune from this checkout's src/, re-executing every module."""
    package = SRC / "fcmtune"
    if not (package / "__init__.py").is_file():
        raise ProgramMissing(f"no fcmtune package at {package}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "fcmtune" or n.startswith("fcmtune.")]:
        del sys.modules[name]
    api = SimpleNamespace(**{m: importlib.import_module(f"fcmtune.{m}") for m in MODULES})
    if Path(api.fcm.__file__).resolve().parent != package.resolve():
        raise ProgramMissing(f"fcmtune was imported from {api.fcm.__file__}")
    return api


class OpClock:
    """Wall time per operation, summed over the jobs it times."""

    def __init__(self):
        self.seconds = dict.fromkeys(OPS, 0.0)

    @contextmanager
    def __call__(self, op: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[op] += time.perf_counter() - start


class Tracer:
    """Spans and counts kept in memory and written out when the run ends.

    A span is (trace, span, parent, name, start_ns, end_ns); the spans of
    one input's job share the trace id, and parent 0 marks a root span.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: list[tuple] = []
        self.trace = 0
        self._stack = [0]

    @contextmanager
    def span(self, name: str):
        span_id = len(self.spans) + 1
        self.spans.append(None)
        parent = self._stack[-1]
        self._stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[span_id - 1] = (self.trace, span_id, parent, name, start, end)

    def count(self, name: str, value: int):
        self.counts.append((self.trace, name, int(value)))

    def layer_totals(self, traces) -> dict:
        """Summed span seconds and counts per name over the given traces."""
        traces = set(traces)
        out: dict = {}
        for trace, _, _, name, start, end in self.spans:
            if trace in traces:
                out[name] = out.get(name, 0.0) + (end - start) / 1e9
        for trace, name, value in self.counts:
            if trace in traces:
                out[name] = out.get(name, 0) + value
        return out

    def dump(self, path: Path):
        names = sorted({s[3] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {
            "span_fields": ["trace", "span", "parent", "name", "start_ns", "end_ns"],
            "names": names,
            "spans": [[t, s, p, index[n], a, b] for t, s, p, n, a, b in self.spans],
            "counts": [list(c) for c in self.counts],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, separators=(",", ":")))


@dataclass
class JobResult:
    """Everything one job produced; dropped once its Outcome is taken."""

    seq: object
    text: str
    two: object
    grid: object
    blob: bytes
    payload_bytes: int
    decoded: str


@dataclass(frozen=True)
class Outcome:
    """What is kept of one job across rounds.

    Small, so that keeping the first round's outcomes does not show in the
    peak RSS the benchmark reports; the checks regenerate the sequence.
    """

    seq_digest: str
    two: tuple    # (HyperParams, total bits)
    grid: tuple   # (HyperParams, total bits)
    blob: bytes
    payload_bytes: int


def outcome(res: JobResult) -> Outcome:
    return Outcome(
        hashlib.sha256(res.seq.data.tobytes()).hexdigest(),
        (res.two.params, res.two.bitrate.total_bits),
        (res.grid.params, res.grid.bitrate.total_bits),
        res.blob,
        res.payload_bytes,
    )


def run_job(api, inp: Input, clock: OpClock) -> JobResult:
    """The job through the package's public entry points."""
    fcm, tuner, codec, sequences = api.fcm, api.tuner, api.codec, api.sequences
    with clock("generate"):
        seq = fcm.generate(fcm.HyperParams(inp.k, inp.alpha), inp.length, inp.seed)
    with clock("select"):
        two = tuner.two_step_select(seq)
    with clock("grid"):
        grid = tuner.grid_search(seq)
    text = sequences.render_sequence(seq)
    with clock("encode"):
        parsed = sequences.parse_sequence(text, seq.alphabet)
        blob = codec.compress(parsed, two.params).to_bytes()
    with clock("decode"):
        container = codec.CompressedContainer.from_bytes(blob)
        decoded = sequences.render_sequence(codec.decompress(container))
    return JobResult(seq, text, two, grid, blob, len(container.payload), decoded)


def run_job_traced(api, inp: Input, clock: OpClock, tr: Tracer) -> JobResult:
    """The same job, calling the pieces of two_step_select and grid_search."""
    fcm, tuner, codec, sequences = api.fcm, api.tuner, api.codec, api.sequences
    dependence, alpha_ml = api.dependence, api.alpha_ml
    with clock("generate"), tr.span("generate"):
        with tr.span("fcm.generate"):
            seq = fcm.generate(fcm.HyperParams(inp.k, inp.alpha), inp.length, inp.seed)
    r = seq.alphabet.r
    with clock("select"), tr.span("select"):
        with tr.span("dependence.profile"):
            prof = dependence.profile(seq, "pami", dependence.DEFAULT_H_MAX)
        with tr.span("dependence.select_k"):
            k_star = dependence.select_k(prof)
        with tr.span("fcm.build_counts"):
            counts = fcm.build_counts(seq, k_star)
        with tr.span("alpha_ml.fit_alpha"):
            fit = alpha_ml.fit_alpha(alpha_ml.CountMatrix.from_counts(counts))
        params = fcm.HyperParams(k_star, fit.alpha_star)
        with tr.span("fcm.bitrate"):
            rate = fcm.bitrate(seq, params)
    tr.count("fcm.contexts_at_kstar", counts.n_contexts)
    tr.count("alpha_ml.fit_iterations", fit.iterations)
    two = SimpleNamespace(params=params, bitrate=rate)
    with clock("grid"), tr.span("grid"):
        best = None
        for k in sorted(tuner.DEFAULT_K_GRID):
            with tr.span("fcm.replay_occurrences"):
                m, big_m = fcm.replay_occurrences(seq, k)
            # the same float expression as grid_search, so totals match exactly
            boot = min(k, seq.T) * float(np.log2(r))
            for alpha in sorted(tuner.DEFAULT_ALPHA_GRID):
                with tr.span("fcm.prediction_bits"):
                    charged, _ = fcm.prediction_bits(m, big_m, alpha, r)
                if best is None or boot + charged < best[0]:
                    best = (boot + charged, k, alpha)
    grid = SimpleNamespace(params=fcm.HyperParams(best[1], best[2]),
                           bitrate=SimpleNamespace(total_bits=best[0]))
    text = sequences.render_sequence(seq)
    with clock("encode"), tr.span("encode"):
        with tr.span("sequences.parse"):
            parsed = sequences.parse_sequence(text, seq.alphabet)
        with tr.span("codec.compress"):
            packed = codec.compress(parsed, params)
        with tr.span("codec.to_bytes"):
            blob = packed.to_bytes()
    tr.count("codec.payload_bytes", len(packed.payload))
    with clock("decode"), tr.span("decode"):
        with tr.span("codec.from_bytes"):
            container = codec.CompressedContainer.from_bytes(blob)
        with tr.span("codec.decompress"):
            out = codec.decompress(container)
        with tr.span("sequences.render"):
            decoded = sequences.render_sequence(out)
    return JobResult(seq, text, two, grid, blob, len(container.payload), decoded)


def differing_ops(ref: Outcome, out: Outcome) -> set:
    """Operations whose output differs from the reference round's."""
    bad = set()
    if ref.seq_digest != out.seq_digest:
        bad.add("generate")
    if ref.two != out.two:
        bad.add("select")
    if ref.grid != out.grid:
        bad.add("grid")
    if ref.blob != out.blob:
        bad.add("encode")
    return bad


def verify(api, inp: Input, out: Outcome) -> dict:
    """Independent checks of one job's outputs; maps op -> failure reasons.

    The sequence is generated again from its input, which is deterministic,
    and must be the one the job used.
    """
    fcm = api.fcm
    alpha_grid = api.tuner.DEFAULT_ALPHA_GRID
    seq = fcm.generate(fcm.HyperParams(inp.k, inp.alpha), inp.length, inp.seed)
    r, length = seq.alphabet.r, seq.T
    sym = seq.data.astype(np.uint8).tobytes()
    (two, two_bits), (grid, grid_bits) = out.two, out.grid
    found = {op: [] for op in OPS}

    def add(op, reason):
        if reason:
            found[op].append(reason)

    if length != inp.length:
        add("generate", f"generated {length} symbols, asked for {inp.length}")
    if hashlib.sha256(seq.data.tobytes()).hexdigest() != out.seq_digest:
        add("generate", "the same input generated another sequence")

    for op, params, bits in (("select", two, two_bits), ("grid", grid, grid_bits)):
        add(op, checks.check_bitrate(bits, checks.replay_bits(sym, params.k, params.alpha, r)))

    lattice = checks.LatticeBits(sym, two.k, r)
    add("select", checks.check_alpha_star(lattice, two.alpha, alpha_grid))
    profile = checks.cmi_profile(sym, api.dependence.DEFAULT_H_MAX)
    add("select", checks.check_k_star(profile, two.k))

    rounded = checks.round_to_lattice(two.alpha, alpha_grid)
    rounded_bits = (lattice.bits(rounded) if rounded > 0
                    else checks.replay_bits(sym, two.k, 0.0, r))
    add("grid", checks.check_grid(grid_bits, rounded_bits))
    add("encode", checks.check_coded_size(out.payload_bytes, two_bits, length))
    return {op: reasons for op, reasons in found.items() if reasons}


def setup(workload: str, seed: int):
    """Import the package, plan the inputs and warm every code path up.

    Every call re-executes the package's modules, so import-time work
    counts; numpy is imported before and is not counted. Returns the
    program, the plan and the wall time taken.
    """
    start = time.perf_counter()
    api = load_program()
    inputs = plan(workload, seed, api.simharness)
    run_job(api, WARM_UP, OpClock())
    return api, inputs, time.perf_counter() - start


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[str, dict]:
    setup_times = []        # at the reference speed
    gauge = reference.SpeedGauge(READ_SPEED_EVERY_S)

    def time_setups(repeats):
        for _ in range(repeats):
            before = gauge.now()
            program = setup(workload, seed)
            setup_times.append(reference.scaled(program[2], before, gauge.now(),
                                                INTERP_SHARE["setup"]))
        return program[:2]

    api, inputs = time_setups(SETUP_REPEATS_FIRST)
    tracer = Tracer() if trace else None

    failed: set = set()     # (round, input, op)
    wrong = False           # an operation that ran produced a wrong output
    round0: list = []       # round-0 outcomes, None where the job raised
    times: list = []        # per round, per input: {op: seconds}
    speeds: list = []       # per round: the reference speed before each input and after the last
    start = time.perf_counter()
    while True:
        rnd = len(times)
        traced = trace and rnd % 2 == 1
        times.append([])
        speeds.append([])
        for i, inp in enumerate(inputs):
            speeds[rnd].append(gauge.now())
            clock = OpClock()
            times[rnd].append(clock.seconds)
            try:
                if traced:
                    tracer.trace = rnd * len(inputs) + i + 1
                    res = run_job_traced(api, inp, clock, tracer)
                else:
                    res = run_job(api, inp, clock)
            except Exception:
                print(f"round {rnd} input {i} {inp}: job raised\n{traceback.format_exc()}",
                      file=sys.stderr)
                failed.update((rnd, i, op) for op in OPS)
                if rnd == 0:
                    round0.append(None)
                continue
            bad = {"decode"} if checks.check_decode(res.text, res.decoded) else set()
            out = outcome(res)
            del res
            if rnd == 0:
                round0.append(out)
            elif round0[i] is not None:
                bad |= differing_ops(round0[i], out)
            for op in bad:
                print(f"round {rnd} input {i}: {op} output is wrong", file=sys.stderr)
                failed.add((rnd, i, op))
                wrong = True
        speeds[rnd].append(gauge.now())
        time_setups(SETUP_REPEATS_BETWEEN)
        elapsed = time.perf_counter() - start
        if elapsed * (rnd + 2) / (rnd + 1) > seconds and (not trace or rnd > 0):
            break
    rounds = len(times)
    measured_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    for i, (inp, out) in enumerate(zip(inputs, round0)):
        if out is None:
            continue
        for op, reasons in verify(api, inp, out).items():
            for reason in reasons:
                print(f"input {i} {inp}: {op}: {reason}", file=sys.stderr)
            failed.update((rnd, i, op) for rnd in range(rounds))
            wrong = True

    checks_s = time.perf_counter() - start - measured_s
    # every operation's time at the reference speed, read either side of its job
    scaled = [[{op: reference.scaled(job[op], rnd_speeds[i], rnd_speeds[i + 1],
                                     INTERP_SHARE[op]) for op in OPS}
               for i, job in enumerate(rnd_times)]
              for rnd_times, rnd_speeds in zip(times, speeds)]
    if trace:
        metrics = layer_metrics(tracer, scaled)
        tracer.dump(RESULTS / f"trace-{workload}-seed{seed}.json")
    else:
        symbols = sum(inp.length for inp in inputs)
        metrics = {"setup_s": (statistics.median(setup_times), "s")}
        for op in OPS:
            op_s = sum(statistics.median(rnd[i][op] for rnd in scaled)
                       for i in range(len(inputs)))
            metrics[f"{op}_sym_per_s"] = (symbols / op_s, "sym/s")
        done = [(inp, out) for inp, out in zip(inputs, round0) if out is not None]
        done_symbols = max(sum(inp.length for inp, _ in done), 1)
        metrics["two_step_bps"] = (sum(out.two[1] for _, out in done) / done_symbols, "bits/sym")
        metrics["grid_bps"] = (sum(out.grid[1] for _, out in done) / done_symbols, "bits/sym")
        metrics["coded_bps"] = (
            8 * sum(len(out.blob) for _, out in done) / done_symbols, "bits/sym")
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    info = (f"rounds={rounds} setups={len(setup_times)} measured={measured_s:.1f}s "
            f"checks={checks_s:.1f}s")
    return info, {
        "correct": not wrong,
        "attempted": rounds * len(inputs) * len(OPS),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def layer_metrics(tracer: Tracer, times: list) -> dict:
    """Per-layer totals of one round, the median over the traced rounds.

    ``times`` are the operations' times at the reference speed, from which
    the tracing overhead is taken; the spans are wall times.
    """
    n_inputs = len(times[0])
    traced = range(1, len(times), 2)
    per_round = [tracer.layer_totals(range(rnd * n_inputs + 1, (rnd + 1) * n_inputs + 1))
                 for rnd in traced]
    metrics = {}
    for name in SPAN_METRICS:
        metrics[f"{name}_s"] = (statistics.median(t.get(name, 0.0) for t in per_round), "s")
    for name, unit in COUNT_METRICS.items():
        metrics[name] = (statistics.median(t.get(name, 0) for t in per_round), unit)

    def round_s(rnd):
        return sum(sum(job.values()) for job in times[rnd])

    metrics["bench.trace_overhead_s"] = (
        statistics.median(map(round_s, traced))
        - statistics.median(map(round_s, range(0, len(times), 2))), "s")
    return metrics


def summary(workload: str, seed: int, info: str, result: dict) -> str:
    lines = [f"{workload} seed={seed} {info} correct={result['correct']} "
             f"attempted={result['attempted']} failed={result['failed']}"]
    for name, m in result["metrics"].items():
        lines.append(f"  {name:<32} {m['value']:>16.6g} {m['unit']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        info, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except ProgramMissing as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(summary(args.workload, args.seed, info, result), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
