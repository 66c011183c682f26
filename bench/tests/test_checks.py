"""The benchmark's own checks: they agree with the package on correct
results and fail on corrupted ones.

    python3 -m pytest bench/tests -q
"""

import dataclasses
import shutil
import subprocess
import sys

import numpy as np
import pytest

import checks
import run
from workloads import WORKLOADS, Input, plan

API = run.load_program()


def _sym(seq) -> bytes:
    return seq.data.astype(np.uint8).tobytes()


@pytest.fixture(scope="module")
def job():
    """A clean job on a source with a clear order-2 peak."""
    inp = Input(2, 0.1, 5_000, 11)
    return inp, run.run_job(API, inp, run.OpClock())


@pytest.mark.parametrize("k,alpha", [(0, 1.0), (1, 0.5), (2, 0.05), (3, 0.0), (5, 0.3)])
def test_replay_bits_matches_package_bitrate(k, alpha):
    seq = API.fcm.generate(API.fcm.HyperParams(2, 0.3), 3_000, seed=k)
    want = API.fcm.bitrate(seq, API.fcm.HyperParams(k, alpha)).total_bits
    got = checks.replay_bits(_sym(seq), k, alpha, seq.alphabet.r)
    assert checks.check_bitrate(want, got) is None
    if alpha > 0:
        assert checks.check_bitrate(
            checks.LatticeBits(_sym(seq), k, seq.alphabet.r).bits(alpha), got) is None


def test_cmi_profile_matches_package_pami():
    seq = API.fcm.generate(API.fcm.HyperParams(3, 0.2), 4_000, seed=5)
    want = API.dependence.profile(seq, "pami", 10).values
    np.testing.assert_allclose(checks.cmi_profile(_sym(seq), 10), want, rtol=0, atol=1e-12)


def test_clean_job_passes_every_check(job):
    inp, res = job
    assert checks.check_decode(res.text, res.decoded) is None
    assert run.verify(API, inp, run.outcome(res)) == {}


def test_flipped_decoded_symbol_fails_decode(job):
    _, res = job
    i = len(res.decoded) // 2
    flipped = res.decoded[:i] + ("A" if res.decoded[i] != "A" else "B") + res.decoded[i + 1:]
    assert checks.check_decode(res.text, flipped) is not None


def test_another_sequence_fails_generate(job):
    inp, res = job
    other = dataclasses.replace(inp, seed=inp.seed + 1)
    assert "generate" in run.verify(API, other, run.outcome(res))


@pytest.mark.parametrize("factor", [0.8, 1.25])
def test_perturbed_alpha_star_fails(job, factor):
    inp, res = job
    k, alpha = res.two.params.k, res.two.params.alpha
    lattice = checks.LatticeBits(_sym(res.seq), k, res.seq.alphabet.r)
    grid = API.tuner.DEFAULT_ALPHA_GRID
    assert checks.check_alpha_star(lattice, alpha, grid) is None
    assert checks.check_alpha_star(lattice, alpha * factor, grid) is not None
    # the same corruption seen through verify flags the select operation
    moved = API.fcm.HyperParams(k, alpha * factor)
    two = (moved, API.fcm.bitrate(res.seq, moved).total_bits)
    assert "select" in run.verify(API, inp, dataclasses.replace(run.outcome(res), two=two))


@pytest.mark.parametrize("shift", [-1, 1])
def test_k_star_moved_by_one_fails(job, shift):
    inp, res = job
    profile = checks.cmi_profile(_sym(res.seq), 10)
    k_star = res.two.params.k
    assert k_star == 2
    assert checks.check_k_star(profile, k_star) is None
    assert checks.check_k_star(profile, k_star + shift) is not None
    # seen through verify, with the bits at the moved pick
    moved = API.fcm.HyperParams(k_star + shift, res.two.params.alpha)
    two = (moved, API.fcm.bitrate(res.seq, moved).total_bits)
    assert "select" in run.verify(API, inp, dataclasses.replace(run.outcome(res), two=two))


def test_truncated_payload_fails(job):
    inp, res = job
    cut = res.blob[:-(res.payload_bytes // 4)]
    payload = len(API.codec.CompressedContainer.from_bytes(cut).payload)
    assert checks.check_coded_size(payload, res.two.bitrate.total_bits, res.seq.T) is not None
    truncated = dataclasses.replace(run.outcome(res), payload_bytes=payload)
    assert set(run.verify(API, inp, truncated)) == {"encode"}
    with pytest.raises(API.codec.CodecError):
        API.codec.decompress_from_bytes(cut)


def test_grid_worse_than_rounded_two_step_fails(job):
    _, res = job
    rounded = checks.round_to_lattice(res.two.params.alpha, API.tuner.DEFAULT_ALPHA_GRID)
    bits = checks.LatticeBits(_sym(res.seq), res.two.params.k, res.seq.alphabet.r).bits(rounded)
    assert checks.check_grid(res.grid.bitrate.total_bits, bits) is None
    assert checks.check_grid(bits + 1.0, bits) is not None


def test_traced_pieces_reproduce_the_public_picks(job):
    inp, res = job
    traced = run.run_job_traced(API, inp, run.OpClock(), run.Tracer())
    assert run.differing_ops(run.outcome(res), run.outcome(traced)) == set()


def test_plans_are_deterministic_in_the_seed():
    for workload in WORKLOADS:
        assert plan(workload, 3, API.simharness) == plan(workload, 3, API.simharness)
        assert plan(workload, 3, API.simharness) != plan(workload, 4, API.simharness)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "study_short", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
