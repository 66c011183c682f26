"""End-to-end CLI coverage through in-process main(argv) calls."""

import json

import pytest

from fcmtune.cli import build_parser, main
from fcmtune.fcm import HyperParams, bitrate, generate
from fcmtune.sequences import DNA_ALPHABET, read_sequence_file, write_sequence_file

SUBCOMMANDS = [
    "generate", "profile", "select-k", "fit-alpha", "tune", "gridsearch",
    "bitrate", "compress", "decompress", "compare", "simulate",
]


@pytest.fixture(scope="module")
def seq_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "seq.txt"
    seq = generate(HyperParams(2, 0.5), 4_000, seed=99, alphabet=DNA_ALPHABET)
    write_sequence_file(path, seq)
    return str(path)


def _json_out(capsys):
    out = capsys.readouterr().out.strip()
    return json.loads(out)


# ---------------------------------------------------------------------------
# parser surface


def test_all_subcommands_exist():
    parser = build_parser()
    actions = [a for a in parser._actions if hasattr(a, "choices") and a.choices]
    names = list(actions[-1].choices)
    assert names == SUBCOMMANDS


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_subcommand_help_exits_zero(name, capsys):
    with pytest.raises(SystemExit) as exc:
        main([name, "--help"])
    assert exc.value.code == 0
    assert name in capsys.readouterr().out


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "fcmtune" in capsys.readouterr().out


def test_unknown_flag_exits_nonzero():
    with pytest.raises(SystemExit) as exc:
        main(["bitrate", "--frobnicate"])
    assert exc.value.code != 0


def test_missing_subcommand_exits_nonzero():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code != 0


# ---------------------------------------------------------------------------
# generate


def test_generate_writes_sequence(tmp_path, capsys):
    out = tmp_path / "g.txt"
    rc = main(["generate", "--k", "2", "--alpha", "0.5", "--length", "500",
               "--seed", "7", "-o", str(out), "--json"])
    assert rc == 0
    info = _json_out(capsys)
    assert info == {"T": 500, "alphabet": "ACGT", "output": str(out)}
    seq = read_sequence_file(out, DNA_ALPHABET)
    assert seq == generate(HyperParams(2, 0.5), 500, seed=7, alphabet=DNA_ALPHABET)


def test_generate_defaults_seed_zero(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    main(["generate", "--k", "1", "--alpha", "1", "--length", "200", "-o", str(a)])
    main(["generate", "--k", "1", "--alpha", "1", "--length", "200",
          "--seed", "0", "-o", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_generate_honors_wrap(tmp_path):
    out = tmp_path / "w.txt"
    main(["generate", "--k", "0", "--alpha", "1", "--length", "100",
          "-o", str(out), "--wrap", "10"])
    lines = out.read_text().splitlines()
    assert len(lines) == 10 and all(len(ln) == 10 for ln in lines)


def test_generate_rejects_inferred_alphabet(tmp_path, capsys):
    rc = main(["generate", "--k", "1", "--alpha", "1", "--length", "10",
               "-o", str(tmp_path / "x.txt"), "--alphabet", "infer"])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["subcommand"] == "generate"
    assert "alphabet" in err["message"]


# ---------------------------------------------------------------------------
# analysis commands


def test_profile_csv(seq_file, capsys):
    rc = main(["profile", "-i", seq_file, "--hmax", "5"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "lag,value"
    assert len(lines) == 6
    lags = [int(ln.split(",")[0]) for ln in lines[1:]]
    assert lags == [1, 2, 3, 4, 5]
    float(lines[1].split(",")[1])  # values parse as floats


@pytest.mark.parametrize("measure", ["pami", "cramers", "kappa"])
def test_profile_json(measure, seq_file, capsys):
    rc = main(["profile", "-i", seq_file, "--hmax", "4", "--measure", measure,
               "--json"])
    assert rc == 0
    doc = _json_out(capsys)
    assert doc["lags"] == [1, 2, 3, 4]
    assert len(doc["values"]) == 4


def test_profile_inferred_alphabet(seq_file, capsys):
    rc = main(["profile", "-i", seq_file, "--hmax", "3", "--alphabet", "infer",
               "--json"])
    assert rc == 0
    assert len(_json_out(capsys)["values"]) == 3


def test_select_k(seq_file, capsys):
    rc = main(["select-k", "-i", seq_file])
    assert rc == 0
    doc = _json_out(capsys)
    assert doc["k_star"] == 2
    assert doc["profile"]["measure"] == "pami"
    assert len(doc["profile"]["values"]) == 10


def test_fit_alpha(seq_file, capsys):
    rc = main(["fit-alpha", "-i", seq_file, "--k", "2"])
    assert rc == 0
    doc = _json_out(capsys)
    assert doc["converged"] is True
    assert doc["degenerate"] is False
    assert 0.1 < doc["alpha_star"] < 2.0


def test_tune(seq_file, capsys):
    rc = main(["tune", "-i", seq_file])
    assert rc == 0
    doc = _json_out(capsys)
    assert doc["method"] == "two_step"
    assert doc["evaluations"] == 1
    assert doc["k"] == 2
    assert "alpha_fit" in doc and "profile" in doc
    assert doc["bps"] == pytest.approx(doc["total_bits"] / 4_000)


def test_gridsearch(seq_file, capsys):
    rc = main(["gridsearch", "-i", seq_file, "--kmax", "3", "--alpha-steps", "5"])
    assert rc == 0
    doc = _json_out(capsys)
    assert doc["method"] == "grid_search"
    assert doc["evaluations"] == 15
    assert doc["alpha"] in (0.0, 0.25, 0.5, 0.75, 1.0)
    assert 1 <= doc["k"] <= 3


def test_bitrate_plain_and_json(seq_file, capsys):
    rc = main(["bitrate", "-i", seq_file, "--k", "2", "--alpha", "0.5"])
    assert rc == 0
    plain = float(capsys.readouterr().out.strip())
    rc = main(["bitrate", "-i", seq_file, "--k", "2", "--alpha", "0.5", "--json"])
    assert rc == 0
    doc = _json_out(capsys)
    assert doc["bps"] == plain
    seq = read_sequence_file(seq_file, DNA_ALPHABET)
    assert plain == bitrate(seq, HyperParams(2, 0.5)).bits_per_symbol


# ---------------------------------------------------------------------------
# codec commands


def test_compress_decompress_round_trip(seq_file, tmp_path, capsys):
    blob = tmp_path / "seq.fcm"
    rc = main(["compress", "-i", seq_file, "-o", str(blob), "--k", "2",
               "--alpha", "0.5", "--json"])
    assert rc == 0
    info = _json_out(capsys)
    assert info["bytes"] == blob.stat().st_size
    assert info["payload_bits"] == pytest.approx(info["bps"] * 4_000)
    assert info["bps"] < 2.0  # structured input codes below log2(4)

    out = tmp_path / "back.txt"
    rc = main(["decompress", "-i", str(blob), "-o", str(out), "--json"])
    assert rc == 0
    info = _json_out(capsys)
    assert info["T"] == 4_000 and info["k"] == 2 and info["alpha"] == 0.5
    with open(seq_file) as fh:
        assert out.read_text() == fh.read()


def test_compress_alpha_zero_fails_with_guidance(seq_file, tmp_path, capsys):
    rc = main(["compress", "-i", seq_file, "-o", str(tmp_path / "x.fcm"),
               "--k", "1", "--alpha", "0"])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "CodecError"
    assert "epsilon" in err["message"]


def test_decompress_rejects_garbage(tmp_path, capsys):
    bad = tmp_path / "bad.fcm"
    bad.write_bytes(b"not a container")
    rc = main(["decompress", "-i", str(bad), "-o", str(tmp_path / "y.txt")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "CodecError"
    assert err["subcommand"] == "decompress"


# ---------------------------------------------------------------------------
# compare


def test_compare_csv_row(seq_file, capsys):
    rc = main(["compare", "-i", seq_file, "--true-k", "2", "--true-alpha", "0.5"])
    assert rc == 0
    fields = capsys.readouterr().out.strip().split(",")
    assert len(fields) == 13
    assert fields[0] == "4000"
    assert fields[1] == "2"
    assert fields[10] in ("0", "1")
    assert fields[11] == "1" and fields[12] == "1010"


def test_compare_json_without_truth(seq_file, capsys):
    rc = main(["compare", "-i", seq_file, "--json"])
    assert rc == 0
    doc = _json_out(capsys)
    assert doc["true_k"] is None
    assert doc["k_match"] is None
    assert doc["evaluations_grid"] == 1010


# ---------------------------------------------------------------------------
# simulate


def test_simulate_with_config_file(tmp_path, capsys):
    cfg = {
        "experiment": "exp2_pipeline",
        "k_set": [1, 2],
        "t_set": [300],
        "replicas": 3,
        "base_seed": 5,
        "h_max": 4,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "sim"
    rc = main(["simulate", "--config", str(cfg_path), "-o", str(out), "--json"])
    assert rc == 0
    written = _json_out(capsys)["written"]
    names = sorted(p.rsplit("/", 1)[-1] for p in written)
    assert names == ["alpha_stats.csv", "confusion_T300.csv", "dispersion.csv",
                     "report.json", "summary.txt"]
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["base_seed"] == 5
    assert len(report["rows"]) == 3


def test_simulate_seed_overrides_config(tmp_path, capsys):
    cfg = {"experiment": "exp2_pipeline", "t_set": [300], "replicas": 2,
           "h_max": 4}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = main(["simulate", "--config", str(cfg_path), "--seed", "31",
               "-o", str(tmp_path / "s"), "--json"])
    assert rc == 0
    report = json.loads((tmp_path / "s" / "report.json").read_text())
    assert report["config"]["base_seed"] == 31
    capsys.readouterr()


def test_simulate_exp1_config(tmp_path, capsys):
    cfg = {"experiment": "exp1_profiles", "k_set": [1], "alpha_set": [0.5],
           "t_set": [300], "replicas": 2, "h_max": 3}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = main(["simulate", "--config", str(cfg_path), "-o", str(tmp_path / "s")])
    assert rc == 0
    listed = capsys.readouterr().out.strip().splitlines()
    assert len(listed) == 2
    assert (tmp_path / "s" / "profiles" / "profile_k1_a0.5_T300.csv").exists()


def test_simulate_config_rejects_unknown_key(tmp_path, capsys):
    cfg = {"experiment": "exp2_pipeline", "t_set": [300], "replicas": 2,
           "run_grid_search": False}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = main(["simulate", "--config", str(cfg_path), "-o", str(tmp_path / "s")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "SimError"
    assert "run_grid_search" in err["message"]
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("subcommand,error", [
    (["generate", "--k", "1", "--alpha", "1", "--length", "10"], "FcmError"),
    (["simulate", "--preset", "desk", "--experiment", "exp2"], "SimError"),
])
def test_negative_seed_exits_with_the_module_error(subcommand, error, tmp_path, capsys):
    rc = main([*subcommand, "--seed", "-1", "-o", str(tmp_path / "out")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == error
    assert "seed" in err["message"]
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# error reporting contract


def test_missing_input_file_reports_json_error(capsys):
    rc = main(["bitrate", "-i", "/nonexistent/seq.txt", "--k", "1", "--alpha", "1"])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "FileNotFoundError"
    assert err["subcommand"] == "bitrate"


def test_domain_error_reports_json_error(tmp_path, capsys):
    short = tmp_path / "short.txt"
    short.write_text("ACG\n")
    rc = main(["select-k", "-i", str(short), "--hmax", "10"])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "DependenceError"
    assert "T" in err["message"]
