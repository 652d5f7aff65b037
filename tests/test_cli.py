"""CLI tests: argument parsing and end-to-end subcommand runs."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.datagen import load_npz
from repro.tree import from_dict


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_train_generates_and_reports(capsys):
    code = main(["train", "--records", "800", "--processors", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "train accuracy" in out
    assert "test accuracy" in out
    assert "machine=cray-t3d p=3" in out


def test_train_serial_mode(capsys):
    code = main(["train", "--records", "500", "--serial", "--max-depth", "3",
                 "--print-tree", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "machine=" not in out  # no parallel stats in serial mode
    assert "?" in out or "class" in out  # tree printed


def test_train_prune_and_save_model(tmp_path, capsys):
    model_path = tmp_path / "model.json"
    code = main([
        "train", "--records", "600", "--processors", "2", "--prune",
        "--noise", "0.1", "--save-model", str(model_path),
        "--criterion", "entropy", "--subset-splits",
    ])
    assert code == 0
    tree = from_dict(json.loads(model_path.read_text()))
    assert tree.n_nodes >= 1


def test_train_from_saved_dataset(tmp_path, capsys):
    data = tmp_path / "data.npz"
    assert main(["generate", "--records", "400", "--out", str(data)]) == 0
    capsys.readouterr()
    assert main(["train", "--data", str(data), "--processors", "2"]) == 0
    out = capsys.readouterr().out
    assert "train accuracy" in out
    assert "test accuracy" not in out  # no held-out set when loading


def test_generate_npz_and_csv(tmp_path, capsys):
    npz = tmp_path / "d.npz"
    assert main(["generate", "--records", "120", "--function", "F5",
                 "--out", str(npz)]) == 0
    ds = load_npz(npz)
    assert ds.n_records == 120
    assert len(ds.schema) == 9  # full schema by default

    csv = tmp_path / "d.csv"
    assert main(["generate", "--records", "50", "--paper-profile",
                 "--out", str(csv)]) == 0
    assert csv.read_text().splitlines()[0].startswith("salary,")


def test_generate_rejects_unknown_format(tmp_path, capsys):
    code = main(["generate", "--records", "10",
                 "--out", str(tmp_path / "d.parquet")])
    assert code == 2


def test_scale_prints_series(capsys):
    code = main(["scale", "--sizes", "300,600", "--processors", "2,4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "modeled parallel runtime" in out
    assert "speedup" in out
    assert "600" in out


def test_module_entry_point():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "repro", "train", "--records", "300",
         "--processors", "2"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "train accuracy" in proc.stdout


def test_train_rules_and_importance(capsys):
    code = main(["train", "--records", "500", "--processors", "2",
                 "--rules", "--importance", "--max-depth", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "IF " in out and "THEN class" in out
    assert "salary" in out


def test_train_distributed_source(capsys):
    code = main(["train", "--records", "600", "--processors", "2",
                 "--distributed-source"])
    out = capsys.readouterr().out
    assert code == 0
    assert "train accuracy" in out


def test_report_command(tmp_path, capsys):
    (tmp_path / "fig3a_runtime.txt").write_text("TABLE\n")
    out_file = tmp_path / "report.md"
    code = main(["report", "--results", str(tmp_path),
                 "--out", str(out_file)])
    assert code == 0
    assert "Figure 3(a)" in out_file.read_text()
    capsys.readouterr()
    assert main(["report", "--results", str(tmp_path)]) == 0
    assert "TABLE" in capsys.readouterr().out


@pytest.mark.parametrize("flag", [["--max-delay-ms", "1"], ["--workers", "2"]])
def test_serve_has_no_delay_or_pool_flag(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["serve", "--registry", "models", *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
