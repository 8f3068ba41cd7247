"""Smoke tests of the scripts under ``scripts/``, run in-process through their ``main``."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cfr_scan_prints_one_row_per_step(capsys):
    load_script("cfr_scan").main(["--steps", "3"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "q,witness,real_distance,residual,complex_distance,real_sep,complex_sep"
    rows = [line.split(",") for line in lines[1:]]
    assert [row[0] for row in rows] == ["0.000", "0.500", "1.000"]
    # q = 0 and q = 1 are the two circular mixtures: <yy> = -+1, real distance 1/2,
    # complex distance 0; the real field never certifies them, the complex one does
    assert [float(row[1]) for row in rows] == pytest.approx([-1.0, 0.0, 1.0], abs=1e-12)
    assert [float(row[2]) for row in rows] == pytest.approx([0.5, 0.0, 0.5], abs=1e-12)
    assert max(abs(float(row[4])) for row in rows) < 1e-12
    assert [row[5:] for row in rows] == [["False", "True"], ["True", "True"], ["False", "True"]]


@pytest.mark.parametrize("visibility", ["1.5", "-0.1", "nan"])
def test_cfr_scan_rejects_bad_visibility(capsys, visibility):
    with pytest.raises(SystemExit) as exc:
        load_script("cfr_scan").main(["--steps", "3", "--visibility", visibility])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage:")
    if visibility != "nan":
        assert f"error: visibility must lie in [0, 1], got {float(visibility)}" in captured.err
    else:
        assert "error: parameter 'v'" in captured.err


def test_replicate_experiment_small_run(tmp_path, capsys):
    load_script("replicate_experiment").main(
        ["--events", "2000", "--mc-samples", "20", "--workdir", str(tmp_path)]
    )
    lines = capsys.readouterr().out.splitlines()
    # the CLI's own output comes first
    table = lines[next(i for i, line in enumerate(lines) if line.startswith("state ")):]
    assert table[0].split() == [
        "state", "<yy>", "witness", "similarity", "[%]", "real", "distance", "complex", "distance"
    ]
    assert [row.split()[0] for row in table[1:3]] == ["q=1", "q=0"]
    assert table[3] == ""
    assert table[-1].startswith("ideal targets: witness +-0.96, real distance 0.48")
    for tag in ("q=1", "q=0"):
        for field, header in (("real", ",H,V,D,A"), ("complex", ",H,V,D,A,R,L")):
            csv = (tmp_path / f"report_{tag}.quasi_{field}.csv").read_text().splitlines()
            assert csv[0] == header
            assert [row.split(",")[0] for row in csv[1:]] == header.split(",")[1:]


def test_replicate_experiment_rejects_bad_visibility(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        load_script("replicate_experiment").main(
            ["--visibility", "1.5", "--events", "100", "--workdir", str(tmp_path)]
        )
    assert exc.value.code == 2
    assert "negative weight for component 'mixed'" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())
