import json
import math
from pathlib import Path

import pytest

from pedcascade.cli import cli_dispatch
from pedcascade.sweep import SweepCell, grid_sweep, sweep_to_csv


class TestGridSweep:
    def test_row_major_order_and_values(self):
        calls = []

        def run(params, seed):
            calls.append((params["a"], params["b"], seed))
            return params["a"] * 10 + params["b"]

        cells = grid_sweep([("a", [1, 2]), ("b", [3, 4])], run, n_seeds=2, base_seed=5)
        assert [c.params for c in cells] == [
            {"a": 1, "b": 3}, {"a": 1, "b": 4}, {"a": 2, "b": 3}, {"a": 2, "b": 4}
        ]
        assert cells[0].values == [13.0, 13.0]
        assert calls[0] == (1, 3, 5) and calls[1] == (1, 3, 6)

    def test_mean_std(self):
        c = SweepCell(params={}, values=[1.0, 3.0])
        assert c.mean == 2.0 and c.std == 1.0
        empty = SweepCell(params={})
        assert math.isnan(empty.mean)

    def test_failure_isolated(self):
        def run(params, seed):
            if params["a"] == 2:
                raise RuntimeError("bad cell")
            return 1.0

        cells = grid_sweep([("a", [1, 2, 3])], run)
        assert cells[0].error is None and cells[2].error is None
        assert "bad cell" in cells[1].error
        assert cells[1].values == []

    def test_empty_axes_rejected(self):
        with pytest.raises(ValueError):
            grid_sweep([], lambda p, s: 0.0)
        with pytest.raises(ValueError):
            grid_sweep([("a", [])], lambda p, s: 0.0)


class TestCsv:
    def test_header_and_rows(self):
        cells = [
            SweepCell(params={"lr": 0.1, "units": 8}, values=[0.5, 0.7]),
            SweepCell(params={"lr": 0.2, "units": 8}, error="ValueError: x"),
        ]
        text = sweep_to_csv(cells)
        lines = text.splitlines()
        assert lines[0] == "lr,units,mean,std,n,error"
        assert lines[1].startswith("0.1,8,0.6,")
        assert lines[2].endswith("ValueError: x")

    def test_tuple_params_quoted(self):
        cells = [SweepCell(params={"filters": (8, 16)}, values=[1.0])]
        text = sweep_to_csv(cells)
        assert "(8, 16)" in text

    def test_empty(self):
        assert sweep_to_csv([]) == ""


def test_net_sweep_script_smoke(tmp_path, capsys):
    """The shipped sweep config runs through `pedcascade sweep`; its task is
    shrunk in a copy so the smoke test stays small."""
    shipped = Path(__file__).resolve().parent.parent / "scripts" / "net_sweep.json"
    cfg = json.loads(shipped.read_text())
    cfg["task_config"].update(frames=4, epochs=1)
    small = tmp_path / "net_sweep.json"
    small.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli_dispatch(["--out-dir", str(out), "sweep", "--config", str(small),
                         "--seeds-per-cell", "1"]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "fc_units,filters,mean,std,n,error"
    assert len(lines) == 1 + 6
    assert all(line.endswith(",1,") for line in lines[1:])  # no cell failed
