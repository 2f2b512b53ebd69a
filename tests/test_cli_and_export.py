"""Command-line interface and waveform CSV round trip."""

import csv
import io
from types import SimpleNamespace

import numpy as np
import pytest

from repro.circuits.interconnect import rc_grid
from repro.circuits.registry import get_benchmark
from repro.cli import main
from repro.engine.transient import run_transient
from repro.errors import SimulationError
from repro.waveform.export import read_csv, to_csv_text, write_csv
from repro.waveform.waveform import WaveformSet

DECK = """RC lowpass
V1 in 0 PULSE(0 1 1u 1n 1n 1m)
R1 in out 1k
C1 out 0 1n
.tran 10n 5u
.end
"""

OP_DECK = """divider
V1 top 0 10
R1 top mid 1k
R2 mid 0 3k
.op
.end
"""

DC_DECK = """divider sweep
V1 top 0 0
R1 top mid 1k
R2 mid 0 3k
.dc V1 0 4 1
.end
"""


@pytest.fixture
def deck_file(tmp_path):
    path = tmp_path / "deck.cir"
    path.write_text(DECK)
    return str(path)


class TestCli:
    def test_transient_run(self, deck_file, capsys):
        assert main([deck_file, "--samples", "5"]) == 0
        out = capsys.readouterr().out
        assert "RC lowpass" in out
        assert "v(out)" in out
        assert "transient:" in out

    def test_op_analysis(self, tmp_path, capsys):
        path = tmp_path / "op.cir"
        path.write_text(OP_DECK)
        assert main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "Operating point" in out
        assert "7.5V" in out

    def test_default_op_when_no_analysis(self, tmp_path, capsys):
        path = tmp_path / "noa.cir"
        path.write_text("bare\nV1 a 0 1\nR1 a 0 1k\n.end\n")
        assert main([str(path)]) == 0
        assert "Operating point" in capsys.readouterr().out

    def test_dc_sweep(self, tmp_path, capsys):
        path = tmp_path / "dc.cir"
        path.write_text(DC_DECK)
        assert main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "DC sweep of V1" in out

    def test_wavepipe_mode(self, deck_file, capsys):
        assert main([deck_file, "--wavepipe", "combined", "--threads", "3"]) == 0
        out = capsys.readouterr().out
        assert "wavepipe combined x3" in out
        assert "speedup" in out

    def test_csv_export(self, deck_file, tmp_path, capsys):
        target = tmp_path / "waves.csv"
        assert main([deck_file, "--csv", str(target)]) == 0
        ws = read_csv(str(target))
        assert "v(out)" in ws
        assert ws.voltage("out").final_value() == pytest.approx(1.0 - np.exp(-4.0), abs=0.01)

    def test_signal_selection(self, deck_file, capsys):
        assert main([deck_file, "--signals", "v(out)"]) == 0
        out = capsys.readouterr().out
        assert "v(out)" in out

    def test_missing_deck_is_usage_error(self, capsys):
        assert main([]) == 2

    def test_missing_file_reports_error(self, capsys):
        assert main(["/nonexistent/deck.cir"]) == 1
        assert "error" in capsys.readouterr().err

    def test_bad_deck_reports_error(self, tmp_path, capsys):
        path = tmp_path / "bad.cir"
        path.write_text("title\nZ1 a 0 1k\n")
        assert main([str(path)]) == 1
        assert "unknown element" in capsys.readouterr().err

    def test_unknown_experiment_rejected(self, capsys):
        assert main(["--experiment", "table_zz"]) == 2

    def test_experiment_runs(self, capsys):
        assert main(["--experiment", "table_r1"]) == 0
        assert "Table R1" in capsys.readouterr().out


class TestCsvRoundTrip:
    def make_set(self):
        t = np.linspace(0, 1e-6, 57)
        return WaveformSet(
            t, {"v(a)": np.sin(1e7 * t), "i(V1)": np.cos(1e7 * t) * 1e-3}
        )

    def test_round_trip_lossless(self):
        original = self.make_set()
        text = to_csv_text(original)
        restored = read_csv(io.StringIO(text))
        np.testing.assert_array_equal(restored.times, original.times)
        for name in original.names:
            np.testing.assert_array_equal(
                restored[name].values, original[name].values
            )

    def test_signal_subset(self):
        text = to_csv_text(self.make_set(), signals=["v(a)"])
        restored = read_csv(io.StringIO(text))
        assert restored.names == ["v(a)"]

    def test_unknown_signal_rejected(self):
        with pytest.raises(SimulationError):
            to_csv_text(self.make_set(), signals=["v(zz)"])

    def test_file_path_target(self, tmp_path):
        path = tmp_path / "w.csv"
        write_csv(self.make_set(), str(path))
        restored = read_csv(str(path))
        assert set(restored.names) == {"v(a)", "i(V1)"}

    def test_empty_csv_rejected(self):
        with pytest.raises(SimulationError, match="empty"):
            read_csv(io.StringIO(""))

    def test_missing_time_column_rejected(self):
        with pytest.raises(SimulationError, match="time"):
            read_csv(io.StringIO("a,b\n1,2\n"))

    def test_no_rows_rejected(self):
        with pytest.raises(SimulationError, match="no data"):
            read_csv(io.StringIO("time,v(a)\n"))

    def test_ragged_rows_rejected(self):
        with pytest.raises(SimulationError):
            read_csv(io.StringIO("time,v(a)\n0.0,1.0,2.0\n"))


def _rowwise_csv(waveforms, signals=None):
    """The row-at-a-time csv.writer export, kept as the byte oracle."""
    names = signals if signals is not None else sorted(waveforms.names)
    columns = [waveforms[name].values for name in names]
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["time"] + names)
    for k, t in enumerate(waveforms.times):
        writer.writerow([repr(float(t))] + [repr(float(c[k])) for c in columns])
    return buffer.getvalue()


def _special_values(rows):
    """*rows* samples cycling through every float spelling repr can take."""
    specials = np.array(
        [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e22, -1e22, 3.0, -7.0,
         1e16, 123456789.0, 0.1, 1.5e-300, 2.0**-1074, np.pi]
    )
    idx = np.arange(rows)
    return WaveformSet(
        idx * 1e-9,
        {
            "v(x)": specials[idx % specials.size],
            "v(y)": specials[(idx * 7 + 3) % specials.size] * -1.0,
            "i(V1)": idx.astype(float),
        },
    )


class TestCsvWriterBytes:
    """The chunked writer is byte-equal to the row-at-a-time one."""

    def test_grid32_waveforms(self):
        result = run_transient(rc_grid(32, 32), 10e-9)
        assert to_csv_text(result.waveforms) == _rowwise_csv(result.waveforms)

    def test_registry_transient(self):
        bench = get_benchmark("rectifier")
        result = run_transient(bench.build(), bench.tstop, tstep=bench.tstep,
                               options=bench.options)
        assert to_csv_text(result.waveforms) == _rowwise_csv(result.waveforms)

    @pytest.mark.parametrize("rows", [0, 1, 2, 15, 16, 17, 33, 50])
    def test_special_values_at_every_chunk_boundary(self, rows):
        waves = _special_values(rows)
        assert to_csv_text(waves) == _rowwise_csv(waves)

    @pytest.mark.parametrize("rows", [0, 1, 40])
    def test_signals_subset(self, rows):
        waves = _special_values(rows)
        for signals in (["v(y)"], ["i(V1)", "v(x)"], []):
            assert to_csv_text(waves, signals) == _rowwise_csv(waves, signals)

    def test_zero_rows_writes_the_header_only(self):
        assert to_csv_text(_special_values(0)) == "time,i(V1),v(x),v(y)\r\n"

    def test_path_target_equals_text(self, tmp_path):
        waves = _special_values(40)
        path = tmp_path / "w.csv"
        write_csv(waves, str(path))
        assert path.read_bytes() == to_csv_text(waves).encode("utf-8")

    def test_complex_values_raise(self):
        # A WaveformSet stores floats; any other mapping of traces that
        # carries complex samples must fail rather than drop their
        # imaginary part.
        class ComplexTraces:
            times = np.arange(3.0)
            names = ["v(x)"]

            def __contains__(self, name):
                return name in self.names

            def __getitem__(self, name):
                return SimpleNamespace(values=np.array([1.0, 2.0 + 1j, 3.0]))

        with pytest.raises(TypeError, match="complex"):
            to_csv_text(ComplexTraces())

    def test_read_csv_round_trips_special_values(self):
        waves = _special_values(40)
        restored = read_csv(io.StringIO(to_csv_text(waves)))
        np.testing.assert_array_equal(restored.times, waves.times)
        for name in waves.names:
            np.testing.assert_array_equal(restored[name].values, waves[name].values)
            assert np.array_equal(
                np.signbit(restored[name].values), np.signbit(waves[name].values)
            )
