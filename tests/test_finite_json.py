"""No artifact carries NaN or Infinity: strict JSON or a typed error.

Python's encoder writes ``NaN``/``Infinity`` unless told otherwise, and
no strict JSON reader accepts them.  Artifacts (figure exports, atomic
JSON files, checkpoint records and manifests, ``experiment --json``)
raise :class:`~repro.core.errors.NonFiniteError` instead; the JSONL event
sink, which must never fail the run it observes, writes ``null``.
"""

import io
import json
import math

import pytest

from repro import cli
from repro.core.errors import NonFiniteError, ReproError, finite_json
from repro.obs.events import JsonlEventSink, read_events
from repro.reporting.figures import FigureData, Series
from repro.reporting.serialize import figure_to_json
from repro.robustness import durability
from repro.robustness.durability import DurableChunkStore, atomic_write_json


def strict_loads(text):
    def refuse(name):
        raise AssertionError(f"non-strict JSON constant {name}")

    return json.loads(text, parse_constant=refuse)


class TestFiniteJson:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_raise_a_typed_error(self, value):
        with pytest.raises(NonFiniteError, match="the payload") as excinfo:
            finite_json({"x": [1.0, value]}, "the payload")
        assert isinstance(excinfo.value, ReproError)
        assert isinstance(excinfo.value, ValueError)

    def test_finite_payloads_are_plain_json(self):
        payload = {"b": [1.5, 2], "a": None}
        assert finite_json(payload, "x", sort_keys=True) == json.dumps(
            payload, sort_keys=True
        )


class TestArtifacts:
    def test_figure_export(self):
        figure = FigureData(
            title="t",
            x_label="x",
            y_label="y",
            series=(Series("s", (1.0, 2.0), (3.0, math.nan)),),
        )
        with pytest.raises(NonFiniteError, match="figure 't'"):
            figure_to_json(figure)

    def test_atomic_json_writes_nothing(self, tmp_path):
        path = tmp_path / "bench.json"
        with pytest.raises(NonFiniteError):
            atomic_write_json(path, {"items_per_s": math.inf})
        assert not path.exists()
        atomic_write_json(path, {"items_per_s": 1.0})
        assert strict_loads(path.read_text()) == {"items_per_s": 1.0}

    def test_checkpoint_manifest_and_record_header(self, tmp_path):
        store = DurableChunkStore(
            tmp_path / "mc.ckpt", kind="montecarlo", fingerprint="f"
        )
        store.create({"completed": 0})
        with pytest.raises(NonFiniteError, match="checkpoint manifest"):
            store.commit({"completed": math.nan})
        with pytest.raises(NonFiniteError, match="chunk record header"):
            durability._record_parts(
                index=0,
                start=0,
                stop=math.inf,
                generation=1,
                kind="montecarlo",
                fingerprint="f",
                arrays={},
            )
        store.close()

    def test_a_manifest_holding_nan_reads_as_damaged(self, tmp_path):
        path = tmp_path / "manifest"
        body = {"format": durability.STORE_FORMAT, "meta": {"x": math.nan}}
        path.write_text(json.dumps(dict(body, crc=0)))
        assert durability._read_manifest(str(path)) is None

    def test_experiment_json_exits_with_an_error(self, monkeypatch, capsys):
        class Result:
            def as_dict(self):
                return {"observed": math.nan}

            def failed_checks(self):
                return ()

        monkeypatch.setattr(cli, "_run_experiment_set", lambda _: (Result(),))
        assert cli.main(["experiment", "fig6", "--json"]) == 2
        captured = capsys.readouterr()
        assert "experiment results cannot be written as JSON" in captured.err
        assert "NaN" not in captured.out


class TestEventSink:
    def test_non_finite_fields_are_written_as_null(self):
        stream = io.StringIO()
        sink = JsonlEventSink(stream)
        sink.emit("metric", value=math.nan, nested={"a": [1.0, -math.inf]})
        sink.emit("metric", value=2.5)
        lines = stream.getvalue().splitlines()
        first, second = (strict_loads(line) for line in lines)
        assert first["value"] is None
        assert first["nested"] == {"a": [1.0, None]}
        assert second["value"] == 2.5

    def test_a_file_sink_stays_readable(self, tmp_path):
        path = tmp_path / "events.jsonl"
        sink = JsonlEventSink(str(path))
        sink.emit("chunk", completed=math.inf)
        sink.close()
        (event,) = read_events(str(path))
        assert event["completed"] is None
