"""Tests for Pegasus DAX parsing/serialization."""

import pytest

from repro.errors import WorkflowError, WorkflowParseError
from repro.workflows.dax import parse_dax, parse_dax_string, to_dax
from repro.workflows.generators import montage

_GB = 1024**3

_SAMPLE = f"""
<adag name="sample">
  <job id="j1" name="preprocess" runtime="120.5">
    <uses file="f.out" link="output" size="{2 * _GB}"/>
  </job>
  <job id="j2" name="analyze" runtime="300">
    <uses file="f.out" link="input" size="{2 * _GB}"/>
  </job>
  <job id="j3" name="tail" runtime="60"/>
  <child ref="j2"><parent ref="j1"/></child>
  <child ref="j3"><parent ref="j2"/></child>
</adag>
"""


class TestParse:
    def test_tasks_and_runtimes(self):
        wf = parse_dax_string(_SAMPLE)
        assert wf.name == "sample"
        assert len(wf) == 3
        assert wf.task("j1").work == pytest.approx(120.5)
        assert wf.task("j1").category == "preprocess"

    def test_dependencies(self):
        wf = parse_dax_string(_SAMPLE)
        assert wf.predecessors("j2") == ["j1"]
        assert wf.predecessors("j3") == ["j2"]

    def test_file_size_becomes_edge_volume(self):
        wf = parse_dax_string(_SAMPLE)
        assert wf.data_gb("j1", "j2") == pytest.approx(2.0)
        assert wf.data_gb("j2", "j3") == 0.0

    def test_namespace_tolerated(self):
        text = _SAMPLE.replace(
            "<adag name=", '<adag xmlns="http://pegasus.isi.edu/schema/DAX" name='
        )
        wf = parse_dax_string(text)
        assert len(wf) == 3

    def test_zero_runtime_clamped(self):
        text = '<adag><job id="a" runtime="0"/></adag>'
        wf = parse_dax_string(text)
        assert wf.task("a").work > 0

    @pytest.mark.parametrize("runtime", ["inf", "-inf", "nan"])
    def test_non_finite_runtime_names_the_job(self, runtime):
        text = f'<adag><job id="j7" runtime="{runtime}"/></adag>'
        with pytest.raises(WorkflowParseError, match="'j7'.*non-finite"):
            parse_dax_string(text)

    @pytest.mark.parametrize("size", ["inf", "nan"])
    def test_non_finite_file_size_names_the_edge(self, size):
        text = _SAMPLE.replace(f'size="{2 * _GB}"', f'size="{size}"')
        with pytest.raises(WorkflowError, match="non-finite.*'j1'->'j2'"):
            parse_dax_string(text)

    def test_malformed_xml(self):
        with pytest.raises(WorkflowParseError):
            parse_dax_string("<adag><job id=")

    def test_wrong_root(self):
        with pytest.raises(WorkflowParseError, match="adag"):
            parse_dax_string("<workflow/>")

    def test_missing_runtime(self):
        with pytest.raises(WorkflowParseError, match="runtime"):
            parse_dax_string('<adag><job id="a"/></adag>')

    def test_non_numeric_runtime(self):
        with pytest.raises(WorkflowParseError):
            parse_dax_string('<adag><job id="a" runtime="fast"/></adag>')

    def test_unknown_dependency_target(self):
        text = (
            '<adag><job id="a" runtime="1"/>'
            '<child ref="ghost"><parent ref="a"/></child></adag>'
        )
        with pytest.raises(WorkflowParseError):
            parse_dax_string(text)

    def test_missing_child_ref(self):
        text = '<adag><job id="a" runtime="1"/><child><parent ref="a"/></child></adag>'
        with pytest.raises(WorkflowParseError):
            parse_dax_string(text)

    def test_parse_file(self, tmp_path):
        p = tmp_path / "wf.dax"
        p.write_text(_SAMPLE)
        wf = parse_dax(p)
        assert len(wf) == 3

    def test_parse_missing_file(self, tmp_path):
        with pytest.raises(WorkflowParseError):
            parse_dax(tmp_path / "nope.dax")


class TestRoundTrip:
    def test_montage_round_trips(self):
        original = montage()
        back = parse_dax_string(to_dax(original))
        assert sorted(back.task_ids) == sorted(original.task_ids)
        assert sorted((u, v) for u, v, _ in back.edges()) == sorted(
            (u, v) for u, v, _ in original.edges()
        )
        for t in original.tasks:
            assert back.task(t.id).work == pytest.approx(t.work)

    def test_edge_volumes_survive(self):
        original = montage()
        back = parse_dax_string(to_dax(original))
        for u, v, gb in original.edges():
            assert back.data_gb(u, v) == pytest.approx(gb, abs=1e-6)
