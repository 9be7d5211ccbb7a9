"""Pegasus DAX (v3) workflow interchange.

Public scientific-workflow traces (Montage, Epigenomics, ...) are
distributed as DAX XML.  We support the subset the traces actually use:
``<job id runtime>`` with ``<uses file link=input|output size>`` file
declarations, plus explicit ``<child><parent/></child>`` dependencies.
Data volume on a dependency edge is the total size of files the parent
writes and the child reads; when a trace omits file sizes the edge gets
zero data (the CPU-intensive assumption).
"""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET
from collections import defaultdict
from pathlib import Path
from typing import Dict, Set, Tuple

from repro.errors import WorkflowParseError
from repro.workflows.dag import Workflow
from repro.workflows.task import Task

_BYTES_PER_GB = 1024**3


def _local(tag: str) -> str:
    """Tag name with any XML namespace stripped."""
    return tag.rsplit("}", 1)[-1]


def parse_dax_string(text: str, name: str = "dax") -> Workflow:
    """Parse a DAX v3 document from a string. See :func:`parse_dax`."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise WorkflowParseError(f"malformed DAX XML: {exc}") from exc
    if _local(root.tag) != "adag":
        raise WorkflowParseError(f"expected <adag> root, got <{_local(root.tag)}>")

    wf = Workflow(root.get("name", name))
    # file -> (producers, consumers) with sizes, to infer data edges
    produces: Dict[str, Set[str]] = defaultdict(set)
    consumes: Dict[str, Set[str]] = defaultdict(set)
    file_gb: Dict[str, float] = {}

    for job in root:
        if _local(job.tag) != "job":
            continue
        jid = job.get("id")
        if not jid:
            raise WorkflowParseError("<job> without id attribute")
        runtime = job.get("runtime")
        if runtime is None:
            raise WorkflowParseError(f"job {jid!r} has no runtime attribute")
        try:
            work = float(runtime)
        except ValueError:
            raise WorkflowParseError(
                f"job {jid!r} has non-numeric runtime {runtime!r}"
            ) from None
        if not math.isfinite(work):
            raise WorkflowParseError(
                f"job {jid!r} has non-finite runtime {runtime!r}"
            )
        if work <= 0:
            # Traces occasionally record zero-length bookkeeping jobs;
            # clamp to a tiny epsilon so the Task invariant holds.
            work = 1e-6
        wf.add_task(Task(jid, work, job.get("name", "")))
        for uses in job:
            if _local(uses.tag) != "uses":
                continue
            fname = uses.get("file") or uses.get("name")
            if not fname:
                continue
            size = uses.get("size")
            if size is not None:
                try:
                    file_gb[fname] = float(size) / _BYTES_PER_GB
                except ValueError:
                    raise WorkflowParseError(
                        f"job {jid!r}: non-numeric size {size!r} for file {fname!r}"
                    ) from None
            link = (uses.get("link") or "").lower()
            if link == "output":
                produces[fname].add(jid)
            elif link == "input":
                consumes[fname].add(jid)

    # Explicit control dependencies.
    deps: Dict[Tuple[str, str], float] = {}
    for child in root:
        if _local(child.tag) != "child":
            continue
        cid = child.get("ref")
        if not cid:
            raise WorkflowParseError("<child> without ref attribute")
        for parent in child:
            if _local(parent.tag) != "parent":
                continue
            pid = parent.get("ref")
            if not pid:
                raise WorkflowParseError("<parent> without ref attribute")
            deps.setdefault((pid, cid), 0.0)

    # Attach file volumes to the matching edges.
    for fname, writers in produces.items():
        gb = file_gb.get(fname, 0.0)
        for w in writers:
            for r in consumes.get(fname, ()):
                if w == r:
                    continue
                key = (w, r)
                if key in deps:
                    deps[key] += gb

    for (pid, cid), gb in sorted(deps.items()):
        if pid not in wf or cid not in wf:
            raise WorkflowParseError(f"dependency references unknown job: {pid}->{cid}")
        wf.add_dependency(pid, cid, gb)
    return wf.validate()


def parse_dax(path: str | Path) -> Workflow:
    """Parse a DAX v3 file from *path*."""
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise WorkflowParseError(f"cannot read {p}: {exc}") from exc
    return parse_dax_string(text, name=p.stem)


def to_dax(wf: Workflow) -> str:
    """Serialize *wf* as DAX v3 XML (round-trips through the parser)."""
    wf.validate()
    root = ET.Element("adag", name=wf.name)
    edge_files: Dict[Tuple[str, str], str] = {}
    for i, (u, v, _gb) in enumerate(wf.edges()):
        edge_files[(u, v)] = f"file_{i:04d}"

    for task in wf.tasks:
        job = ET.SubElement(
            root, "job", id=task.id, name=task.category or task.id,
            runtime=repr(task.work),
        )
        for (u, v), fname in edge_files.items():
            gb = wf.data_gb(u, v)
            size = str(int(gb * _BYTES_PER_GB))
            if u == task.id:
                ET.SubElement(job, "uses", file=fname, link="output", size=size)
            if v == task.id:
                ET.SubElement(job, "uses", file=fname, link="input", size=size)

    children: Dict[str, list[str]] = defaultdict(list)
    for u, v, _gb in wf.edges():
        children[v].append(u)
    for cid in sorted(children):
        child = ET.SubElement(root, "child", ref=cid)
        for pid in sorted(children[cid]):
            ET.SubElement(child, "parent", ref=pid)
    return ET.tostring(root, encoding="unicode")
