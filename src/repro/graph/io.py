"""Graph serialization: SNAP-style edge-list text and compact ``.npz``.

The paper's workers read graph files from cloud blob storage; our
:mod:`repro.cloud.blob` stand-in stores exactly these formats.  Both writers
round-trip losslessly (tests assert this).
"""

from __future__ import annotations

import io
import re
import warnings
from pathlib import Path

import numpy as np

from .builder import GraphBuilder
from .csr import CSRGraph

__all__ = [
    "write_edge_list",
    "read_edge_list",
    "write_npz",
    "read_npz",
    "to_edge_list_bytes",
    "from_edge_list_bytes",
]


def write_edge_list(graph: CSRGraph, path: str | Path) -> None:
    """Write a SNAP-style edge list: ``# comment`` header then ``u\\tv`` rows.

    For undirected graphs only the ``u < v`` arc is written.
    """
    Path(path).write_bytes(to_edge_list_bytes(graph))


def to_edge_list_bytes(graph: CSRGraph) -> bytes:
    buf = io.StringIO()
    kind = "undirected" if graph.undirected else "directed"
    buf.write(f"# repro graph: {graph.name or 'unnamed'}\n")
    buf.write(f"# kind: {kind}\n")
    buf.write(f"# nodes: {graph.num_vertices} arcs: {graph.num_arcs}\n")
    if graph.weighted:
        buf.write("# weighted: true\n")
        for v in range(graph.num_vertices):
            nbrs = graph.neighbors(v)
            ws = graph.neighbor_weights(v)
            for u, w in zip(nbrs, ws):
                if not graph.undirected or v < int(u):
                    buf.write(f"{v}\t{int(u)}\t{float(w)!r}\n")
        return buf.getvalue().encode()
    edges = graph.edge_array()
    if graph.undirected:
        edges = edges[edges[:, 0] < edges[:, 1]]
    for u, v in edges:
        buf.write(f"{u}\t{v}\n")
    return buf.getvalue().encode()


def read_edge_list(path: str | Path) -> CSRGraph:
    return from_edge_list_bytes(Path(path).read_bytes())


#: comment lines (``#`` after optional blanks) and the first edge line,
#: matched from the newline before them (a literal prefix the regex
#: engine scans for quickly, unlike a multiline ``^``)
_COMMENT = re.compile(r"\n[ \t\f\v]*#(.*)")
_FIRST_EDGE = re.compile(r"\n[ \t\f\v]*([^#\s].*)")
_WEIGHTED_EDGE = np.dtype(
    [("u", np.int64), ("v", np.int64), ("w", np.float64)]
)


def from_edge_list_bytes(data: bytes) -> CSRGraph:
    """Parse :func:`to_edge_list_bytes` output (or any SNAP edge list).

    Header comments are optional; without a ``# nodes:`` line the vertex
    count is ``max id + 1`` and the graph is treated as directed.
    Comment lines may appear anywhere.  The first edge line fixes the
    format: ``u v`` rows, or ``u v w`` rows (extra columns ignored) for a
    weighted graph.  The body is parsed in one vectorized pass; only a
    failed parse walks the lines, to name the first bad one.
    """
    text = data.decode()
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    name = ""
    undirected = False
    weighted = False
    declared_n: int | None = None
    scan = "\n" + text
    for m in _COMMENT.finditer(scan):
        body = m.group(1).strip()
        if body.startswith("repro graph:"):
            name = body.split(":", 1)[1].strip()
            if name == "unnamed":
                name = ""
        elif body.startswith("kind:"):
            undirected = body.split(":", 1)[1].strip() == "undirected"
        elif body.startswith("nodes:"):
            declared_n = int(body.split()[1])
        elif body.startswith("weighted:"):
            weighted = body.split(":", 1)[1].strip() == "true"

    first = _FIRST_EDGE.search(scan)
    src = dst = wts = None
    if first is not None:
        ncols = len(first.group(1).split("#", 1)[0].split())
        if ncols < 2 or (weighted and ncols == 2):
            _raise_bad_line(text, ValueError("weights must match edge count"))
        weighted = ncols >= 3
        try:
            with warnings.catch_warnings():
                # numpy releases that still read an integer via a float
                # (``1.5`` -> 1) only warn; make that a parse error too
                warnings.simplefilter("error", DeprecationWarning)
                if weighted:
                    rows = np.loadtxt(
                        io.StringIO(text), dtype=_WEIGHTED_EDGE,
                        comments="#", usecols=(0, 1, 2), ndmin=1,
                    )
                    src, dst, wts = rows["u"], rows["v"], rows["w"]
                else:
                    rows = np.loadtxt(io.StringIO(text), dtype=np.int64,
                                      comments="#", ndmin=2)
                    src, dst = rows[:, 0], rows[:, 1]
        except (ValueError, DeprecationWarning) as err:
            _raise_bad_line(text, err)
    if declared_n is not None:
        n = declared_n
    else:
        n = int(max(src.max(), dst.max())) + 1 if src is not None else 0
    b = GraphBuilder(n, undirected=undirected)
    if src is not None:
        b.add_edges(src, dst, wts)
    return b.build(name=name)


def _raise_bad_line(text: str, fallback: Exception) -> None:
    """Raise the error of the first line a per-line reader rejects, or
    ``fallback`` when every line reads on its own (mixed column counts).

    A ``u v`` line is missing its weight once the graph is weighted: by
    a ``# weighted: true`` header or an earlier ``u v w`` line.  As in
    the vectorized pass, ``#`` starts a comment anywhere on a line.
    """
    weighted = False
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("weighted:"):
                weighted = body.split(":", 1)[1].strip() == "true"
            continue
        parts = line.split("#", 1)[0].split()
        if len(parts) < 2:
            raise ValueError(f"malformed edge line: {raw!r}")
        int(parts[0]), int(parts[1])  # raises on a non-integer id
        if len(parts) >= 3:
            weighted = True
            float(parts[2])
        elif weighted:
            raise ValueError(f"missing weight on line: {raw!r}")
    raise fallback


def write_npz(graph: CSRGraph, path: str | Path) -> None:
    """Compact binary form: CSR arrays + metadata, via numpy ``.npz``."""
    arrays = dict(
        indptr=graph.indptr,
        indices=graph.indices,
        num_vertices=np.int64(graph.num_vertices),
        undirected=np.bool_(graph.undirected),
        name=np.str_(graph.name),
    )
    if graph.weights is not None:
        arrays["weights"] = graph.weights
    np.savez_compressed(Path(path), **arrays)


def read_npz(path: str | Path) -> CSRGraph:
    with np.load(Path(path), allow_pickle=False) as z:
        return CSRGraph(
            int(z["num_vertices"]),
            z["indptr"],
            z["indices"],
            undirected=bool(z["undirected"]),
            name=str(z["name"]),
            weights=z["weights"] if "weights" in z else None,
        )
