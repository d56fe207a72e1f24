"""JSON file formats for graphs and certificates.

Graph files carry either a co-chain encoding (fields ``l_size``, ``m_size``,
``thresholds``) or a general graph (fields ``n``, ``edges``); the reader
detects which by the fields present.  Certificate files carry the method
tag, the hitting edge list, the packing triangle list, both sizes, and the
verification flags, all in canonical sorted order so files diff cleanly.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from .certify import Certificate
from .graphs import CoChainGraph, GeneralGraph, build_cochain

AnyGraph = Union[CoChainGraph, GeneralGraph]


class GraphFormatError(ValueError):
    """The file is not valid JSON, or not a recognized graph or certificate
    document."""


def cochain_document(g: CoChainGraph) -> dict:
    return {
        "l_size": g.l_size,
        "m_size": g.m_size,
        "thresholds": list(g.thresholds),
    }


def write_cochain(path: str | Path, g: CoChainGraph) -> None:
    Path(path).write_text(json.dumps(cochain_document(g), indent=2) + "\n")


def write_general(path: str | Path, g: GeneralGraph) -> None:
    doc = {"n": g.n, "edges": [list(e) for e in g.edge_list()]}
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def _read_object(path: str | Path) -> dict:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        # ValueError covers text that is not UTF-8 and JSON that does not
        # parse; RecursionError, arrays or objects nested too deeply
        raise GraphFormatError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise GraphFormatError(f"{path}: expected a JSON object")
    return doc


def read_graph(path: str | Path) -> AnyGraph:
    doc = _read_object(path)
    if {"l_size", "m_size", "thresholds"} <= doc.keys():
        try:
            return build_cochain(doc["l_size"], doc["m_size"], doc["thresholds"])
        except (TypeError, ValueError) as exc:
            raise GraphFormatError(f"{path}: bad co-chain document ({exc})") from exc
    if {"n", "edges"} <= doc.keys():
        try:
            n, edges = doc["n"], [tuple(e) for e in doc["edges"]]
            for v in (n, *(u for e in edges for u in e)):
                if type(v) is not int:
                    raise ValueError(f"n and edge ends must be int, got {v!r}")
            return GeneralGraph.from_edges(n, edges)
        except (TypeError, ValueError) as exc:
            raise GraphFormatError(f"{path}: bad graph document ({exc})") from exc
    raise GraphFormatError(
        f"{path}: need fields l_size/m_size/thresholds or n/edges"
    )


def certificate_document(cert: Certificate) -> dict:
    return {
        "method": cert.method,
        "h_size": cert.h_size,
        "p_size": cert.p_size,
        "ratio_ok": cert.ratio_ok,
        "hitting_valid": True,
        "packing_valid": True,
        "hitting": [list(e) for e in cert.hitting.sorted_edges()],
        "packing": [list(t) for t in cert.packing.sorted_triangles()],
    }


def write_certificate(path: str | Path, cert: Certificate) -> None:
    Path(path).write_text(json.dumps(certificate_document(cert), indent=2) + "\n")


def read_certificate(path: str | Path) -> dict:
    doc = _read_object(path)
    required = {"method", "h_size", "p_size", "ratio_ok", "hitting", "packing"}
    if not required <= doc.keys():
        raise GraphFormatError(f"{path}: missing certificate fields")
    return doc
