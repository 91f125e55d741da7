"""Layout serialization: GridLayout <-> JSON.

Layouts are plain geometric data, so they round-trip exactly.  Node
labels are arbitrary hashables in memory; serialization encodes the
common cases (ints, strings, and arbitrarily nested tuples of those)
with a type tag so deserialization restores identical labels.
"""

from __future__ import annotations

import copy
import json
from typing import Hashable

import numpy as np

from repro.grid.geometry import Rect
from repro.grid.layout import GridLayout, Placement
from repro.grid.table import WireTable

__all__ = [
    "FORMAT_VERSION",
    "layout_to_json",
    "layout_from_json",
    "dump_layout",
    "load_layout",
    "clone_layout",
    "encode_label",
    "decode_label",
    "canonical_json",
]

FORMAT_VERSION = 1


def canonical_json(doc) -> str:
    """The canonical JSON form of ``doc``: sorted keys, no whitespace.

    The one serialization the content-addressed cache hashes, so two
    structurally equal documents always produce the same key.
    """
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _encode_label(label: Hashable):
    if isinstance(label, bool) or label is None:
        raise TypeError(f"unsupported node label: {label!r}")
    if isinstance(label, (int, str)):
        return label
    if isinstance(label, tuple):
        return {"t": [_encode_label(x) for x in label]}
    raise TypeError(f"unsupported node label type: {type(label).__name__}")


def _decode_label(obj):
    if isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, dict) and set(obj) == {"t"}:
        return tuple(_decode_label(x) for x in obj["t"])
    raise ValueError(f"bad label encoding: {obj!r}")


def _encode_edge_key(key):
    try:
        return _encode_label(key)
    except TypeError:
        return {"r": repr(key)}


def _decode_edge_key(obj):
    if isinstance(obj, dict) and set(obj) == {"r"}:
        return obj["r"]
    return _decode_label(obj)


# Public names for the label codec: the content-addressed cache and
# the fuzzer's counterexample corpus both fingerprint networks with
# exactly the encoding layouts serialize labels with, so key documents
# stay comparable to stored layouts across format versions.
encode_label = _encode_label
decode_label = _decode_label


def layout_to_json(layout: GridLayout) -> str:
    """Serialize a layout to a JSON string.

    Everything per wire -- labels, edge key, segment rows, riser --
    comes from the layout's :class:`~repro.grid.table.WireTable`
    columns, which store wires and segments in exactly the order the
    object path would serialize them, so the emitted JSON is
    byte-identical to walking ``layout.wires`` (and no ``Wire``
    object is built here).  Each distinct label is encoded once per
    call.
    """
    table = layout.wire_table()
    seg_rows = table.segment_rows()
    starts = table.wire_seg_start.tolist()
    zstarts = table.wire_zrun_start.tolist()
    risers = table.wire_is_riser.tolist()
    label = _Memo(_encode_label)
    edge_key = _Memo(_encode_edge_key)
    wires = []
    for wi, (u, v, key) in enumerate(
        zip(table.wire_u, table.wire_v, table.wire_edge_key)
    ):
        wire = {
            "u": label[u],
            "v": label[v],
            "edge_key": edge_key[key],
            "segments": seg_rows[starts[wi]:starts[wi + 1]],
        }
        if risers[wi]:
            z = zstarts[wi]
            wire["riser"] = [
                int(table.zrun_x[z]), int(table.zrun_y[z]),
                int(table.zrun_lo[z]), int(table.zrun_hi[z]),
            ]
        wires.append(wire)
    doc = {
        "format": FORMAT_VERSION,
        "layers": layout.layers,
        "meta": _jsonable_meta(layout.meta),
        "placements": [
            {
                "node": label[p.node],
                "rect": [p.rect.x0, p.rect.y0, p.rect.w, p.rect.h],
                "layer": p.layer,
            }
            for p in layout.placements.values()
        ],
        "wires": wires,
    }
    # The document is freshly built and acyclic (memoized codes are
    # shared, never nested in themselves): skip the cycle bookkeeping.
    return json.dumps(doc, check_circular=False)


class _Memo(dict):
    """``memo[x] == fn(x)``, computed once per distinct ``x``."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def _jsonable_meta(meta: dict) -> dict:
    out = {}
    for k, v in meta.items():
        try:
            json.dumps(v)
        except (TypeError, ValueError):
            v = repr(v)
        out[str(k)] = v
    return out


def layout_from_json(text: str) -> GridLayout:
    """Deserialize a layout produced by :func:`layout_to_json`.

    The segment rows load straight into table columns; ``seg_rev`` is
    derived by walking each path as ``Wire`` construction would, so
    no ``Wire`` object is built.
    """
    doc = json.loads(text)
    if doc.get("format") != FORMAT_VERSION:
        raise ValueError(f"unsupported layout format: {doc.get('format')!r}")
    placements: dict[Hashable, Placement] = {}
    for p in doc["placements"]:
        node = _decode_label(p["node"])
        if node in placements:
            raise ValueError(f"node placed twice: {node!r}")
        x0, y0, w, h = p["rect"]
        placements[node] = Placement(
            node, Rect(x0, y0, w, h), p.get("layer", 1)
        )
    wires = doc["wires"]
    rows = np.array([row for w in wires for row in w["segments"]])
    if rows.size and (
        rows.dtype.kind != "i" or rows.ndim != 2 or rows.shape[1] != 5
    ):
        raise ValueError("segment rows must hold five integers")
    risers = [(i, *w["riser"]) for i, w in enumerate(wires) if "riser" in w]
    if any(len(r) != 5 for r in risers):
        raise ValueError("a riser must hold four integers")
    cols = rows.reshape(-1, 5).T
    starts = np.cumsum([0] + [len(w["segments"]) for w in wires])
    table = WireTable.from_rows(
        *cols, None, starts,
        [_decode_label(w["u"]) for w in wires],
        [_decode_label(w["v"]) for w in wires],
        [_decode_edge_key(w["edge_key"]) for w in wires],
        placements,
        risers=risers,
    )
    return GridLayout(
        doc["layers"], placements, table, dict(doc.get("meta", {}))
    )


def clone_layout(layout: GridLayout) -> GridLayout:
    """An independent copy whose edits never reach ``layout``.

    The clone shares the original's flushed
    :class:`~repro.grid.table.WireTable` -- no table column is written
    after construction; every edit swaps in a new table -- and copies
    the placements dict and (deeply) ``meta``.  It starts with no dirty
    tracker.  The mutation harness in :mod:`repro.check` corrupts
    clones, never originals.
    """
    return GridLayout(
        layers=layout.layers,
        placements=dict(layout.placements),
        table=layout.wire_table(),
        meta=copy.deepcopy(layout.meta),
    )


def dump_layout(layout: GridLayout, path) -> None:
    """Write a layout to a JSON file."""
    with open(path, "w") as fh:
        fh.write(layout_to_json(layout))


def load_layout(path) -> GridLayout:
    """Read a layout from a JSON file."""
    with open(path) as fh:
        return layout_from_json(fh.read())
