"""Layout serialization: GridLayout <-> JSON.

Layouts are plain geometric data, so they round-trip exactly.  Node
labels are arbitrary hashables in memory; serialization encodes the
common cases (ints, strings, and arbitrarily nested tuples of those)
with a type tag so deserialization restores identical labels.  Other
parallel-edge keys are stored as ``{"r": repr(key)}`` and read back as
a :class:`ReprKey`, which writes the same text again.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass
from itertools import chain, compress, repeat
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
    "label_text",
    "canonical_json",
    "ReprKey",
]

FORMAT_VERSION = 1

#: Member types whose equal values always have equal texts.
_PLAIN = frozenset((int, str))


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


@dataclass(frozen=True)
class ReprKey:
    """A parallel-edge key read back from ``{"r": text}``.

    Its ``repr`` is ``text``, so writing the layout again stores the
    same ``{"r": text}``: a layout text is a fixed point of read and
    write.  It never equals a plain string key.
    """

    text: str

    def __repr__(self) -> str:
        return self.text


def _decode_edge_key(obj):
    if isinstance(obj, dict) and set(obj) == {"r"}:
        return ReprKey(obj["r"])
    return _decode_label(obj)


# Public names for the label codec: the content-addressed cache and
# the fuzzer's counterexample corpus both fingerprint networks with
# exactly the encoding layouts serialize labels with, so key documents
# stay comparable to stored layouts across format versions.
encode_label = _encode_label
decode_label = _decode_label


def layout_to_json(layout: GridLayout) -> str:
    """Serialize a layout to a JSON string.

    The text is written directly, not through a document of dicts and
    lists: one ``json.dumps`` for the small head (``format``,
    ``layers``, ``meta``), then the placements and wires as text filled
    in from the layout's :class:`~repro.grid.table.WireTable` columns.
    Every label and edge key is turned into JSON text once per call
    (:func:`label_text`, :func:`_texts`); the segment ints are read as
    one flat list, and each wire fills the ``%`` template of its shape
    (segment count, riser or not).  Separators are ``json.dumps``'s
    defaults, so the text is byte-identical to ``json.dumps`` of the
    document :func:`layout_from_json` reads: key order ``format``, ``layers``,
    ``meta``, ``placements`` (``node``, ``rect``, ``layer``) and
    ``wires`` (``u``, ``v``, ``edge_key``, ``segments`` and, on a
    riser, ``riser``).  No ``Wire`` object is built.
    """
    table = layout.wire_table()
    label = _Memo(lambda typed: label_text(typed[1]))
    edge_key = _Memo(lambda typed: _edge_key_text(typed[1]))
    head = json.dumps({
        "format": FORMAT_VERSION,
        "layers": layout.layers,
        "meta": _jsonable_meta(layout.meta),
    })
    placements = layout.placements.values()
    nodes = _texts(label, [p.node for p in placements])
    places = [
        _PLACEMENT % (node, p.rect.x0, p.rect.y0, p.rect.w, p.rect.h, p.layer)
        for node, p in zip(nodes, placements)
    ]
    flat = np.stack((
        table.seg_x1, table.seg_y1, table.seg_x2, table.seg_y2,
        table.seg_layer,
    ), axis=1).ravel().tolist()
    ends = (table.wire_seg_start * 5).tolist()
    risers = table.wire_is_riser.tolist()
    zstarts = table.wire_zrun_start.tolist()
    wires = []
    for wi, (u, v, key) in enumerate(zip(
        _texts(label, table.wire_u), _texts(label, table.wire_v),
        _edge_key_texts(edge_key, table.wire_edge_key),
    )):
        a, b = ends[wi], ends[wi + 1]
        args = (u, v, key, *flat[a:b])
        if risers[wi]:
            z = zstarts[wi]
            args += (
                int(table.zrun_x[z]), int(table.zrun_y[z]),
                int(table.zrun_lo[z]), int(table.zrun_hi[z]),
            )
        wires.append(_WIRE[b - a, risers[wi]] % args)
    return (
        head[:-1] + ', "placements": [' + ", ".join(places)
        + '], "wires": [' + ", ".join(wires) + "]}"
    )


def label_text(label: Hashable, separators=(", ", ": ")) -> str:
    """The JSON text of one node label's encoding (:func:`encode_label`).

    ``separators`` are ``json.dumps``'s ``(item, key)`` separators: the
    defaults give the layout text's form, ``(",", ":")`` the cache
    key's canonical form.  Bools, ``None`` and other unsupported types
    raise ``TypeError``, as the codec does.
    """
    kind = type(label)
    if kind is int:
        return repr(label)
    if kind is str:
        return json.dumps(label)
    if kind is tuple:
        item, key = separators
        return (
            '{"t"' + key + "["
            + item.join([label_text(x, separators) for x in label]) + "]}"
        )
    # Subclasses of int, str and tuple encode as their base type.
    return json.dumps(_encode_label(label), separators=separators)


def _texts(memo: "_Memo", values: list) -> list[str]:
    """``memo``'s text of each value, looked up by ``(type, value)``:
    equal values of different types (``0`` and ``False``) have
    different texts."""
    return list(map(memo.__getitem__, zip(map(type, values), values)))


def _edge_key_texts(memo: "_Memo", keys: list) -> list[str]:
    """The text of each edge key, through ``memo``.  Equal tuples share
    a memo entry, but their texts differ when their members' types do
    (``(0, 0)`` and ``(0, False)``).  That takes a tuple key with a
    member that is not exactly an int or a str; then every key is
    written afresh.  Built layouts have int keys, or tuples of a str
    and an int (butterflies, CCCs), and pass the check in one C loop."""
    texts = _texts(memo, keys)
    if not any(issubclass(kind, tuple) for kind, _ in memo):
        return texts
    tuples = compress(keys, map(isinstance, keys, repeat(tuple)))
    if set(map(type, chain.from_iterable(tuples))) <= _PLAIN:
        return texts
    return list(map(_edge_key_text, keys))


def _edge_key_text(key) -> str:
    try:
        return label_text(key)
    except TypeError:
        return json.dumps({"r": repr(key)})


#: One placement's text: node, rect ``[x0, y0, w, h]`` and layer.
_PLACEMENT = '{"node": %s, "rect": [%d, %d, %d, %d], "layer": %d}'


def _wire_template(shape: tuple[int, int]) -> str:
    """The ``%`` template of a wire with ``shape[0] // 5`` segment rows
    that is a riser when ``shape[1]``."""
    ints, riser = shape
    rows = ", ".join(["[%d, %d, %d, %d, %d]"] * (ints // 5))
    text = '{"u": %s, "v": %s, "edge_key": %s, "segments": [' + rows + "]"
    if riser:
        text += ', "riser": [%d, %d, %d, %d]'
    return text + "}"


class _Memo(dict):
    """``memo[x] == fn(x)``, computed once per distinct ``x``."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


#: Wire templates by ``(segment ints, riser)``, filled in by
#: :func:`layout_to_json`.
_WIRE = _Memo(_wire_template)


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
