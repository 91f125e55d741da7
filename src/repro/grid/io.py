"""Layout serialization: GridLayout <-> JSON.

Layouts are plain geometric data, so they round-trip exactly.  Node
labels are arbitrary hashables in memory; serialization encodes the
common cases (ints, strings, and arbitrarily nested tuples of those)
with a type tag so deserialization restores identical labels.  Other
parallel-edge keys are stored as ``{"r": repr(key)}`` and read back as
a :class:`ReprKey`, which writes the same text again.

A grid layout is flat integer data (paper Section 2.1), and its text
is mostly decimal ints: segment rows, placement rects, and the labels
of networks whose nodes are ints or tuples of ints.
:func:`layout_to_json` writes every such int in one numpy pass, with a
base-10**4 digit kernel (:func:`_digits`), into fixed-width byte
records, and drops the records' NUL padding in one pass; the text is
the one ``json.dumps`` would write for the same document.
"""

from __future__ import annotations

import copy
import functools
import json
from dataclasses import dataclass
from itertools import accumulate, chain, compress, repeat
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

#: Types whose equal values always have equal texts.
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
    lists, from the layout's :class:`~repro.grid.table.WireTable`
    columns:

    * one ``json.dumps`` writes the small head (``format``, ``layers``,
      ``meta``);
    * every int -- segment rows, placement rects and layers, risers,
      and labels and edge keys that are ints or tuples of ints -- is
      turned into decimal text in one numpy pass (:func:`_digits`);
    * any other label or edge key is turned into JSON text once per
      distinct value (:func:`_label_columns`);
    * each placement, wire head, segment row and riser is a fixed-width
      ``uint8`` record with its separators in place and NUL padding
      where a text is narrower than its column (:func:`_records`);
    * the records are laid out in text order in one buffer
      (:func:`_interleave`), and one mask drops the NULs.

    Separators are ``json.dumps``'s defaults, so the text is
    byte-identical to ``json.dumps`` of the document
    :func:`layout_from_json` reads: key order ``format``, ``layers``,
    ``meta``, ``placements`` (``node``, ``rect``, ``layer``) and
    ``wires`` (``u``, ``v``, ``edge_key``, ``segments`` and, on a
    riser, ``riser``).  No ``Wire`` object is built.
    """
    table = layout.wire_table()
    labels = _label_columns(
        label_text, [p.node for p in layout.placements.values()],
        table.wire_u, table.wire_v,
    ) + _label_columns(_edge_key_text, table.wire_edge_key)
    risers = table.wire_is_riser.nonzero()[0]
    z = table.wire_zrun_start[risers]
    ints = iter(_int_columns(
        *[col for c in labels if c.dtype != np.uint8
          for col in np.atleast_2d(c)],
        table.seg_x1, table.seg_y1, table.seg_x2, table.seg_y2,
        table.seg_layer,
        table.node_x0, table.node_y0, table.node_x1 - table.node_x0,
        table.node_y1 - table.node_y0, table.node_layer,
        table.zrun_x[z], table.zrun_y[z], table.zrun_lo[z], table.zrun_hi[z],
    ))
    nodes, us, vs, keys = [_label_texts(c, ints) for c in labels]
    x1, y1, x2, y2, layer, x0, y0, w, h, active, zx, zy, lo, hi = ints
    places = _records(
        b', {"node": ', nodes, b', "rect": [', x0, b", ", y0, b", ", w,
        b", ", h, b'], "layer": ', active, b"}",
    )
    places[:1, :2] = 0  # no separator before the first placement
    # A wire is its head, then its segment rows or its riser record.  A
    # head opens with the previous wire's close, ``]}, ``; a riser
    # record with the close of its empty segment list, ``], ``.
    rows = _records(
        b", [", x1, b", ", y1, b", ", x2, b", ", y2, b", ", layer, b"]",
    )
    starts = table.wire_seg_start
    rows[starts[starts < len(rows)], :2] = 0  # none before a first row
    width = rows.shape[1]
    heads = _records(
        b']}, {"u": ', us, b', "v": ', vs, b', "edge_key": ', keys,
        b', "segments": [', width=width,
    )
    heads[:1, :4] = 0  # no wire before the first
    zruns = _records(
        b'], "riser": [', zx, b", ", zy, b", ", lo, b", ", hi, width=width,
    )
    wires = _interleave(rows, heads, zruns, starts[:-1], risers)
    head = json.dumps({
        "format": FORMAT_VERSION,
        "layers": layout.layers,
        "meta": _jsonable_meta(layout.meta),
    })
    text = np.frombuffer(b"".join((
        head[:-1].encode(), b', "placements": [', places,
        b'], "wires": [', wires, b"]}]}" if table.num_wires else b"]}",
    )), np.uint8)
    return text[text != 0].tobytes().decode("ascii")


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


def _edge_key_text(key) -> str:
    try:
        return label_text(key)
    except TypeError:
        return json.dumps({"r": repr(key)})


def _label_columns(text, *columns: list) -> list[np.ndarray]:
    """Each of ``columns`` of labels (or edge keys, whose text is
    ``text(x)``) as numpy: an int64 ``(n,)`` array of ints, an int64
    ``(k, n)`` array of tuples of ``k`` ints (both written by
    :func:`_label_texts`), or else an ``(n, width)`` uint8 array of the
    texts, NUL-padded on the right.

    Other texts are made once per distinct value, through a memo keyed
    by ``(type, value)``, so equal values of other types (``0`` and
    ``False``) keep their own texts.  Equal values of one type share a
    memo entry, which is exact for ints and strs, and for tuples of
    those: equal tuples of other members have other texts (``(0, 1)``
    and ``(0, True)``, which is no label), and so do equal values of
    some other types (the edge keys ``0.0`` and ``-0.0``).  So when a
    value of another type, or a tuple of other members, is among them,
    every value is written afresh.  Built layouts' tuples pass that
    check in one C loop."""
    out = [_int_label_column(column) for column in columns]
    rest = [c for c, ints in zip(columns, out) if ints is None]
    memo = _Memo(lambda typed: text(typed[1]))
    texts = [
        list(map(memo.__getitem__, zip(map(type, c), c))) for c in rest
    ]
    odd = {kind for kind, _ in memo} - _PLAIN
    if odd and (odd != {tuple} or not _plain_tuples(rest)):
        texts = [list(map(text, c)) for c in rest]
    texts = iter(texts)
    return [_ascii(next(texts)) if ints is None else ints for ints in out]


def _ascii(texts: list[str]) -> np.ndarray:
    """ASCII ``texts`` as an ``(n, width)`` uint8 array, NUL-padded on
    the right."""
    column = np.array(texts, dtype="S")
    return column.view(np.uint8).reshape(len(texts), column.itemsize)


def _plain_tuples(columns: list) -> bool:
    """Whether every tuple in ``columns`` holds only ints and strs."""
    values = list(chain.from_iterable(columns))
    tuples = compress(values, map(isinstance, values, repeat(tuple)))
    return set(map(type, chain.from_iterable(tuples))) <= _PLAIN


def _int_label_column(column: list) -> np.ndarray | None:
    """``column`` as an ``(n,)`` int64 array if it holds ints (not
    bools) that fit, as ``(k, n)`` if it holds tuples of ``k`` such
    ints, else ``None``."""
    kinds = set(map(type, column))
    try:
        if kinds <= {int}:
            return np.fromiter(column, np.int64, len(column))
        lengths = set(map(len, column)) if kinds == {tuple} else ()
        if len(lengths) == 1 and set(
            map(type, chain.from_iterable(column))
        ) == {int}:
            (k,) = lengths
            return np.fromiter(
                chain.from_iterable(column), np.int64, len(column) * k
            ).reshape(-1, k).T
    except OverflowError:
        pass
    return None


def _label_texts(column: np.ndarray, ints) -> np.ndarray:
    """The texts of a column from :func:`_label_columns`: itself if it
    is text, else, taken from ``ints``, its ints' digits, inside
    ``{"t": [...]}`` for a tuple."""
    if column.dtype == np.uint8:
        return column
    if column.ndim == 1:
        return next(ints)
    parts = [b'{"t": [']
    for _ in column:
        parts += [next(ints), b", "]
    parts[-1] = b"]}"
    return _records(*parts)


class _Memo(dict):
    """``memo[x] == fn(x)``, computed once per distinct ``x``."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def _records(*parts, width: int = 1) -> np.ndarray:
    """One uint8 record per row of the ``(n, w)`` uint8 columns among
    ``parts``: the concatenation of ``parts``, where a ``bytes`` part is
    the same literal in every record.  The records are NUL-padded on
    the right to a multiple of ``width``."""
    template, columns = bytearray(), []
    for part in parts:
        if type(part) is bytes:
            template += part
        else:
            columns.append((len(template), part))
            template += bytes(part.shape[1])
    template += bytes(-len(template) % width)
    out = np.empty((len(columns[0][1]), len(template)), np.uint8)
    out[:] = np.frombuffer(template, np.uint8)
    for at, column in columns:
        out[:, at:at + column.shape[1]] = column
    return out


def _interleave(rows, heads, zruns, starts, risers) -> np.ndarray:
    """The wire records in text order: each wire's head, then its
    segment rows (wire ``i``'s from ``rows[starts[i]]`` on) or, on the
    riser wires ``risers`` (which have none), its riser record from
    ``zruns``.  Heads and riser records are a whole number of rows wide
    and are cut into rows, so the result is one ``(slots, row width)``
    array."""
    width = rows.shape[1]
    head_slots, riser_slots = heads.shape[1] // width, zruns.shape[1] // width
    wires = np.arange(len(starts))
    first = (
        wires * head_slots + starts
        + np.searchsorted(risers, wires) * riser_slots
    )
    at_head = (first[:, None] + np.arange(head_slots)).ravel()
    at_riser = (
        first[risers, None] + np.arange(head_slots, head_slots + riser_slots)
    ).ravel()
    out = np.empty((len(rows) + len(at_head) + len(at_riser), width), np.uint8)
    is_row = np.ones(len(out), bool)
    is_row[at_head] = is_row[at_riser] = False
    out[is_row] = rows
    out[at_head] = heads.reshape(-1, width)
    out[at_riser] = zruns.reshape(-1, width)
    return out


def _int_columns(*columns: np.ndarray) -> list[np.ndarray]:
    """The decimal texts of each int column: an ``(n, width)`` uint8
    array per column, right-aligned and NUL-padded on the left to the
    column's widest text.  All columns go through :func:`_digits`
    together."""
    flat = np.concatenate(columns, dtype=np.int64)
    digits = _digits(flat)
    k = digits.shape[1]
    ends = list(accumulate(map(len, columns)))
    spans = list(zip([0] + ends[:-1], ends))
    filled = [a for a, b in spans if b > a]
    bounds = zip(
        np.minimum.reduceat(flat, filled).tolist(),
        np.maximum.reduceat(flat, filled).tolist(),
    ) if filled else ()
    widths = iter([max(len(str(a)), len(str(b))) for a, b in bounds])
    return [digits[a:b, k - next(widths) if b > a else k:] for a, b in spans]


#: The digit kernel's limb: four decimal digits.
_LIMB = 10**4


def _digits(values: np.ndarray) -> np.ndarray:
    """The decimal text of each int64 of ``values``: an ``(n, k)``
    uint8 array, right-aligned and NUL-padded on the left, with room
    for a sign and the largest magnitude.

    A magnitude is split into base-10**4 limbs, and each limb's four
    characters are one lookup in :func:`_limb_texts`: zero-padded
    below the number's top limb, NUL-padded at it and NUL above it.
    """
    mag = np.abs(values).view(np.uint64)  # |-2**63| wraps to 2**63
    limbs = -(-len(str(int(mag.max()) if len(mag) else 0)) // 4)
    lowest, upper = _limb_texts()
    out = np.empty((len(values), limbs + 1), np.uint32)  # 4 chars each
    out[:, 0] = 0  # room for a sign
    rest = mag
    for col in range(limbs, 0, -1):  # the lowest limb first
        if col > 1:
            rest, low = np.divmod(rest, _LIMB)
            low = low.view(np.int64) + (rest == 0) * _LIMB
        else:
            low = rest.view(np.int64) + _LIMB  # below 10**4 by now
        out[:, col] = (lowest if col == limbs else upper)[low]
    out = out.view(np.uint8).reshape(len(values), 4 * (limbs + 1))
    neg = np.flatnonzero(values < 0)
    if len(neg):
        digits = np.count_nonzero(out[neg], axis=1)
        out[neg, out.shape[1] - 1 - digits] = ord("-")
    return out


@functools.cache
def _limb_texts() -> tuple[np.ndarray, np.ndarray]:
    """The four characters of each limb value, one uint32 each: rows
    ``0 .. 10**4 - 1`` zero-padded, rows ``10**4 ..`` NUL-padded (a
    number's top limb).  The second table writes an empty top limb as
    four NULs, the first, for a number's lowest limb, as ``"0"``."""
    n = np.arange(_LIMB)[:, None]
    scale = np.array([1000, 100, 10, 1])
    padded = (n // scale % 10 + ord("0")).astype(np.uint8)
    chars = np.concatenate((padded, np.where(n < scale, 0, padded)))
    upper = chars.copy()
    chars[_LIMB, 3] = ord("0")
    return chars.view(np.uint32).ravel(), upper.view(np.uint32).ravel()


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

    The clone shares the original's
    :class:`~repro.grid.table.WireTable` -- no table column is written
    after construction; every edit swaps in a new table -- and copies
    the placements dict and (deeply) ``meta``.  The mutation harness in
    :mod:`repro.check` corrupts clones, never originals.
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
