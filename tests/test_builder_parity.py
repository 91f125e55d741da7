"""The two link inputs of the orthogonal builder build the same layout.

The schemes emit their links as int columns; hand-written specs give
:class:`LinkSpec` lists, which the builder converts to columns.  For
every zoo network and layer budget, the spec a scheme hands the builder
is rebuilt here as lists by a per-edge classify loop -- the reference
this test keeps -- and both must serialize to the same bytes.
"""

import pytest

from repro.batch.spec import dispatch_scheme
from repro.cli import _zoo_networks
from repro.core import schemes
from repro.core.builder import build_orthogonal_layout
from repro.core.spec import LayoutSpec, LinkSpec, NodeCell
from repro.grid.io import layout_to_json


def _scheme_specs(net, layers, monkeypatch) -> list[LayoutSpec]:
    """The specs the scheme for ``net`` hands the builder."""
    specs = []

    def capture(spec):
        specs.append(spec)
        return build_orthogonal_layout(spec)

    monkeypatch.setattr(schemes, "build_orthogonal_layout", capture)
    dispatch_scheme(net, layers=layers, scheme="auto")
    return specs


def _reference_spec(spec: LayoutSpec, net) -> LayoutSpec:
    """``spec`` with its links as lists, classified and keyed edge by
    edge: same cell row, same cell column, or extra."""
    home = {}
    for pos, cell in spec.cells.items():
        for v in [cell.node] if isinstance(cell, NodeCell) else cell.nodes:
            home[v] = pos
    row_links, col_links, extra_links = [], [], []
    keys: dict[tuple, int] = {}
    for u, v in net.edges:
        if home[u] == home[v]:
            continue  # a strip edge inside one block
        key = (home[u], home[v], u, v)
        edge_key = keys.get(key, 0)
        keys[key] = edge_key + 1
        link = LinkSpec(home[u], home[v], u, v, edge_key=edge_key)
        if link.same_row:
            row_links.append(link)
        elif link.same_col:
            col_links.append(link)
        else:
            extra_links.append(link)
    return LayoutSpec(
        rows=spec.rows, cols=spec.cols, cells=spec.cells,
        row_links=row_links, col_links=col_links, extra_links=extra_links,
        layers=spec.layers, name=spec.name,
    )


@pytest.mark.parametrize("layers", [2, 3, 4, 8])
@pytest.mark.parametrize("net", _zoo_networks(), ids=lambda n: n.name)
def test_columns_and_lists_build_identical_layouts(net, layers, monkeypatch):
    specs = _scheme_specs(net, layers, monkeypatch)
    assert specs, f"{net.name}: the scheme built no orthogonal layout"
    for spec in specs:
        assert spec.links is not None and not spec.all_links()
        ref = _reference_spec(spec, net)
        assert len(ref.all_links()) == len(spec.links.kind)
        got = layout_to_json(build_orthogonal_layout(spec))
        want = layout_to_json(build_orthogonal_layout(ref))
        assert got == want
