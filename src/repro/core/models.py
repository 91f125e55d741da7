"""Layout model descriptors (Section 2's three models, as objects).

A model bundles its parameters with its validation policy, so code can
say *which* model a layout claims to satisfy and have that claim
checked:

* :class:`ThompsonModel` -- two wiring layers, one active layer, H/V
  layer parity, knock-knees forbidden (§2.1);
* :class:`MultilayerGridModel` -- L wiring layers, nodes in the first
  layer (§2.2's 2-D variant); parity is optional (a scheme convention);
* :class:`Multilayer3DModel` -- L wiring layers, up to L_A active
  layers, risers allowed (§2.2's 3-D variant).

``model_of(layout)`` infers the strongest model a layout satisfies.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.grid.layout import GridLayout
from repro.grid.validate import LayoutError, validate_layout

__all__ = [
    "ThompsonModel",
    "MultilayerGridModel",
    "Multilayer3DModel",
    "model_of",
]


@dataclass(frozen=True, slots=True)
class ThompsonModel:
    """The classical 2-layer model of [23]."""

    layers: int = 2

    @property
    def name(self) -> str:
        return "Thompson"

    def check(self, layout: GridLayout) -> dict:
        if layout.layers != 2:
            raise LayoutError(
                f"Thompson model requires L = 2 (layout claims "
                f"{layout.layers})"
            )
        active = {p.layer for p in layout.placements.values()}
        if active - {1}:
            raise LayoutError(
                f"Thompson model embeds nodes in the plane (found active "
                f"layers {sorted(active)})"
            )
        if layout.wire_table().wire_is_riser.any():
            raise LayoutError("Thompson model has no z-direction wires")
        return validate_layout(layout, check_parity=True)


@dataclass(frozen=True, slots=True)
class MultilayerGridModel:
    """The paper's multilayer 2-D grid model: L layers, planar nodes."""

    layers: int

    @property
    def name(self) -> str:
        return f"multilayer 2-D grid (L={self.layers})"

    def check(self, layout: GridLayout) -> dict:
        if layout.layers > self.layers:
            raise LayoutError(
                f"layout budget {layout.layers} exceeds the model's "
                f"L = {self.layers}"
            )
        active = {p.layer for p in layout.placements.values()}
        if active - {1}:
            raise LayoutError(
                "the 2-D variant embeds nodes in the first layer "
                f"(found active layers {sorted(active)})"
            )
        if layout.wire_table().wire_is_riser.any():
            raise LayoutError(
                "riser wires require the 3-D variant of the model"
            )
        return validate_layout(layout)


@dataclass(frozen=True, slots=True)
class Multilayer3DModel:
    """The multilayer 3-D grid model: L layers, L_A active layers."""

    layers: int
    active_layers: int

    @property
    def name(self) -> str:
        return f"multilayer 3-D grid (L={self.layers}, L_A={self.active_layers})"

    def check(self, layout: GridLayout) -> dict:
        if layout.layers > self.layers:
            raise LayoutError(
                f"layout budget {layout.layers} exceeds the model's "
                f"L = {self.layers}"
            )
        active = {p.layer for p in layout.placements.values()}
        if len(active) > self.active_layers:
            raise LayoutError(
                f"{len(active)} active layers used but the model allows "
                f"L_A = {self.active_layers}"
            )
        return validate_layout(layout)


def model_of(layout: GridLayout):
    """The strongest of the three models ``layout`` satisfies."""
    active = {p.layer for p in layout.placements.values()} or {1}
    has_risers = layout.wire_table().wire_is_riser.any()
    if len(active) > 1 or has_risers or active != {1}:
        model = Multilayer3DModel(layout.layers, len(active))
        model.check(layout)
        return model
    if layout.layers == 2:
        try:
            model = ThompsonModel()
            model.check(layout)
            return model
        except LayoutError:
            pass  # e.g. parity not respected: still a 2-layer grid layout
    model = MultilayerGridModel(layout.layers)
    model.check(layout)
    return model
