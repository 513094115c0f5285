"""Tensor metadata: shapes, data kinds, and the analysis payload.

:class:`TensorData` is the value attached to every IR node and to every
e-class by the tensor e-class analysis (paper Section 6: "we store all the
relevant information of the tensors (shape, layout, split locations) in the
analysis data").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple

__all__ = ["DataKind", "TensorShape", "TensorData", "ShapeError", "parse_identifier", "format_identifier"]

TensorShape = Tuple[int, ...]


class ShapeError(ValueError):
    """Raised when operator inputs have incompatible shapes or parameters."""


class DataKind(enum.Enum):
    """The four node types of the paper's Table 2 plus an 'invalid' marker."""

    TENSOR = "tensor"
    INT = "int"
    STRING = "string"
    TUPLE = "tuple"  # tensor tuple (output of split)
    INVALID = "invalid"


@dataclass(frozen=True)
class TensorData:
    """Metadata describing the value produced by a node / e-class.

    Attributes
    ----------
    kind:
        Which of the Table-2 types this value has.
    shape:
        Tensor shape (``kind == TENSOR``), or ``()``.
    value:
        The integer (``kind == INT``) or string (``kind == STRING``) payload.
    split_sizes:
        "Split locations": for each axis along which this tensor is known to
        be a concatenation, the sizes of the concatenated pieces.  ``split``
        consults the most recent concat on its axis (Table 2, note e).
    parts:
        For ``kind == TUPLE``: the element tensors' metadata.
    from_weights:
        True when the value depends only on weight tensors; such subgraphs can
        be pre-computed before inference, so the cost model treats them as
        free (paper Figure 10: "the two concat operators only involve weight
        nodes as inputs, they can be pre-computed in inference time").
    """

    kind: DataKind
    shape: TensorShape = ()
    value: object = None
    split_sizes: Tuple[Tuple[int, Tuple[int, ...]], ...] = ()
    parts: Tuple["TensorData", ...] = ()
    from_weights: bool = False

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #

    @staticmethod
    def tensor(
        shape: TensorShape,
        split_sizes: Tuple[Tuple[int, Tuple[int, ...]], ...] = (),
        from_weights: bool = False,
    ) -> "TensorData":
        return TensorData(
            kind=DataKind.TENSOR,
            shape=tuple(int(d) for d in shape),
            split_sizes=split_sizes,
            from_weights=from_weights,
        )

    @staticmethod
    def integer(value: int) -> "TensorData":
        return TensorData(kind=DataKind.INT, value=int(value))

    @staticmethod
    def string(value: str) -> "TensorData":
        return TensorData(kind=DataKind.STRING, value=str(value))

    @staticmethod
    def tuple_of(parts: Tuple["TensorData", ...]) -> "TensorData":
        return TensorData(kind=DataKind.TUPLE, parts=tuple(parts))

    @staticmethod
    def invalid(reason: str = "") -> "TensorData":
        return TensorData(kind=DataKind.INVALID, value=reason)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    @property
    def is_tensor(self) -> bool:
        return self.kind == DataKind.TENSOR

    @property
    def is_valid(self) -> bool:
        return self.kind != DataKind.INVALID

    @property
    def rank(self) -> int:
        return len(self.shape)

    @property
    def num_elements(self) -> int:
        n = 1
        for d in self.shape:
            n *= d
        return n

    def split_sizes_for_axis(self, axis: int) -> Optional[Tuple[int, ...]]:
        """Sizes recorded by the most recent concat along ``axis`` (if any)."""
        for ax, sizes in self.split_sizes:
            if ax == axis:
                return sizes
        return None

    def with_split(self, axis: int, sizes: Tuple[int, ...]) -> "TensorData":
        """Record that this tensor is a concatenation of ``sizes`` along ``axis``."""
        remaining = tuple((ax, sz) for ax, sz in self.split_sizes if ax != axis)
        return TensorData(
            kind=self.kind,
            shape=self.shape,
            value=self.value,
            split_sizes=((axis, tuple(int(s) for s in sizes)),) + remaining,
            parts=self.parts,
            from_weights=self.from_weights,
        )

    def with_from_weights(self, from_weights: bool) -> "TensorData":
        """Return a copy with the pre-computability flag set."""
        return TensorData(
            kind=self.kind,
            shape=self.shape,
            value=self.value,
            split_sizes=self.split_sizes,
            parts=self.parts,
            from_weights=from_weights,
        )

    def without_splits(self) -> "TensorData":
        return TensorData(
            kind=self.kind,
            shape=self.shape,
            value=self.value,
            parts=self.parts,
            from_weights=self.from_weights,
        )

    def expect_tensor(self, what: str = "operand") -> "TensorData":
        if self.kind != DataKind.TENSOR:
            raise ShapeError(f"expected a tensor for {what}, got {self.kind.value}")
        return self

    def expect_int(self, what: str = "parameter") -> int:
        if self.kind != DataKind.INT:
            raise ShapeError(f"expected an integer for {what}, got {self.kind.value}")
        return int(self.value)

    def expect_string(self, what: str = "parameter") -> str:
        if self.kind != DataKind.STRING:
            raise ShapeError(f"expected a string for {what}, got {self.kind.value}")
        return str(self.value)

    def __str__(self) -> str:
        if self.kind == DataKind.TENSOR:
            return f"T{list(self.shape)}"
        if self.kind == DataKind.TUPLE:
            return "(" + ", ".join(str(p) for p in self.parts) + ")"
        if self.kind == DataKind.INVALID:
            return f"invalid({self.value})"
        return f"{self.kind.value}:{self.value}"


# ---------------------------------------------------------------------- #
# ``name@d1 d2 ...`` identifier strings for input/weight nodes (Table 2 note h)
# ---------------------------------------------------------------------- #


def parse_identifier(identifier: str) -> Tuple[str, TensorShape]:
    """Parse a ``name@dim1 dim2 ...`` tensor identifier."""
    if "@" not in identifier:
        raise ShapeError(f"tensor identifier {identifier!r} must have the form 'name@dim1 dim2 ...'")
    name, _, dims = identifier.partition("@")
    dims = dims.strip()
    if not name:
        raise ShapeError(f"tensor identifier {identifier!r} has an empty name")
    try:
        shape = tuple(int(tok) for tok in dims.split()) if dims else ()
    except ValueError as exc:
        raise ShapeError(f"tensor identifier {identifier!r} has a malformed shape") from exc
    if any(d <= 0 for d in shape):
        raise ShapeError(f"tensor identifier {identifier!r} has non-positive dimensions")
    return name, shape


def format_identifier(name: str, shape: TensorShape) -> str:
    """Format a ``name@dim1 dim2 ...`` tensor identifier."""
    return f"{name}@{' '.join(str(int(d)) for d in shape)}"
