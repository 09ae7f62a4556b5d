"""Code parameters: the period bound, head-distance lower bounds, and block
lengths, plus validity predicates for the paper-exact regimes.

``mode="paper-exact"`` enforces the head-distance bounds that make the
synchronization guarantees hold; ``mode="relaxed"`` accepts arbitrary small
constants for exhaustive desk-scale testing and carries no guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParamViolation
from .hashing import DeletionHasher, make_hasher
from .model import HeadGeometry
from .periodicity import period_cap


def deletion_min_head_distance(n: int, k: int) -> int:
    """Head-distance lower bound for the deletion-mode guarantees."""
    T = period_cap(n, k)
    interval_recovery = T * (k * (k - 1) // 2 + 1) + (7 * k - k**3) // 6
    sync = (4 * k + 1) * (T + 2 * k + 1)
    return max(interval_recovery, sync)


def edit_min_head_distance(n: int, k: int) -> int:
    """Equal head distance for the edit-mode guarantees.

    Combines the head-reduction requirement (strict inequality, computed in
    exact quarters) with the disjoint-window requirement of net-shift
    determination, which the former does not imply for small k.
    """
    T = period_cap(n, k)
    quarters = (k * k + 12 * k) * (T + 3 * k + 1) + 4 * (T + 5 * k + 1)
    reduction = quarters // 4 + 1
    net_shift = (4 * k + 1) * (T + 4 * k + 1) + 1
    return max(reduction, net_shift)


def deletion_block_len(t_max: int, T: int, k: int, d: int) -> int:
    """Bound on an isolated interval's overlap with the capped prefix, plus k."""
    half = (2 * t_max + T + 1) // 2
    return (2 * half + 1) * k * d + half + k


def edit_block_len(t: int, k: int, d: int) -> int:
    """Edit-mode block length: k plus the output-interval length bound."""
    return (2 * k * d * t + 2 * t + 1) * (k + 1) + k * d * t + 3 * k


@dataclass(frozen=True)
class CodeParams:
    """Everything a codec run needs; construct via the classmethods."""

    n: int
    k: int
    geometry: HeadGeometry
    kind: str  # "deletion" | "edit"
    mode: str = "paper-exact"  # | "relaxed"
    T: int = 0
    block_len: int = 0
    hash_mode: str = "identity"

    def __post_init__(self):
        if self.n < 1 or self.k < 1:
            raise ParamViolation("n and k must be positive")
        if self.kind not in ("deletion", "edit"):
            raise ParamViolation(f"unknown kind {self.kind!r}")
        if self.mode not in ("paper-exact", "relaxed"):
            raise ParamViolation(f"unknown mode {self.mode!r}")
        if self.block_len <= self.k:
            raise ParamViolation("block length must exceed k")
        try:
            make_hasher(self.hash_mode)
        except ValueError as e:
            raise ParamViolation(f"hash_mode: {e}") from e
        if self.mode == "paper-exact":
            self._validate_paper_exact()

    def _validate_paper_exact(self) -> None:
        g = self.geometry
        if g.d < 2:
            raise ParamViolation("paper-exact codes need at least two heads")
        if self.kind == "deletion":
            bound = deletion_min_head_distance(self.n, self.k)
            if any(t < bound for t in g.distances):
                raise ParamViolation(f"head distances {g.distances} below deletion bound {bound}")
            block_len = deletion_block_len(g.t_max, self.T, self.k, g.d)
        else:
            if len(set(g.distances)) > 1:
                raise ParamViolation("edit mode requires equal head distances")
            bound = edit_min_head_distance(self.n, self.k)
            if g.distances[0] < bound:
                raise ParamViolation(f"head distance {g.distances[0]} below edit bound {bound}")
            block_len = edit_block_len(g.distances[0], self.k, g.d)
        if self.T != period_cap(self.n, self.k):
            raise ParamViolation(f"period bound {self.T} is not the paper's {period_cap(self.n, self.k)}")
        if self.block_len != block_len:
            raise ParamViolation(f"block length {self.block_len} is not the paper's {block_len}")

    # ---- constructors ----

    @classmethod
    def deletion(
        cls,
        n: int,
        k: int,
        d: int,
        t: int | None = None,
        hash_mode: str = "identity",
    ) -> "CodeParams":
        t = deletion_min_head_distance(n, k) if t is None else t
        geometry = HeadGeometry.equispaced(d, t)
        T = period_cap(n, k)
        return cls(
            n=n,
            k=k,
            geometry=geometry,
            kind="deletion",
            T=T,
            block_len=deletion_block_len(geometry.t_max, T, k, d),
            hash_mode=hash_mode,
        )

    @classmethod
    def edit(
        cls,
        n: int,
        k: int,
        d: int,
        t: int | None = None,
        hash_mode: str = "identity",
    ) -> "CodeParams":
        t = edit_min_head_distance(n, k) if t is None else t
        return cls(
            n=n,
            k=k,
            geometry=HeadGeometry.equispaced(d, t),
            kind="edit",
            T=period_cap(n, k),
            block_len=edit_block_len(t, k, d),
            hash_mode=hash_mode,
        )

    @classmethod
    def relaxed(
        cls,
        n: int,
        k: int,
        distances: tuple[int, ...],
        kind: str = "deletion",
        T: int | None = None,
        block_len: int | None = None,
        hash_mode: str = "coloring",
    ) -> "CodeParams":
        """Unchecked small constants for exhaustive testing; no guarantees."""
        geometry = HeadGeometry(distances)
        T = period_cap(n, k) if T is None else T
        if block_len is None:
            block_len = (
                deletion_block_len(geometry.t_max, T, k, geometry.d)
                if kind == "deletion"
                else edit_block_len(geometry.t_max, k, geometry.d)
            )
        return cls(
            n=n,
            k=k,
            geometry=geometry,
            kind=kind,
            mode="relaxed",
            T=T,
            block_len=block_len,
            hash_mode=hash_mode,
        )

    # ---- derived ----

    @property
    def d(self) -> int:
        return self.geometry.d

    @property
    def regime(self) -> str:
        """"direct" (k < d, edit only), "pair" (d <= k <= 2d-1), or "rs" (k >= 2d)."""
        if self.k < self.d:
            return "direct"
        if self.k <= 2 * self.d - 1:
            return "pair"
        return "rs"

    @property
    def rs_parity_blocks(self) -> int:
        return 2 * (self.k // self.d)

    def hasher(self) -> DeletionHasher:
        return make_hasher(self.hash_mode)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "d": self.d,
            "t": list(self.geometry.distances),
            "kind": self.kind,
            "mode": self.mode,
            "T": self.T,
            "block_len": self.block_len,
            "hash_mode": self.hash_mode,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CodeParams":
        """Inverse of ``to_dict``; a missing field, or one of the wrong type or
        value, raises ParamViolation. A removed setting is accepted only at the
        one value it could take."""
        if not isinstance(data, dict):
            raise ParamViolation(f"parameters must be an object, got {type(data).__name__}")
        missing = [key for key in _REQUIRED_FIELDS if key not in data]
        if missing:
            raise ParamViolation(f"parameters lack {', '.join(map(repr, missing))}")
        for key, kind in _FIELD_TYPES.items():
            if not _has_type(data[key], kind):
                raise ParamViolation(f"parameter {key!r} must be {kind.__name__}, got {data[key]!r}")
        for key, value in _REMOVED_FIELDS.items():
            if key in data and (type(data[key]) is not type(value) or data[key] != value):
                raise ParamViolation(f"parameter {key!r} is no longer a setting; only {value!r} is accepted")
        t = data["t"]
        if not isinstance(t, list) or not all(_has_type(x, int) for x in t):
            raise ParamViolation(f"parameter 't' must be a list of ints, got {t!r}")
        try:
            geometry = HeadGeometry(tuple(t))
        except ValueError as e:
            raise ParamViolation(str(e)) from e
        return cls(
            n=data["n"],
            k=data["k"],
            geometry=geometry,
            kind=data["kind"],
            mode=data["mode"],
            T=data["T"],
            block_len=data["block_len"],
            hash_mode=data["hash_mode"],
        )


_FIELD_TYPES = {
    "n": int,
    "k": int,
    "kind": str,
    "mode": str,
    "T": int,
    "block_len": int,
    "hash_mode": str,
}

_REQUIRED_FIELDS = (*_FIELD_TYPES, "t")

# former settings that had one working value; older sidecars carry them
_REMOVED_FIELDS = {"rlayer_hash_mode": "identity", "symbol_bits": 8, "coloring_budget": 16}


def _has_type(value, kind: type) -> bool:
    # bool is an int subclass, but true/false is never a valid count
    return isinstance(value, kind) and not isinstance(value, bool)
