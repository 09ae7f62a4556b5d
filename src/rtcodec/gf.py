"""Table-driven GF(2^w) arithmetic for w in {8, 16}."""

from __future__ import annotations

import numpy as np

_PRIMITIVE_POLY = {8: 0x11D, 16: 0x1100B}


class GF:
    """Galois field GF(2^w) with generator 2; exp/log tables built once."""

    _cache: dict[int, "GF"] = {}

    def __init__(self, width: int):
        if width not in _PRIMITIVE_POLY:
            raise ValueError(f"unsupported field width {width}")
        self.width = width
        self.order = 1 << width
        self.charac = self.order - 1
        poly = _PRIMITIVE_POLY[width]
        self.exp = [0] * (2 * self.charac)
        self.log = [0] * self.order
        x = 1
        for i in range(self.charac):
            self.exp[i] = x
            self.log[x] = i
            x <<= 1
            if x & self.order:
                x ^= poly
        for i in range(self.charac, 2 * self.charac):
            self.exp[i] = self.exp[i - self.charac]
        # the same tables as arrays, for lookups over whole arrays; log 0 is
        # 2*charac, past every sum of two true logs, and exp is 0 from there
        # on, so a product with a zero factor looks up 0
        self.log_array = np.array(self.log, dtype=np.int64)
        self.log_array[0] = 2 * self.charac
        self.exp_array = np.zeros(4 * self.charac + 1, dtype=np.int64)
        self.exp_array[: 2 * self.charac] = self.exp

    @classmethod
    def get(cls, width: int) -> "GF":
        if width not in cls._cache:
            cls._cache[width] = cls(width)
        return cls._cache[width]

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp[self.log[a] + self.log[b]]

    def mul_array(self, a, b) -> np.ndarray:
        """Elementwise product of two broadcastable int arrays of field elements."""
        return self.exp_array[self.log_array[a] + self.log_array[b]]

    def div(self, a: int, b: int) -> int:
        if b == 0:
            raise ZeroDivisionError("division by zero field element")
        if a == 0:
            return 0
        return self.exp[(self.log[a] - self.log[b]) % self.charac]

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            return 0 if e else 1
        return self.exp[(self.log[a] * e) % self.charac]

    def inv(self, a: int) -> int:
        return self.div(1, a)

    # polynomials: coefficient lists, highest degree first

    def poly_mul(self, p: list[int], q: list[int]) -> list[int]:
        out = [0] * (len(p) + len(q) - 1)
        for i, a in enumerate(p):
            if a == 0:
                continue
            for j, b in enumerate(q):
                out[i + j] ^= self.mul(a, b)
        return out

    def poly_eval(self, p: list[int], x: int) -> int:
        y = 0
        for c in p:
            y = self.mul(y, x) ^ c
        return y
