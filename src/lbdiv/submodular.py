"""Ground-set functions: built-in submodular generators and structural checks.

Subsets are any iterable of 1-based item indices. Every built-in is
normalized so that f(empty) = 0.
"""

from __future__ import annotations

import itertools
import json

import numpy as np

_CHECK_LIMIT = 20  # exhaustive structural checks are 2^n
_TOL = 1e-9
CUT_CHUNK_ROWS = 1024  # rows per block in the graph-cut batch extension
_TABLE_ROWS = 1 << 12  # indicator rows per lovasz_batch call when tabulating


def _as_subset(A, n: int) -> frozenset:
    S = frozenset(int(i) for i in A)
    for i in S:
        if not 1 <= i <= n:
            raise ValueError(f"item {i} outside ground set 1..{n}")
    return S


class SetFunction:
    """Base class: a real-valued function on subsets of {1..n}."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("ground set must have n >= 1")
        self.n = int(n)

    def __call__(self, A) -> float:
        raise NotImplementedError

    def marginal(self, j: int, A) -> float:
        """The gain f(A + j) - f(A); j must not already be in A."""
        S = _as_subset(A, self.n)
        j = int(j)
        if j in S:
            raise ValueError(f"item {j} already in the subset")
        return self(S | {j}) - self(S)

    def lovasz_batch(self, X) -> np.ndarray:
        """The Lovasz extension at every row of the (m, n) matrix X.

        Generic level-set form: with each row sorted in descending order,
        x_1 >= ... >= x_n, and S_k the items of its first k entries, the
        sum of (x_k - x_{k+1}) f(S_k) with x_{n+1} = 0. f is called only
        at the steps where the sorted row drops, so an indicator row costs
        one call and gives f of its set exactly; f(empty) counts as 0.
        Built-in families override it with closed batch forms.
        """
        X = np.asarray(X, dtype=float)
        out = np.zeros(X.shape[0])
        for r, row in enumerate(X):
            order = np.argsort(-row, kind="stable")
            steps = -np.diff(row[order], append=0.0)
            for k in np.flatnonzero(steps):
                S = frozenset((order[:k + 1] + 1).tolist())
                out[r] += steps[k] * self(S)
        return out

    def descriptor(self) -> dict:
        raise NotImplementedError

    def __add__(self, other):
        if not isinstance(other, SetFunction):
            return NotImplemented
        return Sum([self, other])


class CardinalityConcave(SetFunction):
    """f(A) = g(|A|) with concave g given by its gain table.

    `gains[i-1]` is g(i) - g(i-1); concavity means the table is
    non-increasing. The named constructors build the truncated (top-m),
    max-value and range generators as gain tables.
    """

    def __init__(self, gains):
        gains = np.asarray(gains, dtype=float)
        super().__init__(gains.size)
        if not np.all(np.isfinite(gains)):
            raise ValueError("gain table must be finite")
        if np.any(np.diff(gains) > _TOL):
            raise ValueError("gain table must be non-increasing")
        self.gains = gains
        self._cum = np.concatenate(([0.0], np.cumsum(gains)))

    @classmethod
    def sqrt(cls, n: int) -> "CardinalityConcave":
        """g(k) = sqrt(k)."""
        k = np.arange(1, n + 1, dtype=float)
        return cls(np.sqrt(k) - np.sqrt(k - 1))

    @classmethod
    def log(cls, n: int) -> "CardinalityConcave":
        """g(k) = log(1 + k)."""
        k = np.arange(1, n + 1, dtype=float)
        return cls(np.log1p(k) - np.log1p(k - 1))

    @classmethod
    def truncated(cls, gains, m: int) -> "CardinalityConcave":
        """The gain table cut off at rank m: the gains after rank m are 0."""
        gains = np.array(gains, dtype=float)
        if not 1 <= m <= gains.size:
            raise ValueError(f"cutoff m={m} outside 1..{gains.size}")
        gains[int(m):] = 0.0
        return cls(gains)

    @classmethod
    def top_m(cls, n: int, m: int) -> "CardinalityConcave":
        """f(A) = min{|A|, m}; m = 1 generates the max-value divergence."""
        return cls.truncated(np.ones(n), m)

    @classmethod
    def proper_subset(cls, n: int) -> "CardinalityConcave":
        """f(A) = 1 if A is neither empty nor V: the range divergence."""
        gains = np.zeros(n)
        if n > 1:
            gains[[0, -1]] = 1.0, -1.0
        return cls(gains)

    def __call__(self, A) -> float:
        return float(self._cum[len(_as_subset(A, self.n))])

    def lovasz_batch(self, X) -> np.ndarray:
        # each row sorted in descending order, dotted with the rank gains
        X = np.asarray(X, dtype=float)
        return np.sort(X, axis=1)[:, ::-1] @ self.gains

    def descriptor(self) -> dict:
        return {"kind": "cardinality", "gains": self.gains.tolist()}


class GraphCut(SetFunction):
    """f(A) = sum of W[i, j] over i in A, j outside A.

    W must be exactly symmetric and nonnegative with a zero diagonal.
    """

    def __init__(self, weights):
        W = np.asarray(weights, dtype=float)
        if W.ndim != 2 or W.shape[0] != W.shape[1]:
            raise ValueError("weight matrix must be square")
        if not np.all(np.isfinite(W)):
            raise ValueError("weights must be finite")
        if not np.array_equal(W, W.T):
            raise ValueError("weight matrix must be symmetric")
        if np.any(W < 0):
            raise ValueError("weights must be nonnegative")
        if np.any(np.diag(W) != 0):
            raise ValueError("diagonal must be zero")
        super().__init__(W.shape[0])
        self.weights = W
        self._edges = np.nonzero(np.triu(W))
        self._edge_weights = W[self._edges]

    @classmethod
    def uniform(cls, n: int, weight: float = 1.0) -> "GraphCut":
        """All pairs weighted equally: f(A) = weight * |A| * |V \\ A|."""
        W = np.full((n, n), float(weight))
        np.fill_diagonal(W, 0.0)
        return cls(W)

    def __call__(self, A) -> float:
        S = _as_subset(A, self.n)
        inside = np.zeros(self.n, dtype=bool)
        inside[[i - 1 for i in S]] = True
        return float(self.weights[np.ix_(inside, ~inside)].sum())

    def lovasz_batch(self, X) -> np.ndarray:
        # total variation: sum over edges i < j of W[i, j] |x_i - x_j|,
        # in row blocks so memory stays O(CUT_CHUNK_ROWS * edges)
        X = np.asarray(X, dtype=float)
        (i, j), w = self._edges, self._edge_weights
        out = np.empty(X.shape[0])
        for lo in range(0, X.shape[0], CUT_CHUNK_ROWS):
            B = X[lo:lo + CUT_CHUNK_ROWS]
            out[lo:lo + len(B)] = np.abs(B[:, i] - B[:, j]) @ w
        return out

    def descriptor(self) -> dict:
        return {"kind": "graph_cut", "weights": self.weights.tolist()}


class Modular(SetFunction):
    """f(A) = sum of per-item weights; submodular with equality."""

    def __init__(self, weights):
        w = np.asarray(weights, dtype=float)
        super().__init__(w.size)
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        self.item_weights = w

    def __call__(self, A) -> float:
        S = _as_subset(A, self.n)
        return float(sum(self.item_weights[i - 1] for i in S))

    def lovasz_batch(self, X) -> np.ndarray:
        return np.asarray(X, dtype=float) @ self.item_weights

    def descriptor(self) -> dict:
        return {"kind": "modular", "weights": self.item_weights.tolist()}


class ExplicitTable(SetFunction):
    """A set function given by its full 2^n value table (n <= 20).

    Values are indexed by subset bitmask (bit i-1 set <=> item i in A) and
    normalized so the empty set maps to 0.
    """

    def __init__(self, n: int, values):
        if n > _CHECK_LIMIT:
            raise ValueError(f"explicit tables limited to n <= {_CHECK_LIMIT}")
        super().__init__(n)
        table = np.asarray(values, dtype=float)
        if table.size != 1 << n:
            raise ValueError(f"expected {1 << n} values, got {table.size}")
        if not np.all(np.isfinite(table)):
            raise ValueError("values must be finite")
        self.table = table - table[0]

    @classmethod
    def from_function(cls, n: int, fn) -> "ExplicitTable":
        """Tabulate fn over all subsets; fn takes a frozenset of items."""
        vals = [fn(_mask_to_set(m)) for m in range(1 << n)]
        return cls(n, vals)

    @classmethod
    def from_json(cls, text: str) -> "ExplicitTable":
        """Parse a JSON object mapping subset bitmask -> value."""
        raw = json.loads(text)
        masks = {int(k): float(v) for k, v in raw.items()}
        n = max(masks).bit_length() if masks else 1
        vals = [masks.get(m, 0.0) for m in range(1 << n)]
        return cls(n, vals)

    def __call__(self, A) -> float:
        S = _as_subset(A, self.n)
        mask = 0
        for i in S:
            mask |= 1 << (i - 1)
        return float(self.table[mask])

    def lovasz_batch(self, X) -> np.ndarray:
        # the level-set form, with f(S_k) read at each row's prefix bitmasks
        X = np.asarray(X, dtype=float)
        order = np.argsort(-X, axis=1, kind="stable")
        steps = -np.diff(np.take_along_axis(X, order, axis=1), axis=1,
                         append=0.0)
        return (steps * self.table[np.cumsum(1 << order, axis=1)]).sum(axis=1)

    def descriptor(self) -> dict:
        return {"kind": "explicit_table", "n": self.n,
                "values": self.table.tolist()}


class Sum(SetFunction):
    """Pointwise sum of set functions on the same ground set."""

    def __init__(self, terms):
        terms = list(terms)
        if not terms:
            raise ValueError("need at least one term")
        n = terms[0].n
        if any(t.n != n for t in terms):
            raise ValueError("terms live on different ground sets")
        super().__init__(n)
        self.terms = terms

    def __call__(self, A) -> float:
        return sum(t(A) for t in self.terms)

    def lovasz_batch(self, X) -> np.ndarray:
        return sum(t.lovasz_batch(X) for t in self.terms)

    def descriptor(self) -> dict:
        return {"kind": "sum", "terms": [t.descriptor() for t in self.terms]}


def from_descriptor(desc: dict) -> SetFunction:
    """Rebuild a set function from its serialized descriptor."""
    kind = desc["kind"]
    if kind == "cardinality":
        return CardinalityConcave(desc["gains"])
    # kinds written before the cardinality forms were merged
    if kind == "truncated_cardinality":
        return CardinalityConcave.truncated(desc["gains"], desc["m"])
    if kind == "max_truncation":
        return CardinalityConcave.top_m(desc["n"], 1)
    if kind in ("range_indicator", "proper_subset_indicator"):
        return CardinalityConcave.proper_subset(desc["n"])
    if kind == "graph_cut":
        return GraphCut(desc["weights"])
    if kind == "modular":
        return Modular(desc["weights"])
    if kind == "explicit_table":
        return ExplicitTable(desc["n"], desc["values"])
    if kind == "sum":
        return Sum([from_descriptor(t) for t in desc["terms"]])
    raise ValueError(f"unknown set function kind: {kind}")


def _mask_to_set(mask: int) -> frozenset:
    return frozenset(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def _subset_values(f: SetFunction, items, base=()) -> np.ndarray:
    """f-hat at the indicator of base + S for every subset S of `items`
    (0-based item positions), indexed by the bitmask of S over `items`.

    For a normalized f this is f(base + S) (Bach 2013, section 3.1). The
    indicator rows go through f.lovasz_batch in blocks of _TABLE_ROWS.
    """
    items = np.asarray(items, dtype=int)
    if items.size > _CHECK_LIMIT:
        raise ValueError(
            f"tabulation limited to {_CHECK_LIMIT} items, got {items.size}")
    bits = 1 << np.arange(items.size)
    out = np.empty(1 << items.size)
    for lo in range(0, out.size, _TABLE_ROWS):
        masks = np.arange(lo, min(lo + _TABLE_ROWS, out.size))
        X = np.zeros((masks.size, f.n))
        X[:, list(base)] = 1.0
        X[:, items] = masks[:, None] & bits != 0
        out[lo:lo + masks.size] = f.lovasz_batch(X)
    return out


def _tabulate(f: SetFunction) -> np.ndarray:
    """The 2^n values f(A), indexed by bitmask; the empty slot is read
    from f itself, so the structural checks see a non-normalized f."""
    F = _subset_values(f, np.arange(f.n))
    F[0] = f(frozenset())
    return F


def is_submodular(f: SetFunction, tol: float = _TOL) -> bool:
    """Exhaustively check diminishing returns, within absolute `tol`.

    Uses the equivalent pairwise condition
    f(A + i) + f(A + j) >= f(A + i + j) + f(A) for all A and i != j outside A.
    """
    F = _tabulate(f)
    A = np.arange(1 << f.n)
    for i, j in itertools.combinations(range(f.n), 2):
        B = A[A & (1 << i | 1 << j) == 0]
        if np.any(F[B | 1 << i] + F[B | 1 << j] < F[B | 1 << i | 1 << j] + F[B] - tol):
            return False
    return True


def is_monotone(f: SetFunction, tol: float = _TOL) -> bool:
    """Exhaustively check f(A) <= f(A + j) for all A and j, within `tol`."""
    F = _tabulate(f)
    A = np.arange(1 << f.n)
    for i in range(f.n):
        B = A[A & 1 << i == 0]
        if np.any(F[B | 1 << i] < F[B] - tol):
            return False
    return True
