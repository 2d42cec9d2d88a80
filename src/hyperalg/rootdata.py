"""Root-system combinatorics for the supported Cartan types.

Roots are plain integer tuples giving coordinates over the simple roots.
Weights are integer tuples of pairings with the simple coroots
(fundamental-weight coordinates).  The module also provides the convex
ordering of positive roots induced by a deterministically chosen reduced
word for the longest Weyl-group element, the classification of root
pairs whose sum is again a root by angle and length inside the rank-2
subsystem they generate, and a base of that subsystem for each pair,
memoized per root system so that every engine on it shares the search.
Every rank-2 coordinate question, which roots lie in the lattice of a
pair and the coordinates of a root in a base, is one integer solve,
`base_coords`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

Root = Tuple[int, ...]
Weight = Tuple[int, ...]

# Cartan matrix entry [i][j] is the pairing of the i-th simple root with the
# j-th simple coroot.  Symmetrizer entry i is half the squared length of the
# i-th simple root (short roots have squared length 2).
_CARTAN: Dict[str, Tuple[Tuple[Tuple[int, ...], ...], Tuple[int, ...]]] = {
    "A1": (((2,),), (1,)),
    "A2": (((2, -1), (-1, 2)), (1, 1)),
    "B2": (((2, -1), (-2, 2)), (1, 2)),
    "G2": (((2, -1), (-3, 2)), (1, 3)),
}


def base_coords(
    rho: Tuple[int, int], s: Tuple[int, int], t: Tuple[int, int]
) -> Optional[Tuple[int, int]]:
    """The integers (x, y) with x*s + y*t = rho, or None if there are none.

    s and t are two-coordinate vectors that are not proportional.
    """
    det = s[0] * t[1] - s[1] * t[0]
    x = rho[0] * t[1] - rho[1] * t[0]
    y = s[0] * rho[1] - s[1] * rho[0]
    if x % det or y % det:
        return None
    return (x // det, y // det)


@dataclass(frozen=True)
class Rank2Class:
    """Classification of an ordered root pair.

    case_tag is one of "A".."H" when the pair sums to a root, otherwise
    "commuting", "opposite", or "proportional".  m is the largest
    nonnegative integer q such that (second root) - q*(first root) is a
    root; it is only meaningful for the A-H tags.
    """

    case_tag: str
    m: int


class RootSystem:
    """Immutable root datum for one of the types A1, A2, B2, G2."""

    def __init__(self, type_label: str):
        if type_label not in _CARTAN:
            raise ValueError(f"unknown root system type: {type_label!r}")
        self.type_label = type_label
        self.cartan, self.symmetrizer = _CARTAN[type_label]
        self.rank = len(self.cartan)
        self.roots = self._generate_roots()
        self._root_set = set(self.roots)
        # Within a height, earlier simple roots come first, so the
        # extraspecial-pair convention pins [e_1, e_2] with a plus sign.
        self.positive_roots = sorted(
            (r for r in self.roots if self._is_positive(r)),
            key=lambda r: (self.height(r), tuple(-c for c in r)),
        )
        self.num_positive = len(self.positive_roots)
        self._pos_index = {r: i for i, r in enumerate(self.positive_roots)}
        self.reduced_word, self.convex_roots = self._convex_order()
        self._convex_index = {r: i for i, r in enumerate(self.convex_roots)}
        self._rank2_bases: Dict[Tuple[Root, Root], tuple] = {}

    # -- basic geometry -------------------------------------------------

    def simple(self, i: int) -> Root:
        """The i-th simple root (0-based)."""
        return tuple(1 if j == i else 0 for j in range(self.rank))

    def ip(self, x: Root, y: Root) -> int:
        """Weyl-invariant inner product, short simple roots of norm 2."""
        total = 0
        for i in range(self.rank):
            if x[i] == 0:
                continue
            for j in range(self.rank):
                if y[j]:
                    total += x[i] * y[j] * self.cartan[i][j] * self.symmetrizer[j]
        return total

    def pairing(self, beta: Root, alpha: Root) -> int:
        """Pairing of beta with the coroot of alpha."""
        num = 2 * self.ip(beta, alpha)
        den = self.ip(alpha, alpha)
        q, rem = divmod(num, den)
        if rem:
            raise ValueError(f"non-integral pairing for {beta}, {alpha}")
        return q

    def weight_coords(self, gamma: Root) -> Weight:
        """Pairings of a root (or root-lattice element) with all simple coroots."""
        return tuple(
            sum(gamma[j] * self.cartan[j][i] for j in range(self.rank))
            for i in range(self.rank)
        )

    def is_root(self, gamma: Root) -> bool:
        return gamma in self._root_set

    @staticmethod
    def height(gamma: Root) -> int:
        return sum(gamma)

    @staticmethod
    def _is_positive(gamma: Root) -> bool:
        return sum(gamma) > 0

    def reflect(self, beta: Root, i: int) -> Root:
        """Simple reflection of beta in the hyperplane of the i-th simple root."""
        c = self.pairing(beta, self.simple(i))
        return tuple(beta[j] - (c if j == i else 0) for j in range(self.rank))

    def _generate_roots(self) -> List[Root]:
        frontier = {self.simple(i) for i in range(self.rank)}
        roots = set(frontier)
        while frontier:
            new = set()
            for beta in frontier:
                for i in range(self.rank):
                    img = self.reflect(beta, i)
                    if img not in roots:
                        new.add(img)
            roots |= new
            frontier = new
        return sorted(roots)

    # -- convex ordering ------------------------------------------------

    def _convex_order(self) -> Tuple[Tuple[int, ...], List[Root]]:
        # Greedy reduced word: repeatedly pick the smallest simple index
        # whose image under the accumulated Weyl element is still positive.
        images = [self.simple(i) for i in range(self.rank)]
        word: List[int] = []
        order: List[Root] = []
        while True:
            pick = None
            for i in range(self.rank):
                if self._is_positive(images[i]):
                    pick = i
                    break
            if pick is None:
                break
            word.append(pick)
            order.append(images[pick])
            picked = images[pick]
            images = [
                tuple(
                    images[j][t] - self.cartan[j][pick] * picked[t]
                    for t in range(self.rank)
                )
                for j in range(self.rank)
            ]
        if len(order) != self.num_positive or set(order) != set(self.positive_roots):
            raise RuntimeError("convex ordering failed to enumerate positive roots")
        return tuple(word), order

    def convex_index(self, gamma: Root) -> int:
        """Position of a positive root in the convex ordering."""
        return self._convex_index[gamma]

    # -- pair classification --------------------------------------------

    def m_value(self, alpha: Root, gamma: Root) -> int:
        """Largest q >= 0 with gamma - q*alpha a root."""
        q = 0
        while True:
            cand = tuple(gamma[i] - (q + 1) * alpha[i] for i in range(self.rank))
            if cand in self._root_set:
                q += 1
            else:
                return q

    def subsystem_roots(self, gamma: Root, delta: Root) -> List[Root]:
        """Roots lying in the integer lattice spanned by gamma and delta."""
        if self.rank == 1:
            return list(self.roots)
        if gamma[0] * delta[1] - gamma[1] * delta[0] == 0:
            raise ValueError("proportional roots do not span a rank-2 lattice")
        return [rho for rho in self.roots if base_coords(rho, gamma, delta) is not None]

    def rank2_base(self, gamma: Root, delta: Root):
        """Base of the rank-2 subsystem with gamma, delta nonnegative.

        Returns (s, t, coordinates of gamma, coordinates of delta, root
        count of the subsystem), memoized per root system.
        """
        key = (gamma, delta)
        cached = self._rank2_bases.get(key)
        if cached is not None:
            return cached
        sub = self.subsystem_roots(gamma, delta)
        count = len(sub)
        half = count // 2
        same_sign = self._is_positive(gamma) == self._is_positive(delta)

        best = None
        for s in sorted(sub):
            for t in sorted(sub):
                if s == t or s == tuple(-v for v in t):
                    continue
                if self.ip(s, s) > self.ip(t, t):
                    continue
                if same_sign and not (
                    self._is_positive(s) == self._is_positive(gamma)
                    and self._is_positive(t) == self._is_positive(gamma)
                ):
                    continue
                all_coords = {}
                ok = True
                nonneg = 0
                for rho in sub:
                    cc = base_coords(rho, s, t)
                    if cc is None:
                        ok = False
                        break
                    all_coords[rho] = cc
                    if cc[0] >= 0 and cc[1] >= 0:
                        nonneg += 1
                if not ok or nonneg != half:
                    continue
                cg = all_coords[gamma]
                cd = all_coords[delta]
                if min(cg) < 0 or min(cd) < 0:
                    continue
                cand = (s, t, cg, cd, count)
                if best is None or (s, t) < (best[0], best[1]):
                    best = cand
        if best is None:
            raise RuntimeError(f"no rank-2 base found for {gamma}, {delta}")
        self._rank2_bases[key] = best
        return best

    def classify_pair(self, gamma: Root, delta: Root) -> Rank2Class:
        if gamma not in self._root_set or delta not in self._root_set:
            raise ValueError("classify_pair expects roots")
        if delta == tuple(-c for c in gamma):
            return Rank2Class("opposite", 0)
        if delta == gamma:
            return Rank2Class("proportional", 0)
        total = tuple(gamma[i] + delta[i] for i in range(self.rank))
        if total not in self._root_set:
            return Rank2Class("commuting", 0)
        m = self.m_value(gamma, delta)
        n_g = self.ip(gamma, gamma)
        n_d = self.ip(delta, delta)
        n_s = self.ip(total, total)
        count = len(self.subsystem_roots(gamma, delta))
        if count == 6:
            tag = "A"
        elif count == 8:
            if n_g == n_d:
                tag = "B"
            elif n_g < n_d:
                tag = "D"
            else:
                tag = "E"
        elif count == 12:
            if n_g == n_d:
                tag = "C" if n_s > n_g else "H"
            elif n_g < n_d:
                tag = "F"
            else:
                tag = "G"
        else:
            raise RuntimeError(f"unexpected subsystem size {count}")
        expected_m = {"A": 0, "B": 1, "C": 2, "D": 0, "E": 0, "F": 0, "G": 0, "H": 1}
        if expected_m[tag] != m:
            raise RuntimeError(f"inconsistent classification {tag} with m={m}")
        return Rank2Class(tag, m)


@lru_cache(maxsize=None)
def build_root_system(type_label: str) -> RootSystem:
    """Construct (and cache) the root system with the given label."""
    return RootSystem(type_label)
