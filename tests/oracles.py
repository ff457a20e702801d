"""Reference implementations the tests check the program against.

The program never calls these. They are written plainly, so that a test
compares a fast route with a direct one: a complex indexed by dense
per-vertex facet bitmasks with the elementary free-face collapse, the
maximality filter that checks each facet against every other, the NC to
Delta collapse as elementary steps, the first fold of a graph by a scan of
all vertex pairs, the categorical product of two graphs (test inputs for
Hom complexes), the order complex of a whole Hom cell poset by listing
every maximal chain, whole boundary matrices, a coboundary reduction that sums
colliding columns in one heap of codes, face-poset membership from one
frozenset of all cells (and matching validation on it, with its own
statement of a simplicial cover), the Hom face rule as a brute-force cover
relation over all cells, the dominated vertices and the induced
subcomplexes of a facet list, read off every facet at once, a
colour-marking DFS for cycles of a matching, descent values as fresh sets
by plain recursion, an exhaustive path enumerator, and the path parity.
The last four take a matching as a plain dict, lower cell -> upper cell,
and a face rule: a function from a cell to the cells one dimension down
that it covers, such as `_subfaces` for simplices or
`hom_cover_rule(cells)` for Hom cells.
"""
from __future__ import annotations

from heapq import heappop, heappush
from typing import (AbstractSet, Callable, Dict, FrozenSet, Iterable, Iterator, List,
                    Optional, Sequence, Set, Tuple, Union)

from expmorse.complexes import Complex, Face, _core_index
from expmorse.errors import InvalidArgumentError, PreconditionError, ResourceLimitError
from expmorse.gf2 import Gf2Matrix
from expmorse.graphs import Graph, _bits, missing_value, variant
from expmorse.homc import HomPoset
from expmorse.morse import AcyclicityResult, FacePoset

FaceRule = Callable[[Face], List[Face]]


class BitmaskComplex:
    """`Complex`'s facets, membership and cofacets on other data structures, and the elementary collapse.

    Bit j of `_vmask[v]` says that facet j contains vertex v, so the facets
    containing a face are the AND of its vertices' masks. `collapse` is the
    only elementary collapse, (face, facet) steps that `Complex.collapse`
    checks its family steps against; it keeps, per vertex, the set of facet
    tuples that contain it.
    """

    def __init__(self, labels: Sequence[str], facets: Iterable[Iterable[int]]):
        self.labels = tuple(labels)
        n = len(self.labels)
        canon = set()
        for f in facets:
            t = tuple(sorted(set(f)))
            if not t:
                continue
            if t[0] < 0 or t[-1] >= n:
                raise InvalidArgumentError(f"facet {t} has a vertex out of range")
            canon.add(t)
        ordered = sorted(canon)
        vmask = [0] * n
        for j, f in enumerate(ordered):
            for v in f:
                vmask[v] |= 1 << j
        keep = []
        for j, f in enumerate(ordered):
            m = vmask[f[0]]
            for v in f[1:]:
                m &= vmask[v]
            if m == (1 << j):
                keep.append(f)
        self.facets = tuple(keep)
        self._vmask = [0] * n
        for j, f in enumerate(self.facets):
            for v in f:
                self._vmask[v] |= 1 << j

    def contains(self, face: Sequence[int]) -> bool:
        face = tuple(sorted(set(face)))
        if not face:
            return True
        if face[0] < 0 or face[-1] >= len(self.labels):
            return False
        m = self._vmask[face[0]]
        for v in face[1:]:
            m &= self._vmask[v]
        return m != 0

    def cofacet_vertices(self, face: Sequence[int]) -> int:
        n = len(self.labels)
        m = (1 << len(self.facets)) - 1
        own = 0
        for v in face:
            if not 0 <= v < n:
                return 0
            m &= self._vmask[v]
            own |= 1 << v
        out = 0
        for j, f in enumerate(self.facets):
            if m >> j & 1:
                out |= sum(1 << v for v in f)
        return out & ~own

    def collapse(self, steps: Iterable[Tuple[Sequence[int], Optional[Sequence[int]]]]
                 ) -> "BitmaskComplex":
        n = len(self.labels)
        owners: List[Set[Face]] = [set() for _ in range(n)]
        for f in self.facets:
            for v in f:
                owners[v].add(f)

        def holders(face: Sequence[int]) -> Set[Face]:
            sets = sorted((owners[v] for v in face), key=len)
            return sets[0].intersection(*sets[1:])

        for face, facet in steps:
            face = tuple(sorted(set(face)))
            if not face or face[0] < 0 or face[-1] >= n:
                raise InvalidArgumentError(f"face {face} is empty or has a vertex out of range")
            found = holders(face)
            if facet is None:
                if len(found) != 1:
                    raise PreconditionError(
                        f"face {face} should have a unique facet, found {len(found)}")
                facet = next(iter(found))
            facet = tuple(sorted(set(facet)))
            if not set(face) < set(facet):
                raise InvalidArgumentError(f"{face} is not a proper nonempty subset of {facet}")
            if found != {facet}:
                raise PreconditionError(f"{face} is not a free face of {facet}")
            for v in facet:
                owners[v].discard(facet)
            for s in face:
                rest = tuple(v for v in facet if v != s)
                if not holders(rest):
                    for v in rest:
                        owners[v].add(rest)
        return BitmaskComplex(self.labels, {f for fs in owners for f in fs})


def all_facets_maximal(facets: Iterable[Iterable[int]]) -> Tuple[Face, ...]:
    """The facets `Complex` keeps, found by checking each facet against all others.

    Each facet is canonicalized and deduplicated, then kept unless another
    facet, of any size, contains it; the result is in lex order.
    """
    canon = {tuple(sorted(set(f))) for f in facets} - {()}
    return tuple(sorted(f for f in canon if not any(set(f) < set(g) for g in canon)))


def dominated_vertices(facets: Iterable[Iterable[int]]) -> Set[int]:
    """The vertices v such that the facets holding v all hold some other vertex too."""
    sets = [set(f) for f in facets]
    return {v for v in set().union(*sets)
            if len(set.intersection(*(f for f in sets if v in f))) > 1}


def cell_set(P: FacePoset) -> FrozenSet[Face]:
    """Every cell of the poset in one frozenset, which answers membership by hashing."""
    return frozenset(c for d in range(P.dim + 1) for c in P.cells(d))


def validate_matching_by_set(P: FacePoset, pairs: Dict[Face, Face]) -> List[str]:
    """`morse.validate_matching`'s messages on a simplicial poset, in its order.

    Membership comes from `cell_set`. A pair is a cover when its upper cell
    is a cell and its lower cell is sorted, free of duplicates, one vertex
    shorter and a subset of it.
    """
    cells = cell_set(P)
    bad, uppers = [], set()
    for low, up in pairs.items():
        bad += [f"{c} is not a cell of the poset" for c in (low, up) if c not in cells]
        if (up not in cells or list(low) != sorted(set(low))
                or len(low) + 1 != len(up) or not set(low) < set(up)):
            bad.append(f"{low} -> {up} is not a cover relation")
        if up in uppers:
            bad.append(f"{up} is the upper cell of two pairs")
        uppers.add(up)
    return bad + [f"{c} appears on both sides of the matching"
                  for c in sorted(set(pairs) & uppers)]


def hom_cover_rule(cells: Sequence[Face]) -> FaceRule:
    """The Hom face rule by brute force over all cells, for cells of `cells` only.

    The facets of a cell are the cells inside it componentwise (each mask a
    subset of the cell's mask at the same vertex) with one bit fewer in all.
    """
    weight = {c: sum(bin(s).count("1") for s in c) for c in cells}
    below = {c: [b for b in cells if weight[b] == weight[c] - 1 and len(b) == len(c)
                 and all(x & y == x for x, y in zip(b, c))] for c in cells}
    return below.__getitem__


def hom_order_complex(cells: Sequence[Face]) -> Complex:
    """Order complex of the whole hom cell poset: every maximal chain, no cell removed.

    A cell's upper covers are the cells of `cells` that have it among their
    `HomPoset.facets`; a chain starts at each cell with no face in `cells`
    and is extended by every upper cover until none is left. Vertices and
    labels are `order_complex_of_hom`'s, before any beat point is removed.
    """
    index = {c: i for i, c in enumerate(cells)}
    parents: List[List[int]] = [[] for _ in cells]
    minimal = []
    for i, c in enumerate(cells):
        faces = [index[f] for f in HomPoset.facets(c) if f in index]
        for j in faces:
            parents[j].append(i)
        if not faces:
            minimal.append(i)
    facets: List[Face] = []

    def extend(chain: List[int]) -> None:
        if not parents[chain[-1]]:
            facets.append(tuple(chain))
        for j in parents[chain[-1]]:
            extend(chain + [j])

    for i in minimal:
        extend([i])
    labels = ["|".join(" ".join(map(str, _bits(s))) for s in c) for c in cells]
    return Complex(labels, facets)


def _free_family_steps(zs: Sequence[int], xs: Sequence[int],
                       ys: Sequence[int]) -> Iterator[Tuple[Face, Face]]:
    """The family step (zs, xs, ys) as elementary steps: xs+ys+zs down to the stars zs+{x}+ys.

    The faces zs + (x_i, x_j) go one pair at a time. Each is named with the
    intermediate facet that the collapse order predicts contains it, so the
    step checks freeness in that facet.
    """
    facet = sorted(list(zs) + list(xs) + list(ys))
    for i in range(len(xs) - 1):
        base = [v for v in facet if v not in xs[:i]]
        for j in range(i + 1, len(xs)):
            gone = set(xs[i + 1:j])
            yield tuple(zs) + (xs[i], xs[j]), tuple(v for v in base if v not in gone)


def _cascade_steps(n: int) -> Iterator[Tuple[Face, Optional[Face]]]:
    """`complexes.delta_via_collapse`'s three stages as elementary steps.

    Stages 1 and 2 are their family steps spelled out by `_free_family_steps`;
    stage 3 removes each triangle on two non-anchor constants of an injective
    map through its only facet.
    """
    verts, index = _core_index(n)
    injective = range(n + 1, len(verts))
    for i in injective:
        f = verts[i]
        x = missing_value(f, n + 1)
        xs = sorted(index[variant(f, s, x)] for s in range(1, n + 1))
        yield from _free_family_steps((), xs, [i, x - 1])
    for y in range(1, n + 2):
        xs = [i for i in injective if y not in verts[i]]
        yield from _free_family_steps((), xs, [z - 1 for z in range(1, n + 2) if z != y])
    for i in injective:
        f = verts[i]
        anchor = 1 if 1 in f else 2
        rest = [y for y in sorted(f) if y != anchor]
        for a in range(len(rest) - 1):
            for b in range(a + 1, len(rest)):
                yield (rest[a] - 1, rest[b] - 1, i), None


def find_fold(G: Graph) -> Optional[Tuple[int, int]]:
    """First pair (u, v), u != v, with N(u) a subset of N(v); smallest u, then smallest v."""
    n = G.vertex_count
    for u in range(n):
        nu = G.neighbor_mask(u)
        for v in range(n):
            if v == u:
                continue
            if nu & ~G.neighbor_mask(v) == 0:
                return (u, v)
    return None


def categorical_product(G: Graph, H: Graph) -> Graph:
    """(u,v) ~ (u',v') iff u ~ u' in G and v ~ v' in H. Index of (u,v) is u*|H|+v."""
    nh = H.vertex_count
    labels = [f"({gu},{hv})" for gu in G.labels for hv in H.labels]
    nbr = [0] * (G.vertex_count * nh)
    for u in range(G.vertex_count):
        gm = G.neighbor_mask(u)
        for v in range(nh):
            m = 0
            for u2 in _bits(gm):
                m |= H.neighbor_mask(v) << (u2 * nh)
            nbr[u * nh + v] = m
    return Graph(labels, nbr)


def zero_matrix(nrows: int, ncols: int) -> Gf2Matrix:
    return Gf2Matrix([0] * ncols, nrows)


def identity_matrix(n: int) -> Gf2Matrix:
    return Gf2Matrix([1 << i for i in range(n)], n)


def _subfaces(cell: Face) -> List[Face]:
    return [cell[:t] + cell[t + 1:] for t in range(len(cell))]


def boundary_matrix(C: Complex, k: int) -> Gf2Matrix:
    """The k-th boundary matrix: rows are (k-1)-faces, columns are k-faces, lex order."""
    if k < 1:
        raise InvalidArgumentError("boundary matrices start at k = 1")
    row = {f: i for i, f in enumerate(C.faces_of_dim(k - 1))}
    return Gf2Matrix([sum(1 << row[s] for s in _subfaces(face)) for face in C.faces_of_dim(k)],
                     len(row))


def heap_reduce_coboundary(C: Complex, faces: List[Face],
                           skip: AbstractSet[int]) -> Dict[int, Union[Face, List[int]]]:
    """`gf2._reduce_coboundary` with each colliding column summed in one heap of codes.

    Same pivots, pivot order, clearing and apparent pairs; a colliding
    column pushes every code of each column added to it, equal codes cancel
    in pairs as they are popped, and an apparent column, once built, is
    stored in place of its face.
    """
    base, k = C.vertex_count, len(faces[0])

    def code(face: Sequence[int]) -> int:
        c = 0
        for x in face:
            c = c * base + x
        return c

    def cofaces(face: Face) -> List[int]:
        return [code(sorted(face + (v,))) for v in C.cofacet_vertices(face)]

    owner: Dict[int, Union[Face, List[int]]] = {}
    for face in reversed(faces):
        c = code(face)
        if c in skip:
            continue
        v = C.least_cofacet_vertex(face)
        if v is None:
            continue
        pivot = code(sorted(face + (v,)))
        held = owner.get(pivot)
        if held is None:
            owner[pivot] = face
            continue
        work = cofaces(face)  # ascending, so already a heap
        heappop(work)
        while held is not None:
            if isinstance(held, tuple):
                held = owner[pivot] = cofaces(held)
            for x in held[1:]:
                heappush(work, x)
            pivot = _pop_pivot(work)
            if pivot is None:
                break
            held = owner.get(pivot)
        else:
            owner[pivot] = [pivot] + _odd_entries(work)
    return owner


def _pop_pivot(heap: List[int]) -> Optional[int]:
    """Pop the least entry of odd multiplicity and the cancelled pairs below it."""
    while heap:
        c = heappop(heap)
        odd = True
        while heap and heap[0] == c:
            heappop(heap)
            odd = not odd
        if odd:
            return c
    return None


def _odd_entries(heap: List[int]) -> List[int]:
    """The entries of odd multiplicity, ascending."""
    out: List[int] = []
    for c in sorted(heap):
        if out and out[-1] == c:
            out.pop()
        else:
            out.append(c)
    return out


def dfs_acyclicity(pairs: Dict[Face, Face], facets: FaceRule) -> AcyclicityResult:
    """Cycle search on the matched lower cells by an iterative colour-marking DFS.

    The edges are x -> y for the other facets y of pairs[x] that are matched
    lower cells; a grey successor closes a cycle, read back through the
    parent map and written out as alternating lower and upper cells.
    """
    color: Dict[Face, int] = {}
    parent: Dict[Face, Face] = {}
    for root in pairs:
        if color.get(root):
            continue
        stack: List[Tuple[Face, int]] = [(root, 0)]
        while stack:
            x, adv = stack.pop()
            if adv == 0:
                if color.get(x) == 2:
                    continue
                color[x] = 1
            succs = [y for y in facets(pairs[x]) if y != x and y in pairs]
            if adv < len(succs):
                stack.append((x, adv + 1))
                y = succs[adv]
                st = color.get(y, 0)
                if st == 1:
                    cycle = [y]
                    cur = x
                    while cur != y:
                        cycle.append(cur)
                        cur = parent[cur]
                    cycle.append(y)
                    cycle.reverse()
                    full: List[Face] = []
                    for z in cycle[:-1]:
                        full.extend((z, pairs[z]))
                    full.append(cycle[0])
                    return AcyclicityResult(False, tuple(full))
                if st == 0:
                    parent[y] = x
                    stack.append((y, 0))
            else:
                color[x] = 2
    return AcyclicityResult(True, None)


class FreshDescent:
    """Descent values of an acyclic matching by plain recursion, each a new frozenset.

    sets(x) is the set of critical cells reached from x by descent with an
    odd path count: a critical cell reaches itself, an upper cell nothing,
    a matched lower cell x the XOR over the other facets of its partner. A
    boundary support is the XOR of the cell's facets' sets, recomputed on
    every call. Nothing is shared between values.
    """

    def __init__(self, pairs: Dict[Face, Face], facets: FaceRule):
        self.pairs = pairs
        self.facets = facets
        self.upper = set(pairs.values())
        self.memo: Dict[Face, FrozenSet[Face]] = {}

    def sets(self, x: Face) -> FrozenSet[Face]:
        if x not in self.memo:
            up = self.pairs.get(x)
            if up is None:
                self.memo[x] = frozenset() if x in self.upper else frozenset((x,))
            else:
                self.memo[x] = self._xor(y for y in self.facets(up) if y != x)
        return self.memo[x]

    def boundary_support(self, tau: Face) -> FrozenSet[Face]:
        return self._xor(self.facets(tau))

    def _xor(self, cells: Iterable[Face]) -> FrozenSet[Face]:
        acc: Set[Face] = set()
        for y in cells:
            acc ^= self.sets(y)
        return frozenset(acc)


def _rank(facets: FaceRule, cell: Face) -> int:
    """The number of face-rule steps from `cell` down to a cell with no facets."""
    below = facets(cell)
    return 1 + _rank(facets, below[0]) if below else 0


def alternating_path_parity(pairs: Dict[Face, Face], facets: FaceRule, tau: Face,
                            sigma: Face, descent: Optional[FreshDescent] = None) -> int:
    """Mod-2 count of alternating paths between critical cells of adjacent dimension.

    Dimensions are compared by `_rank` under the face rule. `descent` is a
    FreshDescent of the matching, made afresh unless given.
    """
    if _rank(facets, tau) != _rank(facets, sigma) + 1:
        raise InvalidArgumentError("cells must sit in adjacent dimensions")
    matched = set(pairs) | set(pairs.values())
    if tau in matched or sigma in matched:
        raise InvalidArgumentError("parity is defined between critical cells")
    descent = descent or FreshDescent(pairs, facets)
    return 1 if sigma in descent.boundary_support(tau) else 0


def enumerate_alternating_paths(pairs: Dict[Face, Face], facets: FaceRule, start: Face,
                                max_paths: int = 100_000) -> List[Tuple[Face, ...]]:
    """Every alternating path from a critical cell down to critical cells.

    Exhaustive and unmemoized, so only suitable for small inputs. Paths are
    full cell sequences (start, x1, pair(x1), ..., end); the direct-facet
    path has length 2.
    """
    upper = set(pairs.values())
    out: List[Tuple[Face, ...]] = []

    def descend(x: Face, prefix: Tuple[Face, ...]):
        if len(out) >= max_paths:
            raise ResourceLimitError(f"more than {max_paths} alternating paths")
        up = pairs.get(x)
        if up is None:
            if x not in upper:
                out.append(prefix + (x,))
            return
        for y in facets(up):
            if y != x:
                descend(y, prefix + (x, up))

    for y in facets(start):
        descend(y, (start,))
    return out
