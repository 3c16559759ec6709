"""Exact orders of permutation groups, membership tests in them, and the
full-quotient decision: the two questions asked of a subgroup H through the
level quotients G_n = G/St_G(n), |H_n| and whether H_n = G_n.
``permgrp.group_order`` and ``permgrp.level_quotient_equals_full`` import
this module when first called, so a projection search, which counts no
group, never loads it.

``_chain`` picks its method from the input alone.  Permutations of 2^n
points that keep the dyadic blocks together are automorphisms of the binary
tree of depth n; they generate a 2-group, counted by sifting through an
induced polycyclic sequence along the level stabilizers, closed by squaring
each new element and commuting it with the generators and with the elements
of its own level that ``_tree_order``'s docstring calls seeds (a normal
closure, not all pairs), with elements as ``bytes`` multiplied by
``bytes.translate`` up to 256 points (level 8) and as tuples above.  That
covers every level action of a binary system, so the ``order`` command
takes this path.  Any other input (other degrees, d >= 3 systems,
permutations that break the blocks) goes through a deterministic
Schreier-Sims stabilizer chain, which raises ``BudgetExceededError`` (its
``partial``: the base length so far) past ``MAX_SCHREIER_SIFTS`` sifts; the
polycyclic sift raises it (its ``partial``: the sequence length so far) past
``MAX_TREE_WORK`` leaves passed over.  ``equals_full`` decides H_n = G_n
from the level parities when they settle it, and otherwise by sifting the
full group's generators through H's chain; it never counts the full group.
"""

from __future__ import annotations

from functools import reduce
from operator import itemgetter, xor
from typing import Callable, Sequence

from .core import BudgetExceededError, GeneratorSystem, InputError, Perm, Word
from .core import compose_images, invert_images

MAX_SCHREIER_SIFTS = 10_000
# sifts one Schreier-Sims stabilizer chain may make; the level-4 quotient
# of a d = 3 system (degree 81) takes about 4300, and its level-5 quotient
# (degree 243, 85 s to finish) reaches this bound after about 7 s, both
# on a 2-CPU VM with Python 3.11

MAX_TREE_WORK = 300_000_000
# leaves a polycyclic sequence of binary-tree automorphisms may pass over,
# one pass per square and commutation test of each element that joins it;
# the full Basilica group at level 10 takes 5250 products of degree 1024,
# and at level 11 11641 of degree 2048


def _chain(perms: Sequence) -> tuple[int, Callable[[tuple[int, ...]], bool]]:
    """``permgrp.group_order``'s order, with a membership test for image tuples of
    the same degree that sifts through the chain the order was read from."""
    gens = []
    identity = None
    for p in perms:
        images = p.images if isinstance(p, Perm) else Perm(p).images
        if identity is None:
            identity = tuple(range(len(images)))
        elif len(images) != len(identity):
            raise InputError("permutations act on different point sets")
        if images != identity:
            gens.append(images)
    if not gens:
        return 1, lambda p: p == tuple(range(len(p)))
    if len(identity).bit_count() == 1 and all(map(_keeps_dyadic_blocks, gens)):
        return _tree_order(gens)
    return _schreier_sims_order(gens)


def _keeps_dyadic_blocks(g: tuple[int, ...]) -> bool:
    """Whether a permutation of 2^n leaves is an automorphism of the binary
    tree above them: siblings go to siblings at every height.  Up to 256
    leaves the images are ``bytes``, and XOR 1 and shifting right by 1 are
    each one ``bytes.translate`` by a table; above, tuples mapped point by
    point."""
    if len(g) <= 256:
        g, xor1, shr1, translate = bytes(g), _XOR1, _SHR1, bytes.translate
    else:  # (1).__rrshift__(x) is x >> 1
        xor1, shr1, translate = (1).__xor__, (1).__rrshift__, lambda h, f: tuple(map(f, h))
    while len(g) > 1:
        evens = g[::2]
        if g[1::2] != translate(evens, xor1):
            return False
        g = translate(evens, shr1)
    return True


_XOR1, _SHR1 = bytes(x ^ 1 for x in range(256)), bytes(x >> 1 for x in range(256))


def _tree_order(gens: list[tuple[int, ...]]) -> tuple[int, Callable]:
    """Order of a group H of binary-tree automorphisms of the 2^n leaves,
    and a membership test for permutations of the same leaves.

    Builds an induced polycyclic sequence with C2 factors along the series of
    level stabilizers St(0) > St(1) > ... > St(n) = 1 (Holt, Eick and
    O'Brien, Handbook of Computational Group Theory, ch. 8).  An element of
    St(k-1) swaps or keeps the two children of each level-(k-1) vertex; that
    flip vector, one byte per vertex in a Python int, is its image in the
    elementary abelian St(k-1)/St(k).  Sifting reduces it against the level-k
    echelon basis, keyed by leading digit, multiplying the element on the left
    by the basis element used, then goes on one level down.  The factor is
    abelian of exponent 2: flip(w o g) = flip(w) XOR flip(g) = flip(g o w), so
    left products take the decisions right ones would and no inverses are
    needed.  A nonzero residue r at level k joins the sequence as a layer-k
    element, and three kinds of element are sifted in turn: r^2, from level
    k + 1; [r, x] for each generator x of H that r does not commute with,
    from level k, since St(k-1) is normal; and [r, b] for layer-k elements
    b that r does not commute with, from level k + 1, since two elements of
    St(k-1) commute on level k (at k = n they commute, so neither squares
    nor same-layer commutators are formed there).  Which b: a layer-k
    element is a non-seed when it is the residue of a commutator [r', x],
    r' of layer k and x a generator, that joined at level k, r''s own; every
    other one (the residue of a generator, a square, a same-layer
    commutator, or a generator commutator that joined deeper) is a seed.  A
    seed is tested against every earlier layer-k element, a non-seed only
    against the earlier seeds, so each seed meets every element of its
    layer, and two non-seeds are never tested.

    Why that closes: let P_k be the set of elements that sift to the
    identity from level k.  Sifting is monotone: echelon entries are only
    added, and a sift that succeeded read only entries that stay, so it
    still succeeds.  Once every queued element sifts to the identity, go
    down from P_(n+1) = 1 and suppose P_(k+1) is a subgroup normalised by
    every generator, hence by H.  Let L_k be the layer-k elements; they lie
    in H, so with P_(k+1) they generate a group Q = <L_k> P_(k+1).

    - H normalises Q: for r in L_k and a generator x, either r^x = r, or
      [r, x] sifted to the identity from level k, that is, it is a product
      of elements of L_k and of P_(k+1), so r^x = r [r, x] lies in Q.
    - Q is generated by P_(k+1) and the H-conjugates of the seeds: a
      non-seed is a product of earlier elements of L_k, used by its sift,
      and [r, x] = r^-1 r^x for an earlier r, so by induction on the order
      of joining every element of L_k is a product of conjugates of seeds,
      which lie in Q by the first step.
    - A seed s is central in Q/P_(k+1): the q in Q with [s, q] in P_(k+1)
      form a subgroup that contains P_(k+1), and it contains L_k, since s
      was tested against each element of L_k and either commuted with it
      or their commutator sifted to the identity from level k + 1.
    - So is every conjugate s^y, y in H: [s^y, q] = [s, q^(y^-1)]^y, and
      q^(y^-1) lies in Q by the first step.  Central generators make
      Q/P_(k+1) abelian.

    The squares of L_k lie in P_(k+1), so L_k spans an elementary abelian
    section Q/P_(k+1); their flip vectors are independent, so that section
    has order 2^(layer size) and Q meets St(k) in P_(k+1) alone.  An
    element of St(k-1) therefore sifts to the identity from level k exactly
    when it lies in Q: P_k = Q, normalised by H.  Every generator sifted to
    the identity from level 1, so P_1 is a group that contains H, hence
    equals it: |H| = 2^(sequence length), and a permutation of the leaves
    is a member exactly when it sifts to the identity.

    Up to 256 leaves an element is ``bytes`` and each product or flip
    vector one ``bytes.translate``; above, a tuple.  A residue joins only
    while the products formed so far (one per square and per commutation
    test), times the degree, stay within ``MAX_TREE_WORK``.
    """
    degree = len(gens[0])
    n = degree.bit_length() - 1
    if degree <= 256:  # apply(g, table(w)) is w o g; inverse(w) is table(w^-1)
        convert, identity, pad = bytes, bytes(range(degree)), bytes(range(degree, 256))
        table, inverse = lambda w: w + pad, lambda w: bytes.maketrans(w, identity)
        apply = gather = bytes.translate
        flips = _FLIPS
    else:
        convert, identity, table, inverse = tuple, tuple(range(degree)), tuple, invert_images
        apply = lambda g, t: itemgetter(*g)(t)
        gather = lambda h, t: bytes(map(t.__getitem__, h))
        flips = _flip_tables(degree)
    # echelons[k]: leading digit -> (flip vector, (element, table, inverse))
    # for the layer-k elements, in the order they joined; seeds[k]: the
    # entries of the layer-k seeds, in the same order
    echelons: list[dict] = [{} for _ in range(n + 1)]
    seeds: list[list] = [[] for _ in range(n + 1)]
    generators = [(x, table(x), inverse(x)) for x in map(convert, gens)]

    def sift(g, start):
        # g lies in St(start-1); returns (level, flip vector, residue) or None
        for k in range(start, n + 1):
            if g == identity:
                return None
            s = n - k
            v = int.from_bytes(gather(g[:: 2 << s], flips[s]), "big")
            echelon = echelons[k]
            while v:
                entry = echelon.get(v.bit_length())
                if entry is None:
                    return k, v, g
                w, (_, w_table, _) = entry
                v ^= w
                g = apply(g, w_table)
        # St(n) is trivial, so a tree automorphism is the identity by now;
        # a permutation that is not the identity here is no member
        return None if g == identity else (n + 1, 0, g)

    # a queued sift is (element, first level, None, False), or for a
    # commutator [r, b] (entry of r, first level, entry of b, whether b is a
    # generator), built when popped: a queue of built elements passed 1 GB
    # at level 16
    queue: list[tuple] = [(x, 1, None, False) for x, _, _ in generators]
    work = len(queue)  # products formed, each at least a pass over the leaves
    length = 0
    while queue:
        g, start, e, by_generator = queue.pop()
        if e is not None:
            (r, r_table, r_inv), (b, _, b_inv) = g, e
            g = apply(apply(apply(b, r_table), b_inv), r_inv)
        found = sift(g, start)
        if found is None:
            continue
        if work * degree > MAX_TREE_WORK:
            raise BudgetExceededError(
                f"polycyclic sequence exceeded {MAX_TREE_WORK} points of work "
                f"with {length} elements",
                partial=length,
            )
        k, v, r = found
        r_table, r_inv = table(r), inverse(r)
        entry = (r, r_table, r_inv)
        # (b, first level of [r, b]) for each b that r is tested against;
        # the first level is k exactly when b is a generator
        tests = [(e, k) for e in generators]
        if k < n:  # on level n, r^2 = 1 and two elements of St(n-1) commute
            queue.append((apply(r, r_table), k + 1, None, False))
            if by_generator and k == start:  # a non-seed
                tests += [(e, k + 1) for e in seeds[k]]
            else:
                tests += [(e, k + 1) for _, e in echelons[k].values()]
                seeds[k].append(entry)
        echelons[k][v.bit_length()] = (v, entry)
        work += (k < n) + len(tests)
        for e, level in tests:
            b, b_table, _ = e
            if apply(b, r_table) != apply(r, b_table):
                queue.append((entry, level, e, level == k))
        length += 1
    return 2**length, lambda g: sift(convert(g), 1) is None


def _flip_tables(points: int) -> list[bytes]:
    """tables[s][x]: which child of its height-(s+1) ancestor leaf x lies
    under, for the leaves x of a binary tree with ``points`` leaves."""
    heights = range(points.bit_length() - 1)
    return [(bytes(1 << s) + b"\1" * (1 << s)) * (points >> s + 1) for s in heights]


_FLIPS = _flip_tables(256)  # read by bytes.translate for every tree of at most 256 leaves


def _schreier_sims_order(gens: list[tuple[int, ...]]) -> tuple[int, Callable]:
    """Order of the group generated by a nonempty list of image tuples of one
    degree, by a stabilizer chain, and a membership test for image tuples of
    that degree: a member strips to the identity.

    Base points are chosen as the smallest moved point, so the chain is
    deterministic.  Generator lists per level are cumulative: level i holds
    every strong generator fixing the first i base points, and a level is
    verified by stripping all its Schreier generators through the deeper
    chain.  No generator joins a level twice: a residue p joins levels
    start..stop when it fixes the first stop base points and moves
    ``base[stop]`` out of that level's orbit, or opens a new level.  Had p
    joined a level in start..stop before, it would have joined all levels
    down to one whose (never changed) base point it moves: level stop, whose
    orbit is closed under p, or one past the last.  Raises
    ``BudgetExceededError`` (``partial``: the number of base points so far)
    on sift number ``MAX_SCHREIER_SIFTS`` + 1.
    """
    degree = len(gens[0])
    identity = tuple(range(degree))

    class _Level:
        __slots__ = ("base", "gens", "points", "trans", "pending")

        def __init__(self, base):
            self.base = base
            self.gens = []
            self.points = [base]  # append-only orbit, discovery order
            self.trans = {base: identity}
            self.pending = []  # (point, gen) Schreier pairs not yet verified

    levels: list[_Level] = []
    sifts = 0

    def extend_orbit(lv):
        for x in lv.points:
            ux = lv.trans[x]
            for g in lv.gens:
                y = g[x]
                if y not in lv.trans:
                    lv.trans[y] = compose_images(g, ux)
                    lv.points.append(y)
                    lv.pending.extend((y, h) for h in lv.gens)

    def strip(p, start):
        nonlocal sifts
        sifts += 1
        if sifts > MAX_SCHREIER_SIFTS:
            raise BudgetExceededError(
                f"stabilizer chain exceeded {MAX_SCHREIER_SIFTS} sifts "
                f"with {len(levels)} base points",
                partial=len(levels),
            )
        for i in range(start, len(levels)):
            lv = levels[i]
            y = p[lv.base]
            if y not in lv.trans:
                return p, i
            p = compose_images(invert_images(lv.trans[y]), p)
        return p, len(levels)

    def insert(p, start, stop):
        # p fixes every base above `start`; register it on levels start..stop
        if stop == len(levels):
            levels.append(_Level(min(x for x in range(degree) if p[x] != x)))
        for lv in levels[start : stop + 1]:
            lv.gens.append(p)
            lv.pending.extend((x, p) for x in lv.points)
            extend_orbit(lv)
        for j in range(stop, start - 1, -1):
            process_level(j)

    def process_level(i):
        # verified pairs stay members when deeper groups grow, so each
        # Schreier pair is processed exactly once
        lv = levels[i]
        while lv.pending:
            x, g = lv.pending.pop()
            gx = compose_images(g, lv.trans[x])
            schreier = compose_images(invert_images(lv.trans[g[x]]), gx)
            if schreier == identity:
                continue
            residue, lev = strip(schreier, i + 1)
            if residue != identity:
                insert(residue, i + 1, lev)

    for p in gens:
        residue, lev = strip(p, 0)
        if residue != identity:
            insert(residue, 0, lev)
    order = 1
    for lv in levels:
        order *= len(lv.points)
    return order, lambda p: strip(p, 0)[0] == identity


def _level_parities(p: tuple[int, ...]) -> int:
    """psi of a level-n action of the binary tree, one bit per level: the
    first leaf below a vertex v of height s + 1 lands below the second child
    of v's image exactly when the action swaps v's children, so the parity
    is bit s of the XOR of those leaves' images."""
    return sum((reduce(xor, p[:: 2 << s]) >> s & 1) << s for s in range(len(p).bit_length() - 1))


def _f2_rank(vectors: Sequence[int]) -> int:
    """Rank over F_2 of bit vectors held in ints."""
    basis: list[int] = []
    for v in vectors:
        # clears the leading bit of b, which no later basis vector has set
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
    return len(basis)


def equals_full(system: GeneratorSystem, words: Sequence[Word], n: int) -> bool:
    """Whether the subgroup H generated by ``words`` surjects onto the full
    group's level-n quotient G_n.

    For a binary system with generators g_1, ..., g_m, let psi send an
    automorphism of the depth-n tree to its level parities: per level j, the
    parity of the number of level-j vertices at which it swaps the two
    children.  gh swaps below v when exactly one of g below h(v) and h below
    v does, and h permutes each level, so psi is a homomorphism to F_2^n
    (the abelianisation of Aut(T_n)) with psi(g^-1) = psi(g), and psi of a
    word is the XOR of psi over its letters.  Its image is elementary
    abelian, so its kernel contains the Frattini subgroup
    Phi(G_n) = G_n^2 [G_n, G_n], and psi(G_n) is a quotient of
    G_n/Phi(G_n) = F_2^d(G_n), d the least number of generators.  When
    psi(g_1), ..., psi(g_m) are independent, m <= dim psi(G_n) <= d(G_n)
    <= m, so psi induces an isomorphism G_n/Phi(G_n) -> psi(G_n).  By the
    Burnside basis theorem H_n = G_n exactly when H_n maps onto
    G_n/Phi(G_n): when psi of H's generators has rank m.  No chain is
    built then.

    Otherwise (d >= 3, or dependent parities, as for the Basilica group at
    level 1 or the Grigorchuk group) the answer is whether every g_i acts on
    level n as an element of H, sifted through the chain of H's level-n
    quotient.
    """
    full = [system.word_level_perm((i,), n) for i in range(1, len(system.names) + 1)]
    if system.alphabet_size == 2:
        psi = list(map(_level_parities, full))
        if _f2_rank(psi) == len(psi):
            h_psi = [reduce(xor, (psi[abs(l) - 1] for l in w), 0) for w in words]
            return _f2_rank(h_psi) == len(psi)
    _, contains = _chain([Perm._computed(system.word_level_perm(w, n)) for w in words])
    return all(map(contains, full))
