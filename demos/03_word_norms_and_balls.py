"""
Word norms, geodesics and growth
================================

The word norm counts letters of a shortest representative over
{a, a^-1, b, b^-1}.  Balls are enumerated breadth-first with exact
canonicalization, so class counts, geodesics and the section-length lemmas
can all be checked mechanically.
"""

from basilica import basilica
from basilica.norms import ball, geodesic_rep, norm
from basilica.structure import alpha, tau

B = basilica()

# padding with relators never changes the norm
g = B.element("aAb")
print("norm of aAb:", norm(g), "geodesic:", B.word_str(geodesic_rep(g)))
print("norm of tau(1):", norm(tau(1)))
print("norm of [a,b]:", norm(alpha(1, 1)))

# growth of the group: ball sizes are strictly increasing (exponential growth)
sizes = [len(ball(B, r)) for r in range(9)]
print("ball sizes 0..8:", sizes)

# every class carries its canonical geodesic; dump the 2-ball
print("the 17 elements of the 2-ball:")
print(ball(B, 2).table())

# section norms never exceed the parent norm (the key contraction lemma),
# and geodesics containing b ... b^-1 drop strictly
matched = drops = 0
for g in ball(B, 6).classes:
    total = norm(g.section(0)) + norm(g.section(1))
    assert total <= len(g.word)
    seen_b = has_pattern = False
    for letter in g.word:
        if letter == 2:
            seen_b = True
        elif letter == -2 and seen_b:
            has_pattern = True
            break
    if has_pattern:
        matched += 1
        if total < len(g.word):
            drops += 1
print(f"geodesics in ball(6) with b...b^-1: {matched}, all with strict drop: {matched == drops}")
