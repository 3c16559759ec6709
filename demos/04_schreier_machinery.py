"""
Orbits, stabilizers and level quotients
=======================================

Finitely generated subgroups act on each tree level; Schreier transversals
express orbit points as words in the subgroup generators, Schreier's lemma
produces stabilizer generators, and sifting through a polycyclic sequence
along the level stabilizers computes exact orders of the finite level
quotients (2-groups, since the tree is binary).
"""

from basilica import basilica
from basilica.certificate import hword_str
from basilica.permgrp import (
    SubgroupHandle,
    group_order,
    level_perms,
    level_quotient_equals_full,
    orbit,
    projected_subgroup,
    stabilizer_generator_pairs,
)

B = basilica()
H = SubgroupHandle(B, list(B.generators()))

# the whole group is level-transitive
table = orbit(H, "010")
print("orbit of 010:", ", ".join(table.orbit))
print("transversal words:")
print(table.table())

# Schreier generators of a vertex stabilizer, with their expressions over
# the subgroup generators
print("stabilizer of vertex 0:")
for elem, hword in stabilizer_generator_pairs(H, "0"):
    print(f"  {elem}  <-  {' '.join('gG'[l < 0] + str(abs(l) - 1) for l in hword)}")

# projecting the stabilizer to the subtree gives the whole group again
# (self-replication), visible on finite levels
proj = projected_subgroup(H, "0")
print("projection at 0 generated by:", ", ".join(str(g) for g in proj.generators))
print("projection covers the full level-3 quotient:", level_quotient_equals_full(proj, 3))

# each projected generator carries the expression over H of the stabilizer
# element it is the section of
g, hword = proj.generators[-1], proj.expressions[-1]
print(f"{g} is the section at 0 of {hword_str(hword)} = {H.evaluate(hword)}")
assert H.evaluate(hword).projection((0,)) == g

# exact level-quotient orders by polycyclic sifting
for n in range(1, 7):
    order = group_order(level_perms(B, H.generators, n))
    print(f"level {n}: quotient order 2^{order.bit_length() - 1}")

# a proper subgroup stays away from the full quotient
cyclic = SubgroupHandle(B, [B.element("ab")])
print("<ab> covers level 2:", level_quotient_equals_full(cyclic, 2))
print("<ab> level-2 order:", group_order(level_perms(B, cyclic.generators, 2)))
