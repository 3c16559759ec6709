"""
Wreath recursion basics
=======================

Elements of the Basilica group are words over the generators a and b, where
a = (1, b) fixes the two subtrees and feeds b into the right one, while
b = sigma (a, 1) swaps the subtrees and feeds a into the left one.  Everything
below is exact word arithmetic.
"""

from basilica import basilica, equals

B = basilica()
a, b = B.generators()

# root permutations and first-level sections
print("a:", a.root_perm(), a.section(0), a.section(1))
print("b:", b.root_perm(), b.section(0), b.section(1))

# products compose sections through the root action: ab = sigma (ba, 1)
ab = a * b
print("ab:", ab.root_perm(), ab.section(0), ab.section(1))

# the action on vertices (finite binary words)
print("b moves 0 to", b.act("0"))
print("ab moves 00 to", ab.act("00"))
print("level-2 permutation of ab:", ab.level_perm(2))

# sections at deeper vertices iterate the recursion
aa = a * a
print("a^2 at vertex 11:", aa.section_at_vertex("11"))  # equals a

# the word problem is decidable: close a word under sections and look at the
# root permutations.  Two famous identities:
print("b^2 = (a, a):", equals((b * b).section(0), a), equals((b * b).section(1), a))
conj = b.inverse() * a * b
relator = conj.inverse() * a.inverse() * conj * a  # [b^-1 a b, a]
print("[b^-1 a b, a] is trivial:", relator.is_trivial())
print("ab equals ba:", equals(ab, b * a))  # the positive semigroup is free

# portraits record the root permutation of every section up to a depth
portrait = (a * a).portrait(4)
print("portrait labels of a^2 at depth 4:")
for vertex, label in portrait.labels.items():
    print(f"  {vertex or 'root'}: {label}")

# other self-similar actions load from the same file format
from basilica import parse_system

odometer = parse_system("alphabet 2; gen c perm=1,0 sections=e,c")
c = odometer.generator("c")
print("binary odometer adds one:", c.act("000"), c.act("100"), c.act("110"))
