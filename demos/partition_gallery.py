"""Print the first hierarchical partitions of a touching attractor.

The partitions isolate ever deeper neighbourhoods of the touching
point: level k keeps a bridge set spanning the touching point and
splits the rest along gaps of comparable size, so piece diameters
shrink strictly with k.
"""

from fractions import Fraction

from lipeq import IfsSpec
from lipeq.patches import partition_S, partition_T, partition_norm

spec = IfsSpec([Fraction(1, 5)] * 3,
               [Fraction(0), Fraction(3, 5), Fraction(4, 5)],
               role="touching")


def word_str(w):
    return "".join(map(str, w))


for k in (1, 2):
    pieces = partition_S(spec, k)[-1]
    print("level %d: %d pieces" % (k, len(pieces)))
    for p in pieces:
        # canonical words are in spatial order: the hull runs from the
        # left end of the first word to the right end of the last
        print("  [%s, %s]  %s" % (spec.cyl_lo(p[0]), spec.cyl_hi(p[-1]),
                                  " ".join(word_str(w) for w in p)))
    print()

print("gap-refined norms (largest piece diameter):")
for k in (1, 2, 3, 4):
    pieces = partition_T(spec, k)
    print("  k=%d: %3d pieces, norm %s"
          % (k, len(pieces), partition_norm(spec, pieces)))
