"""Build a decomposition certificate and inspect what it contains.

A certificate pairs the touching attractor T with its dust counterpart
D through a small family of vertex sets.  Each vertex carries matched
exact tilings of its T-side and D-side by similar copies of other
vertices with equal ratios, which is what forces bi-Lipschitz
equivalence.  The whole object serializes to JSON and re-validates from
the file alone.
"""

import json
from fractions import Fraction

from lipeq import (IfsSpec, build_certificate, cert_to_doc,
                   verify_cert_doc, expand_map, distortion_report,
                   canonical_json)

spec = IfsSpec([Fraction(1, 5)] * 3,
               [Fraction(0), Fraction(3, 5), Fraction(4, 5)],
               role="touching")

cert = build_certificate(spec)
print("recursion depths (p, q) = (%d, %d)" % (cert.p, cert.q))
print("vertices:")
for key in sorted(cert.vertices):
    v = cert.vertices[key]
    edge = cert.edges[key]
    print("  %-14s T-side %d cylinders, edge with %d pieces"
          % ("/".join(map(str, key)), len(v.t_words), len(edge.pieces)))

doc = cert_to_doc(spec, cert)
blob = canonical_json(doc)
print("\nserialized size: %d bytes" % len(blob))
verify_cert_doc(spec, json.loads(blob))
print("re-validated from the serialized form alone")

for depth in (2, 3, 4):
    pieces = expand_map(spec, cert, depth)
    lo, hi = distortion_report(spec, cert, depth, pieces=pieces)
    print("depth %d: %5d leaf pieces, distortion bounds "
          "c_low=%.6g c_high=%.6g" % (depth, len(pieces), lo, hi))

print("\nthe correspondence is exact at every depth; the bounds "
      "stabilize once\nthe recursion pattern around the touching point "
      "has fully formed")
