"""Walk through the decision pipeline on the classic example.

The set of points in [0,1] whose base-5 digits are all in {0, 3, 4} is
the attractor of three maps with ratio 1/5 at translations 0, 3/5, 4/5.
The second and third images touch at 4/5, so the attractor is not
dust-like, yet it is bi-Lipschitz equivalent to the equally spaced
Cantor dust with the same ratios.  This script shows each stage of the
decision.
"""

from fractions import Fraction

from lipeq import IfsSpec, decide, canonical_dust, moran_dimension
from lipeq.decide import check_necessary, witness_letters

spec = IfsSpec([Fraction(1, 5)] * 3,
               [Fraction(0), Fraction(3, 5), Fraction(4, 5)],
               role="touching")

print("maps: ratio 1/5 at translations 0, 3/5, 4/5")
print("touching letters:", sorted(spec.touching.letters))
print("similarity dimension: %.15f  (log 3 / log 5)"
      % moran_dimension(spec.ratios))

dust = canonical_dust(spec.ratios, spec.bases)
print("dust counterpart translations:", [str(t) for t in dust.t])

nec = check_necessary(spec)
print("\nnecessary condition (end ratios multiplicatively dependent):",
      nec.detail)

verdict = decide(spec)
print("\nverdict:", verdict.status)
print("reason:", verdict.reason)
for letter, w in sorted(verdict.witnesses.items()):
    print("witness for touching letter %d: %r" % (letter, w))
    # the witness certifies the diameter identity
    near, far, end = witness_letters(w.side, letter, spec.n)
    lhs = (far,) + (end,) * w.k
    rhs = (near,) + (end,) * w.kp + w.word
    print("  |T_%s| == |T_%s|  (checked exactly)"
          % ("".join(map(str, lhs)), "".join(map(str, rhs))))
