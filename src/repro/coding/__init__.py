"""Finite-field linear algebra for random linear network coding.

* :mod:`repro.coding.gf` — arithmetic over prime fields GF(p);
* :mod:`repro.coding.subspace` — subspaces of GF(p)^K with RREF bases,
  the peer "types" of the network-coded system (Section VIII-B).
"""

from .. import _lazy

__getattr__, __dir__ = _lazy.lazy_exports(
    __name__,
    {
        ".gf": ("PrimeField", "is_prime"),
        ".subspace": ("Subspace", "random_subspace", "rref"),
    },
)

__all__ = ["PrimeField", "Subspace", "is_prime", "random_subspace", "rref"]
