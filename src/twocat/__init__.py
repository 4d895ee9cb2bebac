"""A validated workbench for finite strict 2-categories.

Submodules:

* ``core``       data model, axiom validation, dualities
* ``io``         JSON interchange
* ``fixtures``   standard small 2-categories
* ``constructs`` pullbacks, lax/oplax comma objects, fibers
* ``nerve``      normal oplax nerve as a truncated simplicial set
* ``dnerve``     homology off the double nerve, for group completion
* ``intlinalg``  exact integer matrices, Smith normal form, lattices
* ``homology``   integral and local-coefficient homology
* ``opfib``      (op)cartesian checks, opfibration certificates
* ``specseq``    the bisimplicial set, pages, fiber coefficient systems
* ``pgm``        permutative Gray monoids, actions, localization
* ``sinv``       the S^-1 X construction and group-completion checks
* ``cli``        command-line front end
"""

__version__ = "0.1.0"
