"""A kernel for multimodal type theory.

The kernel is parameterized by a *mode theory* (a finitely presented strict
2-category with a total equality decider).  Given one, it type-checks core
terms bidirectionally and computes unique, eta-long normal forms by
evaluation.  Conversion is decided on values, with every modality and 2-cell
question delegated to the mode theory; normal forms are its test reference.

Modules:

- ``record``  -- the immutable record classes the syntaxes are declared with.
- ``modeth``  -- mode theories: modalities (1-cell words), 2-cells, and
  the word rules and cell table that decide their equality.
- ``syntax``  -- core de Bruijn terms.
- ``normal``  -- context readers, the renaming calculus, normal/neutral forms.
- ``nbe``     -- the semantic domain and normalization by evaluation.
- ``conv``    -- conversion, decided on values.
- ``check``   -- the one context record and the bidirectional checker.
- ``cli``     -- the ``.mtt`` surface language, parser, and commands.
- ``harness`` -- term generation and the independent small-step oracle.
"""

__version__ = "0.1.0"
