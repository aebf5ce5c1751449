"""A kernel for multimodal type theory.

The kernel is parameterized by a *mode theory* (a finitely presented strict
2-category with a total equality decider).  Given one, it type-checks core
terms bidirectionally and computes unique, eta-long normal forms by
evaluation; conversion checking reduces to structural comparison of normal
forms with 2-cell equality delegated to the mode theory.

Modules:

- ``record``  -- the immutable record classes the syntaxes are declared with.
- ``modeth``  -- mode theories: modalities (1-cell words), 2-cells, and
  the word rules and cell table that decide their equality.
- ``syntax``  -- core de Bruijn terms.
- ``normal``  -- context readers, the renaming calculus, normal/neutral forms.
- ``nbe``     -- the semantic domain and normalization by evaluation.
- ``check``   -- the one context record, the bidirectional checker and
  conversion.
- ``cli``     -- the ``.mtt`` surface language, parser, and commands.
- ``harness`` -- term generation and the independent small-step oracle.
"""

__version__ = "0.1.0"
