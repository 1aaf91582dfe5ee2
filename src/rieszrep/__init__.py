"""Scale- and translation-equivariant hierarchical Riesz features."""

from .representation import RieszConfig, extract_features

__version__ = "0.1.0"
