"""Test vector generation: random, deterministic (PODEM) and compaction."""

from .randgen import (coverage_driven_patterns, patterns_from_vectors,
                      random_patterns)
from .podem import Podem, PodemStats, fill_assignment
from .compaction import reverse_order_compact
from .flows import (TgenStats, diagnosis_vectors, deterministic_patterns,
                    deterministic_patterns_with_stats)
from .distinguish import (distinguishing_vector,
                          distinguishing_vector_status,
                          random_distinguishing_vector,
                          refine_diagnosis,
                          sat_distinguishing_vector)

__all__ = [
    "coverage_driven_patterns", "patterns_from_vectors", "random_patterns",
    "Podem", "PodemStats", "fill_assignment",
    "reverse_order_compact",
    "TgenStats", "diagnosis_vectors", "deterministic_patterns",
    "deterministic_patterns_with_stats",
    "distinguishing_vector", "distinguishing_vector_status",
    "random_distinguishing_vector", "refine_diagnosis",
    "sat_distinguishing_vector",
]
