"""Bit-parallel logic & fault simulation."""

from .packing import (PatternSet, WORD_BITS, bit_indices, num_words,
                      pack_bits, popcount, tail_mask, unpack_bits)
from .logicsim import lookup, output_rows, propagate, simulate
from .compare import (count_failing, diff_rows, equivalent,
                      failing_vector_mask, masked)
from .faultsim import FaultSimulator, SimFault, all_faults
from .sensitize import (sensitization_masks, sensitized_lines,
                        sensitized_path)
from .vcd import write_vcd

__all__ = [
    "PatternSet", "WORD_BITS", "bit_indices", "num_words", "pack_bits",
    "popcount", "tail_mask", "unpack_bits",
    "lookup", "output_rows", "propagate", "simulate",
    "count_failing", "diff_rows", "equivalent", "failing_vector_mask",
    "masked",
    "FaultSimulator", "SimFault", "all_faults",
    "sensitization_masks", "sensitized_lines", "sensitized_path",
    "write_vcd",
]
