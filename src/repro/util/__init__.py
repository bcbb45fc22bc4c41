"""Shared low-level utilities: bit math, RNG plumbing, validation."""

from repro.util.bits import (
    aligned_block_of,
    bit,
    bit_reverse,
    bit_window,
    common_prefix_len,
    enclosing_block_exponent,
    high_bits,
    ilog2,
    is_power_of_two,
    low_bits,
    mask_of,
    rotate_left,
    rotate_right,
    same_high_bits,
    same_low_bits,
)
from repro.util.rng import ensure_rng, spawn_rngs
from repro.util.validation import (
    check_network_size,
    check_port,
    check_ports,
    check_positive,
    check_probability,
    check_stage,
)

__all__ = [
    "aligned_block_of",
    "bit",
    "bit_reverse",
    "bit_window",
    "check_network_size",
    "check_port",
    "check_ports",
    "check_positive",
    "check_probability",
    "check_stage",
    "common_prefix_len",
    "enclosing_block_exponent",
    "ensure_rng",
    "high_bits",
    "ilog2",
    "is_power_of_two",
    "low_bits",
    "mask_of",
    "rotate_left",
    "rotate_right",
    "same_high_bits",
    "same_low_bits",
    "spawn_rngs",
]
