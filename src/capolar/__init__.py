"""CRC-aided polar coding with complete decoding and blockwise soft output.

Layering: codes (crc, polar, reliability) -> channel -> scl -> outer ->
pipeline -> sim/cli, with oracle providing brute-force references and
analysis the probability-domain views of the outer code, both for the test
suite and selftest.
"""

from .channel import (ChannelParams, LLR_LIMIT, llr_from_channel, message_rng,
                      modulate, noise_rng, saturate_llr, transmit)
from .crc import (CRC6, CRC11, CRC24C, CrcSpec, crc_encode, crc_spec_for,
                  crc_syndrome)
from .analysis import bit_prob, convert_llr, pair_covariance
from .outer import (gcd_decode_block, hard_decision, orbgrand_schedule,
                    outer_llr, sogrand_decode_block)
from .pipeline import (ORIGINS, PipelineConfig, apply_threshold, decide_block,
                       threshold_test)
from .polar import (CodeDims, PolarCode, ca_encode, construct_polar,
                    encode_nonsystematic, encode_systematic, polar_transform)
from .reliability import bhattacharyya_order, sequence_for
from .scl import BatchSclOutput, ca_select_batch, scl_decode_batch
from .sim import (CalibrationBin, SimConfig, SimRecord, run_bler_sweep,
                  run_calibration, run_llr_profile, run_uer_sweep,
                  wilson_interval)

__version__ = "0.1.0"

__all__ = [
    "ChannelParams", "LLR_LIMIT", "llr_from_channel", "message_rng",
    "modulate", "noise_rng", "saturate_llr", "transmit",
    "CRC6", "CRC11", "CRC24C", "CrcSpec", "crc_encode", "crc_spec_for",
    "crc_syndrome",
    "bit_prob", "convert_llr", "pair_covariance",
    "hard_decision", "orbgrand_schedule", "outer_llr", "sogrand_decode_block",
    "gcd_decode_block",
    "PipelineConfig", "ORIGINS", "apply_threshold", "decide_block",
    "threshold_test",
    "CodeDims", "PolarCode", "ca_encode", "construct_polar",
    "encode_nonsystematic", "encode_systematic", "polar_transform",
    "bhattacharyya_order", "sequence_for",
    "BatchSclOutput", "ca_select_batch", "scl_decode_batch",
    "CalibrationBin", "SimConfig", "SimRecord", "run_bler_sweep",
    "run_calibration", "run_llr_profile", "run_uer_sweep", "wilson_interval",
    "__version__",
]
