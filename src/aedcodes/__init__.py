"""Monomial (Reed-Muller / polar) codes, SC / SCL / BP decoders, automorphism
ensemble decoding and an AWGN Monte-Carlo harness."""

from .automorphisms import (SUBGROUPS, AffineAutomorphism, AutomorphismBatch,
                            compile_tables, compose, format_automorphism,
                            group_order, identity_automorphism, inverse,
                            mlup_decompose, parse_automorphism, sample,
                            sample_ensemble)
from .codes import (CapacityError, CodeSpec, Monomial, MonomialSet, encode,
                    enumerate_codebook, in_code, index_to_monomial_mask,
                    is_decreasing, monomial_leq, pointwise_product_in_lower,
                    polar_code, polar_transform, read_frozen_file, rm_code,
                    split_subcodes, write_frozen_file)
from .decoders import (L_MAX, Bp, Sc, Scl, bp_decode_batch, boxplus, saturate,
                       sc_decode_batch, scl_decode_batch)
from .ensemble import (EnsembleConfig, VerificationReport,
                       conjugated_sc_branch, select_winners,
                       verify_lta_absorption, verify_lta_commutation)
from .simulation import (CSV_HEADER, ChannelConfig, SimRecord, build_frames,
                         decode_branches, format_csv_row, ml_decode_oracle,
                         run_mc)

__version__ = "0.6.0"
