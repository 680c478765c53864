"""Exact analysis of Lipschitz equivalence for one-dimensional
self-similar sets with touching pieces.

The package decides whether a touching attractor is bi-Lipschitz
equivalent to the equally spaced dust with the same contraction ratios,
and when it is, builds a machine-checkable graph-directed decomposition
certificate, expands it to a finite-depth correspondence, and bounds the
empirical distortion.
"""

from .exactnum import (ExactRatio, SymValue, DeclaredBase, ExactError,
                       FactorizationError, UncertifiableComparisonError,
                       mult_dependence, moran_dimension, factorize,
                       ratio_cmp)
from .ifs import IfsSpec, SpecError, TouchingStructure, canonical_dust
from .decide import Witness, Verdict, SearchBudget, decide, verify_witness
from .patches import (partition_S, partition_T, c_family, e_family,
                      e_ratio_set, gap_partition, partition_norm, delta_k)
from .certify import (Certificate, CertificateError, build_certificate,
                      verify_certificate, verify_cert_doc, cert_to_doc,
                      cert_from_doc, expand_map, distortion_report)
from .specfile import (load_spec, save_doc, spec_from_doc, spec_to_doc,
                       canonical_json, doc_digest)

__version__ = "0.1.0"

__all__ = [
    "ExactRatio", "SymValue", "DeclaredBase", "ExactError",
    "FactorizationError", "UncertifiableComparisonError",
    "mult_dependence", "moran_dimension", "factorize", "ratio_cmp",
    "IfsSpec", "SpecError", "TouchingStructure", "canonical_dust",
    "Witness", "Verdict", "SearchBudget", "decide", "verify_witness",
    "partition_S", "partition_T", "c_family", "e_family", "e_ratio_set",
    "gap_partition", "partition_norm", "delta_k",
    "Certificate", "CertificateError", "build_certificate",
    "verify_certificate", "verify_cert_doc", "cert_to_doc",
    "cert_from_doc", "expand_map", "distortion_report",
    "load_spec", "save_doc", "spec_from_doc", "spec_to_doc",
    "canonical_json", "doc_digest",
]
