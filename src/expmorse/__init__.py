"""Discrete Morse homology for neighborhood complexes of exponential graphs."""

from .complexes import (Complex, build_delta, complex_to_json,
                        delta_facet_families, delta_via_collapse,
                        neighborhood_complex)
from .errors import (ExpmorseError, InternalConsistencyError, InvalidArgumentError,
                     InvalidChainError, LemmaViolationError, PreconditionError,
                     ResourceLimitError)
from .gf2 import (BettiTable, Gf2Matrix, betti_bounded, betti_of_chain,
                  boundary_matrix, rank_gf2)
from .graphs import (FnVertex, Graph, categorical_product, complete_graph,
                     core_vertices, cycle_graph, exponential_graph, find_fold,
                     fold_core_exponential, fold_reduce, graph_from_json,
                     graph_to_json, neighborhood, variant)
from .homc import HomCell, enumerate_hom_cells, hom_cover_digraph, order_complex_of_hom
from .morse import (AcyclicityResult, CriticalSet, DescentCache, FacePoset,
                    Matching, alternating_path_parity, critical_cells,
                    enumerate_alternating_paths, face_poset, is_acyclic,
                    morse_boundaries, validate_matching)
from .pipeline import (LEMMA_KEYS, CorollaryReport, PipelineReport,
                       build_matching_mu, closed_form_critical,
                       corollary1_report, delta_poset, incidence_matrix_A,
                       theorem1_report, verify_lemma,
                       wn_transposition_ordering)

__version__ = "0.1.0"
