"""Labeled graphs, group actions, skew products and the constructive
reconstruction of free actions from their quotients."""

from .action import (FiniteAction, LabeledGraphAction, QuotientLabeledGraph,
                     find_fundamental_domain, has_unique_path_lifting, is_free,
                     is_fundamental_domain, is_label_consistent, quotient,
                     verify_action)
from .graph import DirectedGraph, Edge, Path, paths_of_length, validate
from .gross_tucker import (Reconstruction, SectionPack, derive_cocycles,
                           derive_eta1, reconstruct,
                           reconstruct_label_consistent)
from .groups import (CyclicGroup, Group, IntegerGroup, PermutationGroup,
                     TableGroup, Window, make_group)
from .labeled import (Check, LabeledGraph, is_left_resolving,
                      is_weakly_left_resolving, label_set, labeled_paths,
                      range_and_source, relative_range, representatives)
from .lattice import (NormalForm, SetCollection, labeled_space_report,
                      normal_form, relative_complement_closure,
                      smallest_accommodating)
from .morphism import (LabeledGraphMorphism, automorphism_check_and_compose,
                       compose, identity_morphism, inverse, verify_morphism)
from .skew import (SkewLabeledGraph, SkewSpec, TranslationAction,
                   identify_labeled_path, labeled_range, left_translation,
                   lift_path, one_cocycle, project_path, relabel_iso,
                   skew_product, translation_quotient)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
