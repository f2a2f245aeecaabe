"""Labeled graphs, group actions, skew products and the constructive
reconstruction of free actions from their quotients.

The public names are resolved on first use (PEP 562): ``import labgraphs``
loads no submodule, and ``labgraphs.quotient`` imports ``labgraphs.action``
then.  Each access reads the name from its submodule, so a name rebound
there (a wrapper, say) is what the package hands out.
"""

import importlib

#: The public names of each submodule.  A submodule's own name is public
#: too, so ``errors`` is listed although it exports no name here.
_EXPORTS = {
    "action": ("FiniteAction", "LabeledGraphAction", "QuotientLabeledGraph",
               "find_fundamental_domain", "has_unique_path_lifting",
               "is_free", "is_fundamental_domain", "is_label_consistent",
               "quotient", "verify_action"),
    "errors": (),
    "graph": ("DirectedGraph", "Edge", "Path", "paths_of_length", "validate"),
    "gross_tucker": ("Reconstruction", "SectionPack", "derive_cocycles",
                     "derive_eta1", "reconstruct",
                     "reconstruct_label_consistent"),
    "groups": ("CyclicGroup", "Group", "IntegerGroup", "PermutationGroup",
               "TableGroup", "Window", "make_group"),
    "labeled": ("Check", "LabeledGraph", "is_left_resolving",
                "is_weakly_left_resolving", "label_set", "labeled_paths",
                "range_and_source", "relative_range", "representatives"),
    "lattice": ("NormalForm", "SetCollection", "labeled_space_report",
                "normal_form", "relative_complement_closure",
                "smallest_accommodating"),
    "morphism": ("LabeledGraphMorphism", "automorphism_check_and_compose",
                 "compose", "identity_morphism", "inverse",
                 "verify_morphism"),
    "skew": ("SkewLabeledGraph", "SkewSpec", "TranslationAction",
             "identify_labeled_path", "labeled_range", "left_translation",
             "lift_path", "one_cocycle", "project_path", "relabel_iso",
             "skew_product", "translation_quotient"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items()
           for name in names}

__version__ = "0.1.0"

__all__ = sorted([*_EXPORTS, *_SOURCE])


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
