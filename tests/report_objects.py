"""Rebuild the nesting outcome and the special fibers of a report's model dict.

assemble returns only the canonical dict.  A test that re-checks a
certificate rebuilds it and its fiber from what the report emits, so the
independent checker judges the report itself.
"""

from prymtyurin.fixed_points import NestingCertificate, NestingFailure, NestingUndecided
from prymtyurin.induced_curve import FiberClass, SpecialFiber


def nesting_of(rep: dict):
    """The model's nesting outcome as the object nesting_search returns."""
    nest = rep["nesting"]
    if nest["certified"]:
        return NestingCertificate(
            fiber_index=nest["fiber"],
            chain=tuple(nest["chain"]),
            chain_members=tuple(tuple(map(tuple, ms)) for ms in nest["chain_members"]),
            memberships=tuple(map(tuple, nest["multiplicities"])),
        )
    if "memo_misses" in nest:
        return NestingUndecided(nest["reason"], nest["fibers_searched"], nest["memo_misses"])
    return NestingFailure(nest["reason"], nest["fibers_searched"], nest["orderings_tried"])


def fiber_of(rep: dict, position: int) -> SpecialFiber:
    """The special fiber at one layout position of the model."""
    return SpecialFiber(
        classes=tuple(
            FiberClass(
                members=tuple(map(tuple, cls["members"])),
                block_multiset=None if cls["block_multiset"] is None else tuple(cls["block_multiset"]),
            )
            for cls in rep["special_fibers"][position]["classes"]
        )
    )
