"""Stratified moduli families, collar atlases, and gradient-flow gluing.

The package builds, from either combinatorial descriptions or numerical
gradient-flow data, families of compact spaces with corners indexed by
the comparable pairs of a poset, equips them with systems of compatible
collar (gluing) maps, and verifies the nesting, concatenation and
associativity identities those maps satisfy.
"""

from types import ModuleType as _ModuleType

from .errors import (
    EpsilonUnderflowError,
    InputError,
    RangeError,
    UnsupportedDimensionError,
)
from .poset import (
    Chain,
    CriticalPoint,
    CriticalPoset,
    concat_chains,
    enumerate_chains,
    is_chain,
    is_subchain,
    pair_length,
)
from .params import (
    GlueParam,
    add,
    concat_params,
    extend,
    mask,
    restrict,
    zero_support_subchain,
)
from .spaces import (
    BoxPiece,
    CorneredSpace,
    Face,
    Wall,
    box_space,
    circle_space,
    interval_space,
    point_space,
)
from .family import (
    Diffeo,
    StratifiedFamily,
    cube_family,
    shear_diffeo,
    stretch_diffeo,
    from_morse,
    load_family,
    save_family,
    validate_family,
    with_flipped_embedding,
    with_target_diffeo,
)
from .collar import (
    CollarAtlas,
    build_collars,
    check_associativity,
    check_compat_concat,
    check_compat_one_pair,
    check_stratum_condition,
    glue,
    glue_differential,
    glue_pair,
    single_space_collars,
)
from .morse import (
    MorseSystem,
    ModuliAnalysis,
    analyze,
    double_system,
    find_critical_points,
    find_trajectories,
    integrate_flow,
    round_sphere,
    system_from_expression,
    tilted_torus,
)

__version__ = "0.1.0"

# every public class and function imported above, plus the version
__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
] + ["__version__"]
