"""Box-piece spaces: walls, depth, strata and faces."""

import numpy as np
import pytest

from strataglue import (
    BoxPiece,
    CorneredSpace,
    InputError,
    Wall,
    box_space,
    circle_space,
    interval_space,
    point_space,
)


# -- pieces ------------------------------------------------------------


def test_empty_interval_rejected():
    with pytest.raises(InputError):
        BoxPiece(lower=(0.0,), upper=(0.0,), walls=frozenset())


def test_wall_out_of_range_rejected():
    with pytest.raises(InputError):
        BoxPiece(lower=(0.0,), upper=(1.0,), walls=frozenset({Wall(1, 0)}))


def test_wall_on_periodic_axis_rejected():
    with pytest.raises(InputError):
        BoxPiece(
            lower=(0.0,), upper=(1.0,),
            walls=frozenset({Wall(0, 0)}), periodic=frozenset({0}),
        )


def test_mixed_dimensions_rejected():
    a = BoxPiece(lower=(0.0,), upper=(1.0,), walls=frozenset())
    b = BoxPiece(lower=(0.0, 0.0), upper=(1.0, 1.0), walls=frozenset())
    with pytest.raises(InputError):
        CorneredSpace([a, b])


# -- depth and strata --------------------------------------------------


def test_interval_depth():
    space = interval_space()
    assert space.depth((0, [0.5])) == 0
    assert space.depth((0, [0.0])) == 1
    assert space.depth((0, [1.0])) == 1


def test_square_corner_depth():
    space = box_space([1.0, 1.0])
    assert space.depth((0, [0.3, 0.7])) == 0
    assert space.depth((0, [0.0, 0.7])) == 1
    assert space.depth((0, [0.0, 1.0])) == 2
    assert space.walls_at((0, [0.0, 1.0])) == frozenset(
        {Wall(0, 0), Wall(1, 1)}
    )


def test_only_recorded_walls_count():
    # upper facets unrecorded: sitting on them adds no depth
    space = box_space([1.0, 1.0], active="lower")
    assert space.depth((0, [1.0, 1.0])) == 0
    assert space.depth((0, [0.0, 1.0])) == 1


def test_point_outside_piece_rejected():
    space = interval_space()
    with pytest.raises(InputError):
        space.depth((0, [1.5]))
    with pytest.raises(InputError):
        space.depth((3, [0.5]))


def test_circle_space_has_no_boundary():
    space = circle_space(2.0)
    assert space.depth((0, [0.0])) == 0
    assert space.depth((0, [1.37])) == 0
    # periodic axis: containment ignores the nominal bounds
    assert space.pieces[0].contains([5.0])


def test_row_queries_match_per_row():
    # a box with some walls recorded, rows on none, one and two of them,
    # on an unrecorded wall, and one periodic axis; a second copy of it
    # for distances across pieces
    piece = BoxPiece(
        lower=(0.0, 0.0, 0.0), upper=(1.0, 2.0, 1.0),
        walls=frozenset({Wall(0, 0), Wall(0, 1), Wall(1, 1)}),
        periodic=frozenset({2}),
    )
    space = CorneredSpace([piece, piece])
    rows = np.array([
        [0.5, 1.0, 0.5], [0.0, 1.0, 3.0], [1.0, 2.0, -1.0],
        [0.5, 0.0, 0.5], [0.0, 2.0, 0.25], [0.5, 1e-13, 0.5],
    ])
    assert space.depth((0, rows)).tolist() == [space.depth((0, r)) for r in rows]
    assert space.walls_at((0, rows)) == [space.walls_at((0, r)) for r in rows]
    assert piece.walls_at(rows) == [piece.walls_at(r) for r in rows]
    outside = np.vstack([rows, [[1.5, 1.0, 0.5]], [[-0.5, 1.0, 0.5]]])
    assert piece.contains(outside).tolist() == [bool(piece.contains(r)) for r in outside]
    assert not piece.contains(np.zeros((2, 2))).any()
    # distances in box coordinates, row by row; +inf across pieces
    other = rows[::-1]
    dist = space.distance((0, rows), (0, other))
    per_row = [space.distance((0, r), (0, o)) for r, o in zip(rows, other)]
    assert dist.tobytes() == np.array(per_row).tobytes()
    assert dist.tobytes() == np.linalg.norm(rows - other, axis=-1).tobytes()
    assert space.distance((0, rows), (1, other)).tolist() == [np.inf] * len(rows)
    # a block with rows outside names the first of them
    with pytest.raises(InputError, match=r"coords \[1.5 1.  0.5\] outside piece 0"):
        space.depth((0, outside))


def test_point_space_components():
    space = point_space(3)
    assert space.dim == 0
    assert len(space.pieces) == 3
    assert space.depth((2, [])) == 0


# -- faces -------------------------------------------------------------


def test_cube_faces_and_manifold_check():
    space = box_space([1.0, 1.0, 1.0])
    faces = space.connected_faces()
    assert len(faces) == 6
    ok, witness = space.check_manifold_with_faces()
    assert ok and witness is None


def test_face_intersection():
    space = box_space([1.0, 1.0])
    by_label = {f.label: f for f in space.connected_faces()}
    left = by_label["f0.0.0"]
    bottom = by_label["f0.1.0"]
    right = by_label["f0.0.1"]
    corner = space.face_intersection([left, bottom])
    assert len(corner) == 1
    assert corner[0].walls == frozenset({Wall(0, 0), Wall(1, 0)})
    # opposite walls of one axis never meet
    assert space.face_intersection([left, right]) == []
    with pytest.raises(InputError):
        space.face_intersection([left, left])


def test_custom_face_labels_checked():
    space = box_space([1.0])
    with pytest.raises(InputError):
        CorneredSpace(space.pieces, face_labels={(0, Wall(0, 1)): "x",
                                                 (5, Wall(0, 0)): "y"})


def test_stratum_patches_count():
    # square with all 4 walls: 1 interior + 4 edges + 4 corners
    space = box_space([1.0, 1.0])
    assert len(space.stratum_patches()) == 9
