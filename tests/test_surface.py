import hashlib
import itertools
import json
import random
import re
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from skeinhom import cli, homalg, memo, planar, surface
from skeinhom.barproj import word_degree
from skeinhom.errors import GradingError, InvalidBoundary, SpecError, TruncationError
from skeinhom.homalg import Certificate, LaurentPoly, TruncatedComplex, smith_invariants
from skeinhom.planar import PlanarTangle, cup_over_cap, identity_tangle
from skeinhom.surface import (Segment, SurfaceComplex, SurfaceElement, SurfaceSpec,
                              SurfaceTangle, arc, coarsen, compose, h0, identity_unit,
                              removable_seam, seam_side, symmetrized_pairing, transfer)

from . import plan_oracles
from .optimized import error_under_optimize
from .oracles import (_plug_sites, coarsen_by_surgery, coarsening_arc_maps, dense_homology_at,
                      hom_complex_by_pair, stacked_state_by_surgery, surface_differentials,
                      surface_multiwords)

DISK = SurfaceSpec(arcs=(("a", 1),), seams=(), regions=((arc("a"),),))
DISK_ARC = SurfaceTangle.from_data({"regions": [{"counts": [2], "chords": [[0, 1]]}]})

ANNULUS = SurfaceSpec(
    arcs=(("a", 1), ("b", 1)),
    seams=("g",),
    regions=((seam_side("g", -1), arc("a"), seam_side("g", 1), arc("b")),),
)
CORE = SurfaceTangle.from_data(
    {"regions": [{"counts": [1, 0, 1, 0], "chords": [[0, 1]]}]}
)
EMPTY = SurfaceTangle.from_data({"regions": [{"counts": [0, 0, 0, 0], "chords": []}]})
THROUGH2 = SurfaceTangle.from_data(
    {"regions": [{"counts": [2, 0, 2, 0], "chords": [[0, 3], [1, 2]]}]}
)
CUPCAP2 = SurfaceTangle.from_data(
    {"regions": [{"counts": [2, 0, 2, 0], "chords": [[0, 1], [2, 3]]}]}
)

ANNULUS2 = SurfaceSpec(
    arcs=(("a0", 1), ("a1", 1), ("a2", 1), ("a3", 1)),
    seams=("g1", "g2"),
    regions=(
        (seam_side("g1", -1), arc("a0"), seam_side("g2", 1), arc("a1")),
        (seam_side("g2", -1), arc("a2"), seam_side("g1", 1), arc("a3")),
    ),
)
CORE2 = SurfaceTangle.from_data(
    {
        "regions": [
            {"counts": [1, 0, 1, 0], "chords": [[0, 1]]},
            {"counts": [1, 0, 1, 0], "chords": [[0, 1]]},
        ]
    }
)

SEAMED_DISK = SurfaceSpec(
    arcs=(("a0", 1), ("a1", 1)),
    seams=("g",),
    regions=((arc("a0"), seam_side("g", 1)), (seam_side("g", -1), arc("a1"))),
)
SEAMED_DISK_ARC = SurfaceTangle.from_data(
    {
        "regions": [
            {"counts": [1, 1], "chords": [[0, 1]]},
            {"counts": [1, 1], "chords": [[0, 1]]},
        ]
    }
)

# the spliced arc runs through a chord with both ends on the seam
SEAMED_DISK_CHAIN = SurfaceTangle.from_data(
    {
        "regions": [
            {"counts": [2, 2], "chords": [[0, 3], [1, 2]]},
            {"counts": [2, 0], "chords": [[0, 1]]},
        ]
    }
)

# a disk cut by two seams into three regions in a row: removing either seam
# leaves the region at the far end untouched
STRIP3 = SurfaceSpec(
    arcs=(("a0", 1), ("a1", 1), ("a2", 1), ("a3", 1)),
    seams=("g1", "g2"),
    regions=(
        (arc("a0"), seam_side("g1", 1)),
        (seam_side("g1", -1), arc("a1"), seam_side("g2", 1), arc("a2")),
        (seam_side("g2", -1), arc("a3")),
    ),
)
STRIP3_DATA = {
    "arcs": ["a0", "a1", "a2", "a3"],
    "seams": ["g1", "g2"],
    "regions": [
        [{"arc": "a0"}, {"seam": "g1", "side": "+"}],
        [{"seam": "g1", "side": "-"}, {"arc": "a1"}, {"seam": "g2", "side": "+"}, {"arc": "a2"}],
        [{"seam": "g2", "side": "-"}, {"arc": "a3"}],
    ],
}
# one strand from a0 through both seams to a3
STRIP3_ARC_DATA = {"regions": [
    {"counts": [1, 1], "chords": [[0, 1]]},
    {"counts": [1, 0, 1, 0], "chords": [[0, 1]]},
    {"counts": [1, 1], "chords": [[0, 1]]},
]}
STRIP3_ARC = SurfaceTangle.from_data(STRIP3_ARC_DATA)
# two strands through both seams, and the same with a cap on a0 and one on g1
STRIP3_PAIR = SurfaceTangle.from_data({"regions": [
    {"counts": [2, 2], "chords": [[0, 3], [1, 2]]},
    {"counts": [2, 0, 2, 0], "chords": [[0, 3], [1, 2]]},
    {"counts": [2, 2], "chords": [[0, 3], [1, 2]]},
]})
STRIP3_CAPS = SurfaceTangle.from_data({"regions": [
    {"counts": [2, 2], "chords": [[0, 1], [2, 3]]},
    {"counts": [2, 0, 2, 0], "chords": [[0, 3], [1, 2]]},
    {"counts": [2, 2], "chords": [[0, 3], [1, 2]]},
]})

# a point on every segment, so splicing either seam reorders the points
# Cup-caps on ANNULUS2 with two points on g1 and one on g2, so that the
# seams carry rings of different least letter degree
MIXED_SLOPES = SurfaceTangle.from_data(
    {
        "regions": [
            {"counts": [2, 0, 1, 1], "chords": [[0, 1], [2, 3]]},
            {"counts": [1, 1, 2, 0], "chords": [[0, 1], [2, 3]]},
        ]
    }
)

ANNULUS2_SPOKES = SurfaceTangle.from_data(
    {
        "regions": [
            {"counts": [1, 1, 1, 1], "chords": [[0, 1], [2, 3]]},
            {"counts": [1, 1, 1, 1], "chords": [[0, 3], [1, 2]]},
        ]
    }
)

COARSENINGS = [
    (ANNULUS2, CORE2, "g1"),
    (ANNULUS2, CORE2, "g2"),
    (SEAMED_DISK, SEAMED_DISK_ARC, "g"),
    (SEAMED_DISK, SEAMED_DISK_CHAIN, "g"),
    (ANNULUS2, ANNULUS2_SPOKES, "g1"),
    (ANNULUS2, ANNULUS2_SPOKES, "g2"),
]


class TestValidation:
    def test_annulus_spec_is_valid(self):
        assert SurfaceSpec(ANNULUS.arcs, ANNULUS.seams, ANNULUS.regions) == ANNULUS

    def test_list_built_spec_is_frozen(self):
        spec = SurfaceSpec(arcs=[["a", 1]], seams=[], regions=[[arc("a")]])
        assert spec == DISK and hash(spec) == hash(DISK)
        assert type(spec.arcs[0]) is type(spec.regions[0]) is tuple
        with pytest.raises(AttributeError):
            spec.regions[0].append(arc("z"))

    def test_list_built_tangle_is_frozen(self):
        tangle = SurfaceTangle([DISK_ARC.caps[0]], [[2]])
        assert tangle == DISK_ARC and hash(tangle) == hash(DISK_ARC)
        with pytest.raises(AttributeError):
            tangle.counts[0].append(1)

    def test_disk_with_three_arcs_no_seams(self):
        spec = SurfaceSpec(
            arcs=(("a", 1), ("b", 1), ("c", 1)),
            seams=(),
            regions=((arc("a"), arc("b"), arc("c")),),
        )
        assert spec.regions == ((arc("a"), arc("b"), arc("c")),)

    def test_seam_with_two_plus_sides_rejected(self):
        with pytest.raises(SpecError, match=r"region 0, segment 1"):
            SurfaceSpec(
                arcs=(),
                seams=("g",),
                regions=((seam_side("g", 1), seam_side("g", 1)),),
            )

    def test_dangling_seam_side_rejected(self):
        with pytest.raises(SpecError, match=r"missing its - side"):
            SurfaceSpec(
                arcs=(("a", 1),),
                seams=("g",),
                regions=((arc("a"), seam_side("g", 1)),),
            )

    def test_repeated_arc_rejected(self):
        with pytest.raises(SpecError, match=r"already used"):
            SurfaceSpec(arcs=(("a", 1),), seams=(), regions=((arc("a"), arc("a")),))

    def test_unknown_references_carry_location(self):
        with pytest.raises(SpecError, match=r"region 0, segment 1: unknown arc 'z'"):
            SurfaceSpec(arcs=(("a", 1),), seams=(), regions=((arc("a"), arc("z")),))

    def test_unused_arc_rejected(self):
        with pytest.raises(SpecError, match=r"never referenced"):
            SurfaceSpec(arcs=(("a", 1), ("b", 1)), seams=(), regions=((arc("a"),),))

    def test_disconnected_regions_rejected(self):
        with pytest.raises(SpecError, match=r"connected"):
            SurfaceSpec(
                arcs=(("a", 1), ("b", 1)),
                seams=(),
                regions=((arc("a"),), (arc("b"),)),
            )

    def test_dangling_seam_side_is_refused_under_optimize(self):
        # a spec that gets past construction is whole, so seam lookups on it
        # never meet a missing side as a bare KeyError
        line = error_under_optimize(
            "from skeinhom.surface import SurfaceSpec, arc, seam_side\n"
            "SurfaceSpec(arcs=(('a', 1),), seams=('g',),\n"
            "            regions=((arc('a'), seam_side('g', 1)),))\n")
        assert line == "skeinhom.errors.SpecError: seam 'g' is missing its - side"

    def test_region_entry_that_is_not_a_segment_rejected(self):
        with pytest.raises(SpecError, match=r"^region 0, segment 0 must be a Segment, got 'a'$"):
            SurfaceSpec(arcs=(("a", 1),), seams=(), regions=(("a",),))

    def test_region_entry_that_is_not_a_segment_is_refused_under_optimize(self):
        line = error_under_optimize(
            "from skeinhom.surface import SurfaceSpec\n"
            "SurfaceSpec((('a', 1),), (), (('a',),))\n")
        assert line == "skeinhom.errors.SpecError: region 0, segment 0 must be a Segment, got 'a'"

    # A spec built in code, shaped as from_data refuses; each is the
    # argument list of a SurfaceSpec call, with what it must raise.
    MISSHAPEN = {
        "(('a',), (), ((arc('a'),),))": "arc 0 must be a (string, +1 or -1) pair, got 'a'",
        "((('a', 2),), (), ((arc('a'),),))":
            "arc 0 must be a (string, +1 or -1) pair, got ('a', 2)",
        "(((1, 1),), (), ((arc(1),),))": "arc 0 must be a (string, +1 or -1) pair, got (1, 1)",
        "(5, (), ((arc('a'),),))": "arcs must be a tuple, got 5",
        "((('a', 1),), (), (5,))": "region 0 must be a tuple, got 5",
        "((('a', 1),), (), 5)": "regions must be a tuple, got 5",
        "((('a', 1),), 5, ((arc('a'),),))": "seams must be a tuple, got 5",
        "((('a', 1),), (1,), ((arc('a'),),))": "seam 0 must be a string, got 1",
    }

    @pytest.mark.parametrize("args", MISSHAPEN)
    def test_misshapen_spec_rejected(self, args):
        with pytest.raises(SpecError, match=f"^{re.escape(self.MISSHAPEN[args])}$"):
            eval(f"SurfaceSpec{args}", {"SurfaceSpec": SurfaceSpec, "arc": arc})

    @pytest.mark.parametrize("args", MISSHAPEN)
    def test_misshapen_spec_is_refused_under_optimize(self, args):
        line = error_under_optimize(
            f"from skeinhom.surface import SurfaceSpec, arc\nSurfaceSpec{args}\n")
        assert line == f"skeinhom.errors.SpecError: {self.MISSHAPEN[args]}"

    def test_from_data_round_trip(self):
        data = {
            "arcs": [{"id": "a", "sign": 1}, "b"],
            "seams": ["g"],
            "regions": [
                [
                    {"seam": "g", "side": "-"},
                    {"arc": "a"},
                    {"seam": "g", "side": "+"},
                    {"arc": "b"},
                ]
            ],
        }
        assert SurfaceSpec.from_data(data) == ANNULUS

    def test_from_data_rejects_bad_side(self):
        data = {"seams": ["g"], "regions": [[{"seam": "g", "side": "x"}]]}
        with pytest.raises(SpecError, match=r"side must be"):
            SurfaceSpec.from_data(data)

    def test_bad_seam_side_rejected(self):
        # from_data reads a side as + or -, so only a spec built in code has another
        with pytest.raises(SpecError, match=r"^region 0, segment 0: seam side must be \+1 or -1$"):
            SurfaceSpec(arcs=(), seams=("g",),
                        regions=((Segment("seam", "g", 0), seam_side("g", 1)),))

    def test_unknown_segment_kind_rejected(self):
        with pytest.raises(SpecError, match=r"^region 0, segment 1: unknown segment kind 'hole'$"):
            SurfaceSpec(arcs=(("a", 1),), seams=(), regions=((arc("a"), Segment("hole", "h")),))

    @pytest.mark.parametrize("cap,counts,message", [
        (PlanarTangle(0, 2, (1, 0)), (0,), "top tangle: region 0 cap has points on top"),
        (PlanarTangle(2, 0, (1, 0), 1), (2,), "top tangle: region 0 cap must be minimal"),
        (PlanarTangle(2, 0, (1, 0)), (4,), "top tangle: region 0 cap has 2 points, counts give 4"),
    ], ids=["top-points", "circle", "count"])
    def test_caps_built_in_code_are_checked(self, cap, counts, message):
        # from_data builds every cap from its counts, so only code reaches these
        with pytest.raises(SpecError, match="^" + re.escape(message) + "$"):
            SurfaceComplex(DISK, SurfaceTangle((cap,), (counts,)), DISK_ARC, depth=0)

    @pytest.mark.parametrize("insert,message", [
        (PlanarTangle(2, 4, (2, 5, 0, 4, 3, 1)), "arc 'a': insert is (2, 4), boundary needs (2, 2)"),
        (identity_tangle(2).with_circles(1), "arc 'a': insert tangles must be minimal"),
    ], ids=["shape", "circle"])
    def test_arc_inserts_are_checked(self, insert, message):
        with pytest.raises(SpecError, match="^" + re.escape(message) + "$"):
            SurfaceComplex(DISK, DISK_ARC, DISK_ARC, depth=0, inserts={"a": insert})

    def test_tangle_chords_must_cover_all_points(self):
        with pytest.raises(SpecError, match=r"cover"):
            SurfaceTangle.from_data({"regions": [{"counts": [4], "chords": [[0, 1]]}]})

    def test_tangle_seam_counts_must_agree(self):
        lopsided = SurfaceTangle.from_data(
            {
                "regions": [
                    {"counts": [1, 1, 0, 0], "chords": [[0, 1]]},
                    {"counts": [0, 0, 0, 0], "chords": []},
                ]
            }
        )
        with pytest.raises(SpecError, match=r"seam 'g1'"):
            SurfaceComplex(ANNULUS2, lopsided, lopsided, depth=0)

    def test_arc_count_mismatch_needs_an_insert(self):
        wide = SurfaceTangle.from_data({"regions": [{"counts": [4], "chords": [[0, 1], [2, 3]]}]})
        with pytest.raises(SpecError, match=r"no insert"):
            SurfaceComplex(DISK, wide, DISK_ARC, depth=0)

    def test_unknown_insert_rejected(self):
        with pytest.raises(SpecError, match=r"unknown arc"):
            SurfaceComplex(DISK, DISK_ARC, DISK_ARC, depth=0, inserts={"z": PlanarTangle(2, 2, (2, 3, 0, 1))})

    def test_non_integral_grading_rejected(self):
        wide = SurfaceTangle.from_data({"regions": [{"counts": [4], "chords": [[0, 1], [2, 3]]}]})
        v = PlanarTangle(2, 4, (2, 5, 0, 4, 3, 1))
        with pytest.raises(SpecError, match=r"non-integral"):
            SurfaceComplex(DISK, wide, DISK_ARC, depth=0, inserts={"a": v})

    @given(st.integers(0, 6), st.integers(0, 4))
    def test_composition_index_is_complete(self, total, parts):
        from skeinhom.barproj import _compositions

        comps = list(_compositions(total, parts))
        assert all(len(c) == parts and sum(c) == total for c in comps)
        assert len(set(comps)) == len(comps)
        expect = 1
        for k in range(1, parts):
            expect = expect * (total + k) // k
        assert len(comps) == (expect if parts else (1 if total == 0 else 0))


# Construction entry points fed junk: each call, run after MALFORMED_SETUP,
# must raise a SpecError with its message, and a SpecError under python -O.
MALFORMED_SETUP = (
    "from skeinhom.barproj import SmallRing, bottom_projector, small_ring\n"
    "from skeinhom.planar import PlanarTangle\n"
    "from skeinhom.surface import SurfaceComplex, SurfaceSpec, SurfaceTangle, arc, "
    "symmetrized_pairing\n"
    "D = SurfaceSpec((('a', 1),), (), ((arc('a'),),))\n"
    "T = SurfaceTangle.from_data({'regions': [{'counts': [2], 'chords': [[0, 1]]}]})\n"
    "small_ring(1, 1)  # the cache entry True would hit as 1\n")
TANGLE_FIELDS = "a tangle needs integer bottom, top and circles and a tuple of integer partners"
MALFORMED_BUILDS = {
    "SurfaceComplex(D, T, T, depth=True)": "depth must be an integer, got True",
    "SurfaceComplex(D, T, T, depth=None)": "depth must be an integer, got None",
    "SurfaceComplex(D, T, T, depth=1.5)": "depth must be an integer, got 1.5",
    "SurfaceComplex(D, T, T, 0, inserts={'a': -1})":
        "insert for arc 'a' must be a PlanarTangle, got -1",
    "SurfaceComplex(D, T, T, 0, inserts=[1])": "inserts must be a mapping, got list",
    # checked before the layout key is made, which would hash the values
    "SurfaceComplex(D, T, T, 0, inserts={'a': [1, 0]})":
        "insert for arc 'a' must be a PlanarTangle, got [1, 0]",
    "SurfaceComplex(D, T, T, 0, inserts={3: None})": "insert references unknown arc 3",
    "symmetrized_pairing(D, T, T, (0, 0), (0, 4), depth=1.5)": "depth must be an integer, got 1.5",
    "symmetrized_pairing(D, T, T, None, (0, 4))": "h_range must be a pair of integers, got None",
    "bottom_projector('x', 1)": "bottom_projector: strand count must be an integer, got 'x'",
    "bottom_projector(2, None)": "bottom_projector: depth must be an integer, got None",
    "bottom_projector(2, 1.5)": "bottom_projector: depth must be an integer, got 1.5",
    "bottom_projector(2, 1, (1,))": "bottom_projector: split must be a pair of integers, got (1,)",
    "SmallRing(None, 2)": "small ring: m must be an integer, got None",
    "small_ring(None, 2)": "small ring: m must be an integer, got None",
    "small_ring(True, 1)": "small ring: m must be an integer, got True",
    "small_ring(1, 1.0)": "small ring: n must be an integer, got 1.0",
    "PlanarTangle(2, 0, None)":
        f"{TANGLE_FIELDS}, got PlanarTangle(bottom=2, top=0, partner=None, circles=0)",
    "PlanarTangle(2, 0, [1, 0])":
        f"{TANGLE_FIELDS}, got PlanarTangle(bottom=2, top=0, partner=[1, 0], circles=0)",
    "PlanarTangle(2.0, 0, (1, 0))":
        f"{TANGLE_FIELDS}, got PlanarTangle(bottom=2.0, top=0, partner=(1, 0), circles=0)",
    "PlanarTangle(2, 0, (1, 0), True)":
        f"{TANGLE_FIELDS}, got PlanarTangle(bottom=2, top=0, partner=(1, 0), circles=True)",
}


class TestMalformedConstruction:
    """SurfaceComplex, symmetrized_pairing, bottom_projector, SmallRing,
    small_ring and PlanarTangle check each argument where it comes in;
    small_ring before its cache, which would take True for 1."""

    @pytest.mark.parametrize("call", MALFORMED_BUILDS)
    def test_refused_with_a_spec_error(self, call):
        namespace = {}
        exec(MALFORMED_SETUP, namespace)
        with pytest.raises(SpecError) as info:
            eval(call, namespace)
        assert str(info.value) == MALFORMED_BUILDS[call]

    def test_refused_under_optimize(self):
        calls = "".join(f"check({call!r})\n" for call in MALFORMED_BUILDS)
        line = error_under_optimize(
            MALFORMED_SETUP
            + "from skeinhom.errors import SpecError\n"
            "def check(call):\n"
            "    try:\n"
            "        eval(call)\n"
            "    except SpecError:\n"
            "        return\n"
            "    raise SystemExit(f'{call} was not refused')\n"
            + calls + "raise ValueError('all refused')\n")
        assert line == "ValueError: all refused"


class TestSharedLayout:
    """A build reads what its spec, tangles and inserts alone determine
    from one SurfaceLayout per process per key (surface._layout)."""

    def test_one_layout_per_key(self):
        cx = SurfaceComplex(ANNULUS, CORE, CORE, depth=1)
        again = SurfaceComplex(ANNULUS, CORE, CORE, depth=3, q_range=(0, 4), reduced=False)
        assert again.layout is cx.layout and again.rings is cx.rings
        inserted = SurfaceComplex(ANNULUS, CORE, CORE, depth=1, inserts={"a": identity_tangle(0)})
        assert inserted.layout is not cx.layout
        assert inserted.inserts == {"a": identity_tangle(0)} and cx.inserts == {}
        assert complex_digest(inserted.truncated) == complex_digest(cx.truncated)

    def test_inserts_key_follows_the_arc_order(self):
        spec = SurfaceSpec(arcs=(("a", 1), ("b", 1)), seams=(), regions=((arc("a"), arc("b")),))
        tangle = SurfaceTangle.from_data({"regions": [{"counts": [1, 1], "chords": [[0, 1]]}]})
        one = identity_tangle(1)
        first = SurfaceComplex(spec, tangle, tangle, 0, inserts={"a": one, "b": one})
        second = SurfaceComplex(spec, tangle, tangle, 0, inserts={"b": one, "a": one})
        assert second.layout is first.layout

    def test_cold_and_warm_builds_agree(self):
        from .test_windowed import CASES
        for name, (spec, top, bottom) in CASES.items():
            for q_range in (None, (0, 4)):
                memo._forget()
                cold = SurfaceComplex(spec, top, bottom, depth=2, q_range=q_range)
                warm = SurfaceComplex(spec, top, bottom, depth=2, q_range=q_range)
                assert warm.layout is cold.layout, name
                assert warm.truncated.generators == cold.truncated.generators, name
                assert warm.truncated.differentials == cold.truncated.differentials, name
                if q_range is None:
                    cells = certified_cells(cold.truncated)
                    assert cells and certified_cells(warm.truncated) == cells, name

    def test_shared_pieces_are_read_only(self):
        cx = SurfaceComplex(ANNULUS, CORE, CORE, depth=1)
        layout = cx.layout
        for table, key in ((cx.rings, "g"), (layout.seam_pos, "g"), (layout.slot_global, (0, 0)),
                           (layout.seam_slots, "g"), (layout.seam_slots["g"], 1)):
            with pytest.raises(TypeError):
                table[key] = None
        for piece in (cx.seam_names, layout.slots, layout.slot_pos, cx.z_regions):
            assert isinstance(piece, tuple)

    def test_list_built_inputs_share_one_layout(self):
        listed = SurfaceTangle(list(CORE.caps), [list(c) for c in CORE.counts])
        spec = SurfaceSpec([list(a) for a in ANNULUS.arcs], list(ANNULUS.seams),
                           [list(r) for r in ANNULUS.regions])
        cx = SurfaceComplex(spec, listed, listed, depth=2)
        tupled = SurfaceComplex(ANNULUS, CORE, CORE, depth=2)
        assert cx.layout is tupled.layout
        assert complex_digest(cx.truncated) == complex_digest(tupled.truncated)


class TestAssembly:
    def test_unit_complex_of_the_empty_tangle(self):
        cx = SurfaceComplex(ANNULUS, EMPTY, EMPTY, depth=2)
        hom = cx.homology((-2, 0), (-2, 2))
        assert hom.betti == {(0, 0): 1}
        assert hom.torsion == {}

    @pytest.mark.parametrize("spec,t", [(ANNULUS, CORE), (DISK, DISK_ARC)])
    def test_negative_depth_rejected(self, spec, t):
        with pytest.raises(SpecError, match="depth must be non-negative, got -1"):
            SurfaceComplex(spec, t, t, depth=-1)

    def test_disk_arc_hom_is_one_plus_q_squared(self):
        cx = SurfaceComplex(DISK, DISK_ARC, DISK_ARC, depth=0)
        hom = cx.homology((0, 0), (0, 4))
        assert hom.betti == {(0, 0): 1, (0, 2): 1}
        assert hom.torsion == {}

    def test_essential_circle_chain_groups(self):
        cx = SurfaceComplex(ANNULUS, CORE, CORE, depth=3)
        for s in range(4):
            degs = sorted(q for _lbl, q in cx.truncated.generators[-s])
            assert degs == [2 * s, 2 * s + 2]

    def test_essential_circle_homology_window(self):
        cx = SurfaceComplex(ANNULUS, CORE, CORE, depth=4)
        hom = cx.homology((-3, 0), (0, 6))
        assert hom.betti == {(0, 0): 1, (0, 2): 1, (-1, 2): 1, (-2, 6): 1, (-3, 6): 1}
        assert hom.torsion == {(-1, 4): (2,)}

    def test_essential_circle_euler_series_is_one(self):
        cx = SurfaceComplex(ANNULUS, CORE, CORE, depth=4)
        unit = LaurentPoly({0: 1})
        assert cx.truncated.euler_series((0, 6)) == unit
        assert cx.homology((-3, 0), (0, 6)).euler_series() == unit

    def test_stable_under_depth_increase(self):
        shallow = SurfaceComplex(ANNULUS, CORE, CORE, depth=4)
        deep = SurfaceComplex(ANNULUS, CORE, CORE, depth=6)
        assert shallow.homology((-3, 0), (0, 6)) == deep.homology((-3, 0), (0, 6))

    def test_unreduced_oracle_agrees(self):
        red = SurfaceComplex(ANNULUS, CORE, CORE, depth=3)
        unr = SurfaceComplex(ANNULUS, CORE, CORE, depth=5, reduced=False)
        for h in range(-3, 1):
            for q in range(0, 7):
                assert red.truncated.homology_at(h, q) == unr.truncated.homology_at(h, q)

    def test_window_beyond_certificate_raises(self):
        cx = SurfaceComplex(ANNULUS, CORE, CORE, depth=2)
        with pytest.raises(TruncationError):
            cx.homology((-4, 0), (0, 20))

    def test_renaming_and_rotating_preserves_homology(self):
        rotated = SurfaceSpec(
            arcs=(("p", 1), ("q", 1)),
            seams=("s",),
            regions=((arc("q"), seam_side("s", -1), arc("p"), seam_side("s", 1)),),
        )
        core = SurfaceTangle.from_data(
            {"regions": [{"counts": [0, 1, 0, 1], "chords": [[0, 1]]}]}
        )
        a = SurfaceComplex(ANNULUS, CORE, CORE, depth=3).homology((-2, 0), (0, 6))
        b = SurfaceComplex(rotated, core, core, depth=3).homology((-2, 0), (0, 6))
        assert a == b

    def test_two_seam_chain_groups_square_the_one_seam_ones(self):
        cx = SurfaceComplex(ANNULUS2, CORE2, CORE2, depth=0)
        degs = sorted(q for _lbl, q in cx.truncated.generators[0])
        assert degs == [0, 2, 2, 4]

    def test_odd_seam_parity_has_no_flat_tangles(self):
        with pytest.raises(InvalidBoundary, match=r"no flat"):
            SurfaceComplex(ANNULUS, CORE, EMPTY, depth=1)

    def test_negative_arc_sign_reflects_the_insert(self):
        flipped = SurfaceSpec(arcs=(("a", -1), ("b", 1)), seams=(), regions=((arc("a"), arc("b")),))
        plain = SurfaceSpec(arcs=(("a", 1), ("b", 1)), seams=(), regions=((arc("a"), arc("b")),))
        bottom = SurfaceTangle.from_data({"regions": [{"counts": [3, 1], "chords": [[0, 1], [2, 3]]}]})
        top = SurfaceTangle.from_data({"regions": [{"counts": [3, 1], "chords": [[0, 3], [1, 2]]}]})
        v = PlanarTangle(3, 3, (3, 2, 1, 0, 5, 4))
        assert v.reflect_x() != v
        a = SurfaceComplex(flipped, top, bottom, depth=0, inserts={"a": v})
        b = SurfaceComplex(plain, top, bottom, depth=0, inserts={"a": v.reflect_x()})
        assert a.truncated.generators == b.truncated.generators
        assert a.truncated.differentials == b.truncated.differentials

    def test_element_degrees_match_generators(self):
        cx = SurfaceComplex(ANNULUS, CORE, CORE, depth=2)
        for h, gens in cx.truncated.generators.items():
            for e, (_lbl, q) in zip(cx.basis_elements(h), gens):
                assert e.quantum_degrees() == [q]


def outcome(query, *args):
    try:
        return query(*args)
    except TruncationError:
        return "refused"


def window_cells(cx):
    grades = [q for gens in cx.generators.values() for _, q in gens]
    return [(i, j) for i in range(cx.h_min - 1, cx.h_max + 2)
            for j in range(min(grades) - 2, max(grades) + 3)]


def certified_cells(cx):
    """{(i, j): (betti, torsion)} on the cells of window_cells(cx) that its
    truncation certificate answers."""
    cells = {cell: outcome(cx.homology_at, *cell) for cell in window_cells(cx)}
    return {cell: hom for cell, hom in cells.items() if hom != "refused"}


# the two-seam pair: caps on both seams against caps through both
TWO_SEAM_TOP = SurfaceTangle.from_data(
    {"regions": [{"counts": [2, 0, 2, 0], "chords": [[0, 1], [2, 3]]}] * 2}
)
TWO_SEAM_BOTTOM = SurfaceTangle.from_data(
    {"regions": [{"counts": [2, 0, 2, 0], "chords": [[0, 3], [1, 2]]}] * 2}
)


class TestHomologyEngine:
    @pytest.mark.parametrize("spec, top, bottom, depth", [
        (ANNULUS, CUPCAP2, THROUGH2, 3),
        (ANNULUS2, TWO_SEAM_TOP, TWO_SEAM_BOTTOM, 2),
    ])
    def test_blocks_match_the_scan_oracle(self, monkeypatch, spec, top, bottom, depth):
        cx = SurfaceComplex(spec, top, bottom, depth=depth).truncated
        taken, cancel = [], homalg._cancel_units

        def recorded(rows, cols):
            taken.append(({r: dict(row) for r, row in rows.items()},
                          {c: dict(col) for c, col in cols.items()}))
            return cancel(rows, cols)

        monkeypatch.setattr(homalg, "_cancel_units", recorded)
        blocks = cx._block_index()[1]
        monkeypatch.undo()
        assert len(taken) == len(blocks) > 5
        assert sum(len(rows) for rows, _ in taken) > 100
        for block, (rows, cols) in zip(blocks.values(), taken):
            units, residual = plan_oracles.cancel_units_by_scan(rows, cols)
            invs = smith_invariants(residual)
            assert block.smith() == (units + len(invs), tuple(d for d in invs if d > 1))

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_matches_dense_oracle(self, depth):
        cx = SurfaceComplex(ANNULUS, CUPCAP2, THROUGH2, depth=depth).truncated
        answered = 0
        for i, j in window_cells(cx):
            want = outcome(dense_homology_at, cx, i, j)
            assert outcome(cx.homology_at, i, j) == want
            answered += want != "refused"
        assert answered > 30
        if depth > 1:
            assert cx.homology((-1, 0), (0, 6)).torsion

    def test_refusals_fire_on_a_warmed_complex(self):
        cx = SurfaceComplex(ANNULUS, CUPCAP2, THROUGH2, depth=2).truncated
        cells = window_cells(cx)
        # warm every block, the ones below h_min + 1 included
        for cell in cells[::-1]:
            outcome(cx.homology_at, *cell)
        fresh = TruncatedComplex(cx.generators, cx.differentials, cx.h_min, cx.h_max,
                                 cx.complete, cx.certificate)
        for cell in cells:
            assert outcome(cx.homology_at, *cell) == outcome(fresh.homology_at, *cell)
        bound = cx.min_q_at(cx.h_min - 1)
        assert outcome(cx.homology_at, cx.h_min, bound - 1) != "refused"
        with pytest.raises(TruncationError):
            cx.homology_at(cx.h_min, bound)


class TestH0:
    def test_disk_arc_ranks(self):
        assert h0(DISK, DISK_ARC, DISK_ARC, 0) == 1
        assert h0(DISK, DISK_ARC, DISK_ARC, 1) == 0
        assert h0(DISK, DISK_ARC, DISK_ARC, 2) == 1

    def test_empty_annulus_unit(self):
        assert h0(ANNULUS, EMPTY, EMPTY, 0) == 1

    def test_essential_circle_matches_unreduced_oracle(self):
        for q in range(0, 7):
            unreduced = SurfaceComplex(ANNULUS, CORE, CORE, depth=1, reduced=False,
                                       q_range=(q, q))
            assert h0(ANNULUS, CORE, CORE, q) == unreduced.truncated.homology_at(0, q)[0]


class TestElements:
    def test_unit_is_closed_and_degree_zero(self):
        cx = SurfaceComplex(ANNULUS, CORE, CORE, depth=2)
        u = identity_unit(cx)
        assert u.h == 0
        assert u.quantum_degrees() == [0]
        assert not cx.differential(u)

    def test_differential_squares_to_zero(self):
        cx = SurfaceComplex(ANNULUS, CORE, CORE, depth=3)
        for h in (-3, -2):
            for e in cx.basis_elements(h):
                assert not cx.differential(cx.differential(e))

    def test_unit_needs_identity_inserts(self):
        v = PlanarTangle(2, 2, (1, 0, 3, 2))
        wide = SurfaceTangle.from_data({"regions": [{"counts": [2], "chords": [[0, 1]]}]})
        cx = SurfaceComplex(DISK, wide, wide, depth=0, inserts={"a": v})
        with pytest.raises(InvalidBoundary, match=r"identity insert"):
            identity_unit(cx)

    def test_addition_collects_terms(self):
        cx = SurfaceComplex(ANNULUS, CORE, CORE, depth=1)
        a, b = cx.basis_elements(0)
        assert (a + b) - a == b
        assert not (a - a)
        assert (a + a) == a.scaled(2)

    # CORE in ANNULUS at depth 1: one word tuple at each of degrees 0 and -1,
    # each with one-circle labelings; a term with a labeling one circle too
    # long, or with the word tuple of the other degree, is no generator
    OFF_GENERATOR = [(0, (0, 0)), (-1, (0,))]

    @pytest.mark.parametrize("word_h,lab", OFF_GENERATOR, ids=["long-labeling", "other-degree"])
    def test_term_off_the_generators_refused(self, word_h, lab):
        cx = SurfaceComplex(ANNULUS, CORE, CORE, depth=1)
        term = (cx.multiwords[word_h][0], lab)
        with pytest.raises(GradingError,
                           match=re.escape(f"term {term!r} is not a generator at degree 0")):
            SurfaceElement(cx, 0, {term: 1})

    @pytest.mark.parametrize("word_h,lab", OFF_GENERATOR, ids=["long-labeling", "other-degree"])
    def test_term_check_is_not_an_assert(self, word_h, lab):
        line = error_under_optimize(
            "from skeinhom.surface import (SurfaceComplex, SurfaceElement, SurfaceSpec,\n"
            "                              SurfaceTangle, arc, seam_side)\n"
            "spec = SurfaceSpec(arcs=(('a', 1), ('b', 1)), seams=('g',), regions=((\n"
            "    seam_side('g', -1), arc('a'), seam_side('g', 1), arc('b')),))\n"
            "core = SurfaceTangle.from_data(\n"
            "    {'regions': [{'counts': [1, 0, 1, 0], 'chords': [[0, 1]]}]})\n"
            "cx = SurfaceComplex(spec, core, core, depth=1)\n"
            f"SurfaceElement(cx, 0, {{(cx.multiwords[{word_h}][0], {lab!r}): 1}})\n")
        assert line.startswith("skeinhom.errors.GradingError: term ")
        assert line.endswith(f"{lab!r}) is not a generator at degree 0")


class TestCompose:
    def setup_method(self):
        self.cx = SurfaceComplex(ANNULUS, CORE, CORE, depth=1)
        self.tgt = SurfaceComplex(ANNULUS, CORE, CORE, depth=4)

    def lift(self, e):
        return SurfaceElement(self.tgt, e.h, dict(e.terms))

    def test_unit_is_two_sided(self):
        u = identity_unit(self.cx)
        for h in (0, -1):
            for f in self.cx.basis_elements(h):
                assert compose(self.lift(u), self.lift(f), target=self.tgt) == self.lift(f)
                assert compose(self.lift(f), self.lift(u), target=self.tgt) == self.lift(f)

    def test_degree_zero_surgery_table(self):
        one, dot = sorted(self.cx.basis_elements(0), key=lambda e: e.quantum_degrees())
        assert one.quantum_degrees() == [0] and dot.quantum_degrees() == [2]
        assert compose(self.lift(dot), self.lift(dot), target=self.tgt) == SurfaceElement(
            self.tgt, 0, {}
        )
        assert compose(self.lift(one), self.lift(dot), target=self.tgt) == self.lift(dot)

    def test_associative_on_degree_zero_basis(self):
        elems = [self.lift(e) for e in self.cx.basis_elements(0)]
        for f, g, k in itertools.product(elems, repeat=3):
            left = compose(compose(f, g, target=self.tgt), k, target=self.tgt)
            right = compose(f, compose(g, k, target=self.tgt), target=self.tgt)
            assert left == right

    def test_associative_with_bar_letters(self):
        zero = [self.lift(e) for e in self.cx.basis_elements(0)]
        one = [self.lift(e) for e in self.cx.basis_elements(-1)]
        for f, g, k in itertools.product(one, zero, one):
            left = compose(compose(f, g, target=self.tgt), k, target=self.tgt)
            right = compose(f, compose(g, k, target=self.tgt), target=self.tgt)
            assert left == right

    def test_leibniz_rule(self):
        cx = SurfaceComplex(ANNULUS, CORE, CORE, depth=2)
        for hf, hg in itertools.product((0, -1, -2), repeat=2):
            for f in cx.basis_elements(hf):
                for g in cx.basis_elements(hg):
                    fg = compose(self.lift(f), self.lift(g), target=self.tgt)
                    lhs = self.tgt.differential(fg)
                    rhs = compose(
                        self.lift(cx.differential(f)), self.lift(g), target=self.tgt
                    ) + compose(
                        self.lift(f), self.lift(cx.differential(g)), target=self.tgt
                    ).scaled((-1) ** (hf % 2))
                    assert lhs == rhs

    def test_degrees_add(self):
        for f in self.cx.basis_elements(-1):
            for g in self.cx.basis_elements(-1):
                fg = compose(self.lift(f), self.lift(g), target=self.tgt)
                if fg:
                    assert fg.quantum_degrees() == [
                        f.quantum_degrees()[0] + g.quantum_degrees()[0]
                    ]

    def test_middle_mismatch_rejected(self):
        cx2 = SurfaceComplex(ANNULUS, EMPTY, EMPTY, depth=1)
        with pytest.raises(InvalidBoundary, match=r"middle"):
            compose(self.cx.basis_elements(0)[0], cx2.basis_elements(0)[0])

    def test_depth_overflow_rejected(self):
        f = self.cx.basis_elements(-1)[0]
        with pytest.raises(TruncationError):
            compose(f, f, target=self.cx)

    def test_default_target_sums_the_depths(self):
        for f, g in itertools.product(self.cx.basis_elements(-1), repeat=2):
            fg = compose(f, g)
            assert (fg.owner.depth, fg.owner.top, fg.owner.bottom) == (2, CORE, CORE)
            assert self.lift(fg) == compose(self.lift(f), self.lift(g), target=self.tgt)

    def test_default_target_refuses_arc_inserts(self):
        cx = SurfaceComplex(DISK, DISK_ARC, DISK_ARC, depth=0, inserts={"a": cup_over_cap(2)})
        e = cx.basis_elements(0)[0]
        with pytest.raises(InvalidBoundary, match="provide a target complex"):
            compose(e, e)


class TestCoarsen:
    def test_two_seams_to_one_betti_agreement(self):
        cx2 = SurfaceComplex(ANNULUS2, CORE2, CORE2, depth=3)
        tgt, cmap = coarsen(cx2, "g2")
        window = ((-2, 0), (0, 4))
        assert cx2.homology(*window) == tgt.homology(*window)
        cone = cmap.cone()
        hom = cone.homology((-2, 0), (0, 4))
        assert hom.betti == {} and hom.torsion == {}

    def test_seamed_disk_to_disk(self):
        cx = SurfaceComplex(SEAMED_DISK, SEAMED_DISK_ARC, SEAMED_DISK_ARC, depth=2)
        tgt, cmap = coarsen(cx, "g")
        assert not tgt.seam_names
        hom = tgt.homology((0, 0), (0, 4))
        assert hom.betti == {(0, 0): 1, (0, 2): 1}
        cone = cmap.cone()
        assert cone.homology((-1, 0), (0, 4)).betti == {}

    @pytest.mark.parametrize("seam", ["g1", "g2"])
    @pytest.mark.parametrize("top,bottom,depth", [
        (STRIP3_ARC, STRIP3_ARC, 1), (STRIP3_ARC, STRIP3_ARC, 3), (STRIP3_CAPS, STRIP3_PAIR, 2),
    ], ids=["arc-1", "arc-3", "caps-pair-2"])
    def test_region_the_seam_does_not_touch(self, top, bottom, depth, seam):
        cx = SurfaceComplex(STRIP3, top, bottom, depth=depth)
        tgt, cmap = coarsen(cx, seam)
        # the far region keeps its segments and both caps, now beside one merged region
        far = 2 if seam == "g1" else 0
        kept = 1 if seam == "g1" else 0
        assert len(tgt.spec.regions) == 2 and tgt.spec.regions[kept] == STRIP3.regions[far]
        assert tgt.top.caps[kept] == top.caps[far] and tgt.bottom.caps[kept] == bottom.caps[far]
        cone = certified_cells(cmap.cone())
        assert cone and set(cone.values()) == {(0, ())}
        src, dst = certified_cells(cx.truncated), certified_cells(tgt.truncated)
        shared = src.keys() & dst.keys()
        assert shared and all(src[k] == dst[k] for k in shared)
        assert any(src[k] != (0, ()) for k in shared)

    @pytest.mark.parametrize("seam", ["g1", "g2"])
    def test_coarsen_check_with_an_untouched_region(self, capsys, seam):
        assert SurfaceSpec.from_data(STRIP3_DATA) == STRIP3
        strand = json.dumps(STRIP3_ARC_DATA)
        code = cli.run(["coarsen-check", "--spec", json.dumps(STRIP3_DATA), "--t", strand,
                        "--s", strand, "--seam", seam, "--hmin", "-2", "--qmax", "4",
                        "--depth", "3"])
        out, err = capsys.readouterr()
        payload = json.loads(out)
        assert (code, err) == (0, "")
        assert payload["acyclic"] is True and payload["betti_match"] is True
        assert payload["source"]["betti"] == payload["target"]["betti"] == [[0, 0, 1], [0, 2, 1]]

    def test_unit_maps_to_unit(self):
        cx2 = SurfaceComplex(ANNULUS2, CORE2, CORE2, depth=2)
        tgt, cmap = coarsen(cx2, "g1")
        assert transfer(identity_unit(cx2), cmap, tgt) == identity_unit(tgt)

    def test_intertwines_composition_on_degree_zero(self):
        cx2 = SurfaceComplex(ANNULUS2, CORE2, CORE2, depth=2)
        tgt, cmap = coarsen(cx2, "g2")
        for f in cx2.basis_elements(0):
            for g in cx2.basis_elements(0):
                lhs = transfer(compose(f, g, target=cx2), cmap, tgt)
                rhs = compose(transfer(f, cmap, tgt), transfer(g, cmap, tgt), target=tgt)
                assert lhs == rhs

    def test_same_region_seam_rejected(self):
        cx = SurfaceComplex(ANNULUS, CORE, CORE, depth=1)
        with pytest.raises(SpecError, match=r"one region"):
            coarsen(cx, "g")

    def test_unknown_seam_rejected(self):
        cx = SurfaceComplex(ANNULUS, CORE, CORE, depth=1)
        with pytest.raises(SpecError, match=r"unknown seam"):
            coarsen(cx, "h")

    def test_closing_a_component_rejected(self):
        spec = SurfaceSpec(
            arcs=(("a0", 1), ("a1", 1), ("a2", 1), ("a3", 1)),
            seams=("g1", "g2"),
            regions=(
                (seam_side("g1", -1), arc("a0"), seam_side("g2", 1), arc("a1")),
                (seam_side("g2", -1), arc("a2"), seam_side("g1", 1), arc("a3")),
            ),
        )
        loop = SurfaceTangle.from_data(
            {
                "regions": [
                    {"counts": [0, 0, 2, 0], "chords": [[0, 1]]},
                    {"counts": [2, 0, 0, 0], "chords": [[0, 1]]},
                ]
            }
        )
        cx = SurfaceComplex(spec, loop, loop, depth=1)
        with pytest.raises(SpecError, match=r"close"):
            coarsen(cx, "g2")
        with pytest.raises(SpecError, match=r"close"):
            removable_seam(spec, "g2", (loop,))


def seeded_element(rng, cx, h):
    """An integer combination of one to four random basis elements of cx at
    degree h, or None when there are none."""
    basis = cx.basis_elements(h)
    if not basis:
        return None
    terms = {}
    for e in rng.sample(basis, rng.randint(1, min(4, len(basis)))):
        (key, _one), = e.terms.items()
        terms[key] = rng.choice([-3, -2, -1, 1, 2, 5])
    return SurfaceElement(cx, h, terms)


def built_diagrams(monkeypatch):
    """A list that grows by one for every ClosedDiagram built from now on."""
    built = []
    original = planar.ClosedDiagram.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(planar.ClosedDiagram, "__init__", counting)
    return built


def basis_labelings(a, b):
    return [lab for lab, _ in surface.kh_basis(*surface.hom_double(a, b))]


class TestCompiledRoutes:
    """compose and coarsen replay plans compiled once per key; surgery on
    diagrams, label by label, is the reference."""

    @pytest.mark.parametrize("spec,a,b,c", [
        (ANNULUS, CORE, CORE, CORE),
        (ANNULUS, CUPCAP2, EMPTY, THROUGH2),
        (ANNULUS, THROUGH2, EMPTY, CUPCAP2),
        (ANNULUS2, CORE2, CORE2, CORE2),
    ])
    def test_compose_matches_stacking_by_surgery(self, monkeypatch, spec, a, b, c):
        fc = SurfaceComplex(spec, a, b, depth=1)
        gc = SurfaceComplex(spec, b, c, depth=1)
        tc = SurfaceComplex(spec, a, c, depth=2)
        rng = random.Random(len(spec.seams) * 100 + len(b.caps[0].chords))
        pairs = []
        for hf, hg in itertools.product((0, -1), repeat=2):
            for _ in range(3):
                f, g = seeded_element(rng, fc, hf), seeded_element(rng, gc, hg)
                if f and g:
                    pairs.append((f, g))
        assert pairs
        compiled = [compose(f, g, target=tc) for f, g in pairs]

        def by_surgery(z1, m1, z2, m2, zt):
            assert (z1, z2, zt) == (fc.z_jux, gc.z_jux, tc.z_jux)
            return SimpleNamespace(product=lambda labf, labg: stacked_state_by_surgery(
                fc, gc, tc, m1, m2, labf, labg).sorted_terms())

        monkeypatch.setattr(surface, "_stacking_plan", by_surgery)
        assert compiled == [compose(f, g, target=tc) for f, g in pairs]
        assert any(compiled)

    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize("spec,t,seam", COARSENINGS)
    def test_coarsen_matches_surgery_by_label(self, spec, t, seam, depth):
        cx = SurfaceComplex(spec, t, t, depth=depth)
        _tgt, cmap = coarsen(cx, seam)
        _tgt, comps = coarsen_by_surgery(cx, seam)
        assert cmap.components == {h: mat for h, mat in comps.items() if mat}
        assert cmap.components

    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize("spec,t,seam", COARSENINGS)
    def test_coarsening_maps_match_offset_reference(self, spec, t, seam, depth):
        # arc maps and saddle sites built from planar's point maps equal
        # those placed by explicit point offsets and chord chains
        cx = SurfaceComplex(spec, t, t, depth=depth)
        target, z_map, m_maps = surface._coarsened(cx, seam)
        assert (z_map, m_maps) == coarsening_arc_maps(cx, seam, target)
        assert z_map and any(m_maps.values())
        g = cx.layout.seam_pos[seam]
        for mw in m_maps:
            m_src = cx.m_tangle(mw)
            d_src, _off = surface.hom_double(cx.z_jux, m_src)
            args = (cx, seam, mw, mw[g][0][0], m_src, d_src)
            assert surface._plug_surgeries(*args) == _plug_sites(*args)

    @pytest.mark.parametrize("spec,a,b,c", [
        (DISK, DISK_ARC, DISK_ARC, DISK_ARC),
        (ANNULUS, CORE, CORE, CORE),
        (ANNULUS, CUPCAP2, EMPTY, THROUGH2),
        (ANNULUS, THROUGH2, EMPTY, CUPCAP2),
        (ANNULUS2, CORE2, CORE2, CORE2),
        (ANNULUS2, ANNULUS2_SPOKES, ANNULUS2_SPOKES, ANNULUS2_SPOKES),
        (SEAMED_DISK, SEAMED_DISK_ARC, SEAMED_DISK_ARC, SEAMED_DISK_ARC),
    ])
    def test_stacking_plans_match_the_diagram_compiler(self, spec, a, b, c):
        fc = SurfaceComplex(spec, a, b, depth=1)
        gc = SurfaceComplex(spec, b, c, depth=1)
        tc = SurfaceComplex(spec, a, c, depth=2)
        keys = {(fc.z_jux, fc.m_tangle(wf), gc.z_jux, gc.m_tangle(wg), tc.z_jux)
                for wf, wg in itertools.product(*(
                    [mw for mws in cx.multiwords.values() for mw in mws] for cx in (fc, gc)))}
        for key in keys:
            plan, reference = surface._stacking_plan(*key), plan_oracles.stacking_plan(*key)
            for labf, labg in itertools.product(
                    *(basis_labelings(z, m) for z, m in (key[:2], key[2:4]))):
                assert plan.product(labf, labg) == reference.product(labf, labg)

    @pytest.mark.parametrize("depth", [1, 2])
    @pytest.mark.parametrize("spec,t,seam", COARSENINGS)
    def test_coarsening_plans_match_the_diagram_compiler(self, spec, t, seam, depth):
        cx = SurfaceComplex(spec, t, t, depth=depth)
        target, z_map, m_maps = surface._coarsened(cx, seam)
        g = cx.layout.seam_pos[seam]
        for mw in m_maps:
            m_src = cx.m_tangle(mw)
            d_src, _off = surface.hom_double(cx.z_jux, m_src)
            sites = tuple(surface._plug_surgeries(cx, seam, mw, mw[g][0][0], m_src, d_src))
            key = (cx.z_jux, m_src, target.z_jux, target.m_tangle(mw[:g] + mw[g + 1:]), sites,
                   tuple(z_map.items()) + tuple(m_maps[mw].items()))
            plan, reference = surface._coarsening_plan(*key), plan_oracles.coarsening_plan(*key)
            for lab in basis_labelings(cx.z_jux, m_src):
                assert plan.product(lab) == reference.product(lab)

    def test_second_compose_and_coarsen_build_no_diagram(self, monkeypatch):
        memo._forget()
        cx = SurfaceComplex(ANNULUS, CORE, CORE, depth=1)
        tgt = SurfaceComplex(ANNULUS, CORE, CORE, depth=2)
        # CORE's seam ring has one object: one word per degree, two labelings
        (f0, f1), (g0, g1) = cx.basis_elements(-1), cx.basis_elements(0)
        compose(f0, g0, target=tgt)
        cx2 = SurfaceComplex(ANNULUS2, CORE2, CORE2, depth=2)
        _t, first_map = coarsen(cx2, "g2")
        plans = (surface._stacking_plan, surface._coarsening_plan)
        built, misses = built_diagrams(monkeypatch), [f.cache_info().misses for f in plans]
        fg = compose(f1 + f0.scaled(3), g1 - g0, target=tgt)
        _t, second_map = coarsen(cx2, "g2")
        assert not built and [f.cache_info().misses for f in plans] == misses
        assert fg and second_map.components == first_map.components
        # compiled afresh on doubles already cached, the plans build none either
        for f in plans:
            f.cache_clear()
        assert compose(f1 + f0.scaled(3), g1 - g0, target=tgt) == fg
        assert coarsen(cx2, "g2")[1].components == first_map.components
        assert not built and all(f.cache_info().misses for f in plans)


# every (spec, top, bottom) the fixtures above can build a complex for
FIXTURE_PAIRS = (
    [(DISK, DISK_ARC, DISK_ARC), (ANNULUS, CORE, CORE), (ANNULUS2, CORE2, CORE2),
     (SEAMED_DISK, SEAMED_DISK_ARC, SEAMED_DISK_ARC)]
    + [(ANNULUS, t, s) for t, s in itertools.product((EMPTY, THROUGH2, CUPCAP2), repeat=2)]
)


def complex_digest(cx):
    """A digest of an integer complex: its generators and its differential
    entries, degree by degree."""
    h = hashlib.sha256()
    for deg in sorted(cx.generators):
        h.update(repr((deg, cx.generators[deg])).encode())
    for deg in sorted(cx.differentials):
        h.update(repr((deg, sorted(cx.differentials[deg].items()))).encode())
    return h.hexdigest()[:16]


class TestEvaluation:
    """hom_complex reads the composition plans' tables; one checked basis
    state and one tqft.pair call per entry and labeling is the reference."""

    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize("spec,top,bottom", FIXTURE_PAIRS)
    def test_matches_pair_route(self, spec, top, bottom, depth):
        cx = SurfaceComplex(spec, top, bottom, depth=depth)
        slow = hom_complex_by_pair(cx.twisted, cx.z_jux)
        assert cx.truncated.generators == slow.generators
        assert {h: list(d.items()) for h, d in cx.truncated.differentials.items()} == \
            {h: list(d.items()) for h, d in slow.differentials.items()}

    @pytest.mark.parametrize("depth,digest", [
        (1, "d2a0655ba046d19d"),
        (2, "c475e4e5a4ad88bf"),
        (3, "efbd5f3c983f4692"),
        (4, "6ac7c3d1ac345b7a"),
    ])
    def test_annulus_complexes_are_pinned(self, depth, digest):
        # CUPCAP2 -> THROUGH2 over the annulus (56, 282, 1,408 and 7,034
        # generators): how the build gets there may change, the complex may not
        cx = SurfaceComplex(ANNULUS, CUPCAP2, THROUGH2, depth=depth)
        assert complex_digest(cx.truncated) == digest


class TestBarConstruction:
    """SurfaceComplex runs barproj.bar_complex over one ring per seam; the
    faces written out seam by seam, with their own word enumeration, are
    the reference."""

    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize("spec,top,bottom,reduced", [
        (ANNULUS, CUPCAP2, THROUGH2, True),
        (ANNULUS2, CORE2, CORE2, True),
        (SEAMED_DISK, SEAMED_DISK_ARC, SEAMED_DISK_ARC, True),
        (ANNULUS, CORE, CORE, False),
    ])
    def test_matches_faces_written_out_per_seam(self, spec, top, bottom, reduced, depth):
        cx = SurfaceComplex(spec, top, bottom, depth=depth, reduced=reduced)
        multiwords, index = surface_multiwords(cx)
        assert cx.multiwords == multiwords
        assert [list(cx.index[h].items()) for h in cx.index] == \
            [list(index[h].items()) for h in index]
        assert cx.twisted.objects == {
            h: tuple((cx.m_tangle(mw), sum(word_degree(cx.rings[n], w)
                                           for n, w in zip(cx.seam_names, mw)) - cx.q_base)
                     for mw in mws)
            for h, mws in multiwords.items()
        }
        diffs = surface_differentials(cx)
        assert sorted(cx.twisted.differentials) == sorted(diffs)
        for h, entries in diffs.items():
            assert list(cx.twisted.differentials[h].items()) == \
                [(k, sv) for k, sv in entries.items() if sv]
        assert any(diffs.values())

    @pytest.mark.parametrize("reduced", [True, False])
    def test_certificate_slope(self, reduced):
        cx = SurfaceComplex(ANNULUS2, CORE2, CORE2, depth=2, reduced=reduced)
        slope = min(cx.rings[n].min_letter_degree for n in cx.seam_names) if reduced else 0
        assert not cx.twisted.complete
        assert cx.twisted.certificate == Certificate(((-cx.q_base, slope),))
        assert [cx.twisted.certificate(r) for r in range(4)] == \
            [-cx.q_base + slope * r for r in range(4)]
        assert SurfaceComplex(ANNULUS, EMPTY, EMPTY, depth=2).twisted.complete


    def test_mixed_slopes_certify_by_the_least(self):
        # seam g1 carries the ring (2, 2), of least letter degree 1, and g2
        # the ring (1, 1), of least letter degree 2: the certificate must
        # take the smaller slope, or it passes generators a deeper build has
        shallow = SurfaceComplex(ANNULUS2, MIXED_SLOPES, MIXED_SLOPES, depth=1)
        deep = SurfaceComplex(ANNULUS2, MIXED_SLOPES, MIXED_SLOPES, depth=4)
        least = {h: min(q for _lbl, q in gens) for h, gens in deep.truncated.generators.items()}
        # no generator of a build three levels deeper lies below the bound
        for h in range(deep.truncated.h_min, shallow.truncated.h_min):
            assert least[h] >= shallow.truncated.min_q_at(h), h
        assert [shallow.rings[n].min_letter_degree for n in shallow.seam_names] == [1, 2]
        assert shallow.truncated.certificate == Certificate(((-4, 1),))
        assert (least[-4], shallow.truncated.min_q_at(-4)) == (2, 0)


class TestPairing:
    def test_disk_arcs(self):
        hom = symmetrized_pairing(DISK, DISK_ARC, DISK_ARC, (0, 0), (0, 4))
        assert hom.betti == {(0, 0): 1, (0, 2): 1}

    def test_empty_annulus_is_the_unit(self):
        hom = symmetrized_pairing(ANNULUS, EMPTY, EMPTY, (-1, 0), (-2, 2))
        assert hom.betti == {(0, 0): 1}
        assert hom.torsion == {}

    @pytest.mark.parametrize(
        "x,y",
        [
            (EMPTY, CUPCAP2),
            (EMPTY, THROUGH2),
            (CUPCAP2, THROUGH2),
            (CORE, CORE),
        ],
    )
    def test_poincare_symmetry(self, x, y):
        window = ((-1, 0), (0, 4))
        a = symmetrized_pairing(ANNULUS, x, y, *window)
        b = symmetrized_pairing(ANNULUS, y, x, *window)
        assert a == b
