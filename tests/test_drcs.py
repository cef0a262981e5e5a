import json

import numpy as np
import pytest

from drcs_forge.ambiguity import af_grid
from drcs_forge.drcs import DrcsSet, Zone, build_drcs, export_drcs, import_drcs
from drcs_forge.errors import (
    OrderMismatchError,
    ParamsOutOfRangeError,
    RectangleClassError,
    SchemaError,
    UnitarityError,
)
from drcs_forge.hadamard import PhaseMatrix, dft_matrix
from drcs_forge.rectangles import Rectangle


@pytest.fixture(scope="module")
def set8(rect_a8):
    return build_drcs(rect_a8, dft_matrix(8))


class TestBuild:
    def test_shape(self, set8):
        assert (set8.K, set8.M, set8.L) == (8, 8, 6)
        assert set8.r == 8
        assert set8.zone == Zone(6, 6)

    def test_flock_indexing_law(self, rect_a8, set8):
        B = dft_matrix(8)
        for k in (0, 3, 7):
            for m in (0, 2, 5):
                for n in (0, 1, 4):
                    assert set8.flocks[k, m, n] == B.exps[rect_a8.rows[k, n], m]

    def test_flocks_stored_c_contiguous(self, set8):
        # the flocks come from a transposed gather: the one copy the
        # constructor makes must lay them out row by row
        assert set8.flocks.flags.c_contiguous
        assert DrcsSet(np.zeros((2, 3, 4), dtype=np.int64).transpose(0, 2, 1), 2).flocks.flags.c_contiguous

    def test_order_mismatch(self, rect_a8):
        with pytest.raises(OrderMismatchError):
            build_drcs(rect_a8, dft_matrix(9))

    def test_rectangle_class_checked(self):
        dup = Rectangle(3, [[0, 1, 2], [0, 1, 2]])
        with pytest.raises(RectangleClassError):
            build_drcs(dup, dft_matrix(3))
        bad_c1 = Rectangle(3, [[0, 0, 1]])
        with pytest.raises(RectangleClassError):
            build_drcs(bad_c1, dft_matrix(3))

    def test_unitarity_checked(self):
        A = Rectangle(2, [[0, 1]])
        flat = PhaseMatrix(2, 2, [[0, 0], [0, 0]])
        with pytest.raises(UnitarityError):
            build_drcs(A, flat)


class TestZone:
    def test_defaults_to_length(self):
        S = DrcsSet(np.zeros((1, 2, 3), dtype=int), 2)
        assert S.zone == Zone(3, 3)

    def test_zone_cannot_exceed_length(self):
        with pytest.raises(ParamsOutOfRangeError):
            DrcsSet(np.zeros((1, 2, 3), dtype=int), 2, zone=Zone(4, 2))

    def test_half_widths_positive(self):
        with pytest.raises(ParamsOutOfRangeError):
            Zone(0, 1)


class TestSerialization:
    def test_round_trip(self, set8, tmp_path):
        path = str(tmp_path / "set.json")
        export_drcs(set8, path)
        again = import_drcs(path)
        assert np.array_equal(again.flocks, set8.flocks)
        assert again.r == set8.r and again.zone == set8.zone

    def test_import_equals_export(self, set8, tmp_path):
        path = str(tmp_path / "set.json")
        export_drcs(set8, path)
        again = import_drcs(path)
        assert again == set8 and again.provenance != set8.provenance
        assert again != DrcsSet(set8.flocks, 2 * set8.r)
        assert again != DrcsSet(set8.flocks, set8.r, Zone(2, 3))
        assert again != DrcsSet(set8.flocks[:, :, :5], set8.r)
        with pytest.raises(TypeError):
            hash(again)  # == makes a set unhashable, like a rectangle

    def test_declared_shape_must_match(self, set8, tmp_path):
        path = str(tmp_path / "set.json")
        export_drcs(set8, path)
        with open(path) as fh:
            obj = json.load(fh)
        obj["K"] = 9
        path2 = str(tmp_path / "lie.json")
        with open(path2, "w") as fh:
            json.dump(obj, fh)
        with pytest.raises(SchemaError):
            import_drcs(path2)

    def test_bad_json(self, tmp_path):
        p = tmp_path / "junk.json"
        p.write_text("]")
        with pytest.raises(SchemaError):
            import_drcs(str(p))

    def test_missing_file(self, tmp_path):
        with pytest.raises(SchemaError):
            import_drcs(str(tmp_path / "absent.json"))

    def test_external_provenance_default(self, set8, tmp_path):
        path = str(tmp_path / "bare.json")
        export_drcs(set8, path)
        with open(path) as fh:
            obj = json.load(fh)
        del obj["provenance"]
        with open(path, "w") as fh:
            json.dump(obj, fh)
        again = import_drcs(path)
        assert again.provenance.get("source") == "external"


class TestFlockProperties:
    def test_flock_view(self, set8):
        f = set8.flock(2)
        assert f.shape == (8, 6)
        assert np.array_equal(f, set8.flocks[2])

    def test_exponent_range_enforced(self):
        with pytest.raises(Exception):
            DrcsSet(np.full((1, 2, 2), 7), 4)

    def test_auto_and_cross_af_structure(self, set8):
        # complementary autos cancel off the origin; cross terms are
        # either 0 or a full flock-size peak in magnitude
        M, L = set8.M, set8.L
        zone = Zone(L, L)
        auto = af_grid(set8.flock(0), set8.flock(0), zone, set8.r, method="naive")
        cross = af_grid(set8.flock(0), set8.flock(5), zone, set8.r, method="naive")
        for tau in range(-(L - 1), L):
            for nu in range(-(L - 1), L):
                v_auto = auto.value(tau, nu)
                if (tau, nu) == (0, 0):
                    assert abs(v_auto - M * L) < 1e-9
                else:
                    assert abs(v_auto) < 1e-6
                v_cross = cross.value(tau, nu)
                assert min(abs(abs(v_cross) - M), abs(v_cross)) < 1e-6
