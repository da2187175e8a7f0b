"""Tests for embedding handling and k-center greedy selection."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coreseg import coreset
from coreseg.coreset import (
    DistanceMatrix,
    EmbeddingMatrix,
    SelectionManifest,
    cosine_distance_matrix,
    coverage_radius,
    kcenter_greedy,
    normalize_rows,
    random_select,
    read_embeddings,
    write_embeddings,
    write_selection_manifest,
)
from coreseg._fields import parse_float
from coreseg.errors import SelectionError
from coreseg.rng import SplitMix64

from helpers import brute_greedy, full_row_farthest_first, optimal_radius, shrink_payload


def gaussian_embeddings(rng, n, dim):
    values = rng.normal(size=(n, dim))
    values[np.linalg.norm(values, axis=1) < 1e-9] = 1.0
    return EmbeddingMatrix(ids=[f"i{j}" for j in range(n)], values=values)


def test_normalize_rows_unit_norm():
    rng = np.random.default_rng(0)
    E = gaussian_embeddings(rng, 20, 6)
    En = normalize_rows(E)
    assert En.normalized
    np.testing.assert_allclose(np.linalg.norm(En.values, axis=1), 1.0, atol=1e-12)
    assert En.ids == E.ids


def test_normalize_rows_rejects_zero_row():
    E = EmbeddingMatrix(ids=["a", "b"], values=np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(SelectionError, match="'b'"):
        normalize_rows(E)


# Rows per normalization block at dim 128.
NORM_BLOCK = coreset._NORM_BLOCK_BYTES // (8 * 128)


@pytest.mark.parametrize("n", [1, NORM_BLOCK - 1, NORM_BLOCK, NORM_BLOCK + 1])
def test_normalize_rows_in_blocks_is_bit_identical_to_whole_matrix(n):
    values = np.random.default_rng(n).normal(size=(n, 128))
    kept = values.copy()
    En = normalize_rows(EmbeddingMatrix([f"i{j}" for j in range(n)], values))
    want = values / np.linalg.norm(values, axis=1)[:, None]
    assert En.values.view(np.uint64).tolist() == want.view(np.uint64).tolist()
    # The argument is left as it was.
    assert np.array_equal(values, kept)
    assert not np.shares_memory(En.values, values)


def test_normalize_rows_names_a_zero_row_in_a_later_block():
    values = np.random.default_rng(5).normal(size=(2 * NORM_BLOCK, 128))
    values[NORM_BLOCK + 3] = 0.0
    E = EmbeddingMatrix([f"i{j}" for j in range(len(values))], values)
    with pytest.raises(SelectionError, match=f"'i{NORM_BLOCK + 3}'"):
        normalize_rows(E)


def test_embedding_validation():
    with pytest.raises(SelectionError, match="unique"):
        EmbeddingMatrix(ids=["a", "a"], values=np.ones((2, 2))).validate()
    with pytest.raises(SelectionError, match="unique"):
        EmbeddingMatrix(ids=["b", "a", "c", "b"], values=np.ones((4, 2))).validate()
    for bad in (np.nan, np.inf, -np.inf):
        for row, col in ((0, 0), (1, 1)):
            values = np.ones((2, 2))
            values[row, col] = bad
            with pytest.raises(SelectionError, match="non-finite"):
                EmbeddingMatrix(ids=["a", "b"], values=values).validate()
    with pytest.raises(SelectionError, match="ids"):
        EmbeddingMatrix(ids=["a"], values=np.ones((2, 2))).validate()
    with pytest.raises(SelectionError, match="unit norm"):
        EmbeddingMatrix(ids=["a"], values=np.array([[2.0, 0.0]]), normalized=True).validate()


def test_distance_matrix_properties():
    rng = np.random.default_rng(1)
    En = normalize_rows(gaussian_embeddings(rng, 15, 4))
    D = cosine_distance_matrix(En)
    D.validate()
    assert D.ids == list(En.ids) and D.entries.shape == (15, 15)
    assert float(np.diagonal(D.entries).max()) == 0.0
    assert D.entries.min() >= 0.0 and D.entries.max() <= 2.0
    # antipodal pair reaches the top of the range
    E2 = EmbeddingMatrix(ids=["a", "b"], values=np.array([[1.0, 0.0], [-1.0, 0.0]]), normalized=True)
    D2 = cosine_distance_matrix(E2)
    assert D2.entries[0, 1] == 2.0


def test_distance_matrix_requires_normalized():
    E = EmbeddingMatrix(ids=["a"], values=np.array([[2.0, 0.0]]))
    with pytest.raises(SelectionError, match="normalized"):
        cosine_distance_matrix(E)


def test_distance_matrix_validation_rejects_bad_entries():
    good = np.zeros((2, 2))
    DistanceMatrix(entries=good, ids=["a", "b"]).validate()
    with pytest.raises(SelectionError) as info:
        DistanceMatrix(entries=good, ids=["a", "b", "c"]).validate()
    assert str(info.value) == "entries shape (2, 2) does not match 3 ids"
    asym = np.array([[0.0, 1.0], [0.5, 0.0]])
    with pytest.raises(SelectionError, match="symmetric"):
        DistanceMatrix(entries=asym, ids=["a", "b"]).validate()
    diag = np.array([[0.5, 0.0], [0.0, 0.0]])
    with pytest.raises(SelectionError, match="diagonal"):
        DistanceMatrix(entries=diag, ids=["a", "b"]).validate()
    rng = np.array([[0.0, 3.0], [3.0, 0.0]])
    with pytest.raises(SelectionError, match=r"\[0, 2\]"):
        DistanceMatrix(entries=rng, ids=["a", "b"]).validate()


def test_unit_circle_frozen_example():
    # Four exact unit vectors at 0, 90, 180, 270 degrees. Seed 3 draws
    # index 0 first; the farthest point from it is the antipode.
    E = EmbeddingMatrix(
        ids=["p0", "p90", "p180", "p270"],
        values=np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]),
    )
    assert SplitMix64(3).sample(4, 1) == [0]
    m = kcenter_greedy(E, budget=2, k_init=1, rng_seed=3)
    assert m.selected == ["p0", "p180"]
    assert m.radius_trace == [2.0, 1.0]


def test_greedy_matches_brute_force():
    master = np.random.default_rng(42)
    for _ in range(40):
        n = int(master.integers(2, 40))
        dim = int(master.integers(1, 8))
        budget = int(master.integers(1, n + 1))
        k_init = int(master.integers(1, budget + 1))
        seed = int(master.integers(0, 2**32))
        E = gaussian_embeddings(master, n, dim)
        m = kcenter_greedy(E, budget, k_init=k_init, rng_seed=seed)
        ref_ids, ref_trace = brute_greedy(E, budget, k_init, seed)
        assert m.selected == ref_ids
        assert m.radius_trace == ref_trace


def test_selection_is_scale_invariant():
    # Scaling by a power of two changes no mantissa, so the normalized
    # values and therefore the whole run are bit-identical.
    rng = np.random.default_rng(8)
    E = gaussian_embeddings(rng, 25, 4)
    doubled = EmbeddingMatrix(ids=list(E.ids), values=E.values * 2.0)
    a = kcenter_greedy(E, 10, k_init=2, rng_seed=5)
    b = kcenter_greedy(doubled, 10, k_init=2, rng_seed=5)
    assert a.selected == b.selected
    assert a.radius_trace == b.radius_trace


def test_duplicate_points_are_handled():
    values = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    E = EmbeddingMatrix(ids=["a", "a2", "b", "c"], values=values, normalized=True)
    m = kcenter_greedy(E, 4, k_init=1, rng_seed=3)  # seed 3 draws index 0
    assert len(set(m.selected)) == 4
    # the duplicate contributes a zero radius step at the end
    assert m.radius_trace[-1] == 0.0


def test_budget_equals_item_count():
    rng = np.random.default_rng(2)
    E = gaussian_embeddings(rng, 6, 3)
    m = kcenter_greedy(E, 6, k_init=2, rng_seed=0)
    assert sorted(m.selected) == sorted(E.ids)
    assert m.radius_trace[-1] == 0.0


def test_greedy_rejects_bad_parameters():
    rng = np.random.default_rng(3)
    E = gaussian_embeddings(rng, 5, 3)
    with pytest.raises(SelectionError, match="exceeds item count"):
        kcenter_greedy(E, 6)
    with pytest.raises(SelectionError, match="k_init"):
        kcenter_greedy(E, 3, k_init=0)
    with pytest.raises(SelectionError, match="k_init"):
        kcenter_greedy(E, 3, k_init=4)


def test_radius_trace_non_increasing_and_matches_coverage():
    rng = np.random.default_rng(12)
    E = normalize_rows(gaussian_embeddings(rng, 40, 6))
    D = cosine_distance_matrix(E)
    m = kcenter_greedy(E, 15, k_init=3, rng_seed=4)
    assert all(a >= b for a, b in zip(m.radius_trace, m.radius_trace[1:]))
    assert coverage_radius(D, m.selected) == m.radius_trace[-1]
    # prefixes too: the trace entry after pick i is the radius of the
    # first i+1 picks
    for i in (0, 4, 9):
        assert coverage_radius(D, m.selected[: i + 1]) == m.radius_trace[i]


def test_two_approximation_holds_in_chord_metric():
    # Farthest-point sampling guarantees radius <= 2 * optimum in a true
    # metric. Cosine distance violates the triangle inequality, but its
    # square root (the chord length, up to a constant) is a metric, so
    # the guarantee holds as sqrt(r) <= 2 * sqrt(r_opt), i.e. r <= 4 r_opt.
    for seed in range(20):
        g = np.random.default_rng(seed)
        n = 5 + seed % 8
        d = 2 + seed % 5
        E = normalize_rows(gaussian_embeddings(g, n, d))
        D = cosine_distance_matrix(E)
        for budget in range(1, min(4, n) + 1):
            m = kcenter_greedy(E, budget, k_init=1, rng_seed=seed)
            r = m.radius_trace[-1]
            r_opt = optimal_radius(D.entries, budget)
            if r_opt > 1e-12:
                assert math.sqrt(r) <= 2.0 * math.sqrt(r_opt) + 1e-12


def test_random_select_is_seeded_sample_order():
    ids = [f"x{i}" for i in range(12)]
    m = random_select(ids, 5, rng_seed=7)
    expected = [ids[i] for i in SplitMix64(7).sample(12, 5)]
    assert m.selected == expected
    assert m.method == "random"
    assert m.k_init == 5
    assert m.radius_trace == []


def test_random_select_with_embeddings_traces_radius():
    rng = np.random.default_rng(14)
    E = gaussian_embeddings(rng, 20, 4)
    D = cosine_distance_matrix(normalize_rows(E))
    m = random_select(E.ids, 6, rng_seed=2, embeddings=E)
    assert m.selected == random_select(E.ids, 6, rng_seed=2).selected
    assert len(m.radius_trace) == 6
    # the trace entry after pick i is the radius of the first i+1 picks
    for i in range(6):
        assert m.radius_trace[i] == coverage_radius(D, m.selected[: i + 1])


def test_random_select_rejects_mismatched_ids():
    rng = np.random.default_rng(15)
    E = gaussian_embeddings(rng, 4, 3)
    with pytest.raises(SelectionError, match="do not match"):
        random_select(["w", "x", "y", "z"], 2, embeddings=E)


def test_random_select_rejects_oversized_budget():
    with pytest.raises(SelectionError, match="exceeds item count"):
        random_select(["a"], 2)


def test_negative_budget_is_a_selection_error():
    # kcenter_greedy meets its k_init check first, so its message is that
    # check's.
    with pytest.raises(SelectionError) as info:
        random_select(["a", "b"], -1)
    assert str(info.value) == "budget must be non-negative, got -1"
    E = gaussian_embeddings(np.random.default_rng(17), 2, 3)
    with pytest.raises(SelectionError) as info:
        kcenter_greedy(E, -1, k_init=1)
    assert str(info.value) == "k_init 1 outside [1, budget=-1]"


def test_coverage_radius_by_ids():
    rng = np.random.default_rng(16)
    E = normalize_rows(gaussian_embeddings(rng, 10, 3))
    D = cosine_distance_matrix(E)
    radius = coverage_radius(D, ["i0", "i4"])
    assert radius == float(np.delete(D.entries[:, [0, 4]], [0, 4], axis=0).min(axis=1).max())
    # Any sequence of ids will do; row indices name ids through D.ids.
    assert coverage_radius(D, ("i0", "i4")) == radius
    assert coverage_radius(D, np.array(["i0", "i4"])) == radius
    assert coverage_radius(D, [D.ids[i] for i in (0, 4)]) == radius
    assert coverage_radius(D, list(E.ids)) == 0.0
    with pytest.raises(SelectionError, match="non-empty"):
        coverage_radius(D, [])
    with pytest.raises(SelectionError, match="unknown selected id 'nope'"):
        coverage_radius(D, ["nope"])
    # A row index is not an id.
    with pytest.raises(SelectionError, match="unknown selected id 0"):
        coverage_radius(D, [0, 4])


def test_embeddings_round_trip(tmp_path):
    rng = np.random.default_rng(20)
    E = gaussian_embeddings(rng, 9, 5)
    stem = tmp_path / "emb"
    write_embeddings(E, stem)
    back = read_embeddings(stem)
    assert back.ids == E.ids
    # storage is float32, so the round trip is exact at float32 precision
    np.testing.assert_array_equal(
        back.values, E.values.astype("<f4").astype(np.float64)
    )
    assert not back.normalized


def test_embeddings_stem_with_dot(tmp_path):
    rng = np.random.default_rng(21)
    E = gaussian_embeddings(rng, 3, 2)
    stem = tmp_path / "emb.v1"
    write_embeddings(E, stem)
    assert (tmp_path / "emb.v1.meta").is_file()
    assert read_embeddings(stem).ids == E.ids


def test_read_embeddings_missing_file(tmp_path):
    rng = np.random.default_rng(22)
    write_embeddings(gaussian_embeddings(rng, 3, 2), tmp_path / "emb")
    (tmp_path / "emb.f32").unlink()
    with pytest.raises(FileNotFoundError):
        read_embeddings(tmp_path / "emb")


def test_read_embeddings_rejects_bad_payload(tmp_path):
    rng = np.random.default_rng(23)
    stem = tmp_path / "emb"
    write_embeddings(gaussian_embeddings(rng, 3, 2), stem)
    (tmp_path / "emb.f32").write_bytes(b"\x00" * 7)
    with pytest.raises(SelectionError, match="payload"):
        read_embeddings(stem)


def test_read_embeddings_records_digest_of_each_file(tmp_path):
    stem = tmp_path / "emb"
    write_embeddings(gaussian_embeddings(np.random.default_rng(27), 5, 3), stem)
    digests = []
    read_embeddings(stem, digests=digests)
    files = [tmp_path / f"emb.{ext}" for ext in ("meta", "f32", "ids")]
    assert [d.path for d in digests] == files
    assert [d.sha256 for d in digests] == [
        hashlib.sha256(f.read_bytes()).hexdigest() for f in files
    ]


def multi_chunk_embeddings(stem):
    # 2.5 read chunks of payload, in rows of 8.
    n = 5 * coreset._READ_CHUNK // 16
    E = gaussian_embeddings(np.random.default_rng(29), n, 8)
    write_embeddings(E, stem)
    return E


def test_read_embeddings_streams_a_payload_of_several_chunks(tmp_path):
    stem = tmp_path / "emb"
    E = multi_chunk_embeddings(stem)
    digests = []
    back = read_embeddings(stem, digests=digests)
    assert np.array_equal(back.values, E.values.astype("<f4").astype(np.float64))
    payload = (tmp_path / "emb.f32").read_bytes()
    assert digests[1].path == tmp_path / "emb.f32"
    assert digests[1].sha256 == hashlib.sha256(payload).hexdigest()


def test_read_embeddings_refuses_a_payload_that_shrinks_mid_read(tmp_path, monkeypatch):
    # The file passes the size check, then loses its tail: the second chunk
    # comes up short by a part of a float, and no payload digest is kept.
    stem = tmp_path / "emb"
    multi_chunk_embeddings(stem)
    payload = tmp_path / "emb.f32"
    expected = payload.stat().st_size
    cut = 4 * coreset._READ_CHUNK + 6
    shrink_payload(monkeypatch, payload, cut)
    digests = []
    with pytest.raises(SelectionError) as exc:
        read_embeddings(stem, digests=digests)
    assert str(exc.value) == f"{payload}: payload holds {cut} bytes, expected {expected}"
    assert [d.path for d in digests] == [tmp_path / "emb.meta"]


@pytest.mark.parametrize("count, dim", [(0, 4), (3, 0)], ids=["count-0", "dim-0"])
def test_read_embeddings_of_an_empty_matrix_keeps_its_message(tmp_path, count, dim):
    stem = tmp_path / "emb"
    (tmp_path / "emb.meta").write_text(f"count={count}\ndim={dim}\ndtype=f32le\n")
    (tmp_path / "emb.f32").write_bytes(b"")
    (tmp_path / "emb.ids").write_text("".join(f"i{j}\n" for j in range(count)))
    digests = []
    with pytest.raises(SelectionError) as exc:
        read_embeddings(stem, digests=digests)
    assert str(exc.value) == f"embedding matrix must be (N >= 1, Dim >= 1), got ({count}, {dim})"
    assert digests[1].sha256 == hashlib.sha256(b"").hexdigest()


def test_read_embeddings_rejects_ids_that_are_not_utf8(tmp_path):
    stem = tmp_path / "emb"
    write_embeddings(gaussian_embeddings(np.random.default_rng(28), 3, 2), stem)
    (tmp_path / "emb.ids").write_bytes(b"p0\np\xff1\np2\n")
    with pytest.raises(SelectionError, match=r"emb\.ids: malformed ids: not UTF-8"):
        read_embeddings(stem)


def test_read_embeddings_rejects_bad_metadata(tmp_path):
    rng = np.random.default_rng(24)
    stem = tmp_path / "emb"
    write_embeddings(gaussian_embeddings(rng, 3, 2), stem)
    (tmp_path / "emb.meta").write_text("count=3\ndim=2\ndtype=f64be\n")
    with pytest.raises(SelectionError, match="dtype"):
        read_embeddings(stem)
    (tmp_path / "emb.meta").write_text("count=x\ndim=2\ndtype=f32le\n")
    with pytest.raises(SelectionError, match="metadata"):
        read_embeddings(stem)


@pytest.mark.parametrize(
    "meta, match",
    [
        ("count=-1\ndim=2\ndtype=f32le\n", "count '-1'"),
        ("count=3\ndim=-4\ndtype=f32le\n", "dim '-4'"),
        ("count=2\ndim=2\ndtype=f32le\ncount=3\n", "duplicate key 'count'"),
        ("count=3\ndim=2\nf32le\ndtype=f32le\n", "line 'f32le'"),
        ("count=3\ndim=2\n", "keys"),
        ("count=3\ndim=2\ndtype=f32le\nshape=3\n", "keys"),
        ("count=3\ndim=2\ndtype=f32l\u00e9\n", "not ASCII"),
        (f"count={'1' * 21}\ndim=2\ndtype=f32le\n", f"count '{'1' * 21}'"),
        ("count=3\ndim=\u00b2\ndtype=f32le\n", "not ASCII"),
    ],
    ids=["negative-count", "negative-dim", "repeated-key", "no-equals", "missing-key",
         "unknown-key", "non-ascii", "21-digit-count", "superscript-dim"],
)
def test_read_embeddings_rejects_malformed_metadata(tmp_path, meta, match):
    stem = tmp_path / "emb"
    write_embeddings(gaussian_embeddings(np.random.default_rng(26), 3, 2), stem)
    (tmp_path / "emb.meta").write_text(meta, encoding="utf-8")
    with pytest.raises(SelectionError, match=match):
        read_embeddings(stem)


def test_manifest_text_holds_every_field(tmp_path):
    rng = np.random.default_rng(25)
    E = gaussian_embeddings(rng, 30, 4)
    m = kcenter_greedy(E, 12, k_init=3, rng_seed=77)
    path = tmp_path / "sel.txt"
    write_selection_manifest(m, path)
    trace = ",".join(repr(v) for v in m.radius_trace)
    assert path.read_text(encoding="utf-8") == (
        "format_version=1\nmethod=coreset\nrng_seed=77\nk_init=3\nbudget=12\n"
        f"radius_trace={trace}\nselected:\n" + "".join(f"{i}\n" for i in m.selected)
    )


@pytest.mark.parametrize(
    "trace, text",
    [
        ([float("inf"), 2.0, 1.5e-07, 1e-05, 5e-324, 0.0], "inf,2.0,1.5e-07,1e-05,5e-324,0.0"),
        (
            [0.25, float("-inf"), 1.7976931348623157e308, -0.0, 1e16, 0.1],
            "0.25,-inf,1.7976931348623157e+308,-0.0,1e+16,0.1",
        ),
    ],
    ids=["trace0", "trace1"],
)
def test_manifest_trace_round_trips_every_float(tmp_path, trace, text):
    # A random selection's trace is unconstrained; it is written as repr
    # text, which the field grammar reads back to the same float.
    m = SelectionManifest("random", 0, 6, 6, list("abcdef"), radius_trace=trace)
    write_selection_manifest(m, tmp_path / "sel.txt")
    lines = (tmp_path / "sel.txt").read_text(encoding="utf-8").splitlines()
    assert lines[5] == f"radius_trace={text}"
    back = [parse_float(v, SelectionError, "radius_trace") for v in text.split(",")]
    assert [repr(v) for v in back] == [repr(v) for v in trace]


def test_manifest_rewrite_is_byte_identical(tmp_path):
    rng = np.random.default_rng(26)
    E = gaussian_embeddings(rng, 10, 3)
    m = kcenter_greedy(E, 5, k_init=1, rng_seed=0)
    write_selection_manifest(m, tmp_path / "a.txt")
    write_selection_manifest(m, tmp_path / "b.txt")
    assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()


def test_manifest_validation():
    with pytest.raises(SelectionError, match="unknown selection method"):
        SelectionManifest("best", 0, 1, 1, ["a"]).validate()
    with pytest.raises(SelectionError, match="for budget"):
        SelectionManifest("coreset", 0, 1, 2, ["a"]).validate()
    with pytest.raises(SelectionError, match="not unique"):
        SelectionManifest("coreset", 0, 1, 2, ["a", "a"]).validate()
    with pytest.raises(SelectionError, match="not in source"):
        SelectionManifest("coreset", 0, 1, 1, ["a"]).validate(source_ids=["b"])
    with pytest.raises(SelectionError, match="non-increasing"):
        SelectionManifest(
            "coreset", 0, 1, 2, ["a", "b"], radius_trace=[0.1, 0.2]
        ).validate()


def test_manifest_keeps_negative_seed_and_utf8_ids(tmp_path):
    path = tmp_path / "sel.txt"
    m = SelectionManifest("random", -(2**63), 2, 2, ["\u00e9t\u00e9", "b"])
    write_selection_manifest(m, path)
    assert path.read_bytes() == (
        "format_version=1\nmethod=random\nrng_seed=-9223372036854775808\nk_init=2\n"
        "budget=2\nradius_trace=\nselected:\n\u00e9t\u00e9\nb\n"
    ).encode("utf-8")


# An empty id and every line boundary that str.splitlines splits on, which
# the readers split on when they read the ids back.
UNREADABLE_IDS = [
    "", "x\ny", "x\ry", "x\r\ny", "x\x0by", "x\x0cy", "x\x1cy", "x\x1dy", "x\x1ey",
    "x\x85y", "x\u2028y", "x\u2029y", "trailing\n",
]


@pytest.mark.parametrize("bad", UNREADABLE_IDS)
def test_write_embeddings_refuses_an_id_that_would_not_read_back(tmp_path, bad):
    E = EmbeddingMatrix(ids=[bad, "c"], values=np.ones((2, 3)))
    with pytest.raises(SelectionError, match="embedding id"):
        write_embeddings(E, tmp_path / "emb")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("bad", UNREADABLE_IDS)
def test_write_selection_manifest_refuses_an_id_that_would_not_read_back(tmp_path, bad):
    m = SelectionManifest("random", 0, 2, 2, [bad, "c"])
    with pytest.raises(SelectionError, match="selected id"):
        write_selection_manifest(m, tmp_path / "sel.txt")
    assert list(tmp_path.iterdir()) == []


# Lone surrogates: a str can hold them, but UTF-8 cannot encode them.
UNENCODABLE_IDS = ["a\udc80", "\ud800", "x\udfffy"]


@pytest.mark.parametrize("bad", UNENCODABLE_IDS)
def test_write_embeddings_refuses_an_id_utf8_cannot_encode(tmp_path, bad):
    E = EmbeddingMatrix(ids=[bad, "b"], values=np.ones((2, 2)))
    with pytest.raises(SelectionError, match="embedding id .* cannot be encoded as UTF-8"):
        write_embeddings(E, tmp_path / "e")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("bad", UNENCODABLE_IDS)
def test_write_selection_manifest_refuses_an_id_utf8_cannot_encode(tmp_path, bad):
    m = SelectionManifest("random", 0, 2, 2, ["b", bad])
    with pytest.raises(SelectionError, match="selected id .* cannot be encoded as UTF-8"):
        write_selection_manifest(m, tmp_path / "sel.txt")
    assert list(tmp_path.iterdir()) == []


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(2, 24),
    dim=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_selection_invariants_property(n, dim, seed, data):
    budget = data.draw(st.integers(1, n))
    k_init = data.draw(st.integers(1, budget))
    rng = np.random.default_rng(seed % 2**31)
    E = gaussian_embeddings(rng, n, dim)
    m = kcenter_greedy(E, budget, k_init=k_init, rng_seed=seed)
    assert len(m.selected) == budget
    assert len(set(m.selected)) == budget
    assert len(m.radius_trace) == budget
    assert all(a >= b for a, b in zip(m.radius_trace, m.radius_trace[1:]))
    assert all(0.0 <= r <= 2.0 for r in m.radius_trace)


# ---------------------------------------------------------------------------
# The pruned farthest-first loop against the full-row reference
# ---------------------------------------------------------------------------


def test_farthest_first_tie_breaks_to_lowest_index():
    # Duplicate rows tie at distance 0, so every free pick is the lowest
    # unselected index.
    values = np.tile([1.0, 0.0], (4, 1))
    order, trace = coreset._farthest_first(values, [2], 4)
    assert order == [2, 0, 1, 3]
    assert trace == [0.0, 0.0, 0.0, 0.0]
    # Equal distances of 1.0 (orthogonal rows) also go to the lowest index.
    square = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    assert coreset._farthest_first(square, [0], 2) == ([0, 1], [1.0, 1.0])


def test_farthest_first_trace_is_zero_once_all_selected():
    values = normalize_rows(gaussian_embeddings(np.random.default_rng(27), 3, 2)).values
    for forced in ([0], [1, 2], [2, 0, 1]):
        order, trace = coreset._farthest_first(values, forced, 3)
        assert sorted(order) == [0, 1, 2]
        assert trace[-1] == 0.0
        assert trace[:-1] and all(r > 0.0 for r in trace[:-1])


def _rows_of_kind(kind: str, n: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    if kind == "isotropic":
        values = rng.normal(size=(n, dim))
    elif kind == "clustered":
        centers = rng.normal(size=(max(1, n // 8), dim))
        values = centers[rng.integers(0, len(centers), n)] + 0.05 * rng.normal(size=(n, dim))
    elif kind == "duplicates":
        values = rng.normal(size=(max(1, n // 4), dim))[rng.integers(0, max(1, n // 4), n)]
    elif kind == "antipodal":
        half = rng.normal(size=((n + 1) // 2, dim))
        values = np.concatenate([half, -half])[:n]
    else:  # a regular polygon in the first two coordinates: exact ties
        angle = 2.0 * np.pi * np.arange(n) / n
        values = np.zeros((n, dim))
        values[:, 0] = np.cos(angle)
        if dim > 1:
            values[:, 1] = np.sin(angle)
    values[np.linalg.norm(values, axis=1) < 1e-9, 0] = 1.0
    return normalize_rows(EmbeddingMatrix([f"i{j}" for j in range(n)], values)).values


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(["isotropic", "clustered", "duplicates", "antipodal", "polygon"]),
    n=st.integers(1, 48),
    dim=st.one_of(st.integers(1, 16), st.integers(127, 130)),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_pruned_loop_is_bit_identical_to_full_rows(kind, n, dim, seed, data):
    rng = np.random.default_rng(seed)
    values = _rows_of_kind(kind, n, dim, rng)
    budget = data.draw(st.integers(0, n))
    # Every length from one forced pick (k-center greedy) to all of them
    # (random selection); a free first pick has no defined choice.
    forced_count = data.draw(st.integers(min(1, budget), budget))
    forced = [int(i) for i in rng.permutation(n)[:forced_count]]
    order, trace = coreset._farthest_first(values, forced, budget)
    want_order, want_trace = full_row_farthest_first(values, forced, budget)
    assert order == want_order
    assert [r.hex() for r in trace] == [r.hex() for r in want_trace]


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 200),
    dim=st.one_of(st.integers(1, 16), st.integers(127, 130)),
    seed=st.integers(0, 2**32 - 1),
)
def test_distance_row_is_stable_under_row_subsets(n, dim, seed):
    rng = np.random.default_rng(seed)
    values = _rows_of_kind("isotropic", n, dim, rng)
    v = values[int(rng.integers(n))]
    full = coreset._distance_row(values, v)
    for _ in range(5):
        idx = np.flatnonzero(rng.random(n) < rng.random())
        rng.shuffle(idx)
        sub = coreset._distance_row(values[idx], v)
        assert sub.view(np.uint64).tolist() == full[idx].view(np.uint64).tolist()


def test_pruned_loop_in_gather_blocks_is_bit_identical_to_full_rows(monkeypatch):
    # Blocks of 7 rows, so most pruned picks gather several blocks.
    monkeypatch.setattr(coreset, "_GATHER_ROWS", 7)
    real = coreset._distance_row
    sizes = []

    def counted(rows, v):
        sizes.append(len(rows))
        return real(rows, v)

    monkeypatch.setattr(coreset, "_distance_row", counted)
    values = _rows_of_kind("clustered", 400, 16, np.random.default_rng(30))
    for forced in ([5], [int(i) for i in np.random.default_rng(31).permutation(400)[:120]]):
        sizes.clear()
        got = coreset._farthest_first(values, forced, 120)
        want = full_row_farthest_first(values, forced, 120)
        assert got[0] == want[0]
        assert [r.hex() for r in got[1]] == [r.hex() for r in want[1]]
        # One call per pick against the picks, and more than one item-row
        # call per pick: some picks gathered several blocks.
        assert len(sizes) - 120 > 120, len(sizes)


def test_pruning_skips_most_rows_on_clustered_data(monkeypatch):
    rng = np.random.default_rng(28)
    centers = rng.normal(size=(32, 16))
    values = centers[rng.integers(0, 32, 2000)] + 0.2 * rng.normal(size=(2000, 16))
    values = normalize_rows(EmbeddingMatrix([f"i{j}" for j in range(2000)], values)).values
    real = coreset._distance_row
    sizes = []

    def counted(rows, v):
        sizes.append(len(rows))
        return real(rows, v)

    monkeypatch.setattr(coreset, "_distance_row", counted)
    budget = 200
    order, _ = coreset._farthest_first(values, [0], budget)
    assert len(order) == budget
    # Each pick makes one call against the picks so far, then one item row.
    assert sizes[0::2] == list(range(1, budget + 1))
    assert sum(sizes[1::2]) < 0.25 * len(values) * budget
