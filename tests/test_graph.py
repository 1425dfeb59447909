"""Graph container, dataset I/O, normalization, SBM generation, and edits."""

import contextlib
import errno
import hashlib
import json
import math
import os
import platform
import re
import struct
import subprocess
import sys
import tempfile
import textwrap
import threading
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gpcn.graph
from gpcn.cli import main
from gpcn.graph import (DatasetError, EdgeEdit, SyntheticSpec, apply_edits,
                        generate_synthetic, largest_connected_component,
                        load_dataset, make_graph, normalize_adjacency,
                        propagate, save_dataset)

from conftest import (adjacency, csr_equal, dense_adjacency,
                      graphs_and_adj_equal, graphs_equal, has_edge,
                      inverse_edit, random_graph,
                      reference_apply_edits, reference_features_csv,
                      reference_generate_synthetic,
                      reference_largest_connected_component,
                      reference_normalize_adjacency)


def dense_normalized(g):
    """Brute-force D^{-1/2}(A+I)D^{-1/2} oracle on a dense adjacency."""
    a = adjacency(g).toarray() + np.eye(g.num_nodes)
    d = a.sum(axis=1)
    return a / np.sqrt(np.outer(d, d))


def write_dataset(tmp_path, num_nodes, edges, features, labels, splits,
                  num_features=None, num_classes=None):
    import json
    if num_features is None:
        num_features = len(features[0])
    if num_classes is None:
        num_classes = max(labels) + 1
    (tmp_path / "meta.json").write_text(json.dumps(
        {"name": "t", "num_nodes": num_nodes, "num_features": num_features,
         "num_classes": num_classes}))
    (tmp_path / "edges.csv").write_text(
        "".join(f"{u},{v}\n" for u, v in edges))
    (tmp_path / "features.csv").write_text(
        "".join(",".join(str(x) for x in row) + "\n" for row in features))
    (tmp_path / "labels.csv").write_text("".join(f"{y}\n" for y in labels))
    (tmp_path / "splits.csv").write_text("".join(f"{s}\n" for s in splits))


class TestMakeGraph:
    def test_smallest_nonempty_graph(self):
        g = make_graph(2, [[1.0], [0.0]], [0, 1], ["train", "test"], [[0, 1]],
                       num_classes=2)
        assert np.array_equal(g.edges, [[0, 1]])

    def test_symmetrization_dedupes_reversed_pair(self):
        g = make_graph(2, [[0.0], [0.0]], [0, 0], ["none", "none"],
                       [[0, 1], [1, 0]], num_classes=1)
        assert g.num_edges == 1

    def test_self_loops_dropped_with_warning(self):
        with pytest.warns(UserWarning, match="self-loop"):
            g = make_graph(2, [[0.0], [0.0]], [0, 0], ["none", "none"],
                           [[0, 0], [0, 1]], num_classes=1)
        assert g.num_edges == 1

    def test_label_out_of_range(self):
        with pytest.raises(DatasetError):
            make_graph(1, [[0.0]], [3], ["none"], [], num_classes=2)

    def test_negative_endpoint(self):
        with pytest.raises(DatasetError, match="endpoint out of range"):
            make_graph(3, np.zeros((3, 1)), [0] * 3, ["none"] * 3,
                       [[-1, 2]], num_classes=1)

    def test_unknown_split_tag(self):
        with pytest.raises(DatasetError):
            make_graph(1, [[0.0]], [0], ["wat"], [], num_classes=1)

    def test_refuses_zero_feature_columns(self):
        with pytest.raises(DatasetError, match=r"at least one column, got "
                                               r"shape \(3, 0\)"):
            make_graph(3, np.zeros((3, 0)), [0] * 3, ["none"] * 3, [],
                       num_classes=1)

    def test_csr_is_symmetric(self, rng):
        adj = normalize_adjacency(random_graph(rng, 9))
        assert (adj != adj.T).nnz == 0


class TestDatasetIO:
    def test_two_node_file(self, tmp_path):
        write_dataset(tmp_path, 2, [(0, 1)], [[1.0], [0.0]], [0, 1],
                      ["train", "test"])
        g = load_dataset(tmp_path)
        assert np.array_equal(g.edges, [[0, 1]])

    def test_both_directions_collapse(self, tmp_path):
        write_dataset(tmp_path, 2, [(0, 1), (1, 0)], [[1.0], [0.0]], [0, 1],
                      ["train", "test"])
        assert load_dataset(tmp_path).num_edges == 1

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError, match="missing"):
            load_dataset(tmp_path)

    def test_row_count_mismatch_names_file(self, tmp_path):
        write_dataset(tmp_path, 3, [(0, 1)], [[1.0], [0.0]], [0, 1],
                      ["train", "test"])
        with pytest.raises(DatasetError, match="features.csv"):
            load_dataset(tmp_path)

    def test_malformed_line_reports_line_number(self, tmp_path):
        write_dataset(tmp_path, 2, [(0, 1)], [[1.0], [0.0]], [0, 1],
                      ["train", "test"])
        (tmp_path / "labels.csv").write_text("0\nnope\n")
        with pytest.raises(DatasetError, match="labels.csv:2"):
            load_dataset(tmp_path)

    def test_edges_error_names_file_line_after_blank_lines(self, tmp_path):
        write_dataset(tmp_path, 3, [], [[0.0]] * 3, [0] * 3, ["none"] * 3)
        (tmp_path / "edges.csv").write_text("\n\n0,1\n0,1,2\n")
        with pytest.raises(DatasetError,
                           match="edges.csv:4: .*expected two endpoints"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_save_refuses_non_finite_feature(self, tmp_path, value):
        features = np.zeros((3, 4))
        features[2, 3] = features[1, 2] = value
        # make_graph refuses non-finite features, so build the Graph itself
        g = replace(make_graph(3, np.zeros((3, 4)), [0] * 3, ["none"] * 3,
                               [], num_classes=1), features=features)
        with pytest.raises(DatasetError, match=f"row 1, column 2 is {value}"):
            save_dataset(g, tmp_path / "d")
        assert not (tmp_path / "d").exists()

    def test_save_refuses_zero_feature_columns(self, tmp_path):
        """features.csv could not hold an empty row, and load_dataset
        refuses num_features 0, so nothing is written."""
        # make_graph refuses zero columns, so build the Graph itself
        g = replace(make_graph(3, np.zeros((3, 1)), [0] * 3, ["none"] * 3,
                               [[0, 1]], num_classes=1),
                    features=np.zeros((3, 0)))
        with pytest.raises(DatasetError, match="at least one feature column"):
            save_dataset(g, tmp_path / "d")
        assert not (tmp_path / "d").exists()

    def test_save_load_fixed_point(self, tmp_path, rng):
        g = random_graph(rng, 12, num_features=4, num_classes=3)
        save_dataset(g, tmp_path / "a")
        g2 = load_dataset(tmp_path / "a")
        assert graphs_equal(g, g2)
        save_dataset(g2, tmp_path / "b")
        g3 = load_dataset(tmp_path / "b")
        assert graphs_equal(g2, g3)


# Values at the edges of finiteness: NaNs of either sign, the infinities,
# zeros of either sign, the subnormal and normal extremes, and the largest
# finite values, which min and max must not take for infinities.
FINITENESS_EDGES = [math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0,
                    5e-324, -5e-324, 2.2250738585072014e-308,
                    1.7976931348623157e308, -1.7976931348623157e308]


@st.composite
def any_feature_matrices(draw):
    n, f = draw(st.integers(0, 4)), draw(st.integers(1, 4))
    values = st.one_of(st.sampled_from(FINITENESS_EDGES), st.floats())
    return np.array(draw(st.lists(values, min_size=n * f, max_size=n * f)),
                    dtype=np.float64).reshape(n, f)


class TestFinitenessMatchesIsfinite:
    """make_graph and save_dataset check the features' min and max, with no
    mask over every value; they refuse exactly the arrays that
    ``np.isfinite(x).all()`` refuses, and save_dataset names the first
    non-finite value in row-major order."""

    @settings(deadline=None, max_examples=200)
    @given(features=any_feature_matrices())
    @example(features=np.zeros((0, 3)))
    @example(features=np.array([[0.0, 1.0], [2.0, math.nan]]))
    @example(features=np.array([[math.inf, -math.inf]]))
    @example(features=np.array([[-0.0, 5e-324, -1.7976931348623157e308]]))
    def test_refuses_exactly_non_finite(self, features):
        n = features.shape[0]
        finite = bool(np.isfinite(features).all())
        if finite:
            g = make_graph(n, features, [0] * n, ["none"] * n, [],
                           num_classes=1)
        else:
            with pytest.raises(DatasetError, match="features must be finite"):
                make_graph(n, features, [0] * n, ["none"] * n, [],
                           num_classes=1)
            # make_graph refuses the features, so build the Graph itself
            g = replace(make_graph(n, np.zeros_like(features), [0] * n,
                                   ["none"] * n, [], num_classes=1),
                        features=features)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "d"
            if finite:
                save_dataset(g, path)
                assert (path / "features.csv").exists()
            else:
                r, c = np.argwhere(~np.isfinite(features))[0]
                with pytest.raises(DatasetError,
                                   match=f"row {r}, column {c} is "):
                    save_dataset(g, path)
                assert not path.exists()


@st.composite
def arrays_with_planted_non_finite(draw):
    """A float64 array of 0 to 3 dimensions of 0 to 5 entries each, of
    finite values (the edge ones among them), with NaN of either sign,
    +inf or -inf planted at any positions; maybe transposed, so that
    min and max read it strided."""
    shape = tuple(draw(st.lists(st.integers(0, 5), max_size=3)))
    size = math.prod(shape)
    finite = st.one_of(
        st.sampled_from([v for v in FINITENESS_EDGES if math.isfinite(v)]),
        st.floats(allow_nan=False, allow_infinity=False))
    flat = draw(st.lists(finite, min_size=size, max_size=size))
    planted = st.sampled_from([math.nan, -math.nan, math.inf, -math.inf])
    for value in draw(st.lists(planted, max_size=3 if size else 0)):
        flat[draw(st.integers(0, size - 1))] = value
    a = np.array(flat, dtype=np.float64).reshape(shape)
    return a.T if draw(st.booleans()) else a


class TestAllFinite:
    """``_all_finite`` reads only the min and the max; it agrees with
    ``np.isfinite(a).all()`` on every array."""

    @settings(deadline=None, max_examples=500)
    @given(a=arrays_with_planted_non_finite())
    @example(a=np.zeros(0))
    @example(a=np.zeros((3, 0)))
    @example(a=np.array(math.nan))
    @example(a=np.array([1.0, 2.0, -math.nan]))
    @example(a=np.array([math.inf, 0.0]))
    @example(a=np.array([[-1.7976931348623157e308, -math.inf]]))
    @example(a=np.array([[-0.0, 5e-324], [-5e-324, 1.7976931348623157e308]]))
    def test_matches_isfinite(self, a):
        assert gpcn.graph._all_finite(a) is bool(np.isfinite(a).all())


# The number grammar of features.csv's fast path.
GRAMMAR = r"-?([0-9]+(\.[0-9]*)?|\.[0-9]+)([eE][-+]?[0-9]+)?"
# Tokens in the grammar on which scipy's reader and float() part ways
# unless the sign of zero is restored, and edge values of the float range.
EDGE_TOKENS = ["-0.0", "-0", "-0e5", "-.0", "0.", "-1e-400", "1e-400",
               "5e-324", "-5e-324", "4.9e-324", "2.2250738585072011e-308",
               "2.4703282292062328e-324", "2.4703282292062327e-324",
               "1.7976931348623157e308", "1.7976931348623159e308", "1e400",
               "-1e400", "1e18446744073709551617", "-1e-18446744073709551617",
               "-.5", "5.e3", ".5E+3", "007"]
# Tokens outside the grammar, some of which scipy's reader would misread.
OFF_GRAMMAR_TOKENS = ["1.5.3", "1e", ".", "-.", ".e1", "-", "", "e5", "1e+",
                      "--1", "1-2", "1e5.3", "1e-5e3", "1e5e3", "1_0", "0x10",
                      "+1", " 1", "1 ", "inf", "-nan", "1E+-5"]


def bits_token(bits: int) -> str:
    """repr of the float64 with bit pattern ``bits``."""
    return repr(struct.unpack("<d", struct.pack("<Q", bits))[0])


digits = st.text("0123456789", min_size=1, max_size=20)
signs = st.sampled_from(["", "-"])
# GRAMMAR, drawn part by part: sign, mantissa, exponent
drawn_tokens = st.builds(
    "{}{}{}".format, signs,
    st.one_of(digits, st.builds("{}.{}".format, digits,
                                st.text("0123456789", max_size=20)),
              st.builds(".{}".format, digits)),
    st.one_of(st.just(""), st.builds("{}{}{}".format, st.sampled_from("eE"),
                                     st.sampled_from(["", "-", "+"]),
                                     digits)))
# 30-45 digit mantissas with exponents past +-400 and past 2**64
long_mantissas = st.builds(
    "{}{}.{}e{}".format, signs,
    st.text("0123456789", min_size=30, max_size=45),
    st.text("0123456789", max_size=20), st.integers(-2**70, 2**70))
grammar_tokens = st.one_of(drawn_tokens, st.sampled_from(EDGE_TOKENS),
                           long_mantissas,
                           st.integers(0, 2**64 - 1).map(bits_token))
any_tokens = st.one_of(grammar_tokens, st.sampled_from(OFF_GRAMMAR_TOKENS),
                       st.text(alphabet="0123456789.eE+-_x \t", max_size=6))


@st.composite
def feature_files(draw):
    """(text, num_nodes, num_features): a features.csv and the counts its
    meta.json declares. A file of grammar tokens in full rows that end in a
    newline gets up to two defects: a token drawn off the grammar too, a
    ragged row, a blank line, CRLF endings, no final newline, or a declared
    row count that is one off."""
    f = draw(st.integers(1, 4))
    table = [draw(st.lists(grammar_tokens, min_size=f, max_size=f))
             for _ in range(draw(st.integers(1, 5)))]
    n, newline, final = len(table), "\n", "\n"
    for defect in draw(st.lists(st.sampled_from(
            ["token", "ragged", "blank", "crlf", "final", "count"]),
            max_size=2)):
        row = draw(st.integers(0, len(table) - 1))
        if defect == "token" and table[row]:
            table[row][draw(st.integers(0, len(table[row]) - 1))] = draw(
                any_tokens)
        elif defect == "ragged":
            table[row] = (table[row][:-1] if draw(st.booleans())
                          else table[row] + [draw(grammar_tokens)])
        elif defect == "blank":
            table.insert(row, [])
        elif defect == "crlf":
            newline = final = "\r\n"
        elif defect == "final":
            final = ""
        else:
            n = max(n + draw(st.sampled_from([-1, 1])), 0)
    return newline.join(",".join(r) for r in table) + final, n, f


def features_or_error(path):
    """``load_dataset(path)``'s features as bits, or its DatasetError text."""
    try:
        return load_dataset(path).features.view(np.int64).tolist()
    except DatasetError as exc:
        return str(exc)


class TestFastFeatureReaderMatchesPerLineParser:
    """The fast features.csv reader against ``_parse_features``, the
    per-line parser that reads every file it declines."""

    @settings(deadline=None, max_examples=300)
    @given(case=feature_files(), block=st.sampled_from([1, 5, 64, 1 << 23]))
    def test_declines_or_returns_the_same_bits(self, case, block):
        """Read in blocks of ``block`` bytes, so lines also span blocks."""
        text, n, f = case
        with tempfile.TemporaryDirectory() as tmp:
            file = Path(tmp) / "features.csv"
            file.write_bytes(text.encode())
            with mock.patch.object(gpcn.graph, "_FAST_BLOCK_BYTES", block):
                fast = gpcn.graph._read_features_fast(file, n, f)
            if fast is not None:
                slow = gpcn.graph._parse_features(file, n, f)
                assert fast.flags.c_contiguous
                assert np.array_equal(fast.view(np.int64),
                                      slow.view(np.int64))

    @settings(deadline=None, max_examples=150)
    @given(case=feature_files())
    def test_load_dataset_same_features_or_error(self, case):
        text, n, f = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp)
            write_dataset(path, n, [], [[0.0]], [0] * n,
                          ["train"] * n, num_features=f, num_classes=1)
            (path / "features.csv").write_bytes(text.encode())
            loaded = features_or_error(path)
            # the cache off, or an entry stored by the first load (or by an
            # earlier example of the same text) would answer the second
            with mock.patch.object(gpcn.graph, "_read_features_fast",
                                   return_value=None), \
                    mock.patch.object(gpcn.graph, "_cache_dir",
                                      return_value=None):
                assert features_or_error(path) == loaded

    def test_reads_saved_dataset(self, tmp_path, rng):
        g = random_graph(rng, 12, num_features=5, num_classes=3)
        features = g.features.copy()
        features[0, :3] = [-0.0, 5e-324, -1e-300]
        save_dataset(make_graph(12, features, g.labels, g.split, g.edges,
                                num_classes=3), tmp_path)
        fast = gpcn.graph._read_features_fast(tmp_path / "features.csv",
                                              12, 5)
        assert np.array_equal(fast.view(np.int64), features.view(np.int64))

    @pytest.mark.parametrize("block", [1 << 20, 1 << 23])
    def test_working_memory_bounded_by_block(self, tmp_path, block):
        """Besides what it returns, a load holds the read buffer and, per
        block, a byte mask of it, the positions of its non-digit bytes (8
        bytes each) and the Matrix Market copy: about 3 blocks on normal
        values. A reader that copied each block four times held 6.0 blocks
        at 1 MiB and 5.2 at 8 MiB. The features themselves are in a memory
        map, which tracemalloc does not see, so the working memory is the
        peak less what is still held at the end."""
        n = 600
        features = np.random.default_rng(0).normal(size=(n, 1000))
        save_dataset(make_graph(n, features, [0] * n, ["none"] * n, [],
                                num_classes=1), tmp_path)
        # the cache off, so that each load parses the file
        with mock.patch.object(gpcn.graph, "_cache_dir", return_value=None), \
                mock.patch.object(gpcn.graph, "_FAST_BLOCK_BYTES", block):
            load_dataset(tmp_path)      # scipy.io is imported untraced
            tracemalloc.start()
            try:
                g = load_dataset(tmp_path)
                held, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert np.array_equal(g.features, features)
        assert peak - held < 4 * block

    @pytest.mark.parametrize("text, n", [
        ("1,2,3\n4\n", 2),           # ragged rows of 2 x 2 tokens in all
        ("1,2\n", 2),                 # fewer lines than meta.json declares
        ("1,2\n3,4\n5,6\n", 2),       # more lines
        ("1,2\n3,4", 2),              # no final newline
        ("1,2\n\n3,4\n", 2)])         # a blank line
    def test_declines_malformed_layout(self, tmp_path, text, n):
        file = tmp_path / "features.csv"
        file.write_text(text)
        assert gpcn.graph._read_features_fast(file, n, 2) is None

    @pytest.mark.parametrize("token", EDGE_TOKENS)
    def test_reads_edge_token(self, tmp_path, token):
        assert re.fullmatch(GRAMMAR, token)
        file = tmp_path / "features.csv"
        file.write_text(f"1.0,{token}\n")
        fast = gpcn.graph._read_features_fast(file, 1, 2)
        slow = gpcn.graph._parse_features(file, 1, 2)
        assert np.array_equal(fast.view(np.int64), slow.view(np.int64))

    @pytest.mark.parametrize("token", OFF_GRAMMAR_TOKENS)
    def test_declines_off_grammar_token(self, tmp_path, token):
        assert not re.fullmatch(GRAMMAR, token)
        file = tmp_path / "features.csv"
        file.write_text(f"1.0,{token}\n")
        assert gpcn.graph._read_features_fast(file, 1, 2) is None



# repr's layouts: a signed zero, positional, e-XX, e+XX and a subnormal
CACHE_PINNED = [-0.0, 0.1, 1e-05, 1e+16, 5e-324]


def saved_graph(path: Path, features) -> Path:
    """save_dataset of a graph with ``features`` into ``path``."""
    features = np.asarray(features, dtype=np.float64)
    n = features.shape[0]
    save_dataset(make_graph(n, features, [0] * n, ["none"] * n, [],
                            num_classes=1), path)
    return path


@contextlib.contextmanager
def no_parse():
    """Both features.csv parsers failing: only a cache hit loads."""
    never = AssertionError("features.csv was parsed")
    with mock.patch.object(gpcn.graph, "_read_features_fast",
                           side_effect=never), \
            mock.patch.object(gpcn.graph, "_parse_features",
                              side_effect=never):
        yield


def equal_bits(a, b) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.int64),
                                                 b.view(np.int64))


PIECE = 1 << 20


def tree_digest(data: bytes) -> str:
    """The name of a cache entry, from hashlib alone: the SHA-256 of the
    SHA-256 digests of the 1 MiB pieces of ``data``, in order."""
    return hashlib.sha256(b"".join(
        hashlib.sha256(data[i:i + PIECE]).digest()
        for i in range(0, len(data), PIECE))).hexdigest()


class TestFeatureCache:
    """The cache of parsed features: a hit gives the parse's bits; an edited
    file, an entry that does not fit, or a cache that cannot be used falls
    back to the parse, and save and load go on as without the cache."""

    FEATURES = [CACHE_PINNED, CACHE_PINNED[::-1]]

    @pytest.mark.parametrize("stored_by", ["save", "load"])
    def test_hit_gives_the_parsed_bits(self, tmp_path, feature_cache,
                                       stored_by):
        if stored_by == "save":
            saved_graph(tmp_path, self.FEATURES)
        else:
            write_dataset(tmp_path, 2, [], self.FEATURES, [0, 0],
                          ["none"] * 2)
            assert not feature_cache.exists()
            load_dataset(tmp_path)
        file = tmp_path / "features.csv"
        digest = tree_digest(file.read_bytes())
        assert [p.name for p in feature_cache.iterdir()] == [f"{digest}.f64"]
        with no_parse():
            hit = load_dataset(tmp_path).features
        assert equal_bits(hit, np.array(self.FEATURES))
        assert equal_bits(hit, gpcn.graph._read_features_fast(file, 2, 5))
        assert equal_bits(hit, gpcn.graph._parse_features(file, 2, 5))

    def test_entry_layout(self, tmp_path, feature_cache):
        saved_graph(tmp_path, self.FEATURES)
        (entry,) = feature_cache.iterdir()
        assert entry.read_bytes() == (struct.pack("<3q", 2, 5, 1)
                                      + np.array(self.FEATURES,
                                                 dtype="<f8").tobytes())
        assert feature_cache.stat().st_mode & 0o777 == 0o700

    def test_save_marks_an_entry_a_parse_stored(self, tmp_path,
                                                feature_cache):
        """A hand-written file with the bytes a save writes: its load stores
        an entry marked 0, and the save of the same bytes marks it 1, in
        place, without changing the features."""
        (tmp_path / "hand").mkdir()
        write_dataset(tmp_path / "hand", 2, [], self.FEATURES, [0, 0],
                      ["none"] * 2)
        load_dataset(tmp_path / "hand")
        (entry,) = feature_cache.iterdir()
        parsed = entry.read_bytes()
        assert parsed == (struct.pack("<3q", 2, 5, 0)
                          + np.array(self.FEATURES, dtype="<f8").tobytes())
        saved_graph(tmp_path / "saved", self.FEATURES)
        assert ((tmp_path / "saved" / "features.csv").read_bytes()
                == (tmp_path / "hand" / "features.csv").read_bytes())
        assert list(feature_cache.iterdir()) == [entry]
        assert entry.read_bytes() == struct.pack("<3q", 2, 5, 1) + parsed[24:]

    def test_edited_byte_is_not_served_stale(self, tmp_path, feature_cache):
        saved_graph(tmp_path, self.FEATURES)
        file = tmp_path / "features.csv"
        text = file.read_bytes()
        file.write_bytes(text.replace(b"0.1", b"0.3", 1))
        features = load_dataset(tmp_path).features
        assert features[0, 1] == 0.3 and features[1, 3] == 0.1
        assert len(list(feature_cache.iterdir())) == 2

    @pytest.mark.parametrize("key, value, message", [
        ("num_features", 6, "features.csv:1: malformed line: 5 values, "
                            "expected 6 per meta.json"),
        ("num_nodes", 3, "features.csv: 2 rows, expected 3 per meta.json")])
    def test_meta_mismatch_exits_2(self, tmp_path, capsys, key, value,
                                   message):
        saved_graph(tmp_path, self.FEATURES)
        load_dataset(tmp_path)
        meta = json.loads((tmp_path / "meta.json").read_text())
        meta[key] = value
        (tmp_path / "meta.json").write_text(json.dumps(meta))
        assert main(["dataset", "inspect", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("corrupt", [
        lambda b: b[:-8], lambda b: b[:-1], lambda b: b + b"\0" * 8,
        lambda b: struct.pack("<3q", 5, 2, 1) + b[24:],
        lambda b: struct.pack("<3q", 1, 10, 1) + b[24:],
        lambda b: struct.pack("<3q", 2, 5, 2) + b[24:],
        lambda b: struct.pack("<2q", 2, 5) + b[24:]],
        ids=["row-short", "byte-short", "long", "swapped-header",
             "other-header", "other-mark", "two-field-header"])
    def test_entry_that_does_not_fit_is_parsed_again(self, tmp_path,
                                                     feature_cache, corrupt):
        saved_graph(tmp_path, self.FEATURES)
        (entry,) = feature_cache.iterdir()
        saved = entry.read_bytes()
        # the parse stores the entry it finds no fit for, marked as a parse's
        good = struct.pack("<3q", 2, 5, 0) + saved[24:]
        entry.write_bytes(corrupt(saved))
        reads = []
        fast = gpcn.graph._read_features_fast
        with mock.patch.object(gpcn.graph, "_read_features_fast",
                               lambda *a: reads.append(a) or fast(*a)):
            features = load_dataset(tmp_path).features
        assert len(reads) == 1
        assert equal_bits(features, np.array(self.FEATURES))
        # the parse put back a whole entry, which the next load reads
        assert entry.read_bytes() == good
        with no_parse():
            load_dataset(tmp_path)

    def test_file_changed_during_load_is_not_stored(self, tmp_path,
                                                    feature_cache):
        """A features.csv rewritten between the hash and the parse: the
        parse reads the new bytes, which must not be stored under the old
        digest."""
        write_dataset(tmp_path, 2, [], self.FEATURES, [0, 0], ["none"] * 2)
        file = tmp_path / "features.csv"
        old = tree_digest(file.read_bytes())
        fast = gpcn.graph._read_features_fast

        def rewrite_then_read(*args):
            file.write_bytes(file.read_bytes().replace(b"0.1", b"0.3", 1))
            return fast(*args)

        with mock.patch.object(gpcn.graph, "_read_features_fast",
                               rewrite_then_read):
            assert load_dataset(tmp_path).features[0, 1] == 0.3
        assert not (feature_cache / f"{old}.f64").exists()

    def _save_and_load(self, tmp_path):
        saved_graph(tmp_path / "d", self.FEATURES)
        for _ in range(2):
            assert equal_bits(load_dataset(tmp_path / "d").features,
                             np.array(self.FEATURES))

    def test_cache_that_is_a_file(self, tmp_path, monkeypatch):
        """$XDG_CACHE_HOME a regular file: gpcn/ cannot be made in it."""
        (tmp_path / "xdg").write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        self._save_and_load(tmp_path)

    def test_cache_that_refuses_writes(self, tmp_path, feature_cache,
                                       monkeypatch):
        def refuse(*args):
            raise PermissionError("read-only")

        monkeypatch.setattr(os, "replace", refuse)
        self._save_and_load(tmp_path)
        assert list(feature_cache.iterdir()) == []      # no temporary left

    def test_no_home(self, tmp_path, monkeypatch):
        def no_home(cls):
            raise RuntimeError("Could not determine home directory.")

        monkeypatch.delenv("XDG_CACHE_HOME")
        monkeypatch.delenv("HOME", raising=False)
        monkeypatch.setattr(Path, "home", classmethod(no_home))
        assert gpcn.graph._cache_dir() is None
        self._save_and_load(tmp_path)

    def test_no_cache_on_big_endian_host(self, tmp_path, feature_cache,
                                         monkeypatch):
        monkeypatch.setattr(gpcn.graph.sys, "byteorder", "big")
        self._save_and_load(tmp_path)
        assert not feature_cache.exists()

    @pytest.mark.parametrize("refresh", ["load", "save"])
    def test_cap_evicts_least_recently_used(self, tmp_path, feature_cache,
                                            refresh):
        """Eight entries of mtimes 1 to 8; a hit on the oldest, or a save of
        the file it holds, makes it the newest, so the ninth entry evicts
        the one of mtime 2."""
        saved_graph(tmp_path / "a", [[1.0]])
        (first,) = feature_cache.iterdir()
        others = [feature_cache / f"{i:064x}.f64" for i in range(7)]
        for p in others:
            p.write_bytes(b"")
        for t, p in enumerate([first, *others], 1):
            os.utime(p, (t, t))
        if refresh == "load":
            with no_parse():
                load_dataset(tmp_path / "a")
        else:
            saved_graph(tmp_path / "a2", [[1.0]])
        saved_graph(tmp_path / "b", [[2.0]])
        assert len(list(feature_cache.iterdir())) == gpcn.graph._CACHE_ENTRIES
        assert first.exists() and not others[0].exists()
        assert all(p.exists() for p in others[1:])

    def test_hit_working_memory(self, tmp_path):
        """A hit holds the hash buffer and no parse working memory; the
        features are in a memory map, which tracemalloc does not see."""
        n = 600
        features = np.random.default_rng(0).normal(size=(n, 1000))
        saved_graph(tmp_path, features)
        load_dataset(tmp_path)
        tracemalloc.start()
        try:
            with no_parse():
                g = load_dataset(tmp_path)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert equal_bits(g.features, features)
        assert peak - held < 2 * gpcn.graph._HASH_BLOCK_BYTES

class TestTreeDigest:
    """Cache entries are named by a tree digest: ``_file_digest`` hashes a
    file's pieces on threads, ``_TreeDigest`` hashes a stream in any
    chunks, and both give ``tree_digest``, built from hashlib alone."""

    SIZES = [0, 1, PIECE - 1, PIECE, PIECE + 1, 3 * PIECE + 7]

    @pytest.mark.parametrize("threads", [1, 2])
    @settings(deadline=None, max_examples=30)
    @given(size=st.sampled_from(SIZES), seed=st.integers(0, 2**32 - 1),
           cuts=st.lists(st.integers(0, 3 * PIECE + 7), max_size=6))
    def test_file_digest_equals_incremental_digest(self, threads, size,
                                                    seed, cuts):
        data = np.random.default_rng(seed).bytes(size)
        bounds = sorted(c % (size + 1) for c in cuts)
        digest = gpcn.graph._TreeDigest()
        for lo, hi in zip([0, *bounds], [*bounds, size]):
            digest.update(data[lo:hi])
        with tempfile.TemporaryDirectory() as tmp:
            file = Path(tmp) / "features.csv"
            file.write_bytes(data)
            started = threading.active_count()
            with mock.patch.object(gpcn.graph, "_HASH_THREADS", threads):
                got = gpcn.graph._file_digest(file)
            assert threading.active_count() == started
        assert got == digest.hexdigest() == tree_digest(data)

    def test_digest_of_no_bytes_is_sha256_of_nothing(self, tmp_path):
        (tmp_path / "empty").write_bytes(b"")
        assert (gpcn.graph._file_digest(tmp_path / "empty")
                == gpcn.graph._TreeDigest().hexdigest()
                == hashlib.sha256(b"").hexdigest())


@contextlib.contextmanager
def write_fails(at: int, exc: OSError):
    """``open`` in gpcn.graph, the ``at``-th write to a file opened "wb"
    raising ``exc``; the paths opened so, in order."""
    opened, writes = [], []

    class Failing:
        def __init__(self, fh):
            self._fh = fh

        def write(self, data):
            writes.append(len(data))
            if len(writes) == at:
                raise exc
            return self._fh.write(data)

        def __enter__(self):
            return self

        def __exit__(self, *args):
            self._fh.close()

    def failing_open(file, mode="r", *args, **kwargs):
        fh = open(file, mode, *args, **kwargs)
        if mode != "wb":
            return fh
        opened.append(Path(file))
        return Failing(fh)

    with mock.patch.object(gpcn.graph, "open", failing_open, create=True):
        yield opened


class TestHelperThreadFailure:
    """A write that fails on a helper thread, on the third block of a save
    or of the lcc copy: the command raises the write's error, with the exit
    code it had when the write ran on the main thread, stores no cache
    entry and leaves no thread running."""

    ERRORS = [OSError(errno.ENOSPC, "No space left on device"),
              FileNotFoundError(errno.ENOENT, "gone")]

    def run(self, argv, exc, capsys):
        started = threading.active_count()
        if isinstance(exc, FileNotFoundError):
            assert main(argv) == 2
            assert capsys.readouterr().err == f"data error: {exc}\n"
        else:
            with pytest.raises(OSError) as raised:
                main(argv)
            assert raised.value is exc
        assert threading.active_count() == started

    @pytest.mark.parametrize("exc", ERRORS, ids=["ENOSPC", "ENOENT"])
    def test_save(self, tmp_path, feature_cache, capsys, exc):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "num_blocks": 2, "nodes_per_block": 4,
            "intra_block_edge_prob": 0.5, "inter_block_edge_prob": 0.1,
            "feature_dim": 3, "feature_noise_std": 1.0}))
        with write_fails(3, exc) as opened, \
                mock.patch.object(gpcn.graph, "_SAVE_BLOCK_VALUES", 3):
            self.run(["dataset", "gen", "--spec", str(spec), "--out",
                      str(tmp_path / "gen")], exc, capsys)
        assert opened == [tmp_path / "gen" / "features.csv"]
        assert not feature_cache.exists() or not any(feature_cache.iterdir())

    @pytest.mark.parametrize("exc", ERRORS, ids=["ENOSPC", "ENOENT"])
    def test_lcc_copy(self, tmp_path, feature_cache, capsys, exc):
        g = source_graph(np.reshape(LCC_PINNED, (8, 2)),
                         [(i, i + 1) for i in range(7)])
        save_dataset(g, tmp_path / "src")
        before = lcc_tree(feature_cache)
        with write_fails(3, exc) as opened, \
                mock.patch.object(gpcn.graph, "_HASH_BLOCK_BYTES", 64):
            self.run(["dataset", "lcc", str(tmp_path / "src"), "--out",
                      str(tmp_path / "out")], exc, capsys)
        (tmp,) = opened
        assert tmp.parent == tmp_path / "out" and not tmp.exists()
        assert lcc_tree(feature_cache) == before


def neighbours(x: float) -> list[float]:
    return [np.nextafter(x, -math.inf), x, np.nextafter(x, math.inf)]


# Values at the edges of the float range and of repr's positional range
# (decimal exponents -4 to 15), with both signs.
EDGE_FEATURES = [v for x in [0.0, 5e-324, 2.2250738585072014e-308,
                             1.7976931348623157e308, 1e-4, 1.1e-4, 1e-5,
                             9999999999999998.0, 1e16, 1e22, 100000.0,
                             2.0 ** 60]
                 for v in (x, -x)]
# Those, and every finite power of 2 and of 10 with its neighbours.
PINNED_FEATURES = EDGE_FEATURES + [
    v for x in ([x for k in range(-1074, 1024) for x in neighbours(2.0 ** k)]
                + [x for k in range(-323, 309)
                   for x in neighbours(float(f"1e{k}"))])
    for v in (x, -x) if math.isfinite(v)]

finite_bits = st.integers(0, 2**64 - 1).map(
    lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0]).filter(
        math.isfinite)
scaled_normals = st.builds(
    lambda seed, k: float(np.random.default_rng(seed).normal() * 10.0 ** k),
    st.integers(0, 2**32 - 1), st.integers(-8, 20))
feature_values = st.one_of(finite_bits, scaled_normals,
                           st.sampled_from(EDGE_FEATURES),
                           st.sampled_from(PINNED_FEATURES))


@st.composite
def feature_matrices(draw):
    n, f = draw(st.integers(0, 6)), draw(st.integers(1, 5))
    values = draw(st.lists(feature_values, min_size=n * f, max_size=n * f))
    return np.array(values, dtype=np.float64).reshape(n, f)


def saved_features(features: np.ndarray, path: Path, rows=None) -> Path:
    """save_dataset of a graph with ``features``, written in blocks of
    ``rows`` rows or, for None, of the default size; its features.csv."""
    n, f = features.shape
    values = gpcn.graph._SAVE_BLOCK_VALUES if rows is None else rows * f
    with mock.patch.object(gpcn.graph, "_SAVE_BLOCK_VALUES", values):
        save_dataset(make_graph(n, features, [0] * n, ["none"] * n, [],
                                num_classes=1), path)
    return path / "features.csv"


class TestFeatureWriterMatchesRepr:
    """save_dataset's features.csv against ``reference_features_csv``, the
    repr of every value, in blocks of 1 and 3 rows and of the default."""

    @pytest.mark.parametrize("rows", [1, 3, None])
    def test_pinned_values(self, tmp_path, rows):
        features = np.array(PINNED_FEATURES[:len(PINNED_FEATURES) // 7 * 7])
        features = features.reshape(-1, 7)
        file = saved_features(features, tmp_path, rows)
        assert file.read_bytes() == reference_features_csv(features)

    @pytest.mark.parametrize("shape, text", [
        ((1, 1), b"0.0\n"), ((0, 3), b"")])
    def test_small_and_empty_shapes(self, tmp_path, shape, text):
        file = saved_features(np.zeros(shape), tmp_path)
        assert file.read_bytes() == text

    @pytest.mark.parametrize("token", [b"1e-05", b"1E+5", b"100000", b"12.5",
                                       b"1.E5", b"1.5E1234", b"+1", b"-",
                                       b""])
    def test_layout_refuses_other_writer_output(self, token):
        """A token outside -d.dddE-x, as another writer might give, raises
        instead of being laid out wrong."""
        body = np.frombuffer(b"1.5\n" + token + b"\n", dtype=np.uint8)
        with pytest.raises(RuntimeError, match="mmwrite"):
            gpcn.graph._repr_layout(body, 1, 2,
                                    np.empty(2 * gpcn.graph._REPR_BYTES,
                                             dtype=np.uint8))

    @settings(deadline=None, max_examples=200)
    @given(features=feature_matrices(), rows=st.sampled_from([1, 3, None]))
    def test_bytes_equal_repr(self, features, rows):
        with tempfile.TemporaryDirectory() as tmp:
            file = saved_features(features, Path(tmp), rows)
            assert file.read_bytes() == reference_features_csv(features)

    @settings(deadline=None, max_examples=100)
    @given(features=feature_matrices(), rows=st.sampled_from([1, 3, None]))
    def test_fast_reader_reads_back_the_same_bits(self, features, rows):
        with tempfile.TemporaryDirectory() as tmp:
            file = saved_features(features, Path(tmp), rows)
            back = gpcn.graph._read_features_fast(file, *features.shape)
            assert back is not None
            assert np.array_equal(back.view(np.int64),
                                  features.view(np.int64))

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="counts the page faults of glibc's heap")
    def test_fresh_process_keeps_block_memory(self, tmp_path):
        """A save of 40 blocks in a fresh process, which has freed no large
        block: growing and trimming the heap in every block took 53k page
        faults; faulting a block's working memory in once takes about 3k."""
        code = textwrap.dedent("""
            import resource, sys
            import numpy as np
            from gpcn.graph import make_graph, save_dataset
            n = 440
            x = np.random.default_rng(0).normal(size=(n, 1433))
            g = make_graph(n, x, [0] * n, ["none"] * n, [], num_classes=1)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            save_dataset(g, sys.argv[1])
            print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
            """)
        src = str(Path(gpcn.graph.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path / "d")], env=env,
            capture_output=True, text=True, check=True)
        assert int(done.stdout) < 15_000


def lcc_tree(out: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def formatted_lcc(src: Path, out: Path) -> dict:
    """The files of ``save_dataset(largest_connected_component(
    load_dataset(src)))``, with the cache off, so that the component's
    values are formatted, never copied."""
    with mock.patch.object(gpcn.graph, "_cache_dir", return_value=None):
        save_dataset(largest_connected_component(load_dataset(src)), out,
                     name="lcc")
    return lcc_tree(out)


@contextlib.contextmanager
def counted_writes():
    """The feature arrays ``_write_features`` formats, in call order."""
    calls = []
    write = gpcn.graph._write_features

    def counting(file, features):
        calls.append(features)
        return write(file, features)

    with mock.patch.object(gpcn.graph, "_write_features", counting):
        yield calls


def source_graph(features, edges):
    features = np.asarray(features, dtype=np.float64)
    n = features.shape[0]
    return make_graph(n, features, np.arange(n) % 2, ["train"] * n, edges,
                      num_classes=2)


# repr's layouts, at the float range's edges too: a signed zero, e-XX, e+XX,
# a subnormal, the largest finite value and positional ones, with both signs
LCC_PINNED = [v for x in [0.0, 1e-05, 1e+16, 5e-324, 2.2250738585072e-309,
                          1.7976931348623157e308, 0.1, 123.0]
              for v in (x, -x)]


@st.composite
def lcc_sources(draw):
    n, f = draw(st.integers(1, 8)), draw(st.integers(1, 3))
    values = draw(st.lists(st.one_of(st.sampled_from(LCC_PINNED),
                                     finite_bits),
                           min_size=n * f, max_size=n * f))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1)), max_size=2 * n))
    edges = [e for e in edges if e[0] != e[1]]
    return source_graph(np.reshape(values, (n, f)), np.reshape(edges, (-1, 2)))


class TestLargestComponentCopy:
    """``save_largest_component`` copies the kept lines of a features.csv a
    save wrote, and formats in every other case; either way its files are
    those of ``save_dataset(largest_connected_component(load_dataset(
    src)))``."""

    @settings(deadline=None, max_examples=100)
    @given(g=lcc_sources(), block=st.sampled_from([1, 7, 64, 1 << 20]))
    @example(g=source_graph([[-0.0, 1e-05], [1e+16, 5e-324],
                             [1.7976931348623157e308, -2.5e-310]],
                            [[1, 2]]), block=3)
    def test_copy_gives_the_bytes_of_the_formatted_rows(self, g, block):
        lcc = largest_connected_component(g)
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            save_dataset(g, tmp / "src")
            with counted_writes() as writes, \
                    mock.patch.object(gpcn.graph, "_HASH_BLOCK_BYTES", block):
                got = gpcn.graph.save_largest_component(tmp / "src",
                                                        tmp / "out")
            assert writes == []
            assert graphs_equal(got, lcc)
            gpcn.graph._write_features(tmp / "rows.csv", lcc.features)
            assert ((tmp / "out" / "features.csv").read_bytes()
                    == (tmp / "rows.csv").read_bytes())
            assert lcc_tree(tmp / "out") == formatted_lcc(tmp / "src",
                                                          tmp / "ref")

    def test_written_source_is_copied_not_formatted(self, tmp_path,
                                                    feature_cache):
        g = generate_synthetic(SyntheticSpec(3, 20, 0.3, 0.02, 6, 1.0), 0)
        save_dataset(g, tmp_path / "src")
        with counted_writes() as writes:
            assert main(["dataset", "lcc", str(tmp_path / "src"), "--out",
                         str(tmp_path / "out")]) == 0
        assert writes == []
        assert (lcc_tree(tmp_path / "out")
                == formatted_lcc(tmp_path / "src", tmp_path / "ref"))
        # the copy stored the component's entry, marked as a save's
        out = (tmp_path / "out" / "features.csv").read_bytes()
        entry = feature_cache / f"{tree_digest(out)}.f64"
        assert entry.read_bytes()[:24] == struct.pack(
            "<3q", *largest_connected_component(g).features.shape, 1)

    # two components; the hand-written file spells values as repr does not,
    # and has blank lines, which a load skips
    HAND_WRITTEN = b"1.50,1E0\n\n-0.0,2.5e-3\n0.1,1e+16\n\n"

    def hand_written(self, path: Path) -> Path:
        path.mkdir()
        write_dataset(path, 3, [(0, 1)], [[0.0, 0.0]] * 3, [0, 1, 0],
                      ["train"] * 3)
        (path / "features.csv").write_bytes(self.HAND_WRITTEN)
        return path

    def test_hand_written_source_is_formatted(self, tmp_path):
        src = self.hand_written(tmp_path / "src")
        ref = formatted_lcc(src, tmp_path / "ref")
        # a cold cache, then the entry the first load's parse stored
        for out in ("cold", "warm"):
            with counted_writes() as writes:
                gpcn.graph.save_largest_component(src, tmp_path / out)
            assert len(writes) == 1
            assert lcc_tree(tmp_path / out) == ref
        assert ref["features.csv"] == b"1.5,1.0\n-0.0,0.0025\n"

    def test_no_cache_formats(self, tmp_path, monkeypatch):
        """$XDG_CACHE_HOME a regular file: no entry is stored or found."""
        (tmp_path / "xdg").write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        g = source_graph(np.reshape(LCC_PINNED, (8, 2)),
                         [(0, 1), (1, 2), (4, 5)])
        save_dataset(g, tmp_path / "src")
        with counted_writes() as writes:
            gpcn.graph.save_largest_component(tmp_path / "src",
                                              tmp_path / "out")
        assert len(writes) == 1
        assert (lcc_tree(tmp_path / "out")
                == formatted_lcc(tmp_path / "src", tmp_path / "ref"))

    def test_read_only_cache_still_copies(self, tmp_path, feature_cache,
                                          monkeypatch):
        """A cache whose entries read but that takes no write or touch:
        the save's entry proves the source, and only the store fails."""
        g = source_graph(np.reshape(LCC_PINNED, (8, 2)), [(0, 1), (1, 2)])
        save_dataset(g, tmp_path / "src")
        ref = formatted_lcc(tmp_path / "src", tmp_path / "ref")
        before = lcc_tree(feature_cache)

        def refuse(*args, **kwargs):
            raise PermissionError("read-only")

        for name in ("utime", "replace", "unlink"):
            monkeypatch.setattr(os, name, refuse)
        monkeypatch.setattr(tempfile, "mkstemp", refuse)
        with counted_writes() as writes:
            gpcn.graph.save_largest_component(tmp_path / "src",
                                              tmp_path / "out")
        assert writes == []
        assert lcc_tree(tmp_path / "out") == ref
        assert lcc_tree(feature_cache) == before

    @pytest.mark.parametrize("rewrite", [
        lambda b: b.replace(b"0.1", b"0.3"), lambda b: b + b,
        lambda b: b[:b.index(b"\n") + 1]],
        ids=["one-value", "more-lines", "one-line"])
    def test_source_rewritten_before_the_copy_is_formatted(
            self, tmp_path, feature_cache, rewrite):
        """features.csv rewritten after edges.csv is read and before the
        copy reads the file: the copy hashes bytes no save wrote, so it is
        dropped, and the rewritten file is loaded and its component
        formatted, or refused, as without the copy; no entry is stored for
        the copied bytes."""
        g = source_graph(np.reshape(LCC_PINNED, (8, 2)), [(0, 1), (1, 2)])
        save_dataset(g, tmp_path / "src")
        file = tmp_path / "src" / "features.csv"
        loaded = file.read_bytes()
        (tmp_path / "rewritten").mkdir()
        for f in (tmp_path / "src").iterdir():
            (tmp_path / "rewritten" / f.name).write_bytes(f.read_bytes())
        (tmp_path / "rewritten" / "features.csv").write_bytes(rewrite(loaded))
        try:
            ref = formatted_lcc(tmp_path / "rewritten", tmp_path / "ref")
        except DatasetError as exc:
            ref = str(exc).replace("rewritten", "src")
        copy = gpcn.graph._copy_rows
        copied = []

        def rewrite_then_copy(src, dst, *args):
            file.write_bytes(rewrite(loaded))
            copied.append(dst)
            return copy(src, dst, *args)

        with counted_writes() as writes, \
                mock.patch.object(gpcn.graph, "_copy_rows",
                                  rewrite_then_copy):
            try:
                gpcn.graph.save_largest_component(tmp_path / "src",
                                                  tmp_path / "out")
            except DatasetError as exc:
                assert str(exc) == ref
                assert not (tmp_path / "out").exists()
            else:
                assert len(writes) == 1
                assert lcc_tree(tmp_path / "out") == ref
        assert len(copied) == 1 and not copied[0].exists()
        stored = {tree_digest(loaded)}
        if isinstance(ref, dict):
            # the entry of the rewritten bytes is the load's, marked 0
            rewritten = feature_cache / f"{tree_digest(rewrite(loaded))}.f64"
            assert rewritten.read_bytes()[16:24] == struct.pack("<q", 0)
            stored |= {rewritten.name[:-4], tree_digest(ref["features.csv"])}
        assert {p.name for p in feature_cache.iterdir()} == {
            f"{d}.f64" for d in stored}

    def test_component_saved_over_its_source(self, tmp_path):
        """``--out`` the source directory gives the formatted bytes."""
        g = source_graph(np.reshape(LCC_PINNED, (8, 2)), [(0, 1), (1, 2)])
        save_dataset(g, tmp_path / "d")
        ref = formatted_lcc(tmp_path / "d", tmp_path / "ref")
        gpcn.graph.save_largest_component(tmp_path / "d", tmp_path / "d")
        assert lcc_tree(tmp_path / "d") == ref

    @pytest.mark.parametrize("fault, edit", [
        ("malformed-edge", lambda d: (d / "edges.csv").write_text("0,1,2\n")),
        ("edge-out-of-range",
         lambda d: (d / "edges.csv").write_text("0,1\n1,99\n")),
        ("malformed-feature", lambda d: (d / "features.csv").write_bytes(
            (d / "features.csv").read_bytes().replace(b"0.1", b"0.1x", 1))),
        ("meta-shape", lambda d: (d / "meta.json").write_text(
            (d / "meta.json").read_text().replace('"num_features": 2',
                                                  '"num_features": 3'))),
        ("label-out-of-range",
         lambda d: (d / "labels.csv").write_text("0\n" * 7 + "5\n"))])
    @pytest.mark.parametrize("nested", [False, True])
    def test_rejected_source_exits_2_and_makes_no_out(
            self, tmp_path, capsys, fault, edit, nested):
        """A source the load refuses, whether the copy is tried or not:
        exit 2 with the load's message, and no ``--out`` directory."""
        g = source_graph(np.reshape(LCC_PINNED, (8, 2)), [(0, 1), (1, 2)])
        save_dataset(g, tmp_path / "src")
        edit(tmp_path / "src")
        with pytest.raises(DatasetError) as refused:
            load_dataset(tmp_path / "src")
        out = tmp_path / "out" / "sub" if nested else tmp_path / "out"
        copies = []
        copy = gpcn.graph._copy_rows
        with mock.patch.object(gpcn.graph, "_copy_rows",
                               lambda *a: copies.append(a) or copy(*a)):
            assert main(["dataset", "lcc", str(tmp_path / "src"), "--out",
                         str(out)]) == 2
        assert capsys.readouterr().err == f"data error: {refused.value}\n"
        assert not (tmp_path / "out").exists()
        # the copy is tried once the edges give the component
        assert len(copies) == (fault not in ("malformed-edge",
                                             "edge-out-of-range"))

    def test_component_saved_over_its_source_is_copied(self, tmp_path):
        """``--out`` the source directory: the copy reads the whole source
        before any file of it is written, so it is kept, and gives the
        formatted bytes."""
        g = source_graph(np.reshape(LCC_PINNED, (8, 2)), [(0, 1), (1, 2)])
        save_dataset(g, tmp_path / "d")
        ref = formatted_lcc(tmp_path / "d", tmp_path / "ref")
        with counted_writes() as writes:
            gpcn.graph.save_largest_component(tmp_path / "d", tmp_path / "d")
        assert writes == []
        assert lcc_tree(tmp_path / "d") == ref

    def test_copy_reads_the_source_in_blocks(self, tmp_path):
        """The copy holds its read buffer and a line-end mask of it, not
        the source file."""
        n = 300
        g = source_graph(np.random.default_rng(0).normal(size=(n, 1000)),
                         [(i, i + 1) for i in range(n - 2)])
        save_dataset(g, tmp_path / "src")
        src = (tmp_path / "src" / "features.csv").read_bytes()
        assert len(src) > 5 * gpcn.graph._HASH_BLOCK_BYTES
        rows = np.arange(n - 1)
        tracemalloc.start()
        try:
            got = gpcn.graph._copy_rows(tmp_path / "src" / "features.csv",
                                        tmp_path / "out.csv", rows, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        out = (tmp_path / "out.csv").read_bytes()
        assert out == src[:src.rindex(b"\n", 0, -1) + 1]
        assert got == (tree_digest(src), tree_digest(out))
        assert peak < 3 * gpcn.graph._HASH_BLOCK_BYTES


class TestNormalization:
    def test_single_edge_pair(self, path_graph):
        dense = dense_adjacency(normalize_adjacency(path_graph))
        assert np.allclose(dense, [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)

    def test_triangle_is_all_thirds(self):
        g = make_graph(3, np.zeros((3, 1)), [0, 0, 0], ["none"] * 3,
                       [[0, 1], [1, 2], [0, 2]], num_classes=1)
        assert np.allclose(dense_adjacency(normalize_adjacency(g)), 1.0 / 3.0,
                           atol=1e-15)

    def test_isolated_node_diagonal_one(self):
        g = make_graph(3, np.zeros((3, 1)), [0, 0, 0], ["none"] * 3,
                       [[0, 1]], num_classes=1)
        dense = dense_adjacency(normalize_adjacency(g))
        assert dense[2, 2] == 1.0
        assert np.count_nonzero(dense[2]) == 1

    @settings(deadline=None, max_examples=25)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 20))
    def test_matches_dense_oracle(self, seed, n):
        g = random_graph(np.random.default_rng(seed), n)
        dense = dense_adjacency(normalize_adjacency(g))
        assert np.abs(dense - dense_normalized(g)).max() <= 1e-12

    @settings(deadline=None, max_examples=25)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 20))
    def test_symmetry_and_value_range(self, seed, n):
        g = random_graph(np.random.default_rng(seed), n)
        mat = normalize_adjacency(g)
        assert (mat != mat.T).nnz == 0
        values = mat.toarray()
        nz = values[values != 0]
        assert np.all(nz > 0) and np.all(nz <= 1.0)
        degrees = np.asarray(adjacency(g).sum(axis=1)).ravel() + 1
        row_sums = values.sum(axis=1)
        assert np.all(row_sums > 0)
        assert np.all(row_sums <= 1 + degrees.max())


def shaped_graph(shape, n, seed):
    """An edgeless, star, complete or random graph on ``n`` nodes; the star
    spans the first half of the nodes and leaves the rest isolated."""
    if shape == "edgeless":
        edges = np.zeros((0, 2), dtype=np.int64)
    elif shape == "star":
        edges = [[0, v] for v in range(1, (n + 1) // 2)]
    elif shape == "complete":
        edges = np.stack(np.triu_indices(n, k=1), axis=1)
    else:
        return binary_random_graph(seed, n, 0.3)
    return make_graph(n, np.zeros((n, 1)), [0] * n, ["none"] * n, edges,
                      num_classes=1)


class TestNormalizeMatchesReference:
    """``normalize_adjacency`` builds A_hat from the sorted edge keys; the
    scipy product D (A + I) D is the oracle, bit for bit."""

    @settings(deadline=None, max_examples=150)
    @given(shape=st.sampled_from(["edgeless", "star", "complete", "random"]),
           n=st.integers(1, 12), seed=st.integers(0, 10_000),
           pairs=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)),
                          max_size=8))
    def test_bit_identical_along_toggle_chain(self, shape, n, seed, pairs):
        g = shaped_graph(shape, n, seed)
        assert csr_equal(normalize_adjacency(g),
                         reference_normalize_adjacency(g))
        for edit in toggles(g, pairs):
            g = apply_edits(g, [edit])
            assert csr_equal(normalize_adjacency(g),
                             reference_normalize_adjacency(g))


class TestPropagate:
    def test_isolated_nodes_identity(self):
        g = make_graph(4, np.zeros((4, 1)), [0] * 4, ["none"] * 4, [],
                       num_classes=1)
        m = np.arange(8.0).reshape(4, 2)
        assert np.array_equal(propagate(normalize_adjacency(g), m), m)

    def test_two_node_path(self, path_graph):
        out = propagate(normalize_adjacency(path_graph), [[1.0], [0.0]])
        assert np.allclose(out, [[0.5], [0.5]], atol=1e-15)

    def test_linearity(self, rng):
        g = random_graph(rng, 5)
        adj = normalize_adjacency(g)
        a = rng.normal(size=(5, 3))
        b = rng.normal(size=(5, 3))
        assert np.allclose(propagate(adj, a + b),
                           propagate(adj, a) + propagate(adj, b), atol=1e-12)

    def test_row_count_mismatch(self, path_graph):
        with pytest.raises(ValueError, match="rows"):
            propagate(normalize_adjacency(path_graph), np.zeros((3, 1)))


class TestGenerateSynthetic:
    def test_degenerate_probabilities_give_disjoint_cliques(self):
        spec = SyntheticSpec(3, 4, 1.0, 0.0, 2, 0.0)
        g = generate_synthetic(spec, 0)
        n_comp, comp = sp.csgraph.connected_components(adjacency(g),
                                                       directed=False)
        assert n_comp == 3
        # each block is complete: 4 choose 2 edges apiece
        assert g.num_edges == 3 * 6

    def test_determinism(self):
        spec = SyntheticSpec(2, 10, 0.3, 0.05, 4, 0.5)
        assert graphs_equal(generate_synthetic(spec, 9),
                            generate_synthetic(spec, 9))

    def test_labels_are_blocks_and_splits_cover(self):
        spec = SyntheticSpec(3, 10, 0.2, 0.02, 5, 0.3, (0.5, 0.25, 0.25))
        g = generate_synthetic(spec, 1)
        assert g.num_classes == 3
        assert np.array_equal(np.sort(np.unique(g.labels)), [0, 1, 2])
        assert g.mask("train").sum() == 15
        assert g.mask("val").sum() == 8  # round(0.25 * 30)
        assert g.mask("train").sum() + g.mask("val").sum() \
            + g.mask("test").sum() + g.mask("none").sum() == 30


    def test_feature_dim_below_one_rejected(self):
        with pytest.raises(ValueError, match="feature_dim"):
            SyntheticSpec(2, 3, 0.5, 0.1, 0, 0.1)


def same_bits(a, b) -> bool:
    """``graphs_equal``, with the features compared bit for bit."""
    return (graphs_equal(a, b) and a.features.shape == b.features.shape
            and np.array_equal(a.features.view(np.int64),
                               b.features.view(np.int64)))


probabilities = st.one_of(st.sampled_from([0.0, 1.0]),
                          st.floats(0.0, 1.0))


class TestGenerateSyntheticMatchesReference:
    """``generate_synthetic`` draws the edge uniforms in pieces of
    ``_PAIR_BLOCK``; one draw over every ``triu_indices`` pair, kept in
    conftest, is the oracle, bit for bit."""

    @settings(deadline=None, max_examples=150)
    @given(blocks=st.integers(1, 5), per_block=st.integers(1, 12),
           p_in=probabilities, p_out=probabilities,
           feature_dim=st.integers(1, 4), noise=st.sampled_from([0.0, 0.5]),
           seed=st.integers(0, 2**32 - 1),
           pair_block=st.one_of(st.integers(1, 70),
                                st.just(gpcn.graph._PAIR_BLOCK)))
    @example(blocks=1, per_block=1, p_in=0.5, p_out=0.5, feature_dim=1,
             noise=0.5, seed=0, pair_block=1)       # one node, no pair
    @example(blocks=3, per_block=4, p_in=0.0, p_out=0.0, feature_dim=2,
             noise=0.5, seed=1, pair_block=5)
    @example(blocks=3, per_block=4, p_in=1.0, p_out=1.0, feature_dim=2,
             noise=0.5, seed=1, pair_block=5)
    @example(blocks=1, per_block=12, p_in=0.3, p_out=0.7, feature_dim=3,
             noise=0.5, seed=2, pair_block=66)      # one piece, exactly
    @example(blocks=3, per_block=4, p_in=0.3, p_out=0.1, feature_dim=2,
             noise=0.0, seed=7, pair_block=5)       # features 0.0 and 1.0
    def test_same_graph(self, blocks, per_block, p_in, p_out, feature_dim,
                        noise, seed, pair_block):
        spec = SyntheticSpec(blocks, per_block, p_in, p_out, feature_dim,
                             noise, (0.4, 0.3, 0.2))
        with mock.patch.object(gpcn.graph, "_PAIR_BLOCK", pair_block):
            got = generate_synthetic(spec, seed)
        assert same_bits(got, reference_generate_synthetic(spec, seed))

    def test_cora_sized_sbm(self):
        """The benchmark's Cora-sized SBM: 2709 nodes, 3.67M pairs in 56
        pieces, the last one partial."""
        spec = SyntheticSpec(7, 387, 0.0125, 0.0005, 1433, 1.0,
                             (0.2, 0.2, 0.6))
        got = generate_synthetic(spec, 0)
        assert got.num_edges == 8252
        assert same_bits(got, reference_generate_synthetic(spec, 0))

    def test_memory_does_not_grow_with_pairs(self):
        """2000 nodes have 2M node pairs; the reference, with its arrays
        over every pair, peaks near 65 MB, and pieces of 2^20 pairs near
        10 MiB."""
        spec = SyntheticSpec(4, 500, 0.05, 0.005, 2, 0.1)
        tracemalloc.start()
        try:
            generate_synthetic(spec, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_one_feature_array(self):
        """500 nodes of 2000 features take 7.6 MB; forming the noise apart
        from the one-hot array, as the reference does, peaks near twice
        that, and a finiteness mask of the features adds an eighth."""
        spec = SyntheticSpec(2, 250, 0.05, 0.005, 2000, 0.5)
        tracemalloc.start()
        try:
            g = generate_synthetic(spec, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * g.features.nbytes


class TestLargestConnectedComponent:
    def test_connected_graph_unchanged(self, rng):
        g = random_graph(rng, 6, edge_prob=0.9)
        assert graphs_equal(largest_connected_component(g), g)

    def test_picks_bigger_component(self):
        g = make_graph(5, np.arange(5.0).reshape(5, 1), [0, 1, 0, 1, 0],
                       ["train", "val", "test", "none", "none"],
                       [[0, 1], [1, 2], [3, 4]], num_classes=2)
        lcc = largest_connected_component(g)
        assert lcc.num_nodes == 3
        assert np.array_equal(lcc.features.ravel(), [0.0, 1.0, 2.0])
        assert list(lcc.split) == ["train", "val", "test"]

    def test_size_tie_keeps_lowest_id_component(self):
        g = make_graph(4, np.zeros((4, 1)), [0] * 4, ["none"] * 4,
                       [[0, 1], [2, 3]], num_classes=1)
        lcc = largest_connected_component(g)
        assert lcc.num_nodes == 2
        assert np.array_equal(lcc.edges, [[0, 1]])


def tied_components(sizes, seed):
    """A graph whose components have the given sizes, each a random tree
    plus random chords, with the node ids shuffled."""
    rng = np.random.default_rng(seed)
    n = sum(sizes)
    perm = rng.permutation(n)
    edges, start = [], 0
    for size in sizes:
        nodes = perm[start:start + size]
        start += size
        for i in range(1, size):
            edges.append((nodes[rng.integers(i)], nodes[i]))
        for _ in range(size // 2):
            u, v = rng.choice(nodes, size=2)
            edges.append((u, v))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")      # chords may be self-loops
        return make_graph(n, np.arange(n, dtype=float).reshape(n, 1),
                          np.arange(n) % 2, ["none"] * n,
                          np.array(edges, dtype=np.int64).reshape(-1, 2),
                          num_classes=2)


class TestLargestComponentMatchesReference:
    """Components found by pointer jumping give scipy's, read off A."""

    @pytest.mark.parametrize("n", [1, 2, 3, 64, 1000])
    def test_shuffled_path(self, n):
        """A path through the nodes in random order, the longest chain of
        pointers to jump."""
        order = np.random.default_rng(n).permutation(n)
        g = make_graph(n, np.zeros((n, 1)), [0] * n, ["none"] * n,
                       np.stack([order[:-1], order[1:]], axis=1),
                       num_classes=1)
        assert graphs_equal(largest_connected_component(g), g)

    @settings(deadline=None, max_examples=100)
    @given(n=st.integers(1, 40), seed=st.integers(0, 10_000),
           density=st.floats(0.0, 0.2))
    def test_random_graphs(self, n, seed, density):
        g = random_graph(np.random.default_rng(seed), n, edge_prob=density)
        assert graphs_equal(largest_connected_component(g),
                            reference_largest_connected_component(g))

    @settings(deadline=None, max_examples=60)
    @given(size=st.integers(1, 5), copies=st.integers(2, 4),
           smaller=st.lists(st.integers(1, 4), max_size=3),
           seed=st.integers(0, 10_000))
    def test_tied_sizes(self, size, copies, smaller, seed):
        g = tied_components([size] * copies + smaller, seed)
        assert graphs_equal(largest_connected_component(g),
                            reference_largest_connected_component(g))


class TestApplyEdits:
    def test_empty_edit_list_identity(self, rng):
        g = random_graph(rng, 5)
        assert graphs_equal(apply_edits(g, []), g)

    def test_path_to_triangle(self):
        g = make_graph(3, np.zeros((3, 1)), [0] * 3, ["none"] * 3,
                       [[0, 1], [1, 2]], num_classes=1)
        out = apply_edits(g, [EdgeEdit("add", 0, 2)])
        assert out.num_edges == 3
        assert g.num_edges == 2   # original untouched

    def test_add_then_remove_is_identity(self, rng):
        g = random_graph(rng, 5, edge_prob=0.2)
        edits = [EdgeEdit("add", 0, 4), EdgeEdit("remove", 0, 4)]
        assert graphs_equal(apply_edits(g, edits), g)

    def test_illegal_add_and_remove(self, path_graph):
        with pytest.raises(ValueError, match="already present"):
            apply_edits(path_graph, [EdgeEdit("add", 0, 1)])
        g = make_graph(3, np.zeros((3, 1)), [0] * 3, ["none"] * 3,
                       [[0, 1]], num_classes=1)
        with pytest.raises(ValueError, match="not present"):
            apply_edits(g, [EdgeEdit("remove", 1, 2)])
        with pytest.raises(IndexError, match="range"):
            apply_edits(g, [EdgeEdit("add", 0, 5)])

    def test_feature_flip_round_trip(self):
        g = make_graph(2, [[1.0, 0.0], [0.0, 1.0]], [0, 1],
                       ["none", "none"], [[0, 1]], num_classes=2)
        e = EdgeEdit("feature_flip", 0, 1)
        once = apply_edits(g, [e])
        assert once.features[0, 1] == 1.0
        assert graphs_equal(apply_edits(once, [inverse_edit(e)]), g)

    @settings(deadline=None, max_examples=25)
    @given(seed=st.integers(0, 10_000))
    def test_inverse_edit_list_restores_graph(self, seed):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, 7, edge_prob=0.4)
        edits = []
        current = g
        for _ in range(4):
            u, v = sorted(rng.choice(7, size=2, replace=False))
            kind = "remove" if has_edge(current, u, v) else "add"
            edits.append(EdgeEdit(kind, int(u), int(v)))
            current = apply_edits(current, [edits[-1]])
        restored = apply_edits(current,
                               [inverse_edit(e) for e in reversed(edits)])
        assert graphs_equal(restored, g)


def edit_outcome(apply, g, edits):
    """The graph ``apply`` returns, or the type and message it raises."""
    try:
        return apply(g, edits)
    except (ValueError, IndexError) as exc:
        return type(exc), str(exc)


def assert_same_outcome(g, edits):
    got = edit_outcome(apply_edits, g, edits)
    want = edit_outcome(reference_apply_edits, g, edits)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert graphs_equal(got, want)


class TestApplyEditsMatchesSetOracle:
    @pytest.mark.parametrize("first, second", [("add", "remove"),
                                               ("remove", "add")])
    def test_toggle_one_pair_twice(self, first, second):
        g = make_graph(4, np.ones((4, 1)), [0] * 4, ["none"] * 4,
                       [[0, 1], [2, 3]] if first == "remove" else [[2, 3]],
                       num_classes=1)
        edits = [EdgeEdit(first, 1, 0), EdgeEdit(second, 0, 1)]
        assert_same_outcome(g, edits)
        assert graphs_equal(apply_edits(g, edits), g)

    @settings(deadline=None, max_examples=200)
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 8),
           pairs=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)),
                          max_size=10),
           flips=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 2)),
                          max_size=3),
           last=st.none() | st.tuples(
               st.sampled_from(["add", "remove", "feature_flip"]),
               st.integers(-1, 9), st.integers(-1, 9)))
    def test_matches_set_based_oracle(self, seed, n, pairs, flips, last):
        """Legal toggles, repeated pairs included, then feature flips and
        one arbitrary edit that may be illegal or out of range."""
        g = binary_random_graph(seed, n, 0.4)
        edits = toggles(g, pairs)
        edits += [EdgeEdit("feature_flip", u % n, f) for u, f in flips]
        if last is not None:
            edits.append(EdgeEdit(*last))
        assert_same_outcome(g, edits)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_long_toggle_chain_on_sbm(self, seed):
        """Over 20 toggles on an SBM of over 1000 edges: random pairs, five
        of them toggled back, and removals of edges spread over the array."""
        spec = SyntheticSpec(4, 100, 0.05, 0.005, 2, 0.0, (0.5, 0.25, 0.25))
        g = generate_synthetic(spec, seed)
        assert g.num_edges >= 1000
        rng = np.random.default_rng(seed)
        pairs = rng.integers(0, g.num_nodes, (20, 2)).tolist()
        pairs += pairs[:5] + [tuple(e) for e in g.edges[::200].tolist()]
        edits = toggles(g, pairs)
        assert len(edits) >= 20
        assert_same_outcome(g, edits)


def binary_random_graph(seed, n, edge_prob):
    """``random_graph`` with its features rounded to 0/1, so they can flip."""
    g0 = random_graph(np.random.default_rng(seed), n, edge_prob=edge_prob)
    return make_graph(n, (g0.features > 0).astype(float), g0.labels,
                      g0.split, g0.edges, num_classes=g0.num_classes)


def toggles(g, pairs):
    """Legal edge toggles of the pairs (taken mod n) in order, a repeated
    pair toggling back; self-pairs are skipped."""
    n = g.num_nodes
    present = {(int(u), int(v)) for u, v in g.edges}
    edits = []
    for u, v in pairs:
        u, v = u % n, v % n
        if u == v:
            continue
        pair = (min(u, v), max(u, v))
        edits.append(EdgeEdit("remove" if pair in present else "add", u, v))
        present ^= {pair}
    return edits


def assert_matches_rebuild(g, edits):
    """``apply_edits(g, edits)`` against the set-based oracle's graph, with
    A_hat bit for bit against ``reference_normalize_adjacency`` of it.
    ``g.adj`` is formed first, so an edited graph that read its source's
    cached A_hat would fail. Returns the edited graph."""
    source_adj = g.adj
    edited = apply_edits(g, edits)
    want = reference_apply_edits(g, edits)
    assert graphs_equal(edited, want)
    assert edited.adj is not source_adj
    assert csr_equal(edited.adj, reference_normalize_adjacency(want))
    return edited


class TestEditedGraphAdj:
    """``Graph.adj`` is A_hat, formed once per graph object; a graph made by
    ``apply_edits`` forms its own, bit for bit the A_hat of the graph the
    set-based oracle edits."""

    def test_adj_forms_a_hat_only(self):
        # A_hat peaks at about 0.2 MB on 600 nodes and about 1,900 edges;
        # an n x d array such as A_hat X would take the 4.8 MB of the
        # features
        g = generate_synthetic(SyntheticSpec(
            num_blocks=3, nodes_per_block=200, intra_block_edge_prob=0.03,
            inter_block_edge_prob=0.001, feature_dim=1000,
            feature_noise_std=0.5), seed=0)
        tracemalloc.start()
        try:
            adj = g.adj
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert csr_equal(adj, normalize_adjacency(g))
        assert peak < 0.5 * g.features.nbytes

    def test_adj_is_formed_once(self, rng):
        g = random_graph(rng, 7, edge_prob=0.3)
        assert g.adj is g.adj

    @pytest.mark.parametrize("first, second", [("add", "remove"),
                                               ("remove", "add")])
    def test_toggle_one_pair_twice(self, first, second):
        g = make_graph(4, np.arange(8.0).reshape(4, 2), [0] * 4, ["none"] * 4,
                       [[0, 1], [2, 3]] if first == "remove" else [[2, 3]],
                       num_classes=1)
        once = assert_matches_rebuild(g, [EdgeEdit(first, 1, 0)])
        assert graphs_and_adj_equal(
            assert_matches_rebuild(once, [EdgeEdit(second, 0, 1)]), g)
        assert graphs_and_adj_equal(apply_edits(
            g, [EdgeEdit(first, 1, 0), EdgeEdit(second, 0, 1)]), g)

    def test_source_is_left_unchanged(self, rng):
        g = random_graph(rng, 6, edge_prob=0.3)
        edges, adj = g.edges.copy(), g.adj.copy()
        q = assert_matches_rebuild(
            g, [EdgeEdit("remove" if has_edge(g, 0, 5) else "add", 0, 5)])
        assert q.num_edges != g.num_edges
        assert np.array_equal(g.edges, edges)
        assert csr_equal(g.adj, adj)

    def test_empty_edit_list(self, rng):
        g = random_graph(rng, 5)
        assert graphs_and_adj_equal(assert_matches_rebuild(g, []), g)

    @settings(deadline=None, max_examples=200)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 9),
           edge_prob=st.sampled_from([0.0, 0.15, 0.5, 1.0]),
           steps=st.lists(st.tuples(
               st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)),
                        max_size=4),
               st.lists(st.tuples(st.integers(0, 8), st.integers(0, 2)),
                        max_size=2)), min_size=1, max_size=4))
    def test_matches_rebuild_along_edit_chain(self, seed, n, edge_prob,
                                              steps):
        """Chained edit batches of legal toggles (repeated pairs toggle
        back) and feature flips, on edgeless, sparse (isolated nodes),
        dense and complete graphs."""
        g = binary_random_graph(seed, n, edge_prob)
        for pairs, flips in steps:
            edits = toggles(g, pairs)
            edits += [EdgeEdit("feature_flip", u % n, f) for u, f in flips]
            g = assert_matches_rebuild(g, edits)

    def test_sbm_toggle_sequence_bit_identical(self):
        spec = SyntheticSpec(7, 60, 0.05, 0.002, 300, 1.0, (0.2, 0.2, 0.6))
        g = generate_synthetic(spec, 3)
        rng = np.random.default_rng(0)
        for _ in range(10):
            g = assert_matches_rebuild(
                g, toggles(g, rng.integers(0, g.num_nodes, (2, 2))))
