import gzip
import struct

import numpy as np
import pytest

from dsffs import data
from dsffs.cli import ExperimentConfig, build_dataset
from dsffs.data import (
    DataFormatError,
    Dataset,
    generate_synthetic,
    load_csv,
    load_idx,
    load_libsvm,
    normalize,
    partition_noniid,
)
from dsffs.sparse_net import (
    ConfigError,
    backward,
    forward,
    init_er_topology,
    sgd_step,
)

import reference_data


class TestCsvLoader:
    def test_small_file(self, tmp_path):
        p = tmp_path / "toy.csv"
        p.write_text("f1,f2,label\n1.0,2.0,0\n3.0,4.0,1\n5.0,6.0,0\n")
        ds = load_csv(p)
        assert ds.n == 3 and ds.d == 2
        assert np.array_equal(ds.y, [0, 1, 0])

    def test_named_label_column(self, tmp_path):
        p = tmp_path / "toy.csv"
        p.write_text("y,a,b\n1,0.5,0.6\n0,0.7,0.8\n")
        ds = load_csv(p, label_column="y")
        assert ds.d == 2
        assert np.array_equal(ds.y, [1, 0])

    def test_malformed_row_reports_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b,label\n1,2,0\n1,oops,1\n")
        with pytest.raises(DataFormatError, match="line 3"):
            load_csv(p)

    def test_missing_label_column(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b\n1,2\n")
        with pytest.raises(DataFormatError, match="label"):
            load_csv(p, label_column="target")

    def test_numeric_labels_keyed_by_value(self, tmp_path):
        # fractional classes stay apart; spellings of one number are one class
        p = tmp_path / "labels.csv"
        p.write_text("a,label\n1,1.2\n2,1.7\n3,2\n4,1e3\n5,1000\n")
        assert np.array_equal(load_csv(p).y, [0, 1, 2, 3, 3])
        # NaN equals nothing as a float key; as a string it is one class
        p.write_text("a,label\n1,nan\n2,0\n3,nan\n")
        assert np.array_equal(load_csv(p).y, [1, 0, 1])

    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(20, 4))
        y = rng.integers(0, 3, size=20)
        p = tmp_path / "rt.csv"
        header = ",".join([f"f{i}" for i in range(4)] + ["label"])
        lines = [header] + [
            ",".join([repr(float(v)) for v in row] + [str(lbl)]) for row, lbl in zip(X, y)
        ]
        p.write_text("\n".join(lines) + "\n")
        ds = load_csv(p)
        assert np.array_equal(ds.X, X)
        assert np.array_equal(ds.y, y)


def write_idx_pair(tmp_path, images, labels, gz=False):
    n, rows, cols = images.shape
    img_path = tmp_path / ("img.idx3" + (".gz" if gz else ""))
    lbl_path = tmp_path / ("lbl.idx1" + (".gz" if gz else ""))
    opener = gzip.open if gz else open
    with opener(img_path, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x803, n, rows, cols))
        fh.write(images.astype(np.uint8).tobytes())
    with opener(lbl_path, "wb") as fh:
        fh.write(struct.pack(">II", 0x801, n))
        fh.write(labels.astype(np.uint8).tobytes())
    return img_path, lbl_path


class TestIdxLoader:
    def test_roundtrip_plain_and_gzip(self, tmp_path):
        rng = np.random.default_rng(1)
        images = rng.integers(0, 256, size=(10, 4, 3)).astype(np.uint8)
        # every digit 0-9 occurs, as in MNIST, so the labels load as stored
        labels = rng.permutation(10).astype(np.uint8)
        for gz in (False, True):
            img, lbl = write_idx_pair(tmp_path, images, labels, gz=gz)
            ds = load_idx(img, lbl)
            assert ds.n == 10 and ds.d == 12
            assert np.array_equal(ds.X, images.reshape(10, 12).astype(float))
            assert np.array_equal(ds.y, labels)

    def test_labels_remapped_densely(self, tmp_path):
        images = np.zeros((6, 2, 2))
        img, lbl = write_idx_pair(tmp_path, images, np.array([7, 3, 3, 7, 7, 3]))
        ds = load_idx(img, lbl)
        assert ds.n_classes == 2
        assert ds.y.dtype == np.int64
        assert np.array_equal(ds.y, [1, 0, 0, 1, 1, 0])

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.idx3"
        p.write_bytes(struct.pack(">IIII", 0xdead, 1, 2, 2) + b"\x00" * 4)
        img, lbl = write_idx_pair(tmp_path, np.zeros((1, 2, 2)), np.zeros(1))
        with pytest.raises(DataFormatError, match="magic"):
            load_idx(p, lbl)

    def test_count_mismatch(self, tmp_path):
        img, _ = write_idx_pair(tmp_path, np.zeros((2, 2, 2)), np.zeros(2))
        lbl = tmp_path / "short.idx1"
        lbl.write_bytes(struct.pack(">II", 0x801, 1) + b"\x00")
        with pytest.raises(DataFormatError, match="labels"):
            load_idx(img, lbl)

    def test_truncated_label_data(self, tmp_path):
        # the header counts 6 labels, the file holds 4
        img, lbl = write_idx_pair(tmp_path, np.zeros((6, 2, 2)), np.zeros(4))
        with pytest.raises(DataFormatError, match=f"{lbl}: truncated label data"):
            load_idx(img, lbl)

    @pytest.mark.parametrize("which", [0, 1])
    def test_truncated_header(self, tmp_path, which):
        pair = list(write_idx_pair(tmp_path, np.zeros((2, 2, 2)), np.zeros(2)))
        pair[which].write_bytes(pair[which].read_bytes()[:(16, 8)[which] - 3])
        with pytest.raises(DataFormatError, match=f"{pair[which]}: truncated header"):
            load_idx(*pair)

    def test_comma_spec_through_build_dataset(self, tmp_path):
        img, lbl = write_idx_pair(tmp_path, np.zeros((3, 2, 2)), np.zeros(3))
        ds = build_dataset(ExperimentConfig(dataset="idx", path=f"{img} , {lbl}"))
        assert ds.n == 3 and ds.d == 4


class TestLibsvmLoader:
    def test_sparse_fill(self, tmp_path):
        p = tmp_path / "toy.svm"
        p.write_text("1 3:0.5\n")
        ds = load_libsvm(p, n_features=4)
        assert np.array_equal(ds.X, [[0.0, 0.0, 0.5, 0.0]])

    def test_one_based_mapping_and_labels(self, tmp_path):
        p = tmp_path / "toy.svm"
        p.write_text("2 1:1.5 3:2.5\n-1 2:0.25\n")
        ds = load_libsvm(p)
        assert ds.d == 3
        assert np.array_equal(ds.X, [[1.5, 0.0, 2.5], [0.0, 0.25, 0.0]])
        assert np.array_equal(ds.y, [1, 0])  # labels remapped densely

    def test_bad_entry_reports_line(self, tmp_path):
        p = tmp_path / "bad.svm"
        p.write_text("1 1:0.5\n0 nope\n")
        with pytest.raises(DataFormatError, match="line 2"):
            load_libsvm(p)

    def test_zero_index_rejected(self, tmp_path):
        p = tmp_path / "bad.svm"
        p.write_text("1 0:0.5\n")
        with pytest.raises(DataFormatError, match="1-based"):
            load_libsvm(p)

    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(15, 5)) * (rng.random((15, 5)) < 0.4)
        X[0, -1] = 1.0  # pin the width
        y = rng.integers(0, 3, size=15)
        lines = []
        for row, lbl in zip(X, y):
            toks = [str(lbl)] + [f"{j + 1}:{float(row[j])!r}" for j in np.nonzero(row)[0]]
            lines.append(" ".join(toks))
        p = tmp_path / "rt.svm"
        p.write_text("\n".join(lines) + "\n")
        ds = load_libsvm(p, n_features=5)
        assert np.array_equal(ds.X, X)
        assert np.array_equal(ds.y, y)


def normalized(X: np.ndarray, mode: str, rows=None) -> np.ndarray:
    """A normalized copy of X: `normalize` run in place on a dataset of the copy."""
    ds = Dataset(X.copy(), np.zeros(len(X), dtype=int))
    assert normalize(ds, mode, np.arange(len(X)) if rows is None else rows) is None
    return ds.X


class TestNormalize:
    def test_minmax_maps_to_unit_interval(self):
        out = normalized(np.array([[0.0], [5.0], [10.0]]), "minmax")
        assert np.allclose(out[:, 0], [0.0, 0.5, 1.0])

    def test_constant_column_zeroed(self):
        X = np.column_stack([np.full(4, 3.0), np.arange(4.0)])
        for mode in ("minmax", "zscore"):
            assert np.all(normalized(X, mode)[:, 0] == 0.0)

    def test_zscore_statistics_on_fit_split(self):
        rng = np.random.default_rng(2)
        X = rng.normal(3.0, 2.5, size=(300, 5))
        fit = np.arange(200)
        out = normalized(X, "zscore", fit)
        mu = out[fit].mean(axis=0)
        sd = out[fit].std(axis=0)
        assert np.all(np.abs(mu) < 1e-9)
        assert np.all(np.abs(sd - 1.0) < 1e-9)

    @pytest.mark.parametrize("mode", ["minmax", "zscore"])
    @pytest.mark.parametrize("case", ["all rows", "non-contiguous subset", "one fit row",
                                      "constant column", "one column"])
    def test_bytes_match_reference(self, mode, case):
        rng = np.random.default_rng(11)
        X = rng.normal(3.0, 2.5, size=(60, 7))
        fit_idx = {"non-contiguous subset": np.array([0, 3, 4, 10, 31, 57]),
                   "one fit row": np.array([5])}.get(case)
        if case == "constant column":
            X[:, 2] = -1.25
        elif case == "one column":
            X = X[:, :1].copy()
        out = normalized(X, mode, fit_idx)
        expected = reference_data.normalize(X, mode, fit_idx)
        assert out.shape == expected.shape and out.flags.c_contiguous
        assert out.tobytes() == expected.tobytes()

    # 60 rows: chunks of 1 and 3 divide them, 7 and 59 leave a short last one
    @pytest.mark.parametrize("chunk", [1, 3, 7, 59])
    @pytest.mark.parametrize("mode", ["minmax", "zscore"])
    def test_chunked_bytes_match_reference(self, monkeypatch, mode, chunk):
        monkeypatch.setattr(data, "CHUNK_BYTES", chunk * 7 * 8)
        rng = np.random.default_rng(12)
        X = rng.normal(3.0, 2.5, size=(60, 7))
        X[:, 2] = -1.25
        fits = [None, np.array([0, 3, 4, 10, 31, 57]), rng.permutation(60)[:25],
                np.flatnonzero(rng.random(60) < 0.5)]
        for M in (X, X[:, :1].copy()):
            for fit_idx in fits:
                out = normalized(M, mode, fit_idx)
                expected = reference_data.normalize(M, mode, fit_idx)
                assert out.tobytes() == expected.tobytes()

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(50, 3))
        for mode in ("minmax", "zscore"):
            once = normalized(X, mode)
            assert np.allclose(once, normalized(once, mode), atol=1e-12)


class TestPartition:
    def make_ds(self, n=600, c=3, seed=0):
        rng = np.random.default_rng(seed)
        return Dataset(rng.normal(size=(n, 4)),
                       rng.permutation(np.arange(n) % c).astype(np.int64))

    def test_partition_law(self):
        ds = self.make_ds()
        for seed in range(5):
            parts = partition_noniid(ds, 5, 0.5, seed)
            all_idx = np.concatenate(parts.shards + [parts.test])
            assert len(all_idx) == ds.n
            assert len(np.unique(all_idx)) == ds.n
            assert all(len(s) > 0 for s in parts.shards)

    def test_high_alpha_near_uniform(self):
        ds = self.make_ds(n=3000)
        for seed in range(10):
            parts = partition_noniid(ds, 2, 1e6, seed)
            global_hist = np.bincount(ds.y, minlength=3) / ds.n
            for shard in parts.shards:
                hist = np.bincount(ds.y[shard], minlength=3) / len(shard)
                assert np.all(np.abs(hist - global_hist) < 0.05)

    def test_low_alpha_skews(self):
        ds = self.make_ds(n=1000, c=5)
        missing_somewhere = 0
        for seed in range(10):
            parts = partition_noniid(ds, 10, 0.1, seed)
            for shard in parts.shards:
                if len(np.unique(ds.y[shard])) < 5:
                    missing_somewhere += 1
                    break
        assert missing_somewhere >= 1

    def test_deterministic(self):
        ds = self.make_ds()
        a = partition_noniid(ds, 4, 0.5, 7)
        b = partition_noniid(ds, 4, 0.5, 7)
        for sa, sb in zip(a.shards, b.shards):
            assert np.array_equal(sa, sb)
        assert np.array_equal(a.test, b.test)

    def test_too_many_clients_rejected(self):
        ds = self.make_ds(n=10)
        with pytest.raises(ConfigError):
            partition_noniid(ds, 50, 0.5, 0)

    def test_single_client_rejected(self):
        with pytest.raises(ConfigError, match="two clients"):
            partition_noniid(self.make_ds(), 1, 0.5, 0)


class TestSynthetic:
    def test_informative_columns_separate_classes(self):
        ds = generate_synthetic(10, 40, 2000, 2, seed=4, separation=1.0)
        inf = ds.meta["informative_idx"]
        noise = sorted(set(range(ds.d)) - set(inf))
        gaps_inf = [abs(ds.X[ds.y == 0, j].mean() - ds.X[ds.y == 1, j].mean())
                    for j in inf]
        gaps_noise = [abs(ds.X[ds.y == 0, j].mean() - ds.X[ds.y == 1, j].mean())
                      for j in noise]
        assert min(gaps_inf) > 0.8      # construction puts the gap at 1.0
        assert max(gaps_noise) < 0.3    # noise is label-independent

    def test_deterministic(self):
        a = generate_synthetic(5, 5, 100, 3, seed=9)
        b = generate_synthetic(5, 5, 100, 3, seed=9)
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.y, b.y)
        assert a.meta["informative_idx"] == b.meta["informative_idx"]

    @pytest.mark.parametrize("mode", ["minmax", "zscore"])
    def test_row_major(self, mode):
        # client shards are row gathers, which a column-major matrix makes strided
        ds = generate_synthetic(5, 20, 50, 3, seed=2)
        assert ds.X.flags.c_contiguous
        assert normalized(ds.X, mode).flags.c_contiguous

    @pytest.mark.parametrize("shape", [(5, 20, 50, 3, 2, 1.0), (3, 0, 10, 2, 7, 1.0),
                                       (1, 7, 13, 4, 0, 0.5)])
    def test_matches_reference(self, shape):
        ds = generate_synthetic(*shape)
        X, y, informative_idx = reference_data.generate_synthetic(*shape)
        assert ds.X.tobytes() == X.tobytes() and ds.X.shape == X.shape
        assert np.array_equal(ds.y, y)
        assert ds.meta["informative_idx"] == informative_idx.tolist()

    # 50 rows: chunks of 1 divide them, 3, 7 and 12 leave a short last one
    @pytest.mark.parametrize("chunk", [1, 3, 7, 12])
    @pytest.mark.parametrize("shape", [(5, 20, 50, 3, 2, 1.0), (3, 0, 50, 2, 7, 1.0)])
    def test_chunked_matches_reference(self, monkeypatch, shape, chunk):
        monkeypatch.setattr(data, "CHUNK_BYTES", chunk * (shape[0] + shape[1]) * 8)
        ds = generate_synthetic(*shape)
        X, y, informative_idx = reference_data.generate_synthetic(*shape)
        assert ds.X.tobytes() == X.tobytes() and ds.X.flags.c_contiguous
        assert np.array_equal(ds.y, y)
        # the permutation is drawn after the chunked draws
        assert ds.meta["informative_idx"] == informative_idx.tolist()

    def test_linear_head_fits_clean_data(self):
        # engine-only sanity: a dense softmax layer reaches >0.9 train
        # accuracy when every feature is informative
        ds = generate_synthetic(10, 0, 400, 2, seed=5, separation=1.0)
        normalize(ds, "minmax", np.arange(ds.n))
        net = init_er_topology([ds.d, 2], 0.0, seed=0)
        vel = None
        for _ in range(60):
            logits, cache = forward(net, ds.X)
            grads = backward(net, cache, ds.y)
            vel = sgd_step(net, grads, lr=0.5, momentum=0.9, velocity=vel)
        logits, _ = forward(net, ds.X)
        acc = (np.argmax(logits, axis=1) == ds.y).mean()
        assert acc > 0.9

    def test_bad_counts_rejected(self):
        with pytest.raises(ConfigError):
            generate_synthetic(0, 5, 100, 2, seed=0)
        with pytest.raises(ConfigError):
            generate_synthetic(5, 5, 100, 0, seed=0)
