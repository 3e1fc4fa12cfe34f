//! Compact binary serialization for fitted models.
//!
//! Training a Strudel model over a large corpus takes seconds to
//! minutes; classifying a file takes milliseconds. Persistence lets a
//! model be trained once and shipped, which the CLI relies on. The
//! format is a small hand-rolled little-endian binary encoding — no
//! external serialization dependency — with a magic header and version
//! byte for forward compatibility.

use crate::forest::{FlatNode, ForestBuilder, RandomForest};
use std::io::{self, Read, Write};

/// Magic bytes opening every serialized model.
pub const MAGIC: &[u8; 8] = b"STRUDELM";
/// Current format version.
pub const VERSION: u8 = 1;

/// Binary writer with little-endian primitives.
pub struct ModelWriter<W: Write> {
    inner: W,
}

impl<W: Write> ModelWriter<W> {
    /// Wrap a writer and emit the format header.
    pub fn new(mut inner: W) -> io::Result<ModelWriter<W>> {
        inner.write_all(MAGIC)?;
        inner.write_all(&[VERSION])?;
        Ok(ModelWriter { inner })
    }

    /// Write a `u64`.
    pub fn u64(&mut self, v: u64) -> io::Result<()> {
        self.inner.write_all(&v.to_le_bytes())
    }

    /// Write a `usize` (as `u64`).
    pub fn usize(&mut self, v: usize) -> io::Result<()> {
        self.u64(v as u64)
    }

    /// Write an `f64`.
    pub fn f64(&mut self, v: f64) -> io::Result<()> {
        self.inner.write_all(&v.to_le_bytes())
    }

    /// Write a `bool` as one byte.
    pub fn bool(&mut self, v: bool) -> io::Result<()> {
        self.inner.write_all(&[u8::from(v)])
    }

    /// Write a length-prefixed `f64` slice.
    pub fn f64_slice(&mut self, vs: &[f64]) -> io::Result<()> {
        self.usize(vs.len())?;
        for &v in vs {
            self.f64(v)?;
        }
        Ok(())
    }

    /// Finish writing, returning the underlying writer.
    pub fn finish(self) -> W {
        self.inner
    }
}

/// Binary reader mirroring [`ModelWriter`].
pub struct ModelReader<R: Read> {
    inner: R,
}

/// Error helper: corrupt/unsupported input.
fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

impl<R: Read> ModelReader<R> {
    /// Wrap a reader and validate the format header.
    pub fn new(mut inner: R) -> io::Result<ModelReader<R>> {
        let mut magic = [0u8; 8];
        inner.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(bad("not a Strudel model file"));
        }
        let mut version = [0u8; 1];
        inner.read_exact(&mut version)?;
        if version[0] != VERSION {
            return Err(bad("unsupported model format version"));
        }
        Ok(ModelReader { inner })
    }

    /// Read a `u64`.
    pub fn u64(&mut self) -> io::Result<u64> {
        let mut buf = [0u8; 8];
        self.inner.read_exact(&mut buf)?;
        Ok(u64::from_le_bytes(buf))
    }

    /// Read a `usize`, rejecting values that overflow the platform.
    pub fn usize(&mut self) -> io::Result<usize> {
        usize::try_from(self.u64()?).map_err(|_| bad("length overflows usize"))
    }

    /// Read a bounded `usize` (defence against corrupt huge lengths).
    pub fn usize_bounded(&mut self, max: usize) -> io::Result<usize> {
        let v = self.usize()?;
        if v > max {
            return Err(bad("length exceeds sanity bound"));
        }
        Ok(v)
    }

    /// Read an `f64`.
    pub fn f64(&mut self) -> io::Result<f64> {
        let mut buf = [0u8; 8];
        self.inner.read_exact(&mut buf)?;
        Ok(f64::from_le_bytes(buf))
    }

    /// Read a `bool`.
    pub fn bool(&mut self) -> io::Result<bool> {
        let mut buf = [0u8; 1];
        self.inner.read_exact(&mut buf)?;
        match buf[0] {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(bad("invalid boolean")),
        }
    }

    /// Read a length-prefixed `f64` vector.
    pub fn f64_vec(&mut self) -> io::Result<Vec<f64>> {
        let n = self.usize_bounded(1 << 28)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.f64()?);
        }
        Ok(out)
    }
}

impl RandomForest {
    /// Serialize the forest body (no header): the class count, the tree
    /// count, then each tree as its class count, node count and nodes in
    /// pre-order, with child indices local to the tree.
    pub fn write_to<W: Write>(&self, w: &mut ModelWriter<W>) -> io::Result<()> {
        let n_classes = self.n_classes_raw();
        w.usize(n_classes)?;
        w.usize(self.n_trees())?;
        for t in 0..self.n_trees() {
            let (root, end) = self.tree_span(t);
            w.usize(n_classes)?;
            w.usize(end - root)?;
            for node in root..end {
                match self.node(node) {
                    FlatNode::Split {
                        feature,
                        threshold,
                        right,
                    } => {
                        w.bool(false)?;
                        w.usize(feature)?;
                        w.f64(threshold)?;
                        w.usize(node + 1 - root)?;
                        w.usize(right - root)?;
                    }
                    FlatNode::Leaf(values) => {
                        w.bool(true)?;
                        w.f64_slice(values)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Deserialize a forest body written by [`RandomForest::write_to`],
    /// straight into the flat arrays. Rejects (as `InvalidData`) trees
    /// that are not in pre-order, leaves of the wrong arity, and
    /// indices too large for the arrays' `u32` fields.
    pub fn read_from<R: Read>(r: &mut ModelReader<R>) -> io::Result<RandomForest> {
        let n_classes = r.usize_bounded(1 << 16)?;
        let n_trees = r.usize_bounded(1 << 20)?;
        let mut forest = ForestBuilder::new(n_classes).map_err(bad)?;
        let mut values = Vec::with_capacity(n_classes);
        for _ in 0..n_trees {
            if r.usize_bounded(1 << 16)? != n_classes {
                return Err(bad("tree class-count mismatch"));
            }
            let n_nodes = r.usize_bounded(1 << 28)?;
            forest.begin_tree(n_nodes).map_err(bad)?;
            for _ in 0..n_nodes {
                if r.bool()? {
                    if r.usize_bounded(1 << 28)? != n_classes {
                        return Err(bad("leaf probability arity mismatch"));
                    }
                    values.clear();
                    for _ in 0..n_classes {
                        values.push(r.f64()?);
                    }
                    forest.leaf(&values).map_err(bad)?;
                } else {
                    let feature = r.usize()?;
                    let threshold = r.f64()?;
                    let left = r.usize()?;
                    let right = r.usize()?;
                    forest.split(feature, threshold, left, right).map_err(bad)?;
                }
            }
        }
        forest.finish().map_err(bad)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use crate::forest::ForestConfig;
    use crate::traits::Classifier;

    fn sample_forest() -> (RandomForest, Dataset) {
        let data = Dataset::from_rows(
            &[
                vec![0.0, 1.0],
                vec![0.2, 0.8],
                vec![5.0, -1.0],
                vec![5.5, -0.5],
                vec![10.0, 3.0],
                vec![10.5, 3.5],
            ],
            &[0, 0, 1, 1, 2, 2],
            3,
        );
        let forest = RandomForest::fit(&data, &ForestConfig::fast(7, 3));
        (forest, data)
    }

    #[test]
    fn forest_roundtrip_preserves_predictions() {
        let (forest, data) = sample_forest();
        let mut buf = Vec::new();
        let mut w = ModelWriter::new(&mut buf).unwrap();
        forest.write_to(&mut w).unwrap();
        let mut r = ModelReader::new(buf.as_slice()).unwrap();
        let loaded = RandomForest::read_from(&mut r).unwrap();
        assert_eq!(loaded.n_trees(), forest.n_trees());
        for i in 0..data.n_samples() {
            assert_eq!(
                loaded.predict_proba(data.row(i)),
                forest.predict_proba(data.row(i))
            );
        }
        // Load → save writes the same bytes back.
        let mut again = Vec::new();
        let mut w = ModelWriter::new(&mut again).unwrap();
        loaded.write_to(&mut w).unwrap();
        assert_eq!(again, buf);
    }

    /// A forest body of one three-node tree: a split on `feature` with
    /// children `left` and `right`, then two leaves.
    fn one_split_forest(feature: u64, left: u64, right: u64) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut w = ModelWriter::new(&mut buf).unwrap();
        w.usize(2).unwrap();
        w.usize(1).unwrap();
        w.usize(2).unwrap();
        w.usize(3).unwrap();
        w.bool(false).unwrap();
        w.u64(feature).unwrap();
        w.f64(0.5).unwrap();
        w.u64(left).unwrap();
        w.u64(right).unwrap();
        for _ in 0..2 {
            w.bool(true).unwrap();
            w.f64_slice(&[0.5, 0.5]).unwrap();
        }
        buf
    }

    fn load(buf: &[u8]) -> io::Result<RandomForest> {
        RandomForest::read_from(&mut ModelReader::new(buf).unwrap())
    }

    #[test]
    fn malformed_splits_rejected_at_load() {
        assert!(load(&one_split_forest(0, 1, 2)).is_ok());
        assert!(load(&one_split_forest(u64::from(u32::MAX) - 1, 1, 2)).is_ok());
        // Children out of pre-order (a back edge, a self loop, swapped
        // or out-of-tree children), then feature indices that do not
        // fit a u32 or collide with the leaf marker.
        let cases = [
            (0, 0, 2),
            (0, 1, 0),
            (0, 1, 1),
            (0, 2, 1),
            (0, 1, 3),
            (u64::from(u32::MAX), 1, 2),
            (1 << 32, 1, 2),
            (u64::MAX, 1, 2),
        ];
        for (feature, left, right) in cases {
            let err = match load(&one_split_forest(feature, left, right)) {
                Err(e) => e,
                Ok(_) => panic!("accepted feature {feature}, children {left}, {right}"),
            };
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let err = match ModelReader::new(&b"NOTMAGIC\x01rest"[..]) {
            Err(e) => e,
            Ok(_) => panic!("bad magic accepted"),
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn bad_version_rejected() {
        let mut buf = MAGIC.to_vec();
        buf.push(99);
        let err = match ModelReader::new(buf.as_slice()) {
            Err(e) => e,
            Ok(_) => panic!("bad version accepted"),
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_payload_rejected() {
        let (forest, _) = sample_forest();
        let mut buf = Vec::new();
        let mut w = ModelWriter::new(&mut buf).unwrap();
        forest.write_to(&mut w).unwrap();
        buf.truncate(buf.len() / 2);
        let mut r = ModelReader::new(buf.as_slice()).unwrap();
        assert!(RandomForest::read_from(&mut r).is_err());
    }

    #[test]
    fn primitive_roundtrip() {
        let mut buf = Vec::new();
        let mut w = ModelWriter::new(&mut buf).unwrap();
        w.u64(42).unwrap();
        w.f64(-1.5).unwrap();
        w.bool(true).unwrap();
        w.f64_slice(&[1.0, 2.0]).unwrap();
        let mut r = ModelReader::new(buf.as_slice()).unwrap();
        assert_eq!(r.u64().unwrap(), 42);
        assert_eq!(r.f64().unwrap(), -1.5);
        assert!(r.bool().unwrap());
        assert_eq!(r.f64_vec().unwrap(), vec![1.0, 2.0]);
    }
}
