//! Persistence of fitted Strudel models.
//!
//! A [`Strudel`] model (both stages plus their feature configurations)
//! serializes to the compact binary format of `strudel_ml::serialize`,
//! so a model trained on an annotated corpus can be shipped and used for
//! classification without retraining — the workflow behind the
//! `strudel-cli` tool.
//!
//! Model files are untrusted input: [`Strudel::read_from`] returns a
//! typed [`StrudelError::Model`] for any structural defect (truncation,
//! bad magic or version, malformed forests) and additionally validates
//! the loaded forests against the pipeline's feature arity and class
//! count, so a corrupt file can never panic at predict time.

use crate::cell_classifier::StrudelCell;
use crate::cell_features::{CellFeatureConfig, N_CELL_FEATURES};
use crate::derived::DerivedConfig;
use crate::line_classifier::StrudelLine;
use crate::line_features::LineFeatureConfig;
use crate::pipeline::Strudel;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;
use strudel_ml::{ModelReader, ModelWriter, RandomForest};
use strudel_table::{ElementClass, StrudelError};

fn write_derived<W: Write>(w: &mut ModelWriter<W>, d: &DerivedConfig) -> io::Result<()> {
    w.f64(d.delta)?;
    w.f64(d.coverage)?;
    w.bool(d.detect_min_max)
}

fn read_derived<R: Read>(r: &mut ModelReader<R>) -> io::Result<DerivedConfig> {
    Ok(DerivedConfig {
        delta: r.f64()?,
        coverage: r.f64()?,
        detect_min_max: r.bool()?,
    })
}

/// Map an I/O error raised while decoding a model stream to a typed
/// error. `InvalidData` and `UnexpectedEof` mean the *content* is bad
/// (bad magic, bad version, truncation, malformed forest); anything else
/// is a genuine I/O failure of the underlying reader.
fn model_error(e: io::Error) -> StrudelError {
    match e.kind() {
        io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof => StrudelError::Model {
            file: None,
            reason: e.to_string(),
        },
        _ => StrudelError::io(&e, None),
    }
}

/// Reject a deserialized forest whose shape does not match the pipeline
/// stage it is about to serve. `RandomForest::read_from` already
/// validates the internal tree structure (pre-order children, leaf
/// arity, `u32` indices); this checks the *external* contract — the
/// class count must be [`ElementClass::COUNT`] (class indices are mapped
/// back through `ElementClass::from_index`, which panics out of range)
/// and every split's feature index must be addressable in the feature
/// vectors the stage produces.
fn validate_forest(
    forest: &RandomForest,
    stage: &str,
    n_features: usize,
) -> Result<(), StrudelError> {
    let n_classes = forest.n_classes_raw();
    if n_classes != ElementClass::COUNT {
        return Err(StrudelError::Model {
            file: None,
            reason: format!(
                "{stage} forest has {n_classes} classes, expected {}",
                ElementClass::COUNT
            ),
        });
    }
    if let Some(max) = forest.max_feature_index() {
        if max >= n_features {
            return Err(StrudelError::Model {
                file: None,
                reason: format!(
                    "{stage} forest references feature index {max}, but the stage \
                     produces only {n_features} features"
                ),
            });
        }
    }
    Ok(())
}

impl StrudelLine {
    /// Serialize the fitted line model (forest + feature configuration).
    pub fn write_to<W: Write>(&self, w: &mut ModelWriter<W>) -> io::Result<()> {
        let features = self.feature_config();
        write_derived(w, &features.derived)?;
        w.bool(features.include_global)?;
        self.forest().write_to(w)
    }

    /// Deserialize a line model written by [`StrudelLine::write_to`].
    pub fn read_from<R: Read>(r: &mut ModelReader<R>) -> Result<StrudelLine, StrudelError> {
        let derived = read_derived(r).map_err(model_error)?;
        let include_global = r.bool().map_err(model_error)?;
        let forest = RandomForest::read_from(r).map_err(model_error)?;
        let features = LineFeatureConfig {
            derived,
            include_global,
        };
        validate_forest(&forest, "line", features.n_features())?;
        Ok(StrudelLine::from_parts(forest, features))
    }
}

impl StrudelCell {
    /// Serialize the full two-stage model.
    pub fn write_to<W: Write>(&self, w: &mut ModelWriter<W>) -> io::Result<()> {
        self.line_model().write_to(w)?;
        write_derived(w, &self.feature_config().derived)?;
        self.forest().write_to(w)
    }

    /// Deserialize a model written by [`StrudelCell::write_to`].
    pub fn read_from<R: Read>(r: &mut ModelReader<R>) -> Result<StrudelCell, StrudelError> {
        let line_model = StrudelLine::read_from(r)?;
        let derived = read_derived(r).map_err(model_error)?;
        let forest = RandomForest::read_from(r).map_err(model_error)?;
        validate_forest(&forest, "cell", N_CELL_FEATURES)?;
        Ok(StrudelCell::from_parts(
            line_model,
            forest,
            CellFeatureConfig { derived },
        ))
    }
}

impl Strudel {
    /// Serialize the pipeline model to any writer.
    pub fn write_to<W: Write>(&self, writer: W) -> Result<(), StrudelError> {
        let inner = || -> io::Result<()> {
            let mut w = ModelWriter::new(writer)?;
            self.cell_model().write_to(&mut w)?;
            w.finish().flush()
        };
        inner().map_err(|e| StrudelError::io(&e, None))
    }

    /// Deserialize a pipeline model from any reader. Truncated streams,
    /// bad magic/version, malformed forests, and forests inconsistent
    /// with the pipeline's feature arity or class count all yield a
    /// typed error — never a panic, neither here nor at predict time.
    pub fn read_from<R: Read>(reader: R) -> Result<Strudel, StrudelError> {
        let mut r = ModelReader::new(reader).map_err(model_error)?;
        Ok(Strudel::from_cell_model(StrudelCell::read_from(&mut r)?))
    }

    /// Save the model to a file.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), StrudelError> {
        let name = path.as_ref().display().to_string();
        let file = File::create(path.as_ref()).map_err(|e| StrudelError::io(&e, Some(&name)))?;
        self.write_to(BufWriter::new(file))
            .map_err(|e| e.with_file(name))
    }

    /// Load a model from a file.
    pub fn load(path: impl AsRef<Path>) -> Result<Strudel, StrudelError> {
        load_file(path.as_ref())
    }
}

/// The body of [`Strudel::load`], outside its generic signature so the
/// decoder is compiled once, here, and not per calling crate, where its
/// inlining would hang on that crate's code layout.
fn load_file(path: &Path) -> Result<Strudel, StrudelError> {
    let name = path.display().to_string();
    let file = File::open(path).map_err(|e| StrudelError::io(&e, Some(&name)))?;
    Strudel::read_from(BufReader::new(file)).map_err(|e| e.with_file(name))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell_classifier::StrudelCellConfig;
    use crate::line_classifier::tests::tiny_corpus;
    use crate::line_classifier::StrudelLineConfig;
    use strudel_ml::ForestConfig;

    /// `unwrap_err` without requiring `Debug` on the (large) model types.
    fn expect_err<T>(r: Result<T, StrudelError>) -> StrudelError {
        match r {
            Err(e) => e,
            Ok(_) => panic!("expected a StrudelError"),
        }
    }

    fn fitted() -> Strudel {
        let corpus = tiny_corpus(6);
        Strudel::fit(
            &corpus.files,
            &StrudelCellConfig {
                line: StrudelLineConfig {
                    forest: ForestConfig::fast(8, 1),
                    ..StrudelLineConfig::default()
                },
                forest: ForestConfig::fast(8, 2),
                ..StrudelCellConfig::default()
            },
        )
    }

    fn serialized() -> Vec<u8> {
        let mut buf = Vec::new();
        fitted().write_to(&mut buf).unwrap();
        buf
    }

    #[test]
    fn roundtrip_preserves_structure_detection() {
        let model = fitted();
        let mut buf = Vec::new();
        model.write_to(&mut buf).unwrap();
        let loaded = Strudel::read_from(buf.as_slice()).unwrap();

        let text = "Report on crime,,\nState,2019,2020\nBerlin,14,28\nTotal,14,28\n";
        let a = model.detect_structure(text);
        let b = loaded.detect_structure(text);
        assert_eq!(a.lines, b.lines);
        assert_eq!(a.cells.len(), b.cells.len());
        for (ca, cb) in a.cells.iter().zip(&b.cells) {
            assert_eq!(ca.class, cb.class);
            assert_eq!(ca.probs, cb.probs);
        }

        // Load → save writes the model file back byte for byte.
        let mut again = Vec::new();
        loaded.write_to(&mut again).unwrap();
        assert_eq!(again, buf);
    }

    #[test]
    fn save_and_load_via_file() {
        let model = fitted();
        let path =
            std::env::temp_dir().join(format!("strudel-model-test-{}.bin", std::process::id()));
        model.save(&path).unwrap();
        let loaded = Strudel::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let text = "a,1\nb,2\n";
        assert_eq!(
            model.detect_structure(text).lines,
            loaded.detect_structure(text).lines
        );
    }

    #[test]
    fn load_missing_file_is_io_error_with_path() {
        let err = expect_err(Strudel::load("/nonexistent/strudel-no-such-model.bin"));
        assert_eq!(err.category(), "io");
        assert!(err.file().unwrap().contains("strudel-no-such-model.bin"));
    }

    #[test]
    fn garbage_file_rejected() {
        let err = expect_err(Strudel::read_from(&b"garbage"[..]));
        // Either too short (truncation) or bad magic — both are Model.
        assert_eq!(err.category(), "model");
    }

    #[test]
    fn truncated_model_rejected_at_every_prefix() {
        let buf = serialized();
        // Every strict prefix must fail with a typed Model error; step by
        // a prime so the test stays fast on multi-kilobyte models.
        for len in (0..buf.len()).step_by(211) {
            let err = match Strudel::read_from(&buf[..len]) {
                Err(e) => e,
                Ok(_) => panic!("accepted a {len}-byte prefix of a {}-byte model", buf.len()),
            };
            assert_eq!(err.category(), "model", "prefix length {len}");
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let mut buf = serialized();
        buf[0] ^= 0xFF;
        let err = expect_err(Strudel::read_from(buf.as_slice()));
        assert_eq!(err.category(), "model");
        assert!(
            err.to_string().contains("not a Strudel model"),
            "got: {err}"
        );
    }

    #[test]
    fn bad_version_rejected() {
        let mut buf = serialized();
        // The version u32 follows the 8-byte magic.
        buf[8] = 0xFF;
        let err = expect_err(Strudel::read_from(buf.as_slice()));
        assert_eq!(err.category(), "model");
        assert!(err.to_string().contains("version"), "got: {err}");
    }

    #[test]
    fn out_of_range_class_count_rejected() {
        // Serialize a structurally valid forest with an inflated class
        // count: the forest itself decodes fine, but the pipeline
        // contract (n_classes == ElementClass::COUNT) is violated.
        let arity = ElementClass::COUNT + 3;
        let tree = strudel_ml::DecisionTree::from_raw_parts(
            vec![strudel_ml::RawNode::Leaf {
                proba: vec![1.0 / arity as f64; arity],
            }],
            arity,
        )
        .unwrap();
        let bogus = RandomForest::from_raw_parts(vec![tree], arity).unwrap();
        let mut buf = Vec::new();
        let mut w = ModelWriter::new(&mut buf).unwrap();
        write_derived(&mut w, &DerivedConfig::default()).unwrap();
        w.bool(false).unwrap();
        bogus.write_to(&mut w).unwrap();
        w.finish().flush().unwrap();

        let mut r = ModelReader::new(buf.as_slice()).unwrap();
        let err = expect_err(StrudelLine::read_from(&mut r));
        assert_eq!(err.category(), "model");
        assert!(err.to_string().contains("classes"), "got: {err}");
    }

    #[test]
    fn out_of_range_feature_index_rejected() {
        // A forest splitting on feature 999 is structurally valid but can
        // never be served by the line stage (14 + 4 features at most).
        let leaf = strudel_ml::RawNode::Leaf {
            proba: vec![1.0 / ElementClass::COUNT as f64; ElementClass::COUNT],
        };
        let tree = strudel_ml::DecisionTree::from_raw_parts(
            vec![
                strudel_ml::RawNode::Split {
                    feature: 999,
                    threshold: 0.5,
                    left: 1,
                    right: 2,
                },
                leaf.clone(),
                leaf,
            ],
            ElementClass::COUNT,
        )
        .unwrap();
        let bogus = RandomForest::from_raw_parts(vec![tree], ElementClass::COUNT).unwrap();

        let mut buf = Vec::new();
        let mut w = ModelWriter::new(&mut buf).unwrap();
        write_derived(&mut w, &DerivedConfig::default()).unwrap();
        w.bool(false).unwrap();
        bogus.write_to(&mut w).unwrap();
        w.finish().flush().unwrap();

        let mut r = ModelReader::new(buf.as_slice()).unwrap();
        let err = expect_err(StrudelLine::read_from(&mut r));
        assert_eq!(err.category(), "model");
        assert!(err.to_string().contains("feature index 999"), "got: {err}");
    }

    #[test]
    fn back_edge_rejected() {
        // A one-split tree whose left child is the split itself: walking
        // it would never reach a leaf for inputs that go left. The file
        // is written by hand, since no constructor accepts such a tree.
        let mut buf = Vec::new();
        let mut w = ModelWriter::new(&mut buf).unwrap();
        write_derived(&mut w, &DerivedConfig::default()).unwrap();
        w.bool(false).unwrap();
        w.usize(ElementClass::COUNT).unwrap();
        w.usize(1).unwrap();
        w.usize(ElementClass::COUNT).unwrap();
        w.usize(3).unwrap();
        w.bool(false).unwrap();
        w.usize(0).unwrap();
        w.f64(0.5).unwrap();
        w.usize(0).unwrap();
        w.usize(2).unwrap();
        for _ in 0..2 {
            w.bool(true).unwrap();
            w.f64_slice(&[1.0 / ElementClass::COUNT as f64; ElementClass::COUNT])
                .unwrap();
        }
        w.finish().flush().unwrap();

        let mut r = ModelReader::new(buf.as_slice()).unwrap();
        let err = expect_err(StrudelLine::read_from(&mut r));
        assert_eq!(err.category(), "model");
        assert!(err.to_string().contains("pre-order"), "got: {err}");
    }

    #[test]
    fn config_fields_roundtrip() {
        let corpus = tiny_corpus(4);
        let mut config = StrudelLineConfig {
            forest: ForestConfig::fast(5, 0),
            ..StrudelLineConfig::default()
        };
        config.features.derived.delta = 0.25;
        config.features.derived.detect_min_max = true;
        config.features.include_global = true;
        let model = StrudelLine::fit(&corpus.files, &config);
        let mut buf = Vec::new();
        let mut w = ModelWriter::new(&mut buf).unwrap();
        model.write_to(&mut w).unwrap();
        let mut r = ModelReader::new(buf.as_slice()).unwrap();
        let loaded = StrudelLine::read_from(&mut r).unwrap();
        assert_eq!(loaded.feature_config().derived.delta, 0.25);
        assert!(loaded.feature_config().derived.detect_min_max);
        assert!(loaded.feature_config().include_global);
    }
}
