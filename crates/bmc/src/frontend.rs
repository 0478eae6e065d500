//! [`ModelSource`] — the frontend entry point that turns AIGER/BTOR2
//! files into verification jobs.
//!
//! The readers themselves live with the AIG ([`emm_aig::aiger`],
//! [`emm_aig::btor2`]); this module is the glue that the engines and the
//! [`VerificationServer`] consume:
//!
//! * [`ModelSource`] names where a model comes from — an in-memory
//!   [`Design`], raw AIGER bytes, BTOR2 text, or a path whose extension
//!   selects the format (`.aag`/`.aig` → AIGER, `.btor`/`.btor2` →
//!   BTOR2);
//! * [`ModelSource::load`] parses it into an `Arc<Design>` ready for
//!   [`VerifyRequest`] submission or a direct
//!   [`BmcEngine`] construction;
//! * [`ModelSource::verify`] is the one-call path: load, then check on
//!   one [`BmcEngine`] exactly like a server worker would;
//! * [`VerificationServer::submit_model`](crate::VerificationServer::submit_model)
//!   loads a source **once** and queues every property of the design as
//!   its own job, sharing the pre-reduction across them.
//!
//! ```no_run
//! use emm_bmc::frontend::ModelSource;
//! use emm_bmc::{VerifyBudget, VerifyOptions};
//!
//! let source = ModelSource::from_path("designs/fifo.btor2");
//! let (verdict, depth) = source
//!     .verify(0, &VerifyBudget::default(), VerifyOptions::default())
//!     .expect("readable model");
//! println!("property 0: {verdict:?} at depth {depth}");
//! ```

use std::path::{Path, PathBuf};
use std::sync::Arc;

use emm_aig::aiger::{read_aiger, ParseAigerError};
use emm_aig::btor2::{read_btor2, ParseBtor2Error};
use emm_aig::Design;

use crate::engine::{BmcEngine, BmcVerdict};
use crate::options::VerifyOptions;
use crate::server::{VerificationServer, VerifyBudget, VerifyRequest};

/// A frontend file format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelFormat {
    /// AIGER, ASCII (`aag`) or binary (`aig`) — auto-detected by magic.
    Aiger,
    /// BTOR2 text.
    Btor2,
}

impl ModelFormat {
    /// Maps a file extension to a format, case-insensitively.
    pub fn from_extension(ext: &str) -> Option<ModelFormat> {
        match ext.to_ascii_lowercase().as_str() {
            "aag" | "aig" => Some(ModelFormat::Aiger),
            "btor" | "btor2" => Some(ModelFormat::Btor2),
            _ => None,
        }
    }

    /// Detects the format of a path from its extension.
    pub fn from_path(path: &Path) -> Option<ModelFormat> {
        path.extension()
            .and_then(|e| e.to_str())
            .and_then(ModelFormat::from_extension)
    }
}

/// Error loading or verifying a [`ModelSource`].
#[derive(Debug)]
pub enum FrontendError {
    /// The file could not be read.
    Io {
        /// The offending path.
        path: PathBuf,
        /// The I/O error text.
        message: String,
    },
    /// The path's extension names no supported format.
    UnknownFormat(PathBuf),
    /// AIGER parsing failed.
    Aiger(ParseAigerError),
    /// BTOR2 parsing failed.
    Btor2(ParseBtor2Error),
    /// The requested property index does not exist.
    PropertyOutOfRange {
        /// The requested index.
        property: usize,
        /// Number of properties the design has.
        available: usize,
    },
    /// The engine reported an error (spurious trace).
    Engine(String),
}

impl std::fmt::Display for FrontendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrontendError::Io { path, message } => {
                write!(f, "cannot read {}: {message}", path.display())
            }
            FrontendError::UnknownFormat(path) => write!(
                f,
                "{}: unknown model format (expected .aag, .aig, .btor or .btor2)",
                path.display()
            ),
            FrontendError::Aiger(e) => write!(f, "{e}"),
            FrontendError::Btor2(e) => write!(f, "{e}"),
            FrontendError::PropertyOutOfRange {
                property,
                available,
            } => write!(
                f,
                "property index {property} out of range (design has {available})"
            ),
            FrontendError::Engine(msg) => write!(f, "engine error: {msg}"),
        }
    }
}

impl std::error::Error for FrontendError {}

impl From<ParseAigerError> for FrontendError {
    fn from(e: ParseAigerError) -> FrontendError {
        FrontendError::Aiger(e)
    }
}

impl From<ParseBtor2Error> for FrontendError {
    fn from(e: ParseBtor2Error) -> FrontendError {
        FrontendError::Btor2(e)
    }
}

/// Where a model comes from. See the module docs.
#[derive(Debug, Clone)]
pub enum ModelSource {
    /// An already-built design.
    Design(Arc<Design>),
    /// AIGER bytes (ASCII or binary, auto-detected).
    AigerBytes(Vec<u8>),
    /// BTOR2 text.
    Btor2Text(String),
    /// A file on disk; the extension selects the parser.
    Path(PathBuf),
}

impl ModelSource {
    /// A source reading `path` at load time.
    pub fn from_path(path: impl Into<PathBuf>) -> ModelSource {
        ModelSource::Path(path.into())
    }

    /// Parses the source into a shareable design.
    ///
    /// Every call re-reads and re-parses file/byte sources; load once and
    /// clone the returned `Arc` when several jobs should share one
    /// pre-reduction (or use
    /// [`VerificationServer::submit_model`](crate::VerificationServer::submit_model),
    /// which does exactly that).
    ///
    /// # Errors
    ///
    /// Returns [`FrontendError`] on unreadable files, unknown extensions,
    /// and parse failures.
    pub fn load(&self) -> Result<Arc<Design>, FrontendError> {
        match self {
            ModelSource::Design(d) => Ok(Arc::clone(d)),
            ModelSource::AigerBytes(bytes) => Ok(Arc::new(read_aiger(bytes)?)),
            ModelSource::Btor2Text(text) => Ok(Arc::new(read_btor2(text)?)),
            ModelSource::Path(path) => {
                let format = ModelFormat::from_path(path)
                    .ok_or_else(|| FrontendError::UnknownFormat(path.clone()))?;
                let bytes = std::fs::read(path).map_err(|e| FrontendError::Io {
                    path: path.clone(),
                    message: e.to_string(),
                })?;
                match format {
                    ModelFormat::Aiger => Ok(Arc::new(read_aiger(&bytes)?)),
                    ModelFormat::Btor2 => {
                        let text = String::from_utf8(bytes).map_err(|e| FrontendError::Io {
                            path: path.clone(),
                            message: format!("not UTF-8: {e}"),
                        })?;
                        Ok(Arc::new(read_btor2(&text)?))
                    }
                }
            }
        }
    }

    /// Loads the source and checks one property under the schedule
    /// [`PipelineOptions::proof_engine`](crate::PipelineOptions::proof_engine)
    /// selects, returning the verdict and the depth reached — the same
    /// check a [`VerificationServer`] worker runs.
    ///
    /// # Errors
    ///
    /// Returns [`FrontendError`] on load failures, out-of-range property
    /// indices, and engine errors.
    pub fn verify(
        &self,
        property: usize,
        budget: &VerifyBudget,
        options: VerifyOptions,
    ) -> Result<(BmcVerdict, usize), FrontendError> {
        let design = self.load()?;
        if property >= design.properties().len() {
            return Err(FrontendError::PropertyOutOfRange {
                property,
                available: design.properties().len(),
            });
        }
        let options = options
            .solve_budget(budget.solve.clone())
            .wall_limit(budget.wall_limit);
        let run = BmcEngine::new(&design, options)
            .check(property, budget.max_depth)
            .map_err(|e| FrontendError::Engine(e.to_string()))?;
        Ok((run.verdict, run.depth_reached))
    }
}

impl VerificationServer {
    /// Loads `source` once and queues one job per property of the parsed
    /// design, all sharing the loaded `Arc` (and therefore one
    /// pre-reduction). Returns the job ids in property order.
    ///
    /// # Errors
    ///
    /// Returns [`FrontendError`] when loading fails; nothing is queued in
    /// that case.
    pub fn submit_model(
        &mut self,
        source: &ModelSource,
        budget: &VerifyBudget,
        options: &VerifyOptions,
    ) -> Result<Vec<usize>, FrontendError> {
        let design = source.load()?;
        let ids = (0..design.properties().len())
            .map(|property| {
                self.submit(VerifyRequest {
                    design: Arc::clone(&design),
                    property,
                    budget: budget.clone(),
                    options: options.clone(),
                })
            })
            .collect();
        Ok(ids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::ProofEngine;
    use emm_aig::{Design, LatchInit};

    fn counter_btor2() -> String {
        let mut d = Design::new();
        let count = d.new_latch_word("count", 3, LatchInit::Zero);
        let next = d.aig.inc(&count);
        d.set_next_word(&count, &next);
        let bad = d.aig.eq_const(&count, 5);
        d.add_property("reaches5", bad);
        d.check().expect("well-formed");
        emm_aig::btor2::write_btor2(&d).expect("writable")
    }

    #[test]
    fn format_detection() {
        assert_eq!(
            ModelFormat::from_path(Path::new("x/y.AIG")),
            Some(ModelFormat::Aiger)
        );
        assert_eq!(
            ModelFormat::from_path(Path::new("z.btor2")),
            Some(ModelFormat::Btor2)
        );
        assert_eq!(ModelFormat::from_path(Path::new("z.vhdl")), None);
        assert!(matches!(
            ModelSource::from_path("z.vhdl").load(),
            Err(FrontendError::UnknownFormat(_))
        ));
        assert!(matches!(
            ModelSource::from_path("missing.aag").load(),
            Err(FrontendError::Io { .. })
        ));
    }

    #[test]
    fn verify_dispatches_both_engines() {
        let source = ModelSource::Btor2Text(counter_btor2());
        let (verdict, depth) = source
            .verify(0, &VerifyBudget::default(), VerifyOptions::default())
            .expect("verify");
        assert!(verdict.is_counterexample());
        assert_eq!(depth, 5);
        let kind = VerifyOptions::default().proof_engine(ProofEngine::KInduction);
        let (verdict, _) = source
            .verify(0, &VerifyBudget::default(), kind)
            .expect("verify");
        assert!(verdict.is_counterexample());
    }

    #[test]
    fn submit_model_queues_every_property() {
        let mut text = counter_btor2();
        // A second property via a fresh design with two bads.
        let mut d2 = emm_aig::btor2::read_btor2(&text).expect("parse");
        let count = emm_aig::Word(d2.latches().iter().map(|l| l.output).collect());
        let bad2 = d2.aig.eq_const(&count, 7);
        d2.add_property("reaches7", bad2);
        d2.check().expect("well-formed");
        text = emm_aig::btor2::write_btor2(&d2).expect("writable");

        let mut server = VerificationServer::new(2);
        let ids = server
            .submit_model(
                &ModelSource::Btor2Text(text),
                &VerifyBudget::default(),
                &VerifyOptions::default(),
            )
            .expect("submit");
        assert_eq!(ids, vec![0, 1]);
        let responses = server.run();
        assert_eq!(responses.len(), 2);
        assert!(responses.iter().all(|r| r.verdict.is_counterexample()));
    }
}
