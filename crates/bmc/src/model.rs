//! [`ReducedModel`] — a pre-reduced design handle.
//!
//! The rewrite → fraig preprocessing pipeline runs once, up front, and
//! the handle carries the reduced design together with the pass
//! statistics and wall times. Single-engine callers never see it
//! ([`crate::BmcEngine::new`] builds one internally), but multi-engine
//! drivers — [`crate::pba`]'s refinement loops and the
//! [`VerificationServer`](crate::server::VerificationServer) — reduce
//! once and hand every engine the same handle through
//! [`crate::BmcEngine::with_model`], instead of repeating the identical
//! passes per engine.

use std::borrow::Cow;
use std::time::Instant;

use emm_aig::{
    fraig_design_governed, rewrite_design_governed, Design, FraigConfig, FraigStats, RewriteConfig,
    RewriteStats,
};
use emm_core::Pool;
use emm_sat::ResourceGovernor;

/// A design together with its preprocessed (rewritten and/or fraiged)
/// copy: the model the engine actually encodes, plus the original the
/// counterexample traces are validated against. When neither pass ran
/// (or changed anything worth owning), the model borrows the original.
#[derive(Clone, Debug)]
pub struct ReducedModel<'d> {
    pub(crate) original: &'d Design,
    pub(crate) model: Cow<'d, Design>,
    pub(crate) rewrite_stats: Option<RewriteStats>,
    pub(crate) fraig_stats: Option<FraigStats>,
    pub(crate) rewrite_seconds: f64,
    pub(crate) fraig_seconds: f64,
}

impl<'d> ReducedModel<'d> {
    /// Runs the preprocessing pipeline (rewrite, then fraig — the order
    /// matters: rewriting restructures inequivalent logic and re-strashes
    /// the graph, which feeds fraig better merge candidates) on a private
    /// copy of `design`, honoring each pass's `enabled` flag.
    ///
    /// The fraig sweep ([`fraig_design_governed`]) runs its candidate
    /// classes on an in-tree [`Pool`] of `workers` threads. `0` and `1`
    /// both run them inline on the caller's thread, and the reduced model
    /// and its stats are identical at every worker count.
    pub fn reduce(
        design: &'d Design,
        rewrite: &RewriteConfig,
        fraig: &FraigConfig,
        governor: &ResourceGovernor,
        workers: usize,
    ) -> ReducedModel<'d> {
        let mut reduced: Option<Design> = None;
        let mut rewrite_stats = None;
        let mut fraig_stats = None;
        let mut rewrite_seconds = 0.0;
        let mut fraig_seconds = 0.0;
        if design.num_gates() > 0 {
            if rewrite.enabled {
                let model = reduced.get_or_insert_with(|| design.clone());
                let t = Instant::now();
                rewrite_stats = Some(rewrite_design_governed(model, governor));
                rewrite_seconds = t.elapsed().as_secs_f64();
            }
            if fraig.enabled {
                let model = reduced.get_or_insert_with(|| design.clone());
                let t = Instant::now();
                let pool = Pool::new(workers).with_governor(governor.clone());
                fraig_stats = Some(fraig_design_governed(model, governor, &pool));
                fraig_seconds = t.elapsed().as_secs_f64();
            }
        }
        let model = match reduced {
            Some(m) => Cow::Owned(m),
            None => Cow::Borrowed(design),
        };
        ReducedModel {
            original: design,
            model,
            rewrite_stats,
            fraig_stats,
            rewrite_seconds,
            fraig_seconds,
        }
    }

    /// Wraps `design` without running any pass — the identity handle, for
    /// callers that already reduced the design elsewhere or want none.
    pub fn unreduced(design: &'d Design) -> ReducedModel<'d> {
        ReducedModel {
            original: design,
            model: Cow::Borrowed(design),
            rewrite_stats: None,
            fraig_stats: None,
            rewrite_seconds: 0.0,
            fraig_seconds: 0.0,
        }
    }

    /// The design as handed in — the reference semantics.
    pub fn original(&self) -> &'d Design {
        self.original
    }

    /// The model to encode: the reduced copy, or the original when no
    /// pass ran. Interface structure (properties, latches, inputs,
    /// memories) is identical to the original.
    pub fn model(&self) -> &Design {
        &self.model
    }

    /// Counters of the rewrite pass, when it ran.
    pub fn rewrite_stats(&self) -> Option<&RewriteStats> {
        self.rewrite_stats.as_ref()
    }

    /// Counters of the fraig pass, when it ran.
    pub fn fraig_stats(&self) -> Option<&FraigStats> {
        self.fraig_stats.as_ref()
    }

    /// Wall-clock seconds of the two passes: `(rewrite, fraig)`.
    pub fn seconds(&self) -> (f64, f64) {
        (self.rewrite_seconds, self.fraig_seconds)
    }
}
