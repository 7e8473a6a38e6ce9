//! The [`Comparator`] facade: one validated handle for all comparisons.
//!
//! Configuration is assembled with a builder, validated **once** at
//! [`ComparatorBuilder::build`], and the resulting [`Comparator`] exposes
//! every algorithm as a method —
//!
//! ```
//! use ic_model::{Catalog, Instance, Schema};
//! use ic_core::Comparator;
//!
//! let mut cat = Catalog::new(Schema::single("R", &["A", "B"]));
//! let rel = cat.schema().rel("R").unwrap();
//! let a = cat.konst("a");
//! let n = cat.fresh_null();
//! let m = cat.fresh_null();
//! let mut left = Instance::new("I", &cat);
//! left.insert(rel, vec![a, n]);
//! let mut right = Instance::new("J", &cat);
//! right.insert(rel, vec![a, m]);
//!
//! let cmp = Comparator::new(&cat).lambda(0.5).build().unwrap();
//! let result = cmp.compare(&left, &right).unwrap();
//! assert!((result.score() - 1.0).abs() < 1e-12); // isomorphic
//! ```
//!
//! Methods return [`crate::Error`] for the three failure classes: invalid
//! configuration (caught at `build`), per-call schema mismatches, and —
//! for the `_strict` variants — exhausted budgets.

use crate::error::Error;
use crate::exact::{exact_match, ExactConfig, ExactOutcome};
use crate::explain::explain;
use crate::mapping::MatchMode;
use crate::score::ScoreConfig;
use crate::signature::{
    signature_match, signature_match_seeded, InstanceSigMaps, SignatureConfig, SignatureOutcome,
};
use crate::similarity::Comparison;
use ic_model::{Catalog, Instance};
use std::sync::Arc;
use std::time::Duration;

/// Builder for a [`Comparator`]; created by [`Comparator::new`].
///
/// Defaults mirror the free-function configs: 1-1 matching, `λ = 0.5`,
/// complete matches, unbounded budget, the process-wide thread count, and
/// no observer.
pub struct ComparatorBuilder<'c> {
    catalog: &'c Catalog,
    mode: MatchMode,
    score: ScoreConfig,
    partial: bool,
    max_signatures_per_tuple: usize,
    budget: Option<Duration>,
    max_nodes: Option<u64>,
    threads: Option<usize>,
    observer: Option<(String, Arc<dyn ic_obs::Sink>)>,
}

impl std::fmt::Debug for ComparatorBuilder<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ComparatorBuilder")
            .field("mode", &self.mode)
            .field("score", &self.score)
            .field("partial", &self.partial)
            .field("budget", &self.budget)
            .field("threads", &self.threads)
            .finish_non_exhaustive()
    }
}

impl<'c> ComparatorBuilder<'c> {
    fn with_defaults(catalog: &'c Catalog) -> Self {
        let sig = SignatureConfig::default();
        Self {
            catalog,
            mode: sig.mode,
            score: sig.score,
            partial: sig.partial,
            max_signatures_per_tuple: sig.max_signatures_per_tuple,
            budget: None,
            max_nodes: None,
            threads: None,
            observer: None,
        }
    }

    /// Sets the λ penalty for null-to-constant cells (Def. 5.5).
    /// Validated at [`build`](Self::build): must be finite and in `[0, 1)`.
    pub fn lambda(mut self, lambda: f64) -> Self {
        self.score.lambda = lambda;
        self
    }

    /// Scores misaligned constant cells of partial matches by
    /// `weight · levenshtein_similarity` instead of 0 (Sec. 9 future work).
    pub fn string_sim_weight(mut self, weight: f64) -> Self {
        self.score.string_sim_weight = Some(weight);
        self
    }

    /// Sets the injectivity/totality restrictions of the tuple mapping.
    pub fn mode(mut self, mode: MatchMode) -> Self {
        self.mode = mode;
        self
    }

    /// Enables the partial-match variant (Sec. 6.3).
    pub fn partial(mut self, partial: bool) -> Self {
        self.partial = partial;
        self
    }

    /// Caps the signatures indexed per tuple in partial mode.
    pub fn max_signatures_per_tuple(mut self, cap: usize) -> Self {
        self.max_signatures_per_tuple = cap;
        self
    }

    /// Sets the wall-clock budget for both algorithms. On exhaustion the
    /// non-strict methods return the best partial result (flagged via
    /// `timed_out` / `optimal`); the `_strict` variants return
    /// [`Error::Budget`].
    pub fn budget(mut self, budget: Duration) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Caps the number of search nodes the exact algorithm may explore.
    pub fn max_nodes(mut self, max_nodes: u64) -> Self {
        self.max_nodes = Some(max_nodes);
        self
    }

    /// Pins the [`ic_pool`] thread count for every call through this
    /// comparator (`1` forces sequential execution). Results are
    /// bit-identical at any setting; this knob trades wall-clock for cores.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Installs an observer: every comparison method runs inside an
    /// `ic-obs` observation labeled `label`, and the finished report (span
    /// tree + metrics) is emitted to `sink`.
    pub fn observer(mut self, label: impl Into<String>, sink: Arc<dyn ic_obs::Sink>) -> Self {
        self.observer = Some((label.into(), sink));
        self
    }

    /// Validates the configuration and builds the [`Comparator`]. This is
    /// the **only** validation point: every method on the result can trust
    /// the scoring parameters.
    pub fn build(self) -> Result<Comparator<'c>, Error> {
        self.score.validate().map_err(Error::Config)?;
        Ok(Comparator {
            catalog: self.catalog,
            sig_cfg: SignatureConfig {
                mode: self.mode,
                score: self.score,
                partial: self.partial,
                max_signatures_per_tuple: self.max_signatures_per_tuple,
                budget: self.budget,
            },
            exact_cfg: ExactConfig {
                mode: self.mode,
                score: self.score,
                budget: self.budget,
                max_nodes: self.max_nodes,
            },
            threads: self.threads,
            observer: self.observer,
        })
    }
}

/// A validated comparison handle over one catalog. Built with
/// [`Comparator::new`]`(catalog).….build()?`; see the [module
/// docs](self) for an example.
pub struct Comparator<'c> {
    catalog: &'c Catalog,
    sig_cfg: SignatureConfig,
    exact_cfg: ExactConfig,
    threads: Option<usize>,
    observer: Option<(String, Arc<dyn ic_obs::Sink>)>,
}

impl std::fmt::Debug for Comparator<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Comparator")
            .field("sig_cfg", &self.sig_cfg)
            .field("exact_cfg", &self.exact_cfg)
            .field("threads", &self.threads)
            .finish_non_exhaustive()
    }
}

impl<'c> Comparator<'c> {
    /// Starts building a comparator over `catalog`.
    // `new` deliberately returns the builder, not Self: the public entry
    // point is `Comparator::new(catalog).lambda(..).build()?`.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(catalog: &'c Catalog) -> ComparatorBuilder<'c> {
        ComparatorBuilder::with_defaults(catalog)
    }

    /// The signature-algorithm configuration the builder produced.
    pub fn signature_config(&self) -> &SignatureConfig {
        &self.sig_cfg
    }

    /// The exact-algorithm configuration the builder produced.
    pub fn exact_config(&self) -> &ExactConfig {
        &self.exact_cfg
    }

    /// The catalog this comparator was built over.
    pub fn catalog(&self) -> &'c Catalog {
        self.catalog
    }

    /// Rejects instances that were not built for this comparator's catalog
    /// (their relation ids would be interpreted against the wrong schema).
    fn check_instance(&self, inst: &Instance) -> Result<(), Error> {
        let expected = self.catalog.schema().len();
        if inst.num_relations() != expected {
            return Err(Error::SchemaMismatch {
                expected,
                found: inst.num_relations(),
            });
        }
        Ok(())
    }

    /// Runs `f` under this comparator's thread-count pin and observer.
    fn run<R>(&self, f: impl FnOnce() -> R) -> R {
        let threads = self.threads;
        let with_pool = move || match threads {
            Some(n) => ic_pool::with_threads(n, f),
            None => f(),
        };
        if let Some((label, sink)) = &self.observer {
            let _obs = ic_obs::observe(label.clone(), Arc::clone(sink));
            return with_pool();
        }
        with_pool()
    }

    /// Compares two instances with the signature algorithm and derives the
    /// cell-level diff — the common "what changed and how much?" query.
    pub fn compare(&self, left: &Instance, right: &Instance) -> Result<Comparison, Error> {
        self.compare_with_maps(left, right, None, None)
    }

    /// Batch variant of [`compare`](Self::compare): scores many pairs
    /// concurrently on the [`ic_pool`] workers, one comparison per pair,
    /// preserving input order. Within a worker the per-pair algorithms
    /// run sequentially (nested pool scopes execute inline), so the worker
    /// count stays bounded. Results are bit-identical to a sequential loop
    /// at any thread count.
    pub fn compare_many(&self, pairs: &[(&Instance, &Instance)]) -> Result<Vec<Comparison>, Error> {
        for &(l, r) in pairs {
            self.check_instance(l)?;
            self.check_instance(r)?;
        }
        Ok(self.run(|| {
            let _span = crate::obs::span("compare_many");
            crate::obs::counter("compare_many.pairs", pairs.len() as u64);
            ic_pool::par_map(pairs, |&(left, right)| {
                let _span = crate::obs::span("compare.pair");
                self.explained(left, right, None, None)
            })
        }))
    }

    /// Runs the PTIME signature algorithm, returning the full outcome
    /// (match, step attribution, timing, budget flag).
    pub fn signature(&self, left: &Instance, right: &Instance) -> Result<SignatureOutcome, Error> {
        self.signature_with_maps(left, right, None, None)
    }

    /// Builds the reusable per-relation signature maps of `inst` under this
    /// comparator's configuration — the seed for
    /// [`signature_with_maps`](Self::signature_with_maps) /
    /// [`compare_with_maps`](Self::compare_with_maps).
    pub fn build_maps(&self, inst: &Instance) -> Result<InstanceSigMaps, Error> {
        self.check_instance(inst)?;
        Ok(self.run(|| InstanceSigMaps::build(inst, &self.sig_cfg)))
    }

    /// [`signature`](Self::signature) seeded with prebuilt maps for either
    /// side — byte-identical under the contract of
    /// [`crate::signature_match_seeded`], skipping the seeded sides' map
    /// builds.
    pub fn signature_with_maps(
        &self,
        left: &Instance,
        right: &Instance,
        left_maps: Option<&InstanceSigMaps>,
        right_maps: Option<&InstanceSigMaps>,
    ) -> Result<SignatureOutcome, Error> {
        self.check_instance(left)?;
        self.check_instance(right)?;
        Ok(self.run(|| {
            signature_match_seeded(
                left,
                right,
                self.catalog,
                &self.sig_cfg,
                left_maps,
                right_maps,
            )
        }))
    }

    /// [`compare`](Self::compare) seeded with prebuilt maps for either
    /// side — byte-identical under the contract of
    /// [`crate::signature_match_seeded`].
    pub fn compare_with_maps(
        &self,
        left: &Instance,
        right: &Instance,
        left_maps: Option<&InstanceSigMaps>,
        right_maps: Option<&InstanceSigMaps>,
    ) -> Result<Comparison, Error> {
        self.check_instance(left)?;
        self.check_instance(right)?;
        Ok(self.run(|| self.explained(left, right, left_maps, right_maps)))
    }

    /// The signature run and its explanation, under the `compare` span:
    /// the body of every `compare*` method, run inside [`Self::run`].
    fn explained(
        &self,
        left: &Instance,
        right: &Instance,
        left_maps: Option<&InstanceSigMaps>,
        right_maps: Option<&InstanceSigMaps>,
    ) -> Comparison {
        let _span = crate::obs::span("compare");
        let outcome = signature_match_seeded(
            left,
            right,
            self.catalog,
            &self.sig_cfg,
            left_maps,
            right_maps,
        );
        let diff = {
            let _span = crate::obs::span("compare.explain");
            explain(&outcome.best, left, right)
        };
        Comparison { outcome, diff }
    }

    /// Runs the exact branch-and-bound. A budget/node-limit stop is *not*
    /// an error here — inspect [`ExactOutcome::optimal`]; use
    /// [`exact_strict`](Self::exact_strict) to turn it into one.
    pub fn exact(&self, left: &Instance, right: &Instance) -> Result<ExactOutcome, Error> {
        self.check_instance(left)?;
        self.check_instance(right)?;
        Ok(self.run(|| exact_match(left, right, self.catalog, &self.exact_cfg)))
    }

    /// Like [`exact`](Self::exact) but demands a proven optimum: returns
    /// [`Error::Budget`] if the search stopped on the budget or node limit.
    pub fn exact_strict(&self, left: &Instance, right: &Instance) -> Result<ExactOutcome, Error> {
        let out = self.exact(left, right)?;
        if !out.optimal {
            return Err(Error::Budget {
                budget: self.exact_cfg.budget,
                elapsed: out.elapsed,
            });
        }
        Ok(out)
    }

    /// Like [`signature`](Self::signature) but demands a complete run:
    /// returns [`Error::Budget`] if the wall-clock budget expired first.
    pub fn signature_strict(
        &self,
        left: &Instance,
        right: &Instance,
    ) -> Result<SignatureOutcome, Error> {
        let out = self.signature(left, right)?;
        if out.timed_out {
            return Err(Error::Budget {
                budget: self.sig_cfg.budget,
                elapsed: out.elapsed,
            });
        }
        Ok(out)
    }

    /// Both algorithms on the same inputs — for evaluations reporting the
    /// (exact, signature) pair, e.g. the paper's <1%-gap claim (Sec. 7).
    pub fn both(
        &self,
        left: &Instance,
        right: &Instance,
    ) -> Result<(ExactOutcome, SignatureOutcome), Error> {
        self.check_instance(left)?;
        self.check_instance(right)?;
        Ok(self.run(|| {
            (
                exact_match(left, right, self.catalog, &self.exact_cfg),
                signature_match(left, right, self.catalog, &self.sig_cfg),
            )
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::score::ConfigError;
    use ic_model::{RelId, Schema};

    fn small_pair(cat: &mut Catalog) -> (Instance, Instance) {
        let rel = RelId(0);
        let a = cat.konst("a");
        let b = cat.konst("b");
        let n = cat.fresh_null();
        let m = cat.fresh_null();
        let mut l = Instance::new("I", cat);
        l.insert(rel, vec![a, n]);
        l.insert(rel, vec![b, a]);
        let mut r = Instance::new("J", cat);
        r.insert(rel, vec![a, m]);
        r.insert(rel, vec![b, a]);
        (l, r)
    }

    #[test]
    fn build_validates_once() {
        let cat = Catalog::new(Schema::single("R", &["A", "B"]));
        let err = Comparator::new(&cat).lambda(f64::NAN).build().unwrap_err();
        assert!(matches!(
            err,
            Error::Config(ConfigError::NonFiniteLambda(_))
        ));
        assert!(Comparator::new(&cat).lambda(0.3).build().is_ok());
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        let mut cat = Catalog::new(Schema::single("R", &["A"]));
        let a = cat.konst("a");
        let mut ok = Instance::new("I", &cat);
        ok.insert(RelId(0), vec![a]);

        let mut schema2 = Schema::new();
        schema2.add_relation(ic_model::RelationSchema::new("R", &["A"]));
        schema2.add_relation(ic_model::RelationSchema::new("S", &["B"]));
        let other_cat = Catalog::new(schema2);
        let foreign = Instance::new("X", &other_cat);

        let cmp = Comparator::new(&cat).build().unwrap();
        assert!(cmp.compare(&ok, &ok).is_ok());
        let err = cmp.compare(&ok, &foreign).unwrap_err();
        assert!(matches!(
            err,
            Error::SchemaMismatch {
                expected: 1,
                found: 2
            }
        ));
        // Batch checks every pair up front.
        assert!(cmp.compare_many(&[(&ok, &foreign)]).is_err());
    }

    #[test]
    fn exact_strict_flags_budget_exhaustion() {
        let mut cat = Catalog::new(Schema::single("R", &["A"]));
        let rel = RelId(0);
        let mut l = Instance::new("I", &cat);
        let mut r = Instance::new("J", &cat);
        for _ in 0..8 {
            let n = cat.fresh_null();
            l.insert(rel, vec![n]);
            r.insert(rel, vec![n]);
        }
        let cmp = Comparator::new(&cat)
            .mode(MatchMode::general())
            .max_nodes(5)
            .build()
            .unwrap();
        // Non-strict: partial result, no error.
        let out = cmp.exact(&l, &r).unwrap();
        assert!(!out.optimal);
        // Strict: the stop becomes a Budget error.
        assert!(matches!(
            cmp.exact_strict(&l, &r),
            Err(Error::Budget { .. })
        ));
    }

    #[test]
    fn threads_pin_is_bit_identical() {
        let mut cat = Catalog::new(Schema::single("R", &["A", "B"]));
        let (l, r) = small_pair(&mut cat);
        let seq = Comparator::new(&cat).threads(1).build().unwrap();
        let par = Comparator::new(&cat).threads(4).build().unwrap();
        let a = seq.compare(&l, &r).unwrap();
        let b = par.compare(&l, &r).unwrap();
        assert_eq!(a.score().to_bits(), b.score().to_bits());
        assert_eq!(a.outcome.best.pairs, b.outcome.best.pairs);
    }

    #[test]
    fn observer_captures_span_tree() {
        let mut cat = Catalog::new(Schema::single("R", &["A", "B"]));
        let (l, r) = small_pair(&mut cat);
        let sink = Arc::new(ic_obs::MemorySink::new());
        let cmp = Comparator::new(&cat)
            .observer("unit", sink.clone())
            .build()
            .unwrap();
        cmp.compare(&l, &r).unwrap();
        let report = sink.last().expect("one report per compare call");
        assert_eq!(report.label, "unit");
        // The acceptance-criteria span set: sigmap build, probe, completion
        // and scoring, all under compare > signature.
        for path in [
            &["compare", "signature", "signature.sigmap_build"][..],
            &["compare", "signature", "signature.probe"][..],
            &["compare", "signature", "signature.complete"][..],
            &["compare", "signature", "score"][..],
        ] {
            assert!(
                report.find_span(path).is_some(),
                "missing span {path:?} in:\n{}",
                report.render_tree()
            );
        }
        assert!(report.counter("score.pairs").unwrap_or(0) > 0);
    }
}
