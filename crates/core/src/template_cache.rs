//! Process-wide cache of matched-filter plans for transmitted chirps.
//!
//! Every distance estimate matched-filters each beep against the *same*
//! analytic chirp template (paper Eq. 9). Synthesising that template and
//! re-transforming it per call cost one chirp synthesis, one Hilbert
//! transform, and one forward FFT per capture. This cache — a
//! [`SlotCache`] like [`echo_dsp::plan::fft_plan`] — keys an
//! [`echo_dsp::correlate::MatchedFilterPlan`] on the beep parameters, so
//! a process re-pays the template only when the beep design changes
//! (ablation sweeps), not per authentication.
//!
//! Results are unchanged: the plan caches the exact spectrum the
//! per-call path computed, and correlation outputs are bit-identical to
//! [`echo_dsp::correlate::matched_filter_complex`].

use crate::config::BeepConfig;
use echo_dsp::correlate::MatchedFilterPlan;
use echo_dsp::hilbert::analytic_signal;
use echo_dsp::slot_cache::SlotCache;
use std::sync::Arc;

/// Beep parameters that determine the chirp template, as exact bits.
type TemplateKey = [u64; 4];

fn template_key(beep: &BeepConfig) -> TemplateKey {
    // `interval` spaces beeps in time but never reaches the template.
    [
        beep.f_start.to_bits(),
        beep.f_end.to_bits(),
        beep.duration.to_bits(),
        beep.sample_rate.to_bits(),
    ]
}

/// Distinct beep designs kept alive; runs use one, ablations a handful.
const CAPACITY: usize = 4;

/// The process-wide plans. A plan is synthesised outside the cache
/// lock; same-key racers share the one synthesis, counted as one miss,
/// so the `template_cache.hit` / `template_cache.miss` counters are
/// deterministic for a fixed workload at any worker count.
static CACHE: SlotCache<TemplateKey, MatchedFilterPlan> =
    SlotCache::new(CAPACITY, "template_cache.hit", "template_cache.miss");

/// Returns the matched-filter plan for `beep`'s *analytic* chirp
/// template (the one the distance estimator correlates beamformed
/// analytic signals against), computing and caching it on first use.
pub fn chirp_template_plan(beep: &BeepConfig) -> Arc<MatchedFilterPlan> {
    chirp_template_plan_classified(beep).0
}

/// [`chirp_template_plan`] that also reports whether the lookup hit the
/// cache, for trace-span attribution. Template lookups happen on the
/// serial distance-estimation path, so the returned flag is
/// deterministic for a fixed workload and cache state (unlike the
/// FFT-plan cache, whose parallel lookups coalesce racers).
pub fn chirp_template_plan_classified(beep: &BeepConfig) -> (Arc<MatchedFilterPlan>, bool) {
    CACHE.get_or_compute(template_key(beep), || {
        let chirp = beep.chirp().samples();
        MatchedFilterPlan::new_complex(&analytic_signal(&chirp))
    })
}

/// Number of templates currently cached (for tests and benchmarks).
pub fn template_cache_len() -> usize {
    CACHE.entry_count()
}

/// Empties the template cache (for tests needing a cold start).
pub fn clear_template_cache() {
    CACHE.clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_beep_shares_a_plan() {
        let a = chirp_template_plan(&BeepConfig::paper());
        let b = chirp_template_plan(&BeepConfig::paper());
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn different_beeps_get_different_plans() {
        let a = chirp_template_plan(&BeepConfig::paper());
        let mut other = BeepConfig::paper();
        other.duration = 0.004;
        let b = chirp_template_plan(&other);
        assert!(!Arc::ptr_eq(&a, &b));
        assert_ne!(a.template_len(), b.template_len());
    }

    #[test]
    fn interval_does_not_affect_the_template() {
        let a = chirp_template_plan(&BeepConfig::paper());
        let mut other = BeepConfig::paper();
        other.interval = 1.0;
        let b = chirp_template_plan(&other);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn cache_stays_bounded() {
        clear_template_cache();
        for i in 0..10 {
            let mut beep = BeepConfig::paper();
            beep.f_end = 3_000.0 + 10.0 * i as f64;
            let _ = chirp_template_plan(&beep);
        }
        assert!(template_cache_len() <= CAPACITY);
    }

    #[test]
    fn plan_matches_per_call_template() {
        let beep = BeepConfig::paper();
        let plan = chirp_template_plan(&beep);
        let chirp = beep.chirp().samples();
        assert_eq!(plan.template_len(), analytic_signal(&chirp).len());
    }
}
