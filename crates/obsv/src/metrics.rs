//! The metric registry: named counters, gauges and histograms.
//!
//! One [`Registry`] instance lives in every producer — a simulator, a
//! `NodeCore`, a reactor loop — and registers its metrics once, up front,
//! receiving dense integer handles ([`CounterId`], [`GaugeId`],
//! [`HistogramId`]). The hot path then updates by handle: a bounds-checked
//! vector index, no hashing, no locking. Per-node registries aggregate
//! into cluster-level snapshots with [`Registry::merge`] — counters add,
//! gauges take the high-water maximum, histograms fold bucket-wise — and
//! the result serializes through the bench crate's JSON emitter.
//!
//! Registration is idempotent per name, so "fill" helpers that copy a
//! legacy stats struct into a registry can re-run without duplicating
//! metrics.
//!
//! A registry stores no name of its own: an entry holds a `&'static str`
//! and a value, and each name is stored once per process. A canonical
//! name (a const of [`crate::names`], or a name a producer registers from
//! its own `&'static` array through [`Registry::register_counters`], as
//! `hyparview_core::stats::METRIC_NAMES` and
//! `hyparview_plumtree::state::METRIC_NAMES` are) is that static itself.
//! Any other name is copied once, the first time any registry meets it,
//! into a process-wide set of interned names that is never freed; every
//! later registration of it, merge into it and clone of it shares that
//! copy. A live process hosts thousands of nodes, each with its own
//! registry and a published mirror of it: each of those is one buffer of
//! entries and nothing more.

use crate::hist::Histogram;
use crate::names;
use std::collections::BTreeSet;
use std::sync::{Mutex, PoisonError};

/// Handle of a registered counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle of a registered gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Handle of a registered histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(usize);

/// A named metric store. See the [module docs](self) for the model.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    counters: Vec<(&'static str, u64)>,
    gauges: Vec<(&'static str, u64)>,
    histograms: Vec<(&'static str, Histogram)>,
}

/// The index of `name` in `entries`; a name not there yet is pushed first,
/// with a zero value, as `stored` gives it.
fn index<T: Default>(
    entries: &mut Vec<(&'static str, T)>,
    name: &str,
    stored: impl FnOnce() -> &'static str,
) -> usize {
    if let Some(index) = entries.iter().position(|(n, _)| *n == name) {
        return index;
    }
    entries.push((stored(), T::default()));
    entries.len() - 1
}

/// The one copy of `name` the process keeps: the canonical static of that
/// text, else the interned copy, made on first use.
fn stored(name: &str) -> &'static str {
    if let Some(canonical) = names::CANONICAL.iter().find(|canonical| **canonical == name) {
        return canonical;
    }
    static INTERNED: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());
    let mut interned = INTERNED.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(copy) = interned.get(name) {
        return copy;
    }
    let copy: &'static str = Box::leak(name.into());
    interned.insert(copy);
    copy
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Registers (or finds) the counter `name` and returns its handle.
    pub fn counter(&mut self, name: &str) -> CounterId {
        CounterId(index(&mut self.counters, name, || stored(name)))
    }

    /// Registers (or finds) each counter of `names`, in order, and returns
    /// their handles: what a producer holds on to so that refreshing a
    /// block of counters later ([`Registry::set_counters`]) searches no name.
    /// The statics are stored as they are, and the registry grows by
    /// exactly the names it did not hold.
    pub fn register_counters<const N: usize>(
        &mut self,
        names: &[&'static str; N],
    ) -> [CounterId; N] {
        let new =
            names.iter().filter(|name| !self.counters.iter().any(|(n, _)| n == *name)).count();
        self.counters.reserve_exact(new);
        names.map(|name| CounterId(index(&mut self.counters, name, || name)))
    }

    /// Registers (or finds) the gauge `name` and returns its handle.
    pub fn gauge(&mut self, name: &str) -> GaugeId {
        GaugeId(index(&mut self.gauges, name, || stored(name)))
    }

    /// Registers (or finds) the histogram `name` and returns its handle.
    pub fn histogram(&mut self, name: &str) -> HistogramId {
        HistogramId(index(&mut self.histograms, name, || stored(name)))
    }

    /// Increments a counter by one.
    pub fn inc(&mut self, id: CounterId) {
        self.counters[id.0].1 += 1;
    }

    /// Adds `n` to a counter.
    pub fn add(&mut self, id: CounterId, n: u64) {
        self.counters[id.0].1 += n;
    }

    /// Sets a counter to an absolute value (for snapshot fills).
    pub fn set_counter(&mut self, id: CounterId, value: u64) {
        self.counters[id.0].1 = value;
    }

    /// Sets each counter of `ids` to the value at the same position.
    pub fn set_counters<const N: usize>(&mut self, ids: &[CounterId; N], values: [u64; N]) {
        for (id, value) in ids.iter().zip(values) {
            self.set_counter(*id, value);
        }
    }

    /// Current value of a counter.
    pub fn counter_value(&self, id: CounterId) -> u64 {
        self.counters[id.0].1
    }

    /// Sets a gauge to `value`.
    pub fn set_gauge(&mut self, id: GaugeId, value: u64) {
        self.gauges[id.0].1 = value;
    }

    /// Raises a gauge to `value` if larger (high-water semantics).
    pub fn max_gauge(&mut self, id: GaugeId, value: u64) {
        let slot = &mut self.gauges[id.0].1;
        *slot = (*slot).max(value);
    }

    /// Current value of a gauge.
    pub fn gauge_value(&self, id: GaugeId) -> u64 {
        self.gauges[id.0].1
    }

    /// Records one sample into a histogram.
    pub fn record(&mut self, id: HistogramId, value: u64) {
        self.histograms[id.0].1.record(value);
    }

    /// Looks a metric value up by name, whatever its kind: counters and
    /// gauges yield their value, histograms their sample count. `None`
    /// when nothing of that name is registered — the lookup tests use
    /// this; hot paths use handles.
    pub fn value_by_name(&self, name: &str) -> Option<u64> {
        if let Some((_, v)) = self.counters.iter().find(|(n, _)| *n == name) {
            return Some(*v);
        }
        if let Some((_, v)) = self.gauges.iter().find(|(n, _)| *n == name) {
            return Some(*v);
        }
        self.histograms.iter().find(|(n, _)| *n == name).map(|(_, h)| h.count())
    }

    /// Registered counters as `(name, value)` pairs, registration order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> + '_ {
        self.counters.iter().map(|(n, v)| (*n, *v))
    }

    /// Registered gauges as `(name, value)` pairs, registration order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, u64)> + '_ {
        self.gauges.iter().map(|(n, v)| (*n, *v))
    }

    /// Registered histograms as `(name, histogram)` pairs.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> + '_ {
        self.histograms.iter().map(|(n, h)| (*n, h))
    }

    /// Folds `other` into `self` by metric name: counters add, gauges take
    /// the maximum (high-water aggregation across nodes), histograms merge
    /// bucket-wise. Names unknown to `self` are registered, so merging
    /// per-node registries into a fresh one yields the cluster snapshot.
    /// The names are `other`'s own statics: merging copies no name.
    pub fn merge(&mut self, other: &Registry) {
        for &(name, value) in &other.counters {
            let id = CounterId(index(&mut self.counters, name, || name));
            self.add(id, value);
        }
        for &(name, value) in &other.gauges {
            let id = GaugeId(index(&mut self.gauges, name, || name));
            self.max_gauge(id, value);
        }
        for &(name, ref hist) in &other.histograms {
            let id = index(&mut self.histograms, name, || name);
            self.histograms[id].1.merge(hist);
        }
    }

    /// Whether `self` registers as many counters, gauges and histograms as
    /// `other`: the condition [`Registry::copy_values_from`] asserts, and,
    /// for a mirror of a registry that only ever registers more names, the
    /// same layout. Reads three lengths per side and allocates nothing.
    pub fn same_layout(&self, other: &Registry) -> bool {
        self.counters.len() == other.counters.len()
            && self.gauges.len() == other.gauges.len()
            && self.histograms.len() == other.histograms.len()
    }

    /// Copies every metric *value* from `other`, which must have the exact
    /// same registration layout (same names, same order). This is the
    /// cheap publish path — plain value copies, no allocation — for a
    /// producer mirroring its registry into a shared snapshot each loop.
    ///
    /// # Panics
    ///
    /// Panics if the layouts differ.
    pub fn copy_values_from(&mut self, other: &Registry) {
        assert_eq!(self.counters.len(), other.counters.len(), "registry layout mismatch");
        assert_eq!(self.gauges.len(), other.gauges.len(), "registry layout mismatch");
        assert_eq!(self.histograms.len(), other.histograms.len(), "registry layout mismatch");
        for (mine, theirs) in self.counters.iter_mut().zip(&other.counters) {
            debug_assert_eq!(mine.0, theirs.0, "registry layout mismatch");
            mine.1 = theirs.1;
        }
        for (mine, theirs) in self.gauges.iter_mut().zip(&other.gauges) {
            debug_assert_eq!(mine.0, theirs.0, "registry layout mismatch");
            mine.1 = theirs.1;
        }
        for (mine, theirs) in self.histograms.iter_mut().zip(&other.histograms) {
            debug_assert_eq!(mine.0, theirs.0, "registry layout mismatch");
            mine.1.clone_from(&theirs.1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent() {
        let mut reg = Registry::new();
        let a = reg.counter("frames.sent");
        let b = reg.counter("frames.sent");
        assert_eq!(a, b);
        reg.inc(a);
        reg.add(b, 2);
        assert_eq!(reg.counter_value(a), 3);
        assert_eq!(reg.value_by_name("frames.sent"), Some(3));
        assert_eq!(reg.value_by_name("missing"), None);
    }

    #[test]
    fn gauges_support_set_and_high_water() {
        let mut reg = Registry::new();
        let g = reg.gauge("reactor.outq_high_water");
        reg.max_gauge(g, 5);
        reg.max_gauge(g, 3);
        assert_eq!(reg.gauge_value(g), 5);
        reg.set_gauge(g, 2);
        assert_eq!(reg.gauge_value(g), 2);
    }

    #[test]
    fn merge_aggregates_per_kind() {
        let mut a = Registry::new();
        let mut b = Registry::new();
        let ca = a.counter("c");
        a.add(ca, 2);
        let cb = b.counter("c");
        b.add(cb, 3);
        let gb = b.gauge("g");
        b.set_gauge(gb, 7);
        let hb = b.histogram("h");
        b.record(hb, 10);
        a.merge(&b);
        assert_eq!(a.value_by_name("c"), Some(5));
        assert_eq!(a.value_by_name("g"), Some(7));
        assert_eq!(a.value_by_name("h"), Some(1));
    }

    #[test]
    fn copy_values_is_a_value_level_mirror() {
        let make = |n: u64| {
            let mut reg = Registry::new();
            let c = reg.counter("c");
            reg.add(c, n);
            let g = reg.gauge("g");
            reg.set_gauge(g, n);
            reg
        };
        let mut shared = make(0);
        let live = make(9);
        assert!(shared.same_layout(&live) && !shared.same_layout(&Registry::new()));
        shared.copy_values_from(&live);
        assert_eq!(shared, live);
    }

    #[test]
    fn a_block_of_counters_is_set_by_handle() {
        let mut reg = Registry::new();
        let early = reg.counter("b");
        let ids = reg.register_counters(&["a", "b", "c"]);
        assert_eq!(ids[1], early, "registration finds what is there");
        reg.set_counters(&ids, [1, 2, 3]);
        assert_eq!(reg.counters().collect::<Vec<_>>(), [("b", 2), ("a", 1), ("c", 3)]);
    }
}
