//! The sink trait, counters, phases, spans and the default accumulator.

use crate::tally::Tally;

/// Declares one observation enum from its single table: each row is a
/// variant, its doc comment and its stable snake_case name. `ALL`,
/// `name()` and the storage index all derive from the row order, so
/// adding an observation is a one-row edit.
macro_rules! schema {
    (
        $(#[$meta:meta])*
        pub enum $name:ident {
            $( $(#[$vmeta:meta])* $variant:ident => $snake:literal, )+
        }
    ) => {
        $(#[$meta])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        pub enum $name {
            $( $(#[$vmeta])* $variant, )+
        }

        impl $name {
            /// Every variant, in reporting order.
            pub const ALL: [$name; [$($snake),+].len()] = [$($name::$variant),+];

            /// Stable snake_case name (JSON field).
            pub fn name(self) -> &'static str {
                match self {
                    $( $name::$variant => $snake, )+
                }
            }

            fn index(self) -> usize {
                self as usize
            }
        }
    };
}

schema! {
    /// Service-time components, as charged by the disk simulator.
    ///
    /// The simulator's `RequestTiming` folds seek, settle and head-switch
    /// time into one positioning figure; telemetry splits it back out by
    /// classifying each transition against the geometry's settle plateau
    /// (`ServiceEvent::transition` in `multimap-disksim`): positioning that
    /// fits under the plateau is an adjacency hop and lands in
    /// [`Phase::Settle`], anything longer is a real [`Phase::Seek`]. The
    /// phase sums add up *exactly* to the observed total service time —
    /// the conformance oracle checks this. Requests that hit an injected
    /// fault additionally charge their retry/remap time to
    /// [`Phase::Recovery`]; fault-free runs never record that phase, so
    /// their metrics stay bit-identical to builds without fault support.
    pub enum Phase {
        /// Command/controller overhead.
        Overhead => "overhead",
        /// Positioning beyond the settle plateau (a real arm movement).
        Seek => "seek",
        /// Positioning within the settle plateau (adjacency hops and head
        /// switches — the semi-sequential currency of the paper).
        Settle => "settle",
        /// Rotational latency.
        Rotation => "rotation",
        /// Media transfer.
        Transfer => "transfer",
        /// Fault-recovery time: retry backoff, timeout burn and the extra
        /// positioning paid by remapped (degraded) segments.
        Recovery => "recovery",
        /// Cache write-back flush time — a *memo* phase: the flush batch
        /// total recorded by the page cache's write-back batcher on top of
        /// the per-event decomposition (which already lands in the phases
        /// above). Excluded from [`Metrics::phase_sum_ms`] so the
        /// phase-sum = total-service-time reconciliation stays exact; it
        /// labels how much of that total was write-back traffic.
        Writeback => "writeback",
    }
}

impl Phase {
    /// Whether this phase is a memo line (an overlay labelling part of
    /// the total) rather than a disjoint component of service time.
    /// Memo phases are excluded from [`Metrics::phase_sum_ms`].
    pub fn is_memo(self) -> bool {
        matches!(self, Phase::Writeback)
    }
}

schema! {
    /// Event counters on the service path.
    pub enum Counter {
        /// Retired: the scheduler's per-round seek memo is gone, so nothing
        /// records this counter and it always reads zero. The name stays
        /// until the repo benchmark stops reading it.
        SeekMemoHit => "seek_memo_hit",
        /// Retired, always zero (see [`Counter::SeekMemoHit`]).
        SeekMemoMiss => "seek_memo_miss",
        /// Region translations served from the shared flat-table cache.
        TranslationCacheHit => "translation_cache_hit",
        /// Region translations that built (or bypassed) a flat table.
        TranslationCacheMiss => "translation_cache_miss",
        /// Queued-SPTF serves that evicted a request from a full window to
        /// admit the next pending one (SCSI TCQ window pressure).
        SptfWindowEviction => "sptf_window_eviction",
        /// Transitions that settled within the adjacency plateau
        /// (semi-sequential hops).
        AdjacencyHop => "adjacency_hop",
        /// Transitions that paid a real seek.
        SeekTransition => "seek_transition",
        /// Requests that continued the previous read-ahead stream.
        PrefetchHit => "prefetch_hit",
        /// Requests serviced.
        RequestsServiced => "requests_serviced",
        /// Injected transient (timeout) faults observed on the service path.
        TransientFault => "transient_fault",
        /// Injected hard media errors observed on the service path.
        MediaFault => "media_fault",
        /// Injected slow-read tail-latency events observed.
        SlowRead => "slow_read",
        /// Retries issued by the recovery path (one per transient, with the
        /// bounded-retry policy — the conformance sweep checks equality).
        RetryAttempt => "retry_attempt",
        /// Hard-failed blocks remapped into a track's spare region.
        BadBlockRemap => "bad_block_remap",
        /// Rotational-band passes entered by the incremental SPTF selector
        /// (one per cylinder bucket and positioning class it could not
        /// prune); zero when batches ran on the linear reference scan.
        SptfBucketScan => "sptf_bucket_scan",
        /// Candidate service-time estimates evaluated during SPTF selection
        /// (reference scan: every pending request per serve; incremental
        /// selector: only candidates its pruning bounds cannot exclude).
        SptfCandidateExamined => "sptf_candidate_examined",
        /// Incremental selector structure repairs (admissions + removals).
        SptfSelectorRepair => "sptf_selector_repair",
        /// Page-cache probes answered from a resident page (no disk I/O).
        PageCacheHit => "page_cache_hit",
        /// Page-cache probes that fell through to a demand read.
        PageCacheMiss => "page_cache_miss",
        /// Pages fetched speculatively by the cache's prefetcher (batched
        /// with the demand reads, riding the same scheduler).
        CachePrefetchIssued => "cache_prefetch_issued",
        /// First hit on a page the prefetcher brought in — a prefetch that
        /// paid off. Never exceeds [`Counter::CachePrefetchIssued`].
        CachePrefetchUsed => "cache_prefetch_used",
        /// Write-back flushes, one per drained batch of dirty pages.
        WritebackFlush => "writeback_flush",
        /// Neighbor-track rewrites an IMR backend performed to preserve
        /// interlaced top tracks across bottom-track writes (read-modify-
        /// write amplification observed by the store's write-back flush).
        NeighborRewrite => "neighbor_rewrite",
    }
}

schema! {
    /// Executor phases timed span-style (wall clock, *not* simulated time).
    pub enum Span {
        /// Fit checks and policy resolution.
        Plan => "plan",
        /// Cell→LBN translation (direct or via the flat-table cache).
        Translate => "translate",
        /// Request building, sorting and coalescing.
        Schedule => "schedule",
        /// The simulated service call itself.
        Service => "service",
    }
}

/// Accumulated wall-clock time of one span kind.
///
/// Spans measure the *host's* time, so unlike counters and tallies
/// they are not deterministic across runs; they are reported for humans
/// and excluded from determinism assertions ([`Metrics::identical`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct SpanStat {
    /// Number of spans recorded.
    pub count: u64,
    /// Total wall-clock milliseconds across them.
    pub wall_ms: f64,
}

/// The sink the query path records into: a plain, private accumulator.
///
/// Each unit of work (a query, a figure cell) owns its own `Metrics`,
/// records into it without any synchronisation, and hands it upward to
/// be merged — under `multimap_engine::sweep`, in submission order via
/// [`Metrics::merge_ordered`], which makes the merged f64 sums (and
/// thus the whole object) identical at any thread count.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    counters: [u64; Counter::ALL.len()],
    phases: [Tally; Phase::ALL.len()],
    service: Tally,
    spans: [SpanStat; Span::ALL.len()],
}

impl Metrics {
    /// An empty accumulator.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Add `delta` to a counter.
    pub fn counter(&mut self, counter: Counter, delta: u64) {
        self.counters[counter.index()] += delta;
    }

    /// Record one service-time component of one request.
    pub fn phase(&mut self, phase: Phase, ms: f64) {
        self.phases[phase.index()].record(ms);
    }

    /// Record one request's total service time.
    pub fn service_time(&mut self, ms: f64) {
        self.service.record(ms);
    }

    /// Record one executor phase's wall-clock duration.
    pub fn span(&mut self, span: Span, wall_ms: f64) {
        let s = &mut self.spans[span.index()];
        s.count += 1;
        s.wall_ms += wall_ms;
    }

    /// Current value of one counter.
    pub fn counter_value(&self, counter: Counter) -> u64 {
        self.counters[counter.index()]
    }

    /// Tally of one service-time component.
    pub fn phase_tally(&self, phase: Phase) -> &Tally {
        &self.phases[phase.index()]
    }

    /// Tally of per-request total service times.
    pub fn service_tally(&self) -> &Tally {
        &self.service
    }

    /// Accumulated wall-clock time of one span kind.
    pub fn span_stat(&self, span: Span) -> SpanStat {
        self.spans[span.index()]
    }

    /// Sum of all *component* phase-tally sums — by construction
    /// equal to the total observed service time (the oracle cross-checks
    /// this). Memo phases ([`Phase::is_memo`], currently only
    /// [`Phase::Writeback`]) overlay the same time a second way and are
    /// excluded to keep the reconciliation exact.
    pub fn phase_sum_ms(&self) -> f64 {
        Phase::ALL
            .iter()
            .filter(|p| !p.is_memo())
            .map(|&p| self.phase_tally(p).sum_ms())
            .sum()
    }

    /// Fold another accumulator into this one. Call in a deterministic
    /// order (submission order under `sweep`) to keep sums bit-stable.
    pub fn merge(&mut self, other: &Metrics) {
        for (c, o) in self.counters.iter_mut().zip(other.counters.iter()) {
            *c += o;
        }
        for (h, o) in self.phases.iter_mut().zip(other.phases.iter()) {
            h.merge(o);
        }
        self.service.merge(&other.service);
        for (s, o) in self.spans.iter_mut().zip(other.spans.iter()) {
            s.count += o.count;
            s.wall_ms += o.wall_ms;
        }
    }

    /// Merge an iterator of accumulators in iteration order — the
    /// deterministic reduction for `multimap_engine::sweep` output.
    pub fn merge_ordered<'a>(parts: impl IntoIterator<Item = &'a Metrics>) -> Metrics {
        let mut out = Metrics::new();
        for p in parts {
            out.merge(p);
        }
        out
    }

    /// Whether two accumulators carry bit-identical *deterministic*
    /// observations: counters, phase tallies and the service
    /// tally. Two kinds of observation are deliberately excluded
    /// because they measure the host, not the simulation: span
    /// wall-clock times, and the *split* of translation-cache lookups
    /// into hits and misses. That cache is one LRU shared by every
    /// engine worker, so which of two concurrent cells first touches a
    /// grid (both may count a miss), and what has been evicted by then,
    /// depends on thread timing. The pair's total — lookups made — is
    /// reproducible and is compared.
    pub fn identical(&self, other: &Metrics) -> bool {
        // Fold misses into hits: the lookup total in one slot, zero in
        // the other, every remaining counter untouched.
        let lookups_folded = |m: &Metrics| {
            let mut c = m.counters;
            let misses = std::mem::take(&mut c[Counter::TranslationCacheMiss.index()]);
            c[Counter::TranslationCacheHit.index()] += misses;
            c
        };
        lookups_folded(self) == lookups_folded(other)
            && self
                .phases
                .iter()
                .zip(other.phases.iter())
                .all(|(a, b)| a.identical(b))
            && self.service.identical(&other.service)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every JSON name is the snake_case of its variant, so the names
    /// downstream readers see (report fields, the benchmark, the docs)
    /// move only if a variant is renamed.
    #[test]
    fn schema_names_are_the_snake_case_of_their_variants() {
        fn snake(variant: String) -> String {
            let mut out = String::new();
            for c in variant.chars() {
                if c.is_uppercase() && !out.is_empty() {
                    out.push('_');
                }
                out.extend(c.to_lowercase());
            }
            out
        }
        for c in Counter::ALL {
            assert_eq!(c.name(), snake(format!("{c:?}")));
        }
        for p in Phase::ALL {
            assert_eq!(p.name(), snake(format!("{p:?}")));
        }
        for s in Span::ALL {
            assert_eq!(s.name(), snake(format!("{s:?}")));
        }
        assert_eq!(
            (Counter::ALL.len(), Phase::ALL.len(), Span::ALL.len()),
            (23, 7, 4)
        );
        assert_eq!(Counter::SeekMemoHit.name(), "seek_memo_hit");
        assert_eq!(Counter::NeighborRewrite.name(), "neighbor_rewrite");
    }

    /// `docs/observability.md` documents every counter and phase: a
    /// variant added to a schema table without a doc row fails here.
    #[test]
    fn the_doc_tables_list_the_schema() {
        let doc = include_str!("../../../docs/observability.md");
        let table_of = |heading: &str| -> String {
            let section = doc
                .split(heading)
                .nth(1)
                .unwrap_or_else(|| panic!("no {heading:?} section"));
            let section = section.split("\n## ").next().unwrap();
            section.lines().filter(|l| l.starts_with('|')).collect()
        };
        let counters = table_of("\n## Counters\n");
        for c in Counter::ALL {
            assert!(
                counters.contains(&format!("`{c:?}`")),
                "Counters table lacks {c:?}"
            );
        }
        let phases = table_of("\n## Phase decomposition\n");
        for p in Phase::ALL {
            assert!(
                phases.contains(&format!("`{p:?}`")),
                "Phase table lacks {p:?}"
            );
        }
    }

    #[test]
    fn merge_ordered_equals_serial_recording() {
        let record = |m: &mut Metrics, base: f64| {
            m.counter(Counter::AdjacencyHop, 2);
            m.phase(Phase::Settle, base);
            m.phase(Phase::Transfer, base / 10.0);
            m.service_time(base + base / 10.0);
            m.span(Span::Service, 0.5);
        };
        let mut serial = Metrics::new();
        record(&mut serial, 1.1);
        record(&mut serial, 0.07);

        let mut a = Metrics::new();
        record(&mut a, 1.1);
        let mut b = Metrics::new();
        record(&mut b, 0.07);
        let merged = Metrics::merge_ordered([&a, &b]);

        assert!(merged.identical(&serial));
        assert_eq!(merged.counter_value(Counter::AdjacencyHop), 4);
        assert_eq!(merged.span_stat(Span::Service).count, 2);
        assert!((merged.phase_sum_ms() - serial.phase_sum_ms()).abs() < 1e-12);
    }

    #[test]
    fn identical_ignores_the_translation_cache_split_but_not_its_total() {
        let lookups = |hits: u64, misses: u64| {
            let mut m = Metrics::new();
            m.counter(Counter::TranslationCacheHit, hits);
            m.counter(Counter::TranslationCacheMiss, misses);
            m.counter(Counter::RequestsServiced, 64);
            m
        };
        // Two workers first-touching one grid both count a miss: the
        // split moves with thread timing, the lookups made do not.
        assert!(lookups(54, 10).identical(&lookups(55, 9)));
        assert!(!lookups(54, 10).identical(&lookups(54, 9)));
        let mut other_counter = lookups(54, 10);
        other_counter.counter(Counter::RequestsServiced, 1);
        assert!(!other_counter.identical(&lookups(54, 10)));
    }

    #[test]
    fn writeback_is_a_memo_phase_outside_the_component_sum() {
        let mut m = Metrics::new();
        m.phase(Phase::Seek, 3.0);
        m.phase(Phase::Transfer, 1.0);
        m.phase(Phase::Writeback, 4.0);
        m.service_time(4.0);
        // The memo overlay does not perturb phase-sum reconciliation.
        assert!((m.phase_sum_ms() - 4.0).abs() < 1e-12);
        assert!((m.phase_tally(Phase::Writeback).sum_ms() - 4.0).abs() < 1e-12);
        assert!(Phase::Writeback.is_memo());
        assert_eq!(Phase::ALL.iter().filter(|p| p.is_memo()).count(), 1);
    }
}
