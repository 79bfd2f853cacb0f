//! The sink trait, counters, phases, spans and the default accumulator.

use crate::tally::Tally;

/// Declares one observation enum from its single table: each row is a
/// variant, its doc comment and its stable snake_case name. `ALL`,
/// `name()`, `doc()` and the storage index all derive from the row, so
/// adding an observation is a one-row edit.
macro_rules! schema {
    (
        $(#[$meta:meta])*
        pub enum $name:ident {
            $( $(#[doc = $doc:literal])* $variant:ident => $snake:literal, )+
        }
    ) => {
        $(#[$meta])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        pub enum $name {
            $( $(#[doc = $doc])* $variant, )+
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

            /// The variant's doc comment, one source line per line.
            pub fn doc(self) -> &'static str {
                match self {
                    $( $name::$variant => concat!($($doc, "\n"),*), )+
                }
            }

            fn index(self) -> usize {
                self as usize
            }
        }
    };
}

schema! {
    /// Service-time components: each request's service time split into
    /// six disjoint parts that add up to it. Each row's doc comment is
    /// its row in `docs/observability.md`'s phase table, word for word.
    pub enum Phase {
        /// Command/controller overhead.
        Overhead => "overhead",
        /// Positioning beyond the settle plateau on rotating media (a real
        /// arm movement); on the SSD, the wait behind earlier commands on
        /// the request's channel.
        Seek => "seek",
        /// Positioning within the settle plateau on rotating media:
        /// adjacency hops and head switches, the semi-sequential currency
        /// of the paper. Zero on the SSD, whose cheap step is a free
        /// channel.
        Settle => "settle",
        /// Rotational latency.
        Rotation => "rotation",
        /// Media transfer.
        Transfer => "transfer",
        /// Fault-recovery time under an active fault plan: retry backoff,
        /// timeout burn and the extra positioning paid by remapped
        /// (degraded) segments. Fault-free runs never record it.
        Recovery => "recovery",
    }
}

schema! {
    /// Event counters on the service path. Each row's doc comment is its
    /// row in `docs/observability.md`'s counter table, word for word.
    pub enum Counter {
        /// **Retired, always 0**: the scheduler's per-round seek memo was
        /// deleted (`docs/performance.md`, decision-path budget), so
        /// nothing records it. The name stays until the repo benchmark's
        /// `disksim.seek_memo_hit_rate`, which reads 0, is dropped.
        SeekMemoHit => "seek_memo_hit",
        /// **Retired, always 0**, like `SeekMemoHit`.
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
        /// Transitions that paid a real seek, beyond the settle plateau.
        SeekTransition => "seek_transition",
        /// Requests that continued the previous read-ahead stream.
        PrefetchHit => "prefetch_hit",
        /// Requests serviced.
        RequestsServiced => "requests_serviced",
        /// Injected transient (timeout) faults the injector fired on the
        /// service path.
        TransientFault => "transient_fault",
        /// Injected hard media errors the injector fired on the service
        /// path.
        MediaFault => "media_fault",
        /// Injected slow-read tail-latency events the injector fired on
        /// the service path.
        SlowRead => "slow_read",
        /// Recovery re-issues after a transient timeout: one per transient
        /// under the bounded-retry policy.
        RetryAttempt => "retry_attempt",
        /// Hard-failed blocks remapped into a track's spare region after a
        /// media error.
        BadBlockRemap => "bad_block_remap",
        /// Rotational-band passes the incremental SPTF selector entered:
        /// one per *cylinder* bucket and positioning class (the head's
        /// surface, or any other) that neither the walk's seek floor nor
        /// the bucket's own bound could prune. The two classes share one
        /// pass wherever their positioning times are the same float (every
        /// distance of at least 1 on both evaluation drives), so a window
        /// spread over the settle plateau costs a pass per pending
        /// cylinder, not per pending track; zero when a batch took the
        /// reference scan.
        SptfBucketScan => "sptf_bucket_scan",
        /// Exact service-time estimates evaluated during SPTF selection:
        /// every pending request per serve on the reference scan, only the
        /// candidates its pruning bounds cannot exclude on the incremental
        /// selector (`docs/performance.md` has the semantics).
        SptfCandidateExamined => "sptf_candidate_examined",
        /// Incremental-selector index mutations (admissions plus
        /// removals); zero when a batch took the reference scan.
        SptfSelectorRepair => "sptf_selector_repair",
        /// Page-cache probes answered from a resident page (no device
        /// I/O).
        PageCacheHit => "page_cache_hit",
        /// Page-cache probes that fell through to a demand read.
        PageCacheMiss => "page_cache_miss",
        /// Pages fetched speculatively by the cache's prefetcher, batched
        /// with the demand reads and riding the same scheduler.
        CachePrefetchIssued => "cache_prefetch_issued",
        /// First hit on a page the prefetcher brought in: a prefetch that
        /// paid off. Never exceeds `CachePrefetchIssued`.
        CachePrefetchUsed => "cache_prefetch_used",
        /// Write-back flushes, one per drained batch of dirty pages, in the
        /// device's own write-back order.
        WritebackFlush => "writeback_flush",
        /// Neighbour-track rewrites an IMR backend performed to keep
        /// interlaced top tracks intact across bottom-track writes
        /// (read-modify-write amplification), recorded by the store's one
        /// flush on every backend and zero off IMR; the device's own count
        /// is `AccessStats::neighbor_rewrites` (`docs/backends.md`).
        NeighborRewrite => "neighbor_rewrite",
    }
}

schema! {
    /// Executor phases timed span-style (wall clock, *not* simulated
    /// time). Each row's doc comment is its row in
    /// `docs/observability.md`'s span table, word for word.
    pub enum Span {
        /// Fit checks and policy resolution.
        Plan => "plan",
        /// A range's box runs, or each cell's LBN (direct or via the flat-table cache).
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

    /// Sum of all phase-tally sums — by construction equal to the
    /// total observed service time (the oracle cross-checks this).
    pub fn phase_sum_ms(&self) -> f64 {
        Phase::ALL
            .iter()
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
            (23, 6, 4)
        );
        assert_eq!(Counter::SeekMemoHit.name(), "seek_memo_hit");
        assert_eq!(Counter::NeighborRewrite.name(), "neighbor_rewrite");
    }

    /// `docs/observability.md`'s counter, phase and span tables are the
    /// schema's: one row per variant, in schema order, whose text is the
    /// variant's doc comment on one line.
    #[test]
    fn the_doc_tables_list_the_schema() {
        let doc = include_str!("../../../docs/observability.md");
        // The body rows of a section's first table, header and
        // separator skipped.
        let table_of = |heading: &str| -> Vec<&str> {
            let section = doc
                .split(heading)
                .nth(1)
                .unwrap_or_else(|| panic!("no {heading:?} section"));
            section
                .lines()
                .skip_while(|l| !l.starts_with('|'))
                .take_while(|l| l.starts_with('|'))
                .skip(2)
                .collect()
        };
        let row = |variant: String, doc: &str| {
            let text: Vec<&str> = doc.lines().map(str::trim).collect();
            format!("| `{variant}` | {} |", text.join(" "))
        };
        let schema = [
            (
                "\n## Counters\n",
                Counter::ALL
                    .map(|c| row(format!("{c:?}"), c.doc()))
                    .to_vec(),
            ),
            (
                "\n## Phase decomposition\n",
                Phase::ALL.map(|p| row(format!("{p:?}"), p.doc())).to_vec(),
            ),
            (
                "\n## Spans\n",
                Span::ALL.map(|s| row(format!("{s:?}"), s.doc())).to_vec(),
            ),
        ];
        for (heading, expected) in schema {
            let rows = table_of(heading);
            assert_eq!(rows.len(), expected.len(), "one row per variant");
            for (row, want) in rows.iter().zip(&expected) {
                assert_eq!(row, want, "a {} row", heading.trim());
            }
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
}
