//! Seeded client populations: open-loop and closed-loop beam-query
//! generators.
//!
//! Every random quantity is a counter-indexed splitmix64 draw (the
//! fault layer's [`draw`] from `multimap-disksim`): a draw depends only
//! on `(scenario seed, tenant, stream, sequence number)`, never on
//! evaluation order, so a scenario replays byte-identically regardless
//! of host, thread count, or how the serving loop interleaves tenants.

use multimap_core::{Coord, GridSpec};

use multimap_disksim::fault::{draw, mix64};

/// Stream selector for inter-arrival draws (open-loop clients).
const STREAM_ARRIVAL: u64 = 0x8F1B_ADD0_C355_9A42;
/// Stream selector for think-time draws (closed-loop clients).
const STREAM_THINK: u64 = 0x2E86_D5B4_9D6C_7A31;
/// Stream selector for anchor-coordinate draws.
const STREAM_ANCHOR: u64 = 0x713C_F0E1_8A5B_22D7;

/// The largest value [`draw`] returns, `1 - 2⁻⁵³`.
const MAX_DRAW: f64 = ((1u64 << 53) - 1) as f64 / (1u64 << 53) as f64;

/// How a tenant generates load.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LoadModel {
    /// Poisson arrivals at `rate_rps` requests per second, issued
    /// regardless of completions — the generator that exposes queueing
    /// collapse, because offered load does not back off.
    OpenLoop {
        /// Mean arrival rate, requests per second of simulated time.
        rate_rps: f64,
    },
    /// One request in flight at a time; the next is issued a jittered
    /// think time after the previous one resolves (completes, sheds,
    /// or is rejected) — the generator whose throughput self-limits.
    ClosedLoop {
        /// Mean think time between resolution and the next request,
        /// in simulated milliseconds (jittered uniformly ±50%).
        think_ms: f64,
    },
}

impl LoadModel {
    /// Short slug for tables and JSON ("open"/"closed").
    pub fn slug(&self) -> &'static str {
        match self {
            LoadModel::OpenLoop { .. } => "open",
            LoadModel::ClosedLoop { .. } => "closed",
        }
    }

    /// The gap, in ms, a uniform draw `u` turns into: an exponential
    /// inter-arrival with mean `1000 / rate_rps` (open loop), or the
    /// think time jittered to `[0.5, 1.5)` of itself (closed loop).
    fn gap_ms(&self, u: f64) -> f64 {
        match *self {
            LoadModel::OpenLoop { rate_rps } => -(1.0 - u).ln() * 1000.0 / rate_rps,
            LoadModel::ClosedLoop { think_ms } => think_ms * (0.5 + u),
        }
    }

    /// The largest gap any draw can produce; a scenario whose largest
    /// gap is not finite cannot run.
    pub(crate) fn max_gap_ms(&self) -> f64 {
        self.gap_ms(MAX_DRAW)
    }
}

/// One tenant of the serving scenario.
#[derive(Clone, Debug)]
pub struct TenantSpec {
    /// Display name ("tenant-a").
    pub name: String,
    /// Relative share under [`crate::FairnessPolicy::WeightedTenant`].
    pub weight: f64,
    /// Arrival process.
    pub load: LoadModel,
    /// Total requests this tenant submits over the scenario.
    pub requests: usize,
    /// Relative deadline per request, in simulated milliseconds;
    /// requests not dispatched by `arrival + deadline_ms` are shed.
    pub deadline_ms: f64,
    /// Grid dimension this tenant's beam queries stream along.
    pub dim: usize,
}

/// One generated beam query.
#[derive(Clone, Debug, PartialEq)]
pub struct TenantRequest {
    /// Owning tenant index into the scenario's tenant list.
    pub tenant: usize,
    /// Per-tenant sequence number (0-based).
    pub seq: usize,
    /// Absolute arrival time on the simulated clock, ms.
    pub arrival_ms: f64,
    /// Absolute deadline, ms (`arrival_ms + spec.deadline_ms`).
    pub deadline_ms: f64,
    /// Beam dimension.
    pub dim: usize,
    /// Anchor coordinate (the beam spans the full extent of `dim`).
    pub anchor: Coord,
}

/// Deterministic per-tenant request generator driven by the serving
/// loop: [`ClientGen::peek_arrival`] exposes the next arrival time (if
/// one is currently schedulable), [`ClientGen::emit`] materialises it,
/// and — for closed-loop tenants — [`ClientGen::resolve`] unblocks the
/// next request when the in-flight one finishes.
#[derive(Debug)]
pub struct ClientGen {
    spec: TenantSpec,
    tenant: usize,
    /// Tenant-folded scenario seed: all draws key off this.
    seed: u64,
    grid: GridSpec,
    /// Requests emitted so far (the next sequence number).
    emitted: usize,
    /// Next arrival time, when known. For closed-loop tenants this is
    /// `None` while a request is in flight.
    next_arrival: Option<f64>,
}

impl ClientGen {
    /// A generator for `spec` as tenant number `tenant` of a scenario
    /// seeded with `seed`, querying `grid`.
    pub fn new(spec: &TenantSpec, tenant: usize, seed: u64, grid: &GridSpec) -> Self {
        let folded = mix64(seed ^ mix64(tenant as u64 + 1));
        let mut gen = ClientGen {
            spec: spec.clone(),
            tenant,
            seed: folded,
            grid: grid.clone(),
            emitted: 0,
            next_arrival: None,
        };
        if gen.spec.requests > 0 {
            // First arrival: offset from time zero by one inter-arrival
            // (open loop) or one think time (closed loop), so tenants
            // do not all fire at t = 0.
            gen.next_arrival = Some(gen.gap_before(0));
        }
        gen
    }

    /// The inter-arrival (or think) gap preceding request `seq`.
    fn gap_before(&self, seq: usize) -> f64 {
        let stream = match self.spec.load {
            LoadModel::OpenLoop { .. } => STREAM_ARRIVAL,
            LoadModel::ClosedLoop { .. } => STREAM_THINK,
        };
        self.spec.load.gap_ms(draw(self.seed, stream, seq as u64))
    }

    /// Requests not yet emitted.
    pub fn remaining(&self) -> usize {
        self.spec.requests - self.emitted
    }

    /// The next arrival time, if a request is currently schedulable.
    /// `None` means either the tenant is exhausted or (closed loop) it
    /// is waiting on an in-flight request.
    pub fn peek_arrival(&self) -> Option<f64> {
        self.next_arrival
    }

    /// Materialise the next request (the one [`ClientGen::peek_arrival`]
    /// announced). Panics if none is schedulable — the serving loop only
    /// calls this behind a `peek_arrival()` check.
    pub fn emit(&mut self) -> TenantRequest {
        #[expect(
            clippy::expect_used,
            reason = "documented contract: callers gate emit() behind peek_arrival()"
        )]
        let arrival = self
            .next_arrival
            .take()
            .expect("emit() without a schedulable arrival");
        let seq = self.emitted;
        self.emitted += 1;
        match self.spec.load {
            LoadModel::OpenLoop { .. } => {
                if self.emitted < self.spec.requests {
                    self.next_arrival = Some(arrival + self.gap_before(self.emitted));
                }
            }
            // Closed loop blocks until resolve().
            LoadModel::ClosedLoop { .. } => {}
        }
        TenantRequest {
            tenant: self.tenant,
            seq,
            arrival_ms: arrival,
            deadline_ms: arrival + self.spec.deadline_ms,
            dim: self.spec.dim,
            anchor: self.anchor_for(seq),
        }
    }

    /// Closed-loop completion callback: request `seq`'s fate is known
    /// at `at_ms`, so the next request arrives one think time later.
    /// No-op for open-loop tenants (their arrivals never block).
    pub fn resolve(&mut self, at_ms: f64) {
        if let LoadModel::ClosedLoop { .. } = self.spec.load {
            if self.emitted < self.spec.requests {
                self.next_arrival = Some(at_ms + self.gap_before(self.emitted));
            }
        }
    }

    /// The anchor coordinate of request `seq`: uniform over every
    /// dimension except the beam dimension (fixed at 0 — the beam spans
    /// its full extent anyway).
    fn anchor_for(&self, seq: usize) -> Coord {
        let ndims = self.grid.ndims() as u64;
        (0..self.grid.ndims())
            .map(|d| {
                if d == self.spec.dim {
                    0
                } else {
                    let extent = self.grid.extent(d);
                    let u = draw(self.seed, STREAM_ANCHOR, (seq as u64) * ndims + d as u64);
                    ((u * extent as f64) as u64).min(extent - 1)
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(load: LoadModel) -> TenantSpec {
        TenantSpec {
            name: "t".into(),
            weight: 1.0,
            load,
            requests: 5,
            deadline_ms: 100.0,
            dim: 1,
        }
    }

    #[test]
    fn open_loop_arrivals_are_monotone_and_replayable() {
        let grid = GridSpec::new([16u64, 8, 4]);
        let s = spec(LoadModel::OpenLoop { rate_rps: 50.0 });
        let run = |seed: u64| {
            let mut g = ClientGen::new(&s, 3, seed, &grid);
            let mut out = Vec::new();
            while g.peek_arrival().is_some() {
                out.push(g.emit());
            }
            out
        };
        let a = run(42);
        assert_eq!(a.len(), 5);
        for w in a.windows(2) {
            assert!(w[0].arrival_ms <= w[1].arrival_ms);
        }
        for r in &a {
            assert!(r.deadline_ms > r.arrival_ms);
            assert_eq!(r.anchor.len(), 3);
            assert_eq!(r.anchor[1], 0, "beam dimension anchors at 0");
            assert!(r.anchor[0] < 16 && r.anchor[2] < 4);
        }
        assert_eq!(a, run(42), "same seed replays identically");
        assert_ne!(a, run(43), "different seed diverges");
    }

    #[test]
    fn closed_loop_blocks_until_resolution() {
        let grid = GridSpec::new([16u64, 8, 4]);
        let s = spec(LoadModel::ClosedLoop { think_ms: 10.0 });
        let mut g = ClientGen::new(&s, 0, 7, &grid);
        let first = g.peek_arrival().expect("first request schedulable");
        let r0 = g.emit();
        assert!((r0.arrival_ms - first).abs() < 1e-12);
        assert!(g.peek_arrival().is_none(), "in flight: nothing schedulable");
        g.resolve(50.0);
        let second = g.peek_arrival().expect("resolved: next schedulable");
        // Think jitter is ±50% around 10 ms.
        assert!((55.0..65.0).contains(&second), "{second}");
        assert_eq!(g.remaining(), 4);
    }

    #[test]
    fn draws_are_order_independent() {
        // Request 4's anchor must not depend on whether requests 0–3
        // were generated first (counter-indexed streams).
        let grid = GridSpec::new([32u64, 32, 32]);
        let s = spec(LoadModel::OpenLoop { rate_rps: 10.0 });
        let mut g1 = ClientGen::new(&s, 1, 99, &grid);
        for _ in 0..4 {
            g1.emit();
        }
        let direct = g1.anchor_for(4);
        let g2 = ClientGen::new(&s, 1, 99, &grid);
        assert_eq!(g2.anchor_for(4), direct);
    }
}
