//! Pluggable request-selection (fairness) policies.
//!
//! A policy decides *which* queued requests fill the next dispatch
//! batch; the device's own scheduler then decides the service *order*
//! within the batch ([`multimap_disksim::Discipline::QueuedSptf`]).
//! All three policies are deterministic: ties break on admission
//! sequence, then tenant index — never on iteration order of an
//! unordered container.

use crate::workload::TenantRequest;

/// Which queued requests are dispatched first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FairnessPolicy {
    /// Admission order: first queued, first dispatched.
    Fifo,
    /// Earliest absolute deadline first (ties: admission order) — the
    /// shed-minimising policy.
    EarliestDeadline,
    /// Deficit round-robin over tenants: each round a tenant earns
    /// credit proportional to its weight and spends one credit per
    /// dispatched request, so long-run dispatch shares converge to the
    /// weight ratios even when one tenant floods the queue.
    WeightedTenant,
}

/// All policies, in the order benches sweep them.
pub const POLICY_NAMES: [FairnessPolicy; 3] = [
    FairnessPolicy::Fifo,
    FairnessPolicy::EarliestDeadline,
    FairnessPolicy::WeightedTenant,
];

impl FairnessPolicy {
    /// Slug for tables, JSON, and CLI flags.
    pub fn slug(&self) -> &'static str {
        match self {
            FairnessPolicy::Fifo => "fifo",
            FairnessPolicy::EarliestDeadline => "edf",
            FairnessPolicy::WeightedTenant => "weighted",
        }
    }
}

impl std::fmt::Display for FairnessPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.slug())
    }
}

/// A request sitting in the admission queue.
#[derive(Clone, Debug)]
pub struct Queued {
    /// The tenant request.
    pub req: TenantRequest,
    /// Global admission sequence number (FIFO ordering key).
    pub admit_seq: u64,
}

/// Select up to `window` requests out of `pending` (removing them),
/// in dispatch order. `credits` is the policy's persistent per-tenant
/// deficit state (ignored except by
/// [`FairnessPolicy::WeightedTenant`]); `weights` the tenant weights.
pub fn select_batch(
    policy: FairnessPolicy,
    pending: &mut Vec<Queued>,
    window: usize,
    credits: &mut [f64],
    weights: &[f64],
) -> Vec<Queued> {
    let take = window.min(pending.len());
    if take == 0 {
        return Vec::new();
    }
    match policy {
        FairnessPolicy::Fifo => pending.drain(..take).collect(),
        FairnessPolicy::EarliestDeadline => {
            // Sort a copy of the *indices* by (deadline, admission) and
            // pull the winners out of the queue back-to-front so the
            // removal indices stay valid.
            let mut order: Vec<usize> = (0..pending.len()).collect();
            order.sort_by(|&a, &b| {
                pending[a]
                    .req
                    .deadline_ms
                    .total_cmp(&pending[b].req.deadline_ms)
                    .then(pending[a].admit_seq.cmp(&pending[b].admit_seq))
            });
            let mut winners = order[..take].to_vec();
            winners.sort_unstable();
            let mut batch: Vec<Queued> =
                winners.iter().rev().map(|&i| pending.remove(i)).collect();
            // `remove` back-to-front reversed the order; dispatch order
            // is earliest deadline first.
            batch.sort_by(|a, b| {
                a.req
                    .deadline_ms
                    .total_cmp(&b.req.deadline_ms)
                    .then(a.admit_seq.cmp(&b.admit_seq))
            });
            batch
        }
        FairnessPolicy::WeightedTenant => {
            // Deficit round-robin. Tenants with queued work earn their
            // weight in credit each dispatch round; idle tenants reset
            // to zero (no hoarding across idle periods).
            for (t, c) in credits.iter_mut().enumerate() {
                if pending.iter().any(|q| q.req.tenant == t) {
                    *c += weights.get(t).copied().unwrap_or(1.0);
                } else {
                    *c = 0.0;
                }
            }
            let mut batch = Vec::with_capacity(take);
            while batch.len() < take {
                // Richest tenant that still has queued work; ties break
                // to the lowest tenant index.
                let mut best: Option<usize> = None;
                for q in pending.iter() {
                    let t = q.req.tenant;
                    match best {
                        None => best = Some(t),
                        Some(b) => match credits[t].total_cmp(&credits[b]) {
                            std::cmp::Ordering::Greater => best = Some(t),
                            std::cmp::Ordering::Equal if t < b => best = Some(t),
                            _ => {}
                        },
                    }
                }
                #[expect(
                    clippy::expect_used,
                    reason = "loop precondition: pending is non-empty while batch < take, so a max-credit tenant exists"
                )]
                let t = best.expect("pending is non-empty while batch < take");
                // That tenant's earliest-admitted request.
                #[expect(
                    clippy::expect_used,
                    reason = "`t` was selected from tenants with queued work just above"
                )]
                let i = pending
                    .iter()
                    .position(|q| q.req.tenant == t)
                    .expect("winner has queued work");
                credits[t] -= 1.0;
                batch.push(pending.remove(i));
            }
            batch
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multimap_core::Coord;

    fn q(tenant: usize, seq: usize, deadline: f64, admit: u64) -> Queued {
        Queued {
            req: TenantRequest {
                tenant,
                seq,
                arrival_ms: 0.0,
                deadline_ms: deadline,
                dim: 0,
                anchor: Coord::from([0u64, 0, 0]),
            },
            admit_seq: admit,
        }
    }

    #[test]
    fn fifo_takes_admission_order() {
        let mut pending = vec![q(0, 0, 9.0, 0), q(1, 0, 1.0, 1), q(0, 1, 5.0, 2)];
        let batch = select_batch(FairnessPolicy::Fifo, &mut pending, 2, &mut [], &[]);
        assert_eq!(
            batch.iter().map(|b| b.admit_seq).collect::<Vec<_>>(),
            vec![0, 1]
        );
        assert_eq!(pending.len(), 1);
    }

    #[test]
    fn edf_takes_earliest_deadlines_with_stable_ties() {
        let mut pending = vec![
            q(0, 0, 9.0, 0),
            q(1, 0, 1.0, 1),
            q(2, 0, 1.0, 2),
            q(0, 1, 5.0, 3),
        ];
        let batch = select_batch(FairnessPolicy::EarliestDeadline, &mut pending, 3, &mut [], &[]);
        assert_eq!(
            batch.iter().map(|b| b.admit_seq).collect::<Vec<_>>(),
            vec![1, 2, 3],
            "deadline order, admission tie-break"
        );
        assert_eq!(pending[0].admit_seq, 0);
    }

    #[test]
    fn weighted_converges_to_weight_ratios() {
        // Tenant 0 (weight 3) and tenant 1 (weight 1) both flood the
        // queue; over many rounds dispatches split 3:1.
        let weights = [3.0, 1.0];
        let mut credits = [0.0, 0.0];
        let mut served = [0usize, 0];
        let mut admit = 0u64;
        let mut pending: Vec<Queued> = Vec::new();
        for round in 0..100 {
            // Keep both backlogs topped up.
            for t in 0..2 {
                for s in 0..4 {
                    pending.push(q(t, round * 4 + s, 1e9, admit));
                    admit += 1;
                }
            }
            for b in select_batch(
                FairnessPolicy::WeightedTenant,
                &mut pending,
                4,
                &mut credits,
                &weights,
            ) {
                served[b.req.tenant] += 1;
            }
        }
        let ratio = served[0] as f64 / served[1] as f64;
        assert!((ratio - 3.0).abs() < 0.2, "served {served:?}, ratio {ratio}");
    }

    #[test]
    fn weighted_never_starves_a_backlogged_tenant() {
        let weights = [100.0, 1.0];
        let mut credits = [0.0, 0.0];
        let mut pending: Vec<Queued> = (0..40)
            .map(|i| q(i % 2, i / 2, 1e9, i as u64))
            .collect();
        let mut served1 = 0;
        for _ in 0..10 {
            for b in select_batch(
                FairnessPolicy::WeightedTenant,
                &mut pending,
                4,
                &mut credits,
                &weights,
            ) {
                if b.req.tenant == 1 {
                    served1 += 1;
                }
            }
        }
        assert!(served1 > 0, "weight-1 tenant must still be dispatched");
        assert!(pending.is_empty());
    }
}
