//! The simulated-clock serving loop: admission, batching, dispatch.
//!
//! One scenario is one run-to-completion event loop (the idos-style
//! minimal server idiom): at each iteration the loop admits every
//! arrival at or before the device clock, sheds queued requests whose
//! deadline has passed, selects up to a batch window of requests by the
//! scenario's fairness policy, and dispatches them as a single
//! cross-tenant batch through
//! [`Discipline::QueuedSptf`](multimap_disksim::Discipline) — so the
//! device's own scheduler interleaves tenants exactly as a tagged
//! command queue would. When the queue is empty the device idles
//! forward to the next arrival. Everything runs on the simulated clock;
//! the loop is serial and byte-identically replayable.

use multimap_core::{BoxRegion, Mapping};
use multimap_disksim::fault::mix64;
use multimap_disksim::{DeviceModel, Request};
use multimap_lvm::{DeviceVolume, SchedulePolicy};
use multimap_query::{collect_lbns, record_classified_event};
use multimap_telemetry::Metrics;

use crate::error::{Result, ServerError};
use crate::policy::{select_batch, FairnessPolicy, Queued};
use crate::report::{fold_digest, Outcome, ServingReport, TenantReport, TraceEntry};
use crate::workload::{ClientGen, LoadModel, TenantRequest, TenantSpec};

/// `x > 0` and finite: NaN and infinity are rejected (an infinite
/// weight, deadline or rate is not a limit the loop can act on).
fn positive(x: f64) -> bool {
    x.is_finite() && x > 0.0
}

/// `x >= 0` and finite.
fn non_negative(x: f64) -> bool {
    x.is_finite() && x >= 0.0
}

/// A complete serving scenario: who the tenants are and how the server
/// queues, sheds, and batches their requests.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Seed for every client generator (replays are byte-identical for
    /// equal seeds).
    pub seed: u64,
    /// The tenant population.
    pub tenants: Vec<TenantSpec>,
    /// Request-selection policy.
    pub policy: FairnessPolicy,
    /// Admission queue depth cap: arrivals beyond it are rejected.
    pub queue_cap: usize,
    /// Maximum tenant requests dispatched per batch round.
    pub batch_window: usize,
    /// Device tagged-command-queue depth for
    /// [`multimap_disksim::Discipline::QueuedSptf`].
    pub queue_depth: usize,
}

impl Scenario {
    fn validate(&self, mapping: &dyn Mapping) -> Result<()> {
        let fail = |msg: String| Err(ServerError::Config(msg));
        if self.tenants.is_empty() {
            return fail("scenario has no tenants".into());
        }
        if self.queue_cap == 0 {
            return fail("queue_cap must be at least 1".into());
        }
        if self.batch_window == 0 {
            return fail("batch_window must be at least 1".into());
        }
        if self.queue_depth == 0 {
            return fail("queue_depth must be at least 1".into());
        }
        let ndims = mapping.grid().ndims();
        for (i, t) in self.tenants.iter().enumerate() {
            if t.dim >= ndims {
                return fail(format!(
                    "tenant {i} ({}) beams along dim {} but the grid has {ndims} dims",
                    t.name, t.dim
                ));
            }
            if !positive(t.weight) {
                return fail(format!(
                    "tenant {i} ({}) weight must be positive and finite",
                    t.name
                ));
            }
            if !positive(t.deadline_ms) {
                return fail(format!(
                    "tenant {i} ({}) deadline_ms must be positive and finite",
                    t.name
                ));
            }
            // A tiny rate or a huge think time passes the sign check but
            // can draw an infinite gap, which the loop would ask the
            // device to idle for: the largest drawable gap must be finite.
            let finite_gaps = t.load.max_gap_ms().is_finite();
            match t.load {
                LoadModel::OpenLoop { rate_rps } if !positive(rate_rps) || !finite_gaps => {
                    return fail(format!(
                        "tenant {i} ({}) rate_rps must be positive with finite arrival gaps",
                        t.name
                    ));
                }
                LoadModel::ClosedLoop { think_ms } if !non_negative(think_ms) || !finite_gaps => {
                    return fail(format!(
                        "tenant {i} ({}) think_ms must be non-negative with finite think gaps",
                        t.name
                    ));
                }
                _ => {}
            }
        }
        Ok(())
    }
}

/// Mutable loop state, split out so the borrow checker can see that
/// admission touches clients/queue/reports while dispatch touches the
/// volume.
struct LoopState {
    clients: Vec<ClientGen>,
    reports: Vec<TenantReport>,
    pending: Vec<Queued>,
    credits: Vec<f64>,
    weights: Vec<f64>,
    trace: Vec<TraceEntry>,
    dispatched: Vec<(usize, usize)>,
    digest: u64,
    admit_seq: u64,
    queue_cap: usize,
}

impl LoopState {
    /// Record a request's fate and (for closed-loop tenants) unblock
    /// the next request. `dispatch_ms` is the clock its batch was
    /// submitted at, `None` for a request that never reached one.
    fn resolve(
        &mut self,
        req: &TenantRequest,
        outcome: Outcome,
        dispatch_ms: Option<f64>,
        at_ms: f64,
    ) {
        let tenant = req.tenant;
        let entry = TraceEntry {
            tenant,
            seq: req.seq,
            outcome,
            arrive_ms: req.arrival_ms,
            dispatch_ms,
            resolve_ms: at_ms,
        };
        self.digest = fold_digest(self.digest, &entry);
        self.trace.push(entry);
        self.clients[tenant].resolve(at_ms);
    }

    /// Admit every schedulable arrival at or before `threshold`:
    /// reject past the queue cap, shed already-expired requests, queue
    /// the rest. `now` is the current device clock (admission decisions
    /// happen at server time, which may be later than the arrival).
    fn admit_arrivals(&mut self, threshold: f64, now: f64) {
        while let Some((tenant, arrival)) = self.next_arrival() {
            if arrival.total_cmp(&threshold).is_gt() {
                break;
            }
            let req = self.clients[tenant].emit();
            self.reports[tenant].submitted += 1;
            // The server examines this arrival no earlier than both its
            // arrival time and the current clock.
            let seen = now.max(arrival);
            if self.pending.len() >= self.queue_cap {
                self.reports[tenant].rejected_queue_full += 1;
                self.resolve(&req, Outcome::RejectedQueueFull, None, seen);
            } else if seen > req.deadline_ms {
                self.reports[tenant].shed_deadline += 1;
                self.resolve(&req, Outcome::ShedDeadline, None, seen);
            } else {
                self.reports[tenant].admitted += 1;
                self.pending.push(Queued {
                    req,
                    admit_seq: self.admit_seq,
                });
                self.admit_seq += 1;
            }
        }
    }

    /// Drop queued requests whose deadline passed before dispatch.
    fn shed_expired(&mut self, now: f64) {
        let drained = std::mem::take(&mut self.pending);
        let mut kept = Vec::with_capacity(drained.len());
        for q in drained {
            if now > q.req.deadline_ms {
                self.reports[q.req.tenant].shed_deadline += 1;
                self.resolve(&q.req, Outcome::ShedDeadline, None, now);
            } else {
                kept.push(q);
            }
        }
        self.pending = kept;
    }

    /// Earliest schedulable arrival across all clients with its
    /// tenant, ties to the lowest tenant (`min_by` keeps the first).
    fn next_arrival(&self) -> Option<(usize, f64)> {
        self.clients
            .iter()
            .enumerate()
            .filter_map(|(t, c)| Some((t, c.peek_arrival()?)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
    }
}

/// Serve `scenario` against `mapping` on device 0 of `volume`,
/// returning the per-tenant SLO report.
///
/// The volume is used as-is (its clock keeps advancing from wherever
/// it stands); for reproducible runs hand in a freshly built volume.
pub fn serve_scenario<D: DeviceModel>(
    volume: &DeviceVolume<D>,
    mapping: &dyn Mapping,
    scenario: &Scenario,
) -> Result<ServingReport> {
    scenario.validate(mapping)?;
    let grid = mapping.grid().clone();
    let n = scenario.tenants.len();
    let mut state = LoopState {
        clients: scenario
            .tenants
            .iter()
            .enumerate()
            .map(|(t, spec)| ClientGen::new(spec, t, scenario.seed, &grid))
            .collect(),
        reports: scenario
            .tenants
            .iter()
            .map(|spec| TenantReport {
                name: spec.name.clone(),
                submitted: 0,
                admitted: 0,
                completed: 0,
                shed_deadline: 0,
                rejected_queue_full: 0,
                disk_requests: 0,
                metrics: Metrics::new(),
            })
            .collect(),
        pending: Vec::new(),
        credits: vec![0.0; n],
        weights: scenario.tenants.iter().map(|t| t.weight).collect(),
        trace: Vec::new(),
        dispatched: Vec::new(),
        digest: mix64(scenario.seed),
        admit_seq: 0,
        queue_cap: scenario.queue_cap,
    };
    let mut batches = 0u64;
    let mut dispatched_requests = 0u64;

    loop {
        let now = volume.with_device(0, |d| d.now_ms())?;
        state.admit_arrivals(now, now);
        if state.pending.is_empty() {
            match state.next_arrival() {
                Some((_, t)) => {
                    if t > now {
                        volume.idle_all(t - now);
                    }
                    // Clock floats may land a hair under `t`; admit
                    // against the target so the loop always progresses.
                    let clock = volume.with_device(0, |d| d.now_ms())?;
                    state.admit_arrivals(t.max(clock), clock.max(t));
                    continue;
                }
                None => break, // queue drained, clients exhausted
            }
        }
        state.shed_expired(now);
        if state.pending.is_empty() {
            continue;
        }
        let batch = select_batch(
            scenario.policy,
            &mut state.pending,
            scenario.batch_window,
            &mut state.credits,
            &state.weights,
        );

        // Translate each tenant request's beam into per-cell disk
        // requests, remembering which batch entry owns each one.
        let mut reqs: Vec<Request> = Vec::new();
        let mut owners: Vec<usize> = Vec::new();
        for (bi, q) in batch.iter().enumerate() {
            let region = BoxRegion::beam(&grid, q.req.dim, &q.req.anchor);
            for lbn in collect_lbns(mapping, &region)? {
                reqs.push(Request::new(lbn, mapping.cell_blocks()));
                owners.push(bi);
            }
        }
        // Attribution: under `QueuedSptf` an event's admission rank is
        // the index of its request in the submitted slice.
        let mut completion = vec![0.0f64; batch.len()];
        let mut unsubmitted = None;
        volume.service_batch_classified(
            0,
            &reqs,
            SchedulePolicy::QueuedSptf(scenario.queue_depth),
            |tr, e| {
                let Some(&bi) = owners.get(e.admission_rank) else {
                    unsubmitted.get_or_insert(e.request.lbn);
                    return;
                };
                let tenant = batch[bi].req.tenant;
                record_classified_event(&mut state.reports[tenant].metrics, tr, e);
                state.reports[tenant].disk_requests += 1;
                if e.after.time_ms > completion[bi] {
                    completion[bi] = e.after.time_ms;
                }
            },
        )?;
        if let Some(lbn) = unsubmitted {
            return Err(ServerError::Config(format!(
                "device reported an event for an unsubmitted request at lbn {lbn}"
            )));
        }
        batches += 1;
        dispatched_requests += reqs.len() as u64;

        for (bi, q) in batch.iter().enumerate() {
            let tenant = q.req.tenant;
            let done = completion[bi];
            state.reports[tenant].completed += 1;
            state.dispatched.push((tenant, q.req.seq));
            // The clock may sit a hair under an arrival it idled
            // towards; a batch is never stamped before its requests.
            let dispatch_ms = now.max(q.req.arrival_ms);
            state.resolve(&q.req, Outcome::Completed, Some(dispatch_ms), done);
        }
    }

    // Makespan: the last fate decided on the simulated clock.
    let makespan_ms = state
        .trace
        .iter()
        .map(|e| e.resolve_ms)
        .fold(0.0f64, f64::max);
    Ok(ServingReport {
        backend: volume.backend_name().to_string(),
        mapping: mapping.name().to_string(),
        policy: scenario.policy.slug().to_string(),
        tenants: state.reports,
        batches,
        dispatched_requests,
        makespan_ms,
        trace: state.trace,
        dispatched: state.dispatched,
        digest: state.digest,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::TenantSpec;
    use multimap_core::{GridSpec, MultiMapping, NaiveMapping};
    use multimap_disksim::{profiles, DiskSim};
    use multimap_telemetry::Counter;

    fn small_grid() -> GridSpec {
        GridSpec::new([24u64, 12, 8])
    }

    fn scenario(policy: FairnessPolicy) -> Scenario {
        Scenario {
            seed: 0xC0FFEE,
            tenants: vec![
                TenantSpec {
                    name: "open-a".into(),
                    weight: 2.0,
                    load: LoadModel::OpenLoop { rate_rps: 40.0 },
                    requests: 30,
                    deadline_ms: 400.0,
                    dim: 1,
                },
                TenantSpec {
                    name: "closed-b".into(),
                    weight: 1.0,
                    load: LoadModel::ClosedLoop { think_ms: 5.0 },
                    requests: 30,
                    deadline_ms: 400.0,
                    dim: 2,
                },
                TenantSpec {
                    name: "open-c".into(),
                    weight: 1.0,
                    load: LoadModel::OpenLoop { rate_rps: 25.0 },
                    requests: 20,
                    deadline_ms: 60.0,
                    dim: 1,
                },
            ],
            policy,
            queue_cap: 32,
            batch_window: 6,
            queue_depth: 32,
        }
    }

    fn volume() -> DeviceVolume<DiskSim> {
        let geom = profiles::small();
        DeviceVolume::from_devices(geom.clone(), vec![DiskSim::new(geom)]).unwrap()
    }

    fn mapping() -> MultiMapping {
        MultiMapping::new(&profiles::small(), small_grid()).unwrap()
    }

    #[test]
    fn counters_reconcile_for_every_policy() {
        for policy in [
            FairnessPolicy::Fifo,
            FairnessPolicy::EarliestDeadline,
            FairnessPolicy::WeightedTenant,
        ] {
            let v = volume();
            let m = mapping();
            let s = scenario(policy);
            let report = serve_scenario(&v, &m, &s).unwrap();
            let mut total_disk = 0;
            for (i, (t, spec)) in report.tenants.iter().zip(s.tenants.iter()).enumerate() {
                assert_eq!(t.submitted, spec.requests as u64, "every request submitted");
                assert_eq!(
                    t.submitted,
                    t.completed + t.shed_deadline + t.rejected_queue_full,
                    "{policy:?} {}: fate partition",
                    t.name
                );
                assert_eq!(
                    report.sorted_latencies_ms(Some(i)).len() as u64,
                    t.completed,
                    "one latency per completion"
                );
                assert_eq!(
                    t.metrics.counter_value(Counter::RequestsServiced),
                    t.disk_requests,
                    "telemetry matches dispatched disk requests"
                );
                total_disk += t.disk_requests;
            }
            assert_eq!(total_disk, report.dispatched_requests);
            assert_eq!(
                v.stats(0).unwrap().requests,
                report.dispatched_requests,
                "device saw exactly the dispatched requests"
            );
            assert_eq!(
                report.trace.len() as u64,
                report.tenants.iter().map(|t| t.submitted).sum::<u64>(),
                "every submission resolves exactly once"
            );
        }
    }

    /// Two tenants whose beams cross in one cell, dispatched as one
    /// batch: the device serves that cell twice, and each service is
    /// attributed to the tenant whose submitted request it was — every
    /// tenant gets exactly its beam's cells, and completes when the last
    /// event whose rank it owns does.
    #[test]
    fn shared_cells_are_attributed_by_admission_rank() {
        let grid = GridSpec::new([24u64, 12]);
        let geom = profiles::small();
        let m = MultiMapping::new(&geom, grid.clone()).unwrap();
        // Think time 0: both first requests arrive at t = 0 and share
        // the first (and only) batch. A row and a column always cross.
        let tenant = |name: &str, dim| TenantSpec {
            name: name.into(),
            weight: 1.0,
            load: LoadModel::ClosedLoop { think_ms: 0.0 },
            requests: 1,
            deadline_ms: 1e6,
            dim,
        };
        let s = Scenario {
            seed: 7,
            tenants: vec![tenant("row", 0), tenant("column", 1)],
            policy: FairnessPolicy::Fifo,
            queue_cap: 4,
            batch_window: 4,
            queue_depth: 8,
        };
        let report = serve_scenario(&volume(), &m, &s).unwrap();
        assert_eq!(report.batches, 1);

        // Replay the batch the loop must have submitted.
        let mut reqs = Vec::new();
        let mut owned = Vec::new();
        for (t, spec) in s.tenants.iter().enumerate() {
            let req = ClientGen::new(spec, t, s.seed, &grid).emit();
            let lbns = collect_lbns(&m, &BoxRegion::beam(&grid, req.dim, &req.anchor)).unwrap();
            owned.push(reqs.len()..reqs.len() + lbns.len());
            reqs.extend(lbns.into_iter().map(|l| Request::new(l, m.cell_blocks())));
        }
        let mut lbns: Vec<u64> = reqs.iter().map(|r| r.lbn).collect();
        lbns.sort_unstable();
        assert!(
            lbns.windows(2).any(|w| w[0] == w[1]),
            "the beams share a cell"
        );
        let (_, log) = volume()
            .service_batch_logged(0, &reqs, SchedulePolicy::QueuedSptf(s.queue_depth))
            .unwrap();
        for (t, ranks) in owned.iter().enumerate() {
            assert_eq!(
                report.tenants[t].disk_requests,
                grid.extent(s.tenants[t].dim),
                "tenant {t}"
            );
            let done = log
                .events()
                .iter()
                .filter(|e| ranks.contains(&e.admission_rank))
                .map(|e| e.after.time_ms)
                .fold(0.0, f64::max);
            let resolved = report
                .trace
                .iter()
                .find(|e| e.tenant == t)
                .unwrap()
                .resolve_ms;
            assert_eq!(resolved.to_bits(), done.to_bits(), "tenant {t}");
        }
    }

    #[test]
    fn shed_requests_never_reach_the_device() {
        // A hopeless deadline forces mass shedding.
        let mut s = scenario(FairnessPolicy::EarliestDeadline);
        s.tenants[2].deadline_ms = 0.001;
        let v = volume();
        let m = mapping();
        let report = serve_scenario(&v, &m, &s).unwrap();
        let shed: Vec<(usize, usize)> = report
            .trace
            .iter()
            .filter(|e| e.outcome != Outcome::Completed)
            .map(|e| (e.tenant, e.seq))
            .collect();
        assert!(!shed.is_empty(), "scenario must actually shed");
        for id in &shed {
            assert!(
                !report.dispatched.contains(id),
                "{id:?} shed yet dispatched"
            );
        }
    }

    #[test]
    fn replays_are_byte_identical() {
        let s = scenario(FairnessPolicy::WeightedTenant);
        let run = || {
            let v = volume();
            let m = mapping();
            serve_scenario(&v, &m, &s).unwrap()
        };
        let a = run();
        let b = run();
        assert!(a.identical(&b));
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn a_tenant_name_with_quotes_and_backslashes_survives_the_json_report() {
        let mut s = scenario(FairnessPolicy::Fifo);
        s.tenants[0].name = "a\"b\\".to_string();
        let report = serve_scenario(&volume(), &mapping(), &s).unwrap();
        let parsed = multimap_telemetry::json::parse(&report.to_json())
            .expect("the report is valid JSON whatever a tenant is called");
        let tenants = parsed.get("tenants").and_then(|t| t.as_arr()).unwrap();
        assert_eq!(tenants.len(), s.tenants.len());
        assert_eq!(
            tenants[0].get("name").and_then(|n| n.as_str()),
            Some("a\"b\\")
        );
        assert_eq!(
            tenants[0].get("completed").and_then(|c| c.as_u64()),
            Some(report.tenants[0].completed)
        );
    }

    #[test]
    fn naive_mapping_serves_the_same_population() {
        let v = volume();
        let m = NaiveMapping::new(small_grid(), 0);
        let report = serve_scenario(&v, &m, &scenario(FairnessPolicy::Fifo)).unwrap();
        assert_eq!(report.mapping, "Naive");
        assert!(report.dispatched_requests > 0);
    }

    /// A malformed scenario is a typed error naming what is wrong,
    /// before the device is touched. Every f64 a tenant carries must be
    /// finite, and so must the largest gap its load model can draw: an
    /// infinite gap used to reach `DiskSim::idle`, which panics in a
    /// debug build and silently serves everything at t = 0 in a release
    /// one. A think time of 1.5e308 or a rate of 1e-305 is finite but
    /// draws such a gap on a fraction of its draws. Infinite weights,
    /// deadlines and rates are rejected by the same rule rather than
    /// passed through.
    #[test]
    fn malformed_scenarios_are_typed_errors() {
        let (v, m) = (volume(), mapping());
        let rejected = |edit: &dyn Fn(&mut Scenario), names: &[&str]| {
            let mut s = scenario(FairnessPolicy::Fifo);
            edit(&mut s);
            match serve_scenario(&v, &m, &s) {
                Err(ServerError::Config(msg)) => {
                    assert!(
                        names.iter().all(|n| msg.contains(n)),
                        "{msg:?} lacks {names:?}"
                    )
                }
                other => panic!("{names:?}: expected a Config error, got {other:?}"),
            }
        };
        rejected(&|s| s.tenants.clear(), &["no tenants"]);
        rejected(&|s| s.tenants[0].dim = 9, &["open-a", "dim 9"]);
        rejected(&|s| s.batch_window = 0, &["batch_window"]);
        for think_ms in [f64::INFINITY, f64::NAN, 1.5e308] {
            let load = LoadModel::ClosedLoop { think_ms };
            rejected(&|s| s.tenants[1].load = load, &["closed-b", "think_ms"]);
        }
        for rate_rps in [1e-320, 1e-305, f64::NAN, 0.0, f64::INFINITY] {
            let load = LoadModel::OpenLoop { rate_rps };
            rejected(&|s| s.tenants[0].load = load, &["open-a", "rate_rps"]);
        }
        rejected(
            &|s| s.tenants[2].weight = f64::INFINITY,
            &["open-c", "weight"],
        );
        rejected(
            &|s| s.tenants[2].deadline_ms = f64::INFINITY,
            &["open-c", "deadline_ms"],
        );
    }
}
