//! The request executor: every request shape — single, coalesced batch,
//! shard group — is one [`Plan`] driven by one leg driver, one stage
//! finisher and one request finisher. The lifecycle and its accounting,
//! network-charging and late-response rules are stated once, in the
//! [module documentation](super).

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bw_core::{RunStats, SpanKind, SpanRecord};
use bw_system::NetworkModel;

use super::few::Few;
use super::{head_sampled, Leg, Plan, ServerInner, TRACE_LOG_CAP};
use crate::metrics::MetricsSnapshot;
use crate::reply_slot::{reply_slot, ReplySlot, Unfilled};
use crate::request::{Attribution, RequestId, RequestTrace, Response, ServeError};
use crate::worker::{pay_owed_wakes, Columns, Completion, DispatchRefused, Job, Served};

/// An in-process handle for submitting requests.
#[derive(Clone)]
pub struct Client {
    pub(super) inner: Arc<ServerInner>,
}

impl Client {
    /// Validates, admits, and dispatches a request; the returned
    /// [`Pending`] drives the rest of the lifecycle. `deadline` is the
    /// total end-to-end budget from this call. Never blocks.
    ///
    /// A request sent to an idle replica starts no later than the first
    /// of: this thread's next park, its next dispatch to another worker,
    /// a modeled-network sleep, or the drop of the `Pending`. Usually
    /// that is [`Pending::wait`], which then runs the request on the
    /// waiting thread.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownModel`] / [`ServeError::BadInput`] /
    /// [`ServeError::SlaUnmeetable`] before admission (not counted), or
    /// [`ServeError::Shed`] / [`ServeError::NoReplica`] at admission
    /// (counted).
    pub fn submit(
        &self,
        model: &str,
        input: &[f32],
        deadline: Duration,
    ) -> Result<Pending, ServeError> {
        let (plan, net) = self
            .inner
            .resolve(model)
            .ok_or_else(|| ServeError::UnknownModel(model.to_owned()))?;
        plan.check(input.len(), deadline)?;
        let now = Instant::now();
        let columns = std::iter::once(input.to_vec()).collect();
        let epochs = std::iter::once((now, now + deadline));
        Run::admit(&self.inner, (plan, net), columns, epochs, now).map(|run| Pending { run })
    }

    /// [`Client::submit`] + [`Pending::wait`] in one call.
    ///
    /// # Errors
    ///
    /// As [`Client::submit`] and [`Pending::wait`].
    pub fn call(
        &self,
        model: &str,
        input: &[f32],
        deadline: Duration,
    ) -> Result<Response, ServeError> {
        self.submit(model, input, deadline)?.wait()
    }

    /// Serves a flushed micro-batch window of same-model requests,
    /// returning one [`Response`] (or [`ServeError`]) per member, in
    /// input order. The window is **one** run of the model's plan, whole
    /// model or shard group, its members the columns of every leg; their
    /// inputs move into the run uncopied.
    ///
    /// Every member is its own request in the ledger: it gets a request
    /// id, counts toward `submitted` when admitted, and terminates
    /// exactly once — also under a mid-batch worker kill, where the leg
    /// fails over with every member on board. Each member is checked by
    /// [`Client::submit`]'s rule, its [`BatchItem::budget`] against the
    /// static bound; one that fails ([`ServeError::BadInput`],
    /// [`ServeError::SlaUnmeetable`]) is rejected without admission and
    /// without blocking the rest.
    ///
    /// Latency and the deadline are measured from each member's
    /// [`BatchItem::arrived_at`] and [`BatchItem::deadline_at`], so time
    /// spent in a batcher window is charged to the request that waited:
    /// a member whose deadline lapsed in the window fails
    /// [`ServeError::DeadlineExceeded`].
    pub fn call_batch(
        &self,
        model: &str,
        mut items: Vec<BatchItem>,
    ) -> Vec<Result<Response, ServeError>> {
        let Some((plan, net)) = self.inner.resolve(model) else {
            let unknown = Err(ServeError::UnknownModel(model.to_owned()));
            return vec![unknown; items.len()];
        };
        let mut results = Vec::with_capacity(items.len());
        items.retain(|item| {
            let rejected = plan.check(item.input.len(), item.budget()).err();
            results.push(rejected.map(Err));
            results.last().is_some_and(Option::is_none)
        });
        let mut outcomes = Few::new();
        if !items.is_empty() {
            plan.metrics.batches.fetch_add(1, Ordering::Relaxed);
            plan.metrics
                .batched_requests
                .fetch_add(items.len() as u64, Ordering::Relaxed);
            let columns = items.iter_mut().map(|item| std::mem::take(&mut item.input));
            let columns = columns.collect();
            let epochs = items.iter().map(|item| (item.arrived_at, item.deadline_at));
            let admitted = Run::admit(&self.inner, (plan, net), columns, epochs, Instant::now());
            outcomes = match admitted {
                Ok(run) => run.drive(),
                Err(e) => items.iter().map(|_| Err(e.clone())).collect(),
            };
        }
        // Each admitted member's outcome fills its `None`, in order.
        let mut outcomes = outcomes.drain();
        let settled = results.into_iter().map(|r| r.or_else(|| outcomes.next()));
        settled.map(|r| r.expect("every member settled")).collect()
    }

    /// A point-in-time metrics reading (same as [`Server::metrics`](super::Server::metrics)).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.inner.snapshot()
    }

    /// [`Client::metrics`] as a Prometheus text exposition, plus the
    /// registered extra sources (same as
    /// [`Server::prometheus`](super::Server::prometheus)).
    pub fn prometheus(&self) -> String {
        self.inner.prometheus()
    }

    /// The static lower bound on one inference of `model` in
    /// microseconds, when provable (whole models and shard groups
    /// alike). This is the bound admission compares deadlines against.
    pub fn static_bound_us(&self, model: &str) -> Option<u64> {
        self.inner.resolve(model)?.0.bound_us
    }

    /// The input width `model` expects, if registered (whole models and
    /// shard groups alike).
    pub fn input_dim_of(&self, model: &str) -> Option<usize> {
        self.inner.resolve(model).map(|(plan, _)| plan.input_dim)
    }

    /// Addressable model names in metrics-row order: whole models and
    /// shard-group members by slot, then shard-group names.
    pub fn model_names(&self) -> Vec<String> {
        self.inner
            .plans()
            .iter()
            .map(|plan| plan.name.clone())
            .collect()
    }
}

/// One member of a coalesced micro-batch handed to
/// [`Client::call_batch`]. Deadlines are absolute so a batcher can hold
/// a request without eroding its budget bookkeeping, and `arrived_at`
/// anchors the member's reported latency to when it actually entered
/// the system (not when the batch flushed).
#[derive(Clone, Debug)]
pub struct BatchItem {
    /// The member's input vector.
    pub input: Vec<f32>,
    /// Absolute deadline for this member.
    pub deadline_at: Instant,
    /// When the member entered the system (latency epoch).
    pub arrived_at: Instant,
}

impl BatchItem {
    /// A member arriving now with a relative deadline budget.
    pub fn new(input: Vec<f32>, deadline: Duration) -> BatchItem {
        let now = Instant::now();
        BatchItem {
            input,
            deadline_at: now + deadline,
            arrived_at: now,
        }
    }

    /// The member's whole deadline budget, from its arrival.
    pub fn budget(&self) -> Duration {
        self.deadline_at.saturating_duration_since(self.arrived_at)
    }
}

/// An admitted, dispatched request (whole-model or shard-group). Call
/// [`Pending::wait`] to drive failover and obtain the outcome; when the
/// request's job heads an idle replica's queue, the wait runs it on the
/// calling thread. A request sent to an idle replica starts no later
/// than the first of: its submitter's next park, its next dispatch to
/// another worker, a modeled-network sleep, or the drop of its
/// `Pending`. Dropping an unwaited `Pending` records the request as
/// failed (abandoned), keeping the metrics identity intact; its job
/// still runs.
pub struct Pending {
    run: Run,
}

impl Pending {
    /// The server-assigned request id.
    pub fn request_id(&self) -> RequestId {
        self.run.members[0].id
    }

    /// Drives the request to termination: runs or waits on the current
    /// attempt (every shard of the current segment, for a group), failing
    /// over to replicas on fault, death, or attempt timeout, until
    /// completion, the deadline, or the retry budget ends it.
    ///
    /// # Errors
    ///
    /// Returns the terminal [`ServeError`]; every error path is recorded
    /// in the metrics exactly once.
    pub fn wait(self) -> Result<Response, ServeError> {
        let mut outcomes = self.run.drive();
        let outcome = outcomes.drain().next();
        outcome.expect("one member, one outcome")
    }
}

/// One member request riding a run: one for a single or sharded
/// request, N for a coalesced window.
struct Member {
    id: RequestId,
    /// The latency epoch.
    arrived_at: Instant,
    deadline_at: Instant,
}

/// Each member's outcome, in member order.
type Outcomes = Few<Result<Response, ServeError>>;

/// One leg of the in-flight stage.
struct LegRun {
    /// Workers that already tried this leg: one more than the failover
    /// retries it consumed.
    tried: Few<usize>,
    /// When the leg's first attempt was dispatched (member-row latency).
    dispatched_at: Instant,
    /// The current attempt's ticket on its worker's queue (the worker
    /// is the last of `tried`).
    ticket: u64,
    /// The current attempt's reply slot.
    reply: ReplySlot<Completion>,
    /// Whether an attempt was accepted: the leg completed on its member
    /// row.
    done: bool,
}

enum DispatchStopped {
    /// Every candidate's queue was full.
    AllFull,
    /// No live, untried candidate exists.
    NoReplica,
}

/// An admitted plan in execution: its member requests, the in-flight
/// stage, and what the finished stages accumulated.
struct Run {
    inner: Arc<ServerInner>,
    plan: Arc<Plan>,
    /// The network model read with the plan: the run routes and charges
    /// by it to the end.
    net: NetworkModel,
    members: Few<Member>,
    /// The latest member deadline: workers expire jobs at it and the leg
    /// driver waits no longer. Earlier member deadlines are checked by
    /// the late-response rule.
    deadline: Instant,
    /// Workers only emit spans when asked at dispatch, and tail sampling
    /// decides retention at termination — so when armed, every request
    /// collects spans and the retention rule discards the uninteresting
    /// ones.
    collect_spans: bool,
    /// Index of the in-flight stage.
    stage: usize,
    /// The in-flight stage's input columns.
    input: Columns,
    legs: Few<LegRun>,
    /// The driving thread's latest clock reading (the staleness rule in
    /// the [module documentation](super)).
    stamp: Instant,
    /// Failover retries across all legs and stages.
    retries: u32,
    network_s: f64,
    queue_wait_s: f64,
    service_s: f64,
    stats: RunStats,
    spans: Vec<SpanRecord>,
    /// The worker of the last finished leg.
    worker: usize,
    settled: bool,
}

impl Run {
    /// Admits one run of a resolved `(plan, network)` over `input` — one
    /// column and one `(arrived_at, deadline_at)` epoch per member
    /// request — and scatters stage 0 stamped `now`, so that a full pool
    /// sheds at admission.
    fn admit(
        inner: &Arc<ServerInner>,
        (plan, net): (Arc<Plan>, NetworkModel),
        input: Columns,
        epochs: impl Iterator<Item = (Instant, Instant)>,
        now: Instant,
    ) -> Result<Run, ServeError> {
        let members: Few<Member> = epochs
            .map(|(arrived_at, deadline_at)| Member {
                id: inner.next_request_id(),
                arrived_at,
                deadline_at,
            })
            .collect();
        let deadline = members
            .iter()
            .map(|m| m.deadline_at)
            .max()
            .expect("a run has at least one member");
        plan.metrics
            .submitted
            .fetch_add(members.len() as u64, Ordering::Relaxed);
        let collect_spans = inner.cfg.tail_sample.is_some()
            || members.iter().any(|m| head_sampled(&inner.cfg, m.id));
        let mut run = Run {
            inner: Arc::clone(inner),
            plan,
            net,
            members,
            deadline,
            collect_spans,
            stage: 0,
            input,
            legs: Few::new(),
            stamp: now,
            retries: 0,
            network_s: 0.0,
            queue_wait_s: 0.0,
            service_s: 0.0,
            stats: RunStats::default(),
            spans: Vec::new(),
            worker: 0,
            settled: false,
        };
        match run.scatter() {
            Ok(()) => Ok(run),
            Err(DispatchStopped::AllFull) => Err(run.settle(ServeError::Shed {
                model: run.plan.name.clone(),
            })),
            Err(DispatchStopped::NoReplica) => Err(run.settle(run.no_replica())),
        }
    }

    fn no_replica(&self) -> ServeError {
        ServeError::NoReplica {
            model: self.plan.name.clone(),
        }
    }

    fn deadline_exceeded(&self) -> ServeError {
        ServeError::DeadlineExceeded {
            model: self.plan.name.clone(),
            retries: self.retries,
        }
    }

    /// The terminal error of a leg that cannot be re-dispatched: the
    /// worker fault that ended its last attempt, or `otherwise` when the
    /// attempt timed out or its worker died.
    fn fault_or(&self, fault: Option<String>, otherwise: ServeError) -> ServeError {
        match fault {
            Some(message) => ServeError::WorkerFault {
                model: self.plan.name.clone(),
                message,
                retries: self.retries,
            },
            None => otherwise,
        }
    }

    /// Walks the router's order and enqueues one attempt of `leg`,
    /// stamped `self.stamp`, on the first worker that pins its slot over
    /// a live link and has queue room, skipping `tried`. A parked worker
    /// is woken at once when `wake` is set, and otherwise owed the wake
    /// by this thread. Returns the worker, the attempt's ticket and its
    /// reply slot, or what stopped dispatch.
    fn dispatch(
        &self,
        leg: &Leg,
        tried: &Few<usize>,
        wake: bool,
    ) -> Result<(usize, u64, ReplySlot<Completion>), DispatchStopped> {
        let workers = &self.inner.workers;
        let order = self.inner.router.order(workers, |w| {
            !tried.iter().any(|&t| t == w) && workers[w].pins(leg.slot) && self.net.link_up(w)
        });
        let (mut full, mut dead) = (false, false);
        for worker in order {
            let (fill, reply) = reply_slot();
            let job = Job {
                model: leg.slot,
                columns: Arc::clone(&self.input),
                deadline: self.deadline,
                reply: fill,
                enqueued_at: self.stamp,
                collect_spans: self.collect_spans,
            };
            let handle = &workers[worker];
            // Work this thread queued elsewhere runs meanwhile.
            pay_owed_wakes(Some(handle));
            match handle.try_dispatch(job, wake) {
                Ok(ticket) => return Ok((worker, ticket, reply)),
                Err(DispatchRefused::QueueFull) => full = true,
                Err(DispatchRefused::Dead) => dead = true,
            }
        }
        // No candidate, or one that died under us, is no replica.
        if full && !dead {
            Err(DispatchStopped::AllFull)
        } else {
            Err(DispatchStopped::NoReplica)
        }
    }

    /// Dispatches every leg of the in-flight stage. Every leg but the
    /// last wakes its worker now, so the stage's legs run side by side;
    /// the last one's wake is owed, for the leg driver to run it here or
    /// pay. On error the legs already dispatched stay in `legs` for the
    /// terminal accounting.
    fn scatter(&mut self) -> Result<(), DispatchStopped> {
        let width = self.plan.stages[self.stage].len();
        for (i, leg) in self.plan.stages[self.stage].iter().enumerate() {
            if let Some(member) = &leg.member {
                member.submitted.fetch_add(1, Ordering::Relaxed);
            }
            match self.dispatch(leg, &Few::new(), i + 1 < width) {
                Ok((worker, ticket, reply)) => self.legs.push(LegRun {
                    tried: std::iter::once(worker).collect(),
                    dispatched_at: self.stamp,
                    ticket,
                    reply,
                    done: false,
                }),
                Err(stop) => {
                    // Admitted on the member's row but never dispatched:
                    // terminal for the leg.
                    if let Some(member) = &leg.member {
                        member.failed.fetch_add(1, Ordering::Relaxed);
                    }
                    return Err(stop);
                }
            }
        }
        Ok(())
    }

    /// The leg driver: waits for leg `i` of the in-flight stage, failing
    /// it over on worker fault, worker death or attempt timeout, until
    /// an attempt is accepted (its reply is returned) or the request is
    /// terminal. The driver first runs the attempt on this thread if the
    /// job heads its worker's queue and the device is free. A reply that
    /// is then in — run here, or already by another thread — is taken
    /// without waking anyone; otherwise the driver pays this thread's
    /// owed wakes, wakes the attempt's worker and parks.
    fn drive_leg(&mut self, i: usize) -> Result<Served, ServeError> {
        loop {
            // The one check that may read a stale stamp.
            if self.stamp >= self.deadline {
                return Err(self.deadline_exceeded());
            }
            let leg = &self.legs[i];
            let worker = &self.inner.workers[*leg.tried.last().expect("a dispatched leg")];
            let ran_here = worker.run_here(leg.ticket);
            let reply = match leg.reply.try_take() {
                Err(Unfilled::Timeout) => {
                    pay_owed_wakes(None);
                    // The attempt may have been queued by another thread.
                    worker.wake();
                    // The attempt timeout runs from the park.
                    let timeout = self.inner.cfg.attempt_timeout;
                    let attempt = timeout.and_then(|t| Instant::now().checked_add(t));
                    let end = attempt.map_or(self.deadline, |end| end.min(self.deadline));
                    leg.reply.wait_until(Some(end))
                }
                // Run here, or by another thread already: nothing to wake.
                taken => taken,
            };
            let fault = match reply {
                Ok(Completion::Done(served)) => {
                    // The end of a run this thread made, else the receipt.
                    self.stamp = if ran_here {
                        served.done_at
                    } else {
                        Instant::now()
                    };
                    let leg = &mut self.legs[i];
                    if let Some(member) = &self.plan.stages[self.stage][i].member {
                        // Network time is attributed on the request's row.
                        member.complete(
                            self.stamp
                                .saturating_duration_since(leg.dispatched_at)
                                .as_secs_f64(),
                            served.queue_wait_s,
                            served.service_s,
                            0.0,
                            &served.stats,
                        );
                    }
                    leg.done = true;
                    return Ok(served);
                }
                Ok(Completion::Fault { worker, message }) => {
                    Some(format!("worker {worker}: {message}"))
                }
                // The worker saw the job after its deadline: terminal.
                Ok(Completion::Expired) => return Err(self.deadline_exceeded()),
                Err(Unfilled::Timeout) if Instant::now() >= self.deadline => {
                    return Err(self.deadline_exceeded());
                }
                // An attempt timeout with budget left, or the worker
                // died with the job queued or executing.
                Err(Unfilled::Timeout | Unfilled::Disconnected) => None,
            };
            self.failover(i, fault)?;
        }
    }

    /// Re-dispatches leg `i` to a worker that has not tried it, or
    /// returns the error that ends the request.
    fn failover(&mut self, i: usize, fault: Option<String>) -> Result<(), ServeError> {
        if self.legs[i].tried.len() > self.inner.cfg.max_retries as usize {
            return Err(self.fault_or(fault, self.deadline_exceeded()));
        }
        self.retries += 1;
        let members = self.members.len() as u64;
        self.plan
            .metrics
            .retries
            .fetch_add(members, Ordering::Relaxed);
        let leg = &self.plan.stages[self.stage][i];
        if let Some(member) = &leg.member {
            member.retries.fetch_add(1, Ordering::Relaxed);
        }
        // The leg driver runs or wakes the new attempt next.
        self.stamp = Instant::now();
        match self.dispatch(leg, &self.legs[i].tried, false) {
            Ok((worker, ticket, reply)) => {
                let leg = &mut self.legs[i];
                leg.tried.push(worker);
                leg.ticket = ticket;
                leg.reply = reply;
                Ok(())
            }
            Err(_) => Err(self.fault_or(fault, self.no_replica())),
        }
    }

    /// Drives the run to its end, one stage at a time: gathers the
    /// stage's legs, finishes the stage, then scatters the next one or
    /// finishes the request. One outcome per member.
    fn drive(mut self) -> Outcomes {
        loop {
            let mut replies = Few::new();
            for i in 0..self.legs.len() {
                match self.drive_leg(i) {
                    Ok(served) => replies.push(served),
                    Err(e) => return self.fail(e),
                }
            }
            let outputs = self.finish_stage(replies);
            self.stage += 1;
            if self.stage == self.plan.stages.len() {
                return self.finish(outputs);
            }
            self.input = outputs.into();
            // Shedding is an admission outcome: past stage 0 a full pool
            // is a failure like a missing replica.
            if self.scatter().is_err() {
                return self.fail(self.no_replica());
            }
        }
    }

    /// The stage finisher, given every leg's accepted reply in leg order:
    /// charges each leg's request and response message, sleeps until the
    /// slowest leg's response is delivered, accumulates attribution and
    /// spans, and concatenates the legs' outputs column by column.
    fn finish_stage(&mut self, mut replies: Few<Served>) -> Vec<Vec<f32>> {
        self.legs = Few::new();
        let (inner, net) = (&self.inner, &self.net);
        let bytes = |columns: &[Vec<f32>]| columns.iter().map(|c| c.len() * 4).sum::<usize>();
        let in_bytes = bytes(&self.input);
        let (mut net_s, mut queue_s, mut service_s) = (0.0f64, 0.0f64, 0.0f64);
        let mut delivered_at = None;
        let mut outputs: Vec<Vec<f32>> = Vec::new();
        let legs = self.plan.stages[self.stage].iter().zip(replies.drain());
        for (ordinal, (leg, done)) in legs.enumerate() {
            // An ideal network charges and delays nothing.
            let mut leg_s = 0.0;
            if !net.is_ideal() {
                leg_s = inner.charge_leg(net, done.worker, in_bytes)
                    + inner.charge_leg(net, done.worker, bytes(&done.outputs));
                let at = done.done_at + Duration::from_secs_f64(leg_s);
                delivered_at = delivered_at.max(Some(at));
            }
            net_s = net_s.max(leg_s);
            queue_s = queue_s.max(done.queue_wait_s);
            service_s = service_s.max(done.service_s);
            self.stats.accumulate(&done.stats);
            self.worker = done.worker;
            if self.collect_spans {
                // Stamp the request's trace id, and a shard's NPU spans
                // with the owning worker as the device, so a gathered
                // trace reads as the spatially distributed execution it
                // was.
                let trace_id = self.members[0].id;
                let shard = leg.member.is_some().then_some(done.worker as u32);
                self.spans.extend(done.spans.into_iter().map(|mut span| {
                    span.trace_id = trace_id;
                    span.device = shard.unwrap_or(span.device);
                    span
                }));
                if shard.is_some() && leg_s > 0.0 {
                    self.spans.push(SpanRecord {
                        trace_id,
                        device: done.worker as u32,
                        kind: SpanKind::NetTransfer,
                        chain: ordinal as u64 + 1,
                        start_cycle: 0,
                        end_cycle: (leg_s * leg.clock_hz) as u64,
                    });
                }
            }
            if outputs.is_empty() {
                outputs = done.outputs;
            } else {
                for (column, part) in outputs.iter_mut().zip(&done.outputs) {
                    column.extend_from_slice(part);
                }
            }
        }
        if net_s > 0.0 {
            pay_owed_wakes(None);
            let wait = delivered_at.map(|at| at.saturating_duration_since(Instant::now()));
            std::thread::sleep(wait.unwrap_or_default());
            self.stamp = Instant::now();
            self.network_s += net_s;
        }
        self.queue_wait_s += queue_s;
        self.service_s += service_s;
        outputs
    }

    /// The request finisher for a served run: one terminal per member —
    /// completed, or failed by the late-response rule — with its share
    /// of the attribution, its trace retention and its response. The
    /// run's stamp is its delivery: it was taken after the last output
    /// reached this thread.
    fn finish(&mut self, outputs: Vec<Vec<f32>>) -> Outcomes {
        self.settled = true;
        let plan = &self.plan;
        let delivered_at = self.stamp;
        let k = self.members.len() as u64;
        let service_s = self.service_s / k as f64;
        let network_s = self.network_s / k as f64;
        let members = self.members.iter().zip(outputs).enumerate();
        members
            .map(|(p, (member, output))| {
                let latency = delivered_at.saturating_duration_since(member.arrived_at);
                if delivered_at >= member.deadline_at {
                    let err = self.deadline_exceeded();
                    plan.metrics.failed.fetch_add(1, Ordering::Relaxed);
                    self.retain(member, latency, Err(&err.to_string()));
                    return Err(err);
                }
                let share = |total: u64| total / k + u64::from((p as u64) < total % k);
                let stats = RunStats {
                    cycles: share(self.stats.cycles),
                    mvm_macs: share(self.stats.mvm_macs),
                    dep_stall_cycles: share(self.stats.dep_stall_cycles),
                    resource_stall_cycles: share(self.stats.resource_stall_cycles),
                    ..self.stats.clone()
                };
                plan.metrics.complete(
                    latency.as_secs_f64(),
                    self.queue_wait_s,
                    service_s,
                    network_s,
                    &stats,
                );
                let attribution = Attribution {
                    queue_wait: Duration::from_secs_f64(self.queue_wait_s),
                    service: Duration::from_secs_f64(service_s),
                    network: Duration::from_secs_f64(network_s),
                    npu_cycles: stats.cycles,
                    npu_macs: stats.mvm_macs,
                    dep_stall_cycles: stats.dep_stall_cycles,
                    resource_stall_cycles: stats.resource_stall_cycles,
                };
                self.retain(member, latency, Ok((attribution, stats)));
                Ok(Response {
                    request_id: member.id,
                    output,
                    latency,
                    worker: self.worker,
                    retries: self.retries,
                    attribution,
                })
            })
            .collect()
    }

    /// Ends the request with `err` for every member.
    fn fail(&mut self, err: ServeError) -> Outcomes {
        let err = self.settle(err);
        (0..self.members.len()).map(|_| Err(err.clone())).collect()
    }

    /// The request finisher for a run that ends without a response:
    /// accounts it once and hands the error back.
    fn settle(&mut self, err: ServeError) -> ServeError {
        self.settle_unserved(err.is_shed(), &err.to_string());
        err
    }

    /// Terminal accounting of an unserved run, exactly once: every
    /// member counts as shed or failed, every leg still in flight fails
    /// on its member row (gathered legs already completed there), and
    /// failures — not sheds, which never got capacity — pass through
    /// the retention rule.
    fn settle_unserved(&mut self, shed: bool, why: &str) {
        if std::mem::replace(&mut self.settled, true) {
            return;
        }
        // An abandoned attempt still runs; a shed one frees the thread's
        // other queued work.
        pay_owed_wakes(None);
        let metrics = &self.plan.metrics;
        let terminal = if shed { &metrics.shed } else { &metrics.failed };
        terminal.fetch_add(self.members.len() as u64, Ordering::Relaxed);
        let stage = self.plan.stages.get(self.stage).into_iter().flatten();
        for (leg, run) in stage.zip(self.legs.drain()) {
            if let (Some(member), false) = (&leg.member, run.done) {
                member.failed.fetch_add(1, Ordering::Relaxed);
            }
        }
        if !shed {
            let now = Instant::now();
            for member in self.members.iter() {
                let latency = now.saturating_duration_since(member.arrived_at);
                self.retain(member, latency, Err(why));
            }
        }
    }

    /// The one retention rule, applied once to each member that served
    /// or failed: its trace is kept iff it was head-sampled, or tail
    /// sampling is armed and it failed or took longer than the
    /// objective. The log keeps the latest [`TRACE_LOG_CAP`].
    fn retain(
        &self,
        member: &Member,
        latency: Duration,
        outcome: Result<(Attribution, RunStats), &str>,
    ) {
        let cfg = &self.inner.cfg;
        let tail = |objective| outcome.is_err() || latency > objective;
        if !head_sampled(cfg, member.id) && !cfg.tail_sample.is_some_and(tail) {
            return;
        }
        let (worker, (attribution, stats), error) = match outcome {
            Ok(served) => (Some(self.worker), served, None),
            Err(error) => (None, Default::default(), Some(error.to_owned())),
        };
        let trace = RequestTrace {
            request_id: member.id,
            trace_id: self.members[0].id,
            model: self.plan.name.clone(),
            worker,
            latency,
            error,
            attribution,
            stats,
            spans: self.spans.clone(),
        };
        let mut log = self.inner.trace_log.lock().unwrap();
        if log.len() >= TRACE_LOG_CAP {
            log.pop_front();
        }
        log.push_back(trace);
    }
}

impl Drop for Run {
    fn drop(&mut self) {
        // Abandoned without waiting: account it as failed so every row's
        // identity holds.
        self.settle_unserved(false, "abandoned");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{BatchConfig, Batcher};
    use crate::demo::{demo_input, mlp_artifact};
    use crate::server::Server;
    use crate::worker::tests::{parked, until_parked, Panics, Slow};
    use crate::worker::Control;
    use bw_system::Routing;

    const DEADLINE: Duration = Duration::from_secs(10);

    /// A pool of `replicas` serving `m`, where worker 0's replica panics
    /// whenever it runs.
    fn pool(replicas: usize) -> Server {
        let server = Server::builder()
            .model(mlp_artifact("m", &[16, 8], 3))
            .replicas(replicas)
            .policy(Routing::LeastOutstanding)
            .spawn()
            .unwrap();
        let panics = Control::Pin {
            slot: 0,
            model: Box::new(Panics),
            preload_s: 0.0,
            bytes: 0,
        };
        assert!(server.inner.workers[0].control(panics));
        server
    }

    fn assert_accounted(server: &Server, completed: u64, failed: u64) {
        let m = &server.metrics().models[0];
        assert_eq!((m.completed, m.failed), (completed, failed));
        assert_eq!(m.completed + m.shed + m.failed, m.submitted);
    }

    fn assert_panic_fault(err: &ServeError) {
        assert!(matches!(err, ServeError::WorkerFault { .. }), "{err}");
        assert!(
            err.to_string().contains("injected simulator panic"),
            "{err}"
        );
    }

    #[test]
    fn a_panicking_simulation_fails_over_and_its_caller_survives() {
        let server = pool(2);
        let resp = server
            .client()
            .call("m", &demo_input(16, 0), DEADLINE)
            .unwrap();
        assert_eq!((resp.worker, resp.retries), (1, 1));
        assert_eq!(server.workers_alive(), [false, true]);
        assert_accounted(&server, 1, 0);
    }

    #[test]
    fn an_attempt_its_caller_runs_is_not_cut_short_by_the_attempt_timeout() {
        // One idle worker whose replica takes ten attempt timeouts: run by
        // the worker's thread, the attempt would time out and fail over.
        let server = Server::builder()
            .model(mlp_artifact("m", &[16, 8], 3))
            .replicas(1)
            .attempt_timeout(Duration::from_millis(5))
            .spawn()
            .unwrap();
        let worker = &server.inner.workers[0];
        let slow = Slow(
            Duration::from_millis(50),
            mlp_artifact("m", &[16, 8], 3).pin().unwrap(),
        );
        let pin = Control::Pin {
            slot: 0,
            model: Box::new(slow),
            preload_s: 0.0,
            bytes: 0,
        };
        assert!(worker.control(pin));
        until_parked(worker);
        let resp = server
            .client()
            .call("m", &demo_input(16, 0), DEADLINE)
            .unwrap();
        assert_eq!(resp.retries, 0);
        assert_eq!(server.metrics().worker_caller_runs, [1]);
        assert_accounted(&server, 1, 0);
    }

    #[test]
    fn a_wait_whose_job_another_thread_ran_wakes_nobody() {
        let server = Server::builder()
            .model(mlp_artifact("m", &[16, 8], 3))
            .replicas(1)
            .spawn()
            .unwrap();
        let worker = &server.inner.workers[0];
        let client = server.client();
        until_parked(worker);
        let a = client.submit("m", &demo_input(16, 0), DEADLINE).unwrap();
        // The flush waits behind A, so the worker's thread runs A.
        assert!(worker.control(Control::Flush));
        until_parked(worker);
        let b = client.submit("m", &demo_input(16, 1), DEADLINE).unwrap();
        a.wait().unwrap();
        assert!(parked(worker), "taking A's reply woke the worker for B");
        b.wait().unwrap();
        assert_eq!(
            server.metrics().worker_caller_runs,
            [1],
            "B ran on its caller"
        );
        assert_accounted(&server, 2, 0);
    }

    #[test]
    fn a_panic_without_a_replica_left_fails_the_request_not_the_thread() {
        // A `Pending::wait` on a thread of its own.
        let server = pool(1);
        let pending = server
            .client()
            .submit("m", &demo_input(16, 0), DEADLINE)
            .unwrap();
        let waited = std::thread::spawn(move || pending.wait()).join();
        assert_panic_fault(&waited.expect("the waiting thread survives").unwrap_err());
        assert_accounted(&server, 0, 1);

        // A batcher's dispatcher: it reports the fault, then serves the
        // next window, which finds no replica left.
        let server = pool(1);
        let batcher = Batcher::new(
            server.client(),
            BatchConfig {
                max_batch: 1,
                dispatchers: 1,
                ..BatchConfig::default()
            },
        );
        let call = || batcher.call("m", demo_input(16, 1), DEADLINE).unwrap_err();
        assert_panic_fault(&call());
        assert!(matches!(call(), ServeError::NoReplica { .. }));
        drop(batcher);
        assert_accounted(&server, 0, 2);
    }
}
