//! Live model migration: move a pinned model between workers with zero
//! dropped requests.
//!
//! The protocol is dual-pin → cutover → drain:
//!
//! 1. **dual-pin** — pin the model on the destination worker, paying the
//!    simulated weight-preload cost. The moment the pin acknowledges,
//!    the router sees two live replicas; new traffic splits across both.
//! 2. **cutover** — unpin the source. The server clears the routing flag
//!    *before* enqueueing the unpin on the worker's FIFO queue, so no
//!    new work targets the source while everything already queued drains
//!    and completes normally.
//! 3. **drain** — a flush barrier on the source worker: when it returns,
//!    every request the source ever accepted has been answered.
//!
//! Because inference is deterministic and both workers pin the same
//! compiled [`ModelArtifact`](bw_gir::ModelArtifact), responses across
//! the cutover are bit-identical to an undisturbed pool — the migration
//! tests verify exactly that.

use std::time::{Duration, Instant};

use bw_serve::{PinError, Server};

use crate::metrics::FleetMetrics;

/// What a completed migration cost.
#[derive(Clone, Debug, PartialEq)]
pub struct MigrationReport {
    /// The model moved.
    pub model: String,
    /// The worker vacated.
    pub from: usize,
    /// The model's new home.
    pub to: usize,
    /// Simulated weight-preload time paid on the destination.
    pub preload: Duration,
    /// Wall-clock time for the whole dual-pin → cutover → drain.
    pub duration: Duration,
}

/// Migrates `model` from worker `from` to worker `to` without dropping
/// any in-flight or queued request.
///
/// Fails fast (before touching anything) if the model is not pinned on
/// `from`; every other failure mode surfaces as the underlying
/// [`PinError`]. On the dual-pin failing, the pool is untouched. On the
/// cutover failing (for example `from` already unpinned concurrently),
/// the destination pin is left in place — capacity only ever grows.
///
/// A source that dies is the rule's edge. Dead before the check, it no
/// longer counts as pinning the model: `migrate` returns
/// [`PinError::NotPinned`] and does not re-home a model whose only
/// replica it was — the [`FleetController`](crate::FleetController)'s
/// repair does. Dead at any later step, the migration completes and
/// leaves the model on `to`: a dead source unpins and drains at once.
pub fn migrate(
    server: &Server,
    model: &str,
    from: usize,
    to: usize,
    metrics: &FleetMetrics,
) -> Result<MigrationReport, PinError> {
    let started = Instant::now();
    if !server.pinned_workers(model).contains(&from) {
        return Err(PinError::NotPinned {
            model: model.to_owned(),
            worker: from,
        });
    }
    let preload = server.pin_model(model, to)?;
    metrics.add_preload(preload.as_secs_f64());
    server.unpin_model(model, from)?;
    server.drain_worker(from)?;
    let duration = started.elapsed();
    metrics
        .migrations
        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    metrics.record_op(to, started, duration.as_secs_f64());
    Ok(MigrationReport {
        model: model.to_owned(),
        from,
        to,
        preload,
        duration,
    })
}
