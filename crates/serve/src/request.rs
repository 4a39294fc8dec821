//! The request lifecycle vocabulary: identifiers, successful responses,
//! and the explicit error taxonomy of §II-A serving (millisecond
//! deadlines, replica failover, load shedding instead of collapse).

use std::time::Duration;

use bw_core::{RunStats, SpanRecord, TraceId};

/// A server-assigned request identifier, unique per server instance.
pub(crate) type RequestId = u64;

/// Where one completed request's time and NPU work went: the queue-wait
/// vs service split of the winning attempt plus the accelerator counters
/// it accumulated. Every completion carries one (zeroed only if the
/// serving path could not measure it).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Attribution {
    /// Time the winning attempt sat in the worker queue before a thread
    /// picked it up.
    pub queue_wait: Duration,
    /// Time the winning attempt spent executing on the worker's NPUs.
    pub service: Duration,
    /// Modeled network transfer time charged to this request (scatter,
    /// gather, and request/response legs under the server's
    /// `NetworkModel`; zero on an ideal network).
    pub network: Duration,
    /// Simulated NPU cycles the inference consumed.
    pub npu_cycles: u64,
    /// MVM multiply-accumulates the inference performed.
    pub npu_macs: u64,
    /// Each chain's wait on its dependencies, summed over chains
    /// ([`bw_core::RunStats::dep_stall_cycles`]); not pipeline cycles.
    pub dep_stall_cycles: u64,
    /// Each chain's wait on its resource, summed over chains
    /// ([`bw_core::RunStats::resource_stall_cycles`]); can exceed
    /// `npu_cycles`.
    pub resource_stall_cycles: u64,
}

/// A completed inference.
#[derive(Clone, Debug, PartialEq)]
pub struct Response {
    /// The request this answers.
    pub request_id: RequestId,
    /// The model output vector.
    pub output: Vec<f32>,
    /// End-to-end latency, submit to completion.
    pub latency: Duration,
    /// Worker that produced the accepted attempt.
    pub worker: usize,
    /// Failover retries this request consumed (0 = first attempt won).
    pub retries: u32,
    /// Queue/service split and attributed NPU counters.
    pub attribution: Attribution,
}

/// One request's kept trace: its outcome and attribution plus the raw
/// [`SpanRecord`]s the NPUs emitted while serving it. The server keeps a
/// trace iff the request was head-sampled (`trace_sample`), or it failed
/// or took longer than the `tail_sample` objective; why can be read off
/// `latency` and `error`. Drained via `Server::take_traces`.
#[derive(Clone, Debug)]
pub struct RequestTrace {
    /// The request the spans belong to.
    pub request_id: RequestId,
    /// The span `trace_id` stamped on every record: the id of the first
    /// request of its run (`request_id` unless coalesced into a batch).
    pub trace_id: TraceId,
    /// The model served.
    pub model: String,
    /// Worker that produced the accepted attempt; `None` if the request
    /// failed.
    pub worker: Option<usize>,
    /// Time from admission to the request's end.
    pub latency: Duration,
    /// The rendered terminal error of a failed request.
    pub error: Option<String>,
    /// Queue/service split and attributed NPU counters (zeroed if the
    /// request failed).
    pub attribution: Attribution,
    /// Full accelerator statistics of the winning attempt (zeroed if the
    /// request failed).
    pub stats: RunStats,
    /// Spans the NPU pool emitted, in emission order (for a failed
    /// request, whatever its finished stages produced).
    pub spans: Vec<SpanRecord>,
}

/// Why a request did not complete. Every in-flight request terminates in
/// exactly one of [`Response`] or one of these — there are no silent
/// drops, and the metrics account for each (`completed + shed + failed ==
/// submitted`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// No registered model has this name (rejected before admission; not
    /// counted as submitted).
    UnknownModel(
        /// The requested model name.
        String,
    ),
    /// The input vector length does not match the model (rejected before
    /// admission; not counted as submitted).
    BadInput {
        /// Dimension the model consumes.
        expected: usize,
        /// Dimension supplied.
        got: usize,
    },
    /// Load shed at admission: every live replica's queue was full. The
    /// graceful-degradation path — the server answers immediately instead
    /// of building an unbounded backlog.
    Shed {
        /// The model whose replicas were saturated.
        model: String,
    },
    /// The deadline passed before any replica completed the request
    /// (counted as failed).
    DeadlineExceeded {
        /// The model requested.
        model: String,
        /// Failover retries consumed before the deadline.
        retries: u32,
    },
    /// No live replica serves this model (counted as failed).
    NoReplica {
        /// The model requested.
        model: String,
    },
    /// Every permitted attempt ended in a worker fault (counted as
    /// failed).
    WorkerFault {
        /// The model requested.
        model: String,
        /// The last fault message.
        message: String,
        /// Failover retries consumed.
        retries: u32,
    },
    /// The request's deadline budget is provably unmeetable: the model's
    /// static cycle lower bound already exceeds it, so the request would
    /// be dead on arrival (rejected before admission; not counted as
    /// submitted).
    SlaUnmeetable {
        /// The model requested.
        model: String,
        /// The static lower bound on one inference, in microseconds.
        bound_us: u64,
        /// The deadline budget the request allowed, in microseconds.
        budget_us: u64,
    },
    /// The server shut down while the request was in flight (counted as
    /// failed).
    Disconnected,
    /// A transport-level failure reported by the TCP front end.
    Remote(
        /// The wire error message.
        String,
    ),
}

impl ServeError {
    /// Whether this error is counted in the `shed` metric (vs `failed`).
    pub fn is_shed(&self) -> bool {
        matches!(self, ServeError::Shed { .. })
    }

    /// Whether the request was admitted (and therefore must be accounted
    /// for by the metrics).
    pub fn was_admitted(&self) -> bool {
        !matches!(
            self,
            ServeError::UnknownModel(_)
                | ServeError::BadInput { .. }
                | ServeError::SlaUnmeetable { .. }
        )
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownModel(name) => write!(f, "unknown model `{name}`"),
            ServeError::BadInput { expected, got } => {
                write!(f, "bad input: model consumes {expected} values, got {got}")
            }
            ServeError::Shed { model } => {
                write!(f, "shed: every replica queue for `{model}` is full")
            }
            ServeError::DeadlineExceeded { model, retries } => {
                write!(f, "deadline exceeded on `{model}` after {retries} retries")
            }
            ServeError::NoReplica { model } => {
                write!(f, "no live replica serves `{model}`")
            }
            ServeError::WorkerFault {
                model,
                message,
                retries,
            } => write!(
                f,
                "worker fault on `{model}` after {retries} retries: {message}"
            ),
            ServeError::SlaUnmeetable {
                model,
                bound_us,
                budget_us,
            } => write!(
                f,
                "sla unmeetable on `{model}`: static lower bound {bound_us}us \
                 exceeds the {budget_us}us deadline budget"
            ),
            ServeError::Disconnected => write!(f, "server shut down mid-request"),
            ServeError::Remote(msg) => write!(f, "transport error: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shed_and_admission_classification() {
        assert!(ServeError::Shed { model: "m".into() }.is_shed());
        assert!(ServeError::Shed { model: "m".into() }.was_admitted());
        assert!(!ServeError::UnknownModel("m".into()).was_admitted());
        assert!(!ServeError::BadInput {
            expected: 8,
            got: 4
        }
        .was_admitted());
        assert!(ServeError::DeadlineExceeded {
            model: "m".into(),
            retries: 1
        }
        .was_admitted());
        assert!(!ServeError::Disconnected.is_shed());
    }

    #[test]
    fn errors_render() {
        let e = ServeError::WorkerFault {
            model: "lstm".into(),
            message: "sim error".into(),
            retries: 2,
        };
        assert!(e.to_string().contains("lstm"));
        assert!(e.to_string().contains("2 retries"));
    }
}
