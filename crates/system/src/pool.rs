//! Client-side routing over pooled hardware microservices.
//!
//! §II-A: "accelerators can be logically disaggregated and pooled into
//! instances of hardware microservices ... a given hardware microservice is
//! published to subscribing CPUs in the system and accessed directly
//! through an IP address." A subscribing client routes each request to one
//! instance of the pool; the live pool in `bw-serve` implements these
//! policies.

/// How a client picks an instance for each request.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Routing {
    /// Cycle through instances in order.
    RoundRobin,
    /// Pick the instance with the fewest requests in flight (requires the
    /// resource manager to publish occupancy, as the paper's distributed
    /// resource manager does).
    LeastOutstanding,
}
