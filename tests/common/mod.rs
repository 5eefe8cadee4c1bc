//! The inputs the DES property suites share (`des_equivalence.rs`,
//! `server_topology.rs`, `queueing.rs`): the distribution and fault axes a
//! selector index names, and op streams built from `(kind, cost)` pairs.

// Each suite compiles this module on its own and uses only part of it.
#![allow(dead_code)]

use depchaos::launch::{FaultModel, ServiceDistribution};
use depchaos::vfs::{Op, Outcome, StraceLog, Syscall};

/// How many distributions [`dist_of`] names.
pub const DISTS: u8 = 12;

/// The distribution axis a selector index names: deterministic at 0, then
/// jitter spreads from none to nearly the whole mean, and lognormal σ on a
/// grid that crosses the heap draw's σ ≤ 4 bound, past which it samples
/// through libm.
pub fn dist_of(sel: u8) -> ServiceDistribution {
    let jitter = |spread_milli| ServiceDistribution::UniformJitter { spread_milli };
    let log_normal = |sigma_milli| ServiceDistribution::LogNormal { sigma_milli };
    [
        ServiceDistribution::Deterministic,
        jitter(0),
        jitter(250),
        jitter(999),
        log_normal(1),
        log_normal(250),
        log_normal(500),
        log_normal(750),
        log_normal(1000),
        log_normal(4000),
        log_normal(4001),
        log_normal(8000),
    ][(sel % DISTS) as usize]
}

/// The fault axis a selector index names: healthy, a brownout inside the
/// fast streams' contention window, lossy RPC with retry/backoff, and a
/// straggler cohort — one of each [`FaultModel`] shape.
pub fn fault_of(sel: u8) -> FaultModel {
    [
        FaultModel::None,
        FaultModel::ServerStall { at_ns: 2_000_000, duration_ns: 300_000_000 },
        FaultModel::RpcLoss {
            loss_milli: 150,
            timeout_ns: 1_000_000,
            backoff_base_ns: 250_000,
            max_retries: 5,
        },
        FaultModel::Stragglers { frac_milli: 250, slow_milli: 4000 },
    ][sel as usize % 4]
}

/// Build a stream from `(kind, cost)` pairs. Kind picks the op; cost is
/// raw, so the classifier sees everything from sub-warm to multi-RTT and
/// payload-heavy reads.
pub fn stream_of(spec: &[(u8, u64)]) -> StraceLog {
    let mut log = StraceLog::new();
    for (i, &(kind, cost_ns)) in spec.iter().enumerate() {
        let (op, outcome) = match kind % 4 {
            0 => (Op::Stat, Outcome::Ok),
            1 => (Op::Openat, Outcome::Enoent),
            2 => (Op::Read, Outcome::Ok),
            _ => (Op::Readlink, Outcome::Ok),
        };
        log.push(Syscall::new(op, &format!("/p/{i}"), outcome, cost_ns));
    }
    log
}
