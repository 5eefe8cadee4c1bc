//! Fault injection: the degraded-mode axis of the launch DES.
//!
//! The paper's model — and every layer of this crate through the batch
//! planner — assumes a perfectly reliable metadata server. The regime the
//! paper studies (thousands of ranks hammering NFS metadata) is exactly
//! where real servers brown out, RPCs time out, and client retries amplify
//! the very contention being measured. [`FaultModel`] makes those failure
//! modes a first-class, seeded scenario axis:
//!
//! * [`FaultModel::ServerStall`] — the server freezes for a window (GC
//!   pause, failover, brownout): no op may *start* service inside
//!   `[at_ns, at_ns + duration_ns)`; ops already in service complete, and
//!   the queue keeps building against the stalled clock. Draw-free.
//! * [`FaultModel::RpcLoss`] — each served op's *response* is lost with
//!   probability `loss_milli / 1000`. The client times out `timeout_ns`
//!   after it sent the request, backs off exponentially
//!   (`backoff_base_ns · 2^attempt`), and re-issues. Retries are real
//!   extra server work — the server pays the full service time for every
//!   lost attempt — so the offered load amplifies as `ρ / (1 − loss)`.
//!   Attempt `max_retries` always succeeds (and takes no loss draw), so
//!   every launch terminates.
//! * [`FaultModel::Stragglers`] — a seeded `frac_milli / 1000` fraction of
//!   cold nodes is slow: every one of a straggler's server ops costs
//!   `slow_milli / 1000 ×` its (possibly jitter-scaled) service time.
//!
//! All fault draws come from the dedicated [`SplitMix::FAULT`] stream
//! domain (`split(seed, FAULT, node)`), consumed strictly in each node's
//! own event order. Two consequences: every cell stays deterministic and
//! content-addressable from `(seed, fault, node)` alone, and a faulted
//! cell shares its NODE-domain service draws with the fault-free cell of
//! the same seed — common random numbers, so degradation *deltas* are
//! low-variance. `FaultModel::None` takes zero draws and leaves every
//! result bit-identical to the pre-fault engine.
//!
//! [`SplitMix::FAULT`]: depchaos_workloads::SplitMix::FAULT

use crate::config::canonical_number;

/// The fault-injection model one launch simulates under. See the module
/// docs for semantics; parameters are integers (milli-units for rates and
/// factors) so the model can sit in `Eq + Hash` scenario keys and hash
/// stably into the serve store's content address.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum FaultModel {
    /// Healthy server — the exact pre-fault engine, bit for bit.
    #[default]
    None,
    /// The server freezes for `[at_ns, at_ns + duration_ns)`: no op starts
    /// service inside the window (in-flight service completes).
    ServerStall { at_ns: u64, duration_ns: u64 },
    /// Responses are lost with probability `loss_milli / 1000`; the client
    /// re-issues `timeout_ns` after send plus `backoff_base_ns · 2^attempt`
    /// exponential backoff, giving up on loss only at attempt
    /// `max_retries` (which always succeeds).
    RpcLoss { loss_milli: u32, timeout_ns: u64, backoff_base_ns: u64, max_retries: u32 },
    /// A seeded `frac_milli / 1000` fraction of cold nodes runs its server
    /// ops `slow_milli / 1000 ×` slower.
    Stragglers { frac_milli: u32, slow_milli: u32 },
}

impl FaultModel {
    pub fn is_none(&self) -> bool {
        matches!(self, FaultModel::None)
    }

    /// Whether this model consumes FAULT-domain RNG draws. `ServerStall`
    /// is draw-free (pure clock arithmetic), so cells differing only in
    /// seed still collapse to one deterministic kernel under it.
    pub fn takes_draws(&self) -> bool {
        matches!(self, FaultModel::RpcLoss { .. } | FaultModel::Stragglers { .. })
    }

    /// Stable display/report/TSV/label name. `None` spells `none`; the
    /// parameterised variants encode every parameter so two models can
    /// never alias a label (and so a scenario seed).
    pub fn name(&self) -> String {
        match *self {
            FaultModel::None => "none".to_string(),
            FaultModel::ServerStall { at_ns, duration_ns } => {
                format!("stall-{at_ns}-{duration_ns}")
            }
            FaultModel::RpcLoss { loss_milli, timeout_ns, backoff_base_ns, max_retries } => {
                format!("loss-{loss_milli}-{timeout_ns}-{backoff_base_ns}-{max_retries}")
            }
            FaultModel::Stragglers { frac_milli, slow_milli } => {
                format!("stragglers-{frac_milli}-{slow_milli}")
            }
        }
    }

    /// Inverse of [`FaultModel::name`] — the spelling the serve front door
    /// accepts as a `fault:` delta, and only that one: `parse(s) ==
    /// Some(m)` implies `m.name() == s`.
    pub fn parse(s: &str) -> Option<FaultModel> {
        if s == "none" {
            return Some(FaultModel::None);
        }
        if let Some(rest) = s.strip_prefix("stall-") {
            let mut it = rest.splitn(2, '-');
            let at_ns = canonical_number(it.next()?)?;
            let duration_ns = canonical_number(it.next()?)?;
            return Some(FaultModel::ServerStall { at_ns, duration_ns });
        }
        if let Some(rest) = s.strip_prefix("loss-") {
            let parts: Vec<&str> = rest.split('-').collect();
            if parts.len() != 4 {
                return None;
            }
            return Some(FaultModel::RpcLoss {
                loss_milli: canonical_number(parts[0])?,
                timeout_ns: canonical_number(parts[1])?,
                backoff_base_ns: canonical_number(parts[2])?,
                max_retries: canonical_number(parts[3])?,
            });
        }
        if let Some(rest) = s.strip_prefix("stragglers-") {
            let mut it = rest.splitn(2, '-');
            let frac_milli = canonical_number(it.next()?)?;
            let slow_milli = canonical_number(it.next()?)?;
            return Some(FaultModel::Stragglers { frac_milli, slow_milli });
        }
        None
    }

    /// The retry amplification factor on offered server load:
    /// `1 / (1 − loss)` under [`FaultModel::RpcLoss`] (every attempt is
    /// independent work and a `loss` fraction of attempts is wasted), 1
    /// otherwise. A loss rate ≥ 1 would amplify without bound through the
    /// forced final attempt; it is reported as infinite.
    pub fn load_amplification(&self) -> f64 {
        match *self {
            FaultModel::RpcLoss { loss_milli, .. } => {
                if loss_milli >= 1000 {
                    f64::INFINITY
                } else {
                    1000.0 / (1000.0 - loss_milli as f64)
                }
            }
            _ => 1.0,
        }
    }
}

/// Exponential backoff before retry `attempt + 1`:
/// `base · 2^attempt`, saturating instead of overflowing for absurd
/// attempt counts.
pub(crate) fn backoff_ns(base_ns: u64, attempt: u32) -> u64 {
    if attempt >= 63 {
        return u64::MAX;
    }
    base_ns.saturating_mul(1u64 << attempt)
}

/// Fault accounting one cold-fleet replay produced — the extra columns a
/// [`crate::LaunchResult`] carries. All-zero under [`FaultModel::None`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// RPC attempts re-issued after a lost response, each after a client
    /// timeout fired (so a result's `timeouts_hit` is this count too).
    pub retries: u64,
    /// The longest single backoff wait any client slept.
    pub max_backoff_ns: u64,
    /// Cold nodes the straggler draw slowed.
    pub slowed_nodes: usize,
}

impl FaultCounts {
    pub(crate) fn note_retry(&mut self, backoff_ns: u64) {
        self.retries += 1;
        self.max_backoff_ns = self.max_backoff_ns.max(backoff_ns);
    }

    /// The accounting of two disjoint sets of nodes replayed together:
    /// counts add, the longest backoff wins.
    pub(crate) fn merge(self, other: FaultCounts) -> FaultCounts {
        FaultCounts {
            retries: self.retries + other.retries,
            max_backoff_ns: self.max_backoff_ns.max(other.max_backoff_ns),
            slowed_nodes: self.slowed_nodes + other.slowed_nodes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_through_parse() {
        let models = [
            FaultModel::None,
            FaultModel::ServerStall { at_ns: 2_000_000_000, duration_ns: 10_000_000_000 },
            FaultModel::RpcLoss {
                loss_milli: 50,
                timeout_ns: 1_000_000_000,
                backoff_base_ns: 250_000_000,
                max_retries: 5,
            },
            FaultModel::Stragglers { frac_milli: 100, slow_milli: 4000 },
        ];
        for m in models {
            assert_eq!(FaultModel::parse(&m.name()), Some(m), "{}", m.name());
        }
        assert_eq!(FaultModel::parse("stall-1"), None);
        assert_eq!(FaultModel::parse("loss-1-2-3"), None);
        assert_eq!(FaultModel::parse("brownout"), None);
    }

    #[test]
    fn draw_taking_is_per_variant() {
        assert!(!FaultModel::None.takes_draws());
        assert!(!FaultModel::ServerStall { at_ns: 0, duration_ns: 1 }.takes_draws());
        assert!(FaultModel::RpcLoss {
            loss_milli: 1,
            timeout_ns: 1,
            backoff_base_ns: 1,
            max_retries: 1
        }
        .takes_draws());
        assert!(FaultModel::Stragglers { frac_milli: 1, slow_milli: 2000 }.takes_draws());
    }

    #[test]
    fn backoff_doubles_and_saturates() {
        assert_eq!(backoff_ns(100, 0), 100);
        assert_eq!(backoff_ns(100, 1), 200);
        assert_eq!(backoff_ns(100, 10), 102_400);
        assert_eq!(backoff_ns(u64::MAX / 2, 2), u64::MAX);
        assert_eq!(backoff_ns(1, 63), u64::MAX);
        assert_eq!(backoff_ns(1, 200), u64::MAX);
    }

    #[test]
    fn amplification_is_the_retry_geometric_series() {
        assert_eq!(FaultModel::None.load_amplification(), 1.0);
        let loss = FaultModel::RpcLoss {
            loss_milli: 500,
            timeout_ns: 1,
            backoff_base_ns: 1,
            max_retries: 3,
        };
        assert!((loss.load_amplification() - 2.0).abs() < 1e-12);
        let total = FaultModel::RpcLoss {
            loss_milli: 1000,
            timeout_ns: 1,
            backoff_base_ns: 1,
            max_retries: 3,
        };
        assert!(total.load_amplification().is_infinite());
    }
}
