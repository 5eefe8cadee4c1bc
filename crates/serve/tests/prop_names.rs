//! Property: an axis value has one spelling. For the distribution and
//! fault names a what-if request carries, and the topology segment of a
//! scenario label, `parse(s) == Some(x)` implies `x.name() == s`, and
//! `parse(&x.name()) == Some(x)`. A number segment that `str::parse` alone
//! would read, such as `+500` or `0500`, is an unknown name, not a second
//! spelling of `500`. The same holds for a request's `base`: an accepted
//! base is the name of the workload it resolves to.

use depchaos_launch::{AssignPolicy, FaultModel, ServerTopology, ServiceDistribution};
use depchaos_serve::WhatIfRequest;
use proptest::prelude::*;

/// A number of any bit length, from a raw draw.
fn magnitude(raw: u64) -> u64 {
    raw >> (raw % 64)
}

/// One name-shaped string: a parser's prefix, then number segments joined
/// by `-`, each perhaps signed or zero-padded. A topology ends in a policy.
fn spelling(prefix: &str, segments: &[String]) -> String {
    let joined = segments.join("-");
    match prefix {
        "servers-" => format!("servers-{joined}-hash"),
        _ => format!("{prefix}{joined}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Every string a parser accepts is the name it parses to.
    #[test]
    fn an_accepted_name_is_the_canonical_name(
        prefix in prop::sample::select(vec![
            "jitter-", "lognormal-", "stall-", "loss-", "stragglers-", "servers-",
        ]),
        segments in prop::collection::vec("[+0-]?[0-9]{1,3}", 1..5),
    ) {
        let s = spelling(prefix, &segments);
        if let Some(d) = ServiceDistribution::parse(&s) {
            prop_assert_eq!(d.name(), s.clone());
        }
        if let Some(m) = FaultModel::parse(&s) {
            prop_assert_eq!(m.name(), s.clone());
        }
        if let Some(t) = ServerTopology::parse(&s) {
            prop_assert_eq!(t.name(), s);
        }
    }

    /// Every base a request accepts is its workload's name, which labels
    /// the answers: `pynamic-020` is not a second spelling of `pynamic-20`.
    #[test]
    fn an_accepted_base_is_its_workloads_name(
        prefix in prop::sample::select(vec!["pynamic-", "pynamic-rpath-", "axom-"]),
        number in "[+0-]?[0-9]{1,4}",
    ) {
        let base = format!("{prefix}{number}");
        if let Ok(request) = WhatIfRequest::parse(&format!(r#"{{"id":"q","base":"{base}"}}"#)) {
            let matrix = request.matrix().expect("an accepted base resolves");
            for scenario in matrix.expand() {
                prop_assert_eq!(scenario.cell_key().workload, base.clone());
            }
        }
    }

    /// Every name parses back to its value.
    #[test]
    fn every_name_parses_to_its_value(raw in prop::collection::vec(any::<u64>(), 4), pick in 0u8..8) {
        let [a, b, c, d] = [0, 1, 2, 3].map(|i| magnitude(raw[i]));
        let dist = match pick % 3 {
            0 => ServiceDistribution::Deterministic,
            1 => ServiceDistribution::UniformJitter { spread_milli: (a % 1000) as u32 },
            _ => ServiceDistribution::LogNormal { sigma_milli: a as u32 },
        };
        prop_assert_eq!(ServiceDistribution::parse(&dist.name()), Some(dist));
        let fault = match pick % 4 {
            0 => FaultModel::None,
            1 => FaultModel::ServerStall { at_ns: a, duration_ns: b },
            2 => FaultModel::RpcLoss {
                loss_milli: a as u32,
                timeout_ns: b,
                backoff_base_ns: c,
                max_retries: d as u32,
            },
            _ => FaultModel::Stragglers { frac_milli: a as u32, slow_milli: b as u32 },
        };
        prop_assert_eq!(FaultModel::parse(&fault.name()), Some(fault));
        let assign = if pick < 4 { AssignPolicy::HashByNode } else { AssignPolicy::LeastLoaded };
        let topology = ServerTopology { servers: (a as usize).max(1), assign };
        prop_assert_eq!(ServerTopology::parse(&topology.name()), Some(topology));
    }
}
