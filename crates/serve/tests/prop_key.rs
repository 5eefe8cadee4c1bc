//! Property: two store cells share a [`ScenarioKey`] **iff** they share a
//! semantic identity — the content-addressing contract the whole serve
//! layer rests on. Equality of identities must give equal keys (or warm
//! hits would randomly miss), and distinct identities must give distinct
//! keys (or the store would serve the wrong cell's result).

use depchaos_launch::{
    AdaptiveControl, CachePolicy, FaultModel, LaunchConfig, ScenarioSpec, ServerTopology,
    ServiceDistribution, WrapState,
};
use depchaos_serve::{CellIdentity, ScenarioKey};
use depchaos_vfs::StorageModel;
use proptest::prelude::*;

/// An owned cell identity, derived deterministically from one u64 so the
/// strategy stays a plain integer range.
#[derive(Debug, Clone)]
struct Ident {
    spec: ScenarioSpec,
    ranks: usize,
    replicates: usize,
    adaptive: Option<AdaptiveControl>,
    base: LaunchConfig,
}

/// The replicate-control half of a cell's semantic identity: which plan
/// the sweep will actually execute for this cell.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Plan {
    Fixed(usize),
    Adaptive(AdaptiveControl),
}

impl Ident {
    fn from_seed(seed: u64) -> Ident {
        // Small per-axis spaces on purpose: coincidentally equal draws
        // exercise the "equal identities ⇒ equal keys" direction too.
        let mut s = seed;
        let mut pick = |n: u64| {
            s = s.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(0x1234_5678);
            let z = (s ^ (s >> 31)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            (z ^ (z >> 29)) % n
        };
        let spec = ScenarioSpec {
            workload: ["pynamic-20", "axom-7", "emacs"][pick(3) as usize].to_string(),
            backend: ["glibc", "musl", "hash-store"][pick(3) as usize].to_string(),
            storage: [StorageModel::Nfs, StorageModel::Local][pick(2) as usize],
            wrap: [WrapState::Plain, WrapState::Wrapped][pick(2) as usize],
            cache: [CachePolicy::Cold, CachePolicy::Broadcast][pick(2) as usize],
            dist: [
                ServiceDistribution::Deterministic,
                ServiceDistribution::UniformJitter { spread_milli: 250 },
                ServiceDistribution::LogNormal { sigma_milli: 500 },
                ServiceDistribution::LogNormal { sigma_milli: 501 },
            ][pick(4) as usize],
            fault: [
                FaultModel::None,
                FaultModel::ServerStall { at_ns: 2_000_000_000, duration_ns: 10_000_000_000 },
                FaultModel::RpcLoss {
                    loss_milli: 100,
                    timeout_ns: 1_000_000_000,
                    backoff_base_ns: 250_000_000,
                    max_retries: 5,
                },
                FaultModel::Stragglers { frac_milli: 100, slow_milli: 4000 },
            ][pick(4) as usize],
            topology: [
                ServerTopology::single(),
                ServerTopology::least_loaded(1),
                ServerTopology::hash(2),
                ServerTopology::hash(8),
                ServerTopology::least_loaded(2),
            ][pick(5) as usize],
        };
        let defaults = LaunchConfig::default();
        let base = LaunchConfig {
            seed: 1 + pick(2),
            rtt_ns: defaults.rtt_ns + pick(2),
            meta_service_ns: defaults.meta_service_ns + pick(2),
            ..defaults
        };
        Ident {
            spec,
            ranks: [256, 512][pick(2) as usize],
            replicates: [1, 2, 11][pick(3) as usize],
            adaptive: [
                None,
                Some(AdaptiveControl { target_rel_milli: 50, min_k: 4, max_k: 11, batch: 4 }),
                Some(AdaptiveControl { target_rel_milli: 100, min_k: 3, max_k: 25, batch: 2 }),
            ][pick(3) as usize],
            base,
        }
    }

    fn key(&self) -> ScenarioKey {
        CellIdentity {
            spec: &self.spec,
            ranks: self.ranks,
            replicates: self.replicates,
            adaptive: self.adaptive,
            base: &self.base,
        }
        .key()
    }

    /// The semantic identity the key must encode exactly: the spec, the
    /// rank point, the replicate plan the sweep will actually execute
    /// (deterministic draw-free cells run once regardless of the request
    /// — adaptive or fixed — while draw-taking cells under adaptive
    /// control are governed by the stopping-rule parameters, not the
    /// requested count), and the seed + calibration fields of the base
    /// config. A one-server fleet routes nothing, so its policy is not
    /// part of the identity.
    #[allow(clippy::type_complexity)]
    fn semantic(&self) -> (ScenarioSpec, usize, Plan, u64, usize, u64, u64, u64, u64, u64) {
        let takes_draws = !self.spec.dist.is_deterministic() || self.spec.fault.takes_draws();
        let plan = match self.adaptive {
            Some(ctl) if takes_draws => Plan::Adaptive(ctl),
            _ if takes_draws => Plan::Fixed(self.replicates.max(1)),
            _ => Plan::Fixed(1),
        };
        let mut spec = self.spec.clone();
        if spec.topology.is_single() {
            spec.topology = ServerTopology::single();
        }
        (
            spec,
            self.ranks,
            plan,
            self.base.seed,
            self.base.ranks_per_node,
            self.base.rtt_ns,
            self.base.meta_service_ns,
            self.base.warm_ns,
            self.base.base_overhead_ns,
            self.base.per_rank_overhead_ns,
        )
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// key(a) == key(b)  ⟺  semantic(a) == semantic(b).
    #[test]
    fn key_equality_iff_identity_equality(a in 0u64..1 << 48, b in 0u64..1 << 48, copy in 0u8..4) {
        let ia = Ident::from_seed(a);
        // Half the cases compare an identity against its own copy, so the
        // "equal ⇒ equal" direction is exercised every run, not only on
        // coincidental draws. Half of those copies take `b`'s fleet, so a
        // one-server fleet meets itself under the other policy tag too.
        let ib = match copy {
            0 | 1 => Ident::from_seed(b),
            2 => ia.clone(),
            _ => {
                let mut ib = ia.clone();
                ib.spec.topology = Ident::from_seed(b).spec.topology;
                ib
            }
        };
        prop_assert_eq!(ia.semantic() == ib.semantic(), ia.key() == ib.key(),
            "a={:?} b={:?}", ia, ib);
    }

    /// The hex spelling on disk is lossless for every key.
    #[test]
    fn key_hex_round_trips(a in 0u64..1 << 48) {
        let k = Ident::from_seed(a).key();
        prop_assert_eq!(ScenarioKey::from_hex(&k.hex()), Some(k));
    }
}
