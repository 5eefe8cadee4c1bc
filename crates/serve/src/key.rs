//! Content addressing: the stable 128-bit [`ScenarioKey`].
//!
//! A key names the **full semantic identity** of one store cell — one
//! `(scenario, rank point)` result of the sweep engine. Two invocations
//! that would simulate the same thing hash to the same key; any input that
//! could change the simulated numbers is hashed, so editing one axis value
//! (a distribution parameter, a calibration constant, the experiment seed)
//! re-keys exactly the affected cells and leaves every other cell warm.
//! That property *is* the store's invalidation rule — there is no separate
//! dependency graph to maintain, the key is the dependency closure.
//!
//! Hashed inputs, in order:
//!
//! 1. [`ENGINE_EPOCH`] — bumped by hand whenever engine *semantics* change
//!    (DES scheduling, seed derivation, classification) so every pre-change
//!    record is evicted wholesale instead of silently served stale;
//! 2. the workload fingerprint (its [`depchaos_workloads::Workload::name`]
//!    — the trait contract makes the name the world identity: two configs
//!    that install different worlds must carry different names);
//! 3. backend name, storage model, wrap state, cache policy;
//! 4. the [`ServiceDistribution`] (variant tag + integer milli parameter,
//!    not the display string, so renaming never aliases two distributions),
//!    the [`FaultModel`] (variant tag + every integer parameter, encoded
//!    the same way), and the
//!    [`ServerTopology`](depchaos_launch::ServerTopology) (server count + assignment
//!    policy tag — a single-server cell hashes `(1, hash)` explicitly, so
//!    the axis can never alias another field);
//! 5. the rank point, then the replicate-control plan behind a tag byte:
//!    under **adaptive** control ([`AdaptiveControl`]) a draw-taking cell
//!    hashes the stopping-rule *parameters* (target, `min_k`, `max_k`,
//!    batch) — never the K a run happened to stop at, which is a pure
//!    function of those parameters and so would be redundant — while a
//!    **fixed**-K cell (or any cell whose distribution is deterministic
//!    *and* whose fault model takes no draws, which clamps to one
//!    replicate by the engine's own [`LaunchConfig::effective_replicates`])
//!    hashes the effective replicate count, so asking for 5 or 50
//!    replicates of an exact cell is one key and an adaptive request on
//!    an exact cell is the *same* key as the fixed request it degenerates
//!    to;
//! 6. the seed domain (the experiment's base seed — per-cell seeds derive
//!    from it and the label, which items 2–4 already pin) and every
//!    calibration field of the base [`LaunchConfig`].
//!
//! The hash itself is two independently keyed SipHash-2-4 lanes over a
//! length-prefixed field encoding — stable by construction (the algorithm
//! and keys are spelled out here, not borrowed from `std`'s unstable
//! `DefaultHasher`), collision-resistant far beyond any matrix this engine
//! will ever expand, and pinned by golden-vector tests so accidental
//! drift in the input encoding cannot silently poison a store.

use depchaos_launch::{
    AdaptiveControl, AssignPolicy, FaultModel, LaunchConfig, ScenarioSpec, ServiceDistribution,
};

/// Engine-semantics epoch. Bump when the DES, the seed derivation, the
/// classification, or the profile capture changes meaning — every record
/// written under an older epoch is evicted at store load.
///
/// Epoch 2: the fault-model axis joined the key schema (and
/// [`depchaos_launch::LaunchResult`] grew fault accounting the codec now
/// stores), so epoch-1 records no longer decode.
///
/// Epoch 3: the replicate field became a tagged union — fixed effective-K
/// versus the adaptive stopping-rule parameters ([`AdaptiveControl`]) —
/// which re-encodes *every* cell (a tag byte precedes the old bare count),
/// so epoch-2 keys never alias the new schema.
///
/// Epoch 4: the server-topology axis ([`depchaos_launch::ServerTopology`])
/// joined the key schema — server count and assignment-policy tag, hashed
/// after the fault model — and the codec grew the `servers` field of the
/// queueing envelope, so epoch-3 records no longer decode.
pub const ENGINE_EPOCH: u32 = 4;

/// One SipHash-2-4 run over `data` with the given 128-bit key.
///
/// Reference implementation of the SipHash-2-4 MAC (Aumasson–Bernstein),
/// specialised to a byte slice; verified against the published test
/// vectors in this module's tests.
fn siphash24(k0: u64, k1: u64, data: &[u8]) -> u64 {
    let mut v0 = k0 ^ 0x736f_6d65_7073_6575;
    let mut v1 = k1 ^ 0x646f_7261_6e64_6f6d;
    let mut v2 = k0 ^ 0x6c79_6765_6e65_7261;
    let mut v3 = k1 ^ 0x7465_6462_7974_6573;

    macro_rules! sipround {
        () => {
            v0 = v0.wrapping_add(v1);
            v1 = v1.rotate_left(13);
            v1 ^= v0;
            v0 = v0.rotate_left(32);
            v2 = v2.wrapping_add(v3);
            v3 = v3.rotate_left(16);
            v3 ^= v2;
            v0 = v0.wrapping_add(v3);
            v3 = v3.rotate_left(21);
            v3 ^= v0;
            v2 = v2.wrapping_add(v1);
            v1 = v1.rotate_left(17);
            v1 ^= v2;
            v2 = v2.rotate_left(32);
        };
    }

    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let m = u64::from_le_bytes(chunk.try_into().unwrap());
        v3 ^= m;
        sipround!();
        sipround!();
        v0 ^= m;
    }
    // Final block: remaining bytes little-endian, length in the top byte.
    let tail = chunks.remainder();
    let mut b = (data.len() as u64) << 56;
    for (i, &byte) in tail.iter().enumerate() {
        b |= (byte as u64) << (8 * i);
    }
    v3 ^= b;
    sipround!();
    sipround!();
    v0 ^= b;
    v2 ^= 0xff;
    sipround!();
    sipround!();
    sipround!();
    sipround!();
    v0 ^ v1 ^ v2 ^ v3
}

/// Unambiguous field encoder: every field is length- or width-delimited,
/// so `("ab", "c")` and `("a", "bc")` can never encode to the same bytes.
#[derive(Default)]
struct FieldBuf(Vec<u8>);

impl FieldBuf {
    fn str(&mut self, s: &str) {
        self.0.extend_from_slice(&(s.len() as u32).to_le_bytes());
        self.0.extend_from_slice(s.as_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
}

/// The 128-bit content address of one `(scenario, rank point)` store cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ScenarioKey(pub u128);

impl ScenarioKey {
    /// 32-hex-digit form — the spelling records carry on disk.
    pub fn hex(&self) -> String {
        format!("{:032x}", self.0)
    }

    /// Parse the [`ScenarioKey::hex`] spelling.
    pub fn from_hex(s: &str) -> Option<ScenarioKey> {
        if s.len() != 32 {
            return None;
        }
        u128::from_str_radix(s, 16).ok().map(ScenarioKey)
    }
}

impl std::fmt::Display for ScenarioKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.hex())
    }
}

/// Everything that identifies one store cell. Borrowed views only — the
/// key derivation allocates nothing beyond its scratch buffer.
#[derive(Debug, Clone, Copy)]
pub struct CellIdentity<'a> {
    pub spec: &'a ScenarioSpec,
    /// The rank point this cell simulates.
    pub ranks: usize,
    /// The **requested** replicate count; the key hashes the effective
    /// count (1 for deterministic cells), mirroring the sweep's clamp.
    pub replicates: usize,
    /// Adaptive replicate control, if the matrix ran under it. For a
    /// draw-taking cell the key hashes these stopping-rule parameters in
    /// place of the fixed count; for an exact cell (which clamps to one
    /// replicate either way) the field is ignored so the adaptive and
    /// fixed requests share one key, mirroring execution.
    pub adaptive: Option<AdaptiveControl>,
    /// The base configuration: experiment seed + cluster calibration.
    /// `ranks`, `broadcast_cache`, `service_dist`, and the per-cell seed
    /// are axis-derived and already covered above, so only the true
    /// calibration fields participate.
    pub base: &'a LaunchConfig,
}

impl CellIdentity<'_> {
    /// The replicate count the sweep will actually run — deterministic
    /// cells collapse to one replicate no matter what was requested, so
    /// hashing the request verbatim would split one result across keys.
    pub fn effective_replicates(&self) -> usize {
        self.draw_config().effective_replicates(self.replicates)
    }

    /// The base config under the spec's distribution and fault model:
    /// everything the engine's draws predicate
    /// ([`LaunchConfig::takes_draws`]) reads, so the key and the engine
    /// agree on which cells have a live replicate axis.
    fn draw_config(&self) -> LaunchConfig {
        LaunchConfig { service_dist: self.spec.dist, fault: self.spec.fault, ..*self.base }
    }

    /// Derive the cell's content address.
    pub fn key(&self) -> ScenarioKey {
        let mut buf = FieldBuf::default();
        buf.u32(ENGINE_EPOCH);
        buf.str(&self.spec.workload);
        buf.str(&self.spec.backend);
        buf.str(self.spec.storage.name());
        buf.str(self.spec.wrap.name());
        buf.str(self.spec.cache.name());
        match self.spec.dist {
            ServiceDistribution::Deterministic => buf.u8(0),
            ServiceDistribution::UniformJitter { spread_milli } => {
                buf.u8(1);
                buf.u32(spread_milli);
            }
            ServiceDistribution::LogNormal { sigma_milli } => {
                buf.u8(2);
                buf.u32(sigma_milli);
            }
        }
        match self.spec.fault {
            FaultModel::None => buf.u8(0),
            FaultModel::ServerStall { at_ns, duration_ns } => {
                buf.u8(1);
                buf.u64(at_ns);
                buf.u64(duration_ns);
            }
            FaultModel::RpcLoss { loss_milli, timeout_ns, backoff_base_ns, max_retries } => {
                buf.u8(2);
                buf.u32(loss_milli);
                buf.u64(timeout_ns);
                buf.u64(backoff_base_ns);
                buf.u32(max_retries);
            }
            FaultModel::Stragglers { frac_milli, slow_milli } => {
                buf.u8(3);
                buf.u32(frac_milli);
                buf.u32(slow_milli);
            }
        }
        buf.u64(self.spec.topology.servers as u64);
        buf.u8(match self.spec.topology.assign {
            AssignPolicy::HashByNode => 0,
            AssignPolicy::LeastLoaded => 1,
        });
        buf.u64(self.ranks as u64);
        // Replicate control, tagged. The adaptive arm hashes the rule's
        // parameters, not the stopped-at K — K is a pure function of the
        // parameters and the cell's draws, so hashing it would only split
        // one semantic cell across keys. Exact cells take the fixed arm
        // regardless of `adaptive`, matching the execution clamp.
        match self.adaptive {
            Some(ctl) if self.draw_config().takes_draws() => {
                buf.u8(1);
                buf.u32(ctl.target_rel_milli);
                buf.u64(ctl.min_k as u64);
                buf.u64(ctl.max_k as u64);
                buf.u64(ctl.batch as u64);
            }
            _ => {
                buf.u8(0);
                buf.u64(self.effective_replicates() as u64);
            }
        }
        buf.u64(self.base.seed);
        buf.u64(self.base.ranks_per_node as u64);
        buf.u64(self.base.rtt_ns);
        buf.u64(self.base.meta_service_ns);
        buf.u64(self.base.warm_ns);
        buf.u64(self.base.base_overhead_ns);
        buf.u64(self.base.per_rank_overhead_ns);

        // Two independently keyed lanes; the keys are arbitrary nothing-up-
        // my-sleeve constants and part of the on-disk format.
        let lo = siphash24(0x6465_7063_6861_6f73, 0x7363_656e_6172_696f, &buf.0);
        let hi = siphash24(0x7365_7276_655f_6b65, 0x795f_6c61_6e65_5f68, &buf.0);
        ScenarioKey(((hi as u128) << 64) | lo as u128)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use depchaos_launch::{CachePolicy, WrapState};
    use depchaos_vfs::StorageModel;

    /// Cross-check the hand-rolled SipHash-2-4 against `std`'s (deprecated
    /// but still shipped) `SipHasher`, which implements the same MAC: every
    /// length from empty through several full blocks, several keys. This
    /// anchors the *algorithm*; the golden keys below anchor the *input
    /// encoding* on top of it.
    #[test]
    #[allow(deprecated)]
    fn siphash24_matches_std_reference() {
        use std::hash::Hasher;
        let msg: Vec<u8> = (0u8..64).map(|i| i.wrapping_mul(37) ^ 0x5a).collect();
        for &(k0, k1) in &[(0u64, 0u64), (1, 2), (u64::MAX, 7), (0xdead_beef, 0xcafe_f00d)] {
            for len in 0..=msg.len() {
                let mut h = std::hash::SipHasher::new_with_keys(k0, k1);
                h.write(&msg[..len]);
                assert_eq!(siphash24(k0, k1, &msg[..len]), h.finish(), "key {k0:#x}, len {len}");
            }
        }
    }

    fn spec(dist: ServiceDistribution) -> ScenarioSpec {
        ScenarioSpec {
            workload: "pynamic-200".to_string(),
            backend: "glibc".to_string(),
            storage: StorageModel::Nfs,
            wrap: WrapState::Plain,
            cache: CachePolicy::Cold,
            dist,
            fault: FaultModel::None,
            topology: depchaos_launch::ServerTopology::single(),
        }
    }

    fn key_of(spec: &ScenarioSpec, ranks: usize, replicates: usize, base: &LaunchConfig) -> u128 {
        CellIdentity { spec, ranks, replicates, adaptive: None, base }.key().0
    }

    fn adaptive_key_of(
        spec: &ScenarioSpec,
        ranks: usize,
        replicates: usize,
        ctl: AdaptiveControl,
        base: &LaunchConfig,
    ) -> u128 {
        CellIdentity { spec, ranks, replicates, adaptive: Some(ctl), base }.key().0
    }

    /// Golden vectors: these exact keys are the on-disk format. If this
    /// test fails, either an input silently joined/left the hash (drift
    /// that would poison every existing store — fix the code), or the
    /// schema deliberately changed (bump [`ENGINE_EPOCH`] and repin).
    #[test]
    fn golden_scenario_keys() {
        let base = LaunchConfig::default();
        let det = spec(ServiceDistribution::Deterministic);
        let log = spec(ServiceDistribution::log_normal(0.5));
        let jit = spec(ServiceDistribution::uniform_jitter(0.25));
        let wrapped = ScenarioSpec { wrap: WrapState::Wrapped, ..det.clone() };
        let ctl = AdaptiveControl { target_rel_milli: 50, min_k: 4, max_k: 11, batch: 4 };
        assert_eq!(key_of(&det, 512, 11, &base), 0x0bcc_aaec_0235_8c12_b2d7_1726_7ef3_5f12);
        assert_eq!(key_of(&det, 2048, 11, &base), 0xec0d_14e6_5086_0167_0abb_b8fc_e2e1_0a07);
        assert_eq!(key_of(&log, 512, 11, &base), 0x5231_a73f_b512_50bf_eb1d_4b57_ce59_2d73);
        assert_eq!(key_of(&jit, 512, 11, &base), 0x29b7_3e4d_a63e_e074_133b_48cf_3249_2be3);
        assert_eq!(key_of(&wrapped, 512, 11, &base), 0x25bb_3a4c_5e34_259e_002d_4d40_6ee9_b2e5);
        assert_eq!(
            adaptive_key_of(&log, 512, 11, ctl, &base),
            0xa18f_5b49_d83e_4c16_97cd_9d0a_7628_a5b0
        );
    }

    #[test]
    fn every_axis_moves_the_key() {
        let base = LaunchConfig::default();
        let s = spec(ServiceDistribution::log_normal(0.5));
        let k = key_of(&s, 512, 11, &base);
        let variants: Vec<ScenarioSpec> = vec![
            ScenarioSpec { workload: "pynamic-201".into(), ..s.clone() },
            ScenarioSpec { backend: "musl".into(), ..s.clone() },
            ScenarioSpec { storage: StorageModel::Local, ..s.clone() },
            ScenarioSpec { wrap: WrapState::Wrapped, ..s.clone() },
            ScenarioSpec { cache: CachePolicy::Broadcast, ..s.clone() },
            ScenarioSpec { dist: ServiceDistribution::log_normal(0.501), ..s.clone() },
            ScenarioSpec {
                fault: FaultModel::ServerStall { at_ns: 0, duration_ns: 1 },
                ..s.clone()
            },
            ScenarioSpec {
                fault: FaultModel::Stragglers { frac_milli: 1, slow_milli: 2000 },
                ..s.clone()
            },
            ScenarioSpec { topology: depchaos_launch::ServerTopology::hash(2), ..s.clone() },
            ScenarioSpec {
                topology: depchaos_launch::ServerTopology::least_loaded(2),
                ..s.clone()
            },
        ];
        for v in &variants {
            assert_ne!(key_of(v, 512, 11, &base), k, "{v:?}");
        }
        // The assignment policy moves the key at equal fleet size.
        let h2 = ScenarioSpec { topology: depchaos_launch::ServerTopology::hash(2), ..s.clone() };
        let l2 = ScenarioSpec {
            topology: depchaos_launch::ServerTopology::least_loaded(2),
            ..s.clone()
        };
        assert_ne!(key_of(&h2, 512, 11, &base), key_of(&l2, 512, 11, &base));
        assert_ne!(key_of(&s, 1024, 11, &base), k, "rank point");
        assert_ne!(key_of(&s, 512, 12, &base), k, "replicates (stochastic)");
        for field in 0..7 {
            let mut b = base.clone();
            match field {
                0 => b.seed += 1,
                1 => b.ranks_per_node += 1,
                2 => b.rtt_ns += 1,
                3 => b.meta_service_ns += 1,
                4 => b.warm_ns += 1,
                5 => b.base_overhead_ns += 1,
                _ => b.per_rank_overhead_ns += 1,
            }
            assert_ne!(key_of(&s, 512, 11, &b), k, "calibration field {field}");
        }
    }

    #[test]
    fn deterministic_cells_ignore_requested_replicates() {
        let base = LaunchConfig::default();
        let det = spec(ServiceDistribution::Deterministic);
        assert_eq!(key_of(&det, 512, 1, &base), key_of(&det, 512, 50, &base));
        let log = spec(ServiceDistribution::log_normal(0.5));
        assert_ne!(key_of(&log, 512, 1, &base), key_of(&log, 512, 50, &base));
        // And the zero-replicate request clamps to 1, like the sweep.
        assert_eq!(key_of(&log, 512, 0, &base), key_of(&log, 512, 1, &base));
        // A draw-taking fault re-opens the replicate axis even under a
        // deterministic distribution (the sweep replicates those cells)…
        let lossy = ScenarioSpec {
            fault: FaultModel::RpcLoss {
                loss_milli: 100,
                timeout_ns: 1_000_000_000,
                backoff_base_ns: 250_000_000,
                max_retries: 5,
            },
            ..det.clone()
        };
        assert_ne!(key_of(&lossy, 512, 1, &base), key_of(&lossy, 512, 50, &base));
        // …while a draw-free fault (stall) keeps the cell exact.
        let stalled =
            ScenarioSpec { fault: FaultModel::ServerStall { at_ns: 0, duration_ns: 1 }, ..det };
        assert_eq!(key_of(&stalled, 512, 1, &base), key_of(&stalled, 512, 50, &base));
    }

    #[test]
    fn adaptive_control_rekeys_stochastic_cells_only() {
        let base = LaunchConfig::default();
        let ctl = AdaptiveControl { target_rel_milli: 50, min_k: 4, max_k: 11, batch: 4 };
        // A draw-taking cell: the stopping rule is part of its identity,
        // and so is every parameter of the rule.
        let log = spec(ServiceDistribution::log_normal(0.5));
        let fixed = key_of(&log, 512, 11, &base);
        let adaptive = adaptive_key_of(&log, 512, 11, ctl, &base);
        assert_ne!(adaptive, fixed, "adaptive and fixed plans simulate different sample sizes");
        for (name, v) in [
            ("target", AdaptiveControl { target_rel_milli: 51, ..ctl }),
            ("min_k", AdaptiveControl { min_k: 5, ..ctl }),
            ("max_k", AdaptiveControl { max_k: 12, ..ctl }),
            ("batch", AdaptiveControl { batch: 5, ..ctl }),
        ] {
            assert_ne!(adaptive_key_of(&log, 512, 11, v, &base), adaptive, "{name}");
        }
        // Under adaptive control the requested fixed count is dead — max_k
        // governs — so it must not move the key.
        assert_eq!(adaptive_key_of(&log, 512, 50, ctl, &base), adaptive);
        // An exact cell clamps to one replicate whether or not adaptive
        // control was requested: one semantic result, one key.
        let det = spec(ServiceDistribution::Deterministic);
        assert_eq!(adaptive_key_of(&det, 512, 11, ctl, &base), key_of(&det, 512, 11, &base));
        // A draw-taking fault re-opens the axis, adaptive params included.
        let lossy = ScenarioSpec {
            fault: FaultModel::RpcLoss {
                loss_milli: 100,
                timeout_ns: 1_000_000_000,
                backoff_base_ns: 250_000_000,
                max_retries: 5,
            },
            ..det
        };
        assert_ne!(adaptive_key_of(&lossy, 512, 11, ctl, &base), key_of(&lossy, 512, 11, &base));
    }

    #[test]
    fn hex_round_trips() {
        let base = LaunchConfig::default();
        let k = CellIdentity {
            spec: &spec(ServiceDistribution::Deterministic),
            ranks: 512,
            replicates: 11,
            adaptive: None,
            base: &base,
        }
        .key();
        assert_eq!(k.hex().len(), 32);
        assert_eq!(ScenarioKey::from_hex(&k.hex()), Some(k));
        assert_eq!(ScenarioKey::from_hex("zz"), None);
        assert_eq!(ScenarioKey::from_hex(&"0".repeat(31)), None);
    }
}
