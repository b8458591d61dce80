//! Agent configuration and the standard aggregation programs.

use simnet::SimDuration;

/// A named aggregation program, carried as source text (mobile code).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AggSpec {
    /// Installation name (unique per deployment).
    pub name: String,
    /// Program source, e.g. `SELECT MIN(load) AS load`.
    pub program: String,
}

impl AggSpec {
    /// Creates a named program.
    pub fn new(name: impl Into<String>, program: impl Into<String>) -> Self {
        AggSpec { name: name.into(), program: program.into() }
    }
}

/// Static configuration shared by every agent of a deployment.
#[derive(Debug, Clone)]
pub struct Config {
    /// Zone branching factor (paper suggests 64).
    pub branching: u16,
    /// Gossip round period per agent.
    pub gossip_interval: SimDuration,
    /// Hard staleness bound: rows issued longer ago than this are evicted
    /// and refused in merges regardless of suspicion level. Primary failure
    /// detection is phi-accrual (see [`PHI_THRESHOLD`]); the TTL is
    /// the backstop for rows whose update cadence was never observed.
    pub row_ttl: SimDuration,
    /// Representatives elected per zone (`k` of `REPSEL`).
    pub reps_per_zone: usize,
    /// Aggregation programs installed from configuration. Dynamic programs
    /// can be added at runtime via [`crate::Agent::install_aggregation`].
    pub aggregations: Vec<AggSpec>,
    /// Delta-encoded gossip (the `NEWSWIRE_DELTAS=1` arm): digests carry
    /// content hashes and may cover only rows changed since the last
    /// exchange with the peer, replies re-stamp unchanged rows instead of
    /// re-shipping them, and every [`DELTA_FULL_EXCHANGE_PERIOD`]-th digest
    /// to a peer is forced full so a dropped delta can never strand it.
    /// Off by default; runs with it off are byte-identical to builds
    /// without the delta protocol.
    pub delta_gossip: bool,
}

/// Phi-accrual suspicion threshold at which a silent row is evicted.
/// Higher is more conservative; 8 ≈ one false eviction per 10^8
/// on-cadence observations.
pub const PHI_THRESHOLD: f64 = 8.0;

/// Inter-arrival samples the per-row phi detectors keep.
pub const PHI_WINDOW: usize = 16;

/// How many random global contacts each agent is given for bootstrap.
pub const CONTACT_FANOUT: usize = 3;

/// In delta-gossip mode, every n-th digest to a given peer is a full
/// digest — the safety net that re-advertises rows a lost partial digest
/// may have skipped.
pub const DELTA_FULL_EXCHANGE_PERIOD: u32 = 8;

impl Config {
    /// The standard configuration: the core management aggregation
    /// (representative election, load, membership count) at the paper's
    /// parameters.
    pub fn standard() -> Self {
        Config::with_reps(2)
    }

    /// Standard configuration with `k` representatives per zone.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn with_reps(k: usize) -> Self {
        assert!(k > 0, "need at least one representative per zone");
        Config {
            branching: crate::zone::DEFAULT_BRANCHING,
            gossip_interval: SimDuration::from_secs(2),
            row_ttl: SimDuration::from_secs(30),
            reps_per_zone: k,
            aggregations: vec![AggSpec::new("core", Self::core_program(k))],
            delta_gossip: simnet::delta_mode(),
        }
    }

    /// Source of the core management program for `k` representatives.
    pub fn core_program(k: usize) -> String {
        format!(
            "SELECT REPSEL({k}, load, reps) AS reps, MIN(load) AS load, \
             SUM(nmembers) AS nmembers"
        )
    }
}

impl Default for Config {
    fn default() -> Self {
        Config::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::parse_program;

    #[test]
    fn standard_config_programs_compile() {
        let c = Config::standard();
        for spec in &c.aggregations {
            parse_program(&spec.program).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        }
        assert_eq!(c.branching, 64);
        assert_eq!(c.reps_per_zone, 2);
    }

    #[test]
    fn with_reps_parameterizes_core_program() {
        let c = Config::with_reps(3);
        assert!(c.aggregations[0].program.contains("REPSEL(3"));
    }

    #[test]
    #[should_panic(expected = "at least one representative")]
    fn zero_reps_rejected() {
        Config::with_reps(0);
    }
}
