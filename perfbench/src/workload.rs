//! Workload definitions and seeded input generation (the benchmark's
//! set-up phase).

use croxmap_core::baseline::{greedy_first_fit, local_search_area};
use croxmap_core::pipeline::PipelineConfig;
use croxmap_core::Mapping;
use croxmap_gen::calibrated::{generate, NetworkSpec};
use croxmap_gen::smartpixel::{EventSet, SmartPixelConfig};
use croxmap_mca::{ArchitectureSpec, AreaModel, CrossbarDim, CrossbarPool};
use croxmap_snn::Network;

/// Which pipeline flow a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    /// `optimize_area` over the whole pool.
    Area,
    /// SNU then PGO over a fixed area base, then held-out packets.
    RoutesPgo,
}

/// Which crossbar pool a workload maps onto.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolKind {
    /// Table II heterogeneous catalog, 2 replicas per dimension.
    TableIiCap2,
    /// Homogeneous 16×16 crossbars with 2× output slack.
    Homogeneous16,
}

/// One benchmark workload: a flow, its inputs' shape and its budget.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Name as given to `--workload`.
    pub name: &'static str,
    /// Pipeline flow of one op.
    pub flow: Flow,
    /// `NetworkSpec::scaled_a` divisor.
    pub scale: usize,
    /// Crossbar pool.
    pub pool: PoolKind,
    /// Solver threads (`PipelineConfig::with_threads`).
    pub threads: usize,
    /// Deterministic budget of each solve, in det-seconds.
    pub budget: f64,
    /// Distinct network instances generated per seed; a run calls them
    /// in order, one op each per pass.
    pub instances: usize,
    /// Nominal wall seconds of one pass over the instances on the
    /// reference machine (`perfbench/README.md`, Baseline). `--seconds`
    /// becomes a whole number of passes through it, so the op count of a
    /// run never depends on the clock.
    pub pass_s: f64,
}

/// Every workload the benchmark knows, in report order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "area_het",
        flow: Flow::Area,
        scale: 16,
        pool: PoolKind::TableIiCap2,
        threads: 1,
        budget: 0.25,
        instances: 28,
        pass_s: 32.0,
    },
    Workload {
        name: "routes_pgo",
        flow: Flow::RoutesPgo,
        scale: 16,
        pool: PoolKind::TableIiCap2,
        threads: 1,
        budget: 0.1,
        instances: 14,
        pass_s: 30.0,
    },
    Workload {
        name: "area_hom_t2",
        flow: Flow::Area,
        scale: 8,
        pool: PoolKind::Homogeneous16,
        threads: 2,
        budget: 0.25,
        instances: 7,
        pass_s: 40.0,
    },
    Workload {
        name: "area_het_a8",
        flow: Flow::Area,
        scale: 8,
        pool: PoolKind::TableIiCap2,
        threads: 1,
        budget: 0.25,
        instances: 8,
        pass_s: 0.3,
    },
];

/// Seeds of consecutive benchmark seeds are this far apart, so the
/// instance sets of two seeds never overlap.
const SEED_STRIDE: u64 = 64;

/// Event windows per SmartPixel event, as in `examples/pgo_pipeline.rs`.
pub const WINDOW: u32 = 24;

/// SmartPixel events generated per instance (1 % profile, 99 % held out).
const EVENTS: usize = 400;

impl Workload {
    /// Looks a workload up by name.
    #[must_use]
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().find(|w| w.name == name).cloned()
    }

    /// Passes over the instances that an untraced run of about `seconds`
    /// makes: the nearest whole number, at least one.
    #[must_use]
    pub fn passes(&self, seconds: f64) -> usize {
        ((seconds / self.pass_s).round() as usize).max(1)
    }

    /// The pipeline configuration every op of this workload passes to the
    /// entry points.
    #[must_use]
    pub fn pipeline(&self) -> PipelineConfig {
        let config = PipelineConfig::with_budget(self.budget);
        if self.threads > 1 {
            config.with_threads(self.threads)
        } else {
            config
        }
    }

    fn crossbar_pool(&self, network: &Network) -> CrossbarPool {
        let area = AreaModel::memristor_count();
        match self.pool {
            PoolKind::TableIiCap2 => CrossbarPool::for_network_capped(
                &ArchitectureSpec::table_ii_heterogeneous(),
                &area,
                network.node_count(),
                2,
            ),
            PoolKind::Homogeneous16 => {
                let dim = CrossbarDim::square(16);
                let replicas = (network.node_count().div_ceil(dim.outputs() as usize) * 2).max(2);
                CrossbarPool::from_counts(&area, [(dim, replicas)])
            }
        }
    }
}

/// `NetworkSpec` seed of instance `index` under benchmark seed `seed`.
/// Seed 0, instance 0 is the examples' network (`NetworkSpec` seed 0xA).
#[must_use]
pub fn network_seed(seed: u64, index: usize) -> u64 {
    0xA_u64
        .wrapping_add(seed.wrapping_mul(SEED_STRIDE))
        .wrapping_add(index as u64)
}

/// `SmartPixelConfig` seed of instance `index` under benchmark seed
/// `seed`. Seed 0, instance 0 is the default configuration's seed 7.
#[must_use]
pub fn pixel_seed(seed: u64, index: usize) -> u64 {
    7_u64
        .wrapping_add(seed.wrapping_mul(SEED_STRIDE))
        .wrapping_add(index as u64)
}

/// Inputs of the SNU/PGO flow that the op starts from.
#[derive(Debug, Clone)]
pub struct PgoInputs {
    /// Fixed area base: greedy first fit + `local_search_area`.
    pub base: Mapping,
    /// The 1 % profiling sample.
    pub profile_events: EventSet,
    /// The 99 % held-out evaluation set.
    pub eval_events: EventSet,
}

/// One generated network with its pool and check references.
#[derive(Debug, Clone)]
pub struct Instance {
    /// The generated network.
    pub network: Network,
    /// The pool it maps onto.
    pub pool: CrossbarPool,
    /// Area of `greedy_first_fit`, the baseline the ILP must not lose to.
    pub greedy_area: f64,
    /// Area of greedy + `local_search_area(64)`, the warm start of
    /// `optimize_area` (and the base of the SNU/PGO flow).
    pub seed_area: f64,
    /// Present for the SNU/PGO flow only.
    pub pgo: Option<PgoInputs>,
}

/// Generates the `instances` inputs of `workload` for benchmark seed
/// `seed`: networks, pools, event sets and the SNU/PGO base.
///
/// # Errors
///
/// Returns a message if greedy first fit cannot map a generated network.
pub fn setup(workload: &Workload, seed: u64) -> Result<Vec<Instance>, String> {
    (0..workload.instances)
        .map(|index| {
            let spec = NetworkSpec {
                seed: network_seed(seed, index),
                ..NetworkSpec::scaled_a(workload.scale)
            };
            let network = generate(&spec);
            let pool = workload.crossbar_pool(&network);
            let greedy = greedy_first_fit(&network, &pool)
                .map_err(|e| format!("{}: greedy first fit failed: {e:?}", workload.name))?;
            let seeded = local_search_area(&network, &pool, &greedy, 64);
            let pgo = (workload.flow == Flow::RoutesPgo).then(|| {
                let events = EventSet::generate(
                    &SmartPixelConfig {
                        seed: pixel_seed(seed, index),
                        ..SmartPixelConfig::default()
                    },
                    EVENTS,
                );
                let (profile_events, eval_events) = events.split(0.01);
                PgoInputs {
                    base: seeded.clone(),
                    profile_events,
                    eval_events,
                }
            });
            Ok(Instance {
                greedy_area: greedy.area(&pool),
                seed_area: seeded.area(&pool),
                network,
                pool,
                pgo,
            })
        })
        .collect()
}
