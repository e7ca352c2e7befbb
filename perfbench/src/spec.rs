//! The fixed load of every workload, as absolute values.
//!
//! Nothing here is derived from a measurement taken at run time: a
//! faster program meets exactly the same offered rates, book sizes and
//! rank counts, so its gain shows in the metrics instead of being
//! absorbed by a larger load. The offered quote rate was set once, at
//! about a sixth of the measured two-worker capacity (2.3k requests per
//! second) of the request mix on a 2-core Intel Xeon host, whose speed
//! varied by up to 2x between runs: at half capacity a slow run
//! saturates the service and its median latency measures the host.

/// `quote_stream`: an open loop against `mdp-serve`.
pub mod quote {
    /// Service workers (the host has 2 cores).
    pub const WORKERS: usize = 2;
    /// Bounded admission queue; submissions beyond it are shed.
    pub const QUEUE_CAPACITY: usize = 512;
    /// Poisson rate outside bursts, requests per second.
    pub const BASE_RPS: f64 = 400.0;
    /// Poisson rate inside a burst, requests per second.
    pub const BURST_RPS: f64 = 4600.0;
    /// One burst per second, this long, starting half-way into the
    /// second. Short enough that the requests a burst delays stay well
    /// below half of all requests, so the median is not a burst
    /// percentile.
    pub const BURST_S: f64 = 0.02;
    /// Every request carries this deadline.
    pub const DEADLINE_MS: u64 = 25;
    /// A run whose generator sent its 99th-percentile request later
    /// than this after it was due is invalid and is not scored.
    pub const LAG_BOUND_MS: f64 = 50.0;
    /// 1-asset underliers, each quoted at every 1-D maturity.
    pub const UNDERLIERS: usize = 16;
    pub const MATURITIES_1D: [f64; 4] = [0.25, 0.5, 1.0, 2.0];
    /// 2-asset markets, pairing underliers `2p` and `2p + 1`, each
    /// quoted at every 2-D maturity. With the 1-D keys this makes 88
    /// base (market, maturity, method) keys, over the service's default
    /// 64-entry plan cache, before any tick adds more.
    pub const PAIRS: usize = 8;
    pub const MATURITIES_2D: [f64; 3] = [0.5, 1.0, 2.0];
    /// Grid of the 1-asset FD quotes (small kernels: the serve layer
    /// does most of the work).
    pub const FD_POINTS: usize = 201;
    pub const FD_STEPS: usize = 200;
    /// BEG lattice steps of the 2-asset quotes.
    pub const LATTICE_STEPS: usize = 50;
    /// Share of requests that are 1-asset FD vanilla quotes.
    pub const FD_SHARE: f64 = 0.8;
    /// Zipf exponent of key popularity within each class.
    pub const ZIPF_S: f64 = 1.0;
    /// Strikes per 1-asset key (calls and puts) and per 2-asset key.
    pub const STRIKES_1D: usize = 9;
    pub const STRIKES_2D: usize = 3;
    /// Spot ticks per second; each moves one underlier.
    pub const TICK_HZ: f64 = 5.0;
    /// Relative size (one standard deviation) of a spot tick.
    pub const TICK_SIZE: f64 = 0.005;
    /// Times the set-up (service start and cache warm-up) is repeated.
    pub const SETUP_REPEATS: usize = 9;
    /// Reference-kernel runs just before and again just after the open
    /// loop.
    pub const REFERENCE_RUNS: usize = 32;
    /// During the loop, the collector runs the reference kernel this far
    /// into every second, well before the burst.
    pub const REFERENCE_OFFSET_S: f64 = 0.15;
}

/// `book_risk`: a closed loop pricing a multi-asset book on
/// `Backend::Sequential` (see [`crate::book`]).
pub mod book {
    /// Maturity of every product (one plan per engine group).
    pub const MATURITY: f64 = 1.0;
    /// 1-asset FD strike ladder: European calls and American puts.
    pub const FD_EUROPEAN: usize = 6;
    pub const FD_AMERICAN: usize = 6;
    /// 2-asset American options on the BEG lattice (plus two European
    /// reference products: Margrabe and Stulz).
    pub const LATTICE_AMERICAN: usize = 2;
    pub const LATTICE_STEPS: usize = 170;
    /// 3-asset products on 3-D ADI (plus the geometric reference).
    pub const ADI_AMERICAN: usize = 1;
    pub const ADI_POINTS: usize = 25;
    pub const ADI_STEPS: usize = 24;
    /// 5-asset European baskets sharing paths (plus the geometric
    /// reference).
    pub const MC_BASKETS: usize = 8;
    pub const MC_PATHS: u64 = 25_000;
    /// 5-asset American options by LSMC.
    pub const LSMC_OPTIONS: usize = 2;
    pub const LSMC_PATHS: u64 = 2_000;
    pub const LSMC_DATES: usize = 10;
    /// Times the set-up (first plans and a warm-up revaluation) is
    /// repeated.
    pub const SETUP_REPEATS: usize = 9;
    /// Largest accepted error of a grid engine's reference product
    /// against its closed form, in basis points of the closed form.
    pub const REFERENCE_TOL_BP: f64 = 100.0;
    /// Largest accepted error of a Monte Carlo reference product, in
    /// its own standard errors.
    pub const REFERENCE_TOL_SE: f64 = 4.0;
}

/// `cluster_ft`: fault-tolerant distributed pricing on the virtual
/// cluster.
pub mod cluster {
    /// Ranks per SMP node of `Machine::smp_cluster2002`.
    pub const NODE_SIZE: usize = 2;
    /// Small set: two ranks per core over two nodes; host wall time is
    /// scored.
    pub const SMALL_RANKS: usize = 4;
    /// Wide set: reported in virtual time and counts only.
    pub const WIDE_RANKS: usize = 256;
    /// Distinct seeded crash placements per job, cycled over rounds.
    pub const CRASH_PLACEMENTS: usize = 4;
    pub const MC_PATHS: u64 = 65_536;
    pub const MC_BLOCK: u64 = 256;
    pub const MC_CKPT_INTERVAL: usize = 4;
    pub const LATTICE_STEPS: usize = 64;
    pub const LATTICE_CKPT_INTERVAL: usize = 8;
    pub const LSMC_PATHS: u64 = 8_192;
    pub const LSMC_DATES: usize = 16;
    pub const LSMC_BLOCK: u64 = 256;
    pub const LSMC_CKPT_INTERVAL: usize = 4;
    /// Times the set-up (the warm-up job) is repeated.
    pub const SETUP_REPEATS: usize = 9;
}
