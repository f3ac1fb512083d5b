//! Calibrated synthetic QQPhoto workload generator.
//!
//! The generator reproduces, at configurable scale, every statistic the paper
//! publishes about the proprietary 9-day trace (see the crate docs). The
//! design goal is that the paper's *features* (§3.2.1) are genuinely
//! predictive of one-time-access behaviour, exactly as they must be in the
//! real workload for the paper's classifier to reach >80 % accuracy:
//!
//! * each owner has a latent social **activity**; photos of inactive owners
//!   are far more likely to be accessed once — observable through the
//!   "average views of owner's photos" and "active friends" features;
//! * **old** photos (large age at access) are more likely one-time;
//! * **cold photo types** (png variants, low-share types) are more likely
//!   one-time;
//! * photos first accessed near the 05:00 load trough are more likely
//!   one-time (§4.4.3 observes p peaks at 05:00);
//! * a Gaussian noise term caps the achievable (Bayes) accuracy so the
//!   classification problem is hard but solvable, as in the paper.
//!
//! All randomness flows from one `u64` seed; generation is deterministic.

use crate::diurnal::{DiurnalWarp, DAY};
use crate::types::{
    ObjectId, Owner, OwnerId, PhotoMeta, PhotoType, Request, Terminal, Trace, ALL_PHOTO_TYPES,
};
use rand::distributions::Distribution;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Target *object* share of each photo type, tuned so the resulting *request*
/// shares approximate the paper's Figure 3 (l5 ≈ 45 % of requests).
pub const TYPE_SHARES: [f64; 12] = [
    0.010, // a0
    0.050, // a5
    0.010, // b0
    0.060, // b5
    0.010, // c0
    0.080, // c5
    0.020, // m0
    0.130, // m5
    0.050, // l0
    0.450, // l5
    0.020, // o0
    0.110, // o5
];

/// Mean photo size in KiB per resolution rank (a, b, c, m, l, o). The overall
/// mean lands near the 32 KB the paper uses for its latency model (§5.3.5).
const SIZE_KB_BY_RANK: [f64; 6] = [4.0, 8.0, 16.0, 24.0, 36.0, 48.0];

/// Generator configuration. `Default` reproduces the paper's published
/// marginals at a laptop-friendly scale.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Master seed; all randomness derives from it.
    pub seed: u64,
    /// Number of photo objects in the population.
    pub n_objects: usize,
    /// Number of owners. `0` derives `n_objects / 20`.
    pub n_owners: usize,
    /// Length of the observation window in days (paper: 9).
    pub days: u32,
    /// Target fraction of accessed objects that are accessed exactly once
    /// within the window (paper: 0.615).
    pub one_time_fraction: f64,
    /// Mean number of *extra* accesses (beyond the first) for multi-access
    /// objects, before end-of-window truncation. With `one_time_fraction =
    /// 0.615` and this at `9.0`, the *observed* mean accesses per object
    /// lands near the paper's 3.95 after truncation.
    pub multi_extra_mean: f64,
    /// Fraction of objects uploaded before the window starts (aged backlog).
    pub backlog_fraction: f64,
    /// Fraction of requests issued from mobile terminals.
    pub mobile_fraction: f64,
    /// Std-dev of the Gaussian noise on the one-time logit; raises or lowers
    /// the best achievable classification accuracy.
    pub noise_std: f64,
    /// Concept drift per day: the owner-activity axis of the one-time logit
    /// rotates by this fraction each day, so which owners produce one-time
    /// photos changes over time. `0` (default) is a stationary workload;
    /// §4.4.3's daily retraining exists precisely because production
    /// workloads drift.
    pub daily_drift: f64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self {
            seed: 42,
            n_objects: 50_000,
            n_owners: 0,
            days: 9,
            one_time_fraction: 0.615,
            multi_extra_mean: 9.0,
            backlog_fraction: 0.5,
            mobile_fraction: 0.75,
            noise_std: 0.5,
            daily_drift: 0.0,
        }
    }
}

impl TraceConfig {
    /// Window length in seconds.
    pub fn window(&self) -> u64 {
        self.days as u64 * DAY
    }
}

fn sigmoid(z: f64) -> f64 {
    1.0 / (1.0 + (-z).exp())
}

/// Sample a lognormal with the given median (seconds) and sigma.
fn lognormal(rng: &mut impl Rng, median: f64, sigma: f64) -> f64 {
    let n: f64 = rand::distributions::Standard.sample(rng);
    let n2: f64 = rand::distributions::Standard.sample(rng);
    // Box–Muller from two uniforms.
    let g = (-2.0 * n.max(1e-12).ln()).sqrt() * (std::f64::consts::TAU * n2).cos();
    median * (sigma * g).exp()
}

/// Standard normal via Box–Muller.
fn std_normal(rng: &mut impl Rng) -> f64 {
    let u1: f64 = rng.gen::<f64>().max(1e-12);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Lomax (Pareto II) sample with shape `a` and scale `s`; mean = s/(a-1).
fn lomax(rng: &mut impl Rng, a: f64, s: f64) -> f64 {
    let u: f64 = rng.gen::<f64>().max(1e-12);
    s * (u.powf(-1.0 / a) - 1.0)
}

/// "Coldness" bonus per photo type on the one-time logit: png variants and
/// low-share types are colder.
fn type_coldness(t: PhotoType) -> f64 {
    let png = if t.is_png() { 0.35 } else { 0.0 };
    let share = TYPE_SHARES[t as usize];
    png + 0.25 * (1.0 - (share / 0.45).min(1.0))
}

/// What the emission pass needs of an object beyond its [`PhotoMeta`].
struct ObjectDraft {
    first_ts: u64,
    /// One-time logit without the calibration intercept.
    z: f64,
}

/// Generate a trace per `cfg`. Deterministic in `cfg.seed`.
pub fn generate(cfg: &TraceConfig) -> Trace {
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let warp = DiurnalWarp::new();
    let window = cfg.window();
    let n_owners = if cfg.n_owners == 0 { (cfg.n_objects / 20).max(1) } else { cfg.n_owners };

    // --- Owners: latent activity, skewed toward low. -----------------------
    let owners: Vec<Owner> = (0..n_owners)
        .map(|_| {
            let activity = rng.gen::<f32>().powf(1.3);
            let friends =
                (activity as f64 * activity as f64 * 300.0 * lognormal(&mut rng, 1.0, 0.3)) as u32;
            Owner { activity, active_friends: friends }
        })
        .collect();

    // Cumulative type distribution for categorical sampling.
    let mut type_cdf = [0.0f64; 12];
    let mut acc = 0.0;
    for (i, s) in TYPE_SHARES.iter().enumerate() {
        acc += s;
        type_cdf[i] = acc;
    }

    // --- Objects + first access drafts. ------------------------------------
    // Object `k` is `meta[k]`, drafted as `drafts[k]`.
    let mut meta: Vec<PhotoMeta> = Vec::with_capacity(cfg.n_objects);
    let mut drafts: Vec<ObjectDraft> = Vec::with_capacity(cfg.n_objects);
    for _ in 0..cfg.n_objects {
        // Owner weighted by activity (active owners upload more).
        let owner_idx = loop {
            let i = rng.gen_range(0..n_owners);
            let act = owners[i].activity as f64;
            if rng.gen::<f64>() < 0.2 + 0.8 * act {
                break i;
            }
        };
        let activity = owners[owner_idx].activity as f64;

        let u: f64 = rng.gen();
        let tindex = type_cdf.partition_point(|&c| c < u).min(11);
        let ptype = ALL_PHOTO_TYPES[tindex];
        let mean_kb = SIZE_KB_BY_RANK[ptype.resolution_rank() as usize]
            * if ptype.is_png() { 1.4 } else { 1.0 };
        let size = (lognormal(&mut rng, mean_kb * 1024.0, 0.35)).clamp(512.0, 8e6) as u32;

        // Upload time and first access (in *uniform* time, warped later).
        let (upload_ts, first_u): (i64, f64) = if rng.gen::<f64>() < cfg.backlog_fraction {
            // Backlog: uploaded up to 180 days before the window.
            let age = rng.gen_range(1.0..180.0) * DAY as f64;
            (-(age as i64), rng.gen_range(0.0..window as f64))
        } else {
            let up_u = rng.gen_range(0.0..window as f64);
            let lag = -(4.0 * 3600.0) * rng.gen::<f64>().max(1e-12).ln(); // Exp(mean 4 h)
            let up_w = warp.warp(up_u) as i64;
            (up_w, up_u + lag)
        };
        if first_u >= window as f64 {
            continue; // never observed within the window
        }
        let first_ts = warp.warp(first_u) as u64;

        // One-time logit (intercept calibrated below). Under drift, the
        // effective activity axis rotates day by day, so the same owner's
        // photos change their one-time propensity over the trace.
        let age_days = ((first_ts as i64 - upload_ts).max(0)) as f64 / DAY as f64;
        let age_term = (age_days / 60.0).min(1.5);
        let hour = (first_ts % DAY) as f64 / 3600.0;
        let hour_term = 0.5 * ((hour - 5.0) / 24.0 * std::f64::consts::TAU).cos();
        let day = (first_ts / DAY) as f64;
        let drifted_activity = (activity + cfg.daily_drift * day).rem_euclid(1.0);
        let z = 3.0 * (0.6 - drifted_activity)
            + 1.4 * age_term
            + type_coldness(ptype)
            + hour_term
            + cfg.noise_std * std_normal(&mut rng);

        meta.push(PhotoMeta { owner: OwnerId(owner_idx as u32), ptype, size, upload_ts });
        drafts.push(ObjectDraft { first_ts, z });
    }

    // --- Calibrate the intercept so E[one-time] hits the target. -----------
    let b0 = calibrate_intercept(&drafts, cfg.one_time_fraction);

    // --- Emit requests. -----------------------------------------------------
    let mut requests: Vec<Request> = Vec::with_capacity(
        (drafts.len() as f64 * (1.0 + (1.0 - cfg.one_time_fraction) * cfg.multi_extra_mean))
            as usize,
    );
    for (k, (draft, photo)) in drafts.iter().zip(&meta).enumerate() {
        let id = ObjectId(k as u32);

        let mobile = rng.gen::<f64>() < cfg.mobile_fraction;
        requests.push(Request {
            ts: draft.first_ts,
            object: id,
            terminal: if mobile { Terminal::Mobile } else { Terminal::Pc },
        });

        let one_time = rng.gen::<f64>() < sigmoid(draft.z + b0);
        if one_time {
            continue;
        }

        // Extra accesses: heavy-tailed count scaled by owner activity.
        let activity = owners[photo.owner.0 as usize].activity as f64;
        let scale = cfg.multi_extra_mean * (0.4 + 1.2 * activity) / 1.0;
        let extra = (1.0 + lomax(&mut rng, 1.9, scale * 0.9)).min(3000.0) as u32;
        // Per-object inter-access gap scale: an object accessed k times
        // within the window necessarily has gaps ~ window/k, so popular
        // objects return quickly (and predictably — this is what makes
        // re-access labels learnable, as they are in the real workload)
        // while barely-multi objects straggle past the criteria threshold.
        let gap_median = (0.15 * window as f64 / extra as f64).clamp(300.0, 2.0 * DAY as f64);
        let mut t_u = unwarp_approx(draft.first_ts as f64);
        for _ in 0..extra {
            t_u += lognormal(&mut rng, gap_median, 1.0).max(1.0);
            if t_u >= window as f64 {
                break;
            }
            let ts = warp.warp(t_u) as u64;
            let mobile = rng.gen::<f64>() < cfg.mobile_fraction;
            requests.push(Request {
                ts,
                object: id,
                terminal: if mobile { Terminal::Mobile } else { Terminal::Pc },
            });
        }
    }

    // Freed before the sort allocates its buffer: the peak is lower.
    drop(drafts);
    requests.sort_by_key(|r| r.ts);
    Trace { requests, meta, owners }
}

/// Inverse of the diurnal warp is only needed approximately (gaps dominate);
/// identity is adequate because the warp is measure-preserving per day.
fn unwarp_approx(t: f64) -> f64 {
    t
}

/// Binary-search the intercept `b0` so the expected one-time fraction over
/// the drafted objects matches `target`.
fn calibrate_intercept(drafts: &[ObjectDraft], target: f64) -> f64 {
    if drafts.is_empty() {
        return 0.0;
    }
    let mean_p = |b0: f64| -> f64 {
        drafts.iter().map(|d| sigmoid(d.z + b0)).sum::<f64>() / drafts.len() as f64
    };
    let (mut lo, mut hi) = (-12.0f64, 12.0f64);
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if mean_p(mid) < target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use otae_fxhash::FxHashMap;

    fn small_trace() -> Trace {
        generate(&TraceConfig { n_objects: 20_000, seed: 1, ..Default::default() })
    }

    #[test]
    fn deterministic_for_same_seed() {
        let cfg = TraceConfig { n_objects: 2_000, seed: 9, ..Default::default() };
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&TraceConfig { n_objects: 2_000, seed: 1, ..Default::default() });
        let b = generate(&TraceConfig { n_objects: 2_000, seed: 2, ..Default::default() });
        assert_ne!(a.requests, b.requests);
    }

    #[test]
    fn requests_are_time_ordered_and_within_window() {
        let t = small_trace();
        assert!(t.is_time_ordered());
        let window = TraceConfig::default().window();
        assert!(t.requests.iter().all(|r| r.ts < window));
    }

    #[test]
    fn one_time_fraction_near_target() {
        let t = small_trace();
        let mut counts: FxHashMap<ObjectId, u32> = FxHashMap::default();
        for r in &t.requests {
            *counts.entry(r.object).or_insert(0) += 1;
        }
        let one = counts.values().filter(|&&c| c == 1).count() as f64;
        let frac = one / counts.len() as f64;
        assert!((frac - 0.615).abs() < 0.06, "one-time fraction {frac}");
    }

    #[test]
    fn mean_accesses_per_object_near_paper() {
        let t = small_trace();
        let mut seen: FxHashMap<ObjectId, u32> = FxHashMap::default();
        for r in &t.requests {
            *seen.entry(r.object).or_insert(0) += 1;
        }
        let mean = t.requests.len() as f64 / seen.len() as f64;
        assert!((2.8..5.2).contains(&mean), "mean accesses {mean}");
    }

    #[test]
    fn l5_dominates_requests() {
        let t = small_trace();
        let mut by_type = [0u64; 12];
        for r in &t.requests {
            by_type[t.photo(r.object).ptype as usize] += 1;
        }
        let total: u64 = by_type.iter().sum();
        let l5 = by_type[PhotoType::L5 as usize] as f64 / total as f64;
        assert!((0.30..0.60).contains(&l5), "l5 request share {l5}");
        // l5 is the single largest type.
        let max = by_type.iter().max().unwrap();
        assert_eq!(*max, by_type[PhotoType::L5 as usize]);
    }

    #[test]
    fn mean_size_near_32kb() {
        let t = small_trace();
        let avg = t.avg_object_size();
        assert!((15_000.0..60_000.0).contains(&avg), "avg size {avg}");
    }

    #[test]
    fn mobile_fraction_near_config() {
        let t = small_trace();
        let mobile = t.requests.iter().filter(|r| r.terminal == Terminal::Mobile).count() as f64;
        let frac = mobile / t.requests.len() as f64;
        assert!((frac - 0.75).abs() < 0.03, "mobile fraction {frac}");
    }

    #[test]
    fn request_rate_is_diurnal() {
        let t = small_trace();
        let mut per_hour = [0u64; 24];
        for r in &t.requests {
            per_hour[((r.ts % DAY) / 3600) as usize] += 1;
        }
        assert!(
            per_hour[20] as f64 > 1.8 * per_hour[5] as f64,
            "peak {} trough {}",
            per_hour[20],
            per_hour[5]
        );
    }

    #[test]
    fn inactive_owners_have_more_one_time_photos() {
        let t = small_trace();
        let mut counts: FxHashMap<ObjectId, u32> = FxHashMap::default();
        for r in &t.requests {
            *counts.entry(r.object).or_insert(0) += 1;
        }
        let (mut lo_one, mut lo_all, mut hi_one, mut hi_all) = (0.0, 0.0, 0.0, 0.0);
        for (id, c) in &counts {
            let act = t.owners[t.photo(*id).owner.0 as usize].activity;
            if act < 0.25 {
                lo_all += 1.0;
                if *c == 1 {
                    lo_one += 1.0;
                }
            } else if act > 0.7 {
                hi_all += 1.0;
                if *c == 1 {
                    hi_one += 1.0;
                }
            }
        }
        assert!(lo_all > 100.0 && hi_all > 100.0);
        let (lo_frac, hi_frac) = (lo_one / lo_all, hi_one / hi_all);
        assert!(
            lo_frac > hi_frac + 0.1,
            "low-activity one-time {lo_frac} vs high-activity {hi_frac}"
        );
    }

    #[test]
    fn backlog_objects_have_negative_upload_ts() {
        let t = small_trace();
        let backlog = t.meta.iter().filter(|m| m.upload_ts < 0).count() as f64;
        let frac = backlog / t.meta.len() as f64;
        assert!((frac - 0.5).abs() < 0.05, "backlog fraction {frac}");
    }

    /// FNV-1a over every field of every request, photo and owner.
    fn trace_digest(t: &Trace) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for r in &t.requests {
            eat(&r.ts.to_le_bytes());
            eat(&r.object.0.to_le_bytes());
            eat(&[r.terminal as u8]);
        }
        for m in &t.meta {
            eat(&m.owner.0.to_le_bytes());
            eat(&[m.ptype as u8]);
            eat(&m.size.to_le_bytes());
            eat(&m.upload_ts.to_le_bytes());
        }
        for o in &t.owners {
            eat(&o.activity.to_bits().to_le_bytes());
            eat(&o.active_friends.to_le_bytes());
        }
        h
    }

    /// Recorded from the generator before its drafts were slimmed: every
    /// generated byte of seeds {1, 2, 9} × {2 000, 20 000} objects, and of
    /// one drifting trace.
    #[test]
    fn generated_traces_are_pinned() {
        let pinned: [(u64, usize, f64, u64); 7] = [
            (1, 2_000, 0.0, 0xDDBC_61C7_5967_6BEB),
            (1, 20_000, 0.0, 0xCE34_BCF2_EC51_2DFD),
            (2, 2_000, 0.0, 0xD96E_CD0D_E3C2_973D),
            (2, 20_000, 0.0, 0xC41A_2E1B_6D3E_D78E),
            (9, 2_000, 0.0, 0x8526_71BE_4F5C_EADB),
            (9, 20_000, 0.0, 0xE86A_C60D_FDCB_45F1),
            (9, 20_000, 0.12, 0x711A_CBE3_95EE_8BDD),
        ];
        let got: Vec<_> = pinned
            .iter()
            .map(|&(seed, n_objects, daily_drift, _)| {
                let cfg = TraceConfig { seed, n_objects, daily_drift, ..Default::default() };
                (seed, n_objects, daily_drift, trace_digest(&generate(&cfg)))
            })
            .collect();
        assert_eq!(got, pinned);
    }

    #[test]
    fn empty_population_yields_empty_trace() {
        let t = generate(&TraceConfig { n_objects: 0, n_owners: 5, ..Default::default() });
        assert!(t.requests.is_empty());
        assert!(t.meta.is_empty());
    }
}

#[cfg(test)]
mod drift_tests {
    use super::*;
    use otae_fxhash::FxHashMap;

    /// Per-day one-time fraction of low-activity owners' photos.
    fn low_activity_one_time_by_day(trace: &Trace, days: usize) -> Vec<f64> {
        let mut counts: FxHashMap<ObjectId, (u64, u32)> = FxHashMap::default(); // (first day, count)
        for r in &trace.requests {
            let e = counts.entry(r.object).or_insert((r.ts / DAY, 0));
            e.1 += 1;
        }
        let mut one = vec![0.0f64; days];
        let mut all = vec![0.0f64; days];
        for (id, (day, c)) in &counts {
            if trace.owners[trace.photo(*id).owner.0 as usize].activity < 0.3 {
                let d = (*day as usize).min(days - 1);
                all[d] += 1.0;
                if *c == 1 {
                    one[d] += 1.0;
                }
            }
        }
        one.iter().zip(&all).map(|(o, a)| if *a > 0.0 { o / a } else { 0.0 }).collect()
    }

    #[test]
    fn stationary_trace_has_stable_daily_composition() {
        let t = generate(&TraceConfig { n_objects: 20_000, seed: 8, ..Default::default() });
        let frac = low_activity_one_time_by_day(&t, 9);
        let spread = frac[1..8].iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - frac[1..8].iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(spread < 0.15, "stationary spread {spread} ({frac:?})");
    }

    #[test]
    fn drift_rotates_which_owners_produce_one_times() {
        let t = generate(&TraceConfig {
            n_objects: 20_000,
            seed: 8,
            daily_drift: 0.12,
            ..Default::default()
        });
        let frac = low_activity_one_time_by_day(&t, 9);
        let spread = frac[1..8].iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - frac[1..8].iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(spread > 0.15, "drifted spread {spread} ({frac:?})");
    }

    #[test]
    fn drift_preserves_overall_one_time_fraction() {
        let t = generate(&TraceConfig {
            n_objects: 20_000,
            seed: 9,
            daily_drift: 0.12,
            ..Default::default()
        });
        let s = t.characterize();
        assert!(
            (s.one_time_object_fraction - 0.615).abs() < 0.08,
            "calibration must survive drift: {}",
            s.one_time_object_fraction
        );
    }
}
